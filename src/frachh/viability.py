"""Numerical verification that the model cannot push the gates out of [0,1]^3.

The constraint set is K = [0,1]^3 x R (gates in the unit cube, voltage free).
For a box the normal cone at a boundary point is finitely generated by signed
coordinate axes of the active faces, so checking the extreme rays suffices:
the inner product is linear in the cone element. The check evaluates, over a
fixed sweep of the faces, edges and corners of the gate cube,

    <s, b(x)>        <= 0   for every generator s (drift points inward), and
    <s, sigma_k(x)>   = 0   for every generator s and noise column k,

and additionally that the voltage row of sigma vanishes, which the
non-explosion argument for the unbounded V direction needs. Violations are
data, not errors; the report records the worst offenders.

An audit builds the sweep and, from one face rule (`_face_signs`) applied to
all its points at once, each gate's sign at each point, 0 for a gate on no
face; the generator sign_i e_i pairs with a field only through sign_i times
the field's row i, so no generator is built. It calls the diffusion
field once at each of the 7203 points and the drift field once at each of the
4578 boundary points, stacks the results into (7203, 4, 3) and (4578, 4)
arrays, and takes every inner product, scale, maximum and worst point as a
whole-array reduction. The report is the one a point-by-point loop with
strict `>` updates would give: ties go to the first point of the sweep.

`apriori_voltage_bound` turns the linear growth of the voltage drift on K into
an exponential-in-time bound on |V| via Gronwall's lemma. The constant is read
off the parameter magnitudes, so the bound is a non-explosion certificate, not
a tight envelope; at the classic parameter scale it overflows to inf.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

import numpy as np

from . import kinetics
from .kinetics import HHParams, State

# Gate coordinates within 1e-12 of a face count as on it.
_FACE_ATOL = 1e-12
# A violation is real once it exceeds 1e-12 of the observed field scale.
_VIOLATION_RTOL = 1e-12


def _face_signs(gates: np.ndarray) -> np.ndarray:
    """-1 where a gate coordinate lies on its 0 face, +1 where it lies on its
    1 face, 0 elsewhere; the last axis of `gates` is (m, h, n).

    The normal cone to [0,1]^3 x R at a point is generated by sign_i e_i over
    its nonzero signs; the voltage direction never contributes (K is all of
    R there), and an interior point has no generator.
    """
    return np.where(
        np.abs(gates) <= _FACE_ATOL,
        -1.0,
        np.where(np.abs(gates - 1.0) <= _FACE_ATOL, 1.0, 0.0),
    )


# The sweep: voltages in mV, and the values a free gate coordinate runs over.
_SWEEP_V = tuple(float(v) for v in range(-50, 151, 10))
_SWEEP_GATE = tuple(float(g) for g in np.linspace(0.1, 0.9, 5))


def _sweep() -> Iterator[State]:
    """Every face, edge and corner of [0,1]^3, then the interior, crossed with
    the voltage grid.

    Each gate coordinate is pinned to 0, pinned to 1, or runs over
    `_SWEEP_GATE`; the mask with no pinned coordinate comes last, so the 4578
    boundary points precede the 2625 interior ones.
    """
    choices = ((0.0,), (1.0,), _SWEEP_GATE)
    for mask in itertools.product(choices, repeat=3):
        for m, h, n in itertools.product(*mask):
            for v in _SWEEP_V:
                yield State(m, h, n, v)


def _field_values(
    field: Callable[[State], np.ndarray], points: list[State], shape: tuple
) -> np.ndarray:
    """`field` at each of `points`, stacked into one float array; a value of
    any other shape than `shape` is rejected."""
    values = [field(x) for x in points]
    try:
        stacked = np.array(values, dtype=float)
    except ValueError as exc:
        raise ValueError(f"field values must be float arrays of shape {shape}") from exc
    if stacked.shape[1:] != shape:
        raise ValueError(
            f"field values must be float arrays of shape {shape}, "
            f"got shape {stacked.shape[1:]}"
        )
    return stacked


@dataclass(frozen=True)
class ViabilityReport:
    """Outcome of the sweep; `passed` means no violation above 1e-12 of the
    observed drift/diffusion scale."""

    points_checked: int
    interior_points_checked: int
    max_drift_violation: float
    max_diffusion_violation: float
    drift_tolerance: float
    diffusion_tolerance: float
    passed: bool
    worst_drift_point: State | None
    worst_diffusion_point: State | None

    def to_dict(self) -> dict:
        return {("pass" if k == "passed" else k): v for k, v in asdict(self).items()}

    def to_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def check_viability(
    params: HHParams,
    drift_fn: Callable[[State], np.ndarray] | None = None,
    diffusion_fn: Callable[[State], np.ndarray] | None = None,
) -> ViabilityReport:
    """Sweep the gate cube and report the worst inward-drift and
    noise-tangency violations for (b, sigma).

    `drift_fn` / `diffusion_fn` default to the model fields with `params`;
    passing replacements is how adversarial fields are audited. The voltage
    row of sigma is checked at every point, interior ones included: a row
    that vanishes on the boundary could still be nonzero inside. A non-finite
    field value counts as an infinite violation, so it fails the audit; for
    the drift that is any non-finite component, V included, as it is for the
    inner product <s, b>. Ties go to the point that comes first in the sweep.
    A drift value that is not of shape (4,), or a diffusion value that is not
    of shape (4, 3), raises ValueError.
    """
    drift_fn = drift_fn or (lambda x: kinetics.drift(x, params))
    diffusion_fn = diffusion_fn or (lambda x: kinetics.diffusion(x, params))
    states = list(_sweep())
    signs = _face_signs(np.array([x.gates for x in states]))
    boundary = np.flatnonzero(signs.any(axis=1))

    sigma = _field_values(diffusion_fn, states, (4, 3))
    b = _field_values(drift_fn, [states[i] for i in boundary], (4,))

    with np.errstate(invalid="ignore", over="ignore"):
        # Drift: <s, b> = sign_i b_i per generator, + 0.0 making a -0.0 into
        # +0.0; a gate on no face never wins the maximum.
        sb = signs[boundary] * b[:, :3] + 0.0
        sb[~np.isfinite(sb) | ~np.isfinite(b).all(axis=1)[:, None]] = math.inf
        drift_scale = float(np.abs(sb[np.isfinite(sb)]).max(initial=0.0))
        sb[signs[boundary] == 0.0] = -math.inf
        worst = int(np.argmax(sb))
        max_drift = float(sb.flat[worst])
        worst_drift_point = states[boundary[worst // 3]]

        # Diffusion: the voltage row and <s, sigma_k> = sign_i sigma_ik at
        # every point (a gate on no face, and so an interior point, adds
        # nothing).
        magnitude = np.abs(sigma)
        peak = magnitude.max(axis=(1, 2))
        finite = np.isfinite(peak)
        diff_scale = float(peak[finite].max(initial=0.0))
        diff = np.maximum(
            magnitude[:, 3, :].max(axis=1),
            np.abs(signs[:, :, None] * sigma[:, :3]).max(axis=(1, 2)),
        )
        diff[~finite] = math.inf
        worst = int(np.argmax(diff))
        max_diff = float(diff[worst])
        worst_diff_point = states[worst] if max_diff > 0.0 else None

    drift_tol = _VIOLATION_RTOL * max(1.0, drift_scale)
    diff_tol = _VIOLATION_RTOL * max(1.0, diff_scale)
    return ViabilityReport(
        points_checked=len(boundary),
        interior_points_checked=len(states) - len(boundary),
        max_drift_violation=max_drift,
        max_diffusion_violation=max_diff,
        drift_tolerance=drift_tol,
        diffusion_tolerance=diff_tol,
        passed=(max_drift <= drift_tol) and (max_diff <= diff_tol),
        worst_drift_point=worst_drift_point,
        worst_diffusion_point=worst_diff_point,
    )


def linear_growth_constant(params: HHParams) -> float:
    """Constant c1 with |b_V(p, v)| <= c1 (1 + ||p|| + |v|) on K, read off the
    parameter magnitudes (conservative by design)."""
    affine = (
        abs(params.current_I)
        + params.gbar_Na * abs(params.E_Na)
        + params.gbar_K * abs(params.E_K)
        + params.gbar_L * abs(params.E_L)
    )
    slope = params.gbar_Na + params.gbar_K + params.gbar_L
    return max(affine, slope) / params.capacitance_C


def apriori_voltage_bound(params: HHParams, x0: State, T: float) -> float:
    """Gronwall bound c2 exp(c1 T) on max |V(t)| over [0, T] for any solution
    started at `x0` in K, with c2 = |V(0)| + c1 T (1 + sqrt(3)).

    sqrt(3) bounds the gate block on the unit cube. The result is inf when
    exp(c1 T) or the product overflows; the bound is still valid (and then
    vacuous) in that case.
    """
    kinetics.require_in_domain(x0)
    T = float(T)
    if not (T > 0.0):
        raise ValueError(f"horizon T must be positive, got {T!r}")
    c1 = linear_growth_constant(params)
    c2 = abs(x0.V) + c1 * T * (1.0 + math.sqrt(3.0))
    try:
        return c2 * math.exp(c1 * T)
    except OverflowError:
        return math.inf
