"""Explicit Euler integration of the gate-noise model against a sampled fBm driver.

One scheme step from state (m, h, n, V) with driver increments dB:

    x' = x + b(x) dt + sigma(x) dB

Continuous-time theory keeps the gates in [0,1], but the Euler image of the
cube need not stay inside it, so each gate is projected back onto [0,1] and
every projection is logged as a `ClampEvent` with its raw value. The clamp log
is the record of where the scheme breaks viability: a breach of tolerance tol
is the first logged event whose raw value lies more than tol outside [0,1].
The clamp count is a discretization artifact and shrinks as dt does.

Stochastic runs are restricted to Hurst parameters in ]1/2,1[, where the
pathwise integral is a Young integral and the explicit first-order scheme is
justified; the static boundary conditions checked in `viability` hold more
widely, but this solver does not.

Step k takes row k of the increments of a single pre-sampled driver, as the
generator drew them; nothing is re-sampled inside a run, which is what makes
runs reproducible and lets `convergence_probe` coarsen one `SolverConfig`'s
run on block sums of its own driver.

The loop evaluates the gate rates inline, writing out `kinetics.rates`' four
transcendental calls and the products built from them with the same
expressions in the same order, so every bit matches. They sit in a `try`;
only where one raises (ZeroDivisionError at V = 10 or 25, OverflowError
below V = -7072.8) is `rates` called, looked up as this module's global at
call time. A non-finite start V is rejected by each caller's
`require_in_domain`, before any driver is drawn.

The noise term of gate x is x(1 - x) sigma dB. The loop carries the factor
x(1 - x) of each gate from one step to the next and scales each block of
increments by sigma into one buffer allocated before the loop. The factors
are also the range test: for every float, x(1 - x) >= 0 exactly when
0 <= x <= 1, and NaN fails it. So each step makes one range test of its new
state, three factors >= 0 and V finite; only when it fails are the gates
clamped and logged, their factors set to 0, and the state checked for
divergence.

The loop runs in blocks of `_BLOCK_STEPS` (1024) steps, and the scaled
increments become Python floats one block at a time, so the loop holds no
whole-run lists of them. Each step's new state is added to the block's list
of rows; at the end of the block the rows move into a flat `array("d")` in
one `fromlist` call, and the trajectory is handed out as an
(n_steps + 1, 4) numpy view of that array, without a copy. The row list
keeps a block's floats alive until then, which is why blocks are not
longer: at 4096 steps they raised the peak memory of a 5000-step
four-column run by ~0.5 MB.

Callers that read V alone (spike counts: the current sweep and the windowed
stage labels) go through `simulate_voltage`, for which the same loop stores
one float per step, V, and hands out an (n_steps + 1,) view. Every step is
computed as for the full rows, so V is the same bit for bit.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fbm, viability
from .fbm import GENERATOR_WOOD_CHAN, GENERATORS
from .kinetics import _E3, HHParams, State, rates, require_in_domain

# Steps per block of `_integrate`'s loop.
_BLOCK_STEPS = 1024


class DivergenceError(RuntimeError):
    """The state became non-finite during integration."""

    def __init__(self, step: int):
        super().__init__(f"state became non-finite at step {step}; reduce dt")
        self.step = step


class ClampEvent(NamedTuple):
    """One gate projection: 0-based step index, gate name, raw pre-clamp value."""

    step: int
    coord: str
    pre_value: float


@dataclass(frozen=True)
class SolverConfig:
    """Integration setup: horizon T, step dt (dt must divide T up to rounding),
    Hurst parameter for stochastic runs (ignored when all sigmas are zero),
    driver seed and fBm generator."""

    T: float = 50.0
    dt: float = 0.01
    hurst_H: float = 0.75
    seed: int = 0
    generator: str = GENERATOR_WOOD_CHAN

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T={self.T} / dt={self.dt} is not finite")
        n = round(self.T / self.dt)
        if n < 1 or abs(n * self.dt - self.T) > 1e-6 * self.T:
            raise ValueError(f"dt={self.dt} must divide T={self.T} up to rounding")
        if not (0.0 < self.hurst_H < 1.0):
            raise ValueError(f"hurst_H must lie in ]0,1[, got {self.hurst_H!r}")
        fbm.require_seed(self.seed)
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}, got {self.generator!r}")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Full trajectory plus the bookkeeping the invariants are asserted on.

    `trajectory` has one row per grid point, columns (m, h, n, V).
    `gate_pre_clamp_min/max` are the extremes of the starting gates and of the
    raw gate proposals before any projection, so boundary overshoot is visible
    even under clamping.
    """

    grid: np.ndarray
    trajectory: np.ndarray
    clamp_events: tuple[ClampEvent, ...]
    max_abs_V: float
    apriori_bound: float
    bound_satisfied: bool
    gate_pre_clamp_min: float
    gate_pre_clamp_max: float

    @property
    def voltage(self) -> np.ndarray:
        return self.trajectory[:, 3]

    @property
    def gates(self) -> np.ndarray:
        return self.trajectory[:, :3]

    @property
    def n_steps(self) -> int:
        return self.grid.size - 1


def _integrate(
    x0: State,
    params: HHParams,
    dt: float,
    n_steps: int,
    increments: np.ndarray | None,
    *,
    voltage_only: bool = False,
) -> tuple[np.ndarray, list[ClampEvent]]:
    """The integration loop behind `simulate`, `simulate_voltage` and
    `convergence_probe`: Euler steps from `x0`, each gate clamped back onto
    [0,1] and logged when its raw proposal leaves it.

    `increments` has one row of driver increments per step, or is None for a
    noise-free run. Returns (trajectory, clamp events): the trajectory is the
    (n_steps + 1, 4) rows (m, h, n, V), or with `voltage_only` the
    (n_steps + 1,) column V alone, which is all that is stored then.
    """
    I = params.current_I
    dt_c = dt / params.capacitance_C
    g_na, g_k, g_l = params.gbar_Na, params.gbar_K, params.gbar_L
    e_na, e_k, e_l = params.E_Na, params.E_K, params.E_L
    exp, expm1, isfinite, e3 = math.exp, math.expm1, math.isfinite, _E3
    inf, neg_inf = math.inf, -math.inf

    m, h, n, v = x0.m, x0.h, x0.n, x0.V
    # The noise factors x(1 - x), carried from step to step; each is >= 0
    # exactly when its gate lies in [0,1], so they are the range test too.
    pm, ph, pn = m * (1.0 - m), h * (1.0 - h), n * (1.0 - n)
    buf = array("d", (v,) if voltage_only else (m, h, n, v))
    rows: list[float] = []
    events: list[ClampEvent] = []
    noisy = increments is not None
    if noisy:
        sigmas = np.array(params.sigmas)
        scaled = np.empty((min(_BLOCK_STEPS, n_steps), 3))

    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        if noisy:
            # sigma_k dB_k, one block at a time; 0 * inf is NaN here as it is
            # in Python, without numpy's warning.
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(increments[lo:hi], sigmas, out=scaled[:hi - lo])
            d1, d2, d3 = scaled[:hi - lo].T.tolist()
        for i in range(hi - lo):
            # `kinetics.rates(v)` written out, expression for expression;
            # where one of them raises, it is called instead.
            xm = 25.0 - v
            xn = 10.0 - v
            try:
                am = 0.1 * (xm / expm1(0.1 * xm))
                e80 = exp(v * (-1 / 80))
                e20 = e80 * e80
                e20 *= e20
                bm = 4.0 * exp(v * (-1 / 18))
                ah = 0.07 * e20
                bh = 1.0 / (e3 * (e20 * e20) + 1.0)
                an = 0.01 * (xn / expm1(0.1 * xn))
                bn = 0.125 * e80
            except (ZeroDivisionError, OverflowError):
                am, bm, ah, bh, an, bn = rates(v)
            nn = n * n
            ion = (
                g_na * m * m * m * h * (v - e_na)
                + g_k * (nn * nn) * (v - e_k)
                + g_l * (v - e_l)
            )
            v += (I - ion) * dt_c
            m += (am - (am + bm) * m) * dt
            h += (ah - (ah + bh) * h) * dt
            n += (an - (an + bn) * n) * dt
            if noisy:
                m += pm * d1[i]
                h += ph * d2[i]
                n += pn * d3[i]

            pm = m * (1.0 - m)
            ph = h * (1.0 - h)
            pn = n * (1.0 - n)
            if not (pm >= 0.0 and ph >= 0.0 and pn >= 0.0 and neg_inf < v < inf):
                if m < 0.0 or m > 1.0:
                    events.append(ClampEvent(step=lo + i, coord="m", pre_value=m))
                    m = min(1.0, max(0.0, m))
                    pm = 0.0
                if h < 0.0 or h > 1.0:
                    events.append(ClampEvent(step=lo + i, coord="h", pre_value=h))
                    h = min(1.0, max(0.0, h))
                    ph = 0.0
                if n < 0.0 or n > 1.0:
                    events.append(ClampEvent(step=lo + i, coord="n", pre_value=n))
                    n = min(1.0, max(0.0, n))
                    pn = 0.0
                # Each gate now lies in [0,1] or is NaN, and adding at most 3
                # to a finite V cannot overflow: the sum is finite exactly
                # when all four coordinates are.
                if not isfinite(v + m + h + n):
                    raise DivergenceError(step=lo + i)

            if voltage_only:
                rows.append(v)
            else:
                rows += m, h, n, v
        buf.fromlist(rows)
        rows.clear()

    traj = np.frombuffer(buf)
    return (traj if voltage_only else traj.reshape(n_steps + 1, 4)), events


def require_young_hurst(H: float) -> None:
    """Reject Hurst parameters outside ]1/2,1[, the only range in which this
    solver integrates a noisy run."""
    if not (0.5 < H < 1.0):
        raise ValueError(
            f"stochastic runs need a Hurst parameter in ]1/2,1[ (Young-integral "
            f"range of the explicit scheme), got {H}; the boundary "
            f"viability conditions themselves hold for H in ]1/4,1[, but this "
            f"solver does not integrate below 1/2"
        )


def _driver_increments(params: HHParams, config: SolverConfig) -> np.ndarray | None:
    """Per-step increments of a freshly sampled three-component driver on
    `config`'s grid, or None when all sigmas are zero."""
    if params.is_deterministic:
        return None
    require_young_hurst(config.hurst_H)
    n = config.n_steps
    return fbm.sample_driver(n, n * config.dt, config.hurst_H, config.seed, config.generator)


def simulate(x0: State, params: HHParams, config: SolverConfig) -> SimulationResult:
    """Integrate the model over [0, T] against a freshly sampled three-component
    driver (skipped when all sigmas are zero). Deterministic given its inputs."""
    require_in_domain(x0)
    n = config.n_steps
    traj, events = _integrate(x0, params, config.dt, n, _driver_increments(params, config))
    # The raw gate extremes, exactly: an unclamped proposal is stored as is, a
    # clamped one is logged, and the clamp targets 0 and 1 never widen the
    # range, since x0 lies in the box.
    gates = [traj[:, :3].min(), traj[:, :3].max(), *(ev.pre_value for ev in events)]
    max_abs_v = float(np.abs(traj[:, 3]).max())
    bound = viability.apriori_voltage_bound(params, x0, n * config.dt)
    return SimulationResult(
        grid=config.grid,
        trajectory=traj,
        clamp_events=tuple(events),
        max_abs_V=max_abs_v,
        apriori_bound=bound,
        bound_satisfied=max_abs_v <= bound,
        gate_pre_clamp_min=float(min(gates)),
        gate_pre_clamp_max=float(max(gates)),
    )


def simulate_voltage(x0: State, params: HHParams, config: SolverConfig) -> np.ndarray:
    """V alone of `simulate(x0, params, config)`, bit for bit, on `config.grid`:
    the same run, driver and divergence, without the gate trajectory and the
    `SimulationResult` bookkeeping."""
    require_in_domain(x0)
    voltage, _ = _integrate(x0, params, config.dt, config.n_steps,
                            _driver_increments(params, config), voltage_only=True)
    return voltage


@dataclass(frozen=True)
class ConvergenceTable:
    """Sup-norm gaps of coarser runs against the finest run on a common driver
    path, plus an estimated convergence order.

    The order is the log-log slope over gaps between *consecutive* refinement
    levels, not over the to-finest gaps in `entries`: a to-finest gap carries
    the factor (1 - (dt_finest/dt)^p), which varies along the levels and
    biases the naive slope upward by ~0.2-0.3 over five levels (16:1). None
    when fewer than two consecutive gaps are positive."""

    entries: tuple[tuple[float, float], ...]
    observed_order: float | None

    def gaps(self) -> list[float]:
        return [g for _, g in self.entries]


def convergence_probe(
    x0: State, params: HHParams, config: SolverConfig, levels: int
) -> ConvergenceTable:
    """Dyadic step-refinement study on one noise path.

    `config` is the finest level. Level k = 0 ... levels - 1 steps
    `config.dt * 2**k` for `config.n_steps >> k` steps, on sums of 2**k
    consecutive increments of the driver `simulate(x0, params, config)` draws
    (the piecewise-linear restriction of one path), so the gaps isolate the
    scheme error. `levels` must be an integer >= 1, and 2**(levels - 1) must
    divide `config.n_steps`. `entries` run coarsest first.
    """
    require_in_domain(x0)
    if not isinstance(levels, numbers.Integral) or levels < 1:
        raise ValueError(f"levels must be an integer >= 1, got {levels!r}")
    n = config.n_steps
    # Shifts rather than 2**(levels - 1), which a huge level count would build.
    if (n >> (levels - 1)) << (levels - 1) != n:
        raise ValueError(f"2**{levels - 1} does not divide n_steps={n}")
    increments = _driver_increments(params, config)

    # One (dt, trajectory) per level, coarsest first.
    runs = []
    for k in reversed(range(levels)):
        dt = config.dt * 2**k
        sums = None if increments is None else increments.reshape(-1, 2**k, 3).sum(axis=1)
        runs.append((dt, _integrate(x0, params, dt, n >> k, sums)[0]))

    finest = runs[-1][1]
    entries = tuple((dt, float(np.abs(traj - finest[::2**k]).max()))
                    for k, (dt, traj) in zip(range(levels - 1, 0, -1), runs))
    consecutive = []
    for (dt, coarse), (_, fine) in zip(runs, runs[1:]):
        gap = float(np.abs(coarse - fine[::2]).max())
        if gap > 0.0:
            consecutive.append((dt, gap))
    order = None
    if len(consecutive) >= 2:
        log_dt = np.log([d for d, _ in consecutive])
        log_gap = np.log([g for _, g in consecutive])
        order = float(np.polyfit(log_dt, log_gap, 1)[0])
    return ConvergenceTable(entries=entries, observed_order=order)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_trajectory_csv(result: SimulationResult, path) -> None:
    """Rows `t,V,m,h,n` with 17 significant digits."""
    m, h, n, v = result.trajectory.T
    fbm._write_csv(path, "t,V,m,h,n", "%.17g,%.17g,%.17g,%.17g,%.17g\n",
                   fbm._column_rows(result.grid, v, m, h, n))


def write_clamp_csv(result: SimulationResult, path) -> None:
    """Rows `step,coord,pre_value`; step is the 0-based index of the Euler step
    whose raw proposal was projected."""
    fbm._write_csv(path, "step,coord,pre_value", "%d,%s,%.17g\n", result.clamp_events)
