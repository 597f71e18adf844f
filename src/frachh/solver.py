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

Driver increments for step k are B((k+1) dt) - B(k dt) from a single
pre-sampled path; nothing is re-sampled inside a run, which is what makes runs
reproducible and lets `convergence_probe` refine dt on a common noise path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import fbm, viability
from .fbm import GENERATOR_WOOD_CHAN, GENERATORS
from .kinetics import HHParams, State, rates, require_in_domain

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
        n = round(self.T / self.dt)
        if n < 1 or abs(n * self.dt - self.T) > 1e-6 * self.T:
            raise ValueError(f"dt={self.dt} must divide T={self.T} up to rounding")
        if not (0.0 < self.hurst_H < 1.0):
            raise ValueError(f"hurst_H must lie in ]0,1[, got {self.hurst_H!r}")
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
) -> tuple[np.ndarray, list[ClampEvent]]:
    """The integration loop behind `simulate` and `convergence_probe`: Euler
    steps from `x0`, each gate clamped back onto [0,1] and logged when its raw
    proposal leaves it.

    `increments` has one row of driver increments per step, or is None for a
    noise-free run. Returns (trajectory, clamp events).
    """
    C = params.capacitance_C
    I = params.current_I
    g_na, g_k, g_l = params.gbar_Na, params.gbar_K, params.gbar_L
    e_na, e_k, e_l = params.E_Na, params.E_K, params.E_L
    s1, s2, s3 = params.sigmas

    if increments is not None:
        inc1 = increments[:, 0].tolist()
        inc2 = increments[:, 1].tolist()
        inc3 = increments[:, 2].tolist()

    m, h, n, v = x0.m, x0.h, x0.n, x0.V
    traj = np.empty((n_steps + 1, 4))
    traj[0] = (m, h, n, v)
    events: list[ClampEvent] = []

    for k in range(n_steps):
        am, bm, ah, bh, an, bn = rates(v)
        new_m = m + (am - (am + bm) * m) * dt
        new_h = h + (ah - (ah + bh) * h) * dt
        new_n = n + (an - (an + bn) * n) * dt
        ion = (
            g_na * m * m * m * h * (v - e_na)
            + g_k * n * n * n * n * (v - e_k)
            + g_l * (v - e_l)
        )
        new_v = v + (I - ion) / C * dt
        if increments is not None:
            new_m += s1 * m * (1.0 - m) * inc1[k]
            new_h += s2 * h * (1.0 - h) * inc2[k]
            new_n += s3 * n * (1.0 - n) * inc3[k]

        if new_m < 0.0 or new_m > 1.0:
            events.append(ClampEvent(step=k, coord="m", pre_value=new_m))
            new_m = min(1.0, max(0.0, new_m))
        if new_h < 0.0 or new_h > 1.0:
            events.append(ClampEvent(step=k, coord="h", pre_value=new_h))
            new_h = min(1.0, max(0.0, new_h))
        if new_n < 0.0 or new_n > 1.0:
            events.append(ClampEvent(step=k, coord="n", pre_value=new_n))
            new_n = min(1.0, max(0.0, new_n))

        if not (
            math.isfinite(new_v)
            and math.isfinite(new_m)
            and math.isfinite(new_h)
            and math.isfinite(new_n)
        ):
            raise DivergenceError(step=k)

        m, h, n, v = new_m, new_h, new_n, new_v
        traj[k + 1, 0] = m
        traj[k + 1, 1] = h
        traj[k + 1, 2] = n
        traj[k + 1, 3] = v

    return traj, events


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
    return fbm.sample_driver(
        n, n * config.dt, config.hurst_H, config.seed, config.generator
    ).increments


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


@dataclass(frozen=True)
class ConvergenceTable:
    """Sup-norm gaps of coarser runs against the finest run on a common driver
    path, plus an estimated convergence order.

    The order is the log-log slope over gaps between *consecutive* refinement
    levels, not over the to-finest gaps in `entries`: a to-finest gap carries
    the factor (1 - (dt_finest/dt)^p), which varies along the ladder and biases
    the naive slope upward by ~0.2-0.3 for a 16:1 ladder. None when fewer than
    two consecutive gaps are positive."""

    entries: tuple[tuple[float, float], ...]
    observed_order: float | None

    def gaps(self) -> list[float]:
        return [g for _, g in self.entries]


def convergence_probe(
    x0: State,
    params: HHParams,
    T: float,
    H: float,
    seed: int,
    dt_list: Sequence[float],
) -> ConvergenceTable:
    """Dyadic step-refinement study on one noise path, with the default
    generator of `SolverConfig`.

    The driver is sampled once at the finest dt; coarser runs see block sums of
    the same increments (the piecewise-linear restriction of one path), so the
    gaps isolate the scheme error. Every level must be a valid `SolverConfig`
    with horizon T, and `dt_list` must be dyadically nested.
    """
    require_in_domain(x0)
    if len(dt_list) == 0:
        raise ValueError("dt_list must not be empty")
    dts = sorted((float(d) for d in dt_list), reverse=True)
    dt_fine = dts[-1]
    # Nesting is defined for positive finite steps only; any other step fails
    # in `SolverConfig` below, which names the fault.
    if all(0.0 < d < math.inf for d in dts):
        blocks = [2 ** round(math.log2(d / dt_fine)) for d in dts]
        for d, block in zip(dts, blocks):
            if abs(d - dt_fine * block) > 1e-9 * d:
                raise ValueError(f"dt_list must be dyadically nested, {d} is not a "
                                 f"power-of-two multiple of {dt_fine}")
    levels = [SolverConfig(T=T, dt=d, hurst_H=H, seed=seed) for d in dts]
    fine_increments = _driver_increments(params, levels[-1])

    trajectories: dict[float, np.ndarray] = {}
    for config, block in zip(levels, blocks):
        if fine_increments is None:
            increments = None
        else:
            increments = fine_increments.reshape(-1, block, 3).sum(axis=1)
        trajectories[config.dt], _ = _integrate(
            x0, params, config.dt, config.n_steps, increments
        )

    finest = trajectories[dt_fine]
    entries = []
    for d, block in zip(dts, blocks):
        if d == dt_fine:
            continue
        coarse = trajectories[d]
        gap = float(np.abs(coarse - finest[::block]).max())
        entries.append((d, gap))

    consecutive = []
    for (da, ba), (db, bb) in zip(zip(dts, blocks), zip(dts[1:], blocks[1:])):
        stride = ba // bb
        gap = float(np.abs(trajectories[da] - trajectories[db][::stride]).max())
        if gap > 0.0:
            consecutive.append((da, gap))
    order = None
    if len(consecutive) >= 2:
        log_dt = np.log([d for d, _ in consecutive])
        log_gap = np.log([g for _, g in consecutive])
        order = float(np.polyfit(log_dt, log_gap, 1)[0])
    return ConvergenceTable(entries=tuple(entries), observed_order=order)


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
