"""Post-processing: spike detection, current sweeps, path-regularity estimation,
and the multi-recording degeneracy scenario.

Spike definition: an upward crossing of a voltage threshold, with crossings
closer than a refractory gap merged into the earlier spike. The model never
defines a spike numerically; threshold 50 mV and refractory 2 ms are chosen
from the ~100 mV spike amplitude of the classic parameters and are plain
arguments (and CLI flags) everywhere.

The regularity estimator regresses the dyadic-scale quadratic variation: the
mean squared increment at lag 2^j scales like (2^j dt)^(2 alpha) for an
alpha-Holder-type path, so half the log-log slope estimates the exponent. It
is calibrated on synthetic fBm in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import fbm as fbm_mod
from . import solver as solver_mod
from .kinetics import HHParams, equilibrium
from .solver import SimulationResult, SolverConfig

DEFAULT_THRESHOLD = 50.0   # mV
DEFAULT_REFRACTORY = 2.0   # ms

REST = "rest"
SINGLE = "single"
MULTIPLE = "multiple"


class DegeneratePathError(ValueError):
    """The path has no usable increments at some requested scale."""


def spike_times_from_trace(
    t: np.ndarray,
    v: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    refractory: float = DEFAULT_REFRACTORY,
) -> np.ndarray:
    """Times of upward threshold crossings separated by >= refractory."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.size != v.size or t.size == 0:
        raise ValueError("t and v must be nonempty arrays of equal length")
    crossing = np.flatnonzero((v[:-1] < threshold) & (v[1:] >= threshold)) + 1
    times = []
    last = -math.inf
    for idx in crossing:
        if t[idx] - last >= refractory:
            times.append(t[idx])
            last = t[idx]
    return np.asarray(times)


def detect_spikes(
    result: SimulationResult,
    threshold: float = DEFAULT_THRESHOLD,
    refractory: float = DEFAULT_REFRACTORY,
) -> np.ndarray:
    """Spike times of a run (strictly increasing, gaps >= refractory)."""
    return spike_times_from_trace(result.grid, result.voltage, threshold, refractory)


def classify_spike_count(count: int) -> str:
    if count == 0:
        return REST
    if count == 1:
        return SINGLE
    return MULTIPLE


# ---------------------------------------------------------------------------
# Bifurcation sweep over the applied current
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Spike count per applied current, with the last rest-regime current
    (I1_hat) and the last single-spike current (I2_hat); None when the sweep
    never saw the regime."""

    table: tuple[tuple[float, int], ...]
    I1_hat: float | None
    I2_hat: float | None


def bifurcation_sweep(
    I_values: Sequence[float],
    params: HHParams,
    config: SolverConfig,
    threshold: float = DEFAULT_THRESHOLD,
    refractory: float = DEFAULT_REFRACTORY,
) -> SweepResult:
    """Deterministic spike counts across applied currents, each run started
    from the quiescent equilibrium; the sigmas of `params` are ignored."""
    currents = [float(i) for i in I_values]
    if not currents:
        raise ValueError("I_values must not be empty")
    x0 = equilibrium(0.0)
    rows = []
    for current in sorted(currents):
        run = solver_mod.simulate(
            x0,
            replace(params, current_I=current, sigma_1=0.0, sigma_2=0.0, sigma_3=0.0),
            config,
        )
        rows.append((current, detect_spikes(run, threshold, refractory).size))
    zero = [i for i, c in rows if c == 0]
    single = [i for i, c in rows if c == 1]
    return SweepResult(
        table=tuple(rows),
        I1_hat=max(zero) if zero else None,
        I2_hat=max(single) if single else None,
    )


# ---------------------------------------------------------------------------
# Path-regularity estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityEstimate:
    """Holder-type exponent from the dyadic quadratic-variation regression,
    the number of scales used, and the rms residual of the log-log fit."""

    exponent: float
    scales_used: int
    fit_residual: float


_MIN_SAMPLES = 256
# The Holder fit uses lags 2^0 .. 2^(J-1) with J at most this.
_MAX_SCALES = 6


def estimate_holder(values, grid) -> RegularityEstimate:
    """Estimate the path-regularity exponent of one sampled path.

    Uses lags 2^0 .. 2^(J-1) with J = min(_MAX_SCALES, what the sample count
    supports); the exponent is half the slope of log mean-squared-increment
    against log lag, clipped into [0, 1] (a smooth path reports the cap 1).
    """
    x = np.asarray(values, dtype=float)
    t = np.asarray(grid, dtype=float)
    if x.ndim != 1 or x.shape != t.shape:
        raise ValueError("values and grid must be 1-d arrays of equal length")
    if x.size < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples, got {x.size}")
    dt = float(t[1] - t[0])
    n_scales = min(_MAX_SCALES, int(math.log2(x.size / 8)))
    lags = [2 ** j for j in range(n_scales)]
    mean_sq = []
    for lag in lags:
        diffs = x[lag:] - x[:-lag]
        s = float(np.mean(diffs * diffs))
        if s <= 0.0:
            raise DegeneratePathError(
                f"path has zero quadratic variation at lag {lag}; exponent undefined"
            )
        mean_sq.append(s)
    log_scale = np.log([lag * dt for lag in lags])
    log_sq = np.log(mean_sq)
    slope, intercept = np.polyfit(log_scale, log_sq, 1)
    fitted = slope * log_scale + intercept
    residual = float(np.sqrt(np.mean((log_sq - fitted) ** 2)))
    exponent = float(min(1.0, max(0.0, slope / 2.0)))
    return RegularityEstimate(exponent=exponent, scales_used=len(lags), fit_residual=residual)


def gate_regularity(result: SimulationResult) -> RegularityEstimate:
    """Combined gate-path regularity of a run: the median exponent (and median
    residual) over the three gate components, which is robust to one gate
    sitting closer to a face than the others."""
    estimates = [estimate_holder(result.trajectory[:, i], result.grid) for i in range(3)]
    exponents = sorted(e.exponent for e in estimates)
    residuals = sorted(e.fit_residual for e in estimates)
    return RegularityEstimate(
        exponent=exponents[1],
        scales_used=estimates[0].scales_used,
        fit_residual=residuals[1],
    )


# ---------------------------------------------------------------------------
# Degrading-recording scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordingSeries:
    """One simulated recording per Hurst value of a non-increasing sequence,
    each with its gate-regularity estimate; fresh independent noise per
    recording, sub-seeded from the config's master seed."""

    hurst_sequence: tuple[float, ...]
    results: tuple[SimulationResult, ...]
    estimates: tuple[RegularityEstimate, ...]


def simulate_recording_series(
    hurst_sequence: Sequence[float],
    params: HHParams,
    config: SolverConfig,
) -> RecordingSeries:
    """Simulate a degrading-fiber recording series from the quiescent
    equilibrium: recording k uses Hurst parameter H_k, with H_1 >= H_2 >= ...
    required on input."""
    seq = [float(h) for h in hurst_sequence]
    if not seq:
        raise ValueError("hurst_sequence must not be empty")
    for a, b in zip(seq, seq[1:]):
        if b > a:
            raise ValueError(
                f"hurst_sequence must be non-increasing (recording regularity can "
                f"only degrade), got {a} before {b}"
            )
    for h in seq:
        solver_mod.require_young_hurst(h)
    x0 = equilibrium(0.0)
    seeds = fbm_mod.component_seeds(config.seed, n=len(seq))
    results = []
    estimates = []
    for h, seed in zip(seq, seeds):
        run = solver_mod.simulate(x0, params, replace(config, hurst_H=h, seed=seed))
        results.append(run)
        estimates.append(gate_regularity(run))
    return RecordingSeries(
        hurst_sequence=tuple(seq),
        results=tuple(results),
        estimates=tuple(estimates),
    )


# ---------------------------------------------------------------------------
# Long-horizon stage switching
# ---------------------------------------------------------------------------


# Width of the stage-switching windows.
_WINDOW_MS = 50.0


@dataclass(frozen=True)
class StageSwitchResult:
    """Windowed regime labels of one long run: each `_WINDOW_MS` window is
    labeled rest/single/multiple by its spike count."""

    spike_counts: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def switched(self) -> bool:
        return len(set(self.labels)) >= 2


def stage_switch_run(
    params: HHParams,
    config: SolverConfig,
    threshold: float = DEFAULT_THRESHOLD,
    refractory: float = DEFAULT_REFRACTORY,
) -> StageSwitchResult:
    """Run one (typically long) simulation from the quiescent equilibrium and
    label consecutive `_WINDOW_MS` windows by their spike count; `switched`
    reports whether at least two distinct regime labels occur.

    The horizon `config.T` must be a whole number of windows (up to rounding);
    any other horizon raises `ValueError` before integrating, since a partial
    or merged window would be labeled on a different width."""
    n_windows = round(config.T / _WINDOW_MS)
    if n_windows < 1 or abs(n_windows * _WINDOW_MS - config.T) > 1e-6 * config.T:
        raise ValueError(
            f"T={config.T} must be a whole number of {_WINDOW_MS} ms windows"
        )
    run = solver_mod.simulate(equilibrium(0.0), params, config)
    counts = [0] * n_windows
    for t in detect_spikes(run, threshold, refractory):
        idx = min(int(t // _WINDOW_MS), n_windows - 1)
        counts[idx] += 1
    labels = tuple(classify_spike_count(c) for c in counts)
    return StageSwitchResult(spike_counts=tuple(counts), labels=labels)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_sweep_csv(sweep: SweepResult, path) -> None:
    """Rows `I,spike_count`."""
    fbm_mod._write_csv(path, "I,spike_count", "%.17g,%d\n", sweep.table)


def write_series_csv(series: RecordingSeries, path) -> None:
    """Rows `k,H,exponent,fit_residual` (k is 1-based)."""
    rows = [
        (k, h, est.exponent, est.fit_residual)
        for k, (h, est) in enumerate(zip(series.hurst_sequence, series.estimates), start=1)
    ]
    fbm_mod._write_csv(path, "k,H,exponent,fit_residual", "%d,%.17g,%.17g,%.17g\n", rows)
