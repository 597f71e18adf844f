"""Acceptance suite.

Each test prints one `[ACCEPTANCE] <criterion>: PASS/FAIL` line (visible with
`pytest -s`) and asserts it. Heavy simulations are shared through module-scoped
fixtures so the voltage-bound criterion audits exactly the runs produced by the
regime and stochastic-viability criteria.
"""

import math

import numpy as np
import pytest

from frachh import analysis, fbm, solver, viability
from frachh.kinetics import HHParams, diffusion, equilibrium
from frachh.solver import SolverConfig

EQ0 = equilibrium(0.0)
NOISY = HHParams.classic(current_I=10.0, sigma=0.25)
HURST_SET = (0.55, 0.75, 0.95)


def check(name: str, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def regime_runs():
    """Deterministic runs over I in {0, 0.5, ..., 12} at T=50, dt=0.01."""
    cfg = SolverConfig(T=50.0, dt=0.01, seed=0)
    return {
        float(current): solver.simulate(
            EQ0, HHParams.classic(current_I=float(current)), cfg
        )
        for current in np.arange(0.0, 12.01, 0.5)
    }


@pytest.fixture(scope="module")
def stochastic_runs():
    """100 noisy runs (H cycling over {0.55, 0.75, 0.95}), each paired with its
    dt/2 refinement at the same seed."""
    pairs = []
    for seed in range(100):
        hurst = HURST_SET[seed % 3]
        base = solver.simulate(
            EQ0, NOISY, SolverConfig(T=50.0, dt=0.01, hurst_H=hurst, seed=seed)
        )
        half = solver.simulate(
            EQ0, NOISY, SolverConfig(T=50.0, dt=0.005, hurst_H=hurst, seed=seed)
        )
        pairs.append((hurst, seed, base, half))
    return pairs


def test_criterion_1_equilibrium_values():
    eq = equilibrium(0.0)
    err = max(abs(eq.m - 0.053), abs(eq.h - 0.596), abs(eq.n - 0.318))
    check(
        "1 equilibrium gates (0.053, 0.596, 0.318) +/- 0.001",
        err <= 1e-3,
        f"gates=({eq.m:.4f}, {eq.h:.4f}, {eq.n:.4f}), max err {err:.2e}",
    )


def test_criterion_2_bifurcation_regimes(regime_runs):
    counts = {
        current: analysis.detect_spikes(run).size
        for current, run in regime_runs.items()
    }
    sweep = analysis.bifurcation_sweep(
        sorted(regime_runs), HHParams.classic(), SolverConfig(T=50.0, dt=0.01, seed=0)
    )
    sweep_counts = dict(sweep.table)
    agree = all(sweep_counts[i] == counts[i] for i in counts)
    ok = (
        counts[2.0] == 0
        and counts[4.5] == 1
        and counts[10.0] >= 3
        and sweep.I1_hat is not None
        and 2.0 <= sweep.I1_hat <= 4.0
        and sweep.I2_hat is not None
        and 5.0 <= sweep.I2_hat <= 7.0
        and agree
    )
    check(
        "2 regimes I=2/4.5/10 and thresholds I1 in [2,4], I2 in [5,7]",
        ok,
        f"counts 2->{counts[2.0]}, 4.5->{counts[4.5]}, 10->{counts[10.0]}; "
        f"I1_hat={sweep.I1_hat}, I2_hat={sweep.I2_hat}",
    )


def test_criterion_3_viability_condition():
    report = viability.check_viability(NOISY)

    def adversarial(x):
        sigma = diffusion(x, NOISY)
        sigma[3, :] = 0.1
        return sigma

    bad = viability.check_viability(NOISY, diffusion_fn=adversarial)
    ok = (
        report.passed
        and report.max_drift_violation <= report.drift_tolerance
        and report.max_diffusion_violation <= report.diffusion_tolerance
        and not bad.passed
        and bad.worst_diffusion_point is not None
    )
    check(
        "3 boundary conditions pass; adversarial sigma fails",
        ok,
        f"drift viol {report.max_drift_violation:.2e} (tol {report.drift_tolerance:.1e}), "
        f"diffusion viol {report.max_diffusion_violation:.2e}, "
        f"adversarial pass={bad.passed}",
    )


def test_criterion_4_stochastic_viability(stochastic_runs):
    pre_ok = all(
        base.gate_pre_clamp_min >= -1e-9 and base.gate_pre_clamp_max <= 1.0 + 1e-9
        for _, _, base, _ in stochastic_runs
    )
    post_ok = all(
        base.gates.min() >= 0.0 and base.gates.max() <= 1.0
        for _, _, base, _ in stochastic_runs
    )
    improved = sum(
        len(half.clamp_events) <= len(base.clamp_events)
        for _, _, base, half in stochastic_runs
    )
    frac = improved / len(stochastic_runs)
    worst_lo = min(base.gate_pre_clamp_min for _, _, base, _ in stochastic_runs)
    worst_hi = max(base.gate_pre_clamp_max for _, _, base, _ in stochastic_runs)
    check(
        "4 gates viable pre-clamp across 100 noisy runs; clamps shrink with dt",
        pre_ok and post_ok and frac >= 0.9,
        f"pre-clamp range [{worst_lo:.3e}, {worst_hi:.6f}], "
        f"clamp(dt/2)<=clamp(dt) for {frac:.0%} of pairs",
    )


def test_criterion_5_fbm_generator_correctness():
    # (a) Wood-Chan path covariance vs the closed form, 1e4 paths, 10 probes.
    n_grid, horizon, hurst, n_paths = 256, 50.0, 0.75, 10_000
    inc = fbm.wood_chan_increment_ensemble(n_grid, horizon, hurst, 303, n_paths)
    paths = np.cumsum(inc, axis=1)
    grid = np.arange(1, n_grid + 1) * (horizon / n_grid)
    probes = [(15, 15), (15, 63), (31, 127), (63, 255), (255, 255),
              (7, 199), (99, 99), (3, 255), (127, 191), (47, 143)]
    worst_z = 0.0
    for i, j in probes:
        emp = float(np.mean(paths[:, i] * paths[:, j]))
        theo = fbm.fbm_covariance(grid[i], grid[j], hurst)
        var = (
            fbm.fbm_covariance(grid[i], grid[i], hurst)
            * fbm.fbm_covariance(grid[j], grid[j], hurst)
            + theo ** 2
        )
        worst_z = max(worst_z, abs(emp - theo) / math.sqrt(var / n_paths))
    cov_ok = worst_z <= 3.0

    # (b) Cross-validation against the Cholesky oracle at N=256, 1e5 paths each.
    nw = fbm.wood_chan_increment_ensemble(n_grid, horizon, hurst, 101, 100_000)
    nc = fbm.cholesky_increment_ensemble(n_grid, horizon, hurst, 202, 100_000)
    max_abs = float(
        np.abs(nw.T @ nw / nw.shape[0] - nc.T @ nc / nc.shape[0]).max()
    )
    cross_ok = max_abs <= 0.02
    del nw, nc

    # (c) H = 1/2 increments are white: lags 1..5.
    path = fbm.sample_wood_chan(2 ** 18, float(2 ** 18), 0.5, 3)
    x = path.increments
    g0 = float(np.mean(x * x))
    bound = 3.0 / math.sqrt(x.size)
    rho = [float(np.mean(x[k:] * x[:-k]) / g0) for k in range(1, 6)]
    white_ok = all(abs(r) <= bound for r in rho)

    check(
        "5 Wood-Chan matches closed form, Cholesky oracle, and white H=1/2",
        cov_ok and cross_ok and white_ok,
        f"worst |z|={worst_z:.2f} (<=3), cross max-abs {max_abs:.4f} (<=0.02), "
        f"max |rho(1..5)|={max(abs(r) for r in rho):.2e} (<= {bound:.2e})",
    )


def test_criterion_6_regularity_control():
    # (a) estimator recovers H on raw fBm at N = 2^14
    recovery = {}
    for hurst in HURST_SET:
        path = fbm.sample_wood_chan(2 ** 14, 1.0, hurst, 0)
        recovery[hurst] = analysis.estimate_holder(path.values, path.grid).exponent
    rec_ok = all(abs(recovery[h] - h) <= 0.1 for h in HURST_SET)

    # (b) gate-path exponents strictly increase with H (median of 20 seeds)
    medians = []
    for hurst in HURST_SET:
        exps = [
            analysis.gate_regularity(
                solver.simulate(
                    EQ0, NOISY, SolverConfig(T=50.0, dt=0.01, hurst_H=hurst, seed=seed)
                )
            ).exponent
            for seed in range(20)
        ]
        medians.append(float(np.median(exps)))
    gate_ok = medians[0] < medians[1] < medians[2]

    # (c) recording-series medians non-increasing for (0.9, 0.7, 0.55)
    per_recording = [[], [], []]
    for master in range(20):
        series = analysis.simulate_recording_series(
            (0.9, 0.7, 0.55), NOISY, SolverConfig(T=50.0, dt=0.01, seed=1000 + master)
        )
        for k, est in enumerate(series.estimates):
            per_recording[k].append(est.exponent)
    series_medians = [float(np.median(v)) for v in per_recording]
    series_ok = series_medians[0] >= series_medians[1] >= series_medians[2]

    check(
        "6 regularity: estimator recovery, H-ordering, series degradation",
        rec_ok and gate_ok and series_ok,
        f"recovery={ {h: round(v, 3) for h, v in recovery.items()} }, "
        f"gate medians={[round(v, 3) for v in medians]}, "
        f"series medians={[round(v, 3) for v in series_medians]}",
    )


def test_criterion_7_gronwall_bound(regime_runs, stochastic_runs):
    runs = list(regime_runs.values()) + [run for _, _, run, half in stochastic_runs
                                         for run in (run, half)]
    dominated = all(run.max_abs_V <= run.apriori_bound for run in runs)
    flagged = all(run.bound_satisfied for run in runs)
    check(
        "7 a-priori voltage bound dominates every run of criteria 2 and 4",
        dominated and flagged,
        f"{len(runs)} runs, max |V| up to "
        f"{max(run.max_abs_V for run in runs):.2f} mV",
    )


def test_criterion_8_convergence():
    ladder = [0.02, 0.01, 0.005, 0.0025, 0.00125]
    det = solver.convergence_probe(
        EQ0, HHParams.classic(current_I=10.0), 50.0, 0.75, 0, ladder
    )
    det_ok = det.observed_order is not None and 0.8 <= det.observed_order <= 1.2
    sto = solver.convergence_probe(EQ0, NOISY, 50.0, 0.75, 0, ladder)
    gaps = sto.gaps()
    sto_ok = len(gaps) == 4 and all(a > b for a, b in zip(gaps, gaps[1:]))
    check(
        "8 Euler order ~1 deterministically; common-path gaps shrink (H=0.75)",
        det_ok and sto_ok,
        f"order={det.observed_order:.3f}, stochastic gaps="
        f"{[round(g, 4) for g in gaps]}",
    )


def test_criterion_9_stage_switching():
    switched = 0
    label_sets = []
    for seed in range(10):
        result = analysis.stage_switch_run(
            NOISY, SolverConfig(T=1000.0, dt=0.01, hurst_H=0.9, seed=seed)
        )
        label_sets.append(sorted(set(result.labels)))
        if result.switched:
            switched += 1
    check(
        "9 long noisy run switches regimes for at least one of 10 seeds",
        switched >= 1,
        f"{switched}/10 seeds switched; example labels {label_sets[0]}",
    )
