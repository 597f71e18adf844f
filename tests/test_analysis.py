"""Spike detection, current sweep, regularity estimation, recording series,
and windowed stage labeling."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import driver_paths
from frachh import fbm, solver
from frachh.analysis import (
    DEFAULT_REFRACTORY,
    MULTIPLE,
    REST,
    SINGLE,
    DegeneratePathError,
    bifurcation_sweep,
    classify_spike_count,
    detect_spikes,
    estimate_holder,
    gate_regularity,
    simulate_recording_series,
    spike_times_from_trace,
    stage_switch_run,
    write_series_csv,
    write_sweep_csv,
)
from frachh.kinetics import HHParams
from frachh.solver import SolverConfig


def _pulse_trace(pulse_times, dt=0.1, horizon=40.0, amplitude=90.0, width=0.5):
    t = np.arange(0.0, horizon + dt / 2, dt)
    v = np.zeros_like(t)
    for pt in pulse_times:
        v[(t >= pt) & (t < pt + width)] = amplitude
    return t, v


class TestSpikeDetection:
    def test_constant_subthreshold_gives_none(self):
        t = np.arange(0.0, 10.0, 0.01)
        assert spike_times_from_trace(t, np.full_like(t, 20.0)).size == 0

    def test_upward_crossings_found(self):
        t, v = _pulse_trace([5.0, 15.0, 25.0])
        times = spike_times_from_trace(t, v, threshold=50.0, refractory=2.0)
        assert times.size == 3
        assert np.allclose(times, [5.0, 15.0, 25.0])

    def test_refractory_merges_close_crossings(self):
        t, v = _pulse_trace([5.0, 6.0, 15.0])
        times = spike_times_from_trace(t, v, threshold=50.0, refractory=2.0)
        assert times.size == 2
        assert np.allclose(times, [5.0, 15.0])

    def test_times_increasing_with_refractory_gaps(self, eq0, classic_i10):
        run = solver.simulate(eq0, classic_i10, SolverConfig())
        gaps = np.diff(detect_spikes(run))
        assert np.all(gaps >= DEFAULT_REFRACTORY)

    def test_trailing_subthreshold_padding_changes_nothing(self):
        t, v = _pulse_trace([5.0, 15.0])
        base = spike_times_from_trace(t, v)
        t2 = np.concatenate([t, t[-1] + 0.1 + np.arange(0.0, 20.0, 0.1)])
        v2 = np.concatenate([v, np.zeros(t2.size - t.size)])
        padded = spike_times_from_trace(t2, v2)
        assert np.array_equal(base, padded)

    def test_leading_subthreshold_padding_preserves_count(self):
        t, v = _pulse_trace([5.0, 15.0])
        t2 = np.concatenate([np.arange(0.0, 20.0, 0.1), t + 20.0])
        v2 = np.concatenate([np.zeros(t2.size - t.size), v])
        assert spike_times_from_trace(t2, v2).size == 2

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            spike_times_from_trace(np.array([]), np.array([]))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        t, v = _pulse_trace([5.0])
        with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
            spike_times_from_trace(t, v, threshold=threshold)

    @pytest.mark.parametrize("refractory", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_negative_or_non_finite_refractory_rejected(self, refractory):
        t, v = _pulse_trace([5.0])
        with pytest.raises(ValueError, match=f"refractory gap .* got {refractory}"):
            spike_times_from_trace(t, v, refractory=refractory)

    def test_zero_refractory_keeps_every_crossing(self):
        t, v = _pulse_trace([5.0, 6.0, 15.0])
        times = spike_times_from_trace(t, v, threshold=50.0, refractory=0.0)
        assert np.allclose(times, [5.0, 6.0, 15.0])


class TestBifurcationSweep:
    def test_regime_counts_and_thresholds(self, classic_i10):
        sweep = bifurcation_sweep(
            np.arange(0.0, 12.01, 1.0), HHParams.classic(), SolverConfig(seed=0)
        )
        counts = dict(sweep.table)
        assert counts[0.0] == 0
        assert counts[2.0] == 0
        assert counts[10.0] >= 3
        assert 2.0 <= sweep.I1_hat <= 4.0
        assert 5.0 <= sweep.I2_hat <= 7.0

    def test_regime_classes_non_decreasing(self):
        sweep = bifurcation_sweep(
            np.arange(0.0, 12.01, 1.0), HHParams.classic(), SolverConfig(seed=0)
        )
        rank = {REST: 0, SINGLE: 1, MULTIPLE: 2}
        classes = [rank[classify_spike_count(c)] for _, c in sweep.table]
        assert classes == sorted(classes)

    def test_noise_amplitudes_ignored(self):
        # The sweep is deterministic: it zeroes the sigmas it is given.
        currents = np.arange(0.0, 12.01, 1.0)
        quiet = bifurcation_sweep(currents, HHParams.classic(), SolverConfig(seed=0))
        noisy = bifurcation_sweep(currents, HHParams.classic(sigma=0.25), SolverConfig(seed=0))
        assert noisy.table == quiet.table
        assert (noisy.I1_hat, noisy.I2_hat) == (quiet.I1_hat, quiet.I2_hat)

    def test_reproducible(self):
        a = bifurcation_sweep([3.0, 8.0], HHParams.classic(), SolverConfig(seed=0))
        b = bifurcation_sweep([3.0, 8.0], HHParams.classic(), SolverConfig(seed=0))
        assert a.table == b.table

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bifurcation_sweep([], HHParams.classic(), SolverConfig())

    # A one-current, 5000-step sweep peaked at 121 kB, its V column, grid
    # and one block of row floats; holding the (5001, 4) trajectory of
    # `simulate` instead peaked at 295 kB.
    SWEEP_PEAK_BOUND = 160_000

    @pytest.mark.parametrize("current", [0.0, 10.0])
    def test_sweep_keeps_no_gate_trajectory(self, current):
        config = SolverConfig(T=50.0, dt=0.01)
        bifurcation_sweep([current], HHParams.classic(), config)
        tracemalloc.start()
        try:
            bifurcation_sweep([current], HHParams.classic(), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.SWEEP_PEAK_BOUND

    def test_csv_format(self, tmp_path):
        sweep = bifurcation_sweep([2.0, 10.0], HHParams.classic(),
                                  SolverConfig(T=20.0, dt=0.01, seed=0))
        out = tmp_path / "sweep.csv"
        write_sweep_csv(sweep, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "I,spike_count"
        assert lines[1].startswith("2,")


class TestHolderEstimator:
    def test_recovers_hurst_on_synthetic_paths(self):
        for hurst in (0.55, 0.8, 0.95):
            paths = driver_paths(fbm.sample_driver(2 ** 14, 1.0, hurst, 0))
            est = estimate_holder(paths[:, 0], np.linspace(0.0, 1.0, 2 ** 14 + 1))
            assert est.exponent == pytest.approx(hurst, abs=0.1)
            assert est.scales_used == 6
            assert np.isfinite(est.fit_residual)

    def test_smooth_ramp_reports_capped_exponent(self):
        t = np.linspace(0.0, 1.0, 1024)
        est = estimate_holder(3.0 * t, t)
        assert est.exponent == pytest.approx(1.0, abs=1e-9)

    def test_constant_path_is_degenerate(self):
        t = np.linspace(0.0, 1.0, 1024)
        with pytest.raises(DegeneratePathError):
            estimate_holder(np.ones_like(t), t)

    def test_short_input_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            estimate_holder(t, t)
        # Also rejected: values and a grid of unequal length, 2-d values, a
        # non-finite value, and a reversed or constant grid.
        t = np.linspace(0.0, 1.0, 1024)
        x = np.sqrt(t)
        for values, grid in ((x, t[:-1]), (x[:-1], t), (np.stack([x, x], axis=1), t)):
            with pytest.raises(ValueError, match="^values and grid must be 1-d arrays"):
                estimate_holder(values, grid)
        x[500] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            estimate_holder(x, t)
        for grid in (t[::-1], np.zeros_like(t)):
            with pytest.raises(ValueError, match="grid step must be positive"):
                estimate_holder(np.sqrt(t), grid)

    def test_gate_paths_rank_by_hurst(self, eq0, classic_i10_noisy):
        medians = []
        for hurst in (0.55, 0.95):
            exps = []
            for seed in range(6):
                run = solver.simulate(
                    eq0, classic_i10_noisy,
                    SolverConfig(T=50.0, dt=0.01, hurst_H=hurst, seed=seed),
                )
                exps.append(gate_regularity(run).exponent)
            medians.append(float(np.median(exps)))
        assert medians[0] < medians[1]


class TestRecordingSeries:
    def test_monotonicity_required(self, classic_i10_noisy):
        with pytest.raises(ValueError, match="non-increasing"):
            simulate_recording_series([0.6, 0.9], classic_i10_noisy, SolverConfig())

    def test_solver_hurst_range_enforced(self, classic_i10_noisy):
        with pytest.raises(ValueError, match="1/2"):
            simulate_recording_series([0.9, 0.3], classic_i10_noisy, SolverConfig())

    def test_empty_series_rejected_before_any_run(self, classic_i10_noisy, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "simulate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="^hurst_sequence must not be empty$"):
            simulate_recording_series([], classic_i10_noisy, SolverConfig())
        assert calls == []

    def test_short_horizon_rejected_before_any_run(self, classic_i10_noisy, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "simulate", lambda *args: calls.append(args))
        # T = 1 at dt = 0.01 gives 101 samples, fewer than the estimator needs.
        with pytest.raises(ValueError, match="need at least 256 samples, got 101"):
            simulate_recording_series([0.9, 0.7], classic_i10_noisy, SolverConfig(T=1.0))
        assert calls == []

    def test_single_element_series(self, classic_i10_noisy):
        series = simulate_recording_series(
            [0.8], classic_i10_noisy, SolverConfig(T=10.0, dt=0.01, seed=3)
        )
        assert len(series.results) == 1
        assert 0.0 < series.estimates[0].exponent <= 1.0

    def test_recordings_use_independent_noise(self, classic_i10_noisy):
        series = simulate_recording_series(
            [0.8, 0.8], classic_i10_noisy, SolverConfig(T=10.0, dt=0.01, seed=3)
        )
        assert not np.array_equal(series.results[0].trajectory,
                                  series.results[1].trajectory)

    def test_constant_pair_estimates_agree(self, classic_i10_noisy):
        per_recording = [[], []]
        for master in range(8):
            series = simulate_recording_series(
                (0.8, 0.8), classic_i10_noisy,
                SolverConfig(T=50.0, dt=0.01, seed=2000 + master),
            )
            for k, est in enumerate(series.estimates):
                per_recording[k].append(est.exponent)
        medians = [float(np.median(v)) for v in per_recording]
        assert abs(medians[0] - medians[1]) <= 0.05

    def test_csv_format(self, tmp_path, classic_i10_noisy):
        series = simulate_recording_series(
            [0.8], classic_i10_noisy, SolverConfig(T=10.0, dt=0.01, seed=3)
        )
        out = tmp_path / "series.csv"
        write_series_csv(series, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,H,exponent,fit_residual"
        assert lines[1].startswith("1,0.8")


class TestStageSwitching:
    def test_deterministic_limit_cycle_is_all_multiple(self, classic_i10):
        result = stage_switch_run(classic_i10, SolverConfig(T=200.0, dt=0.01, seed=0))
        assert set(result.labels) == {MULTIPLE}
        assert not result.switched

    def test_zero_current_is_all_rest(self):
        result = stage_switch_run(HHParams.classic(), SolverConfig(T=200.0, dt=0.01))
        assert set(result.labels) == {REST}

    def test_window_count_and_labels_consistent(self, classic_i10_noisy):
        result = stage_switch_run(
            classic_i10_noisy, SolverConfig(T=200.0, dt=0.01, hurst_H=0.9, seed=0)
        )
        assert len(result.labels) == 4
        for count, label in zip(result.spike_counts, result.labels):
            assert classify_spike_count(count) == label

    @pytest.mark.parametrize("T", [120.0, 30.0])
    def test_partial_window_rejected_before_integrating(self, classic_i10, monkeypatch, T):
        def no_run(*args):
            raise AssertionError("integrated before validating the horizon")

        monkeypatch.setattr(solver, "simulate_voltage", no_run)
        with pytest.raises(ValueError, match="whole number of 50.0 ms windows"):
            stage_switch_run(classic_i10, SolverConfig(T=T, dt=0.01))
