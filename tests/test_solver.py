"""Euler stepping, full simulations, the clamp log, and the refinement probe.

The single-step oracle values were computed independently with mpmath at 50
digits from the affine update x + b(x) dt + sigma(x) dB.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frachh import analysis, kinetics, solver
from frachh.kinetics import HHParams, State, drift, rest_current
from frachh.solver import (
    ClampEvent,
    DivergenceError,
    SolverConfig,
    _driver_increments,
    _integrate,
    convergence_probe,
    simulate,
    write_clamp_csv,
    write_trajectory_csv,
)

# One step from equilibrium(0) with dt=0.01, dB=(0.1,-0.1,0.05), sigma=0.25, I=10.
STEP_M1 = 0.054185751188793090749
STEP_H1 = 0.59010173348983609614
STEP_N1 = 0.32038639271486701093
STEP_V1 = 0.10000323709182496443


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.n_steps == 5000
        assert cfg.grid[-1] == pytest.approx(50.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0),
            dict(dt=-0.1),
            dict(T=0.0),
            dict(T=10.0, dt=0.3),  # 0.3 does not divide 10
            dict(hurst_H=0.0),
            dict(hurst_H=1.0),
            dict(T=math.inf),
            dict(T=50.0, dt=1e-320),  # T / dt overflows
            dict(T=1e308, dt=1e-10),
            dict(seed=-1),
            dict(generator="spectral"),
            dict(seed=1.5),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_numpy_integer_seed_accepted(self):
        assert SolverConfig(seed=np.int64(3)).seed == 3

    def test_stochastic_needs_young_range_hurst(self, eq0):
        params = HHParams.classic(current_I=10.0, sigma=0.25)
        cfg = SolverConfig(T=1.0, dt=0.01, hurst_H=0.4, seed=0)
        with pytest.raises(ValueError, match="]1/2,1\\["):
            simulate(eq0, params, cfg)
        # deterministic runs ignore the Hurst field entirely
        simulate(eq0, HHParams.classic(current_I=10.0), cfg)


class TestStepEuler:
    def test_fixed_point_with_matching_current(self, eq0, euler_step):
        params = HHParams.classic(current_I=rest_current(HHParams.classic()))
        new, _ = euler_step(eq0, 0.01, (0.0, 0.0, 0.0), params)
        assert new.m == pytest.approx(eq0.m, abs=1e-15)
        assert new.h == pytest.approx(eq0.h, abs=1e-15)
        assert new.n == pytest.approx(eq0.n, abs=1e-15)
        assert new.V == pytest.approx(eq0.V, abs=1e-15)

    def test_zero_noise_amplitude_ignores_driver(self, eq0, classic_i10, euler_step):
        a, _ = euler_step(eq0, 0.01, (0.0, 0.0, 0.0), classic_i10)
        b, _ = euler_step(eq0, 0.01, (5.0, -9.0, 2.0), classic_i10)
        assert a == b

    def test_affine_update_oracle(self, eq0, euler_step):
        params = HHParams.classic(current_I=10.0, sigma=0.25)
        new, _ = euler_step(eq0, 0.01, (0.1, -0.1, 0.05), params)
        assert new.m == pytest.approx(STEP_M1, rel=1e-14)
        assert new.h == pytest.approx(STEP_H1, rel=1e-14)
        assert new.n == pytest.approx(STEP_N1, rel=1e-14)
        assert new.V == pytest.approx(STEP_V1, rel=1e-14)

    def test_clamp_policy_records_events(self, euler_step):
        params = HHParams.classic(current_I=0.0, sigma=10.0)
        x = State(0.5, 0.5, 0.5, 0.0)
        new, events = euler_step(x, 0.01, (1.0, -1.0, 0.0), params)
        assert new.m == 1.0
        assert new.h == 0.0
        assert {ev.coord for ev in events} == {"m", "h"}
        assert events[0].step == 0
        assert events[0].pre_value > 1.0

    def test_nan_increment_diverges(self, classic_i10_noisy, euler_step):
        with pytest.raises(DivergenceError) as err:
            euler_step(State(0.5, 0.5, 0.5, 0.0), 0.01, (math.nan, 0.0, 0.0),
                       classic_i10_noisy)
        assert err.value.step == 0

    @settings(max_examples=300, deadline=None)
    @given(
        gates=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        v=st.floats(-50.0, 150.0),
        dt=st.floats(1e-3, 0.03),
        current=st.floats(0.0, 15.0),
    )
    def test_noise_free_step_matches_drift(self, gates, v, dt, current, euler_step):
        # The integration loop and `kinetics.drift` (used by the viability
        # audit) state the same vector field twice; pin them together.
        x = State(*gates, v)
        params = HHParams.classic(current_I=current, sigma=0.25)
        new, events = euler_step(x, dt, (0.0, 0.0, 0.0), params)
        assume(not events)
        ref = np.array(dataclasses.astuple(x)) + dt * drift(x, params)
        got = np.array(dataclasses.astuple(new))
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def _reference_step(x, params, dt, dB=None, step=0):
    """One step from `x` on `kinetics.rates`, in the loop's expression order,
    noise-free or with the driver increments `dB`: (new row, or None where
    the loop must diverge; clamp events, logged at index `step`)."""
    am, bm, ah, bh, an, bn = kinetics.rates(x.V)
    m, h, n, v = x.m, x.h, x.n, x.V
    new = [
        m + (am - (am + bm) * m) * dt,
        h + (ah - (ah + bh) * h) * dt,
        n + (an - (an + bn) * n) * dt,
    ]
    ion = (
        params.gbar_Na * m * m * m * h * (v - params.E_Na)
        + params.gbar_K * n * n * n * n * (v - params.E_K)
        + params.gbar_L * (v - params.E_L)
    )
    if dB is not None:
        for i, (sigma, gate, db) in enumerate(zip(params.sigmas, (m, h, n), dB)):
            new[i] += sigma * gate * (1.0 - gate) * db
    events = []
    for i, coord in enumerate("mhn"):
        if new[i] < 0.0 or new[i] > 1.0:
            events.append(ClampEvent(step=step, coord=coord, pre_value=new[i]))
            new[i] = min(1.0, max(0.0, new[i]))
    new.append(v + (params.current_I - ion) / params.capacitance_C * dt)
    return (new if all(map(math.isfinite, new)) else None), events


def _reference_run(x0, params, dt, increments):
    """`_reference_step` once per row of `increments`: (trajectory rows, clamp
    events, 0-based step of the divergence or None)."""
    rows, events = [np.array(dataclasses.astuple(x0)).tolist()], []
    for step, dB in enumerate(increments.tolist()):
        new, new_events = _reference_step(State(*rows[-1]), params, dt, dB, step)
        events += new_events
        if new is None:
            return rows, events, step
        rows.append(new)
    return rows, events, None


def _ulp_neighbours(*voltages):
    return [w for v in voltages
            for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]


def _last_overflowing_voltage(closed_form, lo, hi):
    """The largest voltage at which `closed_form` raises OverflowError, found
    by bisection over the floats between `lo` (raises) and `hi` (does not)."""
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        try:
            closed_form(mid)
        except OverflowError:
            lo = mid
        else:
            hi = mid
    assert math.nextafter(lo, math.inf) == hi
    return lo


# The voltages below which the Euler loop's closed forms raise and it calls
# `kinetics.rates`: beta_h's exp near -7067.8, alpha_m's expm1 near -7072.8
# and alpha_n's near -7087.8.
SWITCH_VOLTAGES = {
    name: _last_overflowing_voltage(closed_form, -8000.0, -7000.0)
    for name, closed_form in [
        ("beta_h", lambda v: 1.0 / (math.exp((30.0 - v) / 10.0) + 1.0)),
        ("alpha_m", lambda v: 0.1 * ((25.0 - v) / math.expm1(0.1 * (25.0 - v)))),
        ("alpha_n", lambda v: 0.01 * ((10.0 - v) / math.expm1(0.1 * (10.0 - v)))),
    ]
}

# The switch points above; 0.6.0's saturation bounds of kinetics'
# exponentials (-6970 for beta_h, -6975 for alpha_m), kept as ordinary
# voltages; the series points and the edges of their old gaps; and a voltage
# where beta_m's exponential overflows.
EDGE_VOLTAGES = [
    *_ulp_neighbours(*SWITCH_VOLTAGES.values()),
    *_ulp_neighbours(-6975.0, -6970.0, 25.0, 10.0, 25.0 - 1e-4, 25.0 + 1e-4,
                     10.0 - 1e-4, 10.0 + 1e-4),
    -13000.0,
]


def _with_edge_examples(test):
    for v in EDGE_VOLTAGES:
        test = example(gates=(0.05, 0.6, 0.32), v=v, dt=0.01, current=10.0)(test)
    return test


class TestInlineRates:
    def test_switch_points_are_where_the_closed_forms_first_raise(self, monkeypatch):
        assert {k: round(v, 1) for k, v in SWITCH_VOLTAGES.items()} == {
            "beta_h": -7067.8, "alpha_m": -7072.8, "alpha_n": -7087.8}
        # At each the step calls `rates`. beta_h's is the highest, so one
        # float above it no closed form raises and the step stays inline.
        calls = self._count_rates(monkeypatch)
        params = HHParams.classic(current_I=10.0)
        for v in SWITCH_VOLTAGES.values():
            _integrate(kinetics.equilibrium(v), params, 0.01, 1, None)
        above = math.nextafter(SWITCH_VOLTAGES["beta_h"], math.inf)
        _integrate(kinetics.equilibrium(above), params, 0.01, 1, None)
        assert calls == list(SWITCH_VOLTAGES.values())

    @settings(max_examples=500, deadline=None)
    @given(
        gates=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        v=st.floats(-2e4, 2e4),
        dt=st.floats(1e-3, 0.03),
        current=st.floats(0.0, 15.0),
    )
    @_with_edge_examples
    def test_step_is_kinetics_rates_bit_for_bit(self, gates, v, dt, current):
        x = State(*gates, v)
        params = HHParams.classic(current_I=current)
        ref, ref_events = _reference_step(x, params, dt)
        if ref is None:
            with pytest.raises(DivergenceError) as err:
                _integrate(x, params, dt, 1, None)
            assert err.value.step == 0
            return
        traj, events = _integrate(x, params, dt, 1, None)
        assert [c.hex() for c in traj[1].tolist()] == [c.hex() for c in ref]
        assert events == ref_events

    @pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
    def test_non_finite_voltage_rejected_by_rates(self, v):
        with pytest.raises(ValueError, match="voltage must be finite"):
            _integrate(State(0.5, 0.5, 0.5, v), HHParams.classic(), 0.01, 1, None)

    @staticmethod
    def _count_rates(monkeypatch):
        calls = []

        def counting(v):
            calls.append(v)
            return kinetics.rates(v)

        monkeypatch.setattr(solver, "rates", counting)
        return calls

    def test_noisy_run_stays_on_fast_path(self, monkeypatch, eq0, classic_i10_noisy):
        calls = self._count_rates(monkeypatch)
        run = simulate(eq0, classic_i10_noisy, SolverConfig(T=50.0, dt=0.01, seed=0))
        assert run.n_steps == 5000
        assert calls == []

    # At 25 and 10 a closed form divides by zero; at -7100 an exponential
    # overflows.
    @pytest.mark.parametrize("v", [25.0, 10.0, -7100.0])
    def test_series_point_takes_slow_path_by_module_name(self, monkeypatch, v):
        calls = self._count_rates(monkeypatch)
        x = kinetics.equilibrium(v)
        _integrate(x, HHParams.classic(current_I=10.0), 0.01, 1, None)
        assert calls == [v]

    # Near the series points and above the first overflow (V < -7067.8)
    # nothing raises, so the closed forms are the values.
    @pytest.mark.parametrize("v", [25.0 - 5e-5, 10.0 + 5e-5, -7000.0])
    def test_near_series_point_stays_inline(self, monkeypatch, v):
        calls = self._count_rates(monkeypatch)
        x = kinetics.equilibrium(v)
        _integrate(x, HHParams.classic(current_I=10.0), 0.01, 1, None)
        assert calls == []


class TestSimulate:
    def test_deterministic_regimes(self, eq0):
        cfg = SolverConfig(T=50.0, dt=0.01, seed=0)
        counts = {}
        for current in (2.0, 4.5, 10.0):
            run = simulate(
                eq0, HHParams.classic(current_I=current), cfg
            )
            counts[current] = analysis.detect_spikes(run).size
            assert len(run.clamp_events) == 0
            assert run.bound_satisfied
        assert counts[2.0] == 0
        assert counts[4.5] == 1
        assert counts[10.0] >= 3

    def test_determinism_bitwise(self, eq0, classic_i10_noisy):
        cfg = SolverConfig(T=5.0, dt=0.01, hurst_H=0.75, seed=4)
        a = simulate(eq0, classic_i10_noisy, cfg)
        b = simulate(eq0, classic_i10_noisy, cfg)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert a.clamp_events == b.clamp_events

    def test_equilibrium_stays_put_with_matching_current(self, eq0):
        params = HHParams.classic(current_I=rest_current(HHParams.classic()))
        run = simulate(eq0, params, SolverConfig(T=50.0, dt=0.01))
        assert np.abs(run.trajectory - np.array(dataclasses.astuple(eq0))).max() < 1e-6

    def test_gates_stay_in_unit_box_with_noise(self, eq0, classic_i10_noisy):
        for hurst, seed in [(0.55, 0), (0.75, 1), (0.95, 2)]:
            run = simulate(
                eq0, classic_i10_noisy,
                SolverConfig(T=50.0, dt=0.01, hurst_H=hurst, seed=seed),
            )
            assert run.gates.min() >= 0.0
            assert run.gates.max() <= 1.0
            assert run.gate_pre_clamp_min >= -1e-9
            assert run.gate_pre_clamp_max <= 1.0 + 1e-9
            assert run.bound_satisfied

    def test_heavy_noise_clamps_but_stays_viable(self, eq0):
        params = HHParams.classic(current_I=10.0, sigma=40.0)
        run = simulate(eq0, params,
                       SolverConfig(T=1.0, dt=0.01, hurst_H=0.55, seed=1))
        assert len(run.clamp_events) > 0
        assert run.gates.min() >= 0.0 and run.gates.max() <= 1.0
        ev = run.clamp_events[0]
        assert ev.pre_value < 0.0 or ev.pre_value > 1.0

    def test_pre_clamp_extremes_are_the_clamp_log_extremes(self, eq0):
        params = HHParams.classic(current_I=10.0, sigma=40.0)
        run = simulate(eq0, params,
                       SolverConfig(T=1.0, dt=0.01, hurst_H=0.55, seed=1))
        raw = [ev.pre_value for ev in run.clamp_events]
        assert run.gate_pre_clamp_min == min(raw) < 0.0
        assert run.gate_pre_clamp_max == max(raw) > 1.0

    def test_unstable_step_reports_divergence(self, eq0, classic_i10):
        with pytest.raises(DivergenceError) as err:
            simulate(eq0, classic_i10, SolverConfig(T=50.0, dt=5.0))
        assert err.value.step >= 0

    def test_voltage_overflow_inside_box_diverges(self):
        # The ionic current overflows while every gate stays in [0,1] (m and
        # n sit at 1, h decays): V alone turns non-finite.
        x = State(1.0, 0.5, 1.0, 1e308)
        with pytest.raises(DivergenceError) as err:
            _integrate(x, HHParams.classic(current_I=10.0), 0.01, 2, None)
        assert err.value.step == 0

    # sigma 3, dt 0.025, H 0.55, I 10: Euler leaves the stable range on four
    # of ten driver seeds (driver seed -> 0-based step of the DivergenceError).
    EULER_DIVERGES_AT = {0: 359, 2: 72, 3: 474, 6: 980}

    # Euler's rows at H 0.55, I 10, T 50, driver seeds 0-9:
    # (sigma, dt) -> (seed -> 0-based step of the DivergenceError; for the
    # seeds that finish, seed -> clamp count, and the seeds whose max V
    # exceeds E_Na = 115). The sigma-3 row pins its divergence steps only.
    EULER_ROWS = {
        (3.0, 0.025): (EULER_DIVERGES_AT, None, None),
        (1.0, 0.04): ({1: 973, 2: 751, 3: 436, 4: 73, 6: 696},
                      {0: 0, 5: 0, 7: 3, 8: 0, 9: 0}, {0, 5, 7, 8}),
        (10.0, 0.01): ({}, {0: 790, 1: 741, 2: 730, 3: 755, 4: 784,
                            5: 717, 6: 734, 7: 751, 8: 784, 9: 775},
                       {1, 2, 3, 5, 7, 9}),
    }

    @pytest.mark.parametrize("seed", range(10))
    def test_coarse_noisy_euler_divergence_row(self, eq0, seed):
        for (sigma, dt), (diverges_at, clamps, above_e_na) in self.EULER_ROWS.items():
            params = HHParams.classic(current_I=10.0, sigma=sigma)
            config = SolverConfig(T=50.0, dt=dt, hurst_H=0.55, seed=seed)
            increments = _driver_increments(params, config)
            assert config.n_steps == {0.025: 2000, 0.04: 1250, 0.01: 5000}[dt]
            if seed in diverges_at:
                with pytest.raises(DivergenceError) as err:
                    _integrate(eq0, params, config.dt, config.n_steps, increments)
                assert err.value.step == diverges_at[seed]
                continue
            traj, events = _integrate(eq0, params, config.dt, config.n_steps, increments)
            assert np.isfinite(traj).all()
            if clamps is not None:
                assert len(events) == clamps[seed]
                assert (traj[:, 3].max() > params.E_Na) == (seed in above_e_na)

    def test_start_outside_box_rejected(self, classic_i10):
        with pytest.raises(ValueError):
            simulate(State(-0.1, 0.5, 0.5, 0.0), classic_i10, SolverConfig(T=1.0, dt=0.01))

    def test_result_accessors(self, eq0, classic_i10):
        run = simulate(eq0, classic_i10, SolverConfig(T=1.0, dt=0.01))
        assert run.n_steps == 100
        assert np.array_equal(run.trajectory[0], np.array(dataclasses.astuple(eq0)))
        assert run.max_abs_V == np.abs(run.voltage).max()


class TestBlocks:
    """`_integrate` runs in blocks of `solver._BLOCK_STEPS` steps; the result
    must not depend on where the seams fall."""

    BLOCK = solver._BLOCK_STEPS

    @pytest.fixture(scope="class")
    def clamp_heavy(self):
        params = HHParams.classic(current_I=10.0, sigma=10.0)
        n_max = 2 * self.BLOCK + 1
        config = SolverConfig(T=n_max * 0.01, dt=0.01, hurst_H=0.55, seed=0)
        return params, _driver_increments(params, config)

    @pytest.mark.parametrize("offset", [(1, -1), (1, 0), (1, 1), (2, 1)],
                             ids=["block-1", "block", "block+1", "2block+1"])
    def test_seams_bit_identical_to_one_block(self, monkeypatch, eq0, clamp_heavy, offset):
        params, increments = clamp_heavy
        n = offset[0] * self.BLOCK + offset[1]
        runs = [
            _integrate(eq0, params, 0.01, n, increments[:n]),
            _integrate(eq0, HHParams.classic(current_I=10.0), 0.01, n, None),
        ]
        monkeypatch.setattr(solver, "_BLOCK_STEPS", n)
        whole = [
            _integrate(eq0, params, 0.01, n, increments[:n]),
            _integrate(eq0, HHParams.classic(current_I=10.0), 0.01, n, None),
        ]
        for (traj, events), (ref_traj, ref_events) in zip(runs, whole):
            assert traj.shape == (n + 1, 4)
            assert traj.tobytes() == ref_traj.tobytes()
            assert events == ref_events
        steps = {ev.step for ev in runs[0][1]}
        assert min(steps) < self.BLOCK - 1 and max(steps) >= n - 64

    def test_noisy_run_is_reference_bit_for_bit(self, eq0, clamp_heavy):
        params, increments = clamp_heavy
        rows, ref_events, diverged = _reference_run(eq0, params, 0.01, increments)
        assert diverged is None
        traj, events = _integrate(eq0, params, 0.01, len(increments), increments)
        assert traj.tobytes() == np.array(rows).tobytes()
        assert events == ref_events
        assert len(events) > 100

    @settings(max_examples=40, deadline=None)
    @given(
        step=st.integers(0, 2 * BLOCK),
        coord=st.integers(0, 2),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    @example(step=BLOCK, coord=0, value=math.nan)
    @example(step=BLOCK - 1, coord=1, value=math.inf)
    def test_non_finite_increment_is_reference(self, eq0, clamp_heavy, step, coord, value):
        # NaN makes its gate NaN; an infinity is clamped onto the boundary,
        # unless the gate sits on it already, where 0 * inf is NaN.
        params, increments = clamp_heavy
        bad = increments.copy()
        bad[step, coord] = value
        rows, ref_events, diverged = _reference_run(eq0, params, 0.01, bad)
        if diverged is not None:
            with pytest.raises(DivergenceError) as err:
                _integrate(eq0, params, 0.01, len(bad), bad)
            assert err.value.step == diverged
            return
        traj, events = _integrate(eq0, params, 0.01, len(bad), bad)
        assert traj.tobytes() == np.array(rows).tobytes()
        assert events == ref_events

    def test_divergence_step_is_global(self, eq0, clamp_heavy):
        params, increments = clamp_heavy
        bad = increments.copy()
        bad[self.BLOCK + 5, 1] = math.nan
        with pytest.raises(DivergenceError) as err:
            _integrate(eq0, params, 0.01, len(bad), bad)
        assert err.value.step == self.BLOCK + 5


class TestConvergenceProbe:
    DT_LADDER = [0.02, 0.01, 0.005, 0.0025, 0.00125]

    def test_deterministic_first_order(self, eq0, classic_i10):
        table = convergence_probe(eq0, classic_i10, 50.0, 0.75, 0, self.DT_LADDER)
        gaps = table.gaps()
        assert len(gaps) == 4
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert 0.8 <= table.observed_order <= 1.2

    def test_stochastic_gaps_decrease_on_common_path(self, eq0, classic_i10_noisy):
        table = convergence_probe(
            eq0, classic_i10_noisy, 50.0, 0.75, 0, self.DT_LADDER
        )
        gaps = table.gaps()
        assert len(gaps) == 4
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_single_entry_gives_empty_table(self, eq0, classic_i10):
        table = convergence_probe(eq0, classic_i10, 1.0, 0.75, 0, [0.01])
        assert table.entries == ()
        assert table.observed_order is None

    def test_non_nested_list_rejected(self, eq0, classic_i10):
        with pytest.raises(ValueError, match="nested"):
            convergence_probe(eq0, classic_i10, 1.0, 0.75, 0, [0.01, 0.003])

    def test_stochastic_low_hurst_rejected(self, eq0, classic_i10_noisy):
        with pytest.raises(ValueError):
            convergence_probe(eq0, classic_i10_noisy, 1.0, 0.4, 0, [0.01, 0.005])

    @pytest.mark.parametrize(
        "T, H, dt_list, message",
        [
            (1.0, 1.7, [0.01, 0.005], "hurst_H must lie in"),
            (math.nan, 0.75, [0.01], "T must be positive and finite"),
            (1.0, 0.75, [0.01, math.nan], "dt must be positive and finite"),
            (1.0, 0.75, [math.nan, 0.01], "dt must be positive and finite"),
            (1.0, 0.75, [0.01, -0.01], "dt must be positive and finite"),
            (1.0, 0.75, [-0.01], "dt must be positive and finite"),
            (1.0, 0.75, [0.01, 0.0], "dt must be positive and finite"),
            (1.0, 0.75, [math.inf, 0.01], "dt must be positive and finite"),
            (1.0, 0.75, [0.3, 0.15], "must divide T"),
        ],
    )
    def test_levels_validated_as_solver_configs(self, eq0, classic_i10, T, H, dt_list, message):
        # Deterministic params: the Hurst range is still a config field.
        with pytest.raises(ValueError, match=message):
            convergence_probe(eq0, classic_i10, T, H, 0, dt_list)


class TestCsv:
    def test_trajectory_csv_round_trips_exactly(self, tmp_path, eq0, classic_i10):
        run = simulate(eq0, classic_i10, SolverConfig(T=1.0, dt=0.01))
        out = tmp_path / "trajectory.csv"
        write_trajectory_csv(run, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,V,m,h,n"
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 1], run.voltage)
        assert np.array_equal(data[:, 2], run.trajectory[:, 0])
        assert np.array_equal(data[:, 3], run.trajectory[:, 1])
        assert np.array_equal(data[:, 4], run.trajectory[:, 2])

    def test_clamp_csv(self, tmp_path, eq0):
        params = HHParams.classic(current_I=10.0, sigma=40.0)
        run = simulate(eq0, params,
                       SolverConfig(T=1.0, dt=0.01, hurst_H=0.55, seed=1))
        out = tmp_path / "clamps.csv"
        write_clamp_csv(run, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "step,coord,pre_value"
        assert len(lines) == len(run.clamp_events) + 1
        step, coord, pre = lines[1].split(",")
        assert coord in ("m", "h", "n")
        assert int(step) >= 0
        assert float(pre) == run.clamp_events[0].pre_value
