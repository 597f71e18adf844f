"""Boundary normal cones, the viability sweep, and the Gronwall voltage bound."""

import math

import numpy as np
import pytest

from frachh import solver
from frachh.kinetics import HHParams, State, diffusion, drift
from frachh.viability import (
    BoundarySamplingPlan,
    apriori_voltage_bound,
    check_viability,
    linear_growth_constant,
    normal_cone_generators,
)


class TestNormalCone:
    def test_single_face(self):
        gens = normal_cone_generators(State(0.0, 0.5, 0.5, -3.0))
        assert len(gens) == 1
        assert np.array_equal(gens[0], [-1.0, 0.0, 0.0, 0.0])

    def test_edge_gives_two_rays(self):
        gens = normal_cone_generators(State(1.0, 0.0, 0.5, 12.0))
        assert len(gens) == 2
        assert np.array_equal(gens[0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(gens[1], [0.0, -1.0, 0.0, 0.0])

    def test_corner_gives_three_rays(self):
        assert len(normal_cone_generators(State(0.0, 1.0, 1.0, 0.0))) == 3

    def test_interior_empty(self):
        assert normal_cone_generators(State(0.5, 0.5, 0.5, 0.0)) == []

    def test_defining_inequality_against_random_points(self):
        # <s, y - x> <= 0 for all y in K, per generator, 1000 random y each.
        rng = np.random.default_rng(17)
        boundary = [
            State(0.0, 0.3, 0.9, -20.0),
            State(1.0, 0.0, 0.5, 40.0),
            State(1.0, 1.0, 1.0, 130.0),
            State(0.2, 0.6, 0.0, 0.0),
        ]
        for x in boundary:
            xa = x.as_array()
            for s in normal_cone_generators(x):
                y = np.column_stack(
                    [
                        rng.uniform(0.0, 1.0, 1000),
                        rng.uniform(0.0, 1.0, 1000),
                        rng.uniform(0.0, 1.0, 1000),
                        rng.uniform(-1000.0, 1000.0, 1000),
                    ]
                )
                assert np.max((y - xa) @ s) <= 1e-12


class TestCheckViability:
    def test_model_fields_pass(self, classic_i10_noisy):
        report = check_viability(classic_i10_noisy)
        assert report.passed
        assert report.points_checked == 4578
        assert report.interior_points_checked > 0
        assert report.max_drift_violation <= report.drift_tolerance
        assert report.max_diffusion_violation <= report.diffusion_tolerance

    def test_gate_face_inner_products_are_exact(self, classic_i10_noisy):
        # At m = 0 the only ray is -e1: drift product is -alpha_m <= 0 and the
        # noise products vanish identically.
        x = State(0.0, 0.4, 0.6, 25.0)
        s = normal_cone_generators(x)[0]
        assert s @ drift(x, classic_i10_noisy) <= 0.0
        sigma = diffusion(x, classic_i10_noisy)
        for k in range(3):
            assert s @ sigma[:, k] == 0.0

    def test_adversarial_voltage_row_fails(self, classic_i10_noisy):
        def bad(x):
            sigma = diffusion(x, classic_i10_noisy)
            sigma[3, :] = 0.1
            return sigma

        report = check_viability(classic_i10_noisy, diffusion_fn=bad)
        assert not report.passed
        assert report.max_diffusion_violation == pytest.approx(0.1)
        assert report.worst_diffusion_point is not None

    def test_adversarial_nonvanishing_boundary_entry_fails(self, classic_i10_noisy):
        def bad(x):
            sigma = diffusion(x, classic_i10_noisy)
            sigma[0, 0] = classic_i10_noisy.sigma_1 * (x.m + 0.1) * (1.0 - x.m)
            return sigma

        report = check_viability(classic_i10_noisy, diffusion_fn=bad)
        assert not report.passed
        assert report.worst_diffusion_point.m == 0.0

    def test_adversarial_outward_drift_fails(self, classic_i10_noisy):
        report = check_viability(
            classic_i10_noisy, drift_fn=lambda x: np.array([-1.0, -1.0, -1.0, 0.0])
        )
        assert not report.passed
        assert report.max_drift_violation == pytest.approx(1.0)

    def test_report_text_is_json_like(self, classic_i10_noisy):
        text = check_viability(classic_i10_noisy).to_text()
        assert '"points_checked": 4578' in text
        assert '"pass": true' in text

    def test_custom_plan_is_honored(self, classic_i10_noisy):
        plan = BoundarySamplingPlan(
            v_values=np.array([0.0]), interior_values=np.array([0.5])
        )
        report = check_viability(classic_i10_noisy, plan=plan)
        assert report.passed
        # 26 boundary gate combinations x 1 voltage
        assert report.points_checked == 26


class TestVoltageBound:
    def test_decoupled_voltage_reduces_to_initial_value(self):
        params = HHParams(
            current_I=0.0, gbar_Na=0.0, gbar_K=0.0, gbar_L=0.0
        )
        x0 = State(0.5, 0.5, 0.5, -7.0)
        assert linear_growth_constant(params) == 0.0
        assert apriori_voltage_bound(params, x0, 50.0) == pytest.approx(7.0)
        run = solver.simulate(x0, params, solver.SolverConfig(T=5.0, dt=0.01))
        assert np.all(run.voltage == -7.0)
        assert run.bound_satisfied

    def test_monotone_in_horizon(self):
        params = HHParams(
            current_I=0.5, gbar_Na=0.02, gbar_K=0.01, gbar_L=0.01
        )
        x0 = State(0.5, 0.5, 0.5, 1.0)
        bounds = [apriori_voltage_bound(params, x0, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_overflows_to_inf_at_classic_scale(self, eq0, classic_i10):
        assert apriori_voltage_bound(classic_i10, eq0, 50.0) == math.inf

    def test_dominates_simulated_voltage(self, eq0):
        params = HHParams(
            current_I=1.0, gbar_Na=0.05, gbar_K=0.02, gbar_L=0.01
        )
        run = solver.simulate(eq0, params, solver.SolverConfig(T=20.0, dt=0.01))
        assert run.max_abs_V <= apriori_voltage_bound(params, eq0, 20.0)
        assert run.bound_satisfied

    def test_start_outside_box_rejected(self, classic_i10):
        with pytest.raises(ValueError):
            apriori_voltage_bound(classic_i10, State(1.2, 0.5, 0.5, 0.0), 10.0)
        with pytest.raises(ValueError):
            apriori_voltage_bound(classic_i10, State(0.5, 0.5, 0.5, 0.0), -1.0)
