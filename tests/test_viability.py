"""Boundary normal cones, the viability sweep, and the Gronwall voltage bound."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frachh import solver, viability
from frachh.kinetics import HHParams, State, diffusion, drift
from frachh.viability import (
    ViabilityReport,
    apriori_voltage_bound,
    check_viability,
    linear_growth_constant,
)


def _generators(x):
    """Normal-cone rays at `x` from the audit's face rule: sign_i e_i for
    each gate i on a face."""
    rays = []
    for i, sign in enumerate(viability._face_signs(np.array(x.gates))):
        if sign:
            e = np.zeros(4)
            e[i] = sign
            rays.append(e)
    return rays


def _reference_rays(x):
    """Normal-cone rays at `x` as a plain loop: -e_i where gate i is within
    the face tolerance of 0, +e_i where it is within it of 1."""
    rays = []
    for i, g in enumerate(x.gates):
        for face, sign in ((0.0, -1.0), (1.0, 1.0)):
            if abs(g - face) <= viability._FACE_ATOL:
                e = np.zeros(4)
                e[i] = sign
                rays.append(e)
                break
    return rays


def _reference_audit(params, drift_fn=None, diffusion_fn=None):
    """The audit as a plain loop over the sweep, one point and one ray at a
    time, with the running maxima updated on a strict `>`."""
    drift_fn = drift_fn or (lambda x: drift(x, params))
    diffusion_fn = diffusion_fn or (lambda x: diffusion(x, params))

    points = interior_points = 0
    max_drift = -math.inf
    max_diff = drift_scale = diff_scale = 0.0
    worst_drift_point = worst_diff_point = None

    for x in viability._sweep():
        generators = _reference_rays(x)
        sigma = np.asarray(diffusion_fn(x), dtype=float)
        peak = float(np.max(np.abs(sigma)))
        if math.isfinite(peak):
            diff_scale = max(diff_scale, peak)
            diff = float(np.max(np.abs(sigma[3, :])))
        else:
            diff = math.inf
        if not generators:
            interior_points += 1
        else:
            points += 1
            b = np.asarray(drift_fn(x), dtype=float)
            for s in generators:
                sb = float(s @ b)
                if math.isfinite(sb):
                    drift_scale = max(drift_scale, abs(sb))
                else:
                    sb = math.inf
                if sb > max_drift:
                    max_drift = sb
                    worst_drift_point = x
                diff = max(diff, float(np.max(np.abs(s @ sigma))))
        if diff > max_diff:
            max_diff = diff
            worst_diff_point = x

    drift_tol = viability._VIOLATION_RTOL * max(1.0, drift_scale)
    diff_tol = viability._VIOLATION_RTOL * max(1.0, diff_scale)
    return ViabilityReport(
        points_checked=points,
        interior_points_checked=interior_points,
        max_drift_violation=max_drift,
        max_diffusion_violation=max_diff,
        drift_tolerance=drift_tol,
        diffusion_tolerance=diff_tol,
        passed=(max_drift <= drift_tol) and (max_diff <= diff_tol),
        worst_drift_point=worst_drift_point,
        worst_diffusion_point=worst_diff_point,
    )


_SWEEP_INDEX = {x: i for i, x in enumerate(viability._sweep())}
_NOISY = HHParams.classic(current_I=10.0, sigma=0.25)
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
_ENTRY = st.one_of(_SPECIAL, st.floats(-2.0, 2.0))


@st.composite
def _fields(draw):
    """A (drift_fn, diffusion_fn) pair: the model's or constant fields, with
    single entries at single sweep points overwritten, often by NaN, +-inf or
    a signed zero."""
    if draw(st.booleans()):
        base_b = lambda x: drift(x, _NOISY)
        base_sigma = lambda x: diffusion(x, _NOISY)
    else:
        b0 = np.array(draw(st.lists(_ENTRY, min_size=4, max_size=4)))
        sigma0 = np.array(draw(st.lists(_ENTRY, min_size=12, max_size=12))).reshape(4, 3)
        base_b = lambda x: b0.copy()
        base_sigma = lambda x: sigma0.copy()
    point = st.integers(0, len(_SWEEP_INDEX) - 1)
    b_edits = draw(st.lists(st.tuples(point, st.integers(0, 3), _ENTRY), max_size=4))
    sigma_edits = draw(st.lists(
        st.tuples(point, st.integers(0, 3), st.integers(0, 2), _ENTRY), max_size=4))

    def drift_fn(x):
        b = base_b(x)
        for i, row, value in b_edits:
            if _SWEEP_INDEX[x] == i:
                b[row] = value
        return b

    def diffusion_fn(x):
        sigma = base_sigma(x)
        for i, row, col, value in sigma_edits:
            if _SWEEP_INDEX[x] == i:
                sigma[row, col] = value
        return sigma

    return drift_fn, diffusion_fn


class TestNormalCone:
    def test_single_face(self):
        gens = _generators(State(0.0, 0.5, 0.5, -3.0))
        assert len(gens) == 1
        assert np.array_equal(gens[0], [-1.0, 0.0, 0.0, 0.0])

    def test_edge_gives_two_rays(self):
        gens = _generators(State(1.0, 0.0, 0.5, 12.0))
        assert len(gens) == 2
        assert np.array_equal(gens[0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(gens[1], [0.0, -1.0, 0.0, 0.0])

    def test_corner_gives_three_rays(self):
        assert len(_generators(State(0.0, 1.0, 1.0, 0.0))) == 3

    def test_interior_empty(self):
        assert _generators(State(0.5, 0.5, 0.5, 0.0)) == []

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
            xa = np.array(dataclasses.astuple(x))
            for s in _generators(x):
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
        s = _generators(x)[0]
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

    def test_nan_drift_fails(self, classic_i10_noisy):
        report = check_viability(
            classic_i10_noisy, drift_fn=lambda x: np.full(4, np.nan)
        )
        assert not report.passed
        assert report.max_drift_violation == math.inf
        assert report.worst_drift_point is not None

    def test_nan_diffusion_fails(self, classic_i10_noisy):
        report = check_viability(
            classic_i10_noisy, diffusion_fn=lambda x: np.full((4, 3), np.nan)
        )
        assert not report.passed
        assert report.max_diffusion_violation == math.inf
        assert report.worst_diffusion_point is not None

    def test_report_text_is_json_like(self, classic_i10_noisy):
        text = check_viability(classic_i10_noisy).to_text()
        assert '"points_checked": 4578' in text
        assert '"pass": true' in text

    def test_readme_reports_are_pinned(self, classic_i10_noisy):
        # The reports of `frachh viability --sigma 0.25` with and without
        # `--sigma-row4 0.1`; ties go to the first point of the sweep.
        def row4(x):
            sigma = diffusion(x, classic_i10_noisy)
            sigma[3, :] = 0.1
            return sigma

        corner = {"m": 0.0, "h": 0.0, "n": 0.0}
        expected = {
            "points_checked": 4578,
            "interior_points_checked": 2625,
            "max_drift_violation": -3.8715905910348355e-05,
            "max_diffusion_violation": 0.0,
            "drift_tolerance": 6.433296268825178e-11,
            "diffusion_tolerance": 1e-12,
            "pass": True,
            "worst_drift_point": {**corner, "V": 150.0},
            "worst_diffusion_point": None,
        }
        assert check_viability(classic_i10_noisy).to_dict() == expected
        expected.update(
            max_diffusion_violation=0.1,
            worst_diffusion_point={**corner, "V": -50.0},
        )
        expected["pass"] = False
        assert check_viability(classic_i10_noisy, diffusion_fn=row4).to_dict() == expected

    def test_nan_in_drift_voltage_only_fails_at_that_point(self, classic_i10_noisy):
        x = State(0.0, 0.5, 1.0, 40.0)

        def nan_v(y):
            b = drift(y, classic_i10_noisy)
            if y == x:
                b[3] = math.nan
            return b

        report = check_viability(classic_i10_noisy, drift_fn=nan_v)
        assert report.max_drift_violation == math.inf
        assert report.worst_drift_point == x
        assert not report.passed

    @pytest.mark.parametrize(
        "fields",
        [
            {"diffusion_fn": lambda x: np.zeros(3)},
            {"diffusion_fn": lambda x: np.zeros((4, 3)) if x.V < 0.0 else np.zeros(3)},
            {"diffusion_fn": lambda x: np.zeros((1, 4, 3))},
            {"drift_fn": lambda x: 0.0},
            {"drift_fn": lambda x: np.zeros(3)},
            {"drift_fn": lambda x: np.zeros((4, 1))},
        ],
    )
    def test_malformed_field_values_rejected(self, classic_i10_noisy, fields):
        with pytest.raises(ValueError, match="shape"):
            check_viability(classic_i10_noisy, **fields)

    @settings(max_examples=20, deadline=None)
    @given(fields=_fields())
    @example(fields=(lambda x: np.array([0.0, -0.0, 0.0, math.nan]),
                     lambda x: np.zeros((4, 3))))
    @example(fields=(lambda x: np.array([-0.0, -0.0, -0.0, -0.0]),
                     lambda x: np.full((4, 3), -0.0)))
    def test_matches_reference_loop(self, classic_i10_noisy, fields):
        drift_fn, diffusion_fn = fields
        with np.errstate(all="ignore"):
            expected = _reference_audit(classic_i10_noisy, drift_fn, diffusion_fn)
        report = check_viability(classic_i10_noisy, drift_fn, diffusion_fn)
        assert report.to_text() == expected.to_text()


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
