"""Rate functions, drift/diffusion fields, and equilibrium states.

High-precision expected values were computed independently with mpmath at 50
digits from the closed-form rate expressions.
"""

import math

import numpy as np
import pytest

from frachh.kinetics import (
    HHParams,
    State,
    diffusion,
    drift,
    equilibrium,
    ionic_current,
    rates,
    rest_current,
)

# mpmath oracles at v = 0
ALPHA_N_0 = 0.058197670686932642439
ALPHA_M_0 = 0.22356372458463003346
BETA_H_0 = 0.047425873177566780879
M0 = 0.052932485257249574965
H0 = 0.59612075350846024184
N0 = 0.31767691406069738999
BV_EQ0_I10 = 10.000323709182496443

# The order of the tuple `rates` returns.
RATE_NAMES = ("alpha_m", "beta_m", "alpha_h", "beta_h", "alpha_n", "beta_n")


def rate(v, name):
    return rates(v)[RATE_NAMES.index(name)]


class TestRates:
    def test_closed_forms_at_zero(self):
        am, bm, ah, bh, an, bn = rates(0.0)
        assert bn == pytest.approx(0.125, rel=1e-15)
        assert bm == pytest.approx(4.0, rel=1e-15)
        assert ah == pytest.approx(0.07, rel=1e-15)

    def test_high_precision_oracle_at_zero(self):
        am, bm, ah, bh, an, bn = rates(0.0)
        assert an == pytest.approx(ALPHA_N_0, rel=1e-14)
        assert am == pytest.approx(ALPHA_M_0, rel=1e-14)
        assert bh == pytest.approx(BETA_H_0, rel=1e-14)

    def test_removable_singularity_limits(self):
        assert rate(10.0, "alpha_n") == pytest.approx(0.1, rel=1e-13)
        assert rate(25.0, "alpha_m") == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize(
        "center,getter,prefactor", [(10.0, "alpha_n", 0.01), (25.0, "alpha_m", 0.1)]
    )
    def test_continuity_across_singularities(self, center, getter, prefactor):
        # The series branch must agree with the closed form evaluated at the
        # same point (branch mismatch << 1e-9), and the two-sided values must
        # converge to the on-point limit up to the true slope prefactor/2.
        for x in (1e-5, 5e-5, 9.9e-5):
            for signed in (x, -x):
                closed = prefactor * signed / math.expm1(signed / 10.0)
                branch = rate(center - signed, getter)
                assert branch == pytest.approx(closed, abs=1e-9)
        at = rate(center, getter)
        slope = 0.5 * prefactor
        for eps in (1e-3, 1e-4, 1e-5, 1e-7, 1e-9):
            below = rate(center - eps, getter)
            above = rate(center + eps, getter)
            assert abs(below - at) <= slope * eps + 1e-9
            assert abs(above - at) <= slope * eps + 1e-9
        for eps in (1e-4, 1e-5, 1e-7, 1e-9):
            # symmetric difference cancels the slope; what is left must be
            # below the 1e-9 branch-agreement budget
            below = rate(center - eps, getter)
            above = rate(center + eps, getter)
            assert abs(above + below - 2.0 * at) <= 1e-9

    def test_nonnegative_and_finite_over_wide_range(self):
        for v in np.arange(-100.0, 200.01, 0.25):
            r = rates(v)
            for value in r:
                assert math.isfinite(value)
                assert value >= 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_voltage_rejected(self, bad):
        with pytest.raises(ValueError):
            rates(bad)


class TestDrift:
    def test_zero_at_equilibrium_with_matching_current(self, eq0):
        params = HHParams.classic(current_I=rest_current(HHParams.classic()))
        assert np.abs(drift(eq0, params)).max() < 1e-12

    def test_gate_components_point_inward_on_faces(self):
        params = HHParams.classic(current_I=3.0)
        for v in (-40.0, 0.0, 55.0, 120.0):
            am, bm, ah, bh, an, bn = rates(v)
            low = drift(State(0.0, 0.0, 0.0, v), params)
            assert low[0] == pytest.approx(am, rel=1e-15)
            assert low[1] == pytest.approx(ah, rel=1e-15)
            assert low[2] == pytest.approx(an, rel=1e-15)
            assert min(low[:3]) >= 0.0
            high = drift(State(1.0, 1.0, 1.0, v), params)
            assert high[0] == pytest.approx(-bm, rel=1e-15)
            assert max(high[:3]) <= 0.0

    def test_voltage_component_oracle(self, eq0, classic_i10):
        assert drift(eq0, classic_i10)[3] == pytest.approx(BV_EQ0_I10, rel=1e-14)

    def test_nonfinite_state_rejected(self, classic_i10):
        with pytest.raises(ValueError):
            drift(State(0.5, 0.5, 0.5, math.nan), classic_i10)


class TestDiffusion:
    def test_zero_on_gate_corners(self):
        params = HHParams.classic(sigma=0.25)
        for v in (-30.0, 0.0, 80.0):
            assert np.all(diffusion(State(0.0, 0.0, 0.0, v), params) == 0.0)
            assert np.all(diffusion(State(1.0, 1.0, 1.0, v), params) == 0.0)

    def test_center_value(self):
        params = HHParams.classic(sigma=0.25)
        sigma = diffusion(State(0.5, 0.5, 0.5, 7.0), params)
        for k in range(3):
            assert sigma[k, k] == pytest.approx(0.0625, rel=1e-15)

    def test_equilibrium_oracle(self, eq0):
        sigma = diffusion(eq0, HHParams.classic(sigma=0.25))
        assert sigma[0, 0] == pytest.approx(0.012532659315435157841, rel=1e-13)
        assert sigma[1, 1] == pytest.approx(0.060190200186241457027, rel=1e-13)
        assert sigma[2, 2] == pytest.approx(0.054189573083392418727, rel=1e-13)

    def test_structure_diagonal_and_zero_voltage_row(self):
        params = HHParams.classic(sigma=0.4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, h, n = rng.uniform(0.0, 1.0, 3)
            v = rng.uniform(-80.0, 160.0)
            sigma = diffusion(State(m, h, n, v), params)
            assert sigma.shape == (4, 3)
            assert np.all(sigma[3, :] == 0.0)
            off = sigma.copy()
            off[0, 0] = off[1, 1] = off[2, 2] = 0.0
            assert np.all(off == 0.0)


class TestEquilibrium:
    def test_matches_classic_gate_values(self):
        eq = equilibrium(0.0)
        assert eq.m == pytest.approx(M0, rel=1e-14)
        assert eq.h == pytest.approx(H0, rel=1e-14)
        assert eq.n == pytest.approx(N0, rel=1e-14)
        assert eq.V == 0.0

    def test_gates_strictly_inside_unit_interval(self):
        for v in np.arange(-100.0, 200.01, 5.0):
            eq = equilibrium(v)
            for g in eq.gates:
                assert 0.0 < g < 1.0

    def test_is_fixed_point_of_gate_drift(self, classic_i10):
        for v in np.arange(-100.0, 200.01, 10.0):
            b = drift(equilibrium(v), classic_i10)
            assert np.abs(b[:3]).max() < 1e-12


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HHParams(capacitance_C=0.0)
        with pytest.raises(ValueError):
            HHParams(gbar_K=-1.0)
        with pytest.raises(ValueError):
            HHParams(sigma_2=-0.1)
        with pytest.raises(ValueError):
            HHParams(current_I=math.inf)

    def test_rest_current_balances_ionic_current(self):
        params = HHParams.classic()
        i = rest_current(params, v=-20.0)
        assert ionic_current(equilibrium(-20.0), params) == pytest.approx(i, rel=1e-15)
