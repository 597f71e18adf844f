"""Rate functions, drift/diffusion fields, and equilibrium states.

High-precision expected values were computed independently with mpmath at 50
digits from the closed-form rate expressions.
"""

import decimal
import math

import numpy as np
import pytest

from frachh import kinetics
from frachh.kinetics import (
    HHParams,
    State,
    diffusion,
    drift,
    equilibrium,
    ionic_current,
    rates,
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


def _expm1_ratio_oracle(x):
    """x / (exp(x/10) - 1) in 60-digit decimal arithmetic; below |x| = 1e-10,
    where exp(x/10) - 1 cancels at that precision, its Bernoulli series."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(x)
        if abs(d) < decimal.Decimal("1e-10"):
            return 10 - d / 2 + d * d / 120 - d ** 4 / 720000
        return d / ((d / 10).exp() - 1)


def _rates_oracle(v):
    """The six rates at `v` in 60-digit decimal arithmetic, in `rates`' order,
    with the decimal constants 0.1, 0.07 and 0.01."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d, D = decimal.Decimal(v), decimal.Decimal
        return (
            D("0.1") * _expm1_ratio_oracle(25 - d),
            4 * (-d / 18).exp(),
            D("0.07") * (-d / 20).exp(),
            1 / (((30 - d) / 10).exp() + 1),
            D("0.01") * _expm1_ratio_oracle(10 - d),
            D("0.125") * (-d / 80).exp(),
        )


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
        # The rate must agree with the closed form evaluated at the same
        # point (mismatch << 1e-9), and the two-sided values must converge
        # to the on-point limit up to the true slope prefactor/2.
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

    def test_expm1_ratio_within_two_ulp_near_zero(self):
        # The closed form x / expm1(x/10) has no cancellation, so no series
        # branch is needed near 0, down to |x| = 1e-300.
        xs = np.concatenate([np.logspace(-300, -4, 1500),
                             10.0 ** np.random.default_rng(0).uniform(-8, -4, 500)])
        for x in xs.tolist():
            for signed in (x, -x):
                exact = _expm1_ratio_oracle(signed)
                err = abs(decimal.Decimal(kinetics._expm1_ratio(signed)) - exact)
                assert err <= 2 * decimal.Decimal(math.ulp(float(exact))), signed

    def test_rates_within_twenty_ulp(self):
        # alpha_h, beta_h and beta_n share exp(-v/80); beta_h's e^3 e20^2
        # holds its eighth power, which costs most. Worst measured on a
        # 0.01 mV grid: 17.6 ulp (beta_h near -81.4 mV), 13.5 (alpha_m near
        # -97.1), 10.9 (beta_m near 150); 0.8.0, with one exp per rate,
        # reached 13.9 (beta_h).
        worst = dict.fromkeys(RATE_NAMES, 0.0)
        for v in [*np.arange(-100.0, 150.05, 0.1).tolist(), 10.0, 25.0]:
            for name, got, exact in zip(RATE_NAMES, rates(v), _rates_oracle(v)):
                ulps = abs(decimal.Decimal(got) - exact) / decimal.Decimal(math.ulp(float(exact)))
                worst[name] = max(worst[name], float(ulps))
        assert max(worst.values()) <= 20.0, worst

    def test_expm1_ratio_edges_exact(self):
        for x in (0.0, -0.0, 5e-324, -5e-324):
            assert kinetics._expm1_ratio(x) == 10.0
        assert kinetics._expm1_ratio(7100.0) == 0.0

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
    def test_zero_at_equilibrium_with_matching_current(self, eq0, rest_current):
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

    @pytest.mark.parametrize("field", [drift, ionic_current])
    def test_any_nonfinite_coordinate_rejected(self, classic_i10, field):
        for coord in range(4):
            for bad in (math.nan, math.inf, -math.inf):
                values = [0.5, 0.5, 0.5, 10.0]
                values[coord] = bad
                with pytest.raises(ValueError, match="state must be finite"):
                    field(State(*values), classic_i10)

    def test_one_finiteness_check_per_call(self, classic_i10, monkeypatch):
        calls = []
        original = State.is_finite

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(State, "is_finite", counted)
        states = [equilibrium(v) for v in (-20.0, 0.0, 35.0)]
        for x in states:
            drift(x, classic_i10)
        assert calls == states

    def test_voltage_component_is_scaled_ionic_current(self, classic_i10):
        for v in (-20.0, 0.0, 35.0, 110.0):
            x = State(0.3, 0.6, 0.4, v)
            expected = ((classic_i10.current_I - ionic_current(x, classic_i10))
                        / classic_i10.capacitance_C)
            assert drift(x, classic_i10)[3] == expected


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

    def test_rest_current_balances_ionic_current(self, rest_current):
        params = HHParams.classic()
        i = rest_current(params, v=-20.0)
        assert ionic_current(equilibrium(-20.0), params) == pytest.approx(i, rel=1e-15)
