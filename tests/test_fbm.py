"""fBm generators: closed-form covariance, the Cholesky reference, the
Wood-Chan circulant sampler, and their cross-validation.

Monte Carlo assertions use fixed seeds and tolerances derived from the exact
covariances (z-scores against the known sampling error), so they are
deterministic test outcomes, not flaky statistics.
"""

import decimal
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import driver_paths, fbm_increments
from frachh import fbm
from frachh.fbm import (
    FactorizationError,
    component_seeds,
    fgn_autocovariance,
    sample_driver,
)

CHOLESKY = functools.partial(fbm_increments, "cholesky")
WOOD_CHAN = functools.partial(fbm_increments, "wood_chan")


def _smooth_size(n):
    """Smallest m >= n with no prime factor above 5, by trial division of
    n, n + 1, ... in turn."""
    m = n
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


class TestCovariance:
    def test_variance_at_one(self, fbm_covariance):
        for hurst in (0.3, 0.5, 0.75, 0.9):
            assert fbm_covariance(1.0, 1.0, hurst) == pytest.approx(1.0, rel=1e-15)

    def test_brownian_case_is_min(self, fbm_covariance):
        assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert fbm_covariance(3.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_direct_arithmetic_example(self, fbm_covariance):
        assert fbm_covariance(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_out_of_range_rejected(self, fbm_covariance, bad):
        with pytest.raises(ValueError):
            fbm_covariance(1.0, 2.0, bad)

    @pytest.mark.parametrize("hurst", [0.3, 0.55, 0.75, 0.9, 0.95])
    def test_fgn_autocovariance_matches_decimal_reference(self, hurst):
        # Against (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 at 60 digits, on lags
        # 1..100 and 100 more out to 5e6. The binomial series from lag
        # `_SERIES_LAG` on erred by 4.4e-16 at most (H 0.01 to 0.999), the
        # float formula below it by 8.6e-14 (lag 7, H 0.55); that formula
        # alone erred by up to 4.4e-2 at lags to 5e6.
        two_h = 2 * decimal.Decimal(hurst)

        def power(x):
            return (decimal.Decimal(x).ln() * two_h).exp() if x else decimal.Decimal(0)

        lags = np.unique(np.r_[1:101, np.geomspace(100, 5e6, 100).round()]).astype(int)
        with decimal.localcontext(prec=60):
            exact = np.array([float((power(k + 1) - 2 * power(k) + power(k - 1)) / 2)
                              for k in lags.tolist()])
        error = np.abs(fgn_autocovariance(lags, hurst) / exact - 1)
        assert error.max() < 2e-13
        assert error[lags >= fbm._SERIES_LAG].max() < 2e-15

    def test_fgn_autocovariance_consistency(self, fbm_covariance):
        # gamma(k) equals the covariance of unit-step increments.
        hurst = 0.7
        for k in range(5):
            direct = (
                fbm_covariance(1.0, k + 1.0, hurst)
                - fbm_covariance(1.0, k, hurst)
                - fbm_covariance(0.0, k + 1.0, hurst)
                + fbm_covariance(0.0, k, hurst)
            )
            assert fgn_autocovariance(k, hurst) == pytest.approx(direct, abs=1e-14)


class TestPathContainer:
    def test_grid_and_origin_invariants(self, tmp_path):
        # The path is held as its (N, 3) increments; the written file gives
        # it a zero origin and the grid t_k = k T/N of N + 1 points.
        increments = sample_driver(32, 4.0, 0.6, 0)
        assert increments.shape == (32, 3)
        out = tmp_path / "driver.csv"
        fbm.write_driver_csv(increments, out, 4.0)
        loaded = np.loadtxt(out, delimiter=",", skiprows=1)
        grid, values = loaded[:, 0], loaded[:, 1:]
        assert values[0].tolist() == [0.0, 0.0, 0.0]
        assert grid[0] == 0.0
        assert np.allclose(np.diff(grid), 4.0 / 32)
        assert len(grid) == 32 + 1


class TestCholesky:
    def test_single_increment_variance(self):
        # One-step path variance must match T^(2H); 1e5 independent paths.
        hurst, horizon = 0.75, 2.0
        values = CHOLESKY(1, horizon, hurst, 0, 100_000)[:, 0]
        theo = horizon ** (2.0 * hurst)
        se = theo * math.sqrt(2.0 / values.size)
        assert abs(values.var() - theo) <= 3.0 * se

    def test_deterministic_given_seed(self):
        a = sample_driver(64, 10.0, 0.8, 42, "cholesky")
        b = sample_driver(64, 10.0, 0.8, 42, "cholesky")
        c = sample_driver(64, 10.0, 0.8, 43, "cholesky")
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_brownian_increments_uncorrelated(self):
        inc = fbm._SAMPLERS["cholesky"](128, 0.5, 7, 4000).ravel()
        lag1 = np.mean(inc[1:] * inc[:-1]) / np.mean(inc * inc)
        assert abs(lag1) < 3.0 / math.sqrt(inc.size)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_factorization_error_carries_pivot(self):
        cases = [
            # [[1, 2], [2, 1]] is indefinite at its second pivot, 1 - 2^2 < 0.
            ([1.0, 2.0], 1),
            ([0.0, 0.5], 0),
            ([-1.0], 0),
            ([math.nan, 0.5], 0),
            # A NaN or infinite entry of the column reaches the pivot of its
            # own index.
            ([1.0, 0.5, math.nan, 0.1], 2),
            ([1.0, 0.5, 0.1, math.inf], 3),
        ]
        for gamma, pivot in cases:
            with pytest.raises(FactorizationError, match=f"pivot index {pivot}") as err:
                fbm._toeplitz_cholesky(np.array(gamma))
            assert err.value.pivot_index == pivot

    def test_cold_factor_build_holds_one_factor(self, cold_memo):
        # q full blocks of b rows, block j b (N - jb) doubles, then an r x r
        # block: 2,126,080 doubles at N = 2000, b = 128.
        n_grid = 2000
        b = fbm._BLOCK_ROWS
        q, r = divmod(n_grid, b)
        tracemalloc.start()
        try:
            factor = fbm._unit_factor(n_grid, 0.75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert factor.nbytes == 8 * (b * (q * n_grid - b * q * (q - 1) // 2) + r * r)
        assert peak <= 1.1 * factor.nbytes

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("n_grid", [1, 2, 3, 64, 257, 1000])
    def test_paths_match_full_factor_product(self, n_grid, hurst):
        # T = N is the unit grid; the blocked product against L z with L the
        # full lower factor of the Toeplitz covariance.
        gamma = fgn_autocovariance(np.arange(n_grid), hurst)
        factor = scipy.linalg.cholesky(scipy.linalg.toeplitz(gamma), lower=True)
        z = np.random.default_rng(5).standard_normal((3, n_grid))
        expected = z @ factor.T
        got = fbm._SAMPLERS["cholesky"](n_grid, hurst, 5, 3)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_driver(0, 1.0, 0.5, 0, "cholesky")
        with pytest.raises(ValueError):
            sample_driver(8, -1.0, 0.5, 0, "cholesky")
        with pytest.raises(ValueError):
            sample_driver(8, 1.0, 1.2, 0, "cholesky")
        with pytest.raises(ValueError, match="got 16.9"):
            sample_driver(16.9, 1.0, 0.75, 0)
        with pytest.raises(ValueError, match="got 1.5"):
            sample_driver(16, 1.0, 0.75, 1.5)
        # numpy integers are integers.
        assert sample_driver(np.int64(16), 1.0, 0.75, np.uint32(1)).shape == (16, 3)


def _expand_factor(factor, n_grid):
    """The dense lower factor L held by the flat `factor`: row blocks of
    U = L^T, block j rows [jb, jb+b) and columns [jb, N) of U in C order,
    whose corners below the diagonal must be zero."""
    b = fbm._BLOCK_ROWS
    upper = np.zeros((n_grid, n_grid))
    start = 0
    for lo in range(0, n_grid, b):
        hi = min(lo + b, n_grid)
        size = (hi - lo) * (n_grid - lo)
        upper[lo:hi, lo:] = factor[start : start + size].reshape(hi - lo, n_grid - lo)
        start += size
    assert start == factor.size
    assert not np.tril(upper, -1).any()
    return upper.T


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSpectralMemo:
    @pytest.mark.parametrize("hurst", [0.51, 0.75, 0.999])
    @pytest.mark.parametrize("n_grid", [1, 2, 3, 64, 257, 1000, 1001])
    def test_factor_matches_dense_cholesky(self, cold_memo, n_grid, hurst):
        # The Schur factor, expanded from its row blocks, against LAPACK's
        # Cholesky factor of the full Toeplitz matrix.
        gamma = fgn_autocovariance(np.arange(n_grid), hurst)
        reference = np.linalg.cholesky(scipy.linalg.toeplitz(gamma))
        factor = _expand_factor(fbm._unit_factor(n_grid, hurst), n_grid)
        assert np.abs(factor - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize(
        "n_grid,horizon,hurst",
        [(1, 2.0, 0.75), (2, 1.0, 0.6), (64, 10.0, 0.55), (257, 50.0, 0.95), (1000, 10.0, 0.75)],
    )
    def test_factor_bit_identical_to_scaled_toeplitz(self, cold_memo, n_grid, horizon, hurst):
        # The covariance at step delta is delta^2H times the unit-grid
        # Toeplitz matrix: the driver's paths are the unit-grid paths times
        # delta^H, scaled in `sample_driver` alone.
        unit = fbm._SAMPLERS["cholesky"](n_grid, hurst, 3, 3)
        unit *= (horizon / n_grid) ** hurst
        driver = sample_driver(n_grid, horizon, hurst, 3, "cholesky")
        assert driver.T.tobytes() == unit.tobytes()

    @pytest.mark.parametrize("generator", fbm.GENERATORS)
    def test_driver_independent_of_memo_state(self, cold_memo, generator):
        def increments():
            return sample_driver(128, 10.0, 0.7, 5, generator)

        other_generator = next(g for g in fbm.GENERATORS if g != generator)
        cold = increments()
        warm = increments()
        sample_driver(128, 10.0, 0.8, 5, generator)
        sample_driver(128, 10.0, 0.7, 5, other_generator)
        evicted = increments()
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, evicted)

    def test_hurst_type_shares_entry(self, cold_memo):
        a = fbm._unit_factor(16, 0.75)
        sample_driver(16, 1, np.float64(0.75), 0, "cholesky")
        sample_driver(np.int64(16), 1.0, 0.75, 0, "cholesky")
        sample_driver(16, 50.0, 0.75, 0, "cholesky")
        assert fbm._unit_factor(16, 0.75) is a
        assert list(cold_memo) == [("cholesky", 16, 0.75)]

    def test_cholesky_driver_factors_once_per_key(self, cold_memo, monkeypatch):
        calls = _count_calls(monkeypatch, fbm, "_toeplitz_cholesky")
        sample_driver(200, 2.0, 0.75, 1, generator="cholesky")
        assert len(calls) == 1
        sample_driver(200, 5.0, 0.75, 2, generator="cholesky")
        assert len(calls) == 1
        sample_driver(200, 2.0, 0.6, 1, generator="cholesky")
        assert len(calls) == 2
        sample_driver(200, 2.0, 0.75, 3, generator="cholesky")
        assert len(calls) == 2
        assert list(cold_memo) == [("cholesky", 200, 0.75), ("cholesky", 200, 0.6)]

    def test_wood_chan_driver_searches_once(self, cold_memo, monkeypatch):
        calls = _count_calls(monkeypatch, fbm, "_circulant_eigenvalues")
        sample_driver(1000, 10.0, 0.75, 1)
        assert len(calls) == 1
        sample_driver(1000, 50.0, 0.75, 2)
        assert len(calls) == 1
        assert list(cold_memo) == [("wood_chan", 1000, 0.75)]

    def test_returned_arrays_are_read_only(self, cold_memo):
        factor = fbm._unit_factor(8, 0.7)
        with pytest.raises(ValueError):
            factor[0] = 1.0
        scale = fbm._fgn_scale(8, 0.7)
        with pytest.raises(ValueError):
            scale[0] = 1.0

    def test_factorization_error_not_memoized(self, cold_memo, monkeypatch):
        good = fbm.fgn_autocovariance
        builds = []

        def indefinite(k, H):
            if H != 0.7:
                return good(k, H)
            builds.append(H)
            return np.array([1.0, 2.0])

        monkeypatch.setattr(fbm, "fgn_autocovariance", indefinite)
        for _ in range(2):
            with pytest.raises(FactorizationError):
                sample_driver(2, 1.0, 0.7, 0, generator="cholesky")
            assert not cold_memo
        assert len(builds) == 2
        assert sample_driver(2, 1.0, 0.75, 0, generator="cholesky").shape == (2, 3)
        assert len(cold_memo) == 1

    def test_embedding_error_not_memoized(self, cold_memo, monkeypatch):
        good = fbm._circulant_eigenvalues
        monkeypatch.setattr(
            fbm,
            "_circulant_eigenvalues",
            lambda M, H: np.array([1.0, -0.5]) if H == 0.7 else good(M, H),
        )
        for _ in range(2):
            with pytest.raises(RuntimeError):
                sample_driver(4, 1.0, 0.7, 0)
            assert not cold_memo
        assert sample_driver(4, 1.0, 0.75, 0).shape == (4, 3)
        assert len(cold_memo) == 1

    def test_embedding_check_raises_on_any_negative(self, cold_memo, monkeypatch):
        # Any negative eigenvalue raises, however small; zero passes.
        eigenvalues = {0.7: [1.0, -0.5], 0.75: [1.0, -1e-12], 0.8: [1.0, 0.0]}
        monkeypatch.setattr(
            fbm, "_circulant_eigenvalues", lambda M, H: np.array(eigenvalues[H])
        )
        with pytest.raises(RuntimeError, match=r"N=1, H=0\.7 .*-0\.5\)"):
            fbm._fgn_scale(1, 0.7)
        with pytest.raises(RuntimeError, match=r"N=1, H=0\.75 .*-1e-12\)"):
            fbm._fgn_scale(1, 0.75)
        assert not cold_memo
        # Amplitudes of X_0 and X_1 = X_M, w = 2M = 2.
        scale = fbm._fgn_scale(1, 0.8)
        assert scale.tolist() == [math.sqrt(2.0), 0.0]
        assert cold_memo[("wood_chan", 1, 0.8)] is scale

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    def test_scale_bit_identical_to_concatenated_build(self, hurst):
        # The build weighs the M+1 eigenvalues of one `hfft` in place; the
        # reference copies at every stage.
        for n_grid in (1, 2, 3, 5000, 100000):
            m = _smooth_size(n_grid)
            tracemalloc.start()
            try:
                scale = fbm._fgn_scale(n_grid, hurst)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            lam = np.fft.hfft(fgn_autocovariance(np.arange(m + 1), hurst), 2 * m)
            weight = np.full(m + 1, float(m))
            weight[[0, m]] = 2.0 * m
            expected = np.sqrt(weight * lam[: m + 1])
            assert scale.tobytes() == expected.tobytes(), n_grid
        # The cold build at N = 100000 peaks inside `hfft`: the M+1
        # autocovariances, their real conjugate and its complex cast, and the
        # 2M-point output, 48 (M+1) bytes in all (1.5007 x 32 M measured, up
        # to 1.543 with a new FFT plan).
        assert peak < 1.55 * 32 * m

    @pytest.mark.parametrize("n_grid", [1, 5000, 100000])
    def test_amplitudes_own_their_m_plus_1_doubles(self, cold_memo, n_grid):
        # `_unit_fgn` scales X_0 and X_M whole, since `irfft` discards their
        # imaginary parts: zeroing them changes no bit of the path.
        m = _smooth_size(n_grid)
        rng = np.random.default_rng(n_grid)
        x = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        zeroed = x.copy()
        zeroed.imag[[0, m]] = 0.0
        assert np.fft.irfft(x, 2 * m).tobytes() == np.fft.irfft(zeroed, 2 * m).tobytes()
        # A view of the 2M-point `hfft` output would hold 16M bytes behind a
        # memo entry that counts 8 (M+1).
        scale = fbm._fgn_scale(n_grid, 0.75)
        assert scale.dtype == np.float64 and scale.shape == (m + 1,)
        assert scale.base is None and not scale.flags.writeable
        assert scale.nbytes == 8 * (m + 1)

    @pytest.mark.parametrize("n_grid", [1000, 4096, 5000])
    def test_warm_draw_holds_one_half_spectrum(self, n_grid):
        # Past the output, a warm 3-path draw holds one path's M+1 complex
        # terms and its `irfft`: 2.17 / 2.04 / 2.03 x 16 (M+1) measured at
        # these N, against ~6 when the three half-spectra were transformed
        # together.
        m = _smooth_size(n_grid)
        fbm._unit_fgn(n_grid, 0.75, 0, 3)
        tracemalloc.start()
        try:
            out = fbm._unit_fgn(n_grid, 0.75, 1, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 2.5 * 16 * (m + 1)

    def test_wood_chan_keeps_a_spectrum_per_key(self, cold_memo, monkeypatch):
        calls = _count_calls(monkeypatch, fbm, "_circulant_eigenvalues")
        for hurst in (0.7, 0.8, 0.7):
            sample_driver(1000, 10.0, hurst, 1)
        assert len(calls) == 2
        assert list(cold_memo) == [("wood_chan", 1000, 0.7), ("wood_chan", 1000, 0.8)]

    def test_spectra_evicted_oldest_first_past_cap(self, cold_memo, monkeypatch):
        # N = 8 embeds in 2M = 16 points: M+1 amplitudes, 72 bytes, two fit.
        monkeypatch.setattr(fbm, "_MEMO_MAX_BYTES", 144)
        for hurst in (0.6, 0.7, 0.8):
            fbm._fgn_scale(8, hurst)
        assert list(cold_memo) == [("wood_chan", 8, 0.7), ("wood_chan", 8, 0.8)]
        fbm._fgn_scale(8, 0.7)
        fbm._fgn_scale(8, 0.9)
        assert list(cold_memo) == [("wood_chan", 8, 0.8), ("wood_chan", 8, 0.9)]
        # Amplitudes larger than the cap are still kept, alone.
        big = fbm._fgn_scale(64, 0.7)
        assert big.nbytes > 144
        assert list(cold_memo) == [("wood_chan", 64, 0.7)]

    def test_cholesky_runs_factors_stay_memoized_together(self, cold_memo, monkeypatch):
        # The three Hurst values of the `cholesky_runs` benchmark at N = 1000:
        # each factor is built once, however often the rounds return to it.
        calls = _count_calls(monkeypatch, fbm, "_toeplitz_cholesky")
        for _ in range(2):
            for hurst in (0.6, 0.75, 0.9):
                sample_driver(1000, 10.0, hurst, 1, generator="cholesky")
        assert len(calls) == 3
        assert [k[2] for k in cold_memo] == [0.6, 0.75, 0.9]
        assert sum(v.nbytes for v in cold_memo.values()) <= fbm._MEMO_MAX_BYTES

    def test_factors_and_spectra_share_the_cap(self, cold_memo):
        # Factors at N = 1000 take 8 x 562,752 = 4,502,016 bytes, amplitudes
        # 8 (M+1): 2 MiB + 8 at N = 2^18, 8 MiB + 8 at N = 2^20.
        assert fbm._MEMO_MAX_BYTES == 16 << 20
        for hurst in (0.6, 0.75, 0.9):
            fbm._unit_factor(1000, hurst)
        fbm._fgn_scale(2 ** 18, 0.75)
        assert [k[2] for k in cold_memo] == [0.6, 0.75, 0.9, 0.75]
        # A fourth factor passes the cap by ~3.3 MB: the oldest factor goes.
        fbm._unit_factor(1000, 0.8)
        assert list(cold_memo) == [("cholesky", 1000, 0.75), ("cholesky", 1000, 0.9),
                                   ("wood_chan", 2 ** 18, 0.75), ("cholesky", 1000, 0.8)]
        # Large amplitudes drop factors, oldest first, until they fit.
        fbm._fgn_scale(2 ** 20, 0.75)
        assert list(cold_memo) == [("wood_chan", 2 ** 18, 0.75), ("cholesky", 1000, 0.8),
                                   ("wood_chan", 2 ** 20, 0.75)]
        assert sum(v.nbytes for v in cold_memo.values()) <= fbm._MEMO_MAX_BYTES
        # `frachh series 0.95 --dt 0.001 --T 2000` embeds at M = 2x10^6: its
        # 16,000,008 bytes drop every entry above, then fit beside a small one.
        fbm._fgn_scale(2_000_000, 0.95)
        assert list(cold_memo) == [("wood_chan", 2_000_000, 0.95)]
        fbm._fgn_scale(8, 0.7)
        assert list(cold_memo) == [("wood_chan", 2_000_000, 0.95), ("wood_chan", 8, 0.7)]
        # A factor larger than the cap is still kept, alone.
        fbm._unit_factor(2100, 0.75)
        assert list(cold_memo) == [("cholesky", 2100, 0.75)]


def _reference_unit_fgn(N, H, seed, n_paths):
    """`_unit_fgn` one path at a time: each path draws the real and imaginary
    parts of X_0, ..., X_M in turn, keeps X_0 and X_M real, scales by
    sqrt(w_k lam_k) and takes the first N points of `irfft`."""
    m = fbm._embedding_half_size(N)
    lam = fbm._circulant_eigenvalues(m, H)
    scale = np.sqrt(m * lam[: m + 1])
    scale[[0, m]] = np.sqrt(2 * m * lam[[0, m]])
    rng = np.random.default_rng(seed)
    rows = np.empty((n_paths, N))
    for i in range(n_paths):
        z = rng.standard_normal(2 * m + 2)
        x = np.empty(m + 1, dtype=complex)
        x.real = z[0::2] * scale
        x.imag = z[1::2] * scale
        x.imag[[0, m]] = 0.0
        rows[i] = np.fft.irfft(x, 2 * m)[:N]
    return rows


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.sampled_from([1, 3, 16, 100]),
                st.sampled_from([0.3, 0.55, 0.75, 0.95]),
                st.sampled_from(fbm.GENERATORS),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=6,
        ),
        cap=st.sampled_from([0, 2048, fbm._MEMO_MAX_BYTES]),
    )
    def test_driver_equals_cold_memo_driver_after_any_key_sequence(self, keys, cap):
        with mock.patch.object(fbm, "_MEMO_MAX_BYTES", cap):
            fbm._spectral_memo.clear()
            try:
                for N, H, generator, seed in keys:
                    warm = sample_driver(N, 10.0, H, seed, generator)
                    held = dict(fbm._spectral_memo)
                    fbm._spectral_memo.clear()
                    cold = sample_driver(N, 10.0, H, seed, generator)
                    fbm._spectral_memo.clear()
                    fbm._spectral_memo.update(held)
                    assert warm.tobytes() == cold.tobytes()
            finally:
                fbm._spectral_memo.clear()

    @pytest.mark.parametrize(
        "n_grid,hurst,n_paths",
        # N = 4096 and 5000 are the drivers of the benchmark's noisy runs.
        [(1000, 0.75, 1), (1000, 0.55, 2), (257, 0.95, 3), (4, 0.7, 40_003),
         (4096, 0.75, 3), (5000, 0.55, 3)],
    )
    def test_unit_fgn_bit_identical_to_reference(self, n_grid, hurst, n_paths):
        expected = _reference_unit_fgn(n_grid, hurst, 11, n_paths)
        got = fbm._unit_fgn(n_grid, hurst, 11, n_paths)
        assert got.shape == (n_paths, n_grid)
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        n_grid=st.integers(1, 300),
        hurst=st.sampled_from([0.3, 0.55, 0.75, 0.95]),
        seed=st.integers(0, 2 ** 32),
        n_paths=st.integers(1, 8),
        data=st.data(),
    )
    def test_unit_fgn_prefix_is_the_shorter_draw(self, n_grid, hurst, seed, n_paths, data):
        fewer = data.draw(st.integers(0, n_paths))
        more = fbm._unit_fgn(n_grid, hurst, seed, n_paths)
        less = fbm._unit_fgn(n_grid, hurst, seed, fewer)
        assert less.shape == (fewer, n_grid)
        assert more[:fewer].tobytes() == less.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        generator=st.sampled_from(fbm.GENERATORS),
        n_grid=st.integers(1, 300),
        horizon=st.sampled_from([1.0, 50.0]),
        hurst=st.sampled_from([0.55, 0.75, 0.95]),
        seed=st.integers(0, 2 ** 32),
        n_paths=st.integers(1, 40),
        data=st.data(),
    )
    def test_sampler_prefix_is_the_shorter_draw(self, generator, n_grid, horizon, hurst,
                                                seed, n_paths, data):
        fewer = data.draw(st.integers(0, n_paths))
        sampler = functools.partial(fbm_increments, generator)
        more = sampler(n_grid, horizon, hurst, seed, n_paths)
        less = sampler(n_grid, horizon, hurst, seed, fewer)
        assert less.shape == (fewer, n_grid)
        assert more[:fewer].tobytes() == less.tobytes()

    @pytest.mark.parametrize("generator", fbm.GENERATORS)
    @pytest.mark.parametrize("n_grid", [127, 128, 129])
    def test_sampler_prefix_across_a_block_edge(self, generator, n_grid):
        # N = 128 fills one factor block exactly; 129 starts a second block of
        # one row.
        assert fbm._BLOCK_ROWS == 128
        sampler = functools.partial(fbm_increments, generator)
        more = sampler(n_grid, 10.0, 0.75, 4, 6)
        for fewer in range(6):
            assert more[:fewer].tobytes() == sampler(n_grid, 10.0, 0.75, 4, fewer).tobytes()


class TestWoodChan:
    @pytest.mark.parametrize("n_grid", [1, 64, 97, 100])
    def test_unit_fgn_rows_match_fgn_autocovariance(self, n_grid):
        # N = 1 embeds in 2M = 2 (only the real terms X_0 and X_M), 64 in
        # 2M = 128 and 100 in 2M = 200 with M = N, 97 in 2M = 200 with
        # M - N = 3 padding points.
        hurst, n_paths = 0.7, 20_000
        x = fbm._unit_fgn(n_grid, hurst, 17, n_paths)
        emp = x.T @ x / n_paths
        lags = np.abs(np.subtract.outer(np.arange(n_grid), np.arange(n_grid)))
        theo = fgn_autocovariance(lags, hurst)
        # Var(x_i x_j) = gamma(0)^2 + gamma(i-j)^2; Bonferroni over the
        # N(N+1)/2 distinct entries at a 0.1% family-wise level.
        se = np.sqrt((1.0 + theo ** 2) / n_paths)
        z_max = scipy.stats.norm.isf(0.0005 / (n_grid * (n_grid + 1) / 2))
        assert np.all(np.abs(emp - theo) <= z_max * se)
        assert abs(float(x.mean())) <= 5.0 * math.sqrt(theo.sum() / n_grid ** 2 / n_paths)

    def test_deterministic_given_seed(self):
        a = WOOD_CHAN(100, 50.0, 0.75, 9, 1)
        b = WOOD_CHAN(100, 50.0, 0.75, 9, 1)
        assert np.array_equal(a, b)

    def test_covariance_matches_closed_form(self, fbm_covariance):
        # 2e4 paths at N=64; z-scores against the exact sampling SE.
        n_grid, horizon, hurst, n_paths = 64, 50.0, 0.75, 20_000
        inc = WOOD_CHAN(n_grid, horizon, hurst, 7, n_paths)
        paths = np.cumsum(inc, axis=1)
        grid = np.arange(1, n_grid + 1) * (horizon / n_grid)
        probes = [(8, 8), (8, 32), (16, 48), (32, 63), (63, 63), (4, 60), (24, 24), (1, 63)]
        for i, j in probes:
            emp = float(np.mean(paths[:, i] * paths[:, j]))
            theo = fbm_covariance(grid[i], grid[j], hurst)
            var_ij = (
                fbm_covariance(grid[i], grid[i], hurst)
                * fbm_covariance(grid[j], grid[j], hurst)
                + theo ** 2
            )
            assert abs(emp - theo) <= 3.0 * math.sqrt(var_ij / n_paths)

    def test_brownian_increment_autocorrelation(self):
        inc = fbm._SAMPLERS["wood_chan"](2 ** 17, 0.5, 3, 1)[0]
        g0 = np.mean(inc * inc)
        bound = 3.0 / math.sqrt(inc.size)
        for lag in range(1, 6):
            rho = np.mean(inc[lag:] * inc[:-lag]) / g0
            assert abs(rho) < bound

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("n_grid,n_paths", [(2 ** 8, 30_000), (2 ** 10, 8_000)])
    def test_matches_cholesky_increment_covariance(self, hurst, n_grid, n_paths):
        horizon = 50.0
        iw = WOOD_CHAN(n_grid, horizon, hurst, 101, n_paths)
        ic = CHOLESKY(n_grid, horizon, hurst, 202, n_paths)
        cov_w = iw.T @ iw / n_paths
        cov_c = ic.T @ ic / n_paths
        # Max-abs noise of the difference of two independent estimates over
        # N^2/2 entries: ~ gamma0 * sqrt(8 ln(N^2/2) / n); 1.6x safety margin.
        gamma0 = (horizon / n_grid) ** (2 * hurst)
        noise = gamma0 * math.sqrt(8.0 * math.log(n_grid ** 2 / 2) / n_paths)
        assert np.abs(cov_w - cov_c).max() <= 1.6 * noise

    def test_self_similarity_of_marginal_variance(self):
        n_grid, horizon, hurst = 256, 50.0, 0.75
        inc = WOOD_CHAN(n_grid, horizon, hurst, 5, 30_000)
        paths = np.cumsum(inc, axis=1)
        idx = np.array([16, 32, 64, 128, 256]) - 1
        t = (idx + 1) * (horizon / n_grid)
        slope = np.polyfit(np.log(t), np.log(paths[:, idx].var(axis=0)), 1)[0]
        assert abs(slope - 2.0 * hurst) < 0.05

    def test_embedding_sizes_are_smallest_5_smooth(self, cold_memo):
        # M is the smallest 2^a 3^b 5^c >= N, against a search by trial
        # division; N = 4099 and 131073 lie just past powers of two.
        far = {4099: 4320, 5000: 5000, 100000: 100000, 131073: 131220}
        assert {n: _smooth_size(n) for n in far} == far
        for n_grid in [*range(1, 3001), *far]:
            hurst = (0.3, 0.55, 0.75, 0.95)[n_grid % 4]
            lam = fbm._circulant_eigenvalues(fbm._embedding_half_size(n_grid), hurst)
            assert lam.size == _smooth_size(n_grid) + 1, n_grid
            assert lam.min() >= 0.0

    def test_minimal_embedding_nonnegative_for_fgn(self):
        # Dietrich & Newsam (1997) and Craigmile (2003): the circulant
        # embedding of fGn needs no padding past the smallest 5-smooth M >= N.
        for n_grid in (1, 2, 3, 5, 16, 100, 1000, 4097, 4099, 5000, 7919, 10007, 100000):
            m = _smooth_size(n_grid)
            for hurst in np.arange(1, 100) / 100:
                lam = fbm._circulant_eigenvalues(m, hurst)
                assert lam.min() >= 0.0, (n_grid, hurst)

    def test_no_negative_eigenvalue_at_two_million_steps(self):
        # `frachh series 0.95 --dt 0.001 --T 2000`; with the three-power
        # autocovariance at every lag the smallest eigenvalue read -0.254.
        lam = fbm._circulant_eigenvalues(fbm._embedding_half_size(2_000_000), 0.95)
        assert lam.min() == pytest.approx(0.0876, abs=1e-4)

    @pytest.mark.parametrize("n_grid", [1, 1000, 5000, 100000])
    @pytest.mark.parametrize("hurst", [0.3, 0.55, 0.95])
    def test_eigenvalues_are_the_full_row_dft(self, n_grid, hurst):
        # The complex DFT of the whole row [gamma(0..M), gamma(M-1..1)] is
        # real, its upper half mirrors its lower one, and k = 0..M is the
        # real transform. Measured: within 6.3e-16 and 9.4e-16 of max lam.
        m = fbm._embedding_half_size(n_grid)
        lam = fbm._circulant_eigenvalues(m, hurst)
        gamma = fgn_autocovariance(np.arange(m + 1), hurst)
        full = np.fft.fft(np.concatenate([gamma, gamma[m - 1:0:-1]]))
        tol = 2e-15 * lam.max()
        assert lam.shape == (m + 1,)
        assert np.abs(full.imag).max() <= tol
        assert np.abs(lam - full.real[: m + 1]).max() <= tol
        assert np.abs(full.real[:m - 1:-1] - full.real[1 : m + 1]).max() <= tol


class TestDriver:
    def test_same_master_seed_identical_triple(self):
        a = sample_driver(64, 50.0, 0.75, 11)
        b = sample_driver(64, 50.0, 0.75, 11)
        assert np.array_equal(a, b)

    def test_three_driver_columns_distinct(self):
        d = sample_driver(64, 50.0, 0.75, 11)
        assert len(set(component_seeds(11, n=3))) == 3
        b1, b2, b3 = d.T
        assert not np.array_equal(b1, b2)
        assert not np.array_equal(b1, b3)
        assert not np.array_equal(b2, b3)

    @pytest.mark.parametrize("generator", fbm.GENERATORS)
    @pytest.mark.parametrize(
        "n_grid,horizon,hurst,seed",
        [(1, 2.0, 0.75, 0), (2, 1.0, 0.6, 11), (64, 50.0, 0.75, 11), (257, 10.0, 0.95, 3)],
    )
    def test_columns_are_component_paths(self, generator, n_grid, horizon, hurst, seed):
        # One three-path draw from the master seed, column j from path j.
        d = sample_driver(n_grid, horizon, hurst, seed, generator)
        draw = fbm_increments(generator, n_grid, horizon, hurst, seed, 3)
        assert d.shape == (n_grid, 3)
        assert d.tobytes() == draw.T.tobytes()

    def test_components_uncorrelated_at_endpoint(self, fbm_covariance):
        ends = np.array([driver_paths(sample_driver(8, 50.0, 0.75, s))[-1] for s in range(3000)])
        var_t = fbm_covariance(50.0, 50.0, 0.75)
        se = var_t / math.sqrt(ends.shape[0])
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert abs(np.mean(ends[:, i] * ends[:, j])) <= 3.0 * se

    def test_wood_chan_columns_uncorrelated(self):
        # Increments of distinct columns at every pair of grid points, 4000
        # master seeds; Bonferroni over 3 * N^2 entries at 0.1% family-wise.
        n_grid, horizon, hurst, n_seeds = 16, 50.0, 0.75, 4000
        inc = np.array([sample_driver(n_grid, horizon, hurst, s) for s in range(n_seeds)])
        se = (horizon / n_grid) ** (2 * hurst) / math.sqrt(n_seeds)
        z_max = scipy.stats.norm.isf(0.0005 / (3 * n_grid ** 2))
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            cross = inc[:, :, i].T @ inc[:, :, j] / n_seeds
            assert np.abs(cross).max() <= z_max * se, (i, j)

    def test_component_covariance_matches_closed_form(self, fbm_covariance):
        ends = np.array(
            [driver_paths(sample_driver(4, 10.0, 0.8, s))[-1, 1] for s in range(4000)]
        )
        theo = fbm_covariance(10.0, 10.0, 0.8)
        se = theo * math.sqrt(2.0 / ends.size)
        assert abs(np.mean(ends ** 2) - theo) <= 3.0 * se

    def test_cholesky_generator_selectable(self):
        default = sample_driver(16, 4.0, 0.7, 2)
        assert default.tobytes() == WOOD_CHAN(16, 4.0, 0.7, 2, 3).T.tobytes()
        cholesky = sample_driver(16, 4.0, 0.7, 2, generator="cholesky")
        assert not np.array_equal(cholesky, default)
        with pytest.raises(ValueError):
            sample_driver(16, 4.0, 0.7, 2, generator="spectral")

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, cold_memo, horizon):
        for generator in fbm.GENERATORS:
            with pytest.raises(ValueError, match="horizon T"):
                sample_driver(2, horizon, 0.75, 0, generator)
        assert not cold_memo

    def test_csv_round_trip(self, tmp_path):
        # The written file holds the grid t_k = k T/N and the paths, a zero
        # row and then the cumulative increments, bit for bit.
        horizon = 4.0
        for generator in fbm.GENERATORS:
            for n_grid in (1, 16, 257):
                increments = sample_driver(n_grid, horizon, 0.7, 2, generator)
                out = tmp_path / f"{generator}_{n_grid}.csv"
                fbm.write_driver_csv(increments, out, horizon)
                lines = out.read_text().splitlines()
                assert lines[0] == "t,B1,B2,B3"
                assert len(lines) == n_grid + 2
                loaded = np.loadtxt(out, delimiter=",", skiprows=1)
                assert loaded[0].tolist() == [0.0, 0.0, 0.0, 0.0]
                grid = np.arange(n_grid + 1) * (horizon / n_grid)
                assert loaded[:, 0].tobytes() == grid.tobytes()
                assert loaded[1:, 1:].tobytes() == np.cumsum(increments, axis=0).tobytes()
