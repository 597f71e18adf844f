"""fBm generators: closed-form covariance, the Cholesky reference, the
Wood-Chan circulant sampler, and their cross-validation.

Monte Carlo assertions use fixed seeds and tolerances derived from the exact
covariances (z-scores against the known sampling error), so they are
deterministic test outcomes, not flaky statistics.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from frachh import fbm
from frachh.fbm import (
    CirculantEmbeddingError,
    FactorizationError,
    FbmPath,
    component_seeds,
    fbm_covariance,
    fgn_autocovariance,
    sample_cholesky,
    sample_driver,
    sample_wood_chan,
)


class TestCovariance:
    def test_variance_at_one(self):
        for hurst in (0.3, 0.5, 0.75, 0.9):
            assert fbm_covariance(1.0, 1.0, hurst) == pytest.approx(1.0, rel=1e-15)

    def test_brownian_case_is_min(self):
        assert fbm_covariance(1.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert fbm_covariance(3.0, 2.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_direct_arithmetic_example(self):
        assert fbm_covariance(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_hurst_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            fbm_covariance(1.0, 2.0, bad)

    def test_fgn_autocovariance_consistency(self):
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
    def test_grid_and_origin_invariants(self):
        path = sample_wood_chan(32, 4.0, 0.6, 0)
        assert path.values[0] == 0.0
        assert path.grid[0] == 0.0
        assert np.allclose(np.diff(path.grid), path.dt)
        assert path.n_steps == 32

    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            FbmPath(1.0, np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            FbmPath(1.0, np.array([[0.0, 0.5, 0.0], [1.0, 1.0, 1.0]]))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ValueError):
            FbmPath(horizon, np.zeros(3))

    @pytest.mark.parametrize(
        "values",
        [np.zeros(1), np.zeros((1, 3)), np.zeros((3, 2)), np.zeros((3, 3, 1)), np.float64(0.0)],
    )
    def test_rejects_bad_shape(self, values):
        with pytest.raises(ValueError):
            FbmPath(1.0, values)


class TestCholesky:
    def test_single_increment_variance(self):
        # One-step path variance must match T^(2H); 1e5 independent seeds.
        hurst, horizon = 0.75, 2.0
        values = np.fromiter(
            (sample_cholesky(1, horizon, hurst, s).values[1] for s in range(100_000)),
            dtype=float,
        )
        theo = horizon ** (2.0 * hurst)
        se = theo * math.sqrt(2.0 / values.size)
        assert abs(values.var() - theo) <= 3.0 * se

    def test_deterministic_given_seed(self):
        a = sample_cholesky(64, 10.0, 0.8, 42)
        b = sample_cholesky(64, 10.0, 0.8, 42)
        c = sample_cholesky(64, 10.0, 0.8, 43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_brownian_increments_uncorrelated(self):
        inc = fbm.cholesky_increment_ensemble(128, 128.0, 0.5, 7, 4000).ravel()
        lag1 = np.mean(inc[1:] * inc[:-1]) / np.mean(inc * inc)
        assert abs(lag1) < 3.0 / math.sqrt(inc.size)

    def test_factorization_error_carries_pivot(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(FactorizationError) as err:
            fbm._cholesky_factor(bad)
        assert err.value.pivot_index >= 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sample_cholesky(0, 1.0, 0.5, 0)
        with pytest.raises(ValueError):
            sample_cholesky(8, -1.0, 0.5, 0)
        with pytest.raises(ValueError):
            sample_cholesky(8, 1.0, 1.2, 0)


@pytest.fixture
def cold_memo():
    fbm._spectral_memo.clear()
    yield fbm._spectral_memo
    fbm._spectral_memo.clear()


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestSpectralMemo:
    @pytest.mark.parametrize(
        "n_grid,horizon,hurst",
        [(1, 2.0, 0.75), (2, 1.0, 0.6), (64, 10.0, 0.55), (257, 50.0, 0.95), (1000, 10.0, 0.75)],
    )
    def test_factor_bit_identical_to_scaled_toeplitz(self, cold_memo, n_grid, horizon, hurst):
        delta = horizon / n_grid
        gamma = fgn_autocovariance(np.arange(n_grid), hurst)
        reference = scipy.linalg.cholesky(
            delta ** (2.0 * hurst) * scipy.linalg.toeplitz(gamma), lower=True
        )
        assert np.array_equal(fbm._increment_factor(n_grid, horizon, hurst), reference)

    @pytest.mark.parametrize("generator", fbm.GENERATORS)
    def test_driver_independent_of_memo_state(self, cold_memo, generator):
        def values():
            return sample_driver(128, 10.0, 0.7, 5, generator).values

        other_generator = next(g for g in fbm.GENERATORS if g != generator)
        cold = values()
        warm = values()
        sample_driver(128, 10.0, 0.8, 5, generator)
        sample_driver(128, 10.0, 0.7, 5, other_generator)
        evicted = values()
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, evicted)

    def test_hurst_type_shares_entry(self, cold_memo):
        a = fbm._increment_factor(16, 1.0, 0.75)
        sample_cholesky(16, 1, np.float64(0.75), 0)
        sample_cholesky(np.int64(16), 1.0, 0.75, 0)
        assert fbm._increment_factor(16, 1.0, 0.75) is a
        assert len(cold_memo) == 1

    def test_cholesky_driver_factors_once_per_key(self, cold_memo, monkeypatch):
        calls = _count_calls(monkeypatch, fbm.scipy.linalg, "cholesky")
        sample_driver(200, 2.0, 0.75, 1, generator="cholesky")
        assert len(calls) == 1
        sample_driver(200, 2.0, 0.75, 2, generator="cholesky")
        assert len(calls) == 1
        sample_driver(200, 2.0, 0.6, 1, generator="cholesky")
        assert len(calls) == 2
        assert list(cold_memo) == [("cholesky", 200, 2.0, 0.6)]

    def test_wood_chan_driver_searches_once(self, cold_memo, monkeypatch):
        calls = _count_calls(monkeypatch, fbm, "_circulant_eigenvalues")
        sample_driver(1000, 10.0, 0.75, 1)
        assert len(calls) == 1
        sample_driver(1000, 50.0, 0.75, 2)
        assert len(calls) == 1
        assert list(cold_memo) == [("wood_chan", 1000, 0.75)]

    def test_returned_arrays_are_read_only(self, cold_memo):
        factor = fbm._increment_factor(8, 1.0, 0.7)
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0
        lam = fbm._embedding_eigenvalues(8, 0.7)
        with pytest.raises(ValueError):
            lam[0] = 1.0

    def test_factorization_error_not_memoized(self, cold_memo, monkeypatch):
        good = fbm._increment_covariance
        builds = []

        def indefinite(N, T, H):
            builds.append(N)
            return good(N, T, H) if H != 0.7 else np.array([[1.0, 2.0], [2.0, 1.0]])

        monkeypatch.setattr(fbm, "_increment_covariance", indefinite)
        for _ in range(2):
            with pytest.raises(FactorizationError):
                sample_driver(2, 1.0, 0.7, 0, generator="cholesky")
            assert not cold_memo
        assert len(builds) == 2
        d = sample_driver(2, 1.0, 0.75, 0, generator="cholesky")
        assert d.values.shape == (3, 3)
        assert len(cold_memo) == 1

    def test_embedding_error_not_memoized(self, cold_memo, monkeypatch):
        good = fbm._circulant_eigenvalues
        monkeypatch.setattr(
            fbm,
            "_circulant_eigenvalues",
            lambda M, H: np.array([1.0, -0.5]) if H == 0.7 else good(M, H),
        )
        for _ in range(2):
            with pytest.raises(CirculantEmbeddingError):
                sample_driver(4, 1.0, 0.7, 0)
            assert not cold_memo
        d = sample_driver(4, 1.0, 0.75, 0)
        assert d.values.shape == (5, 3)
        assert len(cold_memo) == 1


class TestWoodChan:
    def test_deterministic_given_seed(self):
        a = sample_wood_chan(100, 50.0, 0.75, 9)
        b = sample_wood_chan(100, 50.0, 0.75, 9)
        assert np.array_equal(a.values, b.values)

    def test_covariance_matches_closed_form(self):
        # 2e4 paths at N=64; z-scores against the exact sampling SE.
        n_grid, horizon, hurst, n_paths = 64, 50.0, 0.75, 20_000
        inc = fbm.wood_chan_increment_ensemble(n_grid, horizon, hurst, 7, n_paths)
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
        path = sample_wood_chan(2 ** 17, float(2 ** 17), 0.5, 3)
        inc = path.increments
        g0 = np.mean(inc * inc)
        bound = 3.0 / math.sqrt(inc.size)
        for lag in range(1, 6):
            rho = np.mean(inc[lag:] * inc[:-lag]) / g0
            assert abs(rho) < bound

    @pytest.mark.parametrize("hurst", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("n_grid,n_paths", [(2 ** 8, 30_000), (2 ** 10, 8_000)])
    def test_matches_cholesky_increment_covariance(self, hurst, n_grid, n_paths):
        horizon = 50.0
        iw = fbm.wood_chan_increment_ensemble(n_grid, horizon, hurst, 101, n_paths)
        ic = fbm.cholesky_increment_ensemble(n_grid, horizon, hurst, 202, n_paths)
        cov_w = iw.T @ iw / n_paths
        cov_c = ic.T @ ic / n_paths
        # Max-abs noise of the difference of two independent estimates over
        # N^2/2 entries: ~ gamma0 * sqrt(8 ln(N^2/2) / n); 1.6x safety margin.
        gamma0 = (horizon / n_grid) ** (2 * hurst)
        noise = gamma0 * math.sqrt(8.0 * math.log(n_grid ** 2 / 2) / n_paths)
        assert np.abs(cov_w - cov_c).max() <= 1.6 * noise

    def test_self_similarity_of_marginal_variance(self):
        n_grid, horizon, hurst = 256, 50.0, 0.75
        inc = fbm.wood_chan_increment_ensemble(n_grid, horizon, hurst, 5, 30_000)
        paths = np.cumsum(inc, axis=1)
        idx = np.array([16, 32, 64, 128, 256]) - 1
        t = (idx + 1) * (horizon / n_grid)
        slope = np.polyfit(np.log(t), np.log(paths[:, idx].var(axis=0)), 1)[0]
        assert abs(slope - 2.0 * hurst) < 0.05

    def test_embedding_sizes_are_padded_powers_of_two(self):
        for n_grid, hurst in [(1, 0.6), (5, 0.55), (64, 0.95), (1000, 0.75)]:
            m, lam = fbm._find_embedding(n_grid, hurst)
            assert m >= n_grid and (m & (m - 1)) == 0
            assert lam.min() >= 0.0

    def test_embedding_failure_reports_diagnostics(self, monkeypatch):
        monkeypatch.setattr(
            fbm, "_circulant_eigenvalues", lambda M, H: np.array([1.0, -0.5])
        )
        with pytest.raises(CirculantEmbeddingError) as err:
            fbm._find_embedding(4, 0.75)
        assert err.value.min_eigenvalue == -0.5
        assert err.value.embedding_size > 0


class TestDriver:
    def test_same_master_seed_identical_triple(self):
        a = sample_driver(64, 50.0, 0.75, 11)
        b = sample_driver(64, 50.0, 0.75, 11)
        assert np.array_equal(a.values, b.values)

    def test_components_mutually_distinct_and_sub_seeded(self):
        d = sample_driver(64, 50.0, 0.75, 11)
        assert len(set(component_seeds(11))) == 3
        b1, b2, b3 = d.values.T
        assert not np.array_equal(b1, b2)
        assert not np.array_equal(b1, b3)
        assert not np.array_equal(b2, b3)

    @pytest.mark.parametrize("generator", fbm.GENERATORS)
    @pytest.mark.parametrize(
        "n_grid,horizon,hurst,seed",
        [(1, 2.0, 0.75, 0), (2, 1.0, 0.6, 11), (64, 50.0, 0.75, 11), (257, 10.0, 0.95, 3)],
    )
    def test_columns_are_component_paths(self, generator, n_grid, horizon, hurst, seed):
        d = sample_driver(n_grid, horizon, hurst, seed, generator)
        assert d.values.shape == (n_grid + 1, 3)
        for j, component_seed in enumerate(component_seeds(seed)):
            path = fbm._SAMPLERS[generator](n_grid, horizon, hurst, component_seed)
            assert np.array_equal(d.values[:, j], path.values)
        assert np.array_equal(d.grid, np.arange(n_grid + 1) * (horizon / n_grid))
        assert d.increments.shape == (n_grid, 3)
        per_column = np.column_stack([np.diff(d.values[:, j]) for j in range(3)])
        assert np.array_equal(d.increments, per_column)
        assert d.T == horizon

    def test_components_uncorrelated_at_endpoint(self):
        ends = np.array([sample_driver(8, 50.0, 0.75, s).values[-1] for s in range(3000)])
        var_t = fbm_covariance(50.0, 50.0, 0.75)
        se = var_t / math.sqrt(ends.shape[0])
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert abs(np.mean(ends[:, i] * ends[:, j])) <= 3.0 * se

    def test_component_covariance_matches_closed_form(self):
        ends = np.array(
            [sample_driver(4, 10.0, 0.8, s).values[-1, 1] for s in range(4000)]
        )
        theo = fbm_covariance(10.0, 10.0, 0.8)
        se = theo * math.sqrt(2.0 / ends.size)
        assert abs(np.mean(ends ** 2) - theo) <= 3.0 * se

    def test_cholesky_generator_selectable(self):
        d = sample_driver(16, 4.0, 0.7, 2, generator="cholesky")
        first = sample_cholesky(16, 4.0, 0.7, component_seeds(2)[0])
        assert np.array_equal(d.values[:, 0], first.values)
        with pytest.raises(ValueError):
            sample_driver(16, 4.0, 0.7, 2, generator="spectral")

    def test_csv_round_trip(self, tmp_path):
        d = sample_driver(16, 4.0, 0.7, 2)
        out = tmp_path / "driver.csv"
        fbm.write_driver_csv(d, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,B1,B2,B3"
        assert len(lines) == 18
        loaded = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(loaded[:, 0], d.grid)
        assert np.array_equal(loaded[:, 1:], d.values)

    def test_csv_round_trip_single_path(self, tmp_path):
        path = sample_wood_chan(16, 1.0, 0.75, 0)
        out = tmp_path / "path.csv"
        fbm.write_driver_csv(path, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,B1"
        assert len(lines) == 18
        loaded = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(loaded[:, 0], path.grid)
        assert np.array_equal(loaded[:, 1], path.values)
