"""Exact-covariance fractional Brownian motion sampling on uniform grids.

Both generators share one contract: `_SAMPLERS[generator](N, H, seed,
n_paths)` returns an (n_paths, N) array of unit-grid fractional Gaussian
noise, one path a row. Path i is made from the i-th run of standard normals
of `default_rng(seed)`, so the first j paths of a draw are the j paths of a
smaller draw with the same seed. `sample_driver` checks the arguments, takes
the three gate components as the first three paths and scales them to the
step T/N by (T/N)^H, which is fBm's self-similarity. It returns them as an
(N, 3) array of increments, one component a column, which is all the solver
reads; `write_driver_csv` derives the paths and the grid from them.

* Cholesky: path i is L z_i, L the lower triangular factor of the
  unit-grid increment covariance and z_i the i-th run of N normals. The
  covariance is Toeplitz, so the Schur algorithm builds L straight from the
  autocovariance, one column per O(N) step, with no N x N matrix and no
  second copy. The factor is held as row blocks of U = L^T,
  `_BLOCK_ROWS` rows each: block j holds rows [jb, jb+b) and columns
  [jb, N) of U in C order, so column k of L is one contiguous slice, and
  the corner of a diagonal block below its diagonal is zero. At N = 1000
  that is 4.5 MB, against 4.0 MB for the triangle alone. Its O(N^2) cost is
  paid once per (N, H), and a factor over `_FACTOR_MAX_BYTES` (320 MB, so
  N <= 8880) raises `ValueError` before any normal is drawn. Each path then
  costs O(N^2) too: the row vector z_i^T U is one numpy product
  `z[jb:jb+b] @ block` per block, added into columns [jb, N). A block is
  applied to every path before the next block, so it is read from memory
  once per draw, but each product takes one path:
  BLAS may round a row of a multi-row product differently with the number
  of rows, and the first j paths must be the j-path draw.
* Wood-Chan: circulant embedding of the stationary increment process
  (fractional Gaussian noise) diagonalized by the FFT (Wood & Chan 1994);
  exact in distribution and O(N log N). The embedding has 2M points, M the
  smallest 2^a 3^b 5^c >= N (N = 5000 embeds at M = 5000): a size the FFT
  handles well, and nonnegative definite for fGn with no padding (Dietrich
  & Newsam 1997; Craigmile 2003). The circulant's first row is real and
  even, so its spectrum is one real transform (`hfft`) of the M+1
  autocovariances; a negative eigenvalue raises. Path i is the first N
  points of one real inverse FFT of its own Hermitian half-spectrum of M+1
  terms: 2M + 2 normals times the M+1 real amplitudes (`irfft` discards
  the imaginary parts at k = 0 and k = M) and one real FFT of 2M points.
  Each path is its own `irfft` call, so a draw holds one path's
  half-spectrum at a time.

Cholesky factors and Wood-Chan amplitudes (8 (M+1) bytes for an embedding
of size 2M) are memoized per (generator, N, H) and shared read-only, so a
run that returns to an earlier key, such as a series of recordings over a
few Hurst parameters, reuses them. All entries share one cap: the oldest
are dropped once their total passes `_MEMO_MAX_BYTES` (16 MiB, three
factors at N = 1000), and the newest is always kept, so a factor larger
than the cap is held alone.

Both generators are deterministic functions of (N, H, seed). Bit-identical
output across platforms is not promised, since Wood-Chan uses the FFT and
Cholesky BLAS through numpy; statistical properties are. This module needs
numpy alone.
"""

from __future__ import annotations

import itertools
import math
import numbers
import numpy as np

GENERATOR_CHOLESKY = "cholesky"
GENERATOR_WOOD_CHAN = "wood_chan"

# Rows of U = L^T per block of a Cholesky factor; see `_factor_blocks`. At
# N = 1000 a block of 128 rows is at most 1 MB, so it stays in cache while
# it is applied to the three paths of a driver.
_BLOCK_ROWS = 128
# Most bytes a Cholesky factor, 8 `_factor_size(N)`, may take: N <= 8880.
_FACTOR_MAX_BYTES = 320_000_000
# First lag at which `fgn_autocovariance` sums its binomial series, and the
# number of terms: within 4.4e-16 relative of a 60-digit reference there for
# H from 0.01 to 0.999, where the three-power formula erred by up to 4.4e-2
# (H = 0.55, lags to 5e6); below it that formula errs by at most 4e-13 for
# H >= 0.51.
_SERIES_LAG = 8
_SERIES_TERMS = 8
# Rows per formatted block of a CSV file.
_CSV_BLOCK = 4096


class FactorizationError(RuntimeError):
    """Increment covariance was not numerically positive definite at the
    pivot `pivot_index`."""

    def __init__(self, pivot_index: int):
        super().__init__(f"increment covariance is not numerically positive definite "
                         f"(offending pivot index {pivot_index})")
        self.pivot_index = pivot_index


# Replaced by perfbench's per-layer wrapper; nothing in frachh reads it.
scipy = None


def require_seed(seed) -> None:
    """Reject a seed that is not a nonnegative integer; numpy integers pass."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_hurst(H: float) -> float:
    H = float(H)
    if not (0.0 < H < 1.0):
        raise ValueError(f"Hurst parameter must lie in ]0,1[, got {H!r}")
    return H


# Total size of the memo's arrays before it drops the oldest. A Cholesky
# factor takes 8 `_factor_size(N)` bytes, 4.5 MB at N = 1000, so three fit;
# Wood-Chan amplitudes 8 (M+1), 8 MiB at N = 2^20 and 15.3 MiB at 2x10^6.
_MEMO_MAX_BYTES = 16 << 20

# Cholesky factors and Wood-Chan amplitudes by key, oldest first; see
# `_memoized`.
_spectral_memo: dict[tuple, np.ndarray] = {}


def _memoized(key: tuple, build) -> np.ndarray:
    """`build()` for `key`, reused by later calls at `key`.

    Entries are kept until their total size passes `_MEMO_MAX_BYTES`; then the
    oldest are dropped, never the new one, so an entry larger than the cap is
    held alone. Nothing is stored when `build` raises. The result is made
    read-only, because every caller at that key shares it.
    """
    value = _spectral_memo.get(key)
    if value is not None:
        return value
    value = build()
    value.flags.writeable = False
    _spectral_memo[key] = value
    while (len(_spectral_memo) > 1
           and sum(v.nbytes for v in _spectral_memo.values()) > _MEMO_MAX_BYTES):
        del _spectral_memo[next(iter(_spectral_memo))]
    return value


def fgn_autocovariance(k, H: float):
    """Autocovariance gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 of
    unit-grid fBm increments; vectorized over `k`.

    Lags below `_SERIES_LAG` use that formula. Further out its three powers
    cancel to a result ~k^(2H-2) and lose ~k^2 ulps, so gamma is the even
    binomial series k^2H sum_{j>=1} C(2H, 2j) k^-2j, summed by Horner in
    k^-2 over its first `_SERIES_TERMS` terms, which share one sign."""
    _check_hurst(H)
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * H
    gamma = np.empty_like(k)
    near = k < _SERIES_LAG
    kn = k[near]
    gamma[near] = 0.5 * ((kn + 1.0) ** two_h - 2.0 * kn ** two_h + np.abs(kn - 1.0) ** two_h)
    binomial = [1.0]  # C(2H, 0), C(2H, 1), ..., C(2H, 2 _SERIES_TERMS)
    for i in range(2 * _SERIES_TERMS):
        binomial.append(binomial[-1] * (two_h - i) / (i + 1))
    coefficients = binomial[2::2]
    far = k[~near]
    x = far * far
    np.reciprocal(x, out=x)
    series = np.zeros_like(far)
    for c in reversed(coefficients):
        series += c
        series *= x
    far **= two_h
    far *= series
    gamma[~near] = far
    return gamma[()]


# ---------------------------------------------------------------------------
# Cholesky reference generator
# ---------------------------------------------------------------------------


def _factor_size(N: int) -> int:
    """Doubles in the blocked Cholesky factor of order N; see `_factor_blocks`."""
    return sum(min(_BLOCK_ROWS, N - lo) * (N - lo) for lo in range(0, N, _BLOCK_ROWS))


def _factor_blocks(factor: np.ndarray, N: int) -> list[np.ndarray]:
    """Views of the row blocks of U = L^T in the flat `factor`, one after
    another: block j holds rows [jb, jb+b) and columns [jb, N) of U, b =
    `_BLOCK_ROWS`, in C order."""
    blocks, start = [], 0
    for lo in range(0, N, _BLOCK_ROWS):
        size = min(_BLOCK_ROWS, N - lo) * (N - lo)
        blocks.append(factor[start : start + size].reshape(-1, N - lo))
        start += size
    return blocks


def _toeplitz_cholesky(gamma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of the symmetric Toeplitz matrix with first
    column `gamma`, as the flat row blocks of U = L^T (`_factor_blocks`),
    with no N x N matrix built.

    The Schur algorithm in its mixed form (Kailath & Sayed 1995; stable for
    a positive definite Toeplitz matrix, Bojanczyk, Brent, de Hoog & Sweet
    1995) turns the generator pair (u, v) into one column per step in O(N):
    u is written as column k of L, the contiguous row slice U[k, k:], v
    loses its first entry and u its last, and the rotation by
    rho = v[0] / u[0], s = sqrt((1 - rho)(1 + rho)), takes u to
    (u - rho v) / s and then v to s v - rho u. A pivot is bad unless
    0 < gamma[0] < inf (index 0) and |rho| < 1 (index k + 1 at step k). A
    NaN or infinite entry reaches some rho, so it is a bad pivot too, and
    the arithmetic on the way there raises no numpy warning.
    """
    N = gamma.size
    if not 0.0 < gamma[0] < math.inf:
        raise FactorizationError(0)
    u = gamma / math.sqrt(gamma[0])
    v = u.copy()
    v[0] = 0.0
    factor = np.zeros(_factor_size(N))
    columns = (block[r, r:] for block in _factor_blocks(factor, N) for r in range(len(block)))
    with np.errstate(all="ignore"):
        for k, column in enumerate(columns):
            n = N - k
            column[:] = u[:n]
            if n == 1:
                break
            uk, vk = u[: n - 1], v[k + 1 :]
            rho = float(vk[0] / uk[0])
            if not abs(rho) < 1.0:
                raise FactorizationError(k + 1)
            s = math.sqrt((1.0 - rho) * (1.0 + rho))
            uk -= rho * vk
            uk /= s
            vk *= s
            vk -= rho * uk
    return factor


def _unit_factor(N: int, H: float) -> np.ndarray:
    """Read-only Cholesky factor of the unit-grid fGn covariance
    gamma(|i-j|), memoized per (N, H): built column by column by the Schur
    algorithm into the flat row blocks of U = L^T, `_factor_size(N)`
    doubles. A factor of more than `_FACTOR_MAX_BYTES` raises `ValueError`
    before anything is built."""

    def build() -> np.ndarray:
        size = 8 * _factor_size(N)
        if size > _FACTOR_MAX_BYTES:
            raise ValueError(f"a Cholesky factor at N={N} takes {size} bytes, "
                             f"more than {_FACTOR_MAX_BYTES}")
        return _toeplitz_cholesky(fgn_autocovariance(np.arange(N), H))

    return _memoized((GENERATOR_CHOLESKY, N, H), build)


def _cholesky_increments(N: int, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) unit-grid fGn paths, path i `L z_i`, L the unit-grid
    factor and z_i the i-th run of N normals.

    Path i is the row z_i^T U, U = L^T, summed block by block: each product
    `z_i[lo:hi] @ block` is added into its columns [lo, N) of a zero row.
    Each block is applied to every path before the next, one path a product:
    numpy's BLAS may round a row of a multi-row product differently with the
    number of rows, and the first j paths must be the j-path draw.
    """
    blocks = _factor_blocks(_unit_factor(N, H), N)
    z = np.random.default_rng(seed).standard_normal((n_paths, N))
    out = np.zeros_like(z)
    product = np.empty(N)
    for lo, block in zip(range(0, N, _BLOCK_ROWS), blocks):
        part = product[lo:]
        for z_row, out_row in zip(z[:, lo : lo + len(block)], out[:, lo:]):
            np.matmul(z_row, block, out=part)
            out_row += part
    return out


# ---------------------------------------------------------------------------
# Wood-Chan circulant embedding generator
# ---------------------------------------------------------------------------


def _circulant_eigenvalues(M: int, H: float) -> np.ndarray:
    """Eigenvalues lam_0..lam_M of the 2M circulant embedding of the fGn
    covariance. Its first row [gamma(0..M), gamma(M-1..1)] is real and even,
    so its spectrum is too, lam_(2M-k) = lam_k, and one real transform of
    the M+1 autocovariances (`hfft`) gives it."""
    return np.fft.hfft(fgn_autocovariance(np.arange(M + 1), H), 2 * M)[: M + 1]


def _embedding_half_size(N: int) -> int:
    """Smallest M = 2^a 3^b 5^c >= N, the half-size of the embedding of N
    increments: each 3^b 5^c below the power of two >= N is tried with the
    smallest 2^a that lifts it to N."""
    best = 1 << max(0, N - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:
            best = min(best, odd << (-(-N // odd) - 1).bit_length())
            odd *= 3
        fives *= 5
    return best


def _fgn_scale(N: int, H: float) -> np.ndarray:
    """Read-only amplitudes sqrt(w_k * lam_k) of the M+1 half-spectrum terms,
    M = `_embedding_half_size(N)`, w = 2M at k = 0 and k = M and w = M
    otherwise, memoized per (N, H): a new array, not a view of the 2M-point
    `hfft` output. A negative (or NaN) eigenvalue raises `RuntimeError`."""

    def build() -> np.ndarray:
        m = _embedding_half_size(N)
        wlam = _circulant_eigenvalues(m, H)
        lam_min = float(wlam.min())
        if not lam_min >= 0.0:
            raise RuntimeError(
                f"circulant embedding of fGn is indefinite at N={N}, H={H} "
                f"(most negative eigenvalue {lam_min:.6g})"
            )
        wlam[1:m] *= float(m)
        wlam[[0, m]] *= 2.0 * m
        return np.sqrt(wlam)

    return _memoized((GENERATOR_WOOD_CHAN, N, H), build)


def _unit_fgn(N: int, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) independent unit-grid fGn vectors by circulant embedding.

    Path i is `irfft(X_i, 2M)[:N]` of its own Hermitian half-spectrum:
    complex X_k for 0 <= k <= M, standard normal parts scaled by
    `_fgn_scale` (Dietrich & Newsam 1997). The normals fill X_0, X_1, ... of
    each path in turn; `irfft` discards the imaginary parts of X_0 and X_M,
    which are drawn all the same, so the first j paths of any draw with this
    seed are the same. One buffer of M+1 complex terms holds each path's
    half-spectrum in turn, and each path is its own `irfft`.
    """
    scale = _fgn_scale(N, H)
    m = scale.size - 1
    rng = np.random.default_rng(seed)
    out = np.empty((n_paths, N))
    x = np.empty(m + 1, dtype=complex)
    parts = x.view(float)
    for row in out:
        rng.standard_normal(out=parts)
        x *= scale
        row[:] = np.fft.irfft(x, 2 * m)[:N]
    return out


# ---------------------------------------------------------------------------
# Three-component driver
# ---------------------------------------------------------------------------

# Unit-grid samplers, looked up at call time, so a replaced entry reaches
# every driver.
_SAMPLERS = {
    GENERATOR_CHOLESKY: _cholesky_increments,
    GENERATOR_WOOD_CHAN: _unit_fgn,
}
GENERATORS = tuple(_SAMPLERS)


def component_seeds(master_seed: int, n: int) -> list[int]:
    """`n` disjoint per-recording seeds spawned from one master seed, one for
    each run of a recording series."""
    children = np.random.SeedSequence(master_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def sample_driver(
    N: int, T: float, H: float, master_seed: int, generator: str = GENERATOR_WOOD_CHAN
) -> np.ndarray:
    """(N, 3) increments of three mutually independent fBm components over the
    N steps of [0, T], one component a column, reproducible as a whole from
    `master_seed`: column j is path j of `_SAMPLERS[generator](N, H,
    master_seed, 3)` times (T/N)^H, and the array is a view of that draw."""
    if generator not in _SAMPLERS:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")
    require_seed(master_seed)
    if not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"grid size N must be an integer >= 1, got {N!r}")
    N = int(N)
    T = float(T)
    if not (T > 0.0) or not math.isfinite(T):
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")
    H = _check_hurst(H)
    paths = _SAMPLERS[generator](N, H, master_seed, 3)
    paths *= (T / N) ** H
    return paths.T


def _write_csv(path, header: str, template: str, rows) -> None:
    """Write `header`, then `template % row` for every row, as utf-8; the one
    CSV writer behind every `write_*_csv` of the package. Rows are formatted
    and written `_CSV_BLOCK` at a time, which bounds the memory a write takes."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        while block := "".join(template % row for row in itertools.islice(rows, _CSV_BLOCK)):
            fh.write(block)


def _column_rows(*columns):
    """Rows of Python scalars from equal-length 1-d arrays, converted
    `_CSV_BLOCK` rows at a time."""
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        yield from zip(*(c[start:start + _CSV_BLOCK].tolist() for c in columns))


def write_driver_csv(increments: np.ndarray, path, T: float) -> None:
    """Dump the driver with (N, 3) `increments` over [0, T] as CSV rows
    `t,B1,B2,B3` with 17 significant digits: N + 1 rows on the grid
    t_k = k T/N, the paths a zero row and then the cumulative increments."""
    n = len(increments)
    values = np.zeros((n + 1, 3))
    np.cumsum(increments, axis=0, out=values[1:])
    _write_csv(path, "t,B1,B2,B3", "%.17g,%.17g,%.17g,%.17g\n",
               _column_rows(np.arange(n + 1) * (T / n), *values.T))
