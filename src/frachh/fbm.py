"""Exact-covariance fractional Brownian motion sampling on uniform grids.

Both generators share one contract: `_SAMPLERS[generator](N, T, H, seed,
n_paths)` returns an (n_paths, N) array of fBm increments on the uniform grid
of N steps over [0, T], one path a row. Path i is made from the i-th run of
standard normals of `default_rng(seed)`, so the first j paths of a draw are
the j paths of a smaller draw with the same seed. `sample_driver` checks the
arguments and takes the three gate components as the first three paths.

* Cholesky: path i is L z_i scaled to the step T/N, L the lower triangular
  factor of the unit-grid increment covariance and z_i the i-th run of N
  normals. The covariance is Toeplitz, so the Schur algorithm builds L
  straight from the autocovariance, one column per O(N) step, with no N x N
  matrix and no second copy. The factor is held as row blocks of U = L^T,
  `_BLOCK_ROWS` rows each: block j holds rows [jb, jb+b) and columns
  [jb, N) of U in C order, so column k of L is one contiguous slice, and
  the corner of a diagonal block below its diagonal is zero. At N = 1000
  that is 4.5 MB, against 4.0 MB for the triangle alone. Its O(N^2) cost is
  paid once per (N, H). Each path then costs O(N^2) too: the row vector
  z_i^T U is one numpy product `z[jb:jb+b] @ block` per block, added into
  columns [jb, N). A block is applied to every path before the next block,
  so it is read from memory once per draw, but each product takes one path:
  BLAS may round a row of a multi-row product differently with the number
  of rows, and the first j paths must be the j-path draw.
* Wood-Chan: circulant embedding of the stationary increment process
  (fractional Gaussian noise) diagonalized by the FFT; exact in distribution
  and O(N log N). The embedding is the smallest power of two >= N, which is
  nonnegative definite for fGn (Perrin et al. 2002; Craigmile 2003). See Wood
  & Chan (1994) and Dietrich & Newsam (1997). Path i is the first N points of
  one real inverse FFT of its own Hermitian half-spectrum of M+1 terms: 2M + 2
  normals (the imaginary parts at k = 0 and k = M are zeroed) and one real FFT
  of 2M points. The half-spectra of several paths are transformed together in
  one `irfft` call, as many as fit in `_BATCH_BYTES` (1 MiB, at least one): a
  driver at N = 5000 is one call, and a 1000 ms run holds one path's spectrum
  at a time.

Cholesky factors and Wood-Chan scale vectors (16 (M+1) bytes for an
embedding of size 2M) are memoized per (generator, N, H) and shared
read-only, so a run that returns to an earlier key, such as a series of
recordings over a few Hurst parameters, reuses them. All entries share one
cap: the oldest are dropped once their total passes `_MEMO_MAX_BYTES` (16
MiB, three factors at N = 1000), and the newest is always kept, so a factor
larger than the cap is held alone.

Both generators are deterministic functions of (N, T, H, seed). Bit-identical
output across platforms is not promised, since Wood-Chan uses the FFT and
Cholesky BLAS through numpy; statistical properties are.

This module needs numpy alone. The module attribute `fbm.scipy` still imports
`scipy.linalg` on first access (PEP 562), so code that wraps names reached
through it can patch it, but nothing in frachh calls through it.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

GENERATOR_CHOLESKY = "cholesky"
GENERATOR_WOOD_CHAN = "wood_chan"
GENERATORS = (GENERATOR_CHOLESKY, GENERATOR_WOOD_CHAN)

# Relative tolerance for circulant eigenvalues that are negative only through
# floating-point rounding; anything more negative is an error.
_EIG_CLIP_REL = 1e-9
# Bytes of complex half-spectra `_unit_fgn` transforms in one call (at least
# one path). A path at N = 5000 (M = 8192) takes 128 KiB, one of the 1000 ms
# run (M = 2^17) 2 MiB.
_BATCH_BYTES = 1 << 20
# Autocovariances `_circulant_eigenvalues` evaluates at a time, so that their
# temporaries stay small beside the 2M-point complex buffer they fill.
_EIG_CHUNK = 1 << 15
# Rows of U = L^T per block of a Cholesky factor; see `_factor_blocks`. At
# N = 1000 a block of 128 rows is at most 1 MB, so it stays in cache while
# it is applied to the three paths of a driver.
_BLOCK_ROWS = 128
# Rows per formatted block of a CSV file.
_CSV_BLOCK = 4096


class FactorizationError(RuntimeError):
    """Increment covariance was not numerically positive definite."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


def __getattr__(name: str):
    """`fbm.scipy`: imports `scipy.linalg` on first access and binds it.

    Nothing in frachh calls through this name; it is kept for code that
    patches `fbm.scipy`, such as perfbench's per-layer wrappers."""
    if name != "scipy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global scipy
    import scipy.linalg
    return scipy


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
# factor takes 8 `_factor_size(N)` bytes, 4.5 MB at N = 1000, so three fit; a
# Wood-Chan scale vector 16 (M+1), 8 MiB at N = 2^19.
_MEMO_MAX_BYTES = 16 << 20

# Cholesky factors and Wood-Chan scale vectors by key, oldest first; see
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


def fbm_covariance(s: float, t: float, H: float) -> float:
    """cov(B(s), B(t)) = (|s|^2H + |t|^2H - |t-s|^2H) / 2."""
    _check_hurst(H)
    two_h = 2.0 * H
    return 0.5 * (abs(s) ** two_h + abs(t) ** two_h - abs(t - s) ** two_h)


def fgn_autocovariance(k, H: float):
    """Autocovariance gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2 of
    unit-grid fBm increments; vectorized over `k`."""
    _check_hurst(H)
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * H
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)


# ---------------------------------------------------------------------------
# Path containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FbmPath:
    """Three independent fBm components on the uniform grid of N+1 points over
    [0, T], held as their (N, 3) increments, one component per column."""

    T: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        increments = np.asarray(self.increments, dtype=float)
        if increments.ndim != 2 or increments.shape[1] != 3 or len(increments) < 1:
            raise ValueError("increments must have shape (N, 3) with N >= 1")
        T = float(self.T)
        if not (T > 0.0) or not math.isfinite(T):
            raise ValueError(f"horizon T must be positive and finite, got {T!r}")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "increments", increments)

    @property
    def n_steps(self) -> int:
        return len(self.increments)

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def values(self) -> np.ndarray:
        """The (N+1, 3) paths: a zero row, then the cumulative increments."""
        values = np.zeros((self.n_steps + 1, 3))
        np.cumsum(self.increments, axis=0, out=values[1:])
        return values


# ---------------------------------------------------------------------------
# Cholesky reference generator
# ---------------------------------------------------------------------------


def _check_grid_args(N: int, T: float) -> tuple[int, float]:
    if not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"grid size N must be an integer >= 1, got {N!r}")
    N = int(N)
    T = float(T)
    if not (T > 0.0) or not math.isfinite(T):
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")
    return N, T


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
        raise _pivot_error(0)
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
                raise _pivot_error(k + 1)
            s = math.sqrt((1.0 - rho) * (1.0 + rho))
            uk -= rho * vk
            uk /= s
            vk *= s
            vk -= rho * uk
    return factor


def _pivot_error(index: int) -> FactorizationError:
    return FactorizationError(
        f"increment covariance is not numerically positive definite "
        f"(offending pivot index {index})",
        pivot_index=index,
    )


def _unit_factor(N: int, H: float) -> np.ndarray:
    """Read-only Cholesky factor of the unit-grid fGn covariance
    gamma(|i-j|), memoized per (N, H): built column by column by the Schur
    algorithm into the flat row blocks of U = L^T, `_factor_size(N)`
    doubles."""
    return _memoized(
        (GENERATOR_CHOLESKY, N, H),
        lambda: _toeplitz_cholesky(fgn_autocovariance(np.arange(N), H)),
    )


def _cholesky_increments(N: int, T: float, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) increment paths, path i `L z_i` scaled to the step T/N, L
    the unit-grid factor and z_i the i-th run of N normals.

    Path i is the row z_i^T U, U = L^T, summed block by block:
    `z_i[lo:hi] @ block` is added into its columns [lo, N). Each block is
    applied to every path before the next, one path a product: numpy's BLAS
    may round a row of a multi-row product differently with the number of
    rows, and the first j paths must be the j-path draw.
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
    out *= (T / N) ** H
    return out


# ---------------------------------------------------------------------------
# Wood-Chan circulant embedding generator
# ---------------------------------------------------------------------------


def _circulant_eigenvalues(M: int, H: float) -> np.ndarray:
    """Eigenvalues of the 2M circulant embedding of the fGn covariance: the FFT
    of the symmetric first row [gamma(0..M), gamma(M-1..1)].

    The row is written into one complex buffer of 2M points, `_EIG_CHUNK`
    autocovariances at a time, and transformed in place; the eigenvalues are
    returned as a writable view of its real part."""
    row = np.zeros(2 * M, dtype=complex)
    re = row.real
    for lo in range(0, M + 1, _EIG_CHUNK):
        hi = min(lo + _EIG_CHUNK, M + 1)
        re[lo:hi] = fgn_autocovariance(np.arange(lo, hi), H)
    re[M + 1:] = re[M - 1:0:-1]
    return np.fft.fft(row, out=row).real


def _embedding_eigenvalues(N: int, H: float) -> np.ndarray:
    """Eigenvalues of the minimal embedding, half-size M the smallest power of
    two >= N. Negatives within -_EIG_CLIP_REL * max are rounding and clipped
    to zero; any other raises."""
    lam = _circulant_eigenvalues(1 << max(0, N - 1).bit_length(), H)
    lam_min = float(lam.min())
    if lam_min < -_EIG_CLIP_REL * float(lam.max()):
        raise RuntimeError(
            f"circulant embedding of fGn is indefinite at N={N}, H={H} "
            f"(most negative eigenvalue {lam_min:.6g})"
        )
    return np.clip(lam, 0.0, None, out=lam)


def _fgn_scale(N: int, H: float) -> np.ndarray:
    """Read-only interleaved (real, imaginary) scales sqrt(w_k * lam_k) of the
    M+1 half-spectrum terms, w = 2M at k = 0 and k = M and w = M otherwise,
    memoized per (N, H). The imaginary scales of X_0 and X_M are zero."""

    def build() -> np.ndarray:
        # Allocated before the eigenvalues and their temporaries, so that the
        # kept vector does not pin their freed space on the heap: a 1000 ms
        # run peaked ~3 MB higher with it allocated last.
        m = 1 << max(0, N - 1).bit_length()
        scale = np.empty(2 * (m + 1))
        wlam = _embedding_eigenvalues(N, H)[: m + 1]
        wlam[1:m] *= float(m)
        wlam[[0, m]] *= 2.0 * m
        np.sqrt(wlam, out=scale[0::2])
        scale[1::2] = scale[0::2]
        scale[[1, -1]] = 0.0
        return scale

    return _memoized((GENERATOR_WOOD_CHAN, N, H), build)


def _unit_fgn(N: int, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) independent unit-grid fGn vectors by circulant embedding.

    Path i is `irfft(X_i, 2M)[:N]` of its own Hermitian half-spectrum: real
    X_0 and X_M, complex X_k for 0 < k < M, standard normal parts scaled by
    `_fgn_scale` (Dietrich & Newsam 1997). The normals fill X_0, X_1, ... of
    each path in turn, the imaginary parts of X_0 and X_M drawn and zeroed, so
    the first j paths of any draw with this seed are the same.
    """
    scale = _fgn_scale(N, H)
    m = scale.size // 2 - 1
    rng = np.random.default_rng(seed)
    out = np.empty((n_paths, N))
    batch = max(1, min(n_paths, _BATCH_BYTES // (16 * (m + 1))))
    spectra = np.empty((batch, m + 1), dtype=complex)
    for start in range(0, n_paths, batch):
        x = spectra[: n_paths - start]
        parts = x.view(float)
        rng.standard_normal(out=parts)
        parts *= scale
        out[start : start + len(x)] = np.fft.irfft(x, 2 * m)[:, :N]
    return out


def _wood_chan_increments(N: int, T: float, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) increment paths: unit-grid fGn scaled to the step T/N."""
    out = _unit_fgn(N, H, seed, n_paths)
    out *= (T / N) ** H
    return out


# ---------------------------------------------------------------------------
# Three-component driver
# ---------------------------------------------------------------------------

# Looked up at call time, so a replaced entry reaches every driver.
_SAMPLERS = {
    GENERATOR_CHOLESKY: _cholesky_increments,
    GENERATOR_WOOD_CHAN: _wood_chan_increments,
}


def component_seeds(master_seed: int, n: int) -> list[int]:
    """`n` disjoint per-recording seeds spawned from one master seed, one for
    each run of a recording series."""
    children = np.random.SeedSequence(master_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def sample_driver(
    N: int, T: float, H: float, master_seed: int, generator: str = GENERATOR_WOOD_CHAN
) -> FbmPath:
    """Three mutually independent fBm components on a shared grid, reproducible
    as a whole from `master_seed`: column j of the increments is path j of
    `_SAMPLERS[generator](N, T, H, master_seed, 3)`."""
    if generator not in _SAMPLERS:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")
    require_seed(master_seed)
    N, T = _check_grid_args(N, T)
    H = _check_hurst(H)
    return FbmPath(T=T, increments=_SAMPLERS[generator](N, T, H, master_seed, 3).T)


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


def write_driver_csv(driver: FbmPath, path) -> None:
    """Dump the driver as CSV rows `t,B1,B2,B3` with 17 significant digits."""
    _write_csv(path, "t,B1,B2,B3", "%.17g,%.17g,%.17g,%.17g\n",
               _column_rows(driver.grid, *driver.values.T))
