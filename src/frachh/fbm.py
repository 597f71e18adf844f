"""Exact-covariance fractional Brownian motion sampling on uniform grids.

Two generators are provided and cross-validate each other:

* `sample_cholesky` — triangular factorization of the increment covariance;
  used as the exact reference. The O(N^3) factorization is paid once per
  (N, T, H); each path then costs O(N^2).
* `sample_wood_chan` — circulant embedding of the stationary increment process
  (fractional Gaussian noise) diagonalized by the FFT; exact in distribution
  and O(N log N). The embedding is the smallest power of two >= N, which is
  nonnegative definite for fGn (Perrin et al. 2002; Craigmile 2003); its
  eigenvalues are built once per (N, H). See Wood & Chan (1994) and Dietrich &
  Newsam (1997).

Each Wood-Chan path is the first N points of one real inverse FFT of its own
Hermitian half-spectrum of M+1 terms: 2M normals and one real FFT of 2M points
a path, and no path is drawn only to be discarded. The normals go straight
into the complex buffer (2M + 2 of them; the imaginary parts at k = 0 and k =
M are zeroed), path after path, so path i of a draw is the same whatever the
number of paths drawn. The half-spectra of several paths are transformed
together in one `irfft` call, as many as fit in `_BATCH_BYTES` (1 MiB, at
least one): a three-component driver at N = 5000 is one call, and a 1000 ms
run holds one path's spectrum at a time.

Factors and eigenvalues are memoized per key and shared read-only, so the
three components of a driver, and repeated calls at the same key, reuse them.
A Cholesky factor takes 8 N^2 bytes, so it is held alone: the memo is emptied
before a factor is built, and a held factor is dropped before eigenvalues are
built. The eigenvalues (16 M bytes for an embedding of size 2M) are kept for
every (N, H), so a series of recordings that returns to an earlier Hurst
parameter builds its eigenvalues once; the oldest are dropped once their
total passes `_SPECTRA_MAX_BYTES`.

Both generators are deterministic functions of (N, T, H, seed). Bit-identical
output across platforms is not promised for the FFT-backed generator;
statistical properties are. The Wood-Chan stream of version 0.2.0 (the
half-spectrum draw) differs from that of 0.1.0.

Only the Cholesky generator needs scipy, so `scipy.linalg` is imported the
first time a covariance is built or factored, not when this module loads. The
import takes about 0.13 s and 28 MB, which a Wood-Chan run, the default, would
pay in every fresh process without using it. The module attribute `fbm.scipy`
imports it on first access (PEP 562), and the Cholesky code reaches scipy
through that name at call time, so replacing `fbm.scipy` or its `linalg`
functions reaches every factorization.
"""

from __future__ import annotations

import itertools
import math
import re
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
# Rows per formatted block of a CSV file.
_CSV_BLOCK = 4096


class FactorizationError(RuntimeError):
    """Increment covariance was not numerically positive definite."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


def __getattr__(name: str):
    """`fbm.scipy`: imports `scipy.linalg` on first access and binds it."""
    if name != "scipy":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global scipy
    import scipy.linalg
    return scipy


def _linalg():
    """`scipy.linalg` as this module's `scipy` name holds it now."""
    try:
        return scipy.linalg
    except NameError:
        return __getattr__("scipy").linalg


def _check_hurst(H: float) -> float:
    H = float(H)
    if not (0.0 < H < 1.0):
        raise ValueError(f"Hurst parameter must lie in ]0,1[, got {H!r}")
    return H


# Total size of the Wood-Chan eigenvalue arrays the memo may hold before it
# drops the oldest. One array for N = 5000 (2M = 16384) takes 128 KiB.
_SPECTRA_MAX_BYTES = 4 << 20

# Spectral data (Cholesky factors, circulant eigenvalues) by key, oldest first;
# see `_memoized`.
_spectral_memo: dict[tuple, np.ndarray] = {}


def _memoized(key: tuple, build) -> np.ndarray:
    """`build()` for `key`, reused by later calls at `key`.

    A Cholesky factor is never held beside another entry: the memo is emptied
    before a factor is built, and before anything is built while a factor is
    held. Other entries are kept until their total size passes
    `_SPECTRA_MAX_BYTES`; then the oldest are dropped, never the new one.
    Nothing is stored when `build` raises. The result is made read-only,
    because every caller at that key shares it.
    """
    value = _spectral_memo.get(key)
    if value is not None:
        return value
    if any(k[0] == GENERATOR_CHOLESKY for k in (key, *_spectral_memo)):
        _spectral_memo.clear()
    value = build()
    value.flags.writeable = False
    _spectral_memo[key] = value
    while (len(_spectral_memo) > 1
           and sum(v.nbytes for v in _spectral_memo.values()) > _SPECTRA_MAX_BYTES):
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
    """Sampled fBm on the uniform grid of N+1 points over [0, T], starting at 0.

    `values` is (N+1,) for one path, or (N+1, 3) for the three independent
    components of the gate driver, one per column.
    """

    T: float
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[1:] not in ((), (3,)) or len(values) < 2:
            raise ValueError("values must have shape (N+1,) or (N+1, 3) with N >= 1")
        if np.count_nonzero(values[0]):
            raise ValueError("paths start at value 0")
        T = float(self.T)
        if not (T > 0.0) or not math.isfinite(T):
            raise ValueError(f"horizon T must be positive and finite, got {T!r}")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    @property
    def increments(self) -> np.ndarray:
        """Increments along the grid, shape (N,) or (N, 3)."""
        return np.diff(self.values, axis=0)


# ---------------------------------------------------------------------------
# Cholesky reference generator
# ---------------------------------------------------------------------------


def _check_grid_args(N: int, T: float) -> tuple[int, float]:
    N = int(N)
    if N < 1:
        raise ValueError(f"grid size N must be >= 1, got {N}")
    T = float(T)
    if not (T > 0.0) or not math.isfinite(T):
        raise ValueError(f"horizon T must be positive and finite, got {T!r}")
    return N, T


def _increment_covariance(N: int, T: float, H: float) -> np.ndarray:
    """Increment covariance delta^2H * gamma(|i-j|) as one fresh N x N array."""
    delta = T / N
    return _linalg().toeplitz(delta ** (2.0 * H) * fgn_autocovariance(np.arange(N), H))


def _cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix `cov`, computed in place.

    Overwrites `cov`: its buffer holds the returned factor. `cov.T` is the same
    matrix in Fortran order, which LAPACK factors without a copy.
    """
    linalg = _linalg()
    try:
        return linalg.cholesky(cov.T, lower=True, overwrite_a=True)
    except linalg.LinAlgError as exc:
        match = re.search(r"(\d+)-th leading minor", str(exc))
        pivot = int(match.group(1)) - 1 if match else -1
        raise FactorizationError(
            f"increment covariance is not numerically positive definite "
            f"(offending pivot index {pivot})",
            pivot_index=pivot,
        ) from exc


def _increment_factor(N: int, T: float, H: float) -> np.ndarray:
    """Read-only lower Cholesky factor of the increment covariance, memoized
    per (N, T, H)."""
    return _memoized(
        (GENERATOR_CHOLESKY, N, T, H),
        lambda: _cholesky_factor(_increment_covariance(N, T, H)),
    )


def sample_cholesky(N: int, T: float, H: float, seed) -> FbmPath:
    """Exact fBm path on N+1 uniform points of [0, T] via a lower-triangular
    factorization of the increment covariance. Deterministic given `seed`.

    The O(N^3) factorization is paid once per (N, T, H) and kept until another
    key is sampled, which holds one 8 N^2-byte factor in memory; each path
    then costs O(N^2).
    """
    increments = cholesky_increment_ensemble(N, T, H, seed, 1)[0]
    return FbmPath(T=T, values=np.concatenate([[0.0], np.cumsum(increments)]))


def cholesky_increment_ensemble(N: int, T: float, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) array of independent increment vectors from one factor."""
    N, T = _check_grid_args(N, T)
    H = _check_hurst(H)
    L = _increment_factor(N, T, H)
    z = np.random.default_rng(seed).standard_normal((N, int(n_paths)))
    return (L @ z).T


# ---------------------------------------------------------------------------
# Wood-Chan circulant embedding generator
# ---------------------------------------------------------------------------


def _circulant_eigenvalues(M: int, H: float) -> np.ndarray:
    """Eigenvalues of the 2M circulant embedding of the fGn covariance: the FFT
    of the symmetric first row [gamma(0..M), gamma(M-1..1)]."""
    gamma = fgn_autocovariance(np.arange(M + 1), H)
    row = np.concatenate([gamma, gamma[M - 1:0:-1]])
    return np.fft.fft(row).real


def _embedding_eigenvalues(N: int, H: float) -> np.ndarray:
    """Read-only eigenvalues of the minimal embedding, half-size M the smallest
    power of two >= N, memoized per (N, H). Negatives within
    -_EIG_CLIP_REL * max are rounding and clipped to zero; any other raises."""

    def build() -> np.ndarray:
        lam = _circulant_eigenvalues(1 << max(0, N - 1).bit_length(), H)
        lam_min = float(lam.min())
        if lam_min < -_EIG_CLIP_REL * float(lam.max()):
            raise RuntimeError(
                f"circulant embedding of fGn is indefinite at N={N}, H={H} "
                f"(most negative eigenvalue {lam_min:.6g})"
            )
        return np.clip(lam, 0.0, None)

    return _memoized((GENERATOR_WOOD_CHAN, N, H), build)


def _unit_fgn(N: int, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) independent unit-grid fGn vectors by circulant embedding.

    Path i is `irfft(X_i, 2M)[:N]` of its own Hermitian half-spectrum: real
    X_0 and X_M, complex X_k for 0 < k < M, standard normal parts scaled by
    sqrt(w_k * lam_k) with w = 2M at k = 0 and k = M and w = M otherwise
    (Dietrich & Newsam 1997). The normals fill X_0, X_1, ... of each path in
    turn, so the first j paths of any draw with this seed are the same.
    """
    lam = _embedding_eigenvalues(N, H)
    m = lam.size // 2
    weight = np.full(m + 1, float(m))
    weight[[0, m]] = 2.0 * m
    # Interleaved (real, imaginary) scales; the imaginary parts of X_0 and
    # X_M are drawn and zeroed.
    scale = np.repeat(np.sqrt(weight * lam[: m + 1]), 2)
    scale[[1, -1]] = 0.0
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


def sample_wood_chan(N: int, T: float, H: float, seed) -> FbmPath:
    """fBm path via circulant embedding of the increment process, cumulatively
    summed and scaled to the [0, T] grid. Deterministic given `seed`."""
    N, T = _check_grid_args(N, T)
    H = _check_hurst(H)
    fgn = _unit_fgn(N, H, seed, 1)[0]
    return FbmPath(T=T, values=np.concatenate([[0.0], np.cumsum(fgn) * (T / N) ** H]))


def wood_chan_increment_ensemble(N: int, T: float, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) independent increment vectors via batched circulant
    embedding."""
    N, T = _check_grid_args(N, T)
    H = _check_hurst(H)
    out = _unit_fgn(N, H, seed, int(n_paths))
    out *= (T / N) ** H
    return out


# ---------------------------------------------------------------------------
# Three-component driver
# ---------------------------------------------------------------------------

_SAMPLERS = {
    GENERATOR_CHOLESKY: sample_cholesky,
    GENERATOR_WOOD_CHAN: sample_wood_chan,
}


def component_seeds(master_seed: int, n: int = 3) -> list[int]:
    """Disjoint per-component seeds spawned from one master seed."""
    children = np.random.SeedSequence(master_seed).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def sample_driver(
    N: int, T: float, H: float, master_seed: int, generator: str = GENERATOR_WOOD_CHAN
) -> FbmPath:
    """Three mutually independent fBm components on a shared grid, as the
    columns of one (N+1, 3) path, reproducible as a whole from `master_seed`.

    Wood-Chan: the columns are the three paths of one
    `_unit_fgn(N, H, master_seed, 3)` draw, so column 0 is
    `sample_wood_chan(N, T, H, master_seed)`. Cholesky: column j is the
    `sample_cholesky` path seeded with `component_seeds(master_seed)[j]`.
    """
    if generator not in _SAMPLERS:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")
    if master_seed < 0:
        raise ValueError(f"seed must be nonnegative, got {master_seed!r}")
    if generator == GENERATOR_CHOLESKY:
        paths = [_SAMPLERS[generator](N, T, H, s) for s in component_seeds(master_seed)]
        return FbmPath(T=paths[0].T, values=np.column_stack([p.values for p in paths]))
    N, T = _check_grid_args(N, T)
    H = _check_hurst(H)
    values = np.zeros((N + 1, 3))
    np.cumsum(_unit_fgn(N, H, master_seed, 3).T, axis=0, out=values[1:])
    values[1:] *= (T / N) ** H
    return FbmPath(T=T, values=values)


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
    """Dump a path as CSV rows `t,B1` for one path, or `t,B1,B2,B3` for the
    driver, with 17 significant digits."""
    columns = driver.values.reshape(len(driver.values), -1).T
    header = ",".join(["t"] + [f"B{j}" for j in range(1, len(columns) + 1)])
    _write_csv(path, header, ",".join(["%.17g"] * (len(columns) + 1)) + "\n",
               _column_rows(driver.grid, *columns))
