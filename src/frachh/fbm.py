"""Exact-covariance fractional Brownian motion sampling on uniform grids.

Two generators are provided and cross-validate each other:

* `sample_cholesky` — triangular factorization of the increment covariance;
  used as the exact reference. The O(N^3) factorization is paid once per
  (N, T, H); each path then costs O(N^2).
* `sample_wood_chan` — circulant embedding of the stationary increment process
  (fractional Gaussian noise) diagonalized by the FFT; exact in distribution
  and O(N log N). The embedding search is paid once per (N, H). See Wood &
  Chan (1994) and Dietrich & Newsam (1997).

The factor or eigenvalues of the most recent key are kept in a one-entry memo
and shared read-only, so the three components of a driver, and repeated calls
at the same key, reuse them. Only one key is held: a Cholesky factor takes
8 N^2 bytes, and the old entry is dropped before the next one is built.

Both generators are deterministic functions of (N, T, H, seed). Bit-identical
output across platforms is not promised for the FFT-backed generator;
statistical properties are.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg

GENERATOR_CHOLESKY = "cholesky"
GENERATOR_WOOD_CHAN = "wood_chan"
GENERATORS = (GENERATOR_CHOLESKY, GENERATOR_WOOD_CHAN)

# Relative tolerance for circulant eigenvalues that are negative only through
# floating-point rounding; anything more negative triggers re-embedding.
_EIG_CLIP_REL = 1e-9
# Give up doubling the embedding once it exceeds 2^6 * N.
_MAX_EMBED_FACTOR = 64
# Complex samples per FFT batch of `_unit_fgn`.
_ENSEMBLE_BATCH = 20_000
# Rows per formatted block of a CSV file.
_CSV_BLOCK = 4096


class FactorizationError(RuntimeError):
    """Increment covariance was not numerically positive definite."""

    def __init__(self, message: str, pivot_index: int):
        super().__init__(message)
        self.pivot_index = pivot_index


class CirculantEmbeddingError(RuntimeError):
    """Circulant embedding stayed indefinite up to the maximum padding."""

    def __init__(self, message: str, min_eigenvalue: float, embedding_size: int):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.embedding_size = embedding_size


def _check_hurst(H: float) -> float:
    H = float(H)
    if not (0.0 < H < 1.0):
        raise ValueError(f"Hurst parameter must lie in ]0,1[, got {H!r}")
    return H


# Spectral data (Cholesky factor or circulant eigenvalues) of the most recent
# key only; see `_memoized`.
_spectral_memo: dict[tuple, np.ndarray] = {}


def _memoized(key: tuple, build) -> np.ndarray:
    """`build()` for `key`, reused while `key` is the most recent key.

    The previous entry is dropped before `build` runs, so at most one entry is
    alive at a time, and nothing is stored when `build` raises. The result is
    made read-only, because every caller at that key shares it.
    """
    value = _spectral_memo.get(key)
    if value is None:
        _spectral_memo.clear()
        value = build()
        value.flags.writeable = False
        _spectral_memo[key] = value
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
    return scipy.linalg.toeplitz(delta ** (2.0 * H) * fgn_autocovariance(np.arange(N), H))


def _cholesky_factor(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of the symmetric matrix `cov`, computed in place.

    Overwrites `cov`: its buffer holds the returned factor. `cov.T` is the same
    matrix in Fortran order, which LAPACK factors without a copy.
    """
    try:
        return scipy.linalg.cholesky(cov.T, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
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


def _find_embedding(N: int, H: float) -> tuple[int, np.ndarray]:
    """Smallest power-of-two embedding half-size M >= N whose circulant
    eigenvalues are nonnegative up to rounding; negatives within
    -_EIG_CLIP_REL * max are clipped to zero."""
    M = 1 << max(0, N - 1).bit_length()
    while True:
        lam = _circulant_eigenvalues(M, H)
        lam_min = float(lam.min())
        if lam_min >= -_EIG_CLIP_REL * float(lam.max()):
            return M, np.clip(lam, 0.0, None)
        if M >= _MAX_EMBED_FACTOR * N:
            raise CirculantEmbeddingError(
                f"circulant embedding stayed indefinite up to size {2 * M} "
                f"(most negative eigenvalue {lam_min:.3e})",
                min_eigenvalue=lam_min,
                embedding_size=2 * M,
            )
        M *= 2


def _embedding_eigenvalues(N: int, H: float) -> np.ndarray:
    """Read-only clipped eigenvalues of the embedding `_find_embedding`
    picks, memoized per (N, H)."""
    return _memoized((GENERATOR_WOOD_CHAN, N, H), lambda: _find_embedding(N, H)[1])


def _unit_fgn(N: int, H: float, seed, n_paths: int) -> np.ndarray:
    """(n_paths, N) independent unit-grid fGn vectors via batched circulant
    embedding. Each complex FFT sample yields two paths, its real and its
    imaginary part, which are independent and each exact fGn."""
    lam = _embedding_eigenvalues(N, H)
    two_m = lam.size
    rng = np.random.default_rng(seed)
    out = np.empty((n_paths, N))
    filled = 0
    while filled < n_paths:
        n_complex = min((n_paths - filled + 1) // 2, _ENSEMBLE_BATCH)
        z = rng.standard_normal((n_complex, two_m)) + 1j * rng.standard_normal((n_complex, two_m))
        z *= np.sqrt(lam)
        y = (np.fft.fft(z, axis=-1) / math.sqrt(two_m))[:, :N]
        for part in (y.real, y.imag):
            rows = part[: n_paths - filled]
            out[filled : filled + len(rows)] = rows
            filled += len(rows)
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
    columns of one (N+1, 3) path.

    Column j is the `generator` path seeded with `component_seeds(master_seed)[j]`,
    so the triple is reproducible as a whole while the components stay
    independent.
    """
    if generator not in _SAMPLERS:
        raise ValueError(f"unknown generator {generator!r}, expected one of {GENERATORS}")
    paths = [_SAMPLERS[generator](N, T, H, s) for s in component_seeds(master_seed)]
    return FbmPath(T=paths[0].T, values=np.column_stack([p.values for p in paths]))


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
