import numpy as np
import pytest

from frachh import fbm
from frachh.kinetics import HHParams, State, equilibrium, ionic_current
from frachh.solver import _integrate


def fbm_increments(generator, N, T, H, seed, n_paths):
    """(n_paths, N) fBm increments on the grid of N steps over [0, T]: the
    unit-grid draw of `fbm._SAMPLERS[generator]` times (T/N)^H, as
    `sample_driver` scales it."""
    return fbm._SAMPLERS[generator](N, H, seed, n_paths) * (T / N) ** H


def driver_paths(increments):
    """The (N+1, 3) fBm paths of a driver's (N, 3) `increments`: a zero row,
    then the cumulative increments, as `fbm.write_driver_csv` writes them."""
    return np.concatenate([np.zeros((1, 3)), np.cumsum(increments, axis=0)])


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts and ends with an empty driver memo, so none passes
    only because another ran first; a test that requests it gets the dict."""
    fbm._spectral_memo.clear()
    yield fbm._spectral_memo
    fbm._spectral_memo.clear()


@pytest.fixture(scope="session")
def eq0():
    return equilibrium(0.0)


@pytest.fixture(scope="session")
def classic_i10():
    return HHParams.classic(current_I=10.0)


@pytest.fixture(scope="session")
def classic_i10_noisy():
    return HHParams.classic(current_I=10.0, sigma=0.25)


@pytest.fixture(scope="session")
def euler_step():
    """One step of the solver's integration loop from `x` with the driver
    increments `dB`; returns the new State and the clamp events (step 0)."""

    def step(x, dt, dB, params):
        traj, events = _integrate(x, params, dt, 1, np.array([dB], dtype=float))
        return State(*traj[1].tolist()), events

    return step


@pytest.fixture(scope="session")
def fbm_covariance():
    """cov(B(s), B(t)) = (|s|^2H + |t|^2H - |t-s|^2H) / 2 of fBm with Hurst
    parameter H; an H outside ]0,1[ raises `ValueError`."""

    def covariance(s, t, H):
        two_h = 2.0 * fbm._check_hurst(H)
        return 0.5 * (abs(s) ** two_h + abs(t) ** two_h - abs(t - s) ** two_h)

    return covariance


@pytest.fixture(scope="session")
def rest_current():
    """The applied current that makes `equilibrium(v)` a full fixed point of
    the drift, as a function of the parameters and v (default 0)."""

    def current(params, v=0.0):
        return ionic_current(equilibrium(v), params)

    return current
