import numpy as np
import pytest

from frachh.kinetics import HHParams, State, equilibrium
from frachh.solver import _integrate


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
