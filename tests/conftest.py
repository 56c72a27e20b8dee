"""Shared fixtures; the heavy pump runs are session-scoped and reused."""

import numpy as np
import pytest

from aah_pump import dynamics, effective, spectrum, wannier
from aah_pump.model import ModelParams, TunnelingMode


@pytest.fixture(scope="session")
def paper_params():
    return ModelParams()


@pytest.fixture(scope="session")
def paper_params_sine():
    return ModelParams(tunneling_mode=TunnelingMode.SINE_MODULATED)


@pytest.fixture(scope="session")
def bands_topology(paper_params):
    grid = spectrum.default_topology_grid(paper_params, 240)
    return spectrum.solve_bands(paper_params, grid)


@pytest.fixture(scope="session")
def bands_topology_sine(paper_params_sine):
    grid = spectrum.default_topology_grid(paper_params_sine, 240)
    return spectrum.solve_bands(paper_params_sine, grid)


@pytest.fixture(scope="session")
def bands_t0(paper_params):
    return spectrum.solve_bands(paper_params, np.array([0.0]))


@pytest.fixture(scope="session")
def bands_t0_sine(paper_params_sine):
    return spectrum.solve_bands(paper_params_sine, np.array([0.0]))


@pytest.fixture(scope="session")
def bands_phases(paper_params):
    grid = np.linspace(0.0, paper_params.period, 4097)
    return spectrum.solve_bands(paper_params, grid)


@pytest.fixture(scope="session")
def mlws9(bands_t0):
    state, report, theta = wannier.maximally_localize(bands_t0, 2, cell=9)
    return state, report, theta


@pytest.fixture(scope="session")
def traj_traditional_2c(paper_params):
    return dynamics.run_protocol(paper_params, 2, 27)


@pytest.fixture(scope="session")
def traj_echo_2c(paper_params):
    return dynamics.run_protocol(paper_params, 2, 27, echo=True)


@pytest.fixture(scope="session")
def traj_suppressed_1c(paper_params_sine):
    return dynamics.run_protocol(paper_params_sine, 1, 27)


@pytest.fixture(scope="session")
def traj_mlws_1c(paper_params, mlws9):
    state, _, _ = mlws9
    return dynamics.evolve(paper_params, state.amplitudes, 0.0, paper_params.period)


@pytest.fixture(scope="session")
def effective_pair(paper_params):
    return effective.compare_effective(paper_params, 27, n_cycles=1)


@pytest.fixture(scope="session")
def dt_halving_pair(paper_params):
    cap = dynamics.dt_max(paper_params)
    coarse = dynamics.evolve(paper_params, 27, 0.0, paper_params.period, dt=cap, samples=4)
    fine = dynamics.evolve(paper_params, 27, 0.0, paper_params.period, dt=cap / 2, samples=4)
    return coarse, fine
