import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aah_pump import observables, spectrum
from aah_pump.model import ModelParams
from oracles import bloch_states_real_space


def _delta(site, n=45):
    v = np.zeros(n, dtype=complex)
    v[site - 1] = 1.0
    return v


def test_single_site_state():
    density, mean_x, d_w = observables.position_moments(_delta(27))
    assert mean_x == pytest.approx(27.0)
    assert d_w == pytest.approx(0.0, abs=1e-12)
    assert density.sum() == pytest.approx(1.0, abs=1e-12)


def test_symmetric_two_site_superposition():
    v = (_delta(26) + _delta(28)) / np.sqrt(2)
    _, mean_x, d_w = observables.position_moments(v)
    assert mean_x == pytest.approx(27.0)
    assert d_w == pytest.approx(1.0)


def test_width_of_a_nearly_single_site_state():
    # weight w on site 28, the rest on 27: d_w = sqrt(w(1 - w)) exactly, which
    # <X^2> - <X>^2 misses by about 1% for w = 1e-12, since <X^2> ~ 729
    w = 1e-12
    v = np.sqrt(1 - w) * _delta(27) + np.sqrt(w) * _delta(28)
    d_w = observables.position_moments(v)[2]
    assert d_w == pytest.approx(np.sqrt(w * (1 - w)), rel=1e-9, abs=0)


def test_global_phase_irrelevant():
    v = (_delta(10) + 1j * _delta(12)) / np.sqrt(2)
    _, mean_a, d_w_a = observables.position_moments(v)
    _, mean_b, d_w_b = observables.position_moments(np.exp(0.73j) * v)
    assert mean_a == pytest.approx(mean_b, abs=1e-12)
    assert d_w_a == pytest.approx(d_w_b, abs=1e-12)


def test_band_population_eigenstate(bands_t0):
    psi = bloch_states_real_space(bands_t0, 0)[1, 6]
    weights = observables.band_population(psi[None], bands_t0)[0]
    assert weights[1] == pytest.approx(1.0, abs=1e-10)
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(q=st.integers(2, 6), L=st.integers(3, 13), t=st.floats(0.0, 700.0),
       seed=st.integers(0, 2**32 - 1))
def test_band_population_matches_site_space_overlaps(q, L, t, seed):
    # the cell-axis FFT route, one call for one state per time, against
    # overlaps with the literal Bloch states at each time
    p = ModelParams(q=q, p=1, L=L, phi0=0.3)
    try:
        bands = spectrum.solve_bands(p, np.array([0.0, t]))
    except spectrum.BandTouchingError:
        assume(False)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(2, p.n_sites)) + 1j * rng.normal(size=(2, p.n_sites))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    literal = [np.sum(np.abs(np.conj(bloch_states_real_space(bands, i)) @ states[i]) ** 2,
                      axis=1) for i in range(2)]
    weights = observables.band_population(states, bands)
    np.testing.assert_allclose(weights, literal, rtol=0, atol=1e-14)


def test_initial_site_highest_band_weight(bands_t0):
    # the bare site-27 state is dominated by the highest band
    weights = observables.band_population(_delta(27)[None], bands_t0)[0]
    assert weights[2] == pytest.approx(0.999, abs=5e-4)
    assert weights.sum() == pytest.approx(1.0, abs=1e-10)


def test_mlws_width_equals_invariant_spread(mlws9):
    state, report, _ = mlws9
    d_w = observables.position_moments(state.amplitudes)[2]
    assert d_w == pytest.approx(np.sqrt(report.omega_I), abs=1e-8)
