import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aah_pump import model
from aah_pump.model import ModelParams, TunnelingMode
from oracles import bloch_frame, check_hermitian


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(p=2, q=4)  # not coprime
    with pytest.raises(ValueError):
        ModelParams(q=1)
    with pytest.raises(ValueError):
        ModelParams(L=2)
    with pytest.raises(ValueError):
        ModelParams(omega=0.0)
    p = ModelParams()
    assert p.n_sites == 45
    assert p.period == pytest.approx(2 * np.pi / 0.01)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["J", "V0", "phi0", "omega"])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**{field: value})


def test_onsite_energy_values():
    p = ModelParams()
    assert model.onsite_energy(p, 3, 0.0) == pytest.approx(30.0, abs=1e-12)
    assert model.onsite_energy(p, 1, 0.0) == pytest.approx(-15.0, abs=1e-12)
    quarter = p.period / 4
    assert model.onsite_energy(p, 3, quarter) == pytest.approx(0.0, abs=1e-10)


def test_onsite_energy_index_error():
    p = ModelParams()
    with pytest.raises(IndexError):
        model.onsite_energy(p, 0, 0.0)
    with pytest.raises(IndexError):
        model.onsite_energy(p, 46, 0.0)


def test_tunneling_uniform_constant():
    p = ModelParams()
    for j in (1, 7, 45):
        for t in (0.0, 3.3, 400.0):
            assert model.tunneling(p, j, t) == pytest.approx(-1.0)
    # bonds broadcast against times in both modes, as on-site energies do
    ts = np.array([0.0, 3.3, 400.0, 512.0])[:, None]
    for mode in TunnelingMode:
        pm = dataclasses.replace(p, tunneling_mode=mode)
        assert model.tunneling(pm, np.arange(1, 4), ts).shape == (4, 3)
    assert model.onsite_energy(p, np.arange(1, 4), ts).shape == (4, 3)
    np.testing.assert_array_equal(model.tunneling(p, np.arange(1, 4), ts), -1.0)


def test_tunneling_sine_resonance_values():
    # at the V_B = V_C resonance the bond pattern is {0, sqrt(3)/2, -sqrt(3)/2}
    p = ModelParams(tunneling_mode=TunnelingMode.SINE_MODULATED)
    t_res = (np.pi / 3 - p.phi0) / p.omega
    j1, j2, j3 = (model.tunneling(p, j, t_res) for j in (1, 2, 3))
    assert j1 == pytest.approx(0.0, abs=1e-12)
    assert j2 == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert j3 == pytest.approx(-np.sqrt(3) / 2, abs=1e-12)


def test_tunneling_sine_zero_at_t0():
    p = ModelParams(tunneling_mode=TunnelingMode.SINE_MODULATED)
    assert model.tunneling(p, 3, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_real_space_hamiltonian_hermitian_and_periodic_bond():
    p = ModelParams()
    h = model.real_space_hamiltonian(p, 12.3)
    check_hermitian(h)
    assert h[44, 0] == pytest.approx(-1.0)  # ring-closing bond


def test_translation_by_q_leaves_hamiltonian_invariant():
    p = ModelParams()
    h = model.real_space_hamiltonian(p, 55.5)
    n, q = p.n_sites, p.q
    shift = np.zeros((n, n))
    shift[np.arange(n), (np.arange(n) + q) % n] = 1.0
    np.testing.assert_allclose(shift @ h @ shift.T, h, atol=1e-12)


def test_time_periodicity():
    p = ModelParams()
    for t in (0.0, 17.7):
        np.testing.assert_allclose(
            model.real_space_hamiltonian(p, t + p.period),
            model.real_space_hamiltonian(p, t), atol=1e-12)


@pytest.mark.parametrize("mode", [TunnelingMode.UNIFORM, TunnelingMode.SINE_MODULATED])
def test_spectrum_equivalence(mode):
    # sorted dense eigenvalues match the union of Bloch eigenvalues
    p = ModelParams(tunneling_mode=mode)
    ks = model.k_grid(p)
    for t in (0.0, 111.1, 399.9):
        dense = np.sort(np.linalg.eigvalsh(model.real_space_hamiltonian(p, t)))
        union = np.sort(np.linalg.eigvalsh(model.bloch_blocks(p, ks, t)).ravel())
        np.testing.assert_allclose(dense, union, atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), q=st.integers(2, 6), phi0=st.floats(-np.pi, np.pi),
       ratio=st.floats(0.01, 2.0), mode=st.sampled_from(TunnelingMode),
       t=st.floats(0.0, 700.0))
def test_spectrum_equivalence_random_models(data, q, phi0, ratio, mode, t):
    p_num = data.draw(st.integers(1, q - 1).filter(lambda n: math.gcd(n, q) == 1))
    p = ModelParams(J=ratio * 10.0, V0=10.0, p=p_num, q=q, phi0=phi0, L=5,
                    tunneling_mode=mode)
    h = model.real_space_hamiltonian(p, t)
    dense = np.sort(np.linalg.eigvalsh(h))
    union = np.sort(np.linalg.eigvalsh(model.bloch_blocks(p, model.k_grid(p), t)).ravel())
    np.testing.assert_allclose(dense, union, rtol=0, atol=1e-10)
    # the table evaluates its formulas at s = 1..q, the reference at j = 1..N,
    # so the two rings agree to rounding of the phase, not bit for bit
    ring = model.ring_from_table(model.hopping_table(p, [t]), p.L)[0]
    np.testing.assert_allclose(ring, h, rtol=0, atol=1e-12)


def test_bloch_dimension_and_grid_rejection():
    p = ModelParams()
    ks = model.k_grid(p)
    assert len(ks) == p.L
    assert np.all(ks > -np.pi / p.q) and np.all(ks <= np.pi / p.q)
    h = model.bloch_blocks(p, ks[3:4], 0.0)[0]
    assert h.shape == (3, 3)
    check_hermitian(h)


def test_bloch_gauge_periodicity():
    # in the cell gauge the blocks at k and k + 2*pi/q coincide (the
    # relating diagonal unitary is the identity); the site-phase periodic
    # parts pick up the wrap phases instead
    p = ModelParams()
    ks = model.k_grid(p)
    k = ks[2]
    t = 7.0
    h1 = model.bloch_blocks(p, np.array([k]), t)[0]
    h2 = model.bloch_blocks(p, np.array([k + 2 * np.pi / p.q]), t)[0]
    np.testing.assert_allclose(h1, h2, atol=1e-12)
    # the wrap phases define an eigenvector of the shifted problem in the
    # site-phase gauge: verify via the dense eigenproblem
    evals, vecs = np.linalg.eigh(h1)
    u = model.cell_to_site_gauge(p, k, vecs[:, 2])
    u_wrap = u * model.bz_wrap_phases(p)
    h = model.real_space_hamiltonian(p, t)
    j = np.arange(1, p.n_sites + 1)
    psi = np.exp(1j * (k + 2 * np.pi / p.q) * j) * u_wrap[(j - 1) % p.q] / np.sqrt(p.L)
    np.testing.assert_allclose(h @ psi, evals[2] * psi, atol=1e-10)


def test_bloch_ansatz_solves_dense_problem():
    p = ModelParams()
    ks = model.k_grid(p)
    t = 0.3
    blocks = model.bloch_blocks(p, ks, t)
    evals, vecs = np.linalg.eigh(blocks)
    u = model.cell_to_site_gauge(p, ks[:, None], np.transpose(vecs, (0, 2, 1)))
    h = model.real_space_hamiltonian(p, t)
    j = np.arange(1, p.n_sites + 1)
    for n in (0, 4, 9):
        for m in range(p.q):
            psi = np.exp(1j * ks[n] * j) * u[n, m][(j - 1) % p.q] / np.sqrt(p.L)
            np.testing.assert_allclose(h @ psi, evals[n, m] * psi, atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(q=st.integers(2, 5), L=st.integers(3, 20), seed=st.integers(0, 2**32 - 1))
@example(q=3, L=4, seed=0)  # even L: the zone edge k = pi/q is on the grid
def test_site_to_momentum_map(q, L, seed):
    # the one cell-axis DFT against the dense Bloch frame, which names each
    # grid momentum's row
    p = ModelParams(q=q, L=L)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, L, q)) + 1j * rng.normal(size=(2, L, q))
    y = model._to_momenta(x)
    np.testing.assert_allclose(model._from_momenta(y), x, rtol=0, atol=1e-14)
    literal = np.einsum("jns,ij->ins", np.conj(bloch_frame(p)), x.reshape(2, -1))
    np.testing.assert_allclose(y / np.sqrt(L), literal, rtol=0, atol=1e-13)


def _hermitian_stack(rng, d, batch, kind, zeroed):
    """A Hermitian (d, d, *batch) stack of the given kind: complex or real with
    couplings zeroed at the rate `zeroed`, diagonal with repeated entries, or
    a random unitary frame of a spectrum with repeated eigenvalues."""
    shape = batch + (d, d)
    if kind == "degenerate":
        z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        frame = np.linalg.qr(z)[0]
        levels = rng.choice([-1.0, 0.0, 2.0], size=batch + (d,))
        h = (frame * levels[..., None, :]) @ np.conj(np.swapaxes(frame, -1, -2))
        h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    elif kind == "diagonal":
        h = np.zeros(shape, dtype=complex)
        h[..., np.arange(d), np.arange(d)] = rng.choice([-1.0, 0.0, 2.0], size=batch + (d,))
    else:
        a = rng.normal(size=shape) + (1j * rng.normal(size=shape) if kind == "complex" else 0j)
        a = np.triu(np.where(rng.random(shape) >= zeroed, a, 0), 1)
        h = a + np.conj(np.swapaxes(a, -1, -2))
        h[..., np.arange(d), np.arange(d)] = rng.normal(size=batch + (d,))
    return np.moveaxis(h, (-2, -1), (0, 1)).copy()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), batch=st.tuples(st.integers(1, 4), st.integers(1, 3)),
       seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0),
       kind=st.sampled_from(["complex", "real", "diagonal", "degenerate"]),
       zeroed=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
def test_hermitian_eigh_is_one_real_eigh(d, batch, seed, scale, kind, zeroed):
    # zeroed couplings give zero columns and zero subdiagonals, which take no
    # reflection and the phase 1
    h = scale * _hermitian_stack(np.random.default_rng(seed), d, batch, kind, zeroed)
    ml = np.moveaxis(h, (0, 1), (-2, -1))
    expected = np.linalg.eigvalsh(ml)
    norm = np.max(np.abs(expected))
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append((np.isrealobj(a), math.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kwargs)

    buffer = h.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigh", counting_eigh)
        evals, vecs = model._hermitian_eigh(buffer)
    assert calls == [(True, math.prod(batch))]
    assert vecs is buffer
    np.testing.assert_allclose(evals, expected, rtol=0, atol=1e-13 * norm)
    v = np.moveaxis(vecs, (0, 1), (-2, -1))
    v_dagger = np.conj(np.swapaxes(v, -1, -2))
    np.testing.assert_allclose(v_dagger @ v, np.broadcast_to(np.eye(d), v.shape),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose((v * evals[..., None, :]) @ v_dagger, ml, rtol=0,
                               atol=1e-13 * norm)
