import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from aah_pump import spectrum, wannier
from aah_pump.model import ModelParams, TunnelingMode
from oracles import berry_connection_mean


def test_wannier_normalized_and_orthogonal(bands_t0):
    theta = wannier.mlws_gauge(bands_t0, 2)
    w9 = wannier.wannier_from_bloch(bands_t0, 2, 9, theta)
    w7 = wannier.wannier_from_bloch(bands_t0, 2, 7, theta)
    assert np.linalg.norm(w9.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(w9.amplitudes, w7.amplitudes)) < 1e-12


def test_wannier_translation_property(bands_t0):
    theta = wannier.mlws_gauge(bands_t0, 2)
    w8 = wannier.wannier_from_bloch(bands_t0, 2, 8, theta)
    w9 = wannier.wannier_from_bloch(bands_t0, 2, 9, theta)
    np.testing.assert_allclose(
        np.roll(w8.amplitudes, bands_t0.params.q), w9.amplitudes, atol=1e-10)


def test_decoupled_limit_single_site_delta():
    p = ModelParams(J=0.0, phi0=0.3)
    bands = spectrum.solve_bands(p, np.array([0.0]))
    # at phi0=0.3 the energy order is (A, B, C) = bands (0, 1, 2)
    for m, sub in ((0, 1), (1, 2), (2, 3)):
        state, report, _ = wannier.maximally_localize(bands, m, cell=5)
        site = p.q * 4 + sub
        assert np.abs(state.amplitudes[site - 1]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert report.omega == pytest.approx(0.0, abs=1e-12)
        assert report.center == pytest.approx(site, abs=1e-9)


def test_mlws_site_projection_paper_value(mlws9):
    # the highest-band maximally localized state at cell 9 is 99.9% on site 27
    state, _, _ = mlws9
    assert np.abs(state.amplitudes[26]) ** 2 == pytest.approx(0.999, abs=5e-4)


def test_mlws_spread_properties(mlws9):
    state, report, theta = mlws9
    assert report.omega_D <= 1e-8
    assert report.omega == pytest.approx(report.omega_I + report.omega_D, abs=1e-9)
    assert report.center == pytest.approx(27.0, abs=1e-6)


def test_mlws_uniform_connection(bands_t0, mlws9):
    _, _, theta = mlws9
    u = bands_t0.states[2, :, 0, :] * np.exp(1j * theta)[:, None]
    links = wannier._link_overlaps(bands_t0.params, u)
    phases = np.angle(links)
    assert np.ptp(phases) < 1e-10  # k-uniform discrete Berry connection


def test_mean_position_identity(bands_t0, mlws9):
    # <X> = q(R-1) + mean Berry connection, evaluated from link phases
    state, report, theta = mlws9
    p = bands_t0.params
    u = bands_t0.states[2, :, 0, :] * np.exp(1j * theta)[:, None]
    rhs = p.q * (9 - 1) + berry_connection_mean(p, u)
    assert report.center == pytest.approx(rhs, abs=1e-8)


def test_mlws_invariant_under_input_rephasing(bands_t0, mlws9):
    _, report, _ = mlws9
    rng = np.random.default_rng(3)
    scrambled = spectrum.BandSolution(
        params=bands_t0.params,
        k_grid=bands_t0.k_grid,
        t_grid=bands_t0.t_grid,
        energies=bands_t0.energies,
        states=bands_t0.states
        * np.exp(2j * np.pi * rng.random(bands_t0.states.shape[:-1]))[..., None],
    )
    _, report2, _ = wannier.maximally_localize(scrambled, 2, cell=9)
    assert report2.omega == pytest.approx(report.omega, abs=1e-10)


def test_random_gauge_raises_spread(bands_t0, mlws9):
    # a non-optimized gauge has strictly positive Omega_D, and the optimized
    # spread equals the gauge-invariant part computed by the literal sums
    _, report, theta = mlws9
    rng = np.random.default_rng(11)
    noisy = theta + 0.5 * rng.standard_normal(len(theta))
    state = wannier.wannier_from_bloch(bands_t0, 2, 9, noisy)
    thetas = np.array([wannier.mlws_gauge(bands_t0, m) for m in range(3)])
    thetas[2] = noisy
    basis = wannier.wannier_basis(bands_t0, thetas=thetas)
    noisy_report = wannier.spread_decomposition(state, basis)
    assert noisy_report.omega_D > 1e-4
    assert noisy_report.omega > report.omega
    assert report.omega == pytest.approx(report.omega_I, abs=1e-8)


def test_omega_identity_for_random_gauge(bands_t0):
    theta = wannier.mlws_gauge(bands_t0, 1)
    rng = np.random.default_rng(5)
    noisy = theta + rng.standard_normal(len(theta))
    state = wannier.wannier_from_bloch(bands_t0, 1, 8, noisy)
    thetas = np.array([wannier.mlws_gauge(bands_t0, m) for m in range(3)])
    thetas[1] = noisy
    basis = wannier.wannier_basis(bands_t0, thetas=thetas)
    report = wannier.spread_decomposition(state, basis)
    assert report.omega == pytest.approx(report.omega_I + report.omega_D, abs=1e-9)


def test_omega_i_gauge_invariant(bands_t0, mlws9):
    # re-phasing band m leaves the inter-band spread unchanged: exactly for
    # constant offsets and whole-cell relabelings, and to high accuracy for
    # smooth phase profiles such as the ones a pump cycle applies
    _, report, theta = mlws9
    k = bands_t0.k_grid
    q = bands_t0.params.q
    profiles = {
        "constant": 0.7 + 0.0 * k,
        "relabel": -k * q,
        "smooth": 0.2 * np.cos(2 * k * q) + 0.1 * np.sin(k * q),
    }
    for label, extra in profiles.items():
        state = wannier.wannier_from_bloch(bands_t0, 2, 9, theta + extra)
        thetas = np.array([wannier.mlws_gauge(bands_t0, m) for m in range(3)])
        thetas[2] = theta + extra
        basis = wannier.wannier_basis(bands_t0, thetas=thetas)
        rep = wannier.spread_decomposition(state, basis)
        tol = 1e-10 if label != "smooth" else 1e-3 * report.omega_I
        assert rep.omega_I == pytest.approx(report.omega_I, abs=tol), label


def test_basis_orthonormal(bands_t0):
    basis = wannier.wannier_basis(bands_t0)
    flat = basis.reshape(45, 45)
    np.testing.assert_allclose(flat @ flat.conj().T, np.eye(45), atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), q=st.integers(2, 6), phi0=st.floats(-np.pi, np.pi),
       ratio=st.floats(0.01, 2.0), mode=st.sampled_from(TunnelingMode),
       t=st.floats(0.0, 700.0), L=st.integers(3, 20))
def test_wannier_basis_random_models(data, q, phi0, ratio, mode, t, L):
    p_num = data.draw(st.integers(1, q - 1).filter(lambda n: math.gcd(n, q) == 1))
    p = ModelParams(J=ratio * 10.0, V0=10.0, p=p_num, q=q, phi0=phi0, L=L,
                    tunneling_mode=mode)
    try:
        bands = spectrum.solve_bands(p, np.array([t]))
    except spectrum.BandTouchingError:
        assume(False)
    basis = wannier.wannier_basis(bands)
    flat = basis.reshape(p.n_sites, p.n_sites)
    np.testing.assert_allclose(flat @ flat.conj().T, np.eye(p.n_sites), rtol=0, atol=1e-10)
    # the literal per-cell sum of the module docstring
    j = np.arange(1, p.n_sites + 1)
    for m in range(q):
        theta = wannier.mlws_gauge(bands, m)
        u = bands.states[m, :, 0, :]
        for cell in (1, L):
            literal = sum(
                np.exp(1j * k * (j - q * (cell - 1))) * np.exp(1j * theta[n]) * u[n, (j - 1) % q]
                for n, k in enumerate(bands.k_grid)
            ) / L
            np.testing.assert_allclose(basis[m, cell - 1], literal, rtol=0, atol=1e-12)
    m = data.draw(st.integers(0, q - 1))
    cell = data.draw(st.integers(1, L))
    state, _, theta = wannier.maximally_localize(bands, m, cell)
    rebuilt = wannier.wannier_from_bloch(bands, m, cell, theta)
    np.testing.assert_allclose(state.amplitudes, rebuilt.amplitudes, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(q=st.integers(2, 6), L=st.integers(3, 12), phi0=st.floats(-np.pi, np.pi),
       t=st.floats(1.0, 700.0), seed=st.integers(0, 2**32 - 1))
def test_transform_matches_literal_sum(q, L, phi0, t, seed):
    # every cell of wannier_from_bloch and wannier_basis against the module
    # docstring's sum, in random non-smooth gauges at a time t > 0
    p = ModelParams(q=q, p=1, L=L, phi0=phi0)
    try:
        bands = spectrum.solve_bands(p, np.array([t]))
    except spectrum.BandTouchingError:
        assume(False)
    thetas = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(q, L))
    j = np.arange(1, p.n_sites + 1)
    cells = np.arange(1, L + 1)
    # phase[R-1, n, j-1] = e^{ik_n(j - q(R-1))}
    phase = np.exp(1j * bands.k_grid[None, :, None]
                   * (j[None, None, :] - q * (cells[:, None, None] - 1)))
    basis = wannier.wannier_basis(bands, thetas)
    for m in range(q):
        u = bands.states[m, :, 0, :][:, (j - 1) % q]  # u_{m,s(j)}(k_n), (L, N)
        literal = np.einsum("rnj,n,nj->rj", phase, np.exp(1j * thetas[m]), u) / L
        np.testing.assert_allclose(basis[m], literal, rtol=0, atol=1e-12)
        for cell in cells:
            state = wannier.wannier_from_bloch(bands, m, cell, thetas[m])
            np.testing.assert_allclose(state.amplitudes, literal[cell - 1], rtol=0, atol=1e-12)


def test_wannier_from_bloch_rejects_cell_off_ring(bands_t0):
    for cell in (0, bands_t0.params.L + 1):
        with pytest.raises(ValueError):
            wannier.wannier_from_bloch(bands_t0, 2, cell)


@pytest.mark.parametrize("band, cell", [(3, 9), (-1, 9), (2, 0), (2, 16)])
def test_maximally_localize_rejects_band_or_cell_off_range(bands_t0, band, cell):
    # unchecked, cell 0 would index cell 15's state and band -1 the top band
    with pytest.raises(ValueError, match="must lie in"):
        wannier.maximally_localize(bands_t0, band, cell)


@pytest.mark.parametrize("band", [-1, 3])
@pytest.mark.parametrize("entry", [
    lambda bands, m: wannier.wannier_from_bloch(bands, m, 9),
    lambda bands, m: wannier.mlws_gauge(bands, m),
], ids=["wannier_from_bloch", "mlws_gauge"])
def test_band_off_range_is_rejected(bands_t0, entry, band):
    # unchecked, band -1 would give the top band under the label -1; the
    # same check of maximally_localize and accumulate_phases is tested beside
    # their other input checks
    with pytest.raises(ValueError, match="band must lie in 0..2"):
        entry(bands_t0, band)


def test_spread_audit_runs_on_every_call(bands_t0, monkeypatch):
    audits = []
    audit = wannier.spread_decomposition

    def counted(state, basis):
        audits.append((state, basis))
        return audit(state, basis)

    monkeypatch.setattr(wannier, "spread_decomposition", counted)
    p = bands_t0.params
    for m, cell in ((2, 9), (0, 1), (1, p.L)):
        state, _, _ = wannier.maximally_localize(bands_t0, m, cell)
        assert len(audits) == 1
        audited, basis = audits.pop()
        assert audited is state
        assert basis.shape == (p.q, p.L, p.n_sites)
        flat = basis.reshape(p.n_sites, p.n_sites)
        np.testing.assert_allclose(flat @ flat.conj().T, np.eye(p.n_sites), atol=1e-10)
        assert np.array_equal(basis[m, cell - 1], state.amplitudes)


def test_vanishing_link_raises_band_touching(bands_t0):
    # band 2's u at one momentum is replaced by the unit vector orthogonal to
    # both of its neighbors, so the two links around it vanish
    states = bands_t0.states.copy()
    u = states[2, :, 0, :]
    v = np.conj(np.cross(u[3], u[5]))
    states[2, 4, 0, :] = v / np.linalg.norm(v)
    broken = dataclasses.replace(bands_t0, states=states)
    with pytest.raises(spectrum.BandTouchingError):
        wannier.parallel_transport_gauge(broken.params, states[2, :, 0, :])
    with pytest.raises(spectrum.BandTouchingError):
        wannier.maximally_localize(broken, 2, cell=9)


def test_spread_accurate_far_from_the_origin():
    # at cell L = 120 the centre is near site 360, so <X^2> - <X>^2 would
    # lose up to 7e-10 of Omega ~ 4e-4 to cancellation
    p = ModelParams(L=120, tunneling_mode=TunnelingMode.SINE_MODULATED)
    bands = spectrum.solve_bands(p, np.array([0.0]))
    basis = wannier.wannier_basis(bands)
    j = np.arange(1, p.n_sites + 1, dtype=np.longdouble)
    for cell in (p.L - 2, p.L - 1, p.L):
        w = basis[2, cell - 1]
        report = wannier.spread_decomposition(
            wannier.WannierState(amplitudes=w, band=2, cell=cell), basis)
        density = np.abs(w).astype(np.longdouble) ** 2
        center = np.sum(density * j)
        exact = float(np.sum(density * (j - center) ** 2))
        assert report.omega == pytest.approx(exact, rel=0, abs=1e-13)


def test_spread_rejects_foreign_state(bands_t0):
    basis = wannier.wannier_basis(bands_t0)
    rogue = np.zeros(45, dtype=complex)
    rogue[0] = 1.0
    with pytest.raises(ValueError):
        wannier.spread_decomposition(
            wannier.WannierState(amplitudes=rogue, band=2, cell=9), basis)


def test_spread_rejects_incomplete_basis(bands_t0, mlws9):
    state, _, _ = mlws9
    basis = wannier.wannier_basis(bands_t0)
    with pytest.raises(ValueError):
        wannier.spread_decomposition(state, basis[:2])


def _translates(cell1: np.ndarray) -> np.ndarray:
    """A (q, L, N) basis whose cell-R members are the cell-1 states (q, N)
    moved by q(R-1) sites, laid out as `wannier.wannier_basis` does."""
    q = len(cell1)
    L = cell1.shape[-1] // q
    return np.stack([np.roll(cell1, q * r, axis=-1) for r in range(L)], axis=1)


def _full_gram_deviation(basis: np.ndarray) -> float:
    n = basis.shape[-1]
    flat = basis.reshape(n, n)
    return float(np.max(np.abs(flat @ flat.conj().T - np.eye(n))))


def test_paper_basis_is_its_cell_one_translates(bands_t0):
    basis = wannier.wannier_basis(bands_t0)
    assert np.array_equal(_translates(basis[:, 0]), basis)


@pytest.mark.parametrize("scale, accepted", [(1 + 2e-10, False), (1 + 2e-11, True)])
def test_spread_orthonormality_bound_matches_full_gram(bands_t0, scale, accepted):
    # the diagonal moves by about 2*(scale - 1): 4e-10 is past the 1e-10
    # bound and 4e-11 inside it, by the full N x N Gram product as well
    scaled = wannier.wannier_basis(bands_t0) * scale
    assert (_full_gram_deviation(scaled) <= 1e-10) is accepted
    state = wannier.WannierState(amplitudes=scaled[2, 8], band=2, cell=9)
    if accepted:
        wannier.spread_decomposition(state, scaled)
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            wannier.spread_decomposition(state, scaled)


def test_spread_rejects_translates_that_are_not_orthonormal(bands_t0):
    # band 1's cell-1 state mixed with band 0's: still unit norm and a set of
    # translates, but no longer orthogonal to band 0
    cell1 = wannier.wannier_basis(bands_t0)[:, 0].copy()
    mixed = cell1[1] + 0.1 * cell1[0]
    cell1[1] = mixed / np.linalg.norm(mixed)
    basis = _translates(cell1)
    assert _full_gram_deviation(basis) > 1e-10
    state = wannier.WannierState(amplitudes=basis[2, 8], band=2, cell=9)
    with pytest.raises(ValueError, match="not orthonormal"):
        wannier.spread_decomposition(state, basis)


def test_spread_rejects_basis_that_is_not_translates(bands_t0):
    # one ulp off in one entry of band 1's cell-5 member: orthonormal to
    # rounding, but its Gram matrix is no longer block-circulant
    basis = wannier.wannier_basis(bands_t0)
    z = basis[1, 4, 10]
    basis[1, 4, 10] = complex(np.nextafter(z.real, np.inf), z.imag)
    assert _full_gram_deviation(basis) <= 1e-10
    state = wannier.WannierState(amplitudes=basis[2, 8], band=2, cell=9)
    with pytest.raises(ValueError, match="not a set of cell translates"):
        wannier.spread_decomposition(state, basis)


def test_spread_audit_allocates_less_than_one_gram_matrix():
    p = ModelParams(L=120)
    bands = spectrum.solve_bands(p, np.array([0.0]))
    basis = wannier.wannier_basis(bands)
    state = wannier.WannierState(amplitudes=basis[2, 59], band=2, cell=60)
    tracemalloc.start()
    try:
        wannier.spread_decomposition(state, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.n_sites ** 2 * np.dtype(complex).itemsize  # 2.07 MB at N = 360


@pytest.mark.parametrize("band, cell, message", [
    (-1, 9, "state.band must lie in 0..2"),
    (3, 9, "state.band must lie in 0..2"),
    (2, 0, "state.cell must lie in 1..15"),
    (2, 16, "state.cell must lie in 1..15"),
    (-1, 0, "state.band must lie in 0..2"),
])
def test_spread_rejects_band_or_cell_off_range(bands_t0, band, cell, message):
    # the amplitudes are the member an unchecked index would pick, so band -1
    # and cell 0 would pass the member check as band 2 and cell 15
    basis = wannier.wannier_basis(bands_t0)
    p = bands_t0.params
    amps = basis[band % p.q, (cell - 1) % p.L]
    with pytest.raises(ValueError, match=message):
        wannier.spread_decomposition(
            wannier.WannierState(amplitudes=amps, band=band, cell=cell), basis)


@pytest.mark.parametrize("shape", [(2, 15), (4, 15), (3, 14), (15,)])
def test_wannier_basis_rejects_thetas_off_shape(bands_t0, shape):
    # unchecked, two bands' thetas end in an IndexError and four are cut to three
    with pytest.raises(ValueError, match=r"thetas must .* shape \(3, 15\)"):
        wannier.wannier_basis(bands_t0, thetas=np.zeros(shape))


def test_theta_reproduces_returned_state(bands_t0, mlws9):
    state, _, theta = mlws9
    rebuilt = wannier.wannier_from_bloch(bands_t0, 2, 9, theta)
    np.testing.assert_allclose(rebuilt.amplitudes, state.amplitudes, atol=1e-12)


def test_predict_dispersion_trivial_cases():
    k = 2 * np.pi * (np.arange(15) - 7) / 45
    assert wannier.predict_dispersion(3.0 * k, k) == pytest.approx(0.0, abs=1e-12)
    assert wannier.predict_dispersion(np.zeros(15), k) == pytest.approx(0.0, abs=1e-12)


def test_predict_dispersion_rejects_wrapped_input():
    k = 2 * np.pi * (np.arange(15) - 7) / 45
    gamma = np.zeros(15)
    gamma[5] = 3.5  # jump beyond pi between neighbors
    with pytest.raises(ValueError):
        wannier.predict_dispersion(gamma, k)


@pytest.mark.parametrize("entry", [
    lambda bands: wannier.wannier_from_bloch(bands, 2, 9),
    lambda bands: wannier.mlws_gauge(bands, 2),
    lambda bands: wannier.maximally_localize(bands, 2, 9),
    wannier.wannier_basis,
], ids=["wannier_from_bloch", "mlws_gauge", "maximally_localize", "wannier_basis"])
def test_two_time_solve_is_rejected(paper_params, entry):
    # the transforms read the solve's first time; unchecked, a two-time solve
    # would silently give the states of t = 0 alone
    bands = spectrum.solve_bands(paper_params, np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="need a band solve at one time, got 2 times"):
        entry(bands)
