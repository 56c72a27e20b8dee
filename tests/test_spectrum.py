import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aah_pump import dynamics, model, spectrum
from aah_pump.model import ModelParams, TunnelingMode


def test_three_bands_orthonormal(bands_topology):
    assert bands_topology.n_bands == 3
    u = bands_topology.states  # (q, L, M, q)
    gram = np.einsum("mkts,nkts->ktmn", np.conj(u), u)
    eye = np.broadcast_to(np.eye(3), gram.shape)
    assert np.max(np.abs(gram - eye)) < 1e-10


def test_energies_sorted_and_gapped(bands_topology):
    e = bands_topology.energies
    assert np.all(e[1:] >= e[:-1])
    # strong diagonal modulation: bands well separated
    assert bands_topology.min_gap() > 1.0


def test_decoupled_sites_flat_bands():
    p = ModelParams(J=0.0, phi0=0.4)
    bands = spectrum.solve_bands(p, np.array([0.0]))
    e = bands.energies[:, :, 0]
    assert np.max(np.ptp(e, axis=1)) < 1e-12  # k-independent
    onsite = np.sort([model.onsite_energy(p, s, 0.0) for s in (1, 2, 3)])
    np.testing.assert_allclose(np.sort(e[:, 0]), onsite, atol=1e-12)


def test_band_touching_raises():
    # with J = 0 the on-site levels cross during the cycle
    p = ModelParams(J=0.0)
    grid = spectrum.default_topology_grid(p, 240)
    with pytest.raises(spectrum.BandTouchingError):
        spectrum.solve_bands(p, grid)


@pytest.mark.parametrize("n_t", [0, -1])
def test_topology_grid_needs_an_interval(n_t):
    # n_t = 0 would give a single time, which covers no period, and n_t = -1
    # no time at all
    with pytest.raises(ValueError, match="n_t"):
        spectrum.default_topology_grid(ModelParams(), n_t)


def test_chern_refuses_band_closing_between_grid_points():
    # for even q the two middle bands of the uniform chain touch at Dirac
    # points, which the grid misses; the lattice sum still returns integers
    p = ModelParams(q=6, L=15)
    bands = spectrum.solve_bands(p, spectrum.default_topology_grid(p, 240))
    assert spectrum.chern_number(bands, 0) == -1
    with pytest.raises(spectrum.BandTouchingError, match="band 2 plaquette"):
        spectrum.chern_number(bands, 2)


@pytest.mark.parametrize("fixture", ["bands_topology", "bands_topology_sine"])
def test_chern_numbers(fixture, request):
    bands = request.getfixturevalue(fixture)
    cherns = [spectrum.chern_number(bands, m) for m in range(3)]
    assert cherns == [-1, 2, -1]
    assert sum(cherns) == 0


def test_chern_stable_under_refinement():
    for mode in (TunnelingMode.UNIFORM, TunnelingMode.SINE_MODULATED):
        p = ModelParams(L=30, tunneling_mode=mode)
        bands = spectrum.solve_bands(p, spectrum.default_topology_grid(p, 480))
        assert [spectrum.chern_number(bands, m) for m in range(3)] == [-1, 2, -1]


def test_curvature_sums_to_chern(bands_topology):
    for m in range(3):
        c = spectrum.chern_number(bands_topology, m)
        total = np.sum(spectrum.berry_curvature_grid(bands_topology, m))
        assert total / (2 * np.pi) == pytest.approx(c, abs=1e-9)


def test_chern_gauge_independence(bands_topology):
    rng = np.random.default_rng(7)
    scrambled = spectrum.BandSolution(
        params=bands_topology.params,
        k_grid=bands_topology.k_grid,
        t_grid=bands_topology.t_grid,
        energies=bands_topology.energies,
        states=bands_topology.states
        * np.exp(2j * np.pi * rng.random(bands_topology.states.shape[:-1]))[..., None],
    )
    for m in range(3):
        assert spectrum.chern_number(scrambled, m) == spectrum.chern_number(bands_topology, m)


@pytest.mark.parametrize("band", [-1, 3])
@pytest.mark.parametrize("entry", [spectrum.chern_number, spectrum.berry_curvature_grid])
def test_band_off_range_is_rejected(bands_topology, entry, band):
    # unchecked, band -1 would give the top band's curvature and Chern number
    # under the label -1, and band 3 end in an IndexError
    with pytest.raises(ValueError, match="band must lie in 0..2"):
        entry(bands_topology, band)


def test_chern_requires_full_torus(paper_params):
    bands = spectrum.solve_bands(paper_params, np.linspace(0, paper_params.period / 2, 33))
    with pytest.raises(ValueError):
        spectrum.chern_number(bands, 0)


def test_chern_refuses_a_grid_that_runs_backwards(paper_params):
    # the ends span one period, but the interior runs from T back to 0, so
    # the lattice sum would read [1, -2, 1]
    T = paper_params.period
    grid = np.concatenate([[0.0], T - T / 240 * np.arange(1, 240), [T]])
    bands = spectrum.solve_bands(paper_params, grid)
    assert bands.period_copies() == 0
    with pytest.raises(ValueError, match="strictly increasing"):
        spectrum.chern_number(bands, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        dynamics.accumulate_phases(bands, 2)


@pytest.mark.parametrize("grid", [[0.0, np.nan], [np.inf, 1.0], np.zeros((2, 3)), []],
                         ids=["nan", "inf", "2-D", "empty"])
def test_solve_bands_rejects_bad_grids(paper_params, grid):
    with pytest.raises(ValueError, match="t_grid"):
        spectrum.solve_bands(paper_params, np.asarray(grid))


def test_flatness_nonnegative_and_flat_limit():
    p = ModelParams()
    report = spectrum.flatness(
        spectrum.solve_bands(p, spectrum.default_topology_grid(p, 60)))
    assert np.all(report.ratios >= 0)
    assert np.all(report.gaps > 0)
    # widths and ratios shrink toward the decoupled-site limit
    maxima = []
    for j in (0.5, 0.05):
        pj = ModelParams(J=j)
        rep = spectrum.flatness(
            spectrum.solve_bands(pj, spectrum.default_topology_grid(pj, 60)))
        maxima.append(np.max(rep.ratios))
    assert maxima[1] < maxima[0]
    assert maxima[1] < 2e-3


def test_flatness_sine_below_uniform(bands_topology, bands_topology_sine):
    flat_u = spectrum.flatness(bands_topology)
    flat_s = spectrum.flatness(bands_topology_sine)
    assert np.all(flat_s.ratios[2] <= flat_u.ratios[2])


@st.composite
def chains(draw):
    """Chains with q = 2..6, a coprime p, odd and even L (even L puts the
    self-conjugate zone edge k = pi/q on the grid) and both modes."""
    q = draw(st.integers(2, 6))
    p = draw(st.integers(1, q - 1).filter(lambda n: math.gcd(n, q) == 1))
    return ModelParams(J=draw(st.floats(0.2, 2.0)), V0=draw(st.floats(3.0, 30.0)),
                       p=p, q=q, phi0=draw(st.floats(-np.pi, np.pi)),
                       L=draw(st.integers(3, 12)),
                       tunneling_mode=draw(st.sampled_from(TunnelingMode)))


def _per_block_bands(params, t_grid):
    """Energies (q, L, M) and site-gauge states (q, L, M, q) from one eigh per
    block on the full grid, largest-|.| component made real positive."""
    ks = model.k_grid(params)
    h = model.bloch_blocks_batch(params, ks, t_grid)
    s = np.arange(1, params.q + 1)
    energies = np.empty(h.shape[:-1])
    states = np.empty(h.shape, dtype=complex)
    for i in range(len(t_grid)):
        for n, k in enumerate(ks):
            energies[i, n], w = np.linalg.eigh(h[i, n])
            for m in range(params.q):
                u = np.exp(-1j * k * s) * w[:, m]
                anchor = u[np.argmax(np.abs(u))]
                states[i, n, m] = u * np.conj(anchor) / abs(anchor)
    return np.transpose(energies, (2, 1, 0)), np.transpose(states, (2, 1, 0, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=chains())
def test_paired_solve_matches_per_block_eigh(params):
    t_grid = spectrum.default_topology_grid(params, 8)
    try:
        bands = spectrum.solve_bands(params, t_grid)
    except spectrum.BandTouchingError:
        assume(False)
    energies, states = _per_block_bands(params, t_grid)
    scale = 1e-13 * params.V0
    np.testing.assert_allclose(bands.energies, energies, rtol=0, atol=scale)
    # eigenvector rounding grows as 1/gap; where the two largest components
    # tie, the anchor may pick either, so compare the band projector there
    mags = np.sort(np.abs(states), axis=-1)
    tied = mags[..., -1] - mags[..., -2] < 1e-9
    atol = scale / bands.min_gap()
    np.testing.assert_allclose(bands.states[~tied], states[~tied], rtol=0, atol=atol)
    overlap = np.abs(np.einsum("...s,...s->...", np.conj(bands.states), states))
    np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=atol)


def _count_solved(monkeypatch, params, grid):
    """Matrices `np.linalg.eigh` diagonalizes in one band solve on the grid."""
    solved = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solved.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    spectrum.solve_bands(params, grid)
    return sum(solved)


@pytest.mark.parametrize("L", [15, 30])
def test_solve_bands_solves_one_momentum_per_pair(monkeypatch, L):
    p = ModelParams(L=L)
    grid = spectrum.default_topology_grid(p, 40)
    assert _count_solved(monkeypatch, p, grid) == len(grid) * (L // 2 + 1)


def _moved(grid, i, dt):
    grid = grid.copy()
    grid[i] += dt
    return grid


# 40 intervals, not a multiple of q, solve every point: the test above
@pytest.mark.parametrize("L", [15, 30])
@pytest.mark.parametrize("grid, solved", [
    (np.linspace(0.0, 2 * np.pi / 0.01, 43), 14),  # a whole-period grid: its first q-th
    (np.linspace(0.0, 2 * np.pi / 0.01, 43)[:15], 14),  # its first q-th, a strip
    (np.linspace(0.0, 2 * np.pi / 0.01, 43)[:29], 14),  # its first two q-ths
    (_moved(np.linspace(0.0, 2 * np.pi / 0.01, 43), 20, 1e-6), 43),
    (np.linspace(0.0, 4 * np.pi / 0.01, 43), 43),  # two periods
], ids=["whole-period", "one-qth", "two-qths", "moved-time", "two-periods"])
def test_solve_bands_solves_one_qth_of_a_whole_period_grid(monkeypatch, L, grid, solved):
    assert _count_solved(monkeypatch, ModelParams(L=L), grid) == solved * (L // 2 + 1)


@pytest.mark.parametrize("params", [ModelParams(),
                                    ModelParams(J=1.0, V0=10.0, p=2, q=5, phi0=0.3, L=8)],
                         ids=["paper", "q5-p2"])
def test_strip_closes_at_the_rolled_first_time(params):
    # the strip's last time is the chain translated by p^-1 mod q sites
    strip = spectrum.default_topology_grid(params, 10 * params.q)[:11]
    bands = spectrum.solve_bands(params, strip)
    assert bands.period_copies() == params.q
    np.testing.assert_array_equal(bands.energies[:, :, -1], bands.energies[:, :, 0])
    np.testing.assert_array_equal(
        bands.states[:, :, -1],
        np.roll(bands.states[:, :, 0], -model._translation(params, 1), axis=-1))


def _solve_every_point(params, t_grid):
    """`solve_bands` on t_grid, split so that no part is a whole-period grid."""
    head, tail = (spectrum.solve_bands(params, part) for part in (t_grid[:1], t_grid[1:]))
    return spectrum.BandSolution(
        params=params, k_grid=head.k_grid, t_grid=t_grid,
        energies=np.concatenate([head.energies, tail.energies], axis=2),
        states=np.concatenate([head.states, tail.states], axis=2))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=chains(), start=st.floats(0.0, 1.0, exclude_max=True))
# p = 2 at q = 5: p^-1 = 3 differs from p, which no q below 5 shows
@example(params=ModelParams(J=1.0, V0=10.0, p=2, q=5, phi0=0.3, L=7), start=0.4)
def test_qth_solve_matches_a_solve_of_every_point(params, start):
    q, L, T = params.q, params.L, params.period
    nq = 1200 // q  # fine enough that most draws resolve the phases
    t_grid = start * T + np.linspace(0.0, T, q * nq + 1)
    try:
        bands = spectrum.solve_bands(params, t_grid)
        ref = _solve_every_point(params, t_grid)
    except spectrum.BandTouchingError:
        assume(False)
    # the first q-th was solved and copied: every later q-th repeats its energies
    np.testing.assert_array_equal(bands.energies[:, :, nq:-1].reshape(q, L, q - 1, nq),
                                  np.repeat(bands.energies[:, :, None, :nq], q - 1, axis=2))
    scale = 1e-13 * abs(params.V0)
    np.testing.assert_allclose(bands.energies, ref.energies, rtol=0, atol=scale)
    projector = lambda u: u[..., :, None] * np.conj(u[..., None, :])  # noqa: E731
    np.testing.assert_allclose(projector(bands.states), projector(ref.states), rtol=0,
                               atol=scale / ref.min_gap())
    # the Chern numbers and the phases where the grid resolves them
    try:
        cherns = [spectrum.chern_number(ref, m) for m in range(q)]
    except spectrum.BandTouchingError:
        return
    assert [spectrum.chern_number(bands, m) for m in range(q)] == cherns
    try:
        ref_phases = dynamics.accumulate_phases(ref, q - 1)
    except dynamics.GaugeContinuityError:
        return
    phases = dynamics.accumulate_phases(bands, q - 1)
    _assert_same_phases(phases, ref_phases, params)


def _assert_same_phases(phases, ref_phases, params):
    """The tolerances of the q-th solve: gamma_b mod 2*pi and X_b to 1e-10,
    gamma_d and X_d to 1e-14 * |V0| * T, and L times that."""
    # gamma_b is unwrapped along k from a principal value, so compare it mod 2*pi
    np.testing.assert_allclose(np.angle(np.exp(1j * (phases.gamma_b - ref_phases.gamma_b))),
                               0.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(phases.x_b, ref_phases.x_b, rtol=0, atol=1e-10)
    scale_d = 1e-14 * abs(params.V0) * params.period
    np.testing.assert_allclose(phases.gamma_d, ref_phases.gamma_d, rtol=0, atol=scale_d)
    np.testing.assert_allclose(phases.x_d, ref_phases.x_d, rtol=0, atol=scale_d * params.L)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=chains(), start=st.floats(0.0, 1.0, exclude_max=True))
@example(params=ModelParams(J=1.0, V0=10.0, p=2, q=5, phi0=0.3, L=7), start=0.4)
def test_strip_matches_a_whole_period_solve(params, start):
    q, T = params.q, params.period
    nq = 1200 // q
    t_grid = start * T + np.linspace(0.0, T, q * nq + 1)
    try:
        whole = spectrum.solve_bands(params, t_grid)
    except spectrum.BandTouchingError:
        assume(False)
    strip = spectrum.solve_bands(params, t_grid[:nq + 1])
    # the strip is the whole-period solve's first q-th, closing time included
    np.testing.assert_array_equal(strip.energies, whole.energies[:, :, :nq + 1])
    np.testing.assert_array_equal(strip.states, whole.states[:, :, :nq + 1])
    try:
        cherns = [spectrum.chern_number(whole, m) for m in range(q)]
    except spectrum.BandTouchingError:
        # the strip holds the same plaquettes, so it refuses the same band
        with pytest.raises(spectrum.BandTouchingError):
            [spectrum.chern_number(strip, m) for m in range(q)]
        return
    assert [spectrum.chern_number(strip, m) for m in range(q)] == cherns
    try:
        ref_phases = dynamics.accumulate_phases(whole, q - 1)
    except dynamics.GaugeContinuityError:
        return
    phases = dynamics.accumulate_phases(strip, q - 1)
    _assert_same_phases(phases, ref_phases, params)
    # the loop closes at the image of the first time, so a strip whose last
    # time was solved on its own, in another gauge, has the same gamma_b
    end = spectrum.solve_bands(params, t_grid[nq:nq + 1])
    rng = np.random.default_rng(5)
    states = strip.states.copy()
    gauge = np.exp(2j * np.pi * rng.random(end.states.shape[:2]))
    states[:, :, -1] = end.states[:, :, 0] * gauge[..., None]
    resolved = dataclasses.replace(strip, states=states)
    np.testing.assert_array_equal(dynamics.accumulate_phases(resolved, q - 1).gamma_b,
                                  phases.gamma_b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(params=chains())
def test_chern_numbers_sum_to_zero(params):
    try:
        bands = spectrum.solve_bands(params, spectrum.default_topology_grid(params, 60))
        cherns = [spectrum.chern_number(bands, m) for m in range(params.q)]
    except spectrum.BandTouchingError:
        assume(False)
    assert sum(cherns) == 0
