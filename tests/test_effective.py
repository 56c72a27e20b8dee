import numpy as np
import pytest

from aah_pump import dynamics, effective, model
from aah_pump.effective import Region
from aah_pump.model import ModelParams, TunnelingMode
from oracles import (check_hermitian, effective_cycle_hamiltonian, evolve_dense,
                     region_of_phase, sw_generic)


def _h0_and_v(params, t):
    h = model.real_space_hamiltonian(params, t)
    diag = np.real(np.diag(h)).copy()
    return diag, h - np.diag(np.diag(h))


def _sublattice_sites(params, subs):
    j = np.arange(1, params.n_sites + 1)
    keep = np.zeros(params.n_sites, dtype=bool)
    for s in subs:
        keep |= (j - 1) % params.q == s - 1
    return np.nonzero(keep)[0]


REGION_SUBSPACE = {Region.I: (1, 2), Region.II: (2, 3), Region.III: (3, 1)}
# the phase intervals of each region over one period of phi
REGION_INTERVALS = {
    Region.I: [(0.0, np.pi / 6), (5 * np.pi / 6, 7 * np.pi / 6),
               (11 * np.pi / 6, 2 * np.pi)],
    Region.II: [(np.pi / 6, np.pi / 2), (7 * np.pi / 6, 3 * np.pi / 2)],
    Region.III: [(np.pi / 2, 5 * np.pi / 6), (3 * np.pi / 2, 11 * np.pi / 6)],
}


def engine_couplings(params, t, region):
    """Extract the effective couplings of one region from the generic sums."""
    h0, v = _h0_and_v(params, t)
    sub = _sublattice_sites(params, REGION_SUBSPACE[region])
    comp = _sublattice_sites(params, tuple({1, 2, 3} - set(REGION_SUBSPACE[region])))
    h_sub = sw_generic(h0, v, sub)
    h_comp = sw_generic(h0, v, comp)
    # subspace ordering is by site index; cell 5 entries sit at offsets 8, 9
    if region is Region.I:  # pairs (A_l, B_l)
        return {
            "V_A": h_sub[8, 8].real, "V_B": h_sub[9, 9].real, "V_C": h_comp[4, 4].real,
            "j1": h_sub[8, 9].real,          # A5-B5
            "j2": h_sub[8, 7].real,          # A5-B4
            "j3_a": -h_sub[8, 10].real,      # A5-A6
            "j3_b": -h_sub[9, 11].real,      # B5-B6
            "j3_c": h_comp[4, 5].real / 2,   # C5-C6
        }
    if region is Region.II:  # pairs (B_l, C_l)
        return {
            "V_A": h_comp[4, 4].real, "V_B": h_sub[8, 8].real, "V_C": h_sub[9, 9].real,
            "j1": h_sub[8, 9].real,          # B5-C5
            "j2": h_sub[10, 9].real,         # B6-C5
            "j3_a": h_comp[4, 5].real / 2,   # A5-A6
            "j3_b": -h_sub[8, 10].real,      # B5-B6
            "j3_c": -h_sub[9, 11].real,      # C5-C6
        }
    return {  # region III, pairs (A_l, C_l); subspace order A1,C1,A2,C2,...
        "V_A": h_sub[8, 8].real, "V_B": h_comp[4, 4].real, "V_C": h_sub[9, 9].real,
        "j1": h_sub[10, 9].real,             # A6-C5
        "j2": h_sub[8, 9].real,              # A5-C5
        "j3_a": -h_sub[8, 10].real,          # A5-A6
        "j3_b": h_comp[4, 5].real / 2,       # B5-B6
        "j3_c": -h_sub[9, 11].real,          # C5-C6
    }


# The hand-derived q = 3 closed forms, the oracle for the generic route: the
# renormalized (V_A, V_B, V_C) and effective (J_1, J_2, J_3) of each region
# from the bare energies, bonds and biases.
def _region_i(va, vb, vc, j1, j2, j3, d1, d2, d3):
    return (va + j3**2 / d3, vb + j2**2 / d2, vc - j2**2 / d2 - j3**2 / d3,
            j1 - j1 * (j2**2 + j3**2) / (2 * d2 * d3),
            0.5 * j2 * j3 * (1 / d2 + 1 / d3),
            j1 * j2 * j3 / (2 * d2 * d3))


def _region_ii(va, vb, vc, j1, j2, j3, d1, d2, d3):
    return (va + j1**2 / d1 + j3**2 / d3, vb - j1**2 / d1, vc - j3**2 / d3,
            j2 - j2 * (j1**2 + j3**2) / (2 * d1 * d3),
            -0.5 * j1 * j3 * (1 / d1 + 1 / d3),
            j1 * j2 * j3 / (2 * d1 * d3))


def _region_iii(va, vb, vc, j1, j2, j3, d1, d2, d3):
    # region III chains pass through the extremal B sublattice, so both
    # third-order denominators are (E - E_B) products and the correction
    # enters with the opposite sign to regions I and II (the sign follows
    # from Delta_1*Delta_2 < 0 here)
    return (va + j1**2 / d1, vb - j1**2 / d1 + j2**2 / d2, vc - j2**2 / d2,
            j3 + j3 * (j1**2 + j2**2) / (2 * d1 * d2),
            0.5 * j1 * j2 * (1 / d1 - 1 / d2),
            -j1 * j2 * j3 / (2 * d1 * d2))


CLOSED_FORMS = {Region.I: _region_i, Region.II: _region_ii, Region.III: _region_iii}

# H_T bonds per region as (s_to, s_from, a, order, factor): the hopping
# c^dag_{l+a,s_to} c_{l,s_from} with amplitude factor * J_order.  The first-
# and second-order bonds join the resonant pair within a cell and across a
# cell boundary; the third-order bonds are same-sublattice hops to the next
# cell, -J_3 on the resonant pair and 2*J_3 on the third sublattice.
CLOSED_FORM_BONDS = {
    Region.I: ((0, 1, 0, 1, 1), (0, 1, 1, 2, 1),  # A_l <- B_l, A_l <- B_{l-1}
               (0, 0, 1, 3, -1), (1, 1, 1, 3, -1), (2, 2, 1, 3, 2)),
    Region.II: ((1, 2, 0, 1, 1), (1, 2, 1, 2, 1),  # B_l <- C_l, B_{l+1} <- C_l
                (0, 0, 1, 3, 2), (1, 1, 1, 3, -1), (2, 2, 1, 3, -1)),
    Region.III: ((0, 2, 1, 1, 1), (0, 2, 0, 2, 1),  # A_{l+1} <- C_l, A_l <- C_l
                 (0, 0, 1, 3, -1), (1, 1, 1, 3, 2), (2, 2, 1, 3, -1)),
}


def closed_forms(params, t):
    """Region owning phi(t) and its closed-form couplings as a dict keyed
    like `EffectiveParams`."""
    s = np.arange(1, 4)
    va, vb, vc = model.onsite_energy(params, s, t).tolist()
    j1, j2, j3 = model.tunneling(params, s, t).tolist()
    biases = (va - vb, vb - vc, va - vc)
    region = region_of_phase(params.phase(t))
    *onsite, e1, e2, e3 = CLOSED_FORMS[region](va, vb, vc, j1, j2, j3, *biases)
    return region, {"onsite": tuple(onsite), "j1": e1, "j2": e2, "j3": e3,
                    "biases": biases, "bare": (j1, j2, j3)}


def closed_form_blocks(params, k, t):
    """Bloch blocks of H_T(t) assembled from the closed forms."""
    region, want = closed_forms(params, t)
    js = (None, want["j1"], want["j2"], want["j3"])
    bonds = tuple((s_to, s_from, a, np.array([factor * js[order]]))
                  for s_to, s_from, a, order, factor in CLOSED_FORM_BONDS[region])
    return model.bloch_from_table(model.HoppingTable(np.array([want["onsite"]]), bonds), k)[0]


def check_against_closed_forms(params, t, rel=1e-10):
    region, want = closed_forms(params, t)
    ep = effective.effective_params(params, t)
    assert ep.region is region
    scale = max(np.max(np.abs(want["onsite"])), abs(want["j1"]), abs(want["j2"]))
    for key, val in want.items():
        np.testing.assert_allclose(getattr(ep, key), val, rtol=0, atol=rel * scale,
                                   err_msg=key)
    ks = model.k_grid(params)
    np.testing.assert_allclose(effective.effective_bloch_blocks(params, ks, t),
                               closed_form_blocks(params, ks, t), rtol=0, atol=rel * scale)


def criterion_07_draws():
    """The 200 (params, region) draws of acceptance criterion 07."""
    rng = np.random.default_rng(2024)
    regions = list(REGION_INTERVALS)
    modes = [TunnelingMode.UNIFORM, TunnelingMode.SINE_MODULATED]
    draws = 0
    while draws < 200:
        region = regions[draws % 3]
        lo, hi = REGION_INTERVALS[region][rng.integers(len(REGION_INTERVALS[region]))]
        v0 = rng.uniform(5.0, 100.0)
        p = ModelParams(J=rng.uniform(0.01, 0.1) * v0, V0=v0,
                        phi0=rng.uniform(lo, hi), tunneling_mode=modes[draws % 2])
        if np.min(np.abs(model.tunneling(p, np.arange(1, 4), 0.0))) < 1e-6 * p.J:
            continue
        yield p, region
        draws += 1


def _compare(ep, got, rel=1e-10):
    want = {
        "V_A": ep.onsite[0], "V_B": ep.onsite[1], "V_C": ep.onsite[2],
        "j1": ep.j1, "j2": ep.j2,
        "j3_a": ep.j3, "j3_b": ep.j3, "j3_c": ep.j3,
    }
    scale = max(abs(v) for v in want.values())
    for key, val in want.items():
        assert got[key] == pytest.approx(val, abs=rel * scale), key


def test_sw_zero_perturbation_returns_h0():
    h0 = np.array([0.0, 1.0, 5.0, 9.0])
    out = sw_generic(h0, np.zeros((4, 4)), [0, 1])
    np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)


def test_sw_two_level_textbook():
    # second-order correction v^2/(E1 - E2); the third-order sums are exactly
    # zero for a two-level V with zero diagonal
    h0 = np.array([0.0, 4.0])
    v = np.array([[0.0, 0.7], [0.7, 0.0]])
    out = sw_generic(h0, v, [0])
    assert out[0, 0].real == pytest.approx(0.7**2 / (0.0 - 4.0), abs=1e-15)


def test_sw_three_site_chain_matches_region_formulas():
    # single A-B-C cell with region-I energies reproduces the closed forms
    p = ModelParams()
    t = (0.05 - p.phi0) / p.omega
    ep = effective.effective_params(p, t)
    va, vb, vc = (model.onsite_energy(p, s, t) for s in (1, 2, 3))
    j1 = float(model.tunneling(p, 1, t))
    j2 = float(model.tunneling(p, 2, t))
    h0 = np.array([va, vb, vc])
    v = np.array([[0, j1, 0], [j1, 0, j2], [0, j2, 0]], dtype=float)
    out = sw_generic(h0, v, [0, 1])
    # on an open 3-site chain the A site sees no C neighbor and B sees one
    assert out[0, 0].real == pytest.approx(va, abs=1e-12)
    assert out[1, 1].real == pytest.approx(vb + j2**2 / (vb - vc), abs=1e-12)
    assert out[0, 1].real == pytest.approx(
        j1 - j1 * j2**2 / (2 * (vb - vc) * (va - vc)), abs=1e-12)


def test_sw_gap_floor():
    h0 = np.array([0.0, 0.05, 5.0])
    v = np.eye(3)[::-1] * 0.1
    with pytest.raises(effective.DivergentDenominatorError):
        sw_generic(h0, v, [0], gap_floor=0.1)


def test_sw_hermitian_output():
    rng = np.random.default_rng(0)
    h0 = np.linspace(0, 10, 8)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    v = (a + a.conj().T) / 2
    np.fill_diagonal(v, 0.0)
    out = sw_generic(h0, v, [0, 3, 5])
    check_hermitian(out)


def test_region_partition():
    cases = {
        0.0: Region.I, 0.3: Region.I, 0.6: Region.II, np.pi / 3: Region.II,
        np.pi / 2: Region.III, 2 * np.pi / 3: Region.III,
        np.pi: Region.I, 7 * np.pi / 6: Region.II, 4 * np.pi / 3: Region.II,
        3 * np.pi / 2: Region.III, 5 * np.pi / 3: Region.III,
        11 * np.pi / 6: Region.I, 2 * np.pi: Region.I,
    }
    for phi, reg in cases.items():
        assert region_of_phase(phi) is reg, phi


def test_effective_params_region_mismatch():
    p = ModelParams()
    with pytest.raises(ValueError):
        effective.effective_params(p, 0.0, Region.II)


@pytest.mark.parametrize("mode", [TunnelingMode.UNIFORM, TunnelingMode.SINE_MODULATED])
def test_engine_matches_closed_forms_all_regions(mode):
    p = ModelParams(tunneling_mode=mode)
    for phi in (0.05, 2.9, 0.7, 1.3, 1.8, 2.4):
        t = (phi - p.phi0) / p.omega
        ep = effective.effective_params(p, t)
        got = engine_couplings(p, t, ep.region)
        _compare(ep, got)


def test_engine_matches_closed_forms_random_draws():
    # 200 random (phi, V0, J) draws with |J/V0| <= 0.1 across all regions
    rng = np.random.default_rng(42)
    regions = list(REGION_INTERVALS)
    modes = [TunnelingMode.UNIFORM, TunnelingMode.SINE_MODULATED]
    for draw in range(200):
        region = regions[draw % 3]
        lo, hi = REGION_INTERVALS[region][rng.integers(len(REGION_INTERVALS[region]))]
        phi = rng.uniform(lo, hi)
        v0 = rng.uniform(5.0, 100.0)
        j = rng.uniform(0.01, 0.1) * v0
        p = ModelParams(J=j, V0=v0, phi0=phi, tunneling_mode=modes[draw % 2])
        if p.tunneling_mode is TunnelingMode.SINE_MODULATED and np.min(
                np.abs(model.tunneling(p, np.arange(1, 4), 0.0))) < 1e-6:
            continue  # resonance times handled by the dedicated test below
        ep = effective.effective_params(p, 0.0)
        assert ep.region is region
        got = engine_couplings(p, 0.0, region)
        _compare(ep, got, rel=1e-10)


@pytest.mark.parametrize("mode", list(TunnelingMode))
def test_h_t_matches_closed_forms_all_regions(mode):
    p = ModelParams(tunneling_mode=mode)
    phis = (0.05, 2.9, 6.1, 0.7, 1.3, 4.0, 1.8, 2.4, 5.2)  # three per region
    assert {region_of_phase(phi) for phi in phis} == set(Region)
    for phi in phis:
        check_against_closed_forms(p, (phi - p.phi0) / p.omega)


def test_h_t_matches_closed_forms_on_criterion_07_draws():
    for p, region in criterion_07_draws():
        assert region_of_phase(p.phase(0.0)) is region
        check_against_closed_forms(p, 0.0, rel=1e-10)


def test_cycle_hamiltonian_is_dense_sw_of_the_ring(paper_params):
    # third route: the two-cluster SW of the full L-cell ring, pair sites and
    # other sites each as a subspace, is H_T on the ring
    p = paper_params
    for phi in (0.3, 1.0, 2.0):  # one phase per region
        t = (phi - p.phi0) / p.omega
        region = region_of_phase(phi)
        h0, v = _h0_and_v(p, t)
        pair = _sublattice_sites(p, REGION_SUBSPACE[region])
        other = np.setdiff1d(np.arange(p.n_sites), pair)
        dense = np.zeros((p.n_sites, p.n_sites), dtype=complex)
        for sites in (pair, other):
            dense[np.ix_(sites, sites)] = sw_generic(h0, v, sites, gap_floor=0.1 * p.V0)
        np.testing.assert_allclose(effective_cycle_hamiltonian(p, t), dense,
                                   rtol=0, atol=1e-12 * p.V0)


def test_high_order_couplings_vanish_at_resonances():
    p = ModelParams(tunneling_mode=TunnelingMode.SINE_MODULATED)
    resonances = {
        Region.I: (0.0, np.pi), Region.II: (np.pi / 3, 4 * np.pi / 3),
        Region.III: (2 * np.pi / 3, 5 * np.pi / 3),
    }
    for region, phis in resonances.items():
        for phi in phis:
            t = (phi - p.phi0) / p.omega
            ep = effective.effective_params(p, t, region)
            assert abs(ep.j2) < 1e-12
            assert abs(ep.j3) < 1e-12


def test_cycle_hamiltonian_hermitian_and_spectrum_close(paper_params):
    ts = np.linspace(0.0, paper_params.period, 12, endpoint=False)
    bound = 40 * (paper_params.J / paper_params.V0) ** 4 * paper_params.V0
    for t in ts:
        h_t = effective_cycle_hamiltonian(paper_params, t)
        check_hermitian(h_t)
        full = np.linalg.eigvalsh(model.real_space_hamiltonian(paper_params, t))
        assert np.max(np.abs(np.linalg.eigvalsh(h_t) - full)) < bound


def test_perturbative_scaling_fourth_order(paper_params):
    import dataclasses

    js = np.array([0.5, 0.7, 1.0, 1.4, 2.0])
    errs = []
    for j in js:
        p = dataclasses.replace(paper_params, J=float(j))
        err = 0.0
        for t in np.linspace(0.0, p.period, 7, endpoint=False):
            h_t = effective_cycle_hamiltonian(p, t)
            full = np.linalg.eigvalsh(model.real_space_hamiltonian(p, t))
            err = max(err, np.max(np.abs(np.linalg.eigvalsh(h_t) - full)))
        errs.append(err)
    slope = np.polyfit(np.log(js), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_effective_blocks_match_dense(paper_params):
    ks = model.k_grid(paper_params)
    frame_sites = np.arange(1, paper_params.n_sites + 1)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=45) + 1j * rng.normal(size=45)
    psi /= np.linalg.norm(psi)
    for t0 in (10.0, 150.0, 330.0):  # one time inside each region
        cap = dynamics.dt_max(paper_params, effective.effective_bloch_blocks)
        fast = dynamics.evolve(paper_params, psi, t0, t0 + 1.0, dt=cap, samples=2,
                               bloch_builder=effective.effective_bloch_blocks,
                               seam_threshold=None)
        dense = evolve_dense(paper_params, psi, t0, t0 + 1.0, dt=fast.dt, samples=2,
                             hamiltonian=effective_cycle_hamiltonian)
        np.testing.assert_allclose(fast.states, dense.states, atol=1e-12)
    # the batch builder masks each region's bonds; on times straddling all six
    # boundaries it must equal the blocks built one time at a time
    bounds = effective.region_boundaries(paper_params)
    assert len(bounds) == 6
    ts = np.sort(np.concatenate([bounds - 1e-3, bounds, bounds + 1e-3]))
    assert {region_of_phase(paper_params.phase(t)) for t in ts} == set(Region)
    batch = effective.effective_bloch_blocks_batch(paper_params, ks, ts)
    per_time = np.stack([effective.effective_bloch_blocks(paper_params, ks, t) for t in ts])
    np.testing.assert_allclose(batch, per_time, rtol=0, atol=1e-13)


def test_region_boundaries_are_the_jumps_of_h_t():
    p = ModelParams(phi0=0.7)
    times = effective.region_boundaries(p)
    np.testing.assert_allclose(p.phase(times), np.pi / 6 + np.pi / 3 * np.arange(1, 7))
    for t in times:
        assert (region_of_phase(p.phase(t - 1e-6))
                is not region_of_phase(p.phase(t + 1e-6)))


def test_region_boundaries_are_one_period_of_crossings():
    # the six crossings of one period, which `dynamics.evolve` repeats every
    # period: with phi0 on an edge, the period starts on one, at t = 0; one
    # ulp past an edge the crossing falls a hair below T, which np.mod rounds
    # up to T, and is the crossing at t = 0
    edges = effective._REGION_EDGES
    for omega in np.linspace(0.005, 0.2, 400):
        for phi0 in np.concatenate([edges, np.nextafter(edges, np.inf)]):
            p = ModelParams(omega=float(omega), phi0=float(phi0))
            times = effective.region_boundaries(p)
            assert len(times) == 6
            assert np.all(np.diff(times) > 0)
            assert times[0] >= 0.0 and times[-1] < p.period
            phi = np.mod(p.phase(times), 2 * np.pi)
            assert np.max(np.abs(np.sort(phi) - edges)) <= 1e-12
            if phi0 in edges:
                assert times[0] == 0.0


def test_step_split_at_region_boundary_keeps_second_order(paper_params):
    # across a jump of H_T an unsplit step errs at first order in dt (state
    # error 7.4e-3 at the cap here); split at the jump, with no Magnus stencil
    # across it, it is 1.9e-7, and it falls 17.7x when dt halves
    p = paper_params
    t_jump = effective.region_boundaries(p)[0]
    rng = np.random.default_rng(1)
    psi = rng.normal(size=45) + 1j * rng.normal(size=45)
    psi /= np.linalg.norm(psi)
    cap = dynamics.dt_max(p, effective.effective_bloch_blocks)

    def final(dt):
        return dynamics.evolve(p, psi, t_jump - 1.003, t_jump + 0.991, dt=dt, samples=1,
                               bloch_builder=effective.effective_bloch_blocks,
                               seam_threshold=None, jump_times=[t_jump]).final_state

    reference = final(cap / 64)
    errors = [np.linalg.norm(final(cap / d) - reference) for d in (1, 2)]
    assert errors[0] < 1e-6
    assert errors[0] / errors[1] > 3.0  # at least second order: 4 when dt halves


@pytest.mark.parametrize("omega", [0.01, 0.05])
def test_full_run_is_the_plain_chain_run(omega):
    # the full run is the chain's own run, with no builder named, and solves
    # one q-th of its period: 9,600 steps per period at omega = 0.01, and at
    # 0.05 2,400, its stride rounded up from 5 to 6 to make whole q-ths
    p = ModelParams(omega=omega)
    dt = min(dynamics.dt_max(p), dynamics.dt_max(p, effective.effective_bloch_blocks))
    full, _, _ = effective.compare_effective(p, 27)
    plain = dynamics.run_protocol(p, 1, 27, dt=dt)
    assert round(p.period / plain.dt) == {0.01: 9600, 0.05: 2400}[omega]
    assert np.array_equal(full.states, plain.states)
    assert np.array_equal(full.times, plain.times)


def test_no_dynamics_without_tunneling():
    p = ModelParams(J=0.0, V0=5.0, omega=1.0, phi0=0.3)
    full, eff, fid = effective.compare_effective(p, 14, n_cycles=1)
    assert fid == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(full.delta_p, eff.delta_p, atol=1e-10)
    np.testing.assert_allclose(full.delta_p, 0.0, atol=1e-10)
