"""Third-order effective Hamiltonians for the strongly modulated chain.

Under strong diagonal modulation (|J/V0| << 1) the tunneling term acts as a
perturbation on the on-site energies.  One pump cycle splits into three
regions around the pairwise resonances of the sublattice energies
(I: V_A = V_B, II: V_B = V_C, III: V_C = V_A).  Within each region a
Schrieffer-Wolff rotation yields renormalized on-site energies, a
first-order resonant bond, a second-order inter-cell bond, and third-order
same-sublattice hoppings.

Two independent routes are implemented: `sw_generic` evaluates the literal
second- and third-order matrix-element sums for an arbitrary diagonal H0
plus perturbation, and `effective_params` evaluates the closed-form
coefficients; they must agree to rounding, which is the module's
self-consistency oracle.  The closed forms are evaluated on a time array,
one mask per region, and written into one per-region bond list as a
`model.HoppingTable`; `effective_cycle_hamiltonian` and
`effective_bloch_blocks` are that table assembled as a dense ring matrix and
as Bloch blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (HoppingTable, ModelParams, bloch_from_table, onsite_energy,
                    ring_from_table, tunneling)


class Region(Enum):
    I = "I"
    II = "II"
    III = "III"


class DivergentDenominatorError(RuntimeError):
    """Subspace separation below gap_floor; perturbation theory invalid."""


@dataclass
class EffectiveParams:
    """Closed-form effective couplings of one region at one time.

    onsite : renormalized (V_A, V_B, V_C)
    j1, j2, j3 : first-, second-, third-order tunneling strengths
    biases : (Delta_1, Delta_2, Delta_3) = (V_A-V_B, V_B-V_C, V_A-V_C)
    bare : bare bond strengths (J_1, J_2, J_3)
    """

    region: Region
    onsite: tuple
    j1: float
    j2: float
    j3: float
    biases: tuple
    bare: tuple


def _region_index(phi) -> np.ndarray:
    """Index into tuple(Region) of each phase: the count of boundaries
    pi/6 + n*pi/3 below the reduced phase, modulo 3."""
    edges = np.arange(1, 12, 2) * (np.pi / 6.0)
    return np.searchsorted(edges, np.mod(phi, 2.0 * np.pi), side="right") % 3


def region_of_phase(phi: float) -> Region:
    """Region of the reduced modulation phase, by the cycle partition
    I: [0,pi/6) u [5pi/6,7pi/6) u [11pi/6,2pi]; II: [pi/6,pi/2) u
    [7pi/6,3pi/2); III: [pi/2,5pi/6) u [3pi/2,11pi/6)."""
    return tuple(Region)[_region_index(float(phi))]


def sw_generic(
    h0_diag: np.ndarray,
    v: np.ndarray,
    subspace,
    order: int = 3,
    gap_floor: float = 0.0,
) -> np.ndarray:
    """Effective Hamiltonian on `subspace` from the Schrieffer-Wolff sums.

    h0_diag holds the unperturbed (diagonal) energies, v the perturbation in
    the same basis.  Returns the subspace block of
    H0*P + P*V*P + H_eff2 (+ H_eff3 for order 3), indexed in subspace order:

        H_eff2[i,j] = 1/2 sum_m V[i,m] V[m,j] (1/(E_i-E_m) + 1/(E_j-E_m))

    with m outside the subspace, and the four third-order sums chaining
    V through one or two outside states (including the block-diagonal V
    elements inside the subspace).  Raises DivergentDenominatorError when
    the subspace-to-complement gap is below gap_floor.
    """
    if order not in (2, 3):
        raise ValueError("order must be 2 or 3")
    h0_diag = np.asarray(h0_diag, dtype=float)
    v = np.asarray(v, dtype=complex)
    n = len(h0_diag)
    p_idx = np.asarray(sorted(subspace), dtype=int)
    mask = np.zeros(n, dtype=bool)
    mask[p_idx] = True
    c_idx = np.nonzero(~mask)[0]
    if len(c_idx) == 0:
        raise ValueError("subspace must have a nonempty complement")

    e_p = h0_diag[p_idx]
    e_c = h0_diag[c_idx]
    gap = np.abs(e_p[:, None] - e_c[None, :])
    if np.min(gap) <= gap_floor:
        raise DivergentDenominatorError(
            f"subspace-complement gap {np.min(gap):.3e} <= gap_floor {gap_floor:.3e}"
        )

    v_pp = v[np.ix_(p_idx, p_idx)]
    v_pc = v[np.ix_(p_idx, c_idx)]
    v_cc = v[np.ix_(c_idx, c_idx)]
    g = 1.0 / (e_p[:, None] - e_c[None, :])  # g[i, m] = 1/(E_i - E_m)

    h_eff = np.diag(e_p).astype(complex) + v_pp
    t1 = (v_pc * g) @ np.conj(v_pc.T)
    h_eff += 0.5 * (t1 + np.conj(t1.T))

    if order == 3:
        # chain through two outside states: V[k,m] V[m,n] V[n,j] with the
        # column-index energy in both denominators
        x1 = np.conj(v_pc.T) * g.T  # x1[n, j] = V[n,j] / (E_j - E_n)
        s_a = 0.5 * v_pc @ (g.T * (v_cc @ x1))
        # chain through one inside state: -V[k,i] V[i,m] V[m,j] /
        # ((E_k - E_m)(E_i - E_m))
        s_c = -0.5 * ((v_pp @ (v_pc * g)) * g) @ np.conj(v_pc.T)
        h_eff += s_a + np.conj(s_a.T) + s_c + np.conj(s_c.T)
    return h_eff


def region_boundaries(params: ModelParams, t_start: float, t_end: float) -> np.ndarray:
    """Sorted times in [t_start, t_end] at which phi(t) crosses a region
    boundary pi/6 + n*pi/3, where the cycle generator H_T jumps."""
    sixth = np.pi / 6.0
    lo, hi = sorted(params.phase([t_start, t_end]))
    n = np.arange(np.ceil((lo - sixth) / (2 * sixth)), np.floor((hi - sixth) / (2 * sixth)) + 1)
    return np.sort((sixth + 2 * sixth * n - params.phi0) / params.omega)


# closed forms of each region: renormalized (V_A, V_B, V_C) and effective
# (J_1, J_2, J_3) from the bare energies, bonds and biases
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
    # enters with the opposite sign to regions I and II (the generic sums
    # confirm this; the sign follows from Delta_1*Delta_2 < 0 here)
    return (va + j1**2 / d1, vb - j1**2 / d1 + j2**2 / d2, vc - j2**2 / d2,
            j3 + j3 * (j1**2 + j2**2) / (2 * d1 * d2),
            0.5 * j1 * j2 * (1 / d1 - 1 / d2),
            -j1 * j2 * j3 / (2 * d1 * d2))


def _closed_forms(params: ModelParams, ts: np.ndarray) -> tuple:
    """Closed-form couplings on a time array, evaluated with one mask per region.

    Returns (region index (T,), values (12, T)): the rows are the renormalized
    (V_A, V_B, V_C), the effective (J_1, J_2, J_3), the biases
    (Delta_1, Delta_2, Delta_3) = (V_A-V_B, V_B-V_C, V_A-V_C) and the bare
    bonds (J_1, J_2, J_3).  Region r leaves Delta_{r+1} out of its
    denominators; the others must exceed gap_floor = 0.1*V0.
    """
    if params.q != 3:
        raise ValueError("effective Hamiltonians are derived for q = 3")
    ts = np.asarray(ts, dtype=float)
    s = np.arange(1, 4)
    va, vb, vc = onsite_energy(params, s, ts[:, None]).T
    j1, j2, j3 = tunneling(params, s, ts[:, None]).T
    inputs = np.stack([va, vb, vc, j1, j2, j3, va - vb, vb - vc, va - vc])
    region = _region_index(params.phase(ts))
    gap_floor = 0.1 * abs(params.V0)
    forms = np.empty((6, len(ts)))
    for r, form in enumerate((_region_i, _region_ii, _region_iii)):
        x = inputs[:, region == r]
        relevant = np.delete(x[6:], r, axis=0)
        if relevant.size and np.min(np.abs(relevant)) <= gap_floor:
            worst = relevant[:, np.argmin(np.min(np.abs(relevant), axis=0))]
            raise DivergentDenominatorError(
                f"region {tuple(Region)[r].value} denominators {tuple(worst.tolist())} "
                f"within gap_floor {gap_floor:.3e}"
            )
        forms[:, region == r] = form(*x)
    return region, np.concatenate([forms, inputs[6:9], inputs[3:6]])


def effective_params(params: ModelParams, t: float, region: Region | None = None) -> EffectiveParams:
    """Closed-form effective couplings at time t.

    The region defaults to the one owning phi(t); passing a mismatched
    region raises.  Denominators entering the chosen region's formulas must
    exceed gap_floor = 0.1*V0.
    """
    phi = float(np.mod(params.phase(t), 2.0 * np.pi))
    own = region_of_phase(phi)
    if region is not None and region is not own:
        raise ValueError(f"phi(t) = {phi:.4f} lies in region {own.value}, not {region.value}")
    _, v = _closed_forms(params, np.array([t]))
    v = v[:, 0].tolist()
    return EffectiveParams(
        region=own, onsite=tuple(v[0:3]), j1=v[3], j2=v[4], j3=v[5],
        biases=tuple(v[6:9]), bare=tuple(v[9:12]),
    )


# H_T bonds per region as (s_to, s_from, a, order, factor): the hopping
# c^dag_{l+a,s_to} c_{l,s_from} with amplitude factor * J_order.  The first-
# and second-order bonds join the resonant pair within a cell and across a
# cell boundary; the third-order bonds are same-sublattice hops to the next
# cell, -J_3 on the resonant pair and 2*J_3 on the third sublattice.
_BONDS = {
    Region.I: ((0, 1, 0, 1, 1), (0, 1, 1, 2, 1),  # A_l <- B_l, A_l <- B_{l-1}
               (0, 0, 1, 3, -1), (1, 1, 1, 3, -1), (2, 2, 1, 3, 2)),
    Region.II: ((1, 2, 0, 1, 1), (1, 2, 1, 2, 1),  # B_l <- C_l, B_{l+1} <- C_l
                (0, 0, 1, 3, 2), (1, 1, 1, 3, -1), (2, 2, 1, 3, -1)),
    Region.III: ((0, 2, 1, 1, 1), (0, 2, 0, 2, 1),  # A_{l+1} <- C_l, A_l <- C_l
                 (0, 0, 1, 3, -1), (1, 1, 1, 3, 2), (2, 2, 1, 3, -1)),
}


def _effective_table(params: ModelParams, ts: np.ndarray) -> HoppingTable:
    """H_T on a time batch: each region's bonds carry its couplings at the
    times that region owns and zero elsewhere."""
    region, v = _closed_forms(params, ts)
    bonds = tuple(
        (s_to, s_from, a, np.where(region == r, factor * v[2 + order], 0.0))
        for r, reg in enumerate(Region)
        for s_to, s_from, a, order, factor in _BONDS[reg]
    )
    return HoppingTable(v[:3].T, bonds)


def effective_cycle_hamiltonian(params: ModelParams, t: float) -> np.ndarray:
    """Piecewise cycle generator H_T(t) on the L-cell ring (dense N x N).

    Assembles the region-owning effective Hamiltonian from the closed-form
    couplings; continuous within each region and discontinuous at region
    boundaries by construction.
    """
    return ring_from_table(_effective_table(params, np.array([t])), params.L)[0]


def effective_bloch_blocks(params: ModelParams, k: np.ndarray, t: float) -> np.ndarray:
    """Cell-gauge Bloch blocks of H_T(t), shape (len(k), q, q), matching
    `model.bloch_blocks`."""
    return bloch_from_table(_effective_table(params, np.array([t])), k)[0]


def effective_bloch_blocks_batch(params: ModelParams, k: np.ndarray, ts: np.ndarray) -> np.ndarray:
    return bloch_from_table(_effective_table(params, ts), k)


effective_bloch_blocks.batch = effective_bloch_blocks_batch


def compare_effective(
    params: ModelParams,
    initial,
    n_cycles: int = 1,
    dt: float | None = None,
    samples_per_cycle: int | None = None,
):
    """Pump under the full Hamiltonian and under H_T from the same state.

    Returns (full, effective, fidelity): two trajectories with aligned
    sample grids and the final-state overlap modulus squared.
    """
    from .dynamics import SAMPLES_PER_CYCLE, dt_max, run_protocol, Protocol

    samples = samples_per_cycle or SAMPLES_PER_CYCLE
    if dt is None:
        dt = min(dt_max(params), dt_max(params, effective_bloch_blocks))
    full = run_protocol(params, Protocol.TRADITIONAL, n_cycles, initial,
                        dt=dt, samples_per_cycle=samples)
    eff = run_protocol(params, Protocol.TRADITIONAL, n_cycles, initial,
                       dt=dt, samples_per_cycle=samples,
                       bloch_builder=effective_bloch_blocks,
                       jump_times=region_boundaries(params, 0.0, n_cycles * params.period))
    fid = float(np.abs(np.vdot(full.final_state, eff.final_state)) ** 2)
    return full, eff, fid
