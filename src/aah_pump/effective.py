"""Third-order effective Hamiltonians for the strongly modulated chain.

Under strong diagonal modulation (|J/V0| << 1) the tunneling term acts as a
perturbation on the on-site energies.  One pump cycle splits into three
regions around the pairwise resonances of the sublattice energies
(I: V_A = V_B, II: V_B = V_C, III: V_C = V_A).  Within each region a
Schrieffer-Wolff rotation yields renormalized on-site energies, a
first-order resonant bond, a second-order inter-cell bond, and third-order
same-sublattice hoppings.

One Schrieffer-Wolff routine (Bravyi, DiVincenzo & Loss, Ann. Phys. 326,
2793 (2011)) builds every effective Hamiltonian here: `_sw_blocks` evaluates
the second- and third-order sums for diagonal H0 plus perturbation V on a
batch of matrices whose indices are labelled by cluster, and returns the
block-diagonal H_eff.  Its two-cluster form on one matrix, the generic-sums
reference, lives in `tests/oracles.py`.
H_T is that routine run on the chain's own Hamiltonian on a three-cell ring,
the resonant pair of the time's region being one cluster and the third
sublattice the other; its cell-0 rows are read back as a
`model.HoppingTable`, which `effective_bloch_blocks` assembles as Bloch
blocks.  `effective_params` reads the couplings of one region off the same
table.  The hand-derived q = 3 closed forms live in the tests as an oracle.
Built from the chain, H_T is translation covariant over q-ths as the chain
is, so `dynamics.evolve` solves one q-th of its period, as of the chain's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import dt_max, run_protocol
from .model import (HoppingTable, ModelParams, bloch_from_table, hopping_table,
                    ring_from_table)


class Region(Enum):
    I = "I"
    II = "II"
    III = "III"


class DivergentDenominatorError(RuntimeError):
    """Subspace separation below gap_floor; perturbation theory invalid."""


@dataclass
class EffectiveParams:
    """Effective couplings of one region at one time.

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


# the phases pi/6 + n*pi/3, n = 0..5, at which a region ends and H_T jumps
_REGION_EDGES = np.arange(1, 12, 2) * (np.pi / 6.0)


def _region_index(phi) -> np.ndarray:
    """Index into tuple(Region) of each phase: the count of region edges below
    the phase reduced to [0, 2*pi), modulo 3.  So I is [0,pi/6) u
    [5pi/6,7pi/6) u [11pi/6,2pi), II is [pi/6,pi/2) u [7pi/6,3pi/2) and III
    is [pi/2,5pi/6) u [3pi/2,11pi/6)."""
    return np.searchsorted(_REGION_EDGES, np.mod(phi, 2.0 * np.pi), side="right") % 3


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _sw_blocks(h0: np.ndarray, v: np.ndarray, labels: np.ndarray,
               gap_floor: float) -> np.ndarray:
    """Block-diagonal third-order effective Hamiltonian of diag(h0) + v,
    batched.

    h0 (..., n) holds the unperturbed energies, v (..., n, n) the Hermitian
    perturbation (its diagonal included) and labels (..., n) the cluster of
    each index.  With g[i,m] = 1/(E_i - E_m) for m outside the cluster of i
    and 0 inside it, each cluster block of the result is
    H0 + V + H_eff2 + H_eff3:

        H_eff2[i,j] = 1/2 sum_m V[i,m] V[m,j] (g[i,m] + g[j,m])

    and the third-order sums chain V through two outside states, or through
    one outside and one inside state.  The blocks between clusters are zero.
    Raises DivergentDenominatorError when two clusters lie within gap_floor.
    """
    inside = labels[..., :, None] == labels[..., None, :]
    de = h0[..., :, None] - h0[..., None, :]  # de[i, m] = E_i - E_m
    gap = np.min(np.abs(de), where=~inside, initial=np.inf)
    if gap <= gap_floor:
        raise DivergentDenominatorError(
            f"gap {gap:.3e} between clusters <= gap_floor {gap_floor:.3e}")
    g = np.divide(1.0, de, out=np.zeros(np.broadcast_shapes(de.shape, inside.shape)),
                  where=~inside)
    g_t = np.swapaxes(g, -1, -2)

    t1 = (v * g) @ v
    h = v + 0.5 * (t1 + _dagger(t1))
    # chain through two outside states: V[i,m] V[m,n] V[n,j] with the
    # column-index energy in both denominators
    s_a = 0.5 * v @ (g_t * (v @ (v * g_t)))
    # chain through one inside state: -V[i,k] V[k,m] V[m,j] /
    # ((E_k - E_m)(E_i - E_m))
    s_c = -0.5 * (((v * inside) @ (v * g)) * g) @ v
    h += s_a + _dagger(s_a) + s_c + _dagger(s_c)
    return h * inside + h0[..., None] * np.eye(h0.shape[-1])


def region_boundaries(params: ModelParams) -> np.ndarray:
    """The six times in [0, T), sorted, at which phi(t) crosses a region edge:
    the jumps of the cycle generator H_T within one period.  The edges lie
    pi/3 apart, so the jumps fall at two times modulo T/3, and H_T repeats
    them every T/3; `dynamics.evolve`, which reads jumps modulo T/q, takes
    them in this form."""
    t = np.mod((_REGION_EDGES - params.phi0) / params.omega, params.period)
    # with phi0 a hair past an edge, the crossing a hair before T rounds to T
    return np.sort(np.where(t < params.period, t, 0.0))


def _effective_table(params: ModelParams, ts: np.ndarray) -> HoppingTable:
    """H_T on a time batch, from `_sw_blocks` on the chain's three-cell ring.

    In region r the resonant pair, sublattices (r, r+1 mod 3), is one
    cluster and the third sublattice the other; gap_floor = 0.1*V0.  Three
    cells is the smallest ring on which no third-order path wraps around, so
    the cell-0 rows hold the on-site energies, the three intra-cell bonds
    and the nine bonds to the previous cell (a = -1) of the infinite chain.
    """
    if params.q != 3:
        raise ValueError("effective Hamiltonians are derived for q = 3")
    ts = np.asarray(ts, dtype=float)
    h = np.real(ring_from_table(hopping_table(params, ts), 3))  # the chain is real
    h0 = np.diagonal(h, axis1=-2, axis2=-1)
    region = _region_index(params.phase(ts))
    third = (np.arange(9) - region[:, None]) % 3 == 2
    h = _sw_blocks(h0, h - h0[..., None] * np.eye(9), third, 0.1 * abs(params.V0))
    s = np.arange(3)
    intra = tuple((a, b, 0, h[:, a, b]) for a, b in ((0, 1), (1, 2), (0, 2)))
    inter = tuple((a, b, -1, h[:, 6 + a, b]) for a in range(3) for b in range(3))
    return HoppingTable(h[:, s, s], intra + inter)


def effective_params(params: ModelParams, t: float, region: Region | None = None) -> EffectiveParams:
    """Effective couplings at time t, read off the H_T table.

    The region defaults to the one owning phi(t); passing a mismatched
    region raises.  In region r, j1 is the resonant pair's bond that the
    chain itself has, j2 the pair's bond one cell over and j3 minus the hop
    of sublattice r to the next cell.  The two clusters must lie more than
    gap_floor = 0.1*V0 apart.
    """
    phi = float(np.mod(params.phase(t), 2.0 * np.pi))
    r = int(_region_index(phi))
    own = tuple(Region)[r]
    if region is not None and region is not own:
        raise ValueError(f"phi(t) = {phi:.4f} lies in region {own.value}, not {region.value}")
    table = _effective_table(params, [t])
    amp = {bond[:3]: float(bond[3][0]) for bond in table.bonds}
    chain = hopping_table(params, [t])
    s_to, s_from, a, _ = chain.bonds[r]
    va, vb, vc = chain.onsite[0].tolist()
    return EffectiveParams(
        region=own, onsite=tuple(table.onsite[0].tolist()),
        j1=amp[s_to, s_from, a], j2=amp[s_from, s_to, -1 - a], j3=-amp[r, r, -1],
        biases=(va - vb, vb - vc, va - vc),
        bare=tuple(float(bond[3][0]) for bond in chain.bonds),
    )


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
):
    """Pump under the full Hamiltonian and under H_T from the same state.

    Returns (full, effective, fidelity): two trajectories with aligned
    sample grids and the final-state overlap modulus squared.  Both runs are
    `run_protocol` runs without the echo, of the chain `params` holds and of
    its H_T, so they record `dynamics.SAMPLES_PER_CYCLE` samples per cycle;
    they take one step grid and solve one q-th of their period.
    """
    if dt is None:
        dt = min(dt_max(params), dt_max(params, effective_bloch_blocks))
    full = run_protocol(params, n_cycles, initial, dt=dt)
    eff = run_protocol(params, n_cycles, initial, dt=dt,
                       bloch_builder=effective_bloch_blocks,
                       jump_times=region_boundaries(params))
    fid = float(np.abs(np.vdot(full.final_state, eff.final_state)) ** 2)
    return full, eff, fid
