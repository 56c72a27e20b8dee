"""Literal site-space formulas and one-at-a-time solves that the library
evaluates by faster routes, and the checks and dense or scalar forms of
library quantities that only the tests need."""

import numpy as np

from aah_pump import dynamics, effective, model, wannier


def bloch_states_real_space(bands, t_index):
    """All Bloch states psi_m(k) at one stored time as N-site vectors,
    shape (q, L, N): psi_j = e^{ikj} u_{m,s(j)}(k) / sqrt(L)."""
    p = bands.params
    j = np.arange(1, p.n_sites + 1)
    sub = (j - 1) % p.q
    phase = np.exp(1j * bands.k_grid[:, None] * j) / np.sqrt(p.L)  # (L, N)
    u = bands.states[:, :, t_index, :]  # (q, L, q)
    return u[:, :, sub] * phase[None, :, :]


def bloch_frame(params):
    """Unitary frame F[j, n, s] mapping cell-gauge Bloch components to sites,
    psi_j = sum_{n,s} F[j,n,s] c[n,s], with n indexing `model.k_grid`."""
    ks = model.k_grid(params)
    j = np.arange(1, params.n_sites + 1)
    cell = (j - 1) // params.q  # 0-based
    sub = (j - 1) % params.q
    frame = np.zeros((params.n_sites, params.L, params.q), dtype=complex)
    frame[np.arange(params.n_sites), :, sub] = np.exp(
        1j * np.outer(cell * params.q, ks)
    ) / np.sqrt(params.L)
    return frame


def chunk_steps(t_start, step, stride, dt, jump_times):
    """(mids, dts, starts) of steps step..step+stride-1 placed one chunk at a
    time: their midpoints, their widths and the first step of each smooth
    piece.  A jump of H starts a new piece: a step across it is split there,
    and a jump within 1e-9*dt of a step edge starts the piece at that edge."""
    pos = (jump_times - t_start) / dt - step  # in steps from the chunk start
    inside = (pos > 1e-9) & (pos < stride - 1e-9)
    pos, cuts = pos[inside], jump_times[inside]
    on_edge = np.abs(pos - np.rint(pos)) <= 1e-9
    cuts = np.where(on_edge, t_start + (step + np.rint(pos)) * dt, cuts)
    edges = np.sort(np.concatenate([t_start + (step + np.arange(stride + 1)) * dt,
                                    cuts[~on_edge]]))
    return (0.5 * (edges[1:] + edges[:-1]), np.diff(edges),
            np.sort(np.append(0, np.searchsorted(edges, cuts))))


def chunk_propagator(params, builder, ks, t_start, step, stride, dt, jump_times):
    """Product of the Magnus step unitaries of steps step..step+stride-1 per
    momentum, shape (L, q, q), solved for this one chunk alone."""
    mids, dts, starts = chunk_steps(t_start, step, stride, dt, jump_times)
    h = np.moveaxis(builder.batch(params, ks, mids), (-2, -1), (0, 1))
    g = dynamics._magnus_generators(h.copy(), mids, dts, starts)
    u = dynamics._chain_product(dynamics._step_unitaries(g, dts))
    return np.moveaxis(u, (0, 1), (-2, -1))


def check_hermitian(h):
    """Raise if h deviates from Hermiticity beyond 1e-12 (absolute, entrywise)."""
    dev = np.max(np.abs(h - h.conj().T))
    if dev > 1e-12:
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")


def berry_connection_mean(params, u):
    """(1/L) * sum_k <u|i d_k|u> from the link phases of `u`, shape (L, q), in
    sites."""
    args = np.angle(wannier._link_overlaps(params, u))
    return -params.q / (2.0 * np.pi) * float(np.sum(args))


def effective_cycle_hamiltonian(params, t):
    """Piecewise cycle generator H_T(t) on the L-cell ring as a dense N x N
    matrix, from the same table as `effective.effective_bloch_blocks`."""
    return model.ring_from_table(effective._effective_table(params, [t]), params.L)[0]


def region_of_phase(phi):
    """Region of the cycle partition that owns the modulation phase phi."""
    return tuple(effective.Region)[effective._region_index(float(phi))]
