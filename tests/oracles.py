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


def span_steps(t_start, first, last, dt, jump_times):
    """(mids, dts, starts, steps) of grid steps first..last-1 of width dt from
    t_start, placed one step at a time: their rows' midpoints and widths, the
    first row of each smooth piece and each row's grid step.  The span is one
    piece but at jumps of H: a jump more than 1e-9*dt inside a step splits it
    there, and one within 1e-9*dt of a step edge inside the span starts the
    piece at that edge; a jump within 1e-9*dt of the one before it is dropped."""
    pos, before = [], -np.inf
    for jump in sorted(jump_times):
        x = (jump - t_start) / dt
        if x - before > 1e-9:
            pos.append((x - first, jump))
        before = x
    on_edge = {round(x) for x, _ in pos
               if abs(x - round(x)) <= 1e-9 and 0 < round(x) < last - first}
    mids, dts, starts, steps = [], [], {0}, []
    for k in range(last - first):
        cuts = sorted({jump for x, jump in pos if abs(x - round(x)) > 1e-9 and k < x < k + 1})
        edges = [t_start + (first + k) * dt] + cuts + [t_start + (first + k + 1) * dt]
        if k in on_edge:
            starts.add(len(mids))
        for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if i:  # a row that starts at a jump
                starts.add(len(mids))
            mids.append(0.5 * (a + b))
            dts.append(b - a)
            steps.append(first + k)
    return np.array(mids), np.array(dts), np.array(sorted(starts)), np.array(steps)


def span_propagators(params, builder, ks, t_start, chunks, stride, dt, jump_times,
                     periodic):
    """Propagators of `chunks` chunks of `stride` steps from t_start, shape
    (chunks, L, q, q), from one placement of the whole span, one builder
    call, one Magnus generator pass and one eigensolve over all its rows, and
    one chain product per chunk.  A `periodic` span is placed with one
    neighbouring step beyond each end, which the stencils of its end steps
    read; the span's own rows are then kept."""
    n, edge = chunks * stride, int(periodic)
    mids, dts, starts, steps = span_steps(t_start, -edge, n + edge, dt, jump_times)
    h = np.moveaxis(builder.batch(params, ks, mids), (-2, -1), (0, 1)).copy()
    g = dynamics._magnus_generators(h, mids, dts, starts)
    own = (steps >= 0) & (steps < n)
    u, steps = dynamics._step_unitaries(g[:, :, own], dts[own]), steps[own]
    return np.stack([np.moveaxis(dynamics._chain_product(u[:, :, steps // stride == c]),
                                 (0, 1), (-2, -1)) for c in range(chunks)])


def evolve_dense(params, initial, t_start, t_end, dt, hamiltonian=None,
                 samples=dynamics.SAMPLES_PER_CYCLE):
    """Reference propagator using dense N x N matrices.

    The same fourth-order Magnus steps as `dynamics.evolve`, with the same
    pieces on the same step grid (`dynamics._step_grid`): the span is one,
    which runs round its ends when it is n >= 1 whole periods with `samples`
    a multiple of n, its end steps reading H one step beyond them; each
    chunk's steps are built and solved together, with a neighbouring step on
    each side that lies in the same piece.  So the two agree to rounding.
    `hamiltonian(params, t)` defaults to `model.real_space_hamiltonian`.  It
    skips two checks of `evolve` on purpose: the dt cap, because `dt_max`
    probes the Bloch builder and a dense `hamiltonian` may have no Bloch form
    to probe; and the seam check, because it is a reference for arbitrary
    states, whose density may sit at the seam.  Every step is solved; nothing
    is reused across periods or q-ths, and `hamiltonian` is taken to be
    smooth (no jump times).
    """
    builder = hamiltonian or model.real_space_hamiltonian
    whole, dt, stride = dynamics._step_grid(params, t_start, t_end, dt, samples)
    n_steps = stride * samples
    # a span of whole periods runs round its ends: one neighbour beyond each
    edge = int(whole > 0)
    mids, dts, starts, _ = dynamics._place_steps(t_start, dt, -edge, n_steps + edge,
                                                 np.empty(0))
    psi = dynamics._resolve_initial(params, initial)
    states = [psi]

    def build(ts):
        return np.stack([builder(params, t) for t in ts], axis=2)

    for first in range(0, n_steps, stride):
        rows = np.arange(first, first + stride) + edge
        g = dynamics._block_generators(build, mids, dts, starts, rows)
        for u_step in np.moveaxis(dynamics._step_unitaries(g, dts[rows]), 2, 0):
            psi = u_step @ psi
        states.append(psi)
    return dynamics._trajectory(params, t_start, stride, dt, states)


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


def sw_generic(h0_diag, v, subspace, gap_floor=0.0):
    """Third-order effective Hamiltonian on `subspace` from the generic
    Schrieffer-Wolff sums.

    h0_diag holds the unperturbed (diagonal) energies, v the perturbation in
    the same basis.  Returns the subspace block, indexed in subspace order,
    of the block-diagonal `effective._sw_blocks` result for the two clusters
    `subspace` and its complement.  Raises DivergentDenominatorError when
    the subspace-to-complement gap is below gap_floor.
    """
    h0_diag = np.asarray(h0_diag, dtype=float)
    p_idx = np.asarray(sorted(subspace), dtype=int)
    labels = np.zeros(len(h0_diag), dtype=bool)
    labels[p_idx] = True
    if labels.all():
        raise ValueError("subspace must have a nonempty complement")
    h_eff = effective._sw_blocks(h0_diag, np.asarray(v, dtype=complex), labels, gap_floor)
    return h_eff[np.ix_(p_idx, p_idx)]


def region_of_phase(phi):
    """Region of the cycle partition that owns the modulation phase phi."""
    return tuple(effective.Region)[effective._region_index(float(phi))]
