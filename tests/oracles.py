"""Literal site-space formulas and one-at-a-time solves that the library
evaluates by faster routes."""

import numpy as np


def bloch_states_real_space(bands, t_index):
    """All Bloch states psi_m(k) at one stored time as N-site vectors,
    shape (q, L, N): psi_j = e^{ikj} u_{m,s(j)}(k) / sqrt(L)."""
    p = bands.params
    j = np.arange(1, p.n_sites + 1)
    sub = (j - 1) % p.q
    phase = np.exp(1j * bands.k_grid[:, None] * j) / np.sqrt(p.L)  # (L, N)
    u = bands.states[:, :, t_index, :]  # (q, L, q)
    return u[:, :, sub] * phase[None, :, :]


def chunk_propagator(params, builder, ks, t_start, step, stride, dt, jump_times):
    """Product of the Magnus step unitaries of steps step..step+stride-1 per
    momentum, shape (L, q, q), solved for this one chunk alone."""
    from aah_pump import dynamics

    mids, dts, starts = dynamics._chunk_steps(t_start, step, stride, dt, jump_times)
    g = dynamics._magnus_generators(builder.batch(params, ks, mids), mids, dts, starts)
    return dynamics._chain_product(dynamics._step_unitaries(g, dts))
