"""Literal site-space formulas that the library evaluates by faster routes."""

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
