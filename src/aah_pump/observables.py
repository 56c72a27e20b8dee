"""Site-resolved observables: density, mean position, spread, band populations.

The position operator is X = sum_j j*n_j with 1-based site indices, so all
positions are reported in raw site units; shifts in cells divide by q.
"""

from __future__ import annotations

import numpy as np

from .spectrum import BandSolution


def position_moments(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density, mean position <X> and width sqrt(<X^2> - <X>^2) over the last axis."""
    density = np.abs(states) ** 2
    j = np.arange(1, states.shape[-1] + 1)
    mean_x = density @ j
    d_w = np.sqrt(np.maximum(density @ (j * j) - mean_x**2, 0.0))
    return density, mean_x, d_w


def band_population(state: np.ndarray, bands: BandSolution, t_index: int = 0) -> np.ndarray:
    """Per-band weights sum_k |<psi_m(k,t)|state>|^2; they sum to one.

    With site j = qc + s (s = 1..q), <psi_m(k)|state> is
    sum_s conj(u_{m,s}(k)) e^{-iks} sum_c e^{-ikqc} state_{qc+s} / sqrt(L):
    one FFT over cells of the state's (L, q) reshape, then a contraction per k.
    """
    p = bands.params
    cells = np.fft.fft(np.reshape(state, (p.L, p.q)), axis=0)[bands.fft_index]  # (L, q)
    s = np.arange(1, p.q + 1)
    cells = cells * np.exp(-1j * np.outer(bands.k_grid, s)) / np.sqrt(p.L)
    amps = np.einsum("mks,ks->mk", np.conj(bands.states[:, :, t_index, :]), cells)
    return np.sum(np.abs(amps) ** 2, axis=1)
