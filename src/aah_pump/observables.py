"""Site-resolved observables: density, mean position, spread, band populations.

The position operator is X = sum_j j*n_j with 1-based site indices, so all
positions are reported in raw site units; shifts in cells divide by q.
"""

from __future__ import annotations

import numpy as np

from .model import _to_momenta, cell_to_site_gauge
from .spectrum import BandSolution


def position_moments(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density, mean position <X> and width sqrt(<(X - <X>)^2>) over the last axis.

    The width is taken about the centre: <X^2> - <X>^2 would cancel the digits
    of <X>^2 ~ N^2, about 3e-10 sites of a narrow state's width at N = 45.
    """
    density = np.abs(states) ** 2
    j = np.arange(1, states.shape[-1] + 1)
    mean_x = density @ j
    d_w = np.sqrt(np.sum(density * (j - np.expand_dims(mean_x, -1)) ** 2, axis=-1))
    return density, mean_x, d_w


def band_population(states: np.ndarray, bands: BandSolution) -> np.ndarray:
    """Per-band weights sum_k |<psi_m(k, t_i)|states[i]>|^2, shape (M, q), for
    one state per time t_i of `bands.t_grid`; each row sums to one.

    With site j = qc + s (s = 1..q), <psi_m(k)|state> is
    sum_s conj(u_{m,s}(k)) e^{-iks} sum_c e^{-ikqc} state_{qc+s} / sqrt(L):
    the cell-axis map `model._to_momenta` of the states' (M, L, q) reshape,
    the phases e^{-iks} of `model.cell_to_site_gauge`, then a contraction per k.
    """
    p = bands.params
    cells = _to_momenta(np.reshape(states, (-1, p.L, p.q)))  # (M, L, q)
    cells = cell_to_site_gauge(p, bands.k_grid, cells) / np.sqrt(p.L)
    # conjugate overlaps, of equal moduli, spare a copy of the band states
    amps = np.einsum("mkis,iks->imk", bands.states, np.conj(cells))
    return np.sum(np.abs(amps) ** 2, axis=2)
