"""Site-resolved observables: density, mean position, spread, projections.

The position operator is X = sum_j j*n_j with 1-based site indices, so all
positions are reported in raw site units; shifts in cells divide by q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spectrum import BandSolution


@dataclass
class ObservableSample:
    t: float
    density: np.ndarray
    mean_x: float
    delta_p: float  # cells, relative to a caller-supplied reference
    d_w: float  # sites
    projections: dict = field(default_factory=dict)


def measure(
    state: np.ndarray,
    references: dict | None = None,
    t: float = 0.0,
    mean_x0: float | None = None,
    q: int = 1,
) -> ObservableSample:
    """Density, mean position, dispersion width, and |overlap|^2 projections.

    delta_p is (mean_x - mean_x0)/q in cells when mean_x0 is given, else 0.
    Raises on unnormalized input.
    """
    state = np.asarray(state)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"state is not normalized: ||state|| = {norm!r}")
    density, mean_x, d_w = position_moments(state)
    projections = {}
    if references:
        projections = {
            label: float(np.abs(np.vdot(ref, state)) ** 2)
            for label, ref in references.items()
        }
    delta_p = 0.0 if mean_x0 is None else float(mean_x - mean_x0) / q
    return ObservableSample(t=t, density=density, mean_x=float(mean_x),
                            delta_p=delta_p, d_w=float(d_w), projections=projections)


def position_moments(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Density, mean position <X> and width sqrt(<X^2> - <X>^2) over the last axis."""
    density = np.abs(states) ** 2
    j = np.arange(1, states.shape[-1] + 1)
    mean_x = density @ j
    d_w = np.sqrt(np.maximum(density @ (j * j) - mean_x**2, 0.0))
    return density, mean_x, d_w


def bloch_states_real_space(bands: BandSolution, t_index: int) -> np.ndarray:
    """All Bloch states psi_m(k) at one stored time as N-site vectors,
    shape (q, L, N)."""
    p = bands.params
    j = np.arange(1, p.n_sites + 1)
    sub = (j - 1) % p.q
    phase = np.exp(1j * bands.k_grid[:, None] * j) / np.sqrt(p.L)  # (L, N)
    u = bands.states[:, :, t_index, :]  # (q, L, q)
    return u[:, :, sub] * phase[None, :, :]


def band_population(state: np.ndarray, bands: BandSolution, t_index: int = 0) -> np.ndarray:
    """Per-band weights sum_k |<psi_m(k,t)|state>|^2; they sum to one."""
    psi = bloch_states_real_space(bands, t_index)  # (q, L, N)
    amps = np.einsum("mkn,n->mk", np.conj(psi), state)
    return np.sum(np.abs(amps) ** 2, axis=1)
