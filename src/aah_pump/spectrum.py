"""Band structure, Berry curvature, Chern numbers, and band flatness.

Eigen-solves run on the (k, t) grid of Bloch blocks.  Chern numbers use the
lattice field-strength construction: plaquette phases of normalized link
overlaps, which sum to 2*pi times an exact integer on any grid without band
touchings.  Flatness ratios divide each bandwidth by the smallest adjacent
band gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, bloch_blocks_batch, bz_wrap_phases, cell_to_site_gauge, k_grid


class BandTouchingError(RuntimeError):
    """Raised when the minimum inter-band gap falls below tolerance."""


@dataclass
class BandSolution:
    """Band energies and periodic Bloch parts on a (k, t) grid.

    energies : (q, L, M) real, ascending in the band index
    states : (q, L, M, q) complex; states[m, n, i] is the site-phase periodic
        part u_m(k_n, t_i) with psi_j = e^{ikj} u_{s(j)} / sqrt(L)
    """

    params: ModelParams
    k_grid: np.ndarray
    t_grid: np.ndarray
    energies: np.ndarray
    states: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.params.q

    @property
    def fft_index(self) -> np.ndarray:
        """Slot of each k_n = 2*pi*w_n/(qL) in an FFT over the L cells, w_n mod L:
        sum_c e^{-ik_n qc} x_c is np.fft.fft(x)[fft_index[n]]."""
        p = self.params
        return np.rint(self.k_grid * p.q * p.L / (2.0 * np.pi)).astype(int) % p.L

    def min_gap(self) -> float:
        return float(np.min(self.energies[1:] - self.energies[:-1]))

    def spans_period(self, rtol: float = 1e-9) -> bool:
        span = self.t_grid[-1] - self.t_grid[0]
        return abs(span - self.params.period) < rtol * self.params.period


@dataclass
class FlatnessReport:
    """Per-time gaps G_m, bandwidths W_m, and flatness ratios delta_m.

    gaps : (q-1, M); gaps[m] = min_k(E_{m+1,k} - E_{m,k})
    widths : (q, M); widths[m] = max_k E_m - min_k E_m
    ratios : (q, M); widths over the smallest adjacent gap
    """

    t_grid: np.ndarray
    phases: np.ndarray
    gaps: np.ndarray
    widths: np.ndarray
    ratios: np.ndarray


def default_topology_grid(params: ModelParams, n_t: int = 240) -> np.ndarray:
    """Closed time grid with n_t intervals covering one full period."""
    return np.linspace(0.0, params.period, n_t + 1)


def solve_bands(
    params: ModelParams,
    t_grid: np.ndarray,
    gap_tolerance: float | None = None,
) -> BandSolution:
    """Diagonalize the Bloch blocks on the full (k, t) grid.

    Eigenvectors are converted to the site-phase gauge and then rotated so
    the largest-magnitude component of each is real positive, which removes
    eigensolver phase nondeterminism.  Raises BandTouchingError if any
    inter-band gap drops below `gap_tolerance` (default 1e-6 * V0).
    """
    if gap_tolerance is None:
        gap_tolerance = 1e-6 * abs(params.V0)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    ks = k_grid(params)
    # vecs[..., :, m] is band m
    energies, vecs = np.linalg.eigh(bloch_blocks_batch(params, ks, t_grid))

    u = cell_to_site_gauge(params, ks[None, :, None], np.transpose(vecs, (0, 1, 3, 2)))
    # fix the free phase: largest-|.| component made real positive
    idx = np.argmax(np.abs(u), axis=-1)
    anchor = np.take_along_axis(u, idx[..., None], axis=-1)[..., 0]
    u = u * (np.conj(anchor) / np.abs(anchor))[..., None]

    energies = np.transpose(energies, (2, 1, 0))  # (q, L, M)
    states = np.transpose(u, (2, 1, 0, 3))  # (q, L, M, q)

    gaps = energies[1:] - energies[:-1]
    if gaps.size and np.min(gaps) <= gap_tolerance:
        m, n, i = np.unravel_index(np.argmin(gaps), gaps.shape)
        raise BandTouchingError(
            f"band touching: gap {gaps[m, n, i]:.3e} <= tolerance "
            f"{gap_tolerance:.3e} between bands {m} and {m + 1} at "
            f"k={ks[n]:.6f}, t={t_grid[i]:.6f}"
        )

    for arr in (energies, states):
        arr.flags.writeable = False
    return BandSolution(params=params, k_grid=ks, t_grid=t_grid,
                        energies=energies, states=states)


def _closed_loop_states(bands: BandSolution, m: int) -> np.ndarray:
    """Band-m states extended by the wrapped k = k_0 + 2*pi/q point,
    shape (L+1, M, q)."""
    u = bands.states[m]  # (L, M, q)
    wrapped = u[:1] * bz_wrap_phases(bands.params)[None, None, :]
    return np.concatenate([u, wrapped], axis=0)


def _check_torus(bands: BandSolution) -> None:
    if len(bands.t_grid) < 3 or not bands.spans_period():
        raise ValueError("Chern numbers require a t-grid covering one full period")
    if len(bands.k_grid) != bands.params.L:
        raise ValueError("Chern numbers require the full L-point momentum grid")


def berry_curvature_grid(bands: BandSolution, m: int) -> np.ndarray:
    """Plaquette-resolved Berry curvature of band m over the (k, t) torus.

    Entry (n, i) is the phase of the oriented link product around the
    plaquette [k_n, k_{n+1}] x [t_i, t_{i+1}]; the total divided by 2*pi is
    the integer Chern number.  Orientation follows the curvature
    i(<d_t u|d_k u> - <d_k u|d_t u>).
    """
    _check_torus(bands)
    u = _closed_loop_states(bands, m)  # (L+1, M, q)
    link_k = np.einsum("nms,nms->nm", np.conj(u[:-1]), u[1:])  # (L, M)
    link_t = np.einsum("nms,nms->nm", np.conj(u[:, :-1]), u[:, 1:])  # (L+1, M-1)
    if min(np.min(np.abs(link_k)), np.min(np.abs(link_t))) < 1e-8:
        raise BandTouchingError("vanishing link overlap; band subspace ill-defined on grid")
    w = link_k[:, :-1] * link_t[1:] * np.conj(link_k[:, 1:]) * np.conj(link_t[:-1])
    return np.angle(w)  # (L, M-1)


def chern_number(bands: BandSolution, m: int) -> int:
    """Integer Chern number of band m from the lattice field strength."""
    total = np.sum(berry_curvature_grid(bands, m)) / (2.0 * np.pi)
    c = int(np.rint(total))
    if abs(total - c) > 1e-6:
        raise BandTouchingError(
            f"lattice curvature sum {total:.3e} is not an integer; grid too coarse"
        )
    return c


def flatness(bands: BandSolution) -> FlatnessReport:
    """Gaps, bandwidths, and flatness ratios per time sample.

    delta_m = W_m / min(adjacent gaps): edge bands use their single adjacent
    gap, interior bands the smaller of the two.
    """
    e = bands.energies  # (q, L, M)
    gaps = np.min(e[1:] - e[:-1], axis=1)  # (q-1, M)
    widths = np.max(e, axis=1) - np.min(e, axis=1)  # (q, M)
    ratios = np.empty_like(widths)
    for m in range(bands.n_bands):
        adjacent = gaps[max(m - 1, 0):m + 1]
        ratios[m] = widths[m] / np.min(adjacent, axis=0)
    return FlatnessReport(
        t_grid=bands.t_grid,
        phases=np.mod(bands.params.phase(bands.t_grid), 2.0 * np.pi),
        gaps=gaps,
        widths=widths,
        ratios=ratios,
    )
