"""Band structure, Berry curvature, Chern numbers, and band flatness.

Eigen-solves run on the (k, t) grid of Bloch blocks.  Chern numbers use the
lattice field-strength construction: plaquette phases of normalized link
overlaps, which sum to 2*pi times an exact integer on any grid without band
touchings.  A band closing between grid points still gives an integer, so
`chern_number` refuses a band whose plaquette flux exceeds pi/4.  Flatness
ratios divide each bandwidth by the smallest adjacent band gap.

Cost model: a band solve diagonalizes L//2 + 1 of the L momenta.  The
cell-gauge blocks satisfy H(k)* = H(-k), so the site-gauge periodic parts
obey u(-k) = conj(u(k)) with equal energies; `solve_bands` diagonalizes one
momentum of each +-k pair (`model._reversed_k`), plus k = 0 and, for even L,
the zone edge k = pi/q, which are their own partners, and fills the other
half by conjugation.  On a whole-period grid of q*n intervals, where
t_{i+n} = t_i + T/q, it diagonalizes the first n times only: r q-ths of a
period later the chain is itself translated by b = r*p^-1 mod q sites, so

    E_m(k, t + r*T/q) = E_m(k, t),  u_m(k, t + r*T/q)[s] = e^{ikb} u_m(k, t)[(s+b) mod q],

and the gauge fix of `solve_bands` removes the phase e^{ikb}: the rest of
the grid copies energies and rolls components, the same roll at every k, so
it commutes with the +-k fill.  The same holds on a grid of r < q whole
q-ths.  Chern numbers and cycle phases therefore need only a strip one q-th
wide, [t0, t0 + T/q], whose closing time is the image of its first: every
plaquette and time link r q-ths on equals its match in the strip, so the
period's sums are q times the strip's (`chern_number`,
`dynamics.accumulate_phases`).  Bands and flatness write every time and keep
the whole grid.  The topology benchmark (bands, Chern numbers, flatness and
phases of both tunneling modes, the Chern refinement at L = 30 and 60)
solves 102,378 blocks for 205,020 grid points (585,660 when its Chern
numbers and phases read a whole period).  The t-grid is solved in
slices of about `model._BLOCKS_PER_SOLVE` blocks, the budget the Magnus
blocks of `dynamics` use too: per slice, one builder call, one batched
eigensolve by `model._hermitian_eigh`, which hands one real symmetric
tridiagonal stack to `np.linalg.eigh`, and one gauge fix, written into
outputs allocated once in their final layout.  So the temporaries are
bounded by the slice, not by the grid.  At L = 60 on the 961-time grid of
the Chern refinement a solve took 2.6 to 3.9 us per solved block against
5.2 us with one complex Hermitian eigh over the whole grid, and under
tracemalloc it peaked at 11.1 MB against 16.8 MB, 9.2 MB of which is the
result (2-core VM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (_BLOCKS_PER_SOLVE, ModelParams, _closed_k_loop, _hermitian_eigh,
                    _reversed_k, _translation, bloch_blocks_batch, cell_to_site_gauge,
                    k_grid)


# A band closing between grid points puts about pi/2 (a Dirac point shared by
# two bands) to pi into one plaquette; on the paper grid (L = 15, 240 times)
# the largest plaquette flux is 0.044.
MAX_PLAQUETTE_FLUX = np.pi / 4
GAP_TOLERANCE = 1e-6  # BandTouchingError at a gap this small, in units of |V0|


class BandTouchingError(RuntimeError):
    """Raised when the minimum inter-band gap falls below tolerance."""


@dataclass
class BandSolution:
    """Band energies and periodic Bloch parts on a (k, t) grid.

    energies : (q, L, M) real, ascending in the band index
    states : (q, L, M, q) complex; states[m, n, i] is the site-phase periodic
        part u_m(k_n, t_i) with psi_j = e^{ikj} u_{s(j)} / sqrt(L)

    Topology reads a grid over one period or over a strip one q-th of it
    wide (`period_copies`): the later q-ths of a period repeat the strip's
    plaquettes and time links, so a strip holds q times fewer states for the
    same Chern numbers and cycle phases.
    """

    params: ModelParams
    k_grid: np.ndarray
    t_grid: np.ndarray
    energies: np.ndarray
    states: np.ndarray

    @property
    def n_bands(self) -> int:
        return self.params.q

    def min_gap(self) -> float:
        return float(np.min(self.energies[1:] - self.energies[:-1]))

    def period_copies(self) -> int:
        """The copies of the t-grid that make up one period: 1 for a strictly
        increasing grid from t0 to t0 + T, q for one from t0 to t0 + T/q (a
        strip), and 0 for any other grid."""
        if not np.all(np.diff(self.t_grid) > 0):
            return 0
        span, T = self.t_grid[-1] - self.t_grid[0], self.params.period
        return next((copies for copies in (1, self.params.q)
                     if abs(span - T / copies) < 1e-9 * T), 0)


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


def _check_band(bands: BandSolution, m: int) -> None:
    """Raise ValueError unless band m lies in 0..q-1; -1 would index the top band."""
    if not 0 <= m < bands.n_bands:
        raise ValueError(f"band must lie in 0..{bands.n_bands - 1}, got {m}")


def default_topology_grid(params: ModelParams, n_t: int) -> np.ndarray:
    """Closed time grid with n_t >= 1 intervals covering one full period."""
    if n_t < 1:
        raise ValueError(f"n_t must be at least 1, got {n_t}")
    return np.linspace(0.0, params.period, n_t + 1)


def solve_bands(params: ModelParams, t_grid: np.ndarray) -> BandSolution:
    """Diagonalize the Bloch blocks on the full (k, t) grid.

    Eigenvectors are converted to the site-phase gauge and then rotated so
    the largest-magnitude component of each is real positive, which removes
    eigensolver phase nondeterminism.  The cell-gauge blocks satisfy
    H(-k) = conj(H(k)), so u(-k) = conj(u(k)) with equal energies: only the
    momenta n <= rev[n] are solved, one of each +-k pair plus the
    self-conjugate k = 0 and, for even L, k = pi/q, and each solution also
    fills its partner.  On a grid of n_qths*nq intervals spanning n_qths = 1..q
    q-ths of a period, one with t_grid[i + nq] = t_grid[i] + T/q to 8 ulps of
    T, only the first nq times are solved: the chain r q-ths later is itself
    translated by b = r*p^-1 mod q sites (`model._translation`), so time
    r*nq + i holds the energies of time i and the states
    u_m(k, t_i)[(s + b) mod q], whose global phase e^{ikb} the gauge fix
    removes.  The closing time of a whole period (n_qths = q, b = 0) is a copy
    of the first, and that of a strip one q-th wide (n_qths = 1) its image
    rolled by p^-1 mod q components.  The t-grid is solved in
    slices of about `model._BLOCKS_PER_SOLVE` blocks.  Raises ValueError
    unless t_grid is a nonempty 1-D array of finite times, and
    BandTouchingError if any inter-band gap drops to GAP_TOLERANCE * |V0|.
    """
    gap_tolerance = GAP_TOLERANCE * abs(params.V0)
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if t_grid.ndim != 1 or not t_grid.size:
        raise ValueError(f"t_grid must be a nonempty 1-D array, got shape {t_grid.shape}")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must hold finite times")
    ks = k_grid(params)
    q, rev = params.q, _reversed_k(params.L)
    own = np.flatnonzero(np.arange(params.L) <= rev)
    energies = np.empty((q, params.L, len(t_grid)))
    states = np.empty((q, params.L, len(t_grid), q), dtype=complex)
    # a grid of n_qths = 1..q q-ths: n_qths*nq intervals with
    # t_grid[i + nq] = t_grid[i] + T/q
    T = params.period
    n_qths = int(np.rint((t_grid[-1] - t_grid[0]) * q / T))
    nq, rest = divmod(len(t_grid) - 1, n_qths) if 1 <= n_qths <= q else (0, 0)
    qths = nq > 0 and not rest and np.all(
        np.abs(t_grid[nq:] - t_grid[:-nq] - T / q) <= 8 * np.finfo(float).eps * T)
    n_solved = nq if qths else len(t_grid)
    per_slice = max(1, _BLOCKS_PER_SOLVE // len(own))
    for lo in range(0, n_solved, per_slice):
        ts = slice(lo, min(lo + per_slice, n_solved))
        h = np.moveaxis(bloch_blocks_batch(params, ks[own], t_grid[ts]), (-2, -1), (0, 1))
        e_own, vecs = _hermitian_eigh(h.copy())  # vecs[:, m] is band m, (q, q, t, k)
        u_own = cell_to_site_gauge(params, ks[own, None], np.moveaxis(vecs, (0, 1), (-1, -2)))
        # fix the free phase: largest-|.| component made real positive
        idx = np.argmax(np.abs(u_own), axis=-1)
        anchor = np.take_along_axis(u_own, idx[..., None], axis=-1)[..., 0]
        u_own *= (np.conj(anchor) / np.abs(anchor))[..., None]
        # partners first, so a self-conjugate momentum keeps its own solution
        u_own = np.transpose(u_own, (2, 1, 0, 3))  # (band, k, t, component)
        states[:, rev[own], ts] = np.conj(u_own)
        states[:, own, ts] = u_own
        energies[:, rev[own], ts] = np.transpose(e_own)
        energies[:, own, ts] = np.transpose(e_own)
    if qths:
        # the images r q-ths on, the closing time (r = n_qths) included; one
        # component at a time, so the copy holds no temporary of a q-th's states
        for r in range(1, n_qths + 1):
            lo, hi = r * nq, min((r + 1) * nq, len(t_grid))
            b = _translation(params, r)
            energies[:, :, lo:hi] = energies[:, :, :hi - lo]
            for c in range(q):
                states[:, :, lo:hi, c] = states[:, :, :hi - lo, (c + b) % q]

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


def _check_torus(bands: BandSolution) -> None:
    """Raise ValueError unless the grid is the full momentum grid times a
    strictly increasing t-grid over one period or one q-th of it, whose
    copies hold two or more intervals of the period."""
    if bands.period_copies() * (len(bands.t_grid) - 1) < 2:
        raise ValueError("Chern numbers require a strictly increasing t-grid "
                         "over one period or one q-th of it")
    if len(bands.k_grid) != bands.params.L:
        raise ValueError("Chern numbers require the full L-point momentum grid")


def berry_curvature_grid(bands: BandSolution, m: int) -> np.ndarray:
    """Plaquette-resolved Berry curvature of band m over the (k, t) grid.

    Entry (n, i) is the phase of the oriented link product around the plaquette
    [k_n, k_{n+1}] x [t_i, t_{i+1}], with k_L = k_0 + 2*pi/q (`model._closed_k_loop`).
    On a whole-period grid the total divided by 2*pi is the integer Chern
    number.  A strip one q-th wide holds one of q equal copies of the torus:
    each plaquette r q-ths on equals its match in the strip (`solve_bands`),
    since the constant phase e^{2*pi*i*b/q} that the k loop's closing link
    picks up cancels inside it, so q times the strip's total is the same
    integer.  Orientation follows the curvature i(<d_t u|d_k u> - <d_k u|d_t u>).
    Raises ValueError unless m lies in 0..q-1 and the grid is one that
    `chern_number` takes.
    """
    _check_band(bands, m)
    _check_torus(bands)
    u = _closed_k_loop(bands.params, bands.states[m])  # (L+1, M, q)
    link_k = np.vecdot(u[:-1], u[1:])  # (L, M), conjugating the first
    link_t = np.vecdot(u[:, :-1], u[:, 1:])  # (L+1, M-1)
    if min(np.min(np.abs(link_k)), np.min(np.abs(link_t))) < 1e-8:
        raise BandTouchingError("vanishing link overlap; band subspace ill-defined on grid")
    w = link_k[:, :-1] * link_t[1:] * np.conj(link_k[:, 1:]) * np.conj(link_t[:-1])
    return np.angle(w)  # (L, M-1)


def chern_number(bands: BandSolution, m: int) -> int:
    """Integer Chern number of band m from the lattice field strength.

    C = copies * sum(F) / 2*pi over the grid's plaquettes F
    (`berry_curvature_grid`), with copies = 1 on a grid over one period and
    q on a strip over one q-th of it (`BandSolution.period_copies`).  The
    lattice sum is an integer on any grid, so a wrong answer looks valid;
    raises BandTouchingError when a plaquette holds a Berry flux above
    MAX_PLAQUETTE_FLUX, where the grid does not resolve the curvature, and
    ValueError unless m lies in 0..q-1 and the t-grid strictly increases over
    one period or one q-th of it.
    """
    f = berry_curvature_grid(bands, m)
    n, i = np.unravel_index(np.argmax(np.abs(f)), f.shape)
    if abs(f[n, i]) > MAX_PLAQUETTE_FLUX:
        raise BandTouchingError(
            f"band {m} plaquette at k={bands.k_grid[n]:.6f}, t={bands.t_grid[i]:.6f} "
            f"holds Berry flux {f[n, i]:.3f} beyond pi/4; a band closes between "
            "grid points or the grid is too coarse"
        )
    total = bands.period_copies() * np.sum(f) / (2.0 * np.pi)
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
