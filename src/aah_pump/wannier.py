"""Wannier states, maximal localization, and spread decomposition.

A Wannier state of band m at cell R (1-based) is the discrete transform

    W_j = (1/L) * sum_k e^{ik(j - q(R-1))} e^{i theta(k)} u_{m,s(j)}(k),

over the L-point momentum grid.  Write site j = qc + s with c = 0..L-1
counting cells and s = 1..q the sublattice.  Because e^{ikqL} = 1 on the
ring grid, W_j depends on c and R only through d = (c - R + 1) mod L, so all
L states of a band are translates of one (L, q) cell transform

    w[d, s] = (1/L) * sum_k e^{ikqd} e^{i theta(k) + iks} u_{m,s}(k),

the inverse cell-axis map `model._from_momenta`, placed on every cell by
index.  A band's set costs an O(qL log L) transform plus an O(LN) gather,
and no site-space Bloch state is ever formed.  The gauge theta(k) minimizing
the spread Omega = <X^2> - <X>^2 is found by parallel transport: re-phase so
every link overlap <u(k_n)|u(k_{n+1})> is real positive, then spread the
residual loop phase uniformly, which makes the discrete Berry connection
k-uniform.  The spread splits into a gauge-invariant part Omega_I
(inter-band matrix elements of X) and a gauge-dependent part Omega_D
(intra-band, off-home-cell elements); Omega_D vanishes for the maximally
localized state.  The audit of a basis uses the same translation: the
members must be exact translates of the cell-1 states, so the Gram matrix
is block-circulant and its q cell-1 rows, O(qN^2), hold every entry.
Wannier states are built from a band solve at one time (`solve_bands` on a
one-point t-grid, t = 0 in every run); a solve at several times is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import (ModelParams, _closed_k_loop, _from_momenta, _k_derivative,
                    _k_loop_increments)
from .observables import position_moments
from .spectrum import BandSolution, BandTouchingError, _check_band


@dataclass
class WannierState:
    amplitudes: np.ndarray  # (N,) complex, unit norm
    band: int  # 0-based band index
    cell: int  # 1-based home cell


@dataclass
class SpreadReport:
    omega: float
    omega_I: float
    omega_D: float
    center: float  # <X> in sites


def _check_one_time(bands: BandSolution) -> None:
    """Raise ValueError unless the solve holds one time, whose states the
    Wannier transforms read."""
    if len(bands.t_grid) != 1:
        raise ValueError("Wannier states need a band solve at one time, "
                         f"got {len(bands.t_grid)} times")


def _cell_transform(bands: BandSolution, m: int, theta) -> np.ndarray:
    """Band m's Wannier amplitudes by cell offset from home, shape (L, q):
    w[d, s-1] = (1/L) sum_k e^{ikqd} e^{i theta(k) + iks} u_{m,s}(k)."""
    _check_one_time(bands)
    p = bands.params
    if np.shape(theta) != (p.L,):
        raise ValueError(f"theta must have one phase per momentum, shape ({p.L},)")
    s = np.arange(1, p.q + 1)
    a = np.exp(1j * (np.asarray(theta)[:, None] + np.outer(bands.k_grid, s)))
    return _from_momenta(a * bands.states[m, :, 0, :])


def _band_wannier_states(bands: BandSolution, m: int, theta) -> np.ndarray:
    """All L Wannier states of band m in gauge theta, shape (L, N), row R-1 for
    cell R: site qc + s of row R-1 is the cell transform w[(c - R + 1) mod L, s]."""
    w = _cell_transform(bands, m, theta)
    L = len(w)
    offsets = (np.arange(L) - np.arange(L)[:, None]) % L  # [R-1, c] -> d
    return np.take(w, offsets, axis=0).reshape(L, -1)


def wannier_from_bloch(
    bands: BandSolution,
    m: int,
    cell: int,
    theta: np.ndarray | None = None,
) -> WannierState:
    """Discrete Bloch-to-Wannier transform with gauge phases e^{i theta(k)}.

    Raises ValueError unless m lies in 0..q-1, cell in 1..L and the band
    solve holds one time."""
    _check_band(bands, m)
    L = bands.params.L
    if not 1 <= cell <= L:
        raise ValueError(f"cell must lie in 1..{L}, got {cell}")
    theta = np.zeros(L) if theta is None else theta
    # row cell-1 of the band's set: the transform translated by cell-1 cells
    amps = np.roll(_cell_transform(bands, m, theta), cell - 1, axis=0).ravel()
    return WannierState(amplitudes=amps, band=m, cell=cell)


def _link_overlaps(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Overlaps <u_n|u_{n+1}> around the momentum loop, the last linking the
    top of the zone back to k_0 + 2*pi/q."""
    ext = _closed_k_loop(params, u)
    return np.vecdot(ext[:-1], ext[1:])


def parallel_transport_gauge(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Gauge phases theta(k) that equalize all link phases around the loop.

    After re-phasing u_n -> e^{i theta_n} u_n, every overlap
    <u_n|u_{n+1}> (wrap link included) carries the identical phase Phi/L,
    where Phi is the loop Berry phase on its principal branch.
    """
    links = _link_overlaps(params, u)
    if np.min(np.abs(links)) < 1e-12:
        raise BandTouchingError("vanishing momentum-space link; cannot parallel transport")
    L = len(u)
    theta = np.zeros(L)
    args = np.angle(links)
    theta[1:] = -np.cumsum(args[:-1])
    # total loop phase (gauge invariant) on its principal branch
    loop_phase = float(np.angle(np.exp(1j * np.sum(args))))
    theta += loop_phase / L * np.arange(L)
    return theta


def mlws_gauge(bands: BandSolution, m: int) -> np.ndarray:
    """Transport gauge with the loop-phase branch fixed by recentering.

    Shifts theta by integer multiples of kq so the cell-R Wannier state is
    centered inside cell R's site range [q(R-1)+1, q(R-1)+q].  Raises
    ValueError unless m lies in 0..q-1 and the band solve holds one time.
    """
    _check_band(bands, m)
    _check_one_time(bands)
    p = bands.params
    anchor = p.L // 2 + 1
    theta = parallel_transport_gauge(p, bands.states[m, :, 0, :])
    state = wannier_from_bloch(bands, m, anchor, theta)
    center = position_moments(state.amplitudes)[1]
    shift = int(np.rint((p.q * (anchor - 1) + (p.q + 1) / 2.0 - center) / p.q))
    return theta - shift * bands.k_grid * p.q


def maximally_localize(
    bands: BandSolution,
    m: int,
    cell: int,
) -> tuple[WannierState, SpreadReport, np.ndarray]:
    """Maximally localized Wannier state of band m with home cell `cell`.

    Returns (state, spread report, theta).  The post-conditions Omega_D ~ 0
    and a k-uniform Berry connection hold by construction of the transport
    gauge; the spread audit over the full basis runs on every call.  Each
    call runs two cell transforms per band, one to recenter its gauge and one
    to lay out its L states, and gathers the complete (q, L, N) basis, O(qLN)
    in all; the audit adds an exact translate check, O(N^2), and q rows of
    the Gram matrix, O(qN^2).
    Raises ValueError unless m lies in 0..q-1, cell in 1..L and the band
    solve holds one time.
    """
    p = bands.params
    _check_band(bands, m)
    if not 1 <= cell <= p.L:
        raise ValueError(f"cell must lie in 1..{p.L}, got {cell}")
    thetas = [mlws_gauge(bands, b) for b in range(p.q)]
    basis = wannier_basis(bands, thetas)
    # a copy, so the state does not keep the whole basis alive
    state = WannierState(amplitudes=basis[m, cell - 1].copy(), band=m, cell=cell)
    report = spread_decomposition(state, basis)
    return state, report, thetas[m]


def wannier_basis(
    bands: BandSolution,
    thetas: np.ndarray | None = None,
) -> np.ndarray:
    """Complete orthonormal Wannier set, shape (q, L, N): band m, cell R.

    By default every band carries its recentered transport gauge; `thetas`
    (shape (q, L)) overrides the gauge per band.  Each band's L rows are
    gathered unchanged from one cell transform, so they are exact translates,
    as `spread_decomposition` requires.
    Raises ValueError unless thetas has shape (q, L) and the band solve
    holds one time.
    """
    q, L = bands.params.q, bands.params.L
    if thetas is None:
        thetas = [mlws_gauge(bands, m) for m in range(q)]
    elif np.shape(thetas) != (q, L):
        raise ValueError(f"thetas must hold one phase per band and momentum, shape ({q}, {L})")
    return np.stack([_band_wannier_states(bands, m, thetas[m]) for m in range(q)])


def spread_decomposition(state: WannierState, basis: np.ndarray) -> SpreadReport:
    """Literal spread sums over a complete Wannier basis.

    Omega_I collects |<W_m'(R)|X|W>|^2 over all cells of the other bands,
    Omega_D the same within the state's own band excluding its home cell;
    Omega is the squared width of `observables.position_moments`, taken about
    the centre, and must equal their sum.
    The basis must be a set of translates, as `wannier_basis` lays it out:
    member (m, R) equals member (m, 1) moved by q(R-1) sites, bit for bit.
    Its Gram matrix is then block-circulant, and the q rows of cell 1,
    O(qN^2), give the deviation from orthonormality of all N x N entries.
    Raises ValueError if state.band lies outside 0..q-1 or state.cell
    outside 1..L, if the basis is not a complete orthonormal set of
    translates, or if its (state.band, state.cell) member differs from the
    state (the sums are only meaningful for a member of the basis family).
    """
    q_bands, L, n = basis.shape
    if q_bands * L != n:
        raise ValueError("Wannier basis is incomplete: need q*L states on N = q*L sites")
    if not 0 <= state.band < q_bands:
        raise ValueError(f"state.band must lie in 0..{q_bands - 1}, got {state.band}")
    if not 1 <= state.cell <= L:
        raise ValueError(f"state.cell must lie in 1..{L}, got {state.cell}")
    # by cell c, row R-1 is row 0 at cell (c - R + 1) mod L: window L - R + 1
    # of row 0's doubled cell axis, read as a view
    cells = basis.reshape(q_bands, L, L, q_bands)
    doubled = np.concatenate([cells[:, 0], cells[:, 0]], axis=1)  # (q, 2L, q)
    windows = sliding_window_view(doubled, L, axis=1)  # [m, i, s, c] = doubled[m, i+c, s]
    if not np.array_equal(cells, windows[:, L:0:-1].swapaxes(2, 3)):
        raise ValueError(
            "Wannier basis is not a set of cell translates: every member must "
            "equal its band's cell-1 state moved by q sites per cell")
    flat = basis.reshape(q_bands * L, n)
    # <W_m(1)|W_m'(R')>; entry ((m,R),(m',R')) sums the same products as
    # ((m,1),(m',R'-R+1)), so these rows bound the whole Gram matrix
    gram = np.conj(basis[:, 0]) @ flat.T
    gram[np.arange(q_bands), np.arange(q_bands) * L] -= 1.0
    gram_dev = np.max(np.abs(gram))
    if gram_dev > 1e-10:
        raise ValueError(f"Wannier basis is not orthonormal: Gram deviation {gram_dev:.3e}")

    w = state.amplitudes
    member = np.abs(np.vdot(basis[state.band, state.cell - 1], w))
    if abs(member - 1.0) > 1e-8:
        raise ValueError(
            "basis does not contain the state in its band family; rebuild the "
            "basis with the state's gauge (|overlap| = %r)" % member
        )
    _, center, d_w = position_moments(w)
    center, omega = float(center), float(d_w) ** 2

    # |<W_m'(R)|X|W>|^2, flattened (m', R); conjugating the vector spares an N x N copy
    elements = np.abs(flat @ np.conj(np.arange(1, n + 1) * w)) ** 2
    elements = elements.reshape(q_bands, L)
    own = state.band
    omega_i = float(np.sum(elements) - np.sum(elements[own]))
    omega_d = float(np.sum(elements[own]) - elements[own, state.cell - 1])

    if abs(omega - (omega_i + omega_d)) > 1e-9 * max(1.0, abs(omega)):
        raise AssertionError(
            f"spread identity violated: Omega={omega!r}, "
            f"Omega_I+Omega_D={omega_i + omega_d!r}"
        )
    return SpreadReport(omega=omega, omega_I=omega_i, omega_D=omega_d, center=center)


def predict_dispersion(gamma: np.ndarray, k_grid: np.ndarray) -> float:
    """Gauge-dependent spread acquired over a cycle from the phase profile.

    Computes the variance of X = -d(gamma)/dk over the momentum grid, with
    the spectral derivative `model._k_derivative` that also gives the X_b and
    X_d of `dynamics.accumulate_phases`; it matches the discrete Fourier sum
    of the Wannier transform.  Raises if any neighboring increment, the seam
    link's on its principal branch, reaches pi, i.e. the input was not
    unwrapped.
    """
    gamma = np.asarray(gamma, dtype=float)
    k = np.asarray(k_grid, dtype=float)
    if gamma.shape != k.shape:
        raise ValueError("gamma and k_grid must have matching shapes")
    if np.max(np.abs(_k_loop_increments(gamma))) >= np.pi:
        raise ValueError(
            "gamma is not unwrapped: adjacent increments reach pi; "
            "refine the grid or unwrap the input"
        )
    x = -_k_derivative(gamma, k)
    return float(np.mean((x - np.mean(x)) ** 2))
