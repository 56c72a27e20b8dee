"""Commensurate Aubry-Andre-Harper chain with cyclically modulated parameters.

The lattice has L cells of q sites on a ring (N = q*L sites, numbered
j = 1..N).  On-site energies follow V_j(t) = V0*cos(2*pi*beta*j + phi(t))
with beta = p/q and phi(t) = omega*t + phi0.  Nearest-neighbor tunneling is
either a constant -J or the bond-modulated -J*sin(2*pi*beta*j + phi(t)).
Sublattices are labeled by s = ((j-1) mod q) + 1, so for q = 3 the sites
(3l-2, 3l-1, 3l) of cell l carry sublattice labels (1, 2, 3) = (A, B, C).

Every translation-invariant Hamiltonian of the package is a `HoppingTable`:
on-site energies per sublattice and bonds (s_to, s_from, a, amplitude), each
the hopping c^dag_{l+a,s_to} c_{l,s_from} plus its Hermitian conjugate, on a
batch of times.  `hopping_table` gives the chain's table from
`onsite_energy` and `tunneling` at s = 1..q.  `effective` builds the cycle
generator H_T with its one Schrieffer-Wolff routine on this table's
three-cell ring and reads the result back as a table.  `bloch_from_table`
and `ring_from_table` turn a table into Bloch blocks and dense ring
matrices.  `real_space_hamiltonian` stays site-indexed as the independent
dense reference.

Bloch reduction: with psi_j = e^{ikj} u_{s(j)} / sqrt(L) and u strictly
q-periodic, each quasi-momentum k of the ring gives a q x q Hermitian block.
`bloch_blocks` returns the cell-gauge matrices (plain intra-cell bonds,
wrap bond carrying e^{ikq}); the diagonal map w_s = e^{iks} u_s converts its
eigenvectors to the site-phase periodic parts used by the Wannier and Berry
machinery (see `spectrum.solve_bands`).  A q-th of a period later the chain
is itself translated by p^-1 mod q sites, and `_translated` carries its
blocks there, so `dynamics` solves one q-th of a pump period and
`spectrum.solve_bands` one q-th of a whole-period grid.

Site-to-momentum map, the one place the package goes between sites and
momenta: with site j = qc + s (cells c = 0..L-1, sublattices s = 1..q) and a
state reshaped to (L, q), `_to_momenta` gives sum_c e^{-ik_n qc} x_c for
every grid momentum k_n = 2*pi*w_n/(qL) as one FFT over cells, whose slot
w_n mod L holds momentum n (`_k_wavenumbers`); `_from_momenta` inverts it.
Divided by sqrt(L) it gives the cell-gauge Bloch components c_n of
psi_{qc+s} = sum_n e^{ik_n qc} c_n,s / sqrt(L).  `_closed_k_loop` closes the
momentum loop with u(k_0 + 2*pi/q) = diag(`bz_wrap_phases`) u(k_0),
`_k_loop_increments` steps around it, principal branch at the seam, and
`_k_derivative` differentiates a phase around it spectrally, the one
k-derivative of the package (the cycle-phase profiles of
`dynamics.accumulate_phases` and `wannier.predict_dispersion`).

Eigensolver: `_hermitian_eigh` diagonalizes every stack of Hermitian blocks
in the package, the band solves of `spectrum.solve_bands` and the Magnus
steps of `dynamics`, through one real `np.linalg.eigh` call per stack; both
solve about `_BLOCKS_PER_SOLVE` blocks per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np


class TunnelingMode(Enum):
    """The bonds of the chain.  SINE_MODULATED is the paper's suppression
    protocol: it switches off second- and third-order resonant tunneling."""

    UNIFORM = "uniform"
    SINE_MODULATED = "sine"


@dataclass(frozen=True)
class ModelParams:
    """Static parameters of the modulated chain.

    J : tunneling scale (energy units)
    V0 : on-site modulation amplitude
    p, q : coprime integers defining beta = p/q (q >= 2)
    phi0 : initial modulation phase (radians)
    omega : ramping speed (radians per unit time); period T = 2*pi/omega
    L : number of cells (>= 3); total sites N = q*L
    """

    J: float = 1.0
    V0: float = 30.0
    p: int = 1
    q: int = 3
    phi0: float = 0.0
    omega: float = 0.01
    L: int = 15
    tunneling_mode: TunnelingMode = TunnelingMode.UNIFORM

    def __post_init__(self):
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        if self.p < 1:
            raise ValueError(f"p must be a positive integer, got {self.p}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got p={self.p}, q={self.q}")
        if self.L < 3:
            raise ValueError(f"L must be >= 3, got {self.L}")
        for name in ("J", "V0", "phi0", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def beta(self) -> float:
        return self.p / self.q

    @property
    def n_sites(self) -> int:
        return self.q * self.L

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega

    def phase(self, t) -> float:
        """Modulation phase phi(t) = omega*t + phi0."""
        return self.omega * np.asarray(t) + self.phi0


def site_index(cell: int, sublattice: int, q: int) -> int:
    """1-based site index j = q*(cell-1) + sublattice (cells and sublattices 1-based)."""
    return q * (cell - 1) + sublattice


def onsite_energy(params: ModelParams, j: int, t: float) -> float:
    """On-site energy V_j(t) = V0*cos(2*pi*beta*j + phi(t))."""
    j = np.asarray(j)
    if np.any(j < 1) or np.any(j > params.n_sites):
        raise IndexError(f"site index must lie in 1..{params.n_sites}")
    angle = 2.0 * np.pi * params.beta * j + params.phase(t)
    return params.V0 * np.cos(angle)


def tunneling(params: ModelParams, j: int, t: float) -> float:
    """Strength of bond j (connecting sites j and j+1, periodic wrap at j = N):
    -J in UNIFORM mode, -J*sin(2*pi*beta*j + phi(t)) in SINE_MODULATED mode."""
    j = np.asarray(j)
    if np.any(j < 1) or np.any(j > params.n_sites):
        raise IndexError(f"bond index must lie in 1..{params.n_sites}")
    if params.tunneling_mode is TunnelingMode.UNIFORM:
        return -params.J * np.ones(np.broadcast_shapes(j.shape, np.shape(t)))
    angle = 2.0 * np.pi * params.beta * j + params.phase(t)
    return -params.J * np.sin(angle)


def real_space_hamiltonian(params: ModelParams, t: float) -> np.ndarray:
    """Dense N x N Hamiltonian on the ring at time t.

    Diagonal holds `onsite_energy`; entries (j, j+1) hold `tunneling` on bond
    j, with the periodic bond (N, 1) closing the ring.
    """
    n = params.n_sites
    j = np.arange(1, n + 1)
    h = np.zeros((n, n), dtype=complex)
    h[j - 1, j - 1] = onsite_energy(params, j, t)
    hop = tunneling(params, j, t)
    rows = j - 1
    cols = j % n  # bond j couples sites j and j+1 with wrap N -> 1
    h[rows, cols] += hop
    h[cols, rows] += np.conj(hop)
    return h


class HoppingTable(NamedTuple):
    """A translation-invariant Hamiltonian on a batch of T times.

    onsite : (T, q) sublattice energies
    bonds : tuples (s_to, s_from, a, amp) with 0-based sublattices, cell
        offset a and amplitude amp of shape (T,): the hopping
        amp * c^dag_{l+a,s_to} c_{l,s_from} plus its Hermitian conjugate
    """

    onsite: np.ndarray
    bonds: tuple


def hopping_table(params: ModelParams, ts: np.ndarray) -> HoppingTable:
    """The chain on a time batch: bond s joins sublattice s to s+1 in the same
    cell, and bond q joins sublattice q to sublattice 1 of the next cell."""
    q = params.q
    ts = np.asarray(ts, dtype=float)[:, None]
    s = np.arange(1, q + 1)
    hop = tunneling(params, s, ts)  # (T, q)
    bonds = [(b - 1, b, 0, hop[:, b - 1]) for b in range(1, q)]
    bonds.append((q - 1, 0, -1, hop[:, q - 1]))
    return HoppingTable(onsite_energy(params, s, ts), tuple(bonds))


def bloch_from_table(table: HoppingTable, k: np.ndarray) -> np.ndarray:
    """Cell-gauge Bloch blocks, shape (T, len(k), q, q): each bond adds
    amp*exp(-ikqa) at (s_to, s_from) and its conjugate at (s_from, s_to)."""
    n_t, q = table.onsite.shape
    k = np.asarray(k, dtype=float)
    h = np.zeros((n_t, len(k), q, q), dtype=complex)
    s = np.arange(q)
    h[..., s, s] = table.onsite[:, None, :]
    for s_to, s_from, a, amp in table.bonds:
        term = amp[:, None] * np.exp(-1j * k * q * a)
        h[..., s_to, s_from] += term
        h[..., s_from, s_to] += np.conj(term)
    return h


def ring_from_table(table: HoppingTable, L: int) -> np.ndarray:
    """Dense matrices on the ring of L cells, shape (T, q*L, q*L), with
    0-based site index q*l + s for sublattice s of cell l."""
    n_t, q = table.onsite.shape
    cells = np.arange(L)
    sites = np.arange(q * L)
    h = np.zeros((n_t, q * L, q * L), dtype=complex)
    h[:, sites, sites] = np.tile(table.onsite, L)
    for s_to, s_from, a, amp in table.bonds:
        rows, cols = q * ((cells + a) % L) + s_to, q * cells + s_from
        h[:, rows, cols] += amp[:, None]
        h[:, cols, rows] += np.conj(amp)[:, None]
    return h


def _k_wavenumbers(L: int) -> np.ndarray:
    """Integer wavenumbers w with k = 2*pi*w/(q*L), reduced to (-L/2, L/2]."""
    w = np.arange(L)
    w = np.where(w > L // 2, w - L, w)
    return np.sort(w)


def _to_momenta(x: np.ndarray) -> np.ndarray:
    """Cell-axis DFT in `k_grid` order: y[..., n, s] = sum_c e^{-i k_n q c}
    x[..., c, s] for x of shape (..., L, q), cells c = 0..L-1."""
    L = x.shape[-2]
    return np.fft.fft(x, axis=-2)[..., _k_wavenumbers(L) % L, :]


def _from_momenta(y: np.ndarray) -> np.ndarray:
    """Inverse of `_to_momenta`: x[..., c, s] = (1/L) sum_n e^{i k_n q c} y[..., n, s]."""
    L = y.shape[-2]
    return np.fft.ifft(y[..., np.argsort(_k_wavenumbers(L) % L), :], axis=-2)


def _reversed_k(L: int) -> np.ndarray:
    """Grid index of -k for each grid momentum k, modulo 2*pi/q.  For even L
    the zone edge k = pi/q is its own partner, as is k = 0."""
    w = _k_wavenumbers(L)
    return (-w - w[0]) % L


def k_grid(params: ModelParams) -> np.ndarray:
    """The L ring momenta 2*pi*n/(q*L) reduced to (-pi/q, pi/q], ascending."""
    return 2.0 * np.pi * _k_wavenumbers(params.L) / (params.q * params.L)


def bloch_blocks(params: ModelParams, k: np.ndarray, t: float) -> np.ndarray:
    """Cell-gauge Bloch matrices for an array of momenta, shape (len(k), q, q)."""
    return bloch_blocks_batch(params, k, np.asarray([t]))[0]


def bloch_blocks_batch(params: ModelParams, k: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Cell-gauge Bloch matrices on a time batch, shape (len(ts), len(k), q, q)."""
    return bloch_from_table(hopping_table(params, ts), k)


# builders expose their time-batched form through a `batch` attribute
bloch_blocks.batch = bloch_blocks_batch


def _translation(params: ModelParams, r: int) -> int:
    """The b = r*p^-1 mod q sites by which the chain r q-ths of a period later
    is the chain translated (see `_translated`)."""
    return r * pow(params.p, -1, params.q) % params.q


def _translated(params: ModelParams, h: np.ndarray, k: np.ndarray, r: int) -> np.ndarray:
    """Cell-gauge blocks h(t) of the chain, shape (..., len(k), q, q), carried
    to h(t + r*T/q); the same map carries a step unitary or a product of them.

    The drive enters only as 2*pi*beta*j + phi(t), and phi(t + T/q) = phi(t) +
    2*pi/q = phi(t) + 2*pi*beta*a with a = p^-1 mod q, so V_j and bond j at
    t + T/q are V_{j+a} and bond j+a at t: H(t + T/q)[j, j'] = H(t)[j+a, j'+a],
    for both tunneling modes and any phi0.  On the Bloch state
    psi_{qc+s+1} = e^{ikqc} u_s (0-based s) the translation by b sites reads
    u_s -> d_s u_{(s+b) mod q}, with d_s = e^{ikq} where s + b >= q and 1
    otherwise, so

        H_k(t + T/q)[s, s'] = d_s H_k(t)[(s+a) mod q, (s'+a) mod q] conj(d_s').

    r q-ths translate by r*a sites; a whole cell of it multiplies every
    component by e^{ikq} and cancels, so b = r*a mod q (`_translation`).  An
    eigenvector w of H_k(t) goes to d_s w_{(s+b) mod q}; in the site-phase
    gauge u_s = e^{-ik(s+1)} w_s of `cell_to_site_gauge` that is
    e^{ikb} u_{(s+b) mod q}, a roll of the components times a global phase.
    """
    q, b = params.q, _translation(params, r)
    s = np.arange(q)
    d = np.where(s + b >= q, np.exp(1j * q * np.asarray(k))[:, None], 1.0)  # (len(k), q)
    perm = (s + b) % q
    return d[:, :, None] * h[..., perm[:, None], perm] * np.conj(d)[:, None, :]


def cell_to_site_gauge(params: ModelParams, k: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Convert cell-gauge eigenvectors w to site-phase periodic parts u.

    u_s = e^{-iks} w_s, so that psi_j = e^{ikj} u_{s(j)} / sqrt(L) solves the
    ring eigenproblem.  `w` has shape (..., q) with momenta broadcast along
    the leading axes of `k`.
    """
    s = np.arange(1, params.q + 1)
    phases = np.exp(-1j * np.asarray(k)[..., None] * s)
    return w * phases


def bz_wrap_phases(params: ModelParams) -> np.ndarray:
    """Component phases relating u(k + 2*pi/q) = diag(e^{-i 2*pi s/q}) u(k)."""
    s = np.arange(1, params.q + 1)
    return np.exp(-2j * np.pi * s / params.q)


def _closed_k_loop(params: ModelParams, u: np.ndarray) -> np.ndarray:
    """Site-gauge parts u over the k grid (axis 0, components last) extended by
    u(k_0 + 2*pi/q), which closes the momentum loop: shape (L+1, ..., q)."""
    return np.concatenate([u, u[:1] * bz_wrap_phases(params)], axis=0)


def _k_loop_increments(values: np.ndarray) -> np.ndarray:
    """Increments values[n+1] - values[n] around the momentum loop, the last
    from k_{L-1} back to k_0, which takes the principal branch."""
    inc = np.append(np.diff(values), values[0] - values[-1])
    inc[-1] = np.angle(np.exp(1j * inc[-1]))
    return inc


def _k_derivative(values: np.ndarray, k: np.ndarray) -> np.ndarray:
    """d(values)/dk on the momentum grid `k`, for a phase unwrapped along the
    grid: the derivative matched to the discrete Fourier sums of the Wannier
    transform.  The winding around the loop (a multiple of 2*pi, with the seam
    increment on its principal branch) is removed as a linear ramp, the
    periodic remainder is differentiated by FFT, and the ramp slope is
    restored."""
    dk = k[1] - k[0]
    slope = np.sum(_k_loop_increments(values)) / (len(values) * dk)
    residual = values - slope * (k - k[0])  # periodic over the zone
    freqs = 2.0 * np.pi * np.fft.fftfreq(len(values), d=dk)
    return np.real(np.fft.ifft(1j * freqs * np.fft.fft(residual))) + slope


# Bloch blocks per batched eigensolve, the one budget that governs both block
# solvers: `dynamics` solves _BLOCKS_PER_SOLVE // L consecutive Magnus steps
# together, 120 at L = 15 (five paper chunks, or 20 at omega = 0.05), and
# `spectrum.solve_bands` this many (k, t) blocks per slice of its t-grid.
# Larger blocks cut per-call overhead but hold more step-sized temporaries;
# at this size a one-cycle paper run peaks under tracemalloc at 2.4 MB, 0.86 MB
# of it its period's chunk propagators.
_BLOCKS_PER_SOLVE = 1800


def _hermitian_eigh(h: np.ndarray) -> tuple:
    """Eigenvalues and eigenvectors of a Hermitian stack laid out matrix axes
    first, (d, d, ...), from one real `np.linalg.eigh` call.

    d - 2 Householder reflections P_j = I - tau_j v_j v_j^dagger, each a
    rank-2 update of the trailing block, bring every matrix to Hermitian
    tridiagonal form (Golub & Van Loan, Matrix Computations, sec. 8.3); the
    diagonal phases D, with D_{j+1} = D_j times the phase of subdiagonal
    entry j, make it the real symmetric tridiagonal T = D^dagger Q^dagger H Q D,
    Q = P_0 ... P_{d-3}, and eigh's eigenvectors W of T give V = Q D W.  A
    column that is already reduced takes no reflection, and a zero subdiagonal
    entry, as where a sine-modulated bond vanishes, the phase 1.  V is written
    over h, which must be a writable complex array, with h[:, m] the
    eigenvector of eigenvalue m; the eigenvalues, ascending, have shape
    (..., d).  The largest temporaries are T and W, real, each half the size
    of h, and the (d-1) x d update of the last back-transformation step.
    """
    d = h.shape[0]
    reflectors = []
    for j in range(d - 2):
        x = h[j + 1:, j]  # the column below the diagonal, reduced to (alpha, 0, ...)
        tail = np.sum(x[1:].real ** 2 + x[1:].imag ** 2, axis=0)
        reflect = tail > 0
        r0 = np.abs(x[0])
        norm = np.sqrt(r0 * r0 + tail)
        minus_alpha = np.divide(x[0], r0, out=np.ones_like(x[0]), where=r0 > 0) * norm
        tau = np.divide(1.0, norm * (norm + r0), out=np.zeros_like(norm), where=reflect)
        v = x.copy()
        v[0] += minus_alpha  # x - alpha e_0, without cancellation
        # P A P = A - v w^dagger - w v^dagger on the trailing block A, with
        # w = p - (tau/2)(v^dagger p) v and p = tau A v
        a = h[j + 1:, j + 1:]
        w = tau * np.einsum("rc...,c...->r...", a, v)
        w -= 0.5 * tau * np.einsum("r...,r...->...", v.conj(), w).real * v
        # conjugations in place: a broadcast product with a fresh temporary
        # operand runs several times slower
        vw = np.multiply(v[:, None], np.conjugate(w, out=w))
        a -= vw
        a -= np.swapaxes(np.conjugate(vw, out=vw), 0, 1)
        del w, vw
        np.negative(minus_alpha, out=x[0], where=reflect)
        x[1:] = 0
        np.conjugate(x, out=h[j, j + 1:])
        reflectors.append((j, v, tau))
    sub = np.moveaxis(np.diagonal(h, -1), -1, 0)  # (d-1, ...)
    r = np.abs(sub)
    delta = np.ones((d,) + r.shape[1:], dtype=complex)
    np.divide(sub, r, out=delta[1:], where=r > 0)
    for j in range(1, d - 1):
        delta[j + 1] *= delta[j]
    # the lower triangle, which eigh reads
    i = np.arange(d)
    t = np.zeros(h.shape[2:] + (d, d))
    t[..., i, i] = np.diagonal(h).real
    t[..., i[1:], i[:-1]] = np.moveaxis(r, 0, -1)
    evals, w = np.linalg.eigh(t)
    del t
    np.multiply(np.moveaxis(w, (-2, -1), (0, 1)), delta[:, None], out=h)
    del w
    for j, v, tau in reversed(reflectors):
        rows = h[j + 1:]
        s = np.einsum("r...,rc...->c...", v.conj(), rows)
        v *= tau
        rows -= np.multiply(v[:, None], s)
    return evals, h
