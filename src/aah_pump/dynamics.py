"""Adiabatic time evolution and the three pumping protocols.

The integrator is the fourth-order Magnus step (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009)): a step of width h applies the exact unitary
exp(-i*h*G) of one Hermitian generator

    G = H + (h^2/24) H'' + i (h^2/12) [H, H'],

with H, H' and H'' at the step's midpoint.  H is built there; H' and H''
come from the quadratic through that midpoint and its two neighbours in the
same smooth piece, central inside the piece and one-sided at its ends, so a
step costs one Hamiltonian and one eigensolve, as a midpoint step does.  A
piece breaks only where H may jump: at the jumps of H, where a step is
split, and at the ends of a span that is not whole periods.  The jumps are
stated once, as the times within one period (`jump_times`), since every H
here repeats with its period T, and `evolve` repeats them every period.  A
span of whole periods is periodic, and its piece runs round its ends: the
first step reads the step before the span from H itself, H(t_start - h/2) =
H(t_end - h/2), and the last step the one after it.  Under the echo each
period is a loop of H or of -H, periodic in its own right.  A piece of fewer
than three steps keeps G = H.  How the steps are grouped, into samples or
into solve blocks, changes no stencil, so the state does not depend on how
many samples are recorded, nor a one-period run on where it starts.
Because every Hamiltonian here is translation invariant on the ring, the
unitary factorizes over the L momentum blocks, so steps are computed in the
Bloch basis from batched eigensolves of q x q generators by
`model._hermitian_eigh`, the package's one eigensolver of Hermitian stacks;
this is the same unitary as the dense real-space reference
`tests/oracles.evolve_dense`, which builds G from N x N matrices with the
same pieces and solves them with the same eigensolver.
A Bloch builder is called as builder(params, k, t) and carries its
time-batched form builder.batch(params, k, ts), which `evolve` calls once
per block of steps it solves; `dt_max` probes the per-time form once per
(params, builder).  `model.bloch_blocks` and
`effective.effective_bloch_blocks` are the two builders.  Both return the
matrix axes last, (..., q, q); the step kernels take them first.

The step cap is dt_max = 2/max_t ||H(t)||_2; a run is `samples` chunks of
at least three equal whole steps within it, 400 chunks of 24 steps (9,600
steps) per cycle at paper parameters.  Each step is exactly unitary, so the
norm drifts only by round-off, linear in the step count, and the state error
falls about 16x per halving of dt.

Cost model: a run pays for one period of eigensolves, however many periods
it spans, and the chain's own Hamiltonian for one q-th of one.  H(t + T) =
H(t), so the chunk propagators of the first period serve every later one;
and the cell-gauge blocks satisfy H(k)* = H(-k), so a sign-reversed period
applies conj(U_chunk(-k)) of the forward one, since G[-H](k) =
-conj(G[H](-k)); `model._reversed_k` indexes -k, as it does for the paired
band solve of `spectrum.solve_bands`.  This agrees to rounding with solving
each period afresh from the state the one before ends in.  Spans that are
not a whole number n >= 1 of periods, or whose sample count is not a
multiple of n, solve every step of the span.
Within a period the chain repeats up to a lattice translation: the drive
enters only as 2*pi*beta*j + phi(t), so H(t + T/q) is H(t) translated by
p^-1 mod q sites, and `model._translated` carries blocks, step unitaries and
their products r q-ths ahead.  With m steps per q-th, step r*m + i of the
period, stencil and all, is thus the image of step i of the first q-th, the
period's first and last step included, since the period's piece runs round
its ends.  `_period_propagators` solves the first q-th alone when `evolve`
propagates the chain itself (no `bloch_builder`, no `jump_times`) over whole
periods whose steps per period are a multiple of q: a paper period is
3,200 distinct steps, 48,000 3 x 3 eigensolves instead of 144,000, and a
two-cycle run costs the same.  It agrees to rounding with solving every step
of the period.  Every other run solves each step of its first period, or of
its span: a given builder (H_T, or any wrapper of the chain), jumps,
partial spans, and step counts that are not a multiple of q, such as
effective-compare's 2,000 steps per period at omega = 0.05.
Either unit is solved by the one `_period_propagators`, in blocks of
_BLOCKS_PER_SOLVE // L consecutive steps (120 at L = 15: 80 blocks per
paper period, 27 per q-th).  A block places its steps on the run's one grid,
split at jumps, builds H through one `builder.batch` call at them and at one
neighbouring step on each side (none beyond the ends of a span that is not
whole periods), makes one generator pass and one batched eigensolve, and
folds its step unitaries, image by image, into the products of the chunk
segments they fall in (a chunk that a q-th edge cuts has two).  So a run
holds its period's propagators (samples x L x q x q, 0.86 MB at paper
parameters) and one block at a time.
The eigensolve reduces each generator to a real symmetric tridiagonal
matrix by one Householder reflection (q = 3) and a diagonal phase, and
hands that real stack to one `np.linalg.eigh` call.
The state is carried as cell-gauge Bloch components, (L, q), from
`model._to_momenta`; each chunk applies its propagator per momentum, and all
samples go back to sites in one `model._from_momenta` after the chunk loop.
The step kernels (`_magnus_generators`, `_step_unitaries`, `_chain_product`)
take stacks with the matrix axes first, (q, q, step, L) here and
(N, N, step) in `tests/oracles.evolve_dense`, and multiply them with one
einsum, `_mm`, which is faster on small matrices than a batched `@` on the
same matrices stored matrix axes last.  Per block, the built Hamiltonians
are copied into that layout once; the generators are formed over that copy,
and the eigensolve reduces them there and writes the eigenvectors over
them.  So a block holds at most four step-sized stacks at once, the
Hamiltonians and three stencil arrays of the generator pass, and
`_step_unitaries` fewer than three above the generators it is handed.

Protocols: TRADITIONAL evolves under H(t) for every cycle; ECHO flips the
sign of the Hamiltonian on every second cycle, cancelling dynamical phases;
SUPPRESSED is the traditional drive with sine-modulated tunneling, which
switches off second- and third-order resonant tunneling.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import (_BLOCKS_PER_SOLVE, ModelParams, TunnelingMode, _from_momenta,
                    _hermitian_eigh, _k_derivative, _reversed_k, _to_momenta,
                    _translated, _translation, bloch_blocks, k_grid)
from .observables import position_moments
from .spectrum import BandSolution, _check_band, chern_number

SAMPLES_PER_CYCLE = 400
MAX_NORM_DRIFT = 1e-8  # IntegratorError past this drift of a sampled norm from one
MAX_SEAM_DENSITY = 1e-3  # SeamDensityError past this sampled density on site 1 or N


class IntegratorError(RuntimeError):
    pass


class SeamDensityError(RuntimeError):
    """Wave packet reached the site-index seam; positions are unreliable."""


class GaugeContinuityError(RuntimeError):
    """Adjacent-time Bloch overlaps too small for a smooth gauge."""


class Protocol(Enum):
    TRADITIONAL = "traditional"
    ECHO = "echo"
    SUPPRESSED = "suppressed"


@dataclass
class PumpTrajectory:
    """Thinned state samples and derived observables along a pump run."""

    times: np.ndarray  # (S,)
    states: np.ndarray  # (S, N) complex
    density: np.ndarray  # (S, N)
    delta_p: np.ndarray  # (S,) cells, relative to the first sample
    d_w: np.ndarray  # (S,) sites
    params: ModelParams
    dt: float
    norm_drift: float
    seam_density_max: float

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class PhaseRecord:
    """Cycle phases and their momentum derivatives for one band."""

    k_grid: np.ndarray
    band: int
    chern: int
    gamma_b: np.ndarray  # Berry phase per k
    gamma_d: np.ndarray  # dynamical phase per k
    gamma: np.ndarray  # total
    x_b: np.ndarray  # -d(gamma_b)/dk, by `model._k_derivative`
    x_d: np.ndarray  # -d(gamma_d)/dk, by `model._k_derivative`
    xi: np.ndarray  # x_b - q*C


def dt_max(params: ModelParams, bloch_builder=None) -> float:
    """Step cap 2 / max_t ||H(t)||_2, probed at 32 equally spaced times of one
    period.

    The Magnus series of a step converges while h*||H|| < pi (Blanes et al.,
    Phys. Rep. 470, 151 (2009)), and the cap keeps h*||H|| <= 2 inside that
    bound.  Measured on one paper cycle, the state error is 1.5e-6 at the cap
    and stays fourth order up to h*||H|| = 3 (9.5e-6); at h*||H|| = 4, past
    the bound, it jumps to 1.4e-3.  The cap is probed once per (params, builder) and
    remembered, so a run that picks dt and then propagates with it probes
    once.
    """
    return _probed_dt_max(params, bloch_builder or bloch_blocks)


@functools.lru_cache(maxsize=32)
def _probed_dt_max(params: ModelParams, builder) -> float:
    ks = k_grid(params)
    ts = np.linspace(0.0, params.period, 32, endpoint=False)
    evals = np.linalg.eigvalsh(np.stack([builder(params, ks, t) for t in ts]))
    return 2.0 / float(np.max(np.abs(evals)))


def _mm(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix products a[:, :, ...] @ b[:, :, ...] of two stacks laid out matrix
    axes first, (d, d, ...), into `out` if given."""
    return np.einsum("ij...,jk...->ik...", a, b, out=out)


def _chain_product(u: np.ndarray) -> np.ndarray:
    """Ordered product u[:, :, -1] @ ... @ u[:, :, 1] @ u[:, :, 0] along axis 2
    of a (d, d, n, ...) stack, by pairwise reduction (log-depth, batched)."""
    while u.shape[2] > 1:
        n = u.shape[2]
        half = n // 2
        paired = _mm(u[:, :, 1 : 2 * half : 2], u[:, :, 0 : 2 * half : 2])
        if n % 2:
            paired = np.concatenate([paired, u[:, :, -1:]], axis=2)
        u = paired
    return u[:, :, 0]


def _resolve_initial(params: ModelParams, initial) -> np.ndarray:
    if isinstance(initial, (int, np.integer)):
        if not 1 <= initial <= params.n_sites:
            raise ValueError(f"initial site must lie in 1..{params.n_sites}")
        vec = np.zeros(params.n_sites, dtype=complex)
        vec[initial - 1] = 1.0
    else:
        vec = np.asarray(initial, dtype=complex)
    if vec.shape != (params.n_sites,):
        raise ValueError(f"initial state must have {params.n_sites} components")
    if abs(np.linalg.norm(vec) - 1.0) > MAX_NORM_DRIFT:
        raise ValueError("initial state is not normalized")
    return vec


def _check_seam(density, seam_threshold: float | None) -> None:
    seam = float(np.max(density))
    if seam_threshold is not None and seam > seam_threshold:
        raise SeamDensityError(
            f"density at the ring seam reached {seam:.3e} (> {seam_threshold:.1e}); "
            "enlarge L or recenter the initial state"
        )


def _step_grid(t_start: float, t_end: float, dt: float, samples: int) -> tuple:
    """(n_steps, dt, stride): `samples` chunks of `stride` >= 3 whole steps no
    longer than dt > 0 (ValueError otherwise, NaN too) over [t_start, t_end];
    sample i falls at t_start + i*span/samples.  At least three steps per
    chunk give every span and every period the three midpoints a Magnus
    stencil needs."""
    span = t_end - t_start
    if span <= 0 or samples < 1:
        raise ValueError("need t_end > t_start and at least one sample")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    stride = max(3, int(np.ceil(span / (dt * samples) - 1e-12)))
    return stride * samples, span / (stride * samples), stride


def _trajectory(params: ModelParams, t_start: float, stride: int, dt: float,
                states) -> PumpTrajectory:
    """Samples at t_start + stride*i*dt, i = 0, 1, ..., with density, cell shift
    and width; IntegratorError if max_{i>=1} | ||states[i]|| - 1 | > MAX_NORM_DRIFT."""
    states = np.asarray(states)
    norm_drift = float(np.max(np.abs(np.linalg.norm(states[1:], axis=1) - 1.0)))
    if norm_drift > MAX_NORM_DRIFT:
        raise IntegratorError(f"norm drift {norm_drift:.3e} exceeds {MAX_NORM_DRIFT:.0e}")
    density, mean_x, d_w = position_moments(states)
    return PumpTrajectory(
        times=t_start + (stride * np.arange(len(states))) * dt,
        states=states,
        density=density,
        delta_p=(mean_x - mean_x[0]) / params.q,
        d_w=d_w,
        params=params,
        dt=dt,
        norm_drift=norm_drift,
        seam_density_max=float(np.max(density[:, [0, -1]])),
    )


def _whole_periods(params: ModelParams, t_start: float, t_end: float, samples: int) -> int:
    """n if [t_start, t_end] is n >= 1 whole periods, to rounding, and
    `samples` is a multiple of n; otherwise 0."""
    span = t_end - t_start
    n = int(np.rint(span / params.period))
    if n >= 1 and abs(span - n * params.period) <= 1e-12 * span and samples % n == 0:
        return n
    return 0


def _place_steps(t_start: float, dt: float, first: int, last: int,
                 jump_times: np.ndarray) -> tuple:
    """(mids, dts, starts, steps) of steps first..last-1 of the grid of width
    dt from t_start: the midpoints and widths of its rows, the first row of
    each smooth piece, sorted (a row may repeat, which a piece search
    ignores), and the grid step of each row.

    The span is one piece but where H may jump: a step across a jump is split
    there into two rows, and a jump within 1e-9*dt of a step edge starts the
    piece at that edge, so that no sliver of a step, whose midpoint could fall
    on either side of the jump, joins a stencil.  For the same reason a jump
    within 1e-9*dt of the one before it is the same jump, listed twice to
    rounding, and is dropped.
    """
    grid = t_start + np.arange(first, last + 1) * dt
    jump_times = np.sort(jump_times)
    x = (jump_times - t_start) / dt  # in steps from t_start
    once = np.diff(x, prepend=-np.inf) > 1e-9
    pos = x[once] - first  # in steps from the span start
    inside = (pos > 1e-9) & (pos < last - first - 1e-9)
    pos = pos[inside]
    on_edge = np.abs(pos - np.rint(pos)) <= 1e-9
    cuts = np.where(on_edge, t_start + (first + np.rint(pos)) * dt, jump_times[once][inside])
    edges = np.sort(np.concatenate([grid, cuts[~on_edge]]))
    edges = edges[np.append(True, np.diff(edges) > 0)]
    mids = 0.5 * (edges[1:] + edges[:-1])
    starts = np.sort(np.append(0, np.searchsorted(edges, cuts)))
    return mids, np.diff(edges), starts, first + np.searchsorted(grid, mids) - 1


def _stencil_centres(rows: np.ndarray, n: int, starts: np.ndarray) -> tuple:
    """(c, long) of the given rows of a run of n >= 3 steps whose smooth
    pieces start at the sorted `starts`: the middle row of each one's
    three-midpoint stencil, centred inside its piece and one-sided at its
    ends, and whether its piece has the three steps a stencil needs.  A row
    of a shorter piece gets some stencil in range."""
    bounds = np.append(starts, n)
    piece = np.searchsorted(bounds, rows, side="right") - 1
    lo, hi = bounds[piece], bounds[piece + 1]
    return np.clip(np.clip(rows, lo + 1, hi - 2), 1, n - 2), hi - lo >= 3


def _magnus_generators(h: np.ndarray, mids: np.ndarray, dts: np.ndarray,
                       starts: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus generators of a run of steps, in one pass.

    h has shape (d, d, n, ...), n >= 3, matrix axes first: h[:, :, i] is the
    Hermitian H_i at the midpoint mids[i] of step i, of width dts[i]; `starts`
    holds the first step of each smooth piece, sorted.  Step i applies
    exp(-i*dts[i]*G_i) with

        G_i = H_i + (dts[i]^2/24) H''_i + i (dts[i]^2/12) [H_i, H'_i],

    where H' and H'' are the derivatives at mids[i] of the quadratic through
    three consecutive midpoints of the piece (`_stencil_centres`): centred on
    i inside the piece, one-sided at its ends.  A piece of fewer than three
    steps keeps G_i = H_i.  G is Hermitian, equals H for a static H, and
    G[-H](k) = -conj(G[H](-k)) whenever H(k)* = H(-k).  G is written over h,
    which must be a writable complex array, and returned.
    """
    def col(v):  # broadcast a per-step vector over the axes after the step axis
        return v.reshape(v.shape + (1,) * (h.ndim - 3))

    c, long = _stencil_centres(np.arange(len(mids)), len(mids), starts)
    x0, x1, x2 = mids[c - 1], mids[c], mids[c + 1]
    # in place and in reused buffers, so that a block keeps few step-sized
    # temporaries alive; sums and products commute, so the values are those
    # of the plain expressions
    dh = np.diff(h, axis=2)  # dh[:, :, j] = H_{j+1} - H_j
    h1 = dh[:, :, c - 1]
    h1 /= col(x1 - x0)
    half_h2 = dh[:, :, c]
    del dh
    half_h2 /= col(x2 - x1)
    half_h2 -= h1
    half_h2 /= col(x2 - x0)  # H''/2
    x = half_h2 * col(2 * mids - x0 - x1)
    h1 += x  # H'
    _mm(h, h1, out=x)  # [H, H'] = x - x^dagger, both factors Hermitian
    x -= np.conjugate(np.swapaxes(x, 0, 1), out=h1)
    del h1
    x *= 1j
    x += half_h2
    del half_h2
    x *= col(dts ** 2 / 12)
    return np.add(h, x, out=h, where=col(long))


def _step_unitaries(g: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """exp(-i*dts[i]*g[:, :, i]) for Hermitian g of shape (d, d, n, ...).

    `model._hermitian_eigh` writes the eigenvectors V over g, which must be a
    writable complex array, for the rebuild V diag(phases) V^dagger."""
    evals, vecs = _hermitian_eigh(g)
    phases = np.exp(-1j * np.moveaxis(evals, -1, 0)
                    * dts.reshape(dts.shape + (1,) * (g.ndim - 3)))
    a = vecs * phases
    return _mm(a, np.swapaxes(np.conjugate(vecs, out=vecs), 0, 1))


def _run_products(steps: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Ordered products of the runs of consecutive steps of a (d, d, n, ...)
    stack that start at the sorted `offsets` (offsets[0] = 0), shape
    (d, d, len(offsets), ...).  The runs are laid side by side for one
    `_chain_product`, the shorter ones padded at the end with exact
    identities, which leave their products bit for bit as they are."""
    d, n = steps.shape[0], steps.shape[2]
    sizes = np.diff(offsets, append=n)
    eye = np.eye(d, dtype=complex).reshape((d, d) + (1,) * (steps.ndim - 1))
    u = np.broadcast_to(eye, (d, d, sizes.max(), len(offsets)) + steps.shape[3:]).copy()
    run = np.repeat(np.arange(len(offsets)), sizes)
    u[:, :, np.arange(n) - offsets[run], run] = steps
    return _chain_product(u)


def _block_generators(build, mids: np.ndarray, dts: np.ndarray, starts: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
    """Magnus generators of the sorted `rows` of a run of steps whose smooth
    pieces start at `starts`, shape (d, d, len(rows), ...).

    H = build(times), laid out (d, d, len(times), ...), is built at the rows
    from one before the first stencil centre to one after the last, one
    neighbouring row beyond a block edge inside a piece and none beyond a
    piece's end, and one `_magnus_generators` pass runs over them; each
    stencil is then the one a pass over the whole run gives.
    """
    c = _stencil_centres(rows, len(mids), starts)[0]
    lo, hi = c.min() - 1, c.max() + 2
    inner = np.append(0, starts[(starts > lo) & (starts < hi)] - lo)
    g = _magnus_generators(build(mids[lo:hi]), mids[lo:hi], dts[lo:hi], inner)
    return np.take(g, rows - lo, axis=2)


def _period_propagators(params: ModelParams, builder, ks: np.ndarray, t_start: float,
                        dt: float, stride: int, chunks: int, jump_times: np.ndarray,
                        images: int, periodic: bool) -> np.ndarray:
    """Propagators of `chunks` chunks of `stride` steps of width dt from
    t_start, shape (chunks, L, q, q): per momentum, the product of the Magnus
    step unitaries of each chunk, whose steps are one smooth piece but where
    H jumps (`_place_steps`).

    A span that is not `periodic` ends its piece at its ends.  A periodic one
    is one period of H, and its piece runs on past its ends, where H goes on
    as it began: the first step's stencil reads the step before it, H one
    half step before t_start, which is H at the period's last step, and the
    last step's the step after it; a jump listed at or beyond an end, such as
    the image of a jump a period away, ends the piece there.  The steps are
    solved from a unit: all of them when images = 1; when images = q, for the
    chain's own H over one period of q*m steps, the first q-th, whose step i,
    r q-ths ahead, is the image under `model._translated` of step r*m + i,
    its stencil included.  The unit is solved in blocks of about
    _BLOCKS_PER_SOLVE Bloch blocks.  A block places its steps, and two more on
    each side (as far as the span goes, unless it is periodic), which fixes
    each one's stencil as in a pass over the whole run; then it makes one
    `_block_generators` call, with one `builder.batch` call, and one
    `_step_unitaries` call.  The steps are cut at chunk and q-th edges into
    segments, each in one chunk and one q-th; each block is folded, image by
    image, into the products of the segments its steps fall in, so only these
    products outlive a block.  A chunk cut by a q-th edge multiplies its
    segments at the end.
    """
    q, L = params.q, params.L
    m = chunks * stride // images  # steps per image
    cuts = np.arange(images * m)
    cuts = cuts[(cuts % stride == 0) | (cuts % m == 0)]  # the first step of each segment
    chunk = cuts // stride
    last = np.diff(chunk, append=chunks) > 0  # the last segment of each chunk
    # the last segment of chunk c has slot c, the others slots from `chunks` on
    slot = np.where(last, chunk, chunks + np.cumsum(~last) - 1)
    products = np.broadcast_to(np.eye(q, dtype=complex), (len(cuts), L, q, q)).copy()

    def build(ts):  # the kernels' layout, matrix axes first, (q, q, step, L)
        return np.moveaxis(builder.batch(params, ks, ts), (-2, -1), (0, 1)).copy()

    per_block = max(1, _BLOCKS_PER_SOLVE // L)
    for s in range(0, m, per_block):
        e = min(s + per_block, m)
        lo, hi = (s - 2, e + 2) if periodic else (max(s - 2, 0), min(e + 2, m))
        mids, dts, starts, steps = _place_steps(t_start, dt, lo, hi, jump_times)
        rows = np.flatnonzero((steps >= s) & (steps < e))
        u = _step_unitaries(_block_generators(build, mids, dts, starts, rows), dts[rows])
        for r in range(images):
            segs = slot[np.searchsorted(cuts, r * m + steps[rows], side="right") - 1]
            runs = np.flatnonzero(np.diff(segs, prepend=-1))
            prods = np.moveaxis(_run_products(u, runs), (0, 1), (-2, -1))
            if r:  # image r lies r q-ths ahead of the unit
                prods = _translated(params, prods, ks, r)
            products[segs[runs]] = prods @ products[segs[runs]]
        del u, prods  # before the next block is solved
    for g in np.flatnonzero(~last)[::-1]:  # later segments first
        products[chunk[g]] = products[chunk[g]] @ products[slot[g]]
    return products[:chunks]


def evolve(
    params: ModelParams,
    initial,
    t_start: float,
    t_end: float,
    dt: float | None = None,
    samples: int = SAMPLES_PER_CYCLE,
    bloch_builder=None,
    seam_threshold: float = MAX_SEAM_DENSITY,
    protocol: Protocol | None = None,
    jump_times=(),
) -> PumpTrajectory:
    """Propagate with fourth-order Magnus steps over [t_start, t_end].

    Records the state at t_start + i*(t_end - t_start)/samples, i = 0..samples.
    A given dt must be positive and at most `dt_max` (ValueError otherwise).
    `jump_times` lists the times within one period at which the Hamiltonian
    is discontinuous, each stated once and read modulo the period T (they
    must be finite, ValueError otherwise): every Hamiltonian here repeats
    with T, so `evolve` places a copy of each a whole number of periods
    apart, from the period before the span to the one after it.  A step that
    straddles a jump is split into two steps there, and no Magnus stencil
    reaches across it, since a step across a jump has an error of first
    order in dt.

    A span of n >= 1 whole periods with `samples` a multiple of n is
    periodic: its first period is one Magnus piece that runs round its ends,
    its end steps reading H a step beyond them, so a jump on the period edge
    ends it at both ends.  The span solves the chunk propagators of its first
    period only, keeps them and applies them to every period.  Any other span
    is one piece that ends at its ends.  The chain's own Hamiltonian (no
    `bloch_builder`, no `jump_times`) over whole periods whose steps per
    period are a multiple of q solves only the first q-th of its period,
    3,200 of 9,600 steps at paper parameters; any other run solves every
    step of its first period, or of its span (see the module's cost model).
    Both are one `_period_propagators` solve, a block of steps at a time,
    with one `builder.batch` call and one batched eigensolve per block, and
    they agree to rounding.
    Under `protocol` ECHO the sign of the Hamiltonian is reversed on every
    second period counted from t_start, which needs such a span with n even
    (ValueError otherwise); the other protocols do not change how `evolve`
    propagates.
    Raises IntegratorError on norm drift beyond MAX_NORM_DRIFT and
    SeamDensityError if any sampled density at the ring seam (sites 1 or N)
    exceeds `seam_threshold`, MAX_SEAM_DENSITY by default (pass None to
    disable the seam check); the initial state is checked before anything is
    propagated.
    """
    psi0 = _resolve_initial(params, initial)
    _check_seam(np.abs(psi0[[0, -1]]) ** 2, seam_threshold)
    builder = bloch_builder or bloch_blocks
    cap = dt_max(params, builder)
    if dt is None:
        dt = cap
    elif dt > cap * (1 + 1e-12):
        raise ValueError(f"dt={dt} exceeds dt_max={cap:.6e}")
    _, dt, stride = _step_grid(t_start, t_end, dt, samples)
    whole = _whole_periods(params, t_start, t_end, samples)
    n_periods = max(whole, 1)
    echo = protocol is Protocol.ECHO
    if echo and n_periods % 2:
        raise ValueError("the echo protocol needs an even number of whole periods, "
                         "each with the same number of samples")
    jump_times = np.asarray(jump_times, dtype=float)
    if not np.all(np.isfinite(jump_times)):
        raise ValueError(f"jump_times must be finite, got {jump_times}")
    # H repeats with its period: a copy of each jump in every period from the
    # one before the span to the one after it
    period = params.period
    copies = np.arange(np.floor(t_start / period) - 1, np.ceil(t_end / period) + 1)
    jump_times = (np.mod(jump_times, period) + period * copies[:, None]).ravel()

    ks = k_grid(params)
    reversed_k = _reversed_k(params.L)
    root_l = np.sqrt(params.L)
    # cell-gauge Bloch components of every sample, (L, q) each
    sampled = np.empty((samples + 1, params.L, params.q), dtype=complex)
    sampled[0] = _to_momenta(psi0.reshape(params.L, params.q)) / root_l

    per_period = samples // n_periods
    qth = (bloch_builder is None and not len(jump_times) and whole
           and per_period * stride % params.q == 0)
    propagators = _period_propagators(params, builder, ks, t_start, dt, stride, per_period,
                                      jump_times, params.q if qth else 1, whole > 0)
    for chunk in range(samples):
        i = chunk % per_period
        if echo and chunk // per_period % 2:
            # H(k)* = H(-k), so the reversed step exp(+iH(k)dt) is the
            # conjugate of the forward step at -k
            u_chunk = np.conj(propagators[i, reversed_k])
        else:
            u_chunk = propagators[i]
        sampled[chunk + 1] = np.einsum("nij,nj->ni", u_chunk, sampled[chunk])

    states = (_from_momenta(sampled) * root_l).reshape(samples + 1, -1)
    states[0] = psi0
    traj = _trajectory(params, t_start, stride, dt, states)
    _check_seam(traj.seam_density_max, seam_threshold)
    return traj


def _protocol_params(params: ModelParams, protocol: Protocol) -> ModelParams:
    """The parameters `protocol` runs with: SUPPRESSED forces sine-modulated
    tunneling, the others keep `params`."""
    if protocol is Protocol.SUPPRESSED:
        return dataclasses.replace(params, tunneling_mode=TunnelingMode.SINE_MODULATED)
    return params


def run_protocol(
    params: ModelParams,
    protocol: Protocol,
    n_cycles: int,
    initial,
    dt: float | None = None,
    samples_per_cycle: int = SAMPLES_PER_CYCLE,
    bloch_builder=None,
    seam_threshold: float = MAX_SEAM_DENSITY,
    jump_times=(),
) -> PumpTrajectory:
    """Run a named pumping protocol for n_cycles periods.

    `initial` is a 1-based site index or a normalized N-vector, such as the
    amplitudes of a WannierState.  ECHO reverses the Hamiltonian sign on
    every second cycle, so `evolve` rejects an odd n_cycles; SUPPRESSED forces
    sine-modulated tunneling.  The run is one `evolve` call over
    [0, n_cycles*T] under MAX_NORM_DRIFT and `seam_threshold`; `jump_times`
    are the jumps of H within one period, as `evolve` takes them, such as
    `effective.region_boundaries` for H_T.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be positive")
    params = _protocol_params(params, protocol)
    return evolve(
        params, initial, 0.0, n_cycles * params.period, dt=dt,
        samples=n_cycles * samples_per_cycle, bloch_builder=bloch_builder,
        seam_threshold=seam_threshold, protocol=protocol, jump_times=jump_times,
    )


def accumulate_phases(params: ModelParams, bands: BandSolution, m: int) -> PhaseRecord:
    """Berry and dynamical phases of band m over one cycle, per momentum.

    gamma_d integrates -E_m(k,t) dt by the trapezoid rule; gamma_b is the discrete
    Berry phase of the closed time loop (sum of link phases, which is gauge
    invariant).  The grid spans one period or a strip one q-th of it
    (`BandSolution.period_copies`).  The later q-ths repeat the strip's energies
    and time links (`spectrum.solve_bands`), so on a strip both phases are q
    times its own sums; its loop closes at the image of its first time, the
    first time's states rolled by p^-1 mod q components, so gamma_b does not
    depend on how its last time was solved.  X_b = -d(gamma_b)/dk and
    X_d = -d(gamma_d)/dk are the spectral derivatives `model._k_derivative` of
    the phases unwrapped along k, the derivative `wannier.predict_dispersion`
    takes, so var(X_b + X_d) is its predicted Omega_D; xi = X_b - q*C_m.
    Raises ValueError unless m lies in 0..q-1 and the t-grid strictly increases
    over one period or one q-th of it.
    """
    _check_band(bands, m)
    copies = bands.period_copies()
    if not copies:
        raise ValueError("phase accumulation needs a strictly increasing t-grid "
                         "over one period or one q-th of it")
    u = bands.states[m]
    last = u[:, -1] if copies == 1 else np.roll(u[:, 0], -_translation(bands.params, 1), axis=-1)
    links_t = np.concatenate([np.vecdot(u[:, :-2], u[:, 1:-1]),
                              np.vecdot(u[:, -2], last)[:, None]], axis=1)  # (L, M-1)
    moduli = np.abs(links_t)
    if np.min(moduli) < 0.99:
        n, i = np.unravel_index(np.argmin(moduli), moduli.shape)
        raise GaugeContinuityError(
            f"time-adjacent overlap {moduli[n, i]:.4f} < 0.99 at k index {n}, "
            f"t index {i}; refine the t_grid"
        )
    # the loop phase is defined modulo 2*pi per k (per-link angles can cross
    # the branch cut where the gauge anchor switches); unwrap across k
    gamma_b = np.unwrap(np.angle(np.exp(-1j * (copies * np.sum(np.angle(links_t), axis=1)))))
    gamma_d = -copies * np.trapezoid(bands.energies[m], bands.t_grid, axis=-1)

    x_b = -_k_derivative(gamma_b, bands.k_grid)
    x_d = -_k_derivative(gamma_d, bands.k_grid)
    c_m = chern_number(bands, m)
    return PhaseRecord(
        k_grid=bands.k_grid,
        band=m,
        chern=c_m,
        gamma_b=gamma_b,
        gamma_d=gamma_d,
        gamma=gamma_b + gamma_d,
        x_b=x_b,
        x_d=x_d,
        xi=x_b - params.q * c_m,
    )
