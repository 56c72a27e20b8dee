import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aah_pump import dynamics, effective, model, observables, spectrum, wannier
from aah_pump.model import ModelParams, TunnelingMode
from oracles import (bloch_frame, bloch_states_real_space, evolve_dense, span_propagators,
                     span_steps)


def test_frozen_hamiltonian_preserves_eigenstate_density():
    # with omega -> 0 the Hamiltonian is static; an eigenstate only acquires
    # a global phase
    p = ModelParams(omega=1e-12, phi0=0.4)
    bands = spectrum.solve_bands(p, np.array([0.0]))
    psi = bloch_states_real_space(bands, 0)[2, 4]
    traj = dynamics.evolve(p, psi, 0.0, 5.0, dt=1e-3, samples=5, seam_threshold=None)
    assert np.max(np.abs(traj.density - traj.density[0])) < 1e-10
    phase = traj.states[-1] / psi
    assert np.ptp(np.abs(phase)) < 1e-9


def test_fast_path_matches_dense_reference(paper_params):
    rng = np.random.default_rng(2)
    psi = rng.normal(size=45) + 1j * rng.normal(size=45)
    psi /= np.linalg.norm(psi)
    cap = dynamics.dt_max(paper_params)
    fast = dynamics.evolve(paper_params, psi, 0.0, 1.5, dt=cap, samples=4,
                           seam_threshold=None)
    dense = evolve_dense(paper_params, psi, 0.0, 1.5, dt=fast.dt, samples=4)
    np.testing.assert_allclose(fast.states, dense.states, atol=1e-12)
    # both propagators sample on the one grid of `dynamics._trajectory`
    assert np.array_equal(dense.times, fast.times)


def test_samples_at_exact_fractions_of_the_span(paper_params):
    # sample times must not depend on the step, so that a maximum over samples
    # (criterion 08's max|dP diff|) does not move when dt is refined
    t0 = 3.0
    t1, samples = t0 + paper_params.period / 20, 9
    cap = dynamics.dt_max(paper_params)
    expected = np.linspace(t0, t1, samples + 1)
    for dt in (cap, cap / 3):
        traj = dynamics.evolve(paper_params, 27, t0, t1, dt=dt, samples=samples)
        assert traj.dt <= dt
        np.testing.assert_allclose(traj.times, expected, rtol=0, atol=1e-9 * (t1 - t0))
    dense = evolve_dense(paper_params, 27, t0, t0 + 1.5, dt=cap, samples=4)
    np.testing.assert_allclose(dense.times, np.linspace(t0, t0 + 1.5, 5), rtol=0, atol=1.5e-9)


def test_dt_cap_enforced(paper_params):
    cap = dynamics.dt_max(paper_params)
    with pytest.raises(ValueError):
        dynamics.evolve(paper_params, 27, 0.0, 1.0, dt=3 * cap)


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("propagate", [dynamics.evolve, evolve_dense])
def test_dt_must_be_positive(paper_params, propagate, dt):
    # a negative or NaN dt passes the cap check, and the step grid would run
    # a negative one at span/(3*samples), far past the cap
    with pytest.raises(ValueError, match="dt must be positive"):
        propagate(paper_params, 27, 0.0, 1.0, dt=dt)


def test_first_sample_is_the_initial_state(traj_mlws_1c, mlws9):
    # the samples are mapped from Bloch components back to sites, all but the
    # first, which is the initial state as given
    assert np.array_equal(traj_mlws_1c.states[0], mlws9[0].amplitudes)


def test_dt_max_probes_once_per_params_and_builder():
    calls = []

    def builder(params, k, t):
        calls.append(t)
        return model.bloch_blocks(params, k, t)

    p = ModelParams(phi0=0.123)
    cap = dynamics.dt_max(p, builder)
    assert len(calls) == 32
    # the probe of one (params, builder) pair is remembered
    assert dynamics.dt_max(p, builder) == cap
    assert len(calls) == 32
    ks = model.k_grid(p)
    hmax = max(np.max(np.abs(np.linalg.eigvalsh(model.bloch_blocks(p, ks, t))))
               for t in np.linspace(0.0, p.period, 32, endpoint=False))
    assert cap == 2.0 / hmax
    dynamics.dt_max(dataclasses.replace(p, phi0=0.2), builder)
    assert len(calls) == 64


def test_initial_state_validation(paper_params):
    with pytest.raises(ValueError):
        dynamics.evolve(paper_params, 99, 0.0, 1.0)
    bad = np.ones(45, dtype=complex)
    with pytest.raises(ValueError):
        dynamics.evolve(paper_params, bad, 0.0, 1.0)


def test_echo_needs_even_cycles(paper_params):
    with pytest.raises(ValueError, match="echo"):
        dynamics.run_protocol(paper_params, 3, 27, echo=True)
    # evolve reverses the sign per whole period, so it needs an even number of
    # them, each with the same samples: odd, fractional, samples not divisible
    period = paper_params.period
    for t_end, samples in ((3 * period, 30), (1.5 * period, 10), (2 * period, 11)):
        with pytest.raises(ValueError, match="echo"):
            dynamics.evolve(paper_params, 27, 0.0, t_end, samples=samples, echo=True)


def _minus_k_index(params):
    """Grid index of -k for each grid momentum k, modulo 2*pi/q."""
    ks = model.k_grid(params)
    zone = 2 * np.pi / params.q
    total = np.mod(ks[:, None] + ks[None, :] + zone / 2, zone) - zone / 2
    return np.argmin(np.abs(total), axis=1)


def _assert_reuse_symmetries(params, batch, ts, periodic_rtol):
    """The premises of the period reuse: conj(H(k)) = H(-k) and H(t + T) = H(t)."""
    neg = _minus_k_index(params)
    assert np.array_equal(model._reversed_k(params.L), neg)
    ks = model.k_grid(params)
    h = batch(params, ks, ts)
    scale = np.max(np.abs(h))
    np.testing.assert_allclose(np.conj(h[:, neg]), h, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(batch(params, ks, ts + params.period), h,
                               rtol=0, atol=periodic_rtol * scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), q=st.integers(2, 6), L=st.integers(3, 8),
       phi0=st.floats(-np.pi, np.pi), ratio=st.floats(0.01, 2.0),
       mode=st.sampled_from(TunnelingMode), t=st.floats(0.0, 700.0))
def test_bloch_blocks_reversal_and_periodicity(data, q, L, phi0, ratio, mode, t):
    p_num = data.draw(st.integers(1, q - 1).filter(lambda n: math.gcd(n, q) == 1))
    p = ModelParams(J=ratio * 10.0, V0=10.0, p=p_num, q=q, phi0=phi0, L=L,
                    tunneling_mode=mode)
    _assert_reuse_symmetries(p, model.bloch_blocks_batch, np.array([t, t + 55.5]), 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), q=st.integers(2, 5), L=st.integers(3, 8),
       phi0=st.floats(-np.pi, np.pi), ratio=st.floats(0.01, 2.0),
       mode=st.sampled_from(TunnelingMode), t=st.floats(0.0, 700.0), r=st.integers(0, 6))
def test_bloch_blocks_translation_covariance(data, q, L, phi0, ratio, mode, t, r):
    # the premise of solving one q-th of a period: r q-ths later the chain is
    # itself translated by r*a sites, a = p^-1 mod q, and its Bloch blocks are
    # carried there by `model._translated`
    p_num = data.draw(st.integers(1, q - 1).filter(lambda n: math.gcd(n, q) == 1))
    p = ModelParams(J=ratio * 10.0, V0=10.0, p=p_num, q=q, phi0=phi0, L=L,
                    tunneling_mode=mode)
    later = t + r * p.period / q
    shift = r * pow(p_num, -1, q)
    dense = model.real_space_hamiltonian(p, t)
    np.testing.assert_allclose(np.roll(dense, (-shift, -shift), axis=(0, 1)),
                               model.real_space_hamiltonian(p, later),
                               rtol=0, atol=1e-12 * np.max(np.abs(dense)))
    ks = model.k_grid(p)
    h = model.bloch_blocks_batch(p, ks, np.array([t, t + 55.5]))
    np.testing.assert_allclose(model._translated(p, h, ks, r),
                               model.bloch_blocks_batch(p, ks, np.array([later, later + 55.5])),
                               rtol=0, atol=1e-12 * np.max(np.abs(h)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(3, 8), phi0=st.floats(-np.pi, np.pi), ratio=st.floats(0.01, 0.1),
       mode=st.sampled_from(TunnelingMode), t=st.floats(0.0, 700.0))
def test_effective_blocks_reversal_and_periodicity(L, phi0, ratio, mode, t):
    p = ModelParams(J=ratio * 30.0, phi0=phi0, L=L, tunneling_mode=mode)
    ts = np.array([t, t + 55.5])
    # H_T jumps at region boundaries, where H(t + T) = H(t) holds only off the jump
    boundary = np.pi / 6 + np.pi / 3 * np.rint((p.phase(ts) - np.pi / 6) / (np.pi / 3))
    assume(np.min(np.abs(p.phase(ts) - boundary)) > 1e-9)
    _assert_reuse_symmetries(p, effective.effective_bloch_blocks_batch, ts, 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(3, 8), phi0=st.floats(-np.pi, np.pi), ratio=st.floats(0.01, 0.1),
       mode=st.sampled_from(TunnelingMode), omega=st.sampled_from([0.01, 0.05, 0.2]),
       x=st.floats(0.0, 1.0, exclude_max=True))
def test_effective_blocks_translation_covariance(L, phi0, ratio, mode, omega, x):
    # the premise of solving one q-th of H_T's period: a q-th later, H_T is
    # itself translated, as the chain it is built from is (5.3e-14 at most in
    # 3,000 draws).  t lies in the first q-th, where the drive's phase is
    # rounded by a few 1e-16, and at least 1e-9*T from a region edge, across
    # which H_T jumps; its edges recur every T/6, so t + T/q is as far from one
    p = ModelParams(J=ratio * 30.0, phi0=phi0, L=L, omega=omega, tunneling_mode=mode)
    t = x * p.period / p.q
    edge = np.pi / 6 + np.pi / 3 * np.rint((p.phase(t) - np.pi / 6) / (np.pi / 3))
    assume(abs(p.phase(t) - edge) >= 1e-9 * 2 * np.pi)
    ks = model.k_grid(p)
    h = effective.effective_bloch_blocks_batch(p, ks, np.array([t, t + p.period / p.q]))
    np.testing.assert_allclose(model._translated(p, h[:1], ks, 1), h[1:], rtol=0, atol=1e-13)


def test_magnus_step_is_fourth_order_on_a_smooth_span(paper_params):
    # an eighth of a paper cycle holds no jump; a fourth-order step cuts the
    # error 16x per halving of dt (measured 20.7 here), a second-order one 4x
    p = paper_params
    cap = dynamics.dt_max(p)

    def final(dt):
        return dynamics.evolve(p, 27, 0.0, p.period / 8, dt=dt, samples=4).final_state

    reference = final(cap / 4)
    errors = [np.linalg.norm(final(cap / d) - reference) for d in (1, 2)]
    assert errors[0] / errors[1] >= 12.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(span=st.floats(1e-3, 1e3), ratio=st.floats(1e-3, 1e3), samples=st.integers(1, 50),
       q=st.integers(2, 6), periods=st.integers(0, 4))
def test_step_grid_gives_at_least_three_steps_per_chunk(span, ratio, samples, q, periods):
    # a span of whole periods (periods > 0) with `samples` a multiple of their
    # number rounds its stride up to the next one that makes each period
    # whole q-ths; the step then only shrinks
    omega = 2 * np.pi * periods / span if periods else 1e-12
    p = ModelParams(p=1, q=q, omega=omega)
    dt = ratio * span / samples
    whole, step_dt, stride = dynamics._step_grid(p, 0.0, span, dt, samples)
    fewest = max(3, math.ceil(span / (dt * samples) - 1e-12))
    assert whole == (periods if periods and samples % periods == 0 else 0)
    if whole:
        assert samples // whole * stride % q == 0
        # the smallest such stride: a multiple of q/gcd(samples per period, q)
        assert fewest <= stride < fewest + q // math.gcd(samples // whole, q)
    else:
        assert stride == fewest
    assert step_dt <= dt * (1 + 1e-12)
    assert step_dt * stride * samples == pytest.approx(span, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data(), q=st.integers(2, 6), L=st.integers(3, 8),
       phi0=st.floats(-np.pi, np.pi), ratio=st.floats(0.01, 2.0),
       mode=st.sampled_from(TunnelingMode), t0=st.floats(0.0, 700.0),
       dt=st.floats(0.01, 0.2), stride=st.integers(3, 9),
       jump=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_magnus_generator_symmetries(data, q, L, phi0, ratio, mode, t0, dt, stride, jump):
    p_num = data.draw(st.integers(1, q - 1).filter(lambda n: math.gcd(n, q) == 1))
    p = ModelParams(J=ratio * 10.0, V0=10.0, p=p_num, q=q, phi0=phi0, L=L,
                    tunneling_mode=mode)
    jumps = np.array([] if jump is None else [t0 + jump * stride * dt])
    mids, dts, starts, _ = dynamics._place_steps(t0, dt, 0, stride, jumps)
    ks = model.k_grid(p)

    # (q, q, steps, L), the layout of the step kernels
    h = np.moveaxis(model.bloch_blocks_batch(p, ks, mids), (-2, -1), (0, 1))
    scale = np.max(np.abs(h))
    g = dynamics._magnus_generators(h.copy(), mids, dts, starts)
    np.testing.assert_allclose(g, np.conj(np.swapaxes(g, 0, 1)), rtol=0,
                               atol=1e-12 * scale)
    # a static H has no derivatives, so G is H itself
    static = np.broadcast_to(h[:, :, :1], h.shape)
    assert np.array_equal(dynamics._magnus_generators(static.copy(), mids, dts, starts),
                          static)
    # G[-H](k) = -conj(G[H](-k)): what lets an echo-reversed period reuse the
    # forward one
    g_flipped = dynamics._magnus_generators(-h, mids, dts, starts)
    np.testing.assert_allclose(g_flipped, -np.conj(g[:, :, :, model._reversed_k(p.L)]),
                               rtol=0, atol=1e-12 * scale)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), t0=st.floats(-50.0, 50.0),
       dt=st.floats(0.01, 0.5), stride=st.integers(3, 9),
       jumps=st.lists(st.floats(0.0, 1.0), max_size=2))
def test_magnus_generator_exact_for_quadratic_h(d, seed, t0, dt, stride, jumps):
    # the three-midpoint stencil is exact for H(t) = A + B t + C t^2, on
    # central, one-sided and split steps alike
    rng = np.random.default_rng(seed)
    a, b, c = (m + np.conj(m.T) for m in
               rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d)))
    cuts = np.array([t0 + f * stride * dt for f in jumps])
    mids, dts, starts, _ = dynamics._place_steps(t0, dt, 0, stride, cuts)
    t = mids[:, None, None]
    h = a + b * t + c * t ** 2
    slope = b + 2 * c * t
    w = (dts ** 2)[:, None, None]
    expected = h + w / 12 * c + 1j * w / 12 * (h @ slope - slope @ h)
    # steps of a piece shorter than three keep G = H
    bounds = np.append(starts, len(mids))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi - lo < 3:
            expected[lo:hi] = h[lo:hi]
    # the kernels take the matrix axes first, (d, d, steps)
    g = dynamics._magnus_generators(np.moveaxis(h, 0, -1).copy(), mids, dts, starts)
    scale = np.max(np.abs(h)) * (1 + np.max(np.abs(t)))
    np.testing.assert_allclose(g, np.moveaxis(expected, 0, -1), rtol=0, atol=1e-9 * scale)


def test_block_generators_match_one_pass_over_the_run():
    # 48 steps with jumps inside, on a step edge and close together, so the
    # pieces include one- and two-step ones: generators formed a block at a
    # time, whatever the block size, must be those of one pass over the whole
    # run bit for bit, so a stencil crosses a block edge inside a piece and
    # never reaches across a jump
    rng = np.random.default_rng(3)
    a, b, c = (m + np.conj(m.T) for m in
               rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    t0, dt = 1.5, 0.1
    jumps = t0 + dt * np.array([1.5, 6.0, 13.2, 13.7, 22.0, 30.99, 41.0, 41.4])
    mids, dts, starts, _ = dynamics._place_steps(t0, dt, 0, 48, jumps)
    assert np.min(np.diff(np.append(starts, len(mids)))) < 3

    def h(t):  # (3, 3, steps), the layout of the step kernels
        return a[..., None] + b[..., None] * t + c[..., None] * t ** 2

    whole = dynamics._magnus_generators(h(mids), mids, dts, starts)
    for size in range(1, 8):
        blocks = [dynamics._block_generators(h, mids, dts, starts, np.arange(i, min(i + size,
                                                                                  len(mids))))
                  for i in range(0, len(mids), size)]
        assert np.array_equal(np.concatenate(blocks, axis=2), whole)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t0=st.floats(-700.0, 700.0), dt=st.floats(0.01, 0.5), stride=st.integers(3, 9),
       step=st.integers(-5, 50), chunks=st.integers(1, 12),
       jumps=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.sampled_from(["inside", "step edge", "chunk edge"]),
                                st.floats(-1e-9, 1e-9)), max_size=6))
@example(t0=1.5, dt=0.1, stride=4, step=0, chunks=3,
         jumps=[(0.5, "chunk edge", 0.0), (0.5, "chunk edge", 5e-10), (0.4, "step edge", 0.0),
                (0.4, "step edge", -9e-10), (0.8, "inside", 0.0), (1.0, "chunk edge", 0.0)])
def test_steps_are_placed_on_one_grid(t0, dt, stride, step, chunks, jumps):
    # the steps of a span are placed bit for bit as the step-by-step oracle
    # places them, with jumps inside steps, on step edges and on chunk edges,
    # exactly or within 1e-9*dt; pieces start only at the span's start and at
    # jumps, so a chunk edge without a jump starts none
    n_steps = chunks * stride
    times = []
    for x, where, nudge in jumps:
        at = {"inside": x * n_steps, "step edge": np.rint(x * n_steps),
              "chunk edge": stride * np.rint(x * chunks)}[where]
        times.append(t0 + (step + at + nudge) * dt)
    jump_times = np.array(times)
    mids, dts, starts, steps = dynamics._place_steps(t0, dt, step, step + n_steps, jump_times)
    oracle = span_steps(t0, step, step + n_steps, dt, jump_times)
    for got, want in zip((mids, dts, np.unique(starts), steps), oracle):
        assert np.array_equal(got, want)
    assert np.array_equal(np.sort(starts), starts)
    if not len(jumps):
        assert np.array_equal(starts, [0])


@pytest.mark.parametrize("gap", [7e-15, 1e-10])
def test_a_jump_listed_twice_to_rounding_splits_its_step_once(gap):
    # a second copy of a jump within 1e-9*dt of the first leaves no sliver
    # row, which would be a one-row piece of its own: step 1 splits into two
    # rows, and the only piece after the first starts at the jump
    jumps = np.array([1.5, 1.5 + gap])
    placed = dynamics._place_steps(0.0, 1.0, 0, 4, jumps)
    for got, want in zip(placed, span_steps(0.0, 0, 4, 1.0, jumps)):
        assert np.array_equal(got, want)
    mids, dts, starts, steps = placed
    assert np.array_equal(mids, [0.5, 1.25, 1.75, 2.5, 3.5])
    assert np.array_equal(starts, [0, 2])
    assert np.array_equal(steps, [0, 1, 1, 2, 3])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(q=st.integers(2, 6), L=st.integers(3, 6), t0=st.floats(0.0, 700.0),
       dt=st.floats(0.01, 0.3), stride=st.integers(3, 7), chunks=st.integers(1, 12),
       per_block=st.integers(1, 40), spare=st.floats(0.0, 0.99), periodic=st.booleans(),
       jumps=st.lists(st.tuples(st.floats(0.0, 1.0),
                                st.sampled_from(["inside", "step edge", "chunk edge",
                                                 "block edge", "span edge", "beyond"])),
                      max_size=4))
@example(q=3, L=4, t0=2.0, dt=0.1, stride=4, chunks=7, per_block=3, spare=0.5,
         periodic=False,
         jumps=[(5 / 28, "step edge"), (6.5 / 28, "inside"), (13.7 / 28, "inside"),
                (14.2 / 28, "inside"), (0.5, "chunk edge"), (0.4, "block edge")])
@example(q=3, L=4, t0=2.0, dt=0.1, stride=4, chunks=6, per_block=3, spare=0.5,
         periodic=True,
         jumps=[(0.0, "span edge"), (0.3, "beyond"), (0.8, "beyond"), (0.5 / 24, "inside")])
@example(q=3, L=4, t0=0.0, dt=0.1, stride=4, chunks=6, per_block=5, spare=0.0,
         periodic=True, jumps=[])
def test_propagators_do_not_depend_on_the_block_size(q, L, t0, dt, stride, chunks,
                                                     per_block, spare, periodic, jumps):
    # blocks of per_block steps, which need not divide the step count nor
    # fall on chunk edges, give every chunk's propagator as one pass over the
    # whole span does, with jumps inside steps, on their edges, on chunk,
    # block and span edges and in the two steps beyond either end.  A
    # periodic span is one period of whole q-ths, of which the first is
    # solved; it reads one step beyond each end, and its jumps repeat every
    # q-th, as `evolve` places them
    if periodic:
        chunks *= q // math.gcd(stride, q)
    n_steps = chunks * stride
    omega = 2 * np.pi / (n_steps * dt) if periodic else 0.01
    if periodic:
        # start in the first period: at omega*t0 ~ 1e3 the drive's phase is
        # rounded by 1e-13, which parts images of the q-th route from direct
        # builds by 1e-12
        t0 %= n_steps * dt
    p = ModelParams(V0=10.0, p=1, q=q, L=L, phi0=0.3, omega=omega)
    jump_times = np.array([
        t0 + {"inside": x * n_steps, "step edge": np.rint(x * n_steps),
              "chunk edge": stride * np.rint(x * chunks),
              "block edge": per_block * np.rint(x * n_steps / per_block),
              "span edge": n_steps * np.rint(x),
              "beyond": -4 * x if x < 0.5 else n_steps + 4 * (x - 0.5)}[where] * dt
        for x, where in jumps])
    if periodic:
        qth = n_steps * dt / q
        jump_times = (t0 + np.mod(jump_times - t0, qth)
                      + qth * np.arange(-2, q + 2)[:, None]).ravel()
    ks = model.k_grid(p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCKS_PER_SOLVE", int((per_block + spare) * L))
        blocked = dynamics._period_propagators(p, model.bloch_blocks, ks, t0, dt, stride,
                                               chunks, jump_times, periodic)
    whole = span_propagators(p, model.bloch_blocks, ks, t0, chunks, stride, dt, jump_times,
                             periodic)
    np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)


@pytest.mark.parametrize("split", [False, True], ids=["equal_chunks", "split_chunks"])
def test_block_solve_keeps_few_step_sized_arrays_alive(monkeypatch, split):
    # one block of 270 six-step chunks (omega = 0.05 at paper size), in
    # units of one stack of its step matrices: the solve peaks at 4.24 stacks
    # (the Hamiltonians and the three stencil arrays of the generator pass),
    # and _step_unitaries at 2.50 above what it is handed.  Each bound is
    # below what one more step-sized array alive at that point would give.
    p = dataclasses.replace(ModelParams(), omega=0.05)
    _, dt, stride = dynamics._step_grid(p, 0.0, p.period, dynamics.dt_max(p), 400)
    chunks = 270
    jumps = dt * stride * (np.arange(0, chunks, 3) + 0.45) if split else np.empty(0)
    rows = chunks * stride + len(jumps)
    stack = rows * p.L * p.q ** 2 * 16
    monkeypatch.setattr(dynamics, "_BLOCKS_PER_SOLVE", rows * p.L)
    ks = model.k_grid(p)
    solve = (p, model.bloch_blocks, ks, 0.0, dt, stride, chunks, jumps, False)
    dynamics._period_propagators(*solve)  # numpy's one-time allocations, untraced
    tracemalloc.start()
    try:
        dynamics._period_propagators(*solve)
        peak = tracemalloc.get_traced_memory()[1]
        mids, dts, starts, _ = dynamics._place_steps(0.0, dt, 0, chunks * stride, jumps)

        def build(ts):
            return np.moveaxis(model.bloch_blocks_batch(p, ks, ts), (-2, -1), (0, 1)).copy()

        g = dynamics._block_generators(build, mids, dts, starts, np.arange(rows))
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        dynamics._step_unitaries(g, dts)
        step_peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * stack
    assert step_peak < 3.0 * stack


FAST = ModelParams(V0=10.0, omega=0.2)


def _cycles(params, echo, n_cycles, initial, samples, **options):
    """`evolve` over n_cycles periods from t = 0 with `samples` samples per
    period and no seam check, sign-reversed on every second period under the
    echo: the run of `run_protocol`, at another sampling."""
    return dynamics.evolve(params, initial, 0.0, n_cycles * params.period,
                           samples=n_cycles * samples, seam_threshold=None,
                           echo=echo, **options)


def _negated(builder=None):
    """The builder of -H, for the given builder of H (the chain's by default),
    with its batch form."""
    builder = builder or model.bloch_blocks

    def negated(params, k, t):
        return -builder(params, k, t)

    negated.batch = lambda params, k, ts: -builder.batch(params, k, ts)
    return negated


def _per_period_chain(params, echo, n_cycles, initial, samples, builder=None,
                      jump_times=()):
    """Reference for the reuse: one `evolve` per period, each from the state
    the one before ends in, with the builder of -H on the odd cycles of an
    echo, which `evolve` solves as it solves H, from its own first q-th."""
    segments, state = [], initial
    for c in range(n_cycles):
        b_c = _negated(builder) if echo and c % 2 else builder
        segments.append(dynamics.evolve(
            params, state, c * params.period, (c + 1) * params.period, samples=samples,
            bloch_builder=b_c, seam_threshold=None, jump_times=jump_times))
        state = segments[-1].final_state
    times = np.concatenate([segments[0].times[:1]] + [seg.times[1:] for seg in segments])
    states = np.concatenate([segments[0].states[:1]] + [seg.states[1:] for seg in segments])
    return times, states


@pytest.mark.parametrize("echo", [False, True])
@pytest.mark.parametrize("case", ["chain", "effective", "q4_even_L"])
def test_period_reuse_matches_per_period_chain(case, echo):
    params, builder, jumps, initial = FAST, None, (), 27
    if case == "effective":
        builder = effective.effective_bloch_blocks
        jumps = effective.region_boundaries(params)  # one period's, listed once
    elif case == "q4_even_L":
        params, initial = ModelParams(V0=10.0, p=1, q=4, L=6, omega=0.2), 13
    traj = _cycles(params, echo, 2, initial, 10, bloch_builder=builder,
                   jump_times=jumps)
    times, states = _per_period_chain(params, echo, 2, initial, 10, builder, jumps)
    span = 2 * params.period
    np.testing.assert_allclose(traj.times, times, rtol=0, atol=1e-9 * span)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-10)


@pytest.mark.parametrize("echo", [False, True])
def test_jumps_are_read_modulo_a_qth(echo):
    # `evolve` reads each jump modulo T/q and repeats it every q-th, so H_T's
    # jumps listed for one q-th, for one period or two, or shifted by T/q or
    # by a period are the same list.  At phi0 = 0.3 they fall inside steps.
    # A shift rounds t to the spacing of doubles near t + T/q, which moves
    # the cuts by a few 1e-15 and the states by up to 1.1e-14 here; a list
    # reduced modulo T/q first gives the states bit for bit
    p = dataclasses.replace(FAST, phi0=0.3)
    jumps, qth = effective.region_boundaries(p), p.period / p.q

    def run(listed):
        return _cycles(p, echo, 2, 27, 10, bloch_builder=effective.effective_bloch_blocks,
                       jump_times=listed).states

    once = run(jumps)
    for listed in (jumps[:2], np.append(jumps, jumps + p.period), jumps + qth,
                   jumps - p.period):
        states = run(listed)
        assert np.array_equal(states, run(np.mod(listed, qth)))
        np.testing.assert_allclose(states, once, rtol=0, atol=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_jump_times_must_be_finite(bad):
    # a jump that is not finite cuts no step, so it would be dropped unseen
    jumps = np.append(effective.region_boundaries(FAST), bad)
    with pytest.raises(ValueError, match="jump_times must be finite"):
        dynamics.evolve(FAST, 27, 0.0, FAST.period, samples=10,
                        bloch_builder=effective.effective_bloch_blocks,
                        seam_threshold=None, jump_times=jumps)


@pytest.mark.parametrize("t_start, t_end, name", [
    (0.0, math.inf, "t_end"), (0.0, math.nan, "t_end"), (-math.inf, 1.0, "t_start"),
    (math.nan, 1.0, "t_start"),
])
def test_span_ends_must_be_finite(t_start, t_end, name):
    # a span with a non-finite end has no count of whole periods; the error
    # names the bad end
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        dynamics.evolve(FAST, 27, t_start, t_end)


def _count_eigensolves(monkeypatch) -> list:
    """The number of matrices of every `np.linalg.eigh` call from now on."""
    solved = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        solved.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return solved


@pytest.mark.parametrize("echo", [False, True])
@pytest.mark.parametrize("builder", [None, effective.effective_bloch_blocks],
                         ids=["chain", "effective"])
def test_two_cycle_run_solves_one_period(monkeypatch, echo, builder):
    # one q-th of the first period, for the chain and for H_T alike
    jumps = () if builder is None else effective.region_boundaries(FAST)
    solved = _count_eigensolves(monkeypatch)
    traj = _cycles(FAST, echo, 2, 27, 10, bloch_builder=builder, jump_times=jumps)
    steps = round((traj.times[-1] - traj.times[0]) / traj.dt)
    assert (steps // 2) % FAST.q == 0
    # H_T's jumps, at T/12 + n*T/6, fall on step edges here and split no step
    assert sum(solved) == steps // 2 // FAST.q * FAST.L


@pytest.mark.parametrize("cycles", [1, 2, 1.5])
def test_evolve_builds_a_block_of_steps_per_call(monkeypatch, cycles):
    calls = []

    def builder(params, k, t):
        return model.bloch_blocks(params, k, t)

    def batch(params, k, ts):
        calls.append(len(ts))
        return model.bloch_blocks_batch(params, k, ts)

    builder.batch = batch
    # blocks of 25 steps, fewer than the 60 of a q-th of FAST's period
    monkeypatch.setattr(dynamics, "_BLOCKS_PER_SOLVE", 25 * FAST.L)
    span = cycles * FAST.period
    traj = dynamics.evolve(FAST, 27, 0.0, span, samples=round(10 * cycles),
                           bloch_builder=builder, seam_threshold=None)
    whole = cycles == round(cycles)
    # the steps of the solved unit: a q-th of a period, or the whole span
    steps = round((FAST.period / FAST.q if whole else span) / traj.dt)
    stride = round((traj.times[1] - traj.times[0]) / traj.dt)
    per_block = dynamics._BLOCKS_PER_SOLVE // FAST.L
    blocks = math.ceil(steps / per_block)
    assert blocks > 1  # one call per chunk or per period would be told apart
    assert per_block % stride  # a block edge falls inside a chunk
    # each block edge builds one neighbouring step on each side, but the ends
    # of a span that is not whole periods, whose piece ends there
    end = 2 if whole else 1
    assert calls == [per_block + end] + [per_block + 2] * (blocks - 2) + [
        steps - per_block * (blocks - 1) + end]


@pytest.mark.parametrize("case", ["uniform", "sine", "effective"])
def test_how_steps_are_sampled_does_not_change_them(case):
    # the same 2,400 steps of a period at omega = 0.05 (dt = T/2000, rounded
    # down to make whole q-ths), recorded as 400 samples of 6 steps or 200 of
    # 12, end in the same state: a sample edge is no Magnus piece edge, and
    # H_T's region jumps cut the steps on one grid whatever the samples
    mode = TunnelingMode.SINE_MODULATED if case == "sine" else TunnelingMode.UNIFORM
    p = ModelParams(omega=0.05, tunneling_mode=mode)
    builder, jumps = None, ()
    if case == "effective":
        builder = effective.effective_bloch_blocks
        jumps = effective.region_boundaries(p)
    dt = p.period / 2000
    assert dt <= dynamics.dt_max(p, builder)
    runs = [dynamics.evolve(p, 27, 0.0, p.period, dt=dt, samples=samples,
                            bloch_builder=builder, jump_times=jumps)
            for samples in (400, 200)]
    assert runs[0].dt == runs[1].dt == pytest.approx(p.period / 2400, rel=1e-12)
    np.testing.assert_allclose(runs[0].final_state, runs[1].final_state, rtol=0, atol=1e-12)


def test_dense_reference_takes_whole_periods_as_one_periodic_piece():
    # a two-period run solves its first period as one periodic piece and
    # reuses it; the dense reference solves both periods as one piece that
    # wraps round its ends, so both read the same neighbours across the
    # period edges
    fast = dynamics.evolve(FAST, 27, 0.0, 2 * FAST.period, samples=20, seam_threshold=None)
    dense = evolve_dense(FAST, 27, 0.0, 2 * FAST.period, fast.dt, samples=20)
    np.testing.assert_allclose(fast.states, dense.states, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", TunnelingMode)
@pytest.mark.parametrize("q, p", [(3, 1), (5, 2)])
def test_echo_matches_dense_forward_then_negated_period(q, p, mode):
    # the echo's second cycle runs under -H, which `evolve` applies as
    # conj(U(-k)) of the forward period's Bloch propagators.  The dense route
    # builds -H on the sites and solves each period afresh, so neither that
    # reversal, nor `model._translated`, nor the Bloch reduction enters it
    params = dataclasses.replace(FAST, p=p, q=q, tunneling_mode=mode)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=params.n_sites) + 1j * rng.normal(size=params.n_sites)
    psi /= np.linalg.norm(psi)
    echo = dynamics.evolve(params, psi, 0.0, 2 * params.period, samples=20,
                           seam_threshold=None, echo=True)
    period = params.period
    forward = evolve_dense(params, psi, 0.0, period, echo.dt, samples=10)
    backward = evolve_dense(params, forward.final_state, period, 2 * period, echo.dt,
                            hamiltonian=lambda p, t: -model.real_space_hamiltonian(p, t),
                            samples=10)
    times = np.concatenate([forward.times, backward.times[1:]])
    states = np.concatenate([forward.states, backward.states[1:]])
    # the one grid: the dense second period's times, T + i*stride*dt, and the
    # echo's, (n + i)*stride*dt, may round to neighbouring doubles
    np.testing.assert_array_max_ulp(echo.times, times, maxulp=1)
    np.testing.assert_allclose(echo.states, states, rtol=0, atol=1e-12)  # 3.5e-13 here


def _oracle_states(params, psi0, chunks):
    """The samples of a run from psi0 whose chunk propagators are `chunks`,
    applied one chunk at a time in the Bloch frame of `oracles.bloch_frame`."""
    frame = bloch_frame(params)
    c = np.einsum("jns,j->ns", np.conj(frame), psi0)
    states = [psi0]
    for u in chunks:
        c = np.einsum("nij,nj->ni", u, c)
        states.append(np.einsum("jns,ns->j", frame, c))
    return np.array(states)


@pytest.mark.parametrize("mode", TunnelingMode)
def test_a_whole_period_run_has_no_preferred_start(mode):
    # a period of H is one periodic piece wherever it starts: a run of one
    # period from k samples later on the same step grid, from the first run's
    # state there, retraces that run's later samples (to 3e-14 here)
    p = dataclasses.replace(FAST, tunneling_mode=mode)
    first = dynamics.evolve(p, 27, 0.0, p.period, samples=10, seam_threshold=None)
    for k in (1, 3, 7):
        t0 = k * p.period / 10
        later = dynamics.evolve(p, first.states[k], t0, t0 + p.period, dt=first.dt,
                                samples=10, seam_threshold=None)
        np.testing.assert_allclose(later.states[:11 - k], first.states[k:], rtol=0, atol=1e-12)


def test_listed_edge_jumps_end_the_wrapped_piece():
    # at phi0 = pi/6, H_T jumps on both period edges; `region_boundaries`
    # lists the jump at t = 0, and `evolve` repeats it every q-th, at T too:
    # the whole-period run then reads nothing across its ends and equals the
    # oracle whose span ends its piece there, solved in one pass.  Leaving out
    # the jumps at whole q-ths (at 0, T/3 and 2T/3) reads H_T across them,
    # 1.5e-2 away
    p = dataclasses.replace(FAST, phi0=np.pi / 6)
    builder = effective.effective_bloch_blocks
    jumps = effective.region_boundaries(p)
    assert jumps[0] == 0.0
    traj, inner = (dynamics.evolve(p, 27, 0.0, p.period, samples=10, bloch_builder=builder,
                                   seam_threshold=None, jump_times=listed)
                   for listed in (jumps, jumps[1::2]))
    stride = round(p.period / (10 * traj.dt))
    chunks = span_propagators(p, builder, model.k_grid(p), 0.0, 10, stride, traj.dt, jumps,
                              periodic=False)
    np.testing.assert_allclose(traj.states, _oracle_states(p, traj.states[0], chunks),
                               rtol=0, atol=1e-12)
    assert np.max(np.abs(inner.final_state - traj.final_state)) > 1e-3


def test_a_jump_near_one_end_is_read_at_the_other():
    # jumps a fraction of a step inside either end of a q-th stand, a q-th
    # on, just beyond the other end: `evolve` carries them there, so its
    # whole-period run equals the periodic oracle given every q-th's copies
    p = FAST
    dt = dynamics.evolve(p, 27, 0.0, p.period, samples=10, seam_threshold=None).dt
    qth = p.period / p.q
    jumps = np.array([0.3 * dt, qth - 0.6 * dt])
    traj = dynamics.evolve(p, 27, 0.0, p.period, dt=dt, samples=10, seam_threshold=None,
                           jump_times=jumps)
    stride = round(p.period / (10 * traj.dt))
    copies = (jumps + qth * np.arange(-1, p.q + 1)[:, None]).ravel()
    chunks = span_propagators(p, model.bloch_blocks, model.k_grid(p), 0.0, 10, stride,
                              traj.dt, copies, periodic=True)
    np.testing.assert_allclose(traj.states, _oracle_states(p, traj.states[0], chunks),
                               rtol=0, atol=1e-12)


def _chain_as_builder():
    """The chain's own builder behind a wrapper, with its batch form, as a
    tracer installs it."""
    def builder(params, k, t):
        return model.bloch_blocks(params, k, t)

    builder.batch = model.bloch_blocks_batch
    return builder


# (params, samples per period, steps per sample); the steps per period are a
# multiple of q, so `evolve` solves one q-th of each period.  m is the steps
# per q-th; where m % stride != 0 the q-th edges cut chunks, and where a
# sample spans q-ths a chunk has segments in several of them
QTH_CASES = {
    "q3_cut_chunks": (ModelParams(V0=10.0, omega=0.2), 10, 21),  # m = 70
    "q3_whole_chunks": (ModelParams(V0=10.0, omega=0.2), 12, 18),  # m = 72
    "q3_stride3_whole_chunks": (ModelParams(V0=10.0, omega=0.2, phi0=0.7), 72, 3),  # m = 72
    "q3_stride4_whole_chunks": (ModelParams(V0=10.0, omega=0.2, L=4), 60, 4),  # m = 80
    "q4_stride4_cut_chunks": (ModelParams(V0=10.0, p=1, q=4, L=4, omega=0.2), 55, 4),  # m = 55
    "q4_p3_even_L_sine": (ModelParams(V0=10.0, p=3, q=4, L=4, omega=0.2, phi0=0.4,
                                      tunneling_mode=TunnelingMode.SINE_MODULATED), 10, 24),
    "q5_p2": (ModelParams(V0=10.0, p=2, q=5, L=3, omega=0.2, phi0=-1.0), 14, 15),  # m = 42
    "q5_samples_span_qths": (ModelParams(V0=10.0, p=1, q=5, L=3, omega=0.2), 2, 105),
}


def _distinct_steps(n_steps, q):
    """The steps of the first q-th of a period of n_steps, each with its
    central stencil, the period's first and last step included."""
    return n_steps // q


@pytest.mark.parametrize("echo, cycles", [(False, 1), (True, 2)])
@pytest.mark.parametrize("case", QTH_CASES)
def test_qth_solve_matches_the_step_by_step_solve_and_dense(monkeypatch, case, echo, cycles):
    params, samples, stride = QTH_CASES[case]
    dt = params.period / (samples * stride)  # below dt_max = 2/||H|| >= 2/(V0 + 2J)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=params.n_sites) + 1j * rng.normal(size=params.n_sites)
    psi /= np.linalg.norm(psi)
    solved = _count_eigensolves(monkeypatch)
    fast = _cycles(params, echo, cycles, psi, samples, dt=dt)
    assert round(params.period / fast.dt) == samples * stride
    distinct = _distinct_steps(samples * stride, params.q)
    assert distinct < samples * stride
    assert sum(solved) == distinct * params.L  # one q-th was solved
    # every step of each period in one pass, under -H on the echo's second
    ks = model.k_grid(params)
    chunks = np.concatenate([
        span_propagators(params, _negated() if c % 2 else model.bloch_blocks, ks,
                         c * params.period, samples, stride, dt, np.empty(0), periodic=True)
        for c in range(cycles)])
    np.testing.assert_allclose(fast.states, _oracle_states(params, psi, chunks),
                               rtol=0, atol=1e-12)
    if not echo:
        dense = evolve_dense(params, psi, 0.0, params.period, dt, samples=samples)
        np.testing.assert_allclose(fast.states, dense.states, rtol=0, atol=1e-12)


@pytest.mark.parametrize("echo", [False, True])
@pytest.mark.parametrize("omega, phi0, mode, atol", [
    (0.2, 0.0, TunnelingMode.UNIFORM, 1e-12),
    (0.2, np.pi / 6, TunnelingMode.UNIFORM, 1e-12),  # jumps on the period edges
    (0.2, -0.4, TunnelingMode.SINE_MODULATED, 1e-12),
    (0.05, 0.3, TunnelingMode.UNIFORM, 1e-11),
])
def test_effective_qth_solve_matches_the_step_by_step_solve(monkeypatch, omega, phi0, mode,
                                                            atol, echo):
    # H_T over two cycles solves the first q-th of its first period, its
    # region jumps read modulo T/q; the oracle solves every step of each
    # period in one pass, given every jump of the periods and their
    # neighbours, under -H_T on the echo's second
    p = ModelParams(V0=10.0, omega=omega, phi0=phi0, tunneling_mode=mode)
    builder, jumps = effective.effective_bloch_blocks, effective.region_boundaries(p)
    rng = np.random.default_rng(6)
    psi = rng.normal(size=p.n_sites) + 1j * rng.normal(size=p.n_sites)
    psi /= np.linalg.norm(psi)
    solved = _count_eigensolves(monkeypatch)
    traj = _cycles(p, echo, 2, psi, 10, bloch_builder=builder, jump_times=jumps)
    n_steps = round(p.period / traj.dt)
    assert n_steps % p.q == 0
    # a q-th's steps, two of them split at its two jumps when these fall
    # inside steps
    assert n_steps // p.q * p.L <= sum(solved) <= (n_steps // p.q + 2) * p.L
    copies = (jumps + p.period * np.arange(-1, 3)[:, None]).ravel()
    ks = model.k_grid(p)
    chunks = np.concatenate([
        span_propagators(p, _negated(builder) if echo and c % 2
                         else builder, ks, c * p.period, 10, n_steps // 10, traj.dt, copies,
                         periodic=True)
        for c in range(2)])
    np.testing.assert_allclose(traj.states, _oracle_states(p, psi, chunks), rtol=0, atol=atol)


def test_qth_solve_reads_the_builder_a_tracer_swaps_in(monkeypatch):
    # a tracer replaces `dynamics.bloch_blocks` by a wrapper that carries the
    # batch form; the run must build through it and stay bit-identical
    params, samples, stride = QTH_CASES["q3_cut_chunks"]
    dt = params.period / (samples * stride)
    plain = dynamics.evolve(params, 16, 0.0, params.period, dt=dt, samples=samples)
    built = []

    def batch(params, k, ts):
        built.append(len(ts))
        return model.bloch_blocks_batch(params, k, ts)

    wrapper = _chain_as_builder()
    wrapper.batch = batch
    monkeypatch.setattr(dynamics, "bloch_blocks", wrapper)
    traced = dynamics.evolve(params, 16, 0.0, params.period, dt=dt, samples=samples)
    assert 0 < sum(built) < samples * stride  # one q-th, built through the wrapper
    assert np.array_equal(traced.states, plain.states)
    assert np.array_equal(traced.times, plain.times)


def test_paper_runs_solve_one_qth_of_a_period(monkeypatch, paper_params):
    # 3,200 steps per q-th, each with its central stencil: 3,200 distinct
    # steps of 15 momenta
    solved = _count_eigensolves(monkeypatch)
    traj = dynamics.run_protocol(paper_params, 1, 27)
    assert round(paper_params.period / traj.dt) == 9600
    assert sum(solved) == 3200 * paper_params.L
    solved.clear()
    dynamics.run_protocol(paper_params, 2, 27, echo=True)
    assert sum(solved) == 3200 * paper_params.L


@pytest.mark.parametrize("params, samples", [
    (FAST, 10),
    (ModelParams(V0=10.0, p=2, q=5, L=3, omega=0.2, phi0=-1.0), 7),
    # samples not coprime to q: the stride need only be even
    (ModelParams(V0=10.0, p=1, q=4, L=4, omega=0.2, tunneling_mode=TunnelingMode.SINE_MODULATED),
     6),
])
def test_whole_periods_round_the_stride_to_whole_qths(monkeypatch, params, samples):
    # at the cap the steps per period are not a multiple of q (FAST: 170),
    # so the stride rises to the next multiple of q/gcd(samples, q) (17 to
    # 18): the step shrinks, the period is whole q-ths, and one q-th of it is
    # solved.  The states match the dense reference on the new grid
    q, cap = params.q, dynamics.dt_max(params)
    fewest = math.ceil(params.period / (cap * samples))
    unit = q // math.gcd(samples, q)
    assert fewest % unit
    solved = _count_eigensolves(monkeypatch)
    traj = dynamics.evolve(params, 5, 0.0, params.period, samples=samples, seam_threshold=None)
    stride = round(params.period / (samples * traj.dt))
    assert stride == fewest + unit - fewest % unit
    assert traj.dt <= cap
    assert sum(solved) == samples * stride // q * params.L
    dense = evolve_dense(params, 5, 0.0, params.period, cap, samples=samples)
    assert np.array_equal(dense.times, traj.times)
    np.testing.assert_allclose(traj.states, dense.states, rtol=0, atol=1e-12)


def test_qth_solve_holds_the_period_and_one_block(monkeypatch, paper_params):
    # a paper period solve holds its segment products, the period's chunk
    # propagators and at most q-1 more, throughout, and on top of them one
    # block at a time: its Hamiltonians and the three stencil arrays of the
    # generator pass, four stacks of the largest generator stack B a block
    # forms.  The bound allows one stack more, for numpy's iteration buffers
    # (two of 8,192 complex elements, 256 KB, one B at paper size) and the
    # bookkeeping of steps; every other stage of a block (the eigensolve, the
    # folding of q images) holds less.  A first solve runs untraced, so that
    # numpy's one-time allocations are not counted.
    p = paper_params
    _, dt, stride = dynamics._step_grid(p, 0.0, p.period, dynamics.dt_max(p), 400)
    solve = (p, model.bloch_blocks, model.k_grid(p), 0.0, dt, stride, 400, np.empty(0), True)
    dynamics._period_propagators(*solve)
    stacks = []
    generators = dynamics._magnus_generators

    def recording(h, *args):
        stacks.append(h.nbytes)
        return generators(h, *args)

    monkeypatch.setattr(dynamics, "_magnus_generators", recording)
    tracemalloc.start()
    try:
        u = dynamics._period_propagators(*solve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    segments = (400 + p.q - 1) * p.L * p.q ** 2 * 16
    assert u.shape == (400, p.L, p.q, p.q)
    assert peak < segments + 5 * max(stacks)


def test_seam_guard_triggers(paper_params):
    with pytest.raises(dynamics.SeamDensityError):
        dynamics.evolve(paper_params, 1, 0.0, 1.0, samples=2)


def test_seam_guard_checks_the_initial_state_before_propagating(paper_params):
    calls = []

    def builder(params, k, t):
        calls.append(t)
        return model.bloch_blocks(params, k, t)

    def batch(params, k, ts):
        calls.append(ts)
        return model.bloch_blocks_batch(params, k, ts)

    builder.batch = batch
    with pytest.raises(dynamics.SeamDensityError):
        dynamics.evolve(paper_params, 1, 0.0, paper_params.period, bloch_builder=builder)
    assert calls == []
    traj = dynamics.evolve(paper_params, 1, 0.0, 1.0, samples=2, bloch_builder=builder,
                           seam_threshold=None)
    assert calls
    assert traj.seam_density_max > 1e-3


def test_norm_preserved(traj_traditional_2c):
    assert traj_traditional_2c.norm_drift < 1e-10
    norms = np.linalg.norm(traj_traditional_2c.states, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)


def test_quantized_transport(traj_traditional_2c, traj_suppressed_1c, bands_topology):
    c_top = spectrum.chern_number(bands_topology, 2)
    one_cycle = traj_traditional_2c.delta_p[len(traj_traditional_2c.times) // 2]
    assert abs(one_cycle - c_top) < 1e-2
    assert abs(traj_suppressed_1c.delta_p[-1] - c_top) < 1e-2


def test_adiabatic_band_population(paper_params, traj_mlws_1c):
    idx = [0, len(traj_mlws_1c.times) // 2, -1]
    bands_at = spectrum.solve_bands(paper_params, traj_mlws_1c.times[idx])
    weights = observables.band_population(traj_mlws_1c.states[idx], bands_at)
    assert np.all(weights[:, 2] >= 0.99)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-10)


def test_echo_relocalizes_vs_traditional(traj_echo_2c, traj_traditional_2c):
    half = len(traj_traditional_2c.times) // 2
    assert traj_traditional_2c.d_w[-1] > traj_traditional_2c.d_w[half]
    assert traj_echo_2c.d_w[-1] < 0.1 * traj_traditional_2c.d_w[-1]
    # transport itself is unaffected by the echo reversal
    assert traj_echo_2c.delta_p[-1] == pytest.approx(-2.0, abs=2e-2)
    assert traj_traditional_2c.delta_p[-1] == pytest.approx(-2.0, abs=2e-2)


def test_slower_modulation_disperses_more():
    fast, slow = (dynamics.evolve(p, 27, 0.0, p.period, samples=100)
                  for p in (ModelParams(omega=0.04), ModelParams(omega=0.02)))
    assert slow.d_w.max() > fast.d_w.max()


def test_accumulate_phases_means(paper_params, bands_phases):
    rec = dynamics.accumulate_phases(bands_phases, 2)
    assert rec.chern == -1
    assert abs(np.mean(rec.x_d)) < 1e-3 * np.max(np.abs(rec.x_d))
    assert np.mean(rec.x_b) == pytest.approx(paper_params.q * rec.chern, abs=1e-2)
    assert np.max(np.abs(rec.x_d)) > 10 * np.max(np.abs(rec.xi))


def test_phase_profiles_share_the_predicted_dispersion(paper_params, paper_params_sine,
                                                      bands_phases):
    # X_b and X_d take the k-derivative that predict_dispersion takes, so the
    # variance of their sum is its Omega_D, in both tunneling modes
    sine_bands = spectrum.solve_bands(paper_params_sine, bands_phases.t_grid)
    for params, bands in ((paper_params, bands_phases), (paper_params_sine, sine_bands)):
        rec = dynamics.accumulate_phases(bands, 2)
        predicted = wannier.predict_dispersion(rec.gamma, rec.k_grid)
        assert np.var(rec.x_b + rec.x_d) == pytest.approx(predicted, rel=1e-9, abs=0)
    # the derivative is exact on a winding phase with a first-harmonic ripple
    for q, L in ((3, 15), (3, 16), (4, 9), (5, 30)):
        k = model.k_grid(ModelParams(q=q, L=L))
        got = model._k_derivative(q * k + 0.3 * np.sin(q * k), k)
        np.testing.assert_allclose(got, q + 0.3 * q * np.cos(q * k), rtol=0, atol=1e-12)


def test_accumulate_phases_flat_band_artificial_input(paper_params):
    # k-independent energies and states: the dynamical shift vanishes
    p = paper_params
    t_grid = np.linspace(0.0, p.period, 65)
    rng = np.random.default_rng(4)
    triad = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0].T
    states = np.broadcast_to(triad[:, None, None, :], (3, p.L, 65, 3)).copy()
    energies = np.broadcast_to(
        np.array([-1.0, 0.0, 1.0])[:, None, None] * np.cos(p.omega * t_grid),
        (3, p.L, 65)).copy()
    bands = spectrum.BandSolution(params=p, k_grid=model.k_grid(p),
                                  t_grid=t_grid, energies=energies, states=states)
    rec = dynamics.accumulate_phases(bands, 1)
    np.testing.assert_allclose(rec.x_d, 0.0, atol=1e-10)


def test_accumulate_phases_reads_q_from_the_bands():
    # xi = X_b - q*C with q = 5 from the bands' own params, on a strip one
    # fifth of the period, whose loop closes through the p = 2 translation
    p = ModelParams(J=1.0, V0=10.0, p=2, q=5, phi0=0.3, L=7)
    strip = spectrum.solve_bands(p, np.linspace(0.0, p.period / p.q, 241))
    assert strip.period_copies() == 5
    rec = dynamics.accumulate_phases(strip, 2)
    assert rec.chern == 2
    assert np.array_equal(rec.xi, rec.x_b - 5 * rec.chern)
    assert np.mean(rec.xi) == pytest.approx(0.0, abs=1e-2)


def test_accumulate_phases_rejects_coarse_grid(paper_params):
    # 60 time samples cannot track the eigenvectors through the resonances
    bands = spectrum.solve_bands(
        paper_params, np.linspace(0.0, paper_params.period, 61))
    with pytest.raises(dynamics.GaugeContinuityError):
        dynamics.accumulate_phases(bands, 2)


@pytest.mark.parametrize("band", [-1, 3])
def test_accumulate_phases_rejects_band_off_range(paper_params, bands_t0, band):
    with pytest.raises(ValueError, match="band must lie in 0..2"):
        dynamics.accumulate_phases(bands_t0, band)


def test_dt_halving_self_convergence(dt_halving_pair):
    coarse, fine = dt_halving_pair
    fidelity = abs(np.vdot(coarse.final_state, fine.final_state))
    assert 1.0 - fidelity < 1e-8
