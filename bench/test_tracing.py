"""Tests of the benchmark's span tracer: a traced run must measure the same
program as an untraced one, and count every eigensolve of the integrator."""

import numpy as np

from aah_pump import dynamics, effective, model
from aah_pump.model import ModelParams

from tracing import Tracer

STEPS = 40


def short_evolve(params, builder=None):
    span = STEPS * dynamics.dt_max(params, builder)
    return dynamics.evolve(params, 27, 0.0, span, samples=8, bloch_builder=builder)


def test_traced_evolve_is_bit_identical_and_counts_every_eigensolve():
    params = ModelParams()
    plain = short_evolve(params)
    with Tracer() as tracer:
        traced = short_evolve(params)
    assert dynamics.bloch_blocks is model.bloch_blocks  # originals restored
    assert np.array_equal(traced.states, plain.states)
    assert np.array_equal(traced.times, plain.times)

    stats = tracer.summary()
    steps = stats["dynamics.evolve.steps"]
    assert steps == STEPS
    assert stats["linalg.eigh.matrices"] == steps * params.L
    assert stats["dynamics.eigensolves"] == steps * params.L
    assert 0.0 < stats["dynamics.evolve.self_s"] < stats["dynamics.evolve.busy_s"]


def test_wrapped_builder_keeps_its_batch_form():
    params = ModelParams(omega=0.05)
    plain = short_evolve(params, effective.effective_bloch_blocks)
    with Tracer() as tracer:
        traced = short_evolve(params, effective.effective_bloch_blocks)
    assert np.array_equal(traced.states, plain.states)

    stats = tracer.summary()
    # without `.batch` on the wrapper, evolve would build blocks one time at a
    # time and never call the batch builder
    assert stats["effective.effective_bloch_blocks_batch.blocks"] == STEPS * params.L
    assert stats["linalg.eigh.matrices"] == STEPS * params.L
