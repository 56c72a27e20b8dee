"""In-memory span tracer for the benchmark's traced run.

`Tracer` wraps the public functions of every `aah_pump` module, and
`numpy.linalg.eigh` as the layer `linalg`, at each module attribute that binds
them.  Each call becomes a span: name, start, end and parent span.  Spans stay
in memory while the workload runs and are written out when it ends.  A span's
self time is its duration minus the time covered by its direct child spans.

Nothing under `src/` changes: the wrappers are installed on entry to the
`with Tracer():` block and the original functions are restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("model", "spectrum", "wannier", "dynamics", "effective", "observables", "cli")


def _matrices(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    return {"matrices": math.prod(np.shape(a)[:-2])}


def _blocks(args, kwargs, result):
    return {"blocks": math.prod(result.shape[:-2])}


def _grid_points(args, kwargs, result):
    return {"grid_points": math.prod(result.energies.shape[1:])}


def _steps(args, kwargs, result):
    steps = round((result.times[-1] - result.times[0]) / result.dt)
    return {"steps": steps, "block_steps": steps * result.params.L}


# work counted at the boundary where it happens, keyed by span name
COUNTERS = {
    "linalg.eigh": _matrices,
    "model.bloch_blocks_batch": _blocks,
    "effective.effective_bloch_blocks_batch": _blocks,
    "spectrum.solve_bands": _grid_points,
    "dynamics.evolve": _steps,
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counters: dict[int, dict] = {}
        self._stack = [-1]
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that each call records a span named `name`."""
        nid = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        stack, name_id, parent, start, end, raised = (
            self._stack, self.name_id, self.parent, self.start, self.end, self.raised)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                self.counters[i] = count(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = {layer: importlib.import_module(f"aah_pump.{layer}") for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        eigh = np.linalg.eigh
        wrapped[id(eigh)] = (eigh, self.wrap("linalg.eigh", eigh))
        # Bloch builders expose their time-batched form as `.batch`; without it
        # dynamics.evolve silently falls back to a per-time loop.  The wrapper
        # must point at the wrapped batch function.
        for original, wrapper in wrapped.values():
            batch = getattr(original, "batch", None)
            if batch is not None:
                wrapper.batch = wrapped.get(id(batch), (batch, batch))[1]
        for mod in (*modules.values(), np.linalg):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)
        return False

    def arrays(self) -> dict:
        """Spans as arrays: name id, parent index (-1 at the root), start, end."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-function and per-layer totals.

        Keys are `<function>.calls`, `<function>.busy_s`, `<function>.self_s`,
        `<layer>.busy_s`, `<layer>.self_s`, `<layer>.errors`, the summed
        counters as `<function>.<counter>`, and `dynamics.eigensolves`, the
        eigh matrices solved inside `dynamics.evolve`.  Busy time counts only
        the outermost span of a function or layer, so nested calls are not
        counted twice.
        """
        spans = self.arrays()
        nid, parent = spans["name_id"], spans["parent"]
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_t = dur - child

        layer_of = [name.split(".", 1)[0] for name in self.names]
        layer_bits = {}
        for i, layer in enumerate(layer_of):
            layer_bits[layer] = layer_bits.get(layer, 0) | (1 << i)
        evolve_bit = 1 << self.names.index("dynamics.evolve")

        out: dict[str, float] = {"dynamics.eigensolves": 0}
        for name in self.names:
            out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0})
        for layer in layer_bits:
            out.update({f"{layer}.busy_s": 0.0, f"{layer}.self_s": 0.0, f"{layer}.errors": 0})

        def add(key, value):
            out[key] = out.get(key, 0) + value

        # ancestors[i] is the set of span names open around span i, as bits
        nid, parent = nid.tolist(), parent.tolist()
        dur, self_t, raised = dur.tolist(), self_t.tolist(), spans["raised"].tolist()
        ancestors = [0] * len(nid)
        for i, (n, p) in enumerate(zip(nid, parent)):
            if p >= 0:
                ancestors[i] = ancestors[p] | (1 << nid[p])
            name, layer, anc = self.names[n], layer_of[n], ancestors[i]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_t[i])
            add(f"{layer}.self_s", self_t[i])
            if not anc & (1 << n):
                add(f"{name}.busy_s", dur[i])
            if not anc & layer_bits[layer]:
                add(f"{layer}.busy_s", dur[i])
                if raised[i]:
                    add(f"{layer}.errors", 1)
            for key, value in self.counters.get(i, {}).items():
                add(f"{name}.{key}", value)
                if name == "linalg.eigh" and anc & evolve_bit:
                    add("dynamics.eigensolves", value)
        return out
