"""Benchmark of the aah_pump package on four paper workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it needs `src/aah_pump` beside it and exits
with code 2 otherwise.  The seed picks the inputs: seed 0 gives the paper's
(phi0 = 0, initial cell 9); other seeds draw phi0 and the initial cell from a
seeded generator.  Each repetition of the workload runs in a fresh worker
process (`workloads.py`) that is told only the generated inputs.  Untraced
repetitions run as long as another one is expected to end within S seconds;
there is always at least one.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json: the median over the repetitions of the
workload's wall time scaled to a reference core speed (`wall_norm_s`, see
`workloads.SpeedProbe`), the median set-up time (fresh interpreter plus
`import aah_pump.cli`, repeated seven times) and the median peak resident
memory of a worker.  The unscaled median wall time is printed above it.
With `--trace 1` one more repetition runs under the span tracer
(`tracing.py`) and the line carries the per-layer metrics instead, with
`trace.overhead_s`, the traced `wall_norm_s` minus the untraced median.

`correct` is true when no operation failed and every repetition, traced or
not, produced bit-identical outputs.  Results, worker logs, the environment
record and the spans go to `.bench_out/<workload>-seed<N>-trace<T>/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("pump-echo", "effective-compare", "topology", "wannier")
DEADLINE_S = 170.0
SETUP_REPEATS = 7
# The echo moves the packet two cells toward site 1 of the L = 15 ring; starting
# cells 6..10 keep it clear of the seam, where positions are unreliable.
CENTRAL_CELLS = range(6, 11)
# For |phi0| < pi/3 the third site of a cell has the highest on-site energy, so
# a single site starts in the highest band; |phi0| <= pi/6 keeps its on-site
# gap above V0*cos(pi/6), i.e. 26 J at V0 = 30.
PHI0_RANGE = (-math.pi / 6, math.pi / 6)

ACCURACY_UNITS = {
    "norm_drift": "1",
    "transport_error_cells": "cells",
    "echo_width_sites": "sites",
    "effective_infidelity": "1",
    "wannier_omega_d_max": "sites2",
}


def make_inputs(seed: int) -> tuple[float, int]:
    """(phi0, initial cell) for a seed; seed 0 gives the paper's inputs."""
    if seed == 0:
        return 0.0, 9
    rng = random.Random(seed)
    return rng.uniform(*PHI0_RANGE), rng.choice(CENTRAL_CELLS)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def time_setup(env: dict, deadline: float) -> list[float]:
    """Wall times of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import aah_pump.cli"], env=env, cwd=ROOT,
                       check=True, timeout=max(1.0, deadline - perf_counter()))
        times.append(perf_counter() - start)
    return times


def run_worker(args, phi0: float, cell: int, trace: int, out: Path, env: dict,
               deadline: float) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
           "--phi0", repr(phi0), "--cell", str(cell), "--trace", str(trace),
           "--out", str(out)]
    with open(out / "worker.log", "w") as log:
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                       check=True, timeout=max(1.0, deadline - perf_counter()))
    return json.loads((out / "result.json").read_text())


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return None


def layer_metrics(traced: dict, untraced_wall_norm_s: float) -> dict:
    """Per-layer metrics from the traced repetition's span summary."""
    layers = traced["layers"]
    block_steps = layers.get("dynamics.evolve.block_steps", 0)
    derived = {
        "model.blocks_built": layers.get("model.bloch_blocks_batch.blocks", 0),
        "linalg.eigh.matrices": layers.get("linalg.eigh.matrices", 0),
        "spectrum.grid_points": layers.get("spectrum.solve_bands.grid_points", 0),
        "wannier.transforms": layers["wannier.wannier_from_bloch.calls"],
        "dynamics.steps": layers.get("dynamics.evolve.steps", 0),
        "dynamics.eigensolves_per_step":
            layers["dynamics.eigensolves"] / block_steps if block_steps else 0.0,
        "cli.bytes_written": traced["bytes_written"],
        "trace.overhead_s": traced["wall_norm_s"] - untraced_wall_norm_s,
    }
    for key in ACCURACY_UNITS:
        derived[f"accuracy.{key}"] = traced["values"].get(key, 0.0)
    return {**layers, **derived}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aah_pump benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "aah_pump" / "__init__.py").is_file():
        print(f"error: no aah_pump package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = perf_counter() + DEADLINE_S

    phi0, cell = make_inputs(args.seed)
    env = worker_env()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup = time_setup(env, deadline)
    # start another repetition only if one more is expected to end in time
    reps = []
    begin = perf_counter()
    while not reps or (perf_counter() - begin) * (len(reps) + 1) / len(reps) <= args.seconds:
        reps.append(run_worker(args, phi0, cell, 0, out / f"rep{len(reps):02d}", env, deadline))
    wall_norm_s = statistics.median(r["wall_norm_s"] for r in reps)
    runs = list(reps)
    if args.trace:
        runs.append(run_worker(args, phi0, cell, 1, out / "traced", env, deadline))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    identical = len({r["digest"] for r in runs}) == 1
    if args.trace:
        metrics = layer_metrics(runs[-1], wall_norm_s)
        selected = spec["per_layer"]
    else:
        metrics = {
            "wall_norm_s": wall_norm_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        selected = spec["end_to_end"]
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in selected},
    }

    (out / "environment.json").write_text(json.dumps(
        {**reps[0]["environment"], "git_commit": git_commit()}, indent=2) + "\n")
    (out / "summary.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "phi0": phi0, "cell": cell,
        "setup_s": setup, "repetitions": runs, "outputs_identical": identical,
        **result}, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: phi0={phi0!r}, cell={cell}, "
          f"{len(reps)} untraced repetition(s){', 1 traced' if args.trace else ''}")
    if not identical:
        print("outputs differ between repetitions")
    for failure in (f for r in runs for f in r["failures"]):
        print(f"failed operation: {failure}")
    print(f"  error_rate = {failed}/{attempted} failed/attempted operations")
    print(f"  wall_s = {statistics.median(r['wall_s'] for r in reps):.6g} s (unscaled)")
    for key, value in reps[0]["values"].items():
        print(f"  {key} = {value:.6g} {ACCURACY_UNITS[key]}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
