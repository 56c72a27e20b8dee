"""Benchmark workloads: paper-parameter runs of the aah_pump CLI and library.

`run.py` starts this file as a fresh worker process for each repetition:

    python3 bench/workloads.py --workload NAME --phi0 X --cell C --trace 0|1 --out DIR

The worker receives only the generated inputs (phi0 and the initial cell),
never the seed.  It times the workload's operations, checks every output and
writes DIR/result.json.  An operation is one CLI experiment or one top-level
library call; it fails on a non-zero exit code, a typed library error, a
failing manifest `invariant_checks` entry or a failing benchmark check.
CLI outputs go to a temporary directory under DIR, removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from aah_pump import cli, dynamics, effective, spectrum, wannier
from aah_pump.model import ModelParams, TunnelingMode, site_index

from tracing import Tracer

PAPER = {"J": 1.0, "V0": 30.0, "p": 1, "q": 3, "omega": 0.01, "L": 15}
TOP_CHERN = [-1, 2, -1]
LIBRARY_ERRORS = (
    dynamics.IntegratorError, dynamics.SeamDensityError, dynamics.GaugeContinuityError,
    spectrum.BandTouchingError, effective.DivergentDenominatorError,
    ValueError, AssertionError,  # the spread identity raises AssertionError
)


class Run:
    """Counts operations and failures, and keeps outputs for the digest."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.attempted = 0
        self.failures: list[str] = []
        self.values: dict[str, float] = {}
        self.arrays: list[np.ndarray] = []
        self._op_failed = False

    @contextlib.contextmanager
    def op(self, label: str):
        self.attempted += 1
        self._op_failed = False
        try:
            yield
        except LIBRARY_ERRORS as exc:
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
        if self._op_failed:
            self.failures.append(label)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self._fail(what)

    def _fail(self, what: str) -> None:
        print(f"FAILED {what}", file=sys.stderr)
        self._op_failed = True

    def cli(self, experiment: str, **settings) -> dict:
        """Run one CLI experiment in a fresh output directory and return its
        manifest; failing invariant checks count against the operation."""
        outdir = self.tmp / f"op{self.attempted:04d}"
        argv = [experiment, "--outdir", str(outdir)]
        for key, value in settings.items():
            text = value if isinstance(value, str) else repr(value)  # repr round-trips floats
            argv += ["--set", f"{key}={text}"]
        code = cli.main(argv)
        if code != 0:
            self._fail(f"{experiment}: exit code {code}")
            return {}
        manifest = json.loads((outdir / experiment / "manifest.json").read_text())
        for name, check in manifest["invariant_checks"].items():
            self.check(check["pass"], f"{experiment}: invariant check {name} "
                                      f"failed (value {check['value']})")
        return manifest

    def outputs_digest(self) -> str:
        """Hash of every output, leaving out the manifest's `config.outdir`."""
        h = hashlib.sha256()
        for path in sorted(p for p in self.tmp.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(self.tmp)).encode())
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifest["config"].pop("outdir")
                h.update(json.dumps(manifest, sort_keys=True).encode())
            else:
                h.update(path.read_bytes())
        for arr in self.arrays:
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.tmp.rglob("*") if p.is_file())


def pump_echo(run: Run, phi0: float, cell: int) -> None:
    site = site_index(cell, PAPER["q"], PAPER["q"])
    with run.op("pump-echo"):
        m = run.cli("pump-echo", **PAPER, phi0=phi0, n_cycles=2, initial_site=site)
        if m:
            error = abs(m["delta_p_final_cells"] - 2 * m["chern"][-1])
            run.check(error < 1e-2, f"pump-echo: |dP(2T) - 2 C_top| = {error:.3e} >= 1e-2")
            run.values["transport_error_cells"] = error
            run.values["echo_width_sites"] = m["d_w_final_sites"]
            run.values["norm_drift"] = m["invariant_checks"]["norm_drift"]["value"]


def effective_compare(run: Run, phi0: float, cell: int) -> None:
    # omega = 0.05 instead of the paper's 0.01 keeps one run near 20 s; the ramp
    # is then not adiabatic, so this compares two propagators and does not
    # test quantized pumping.
    site = site_index(cell, PAPER["q"], PAPER["q"])
    settings = {**PAPER, "omega": 0.05}
    with run.op("effective-compare"):
        m = run.cli("effective-compare", **settings, phi0=phi0, n_cycles=1, initial_site=site)
        if m:
            run.values["effective_infidelity"] = 1.0 - m["final_state_fidelity"]
            checks = m["invariant_checks"]
            run.values["norm_drift"] = max(checks["norm_drift_full"]["value"],
                                           checks["norm_drift_effective"]["value"])


def topology(run: Run, phi0: float, cell: int) -> None:
    for mode in ("uniform", "sine"):
        settings = {**PAPER, "phi0": phi0, "tunneling_mode": mode}
        for experiment in ("bands", "flatness"):
            with run.op(f"{experiment} {mode}"):
                run.cli(experiment, **settings)
        with run.op(f"chern {mode}"):
            m = run.cli("chern", **settings)
            run.check(m.get("chern") == TOP_CHERN,
                      f"chern {mode}: C = {m.get('chern')}, expected {TOP_CHERN}")
        with run.op(f"phases {mode}"):
            m = run.cli("phases", **settings)
            run.check(m.get("chern") == TOP_CHERN[-1],
                      f"phases {mode}: C = {m.get('chern')}, expected {TOP_CHERN[-1]}")
    # the refine-and-compare of acceptance criterion 01
    for L, n_t in ((30, 480), (60, 960)):
        settings = {**PAPER, "phi0": phi0, "tunneling_mode": "sine", "L": L}
        with run.op(f"chern sine L={L}"):
            m = run.cli("chern", **settings, n_t=n_t)
            run.check(m.get("chern") == TOP_CHERN,
                      f"chern sine L={L}: C = {m.get('chern')}, expected {TOP_CHERN}")
        with run.op(f"phases sine L={L}"):
            m = run.cli("phases", **settings)
            run.check(m.get("chern") == TOP_CHERN[-1],
                      f"phases sine L={L}: C = {m.get('chern')}, expected {TOP_CHERN[-1]}")


def wannier_set(run: Run, phi0: float, cell: int) -> None:
    """The CLI's MLWS reference set at L = 60: one maximally localized state of
    the highest band per cell, from the t = 0 band solve."""
    for mode in (TunnelingMode.UNIFORM, TunnelingMode.SINE_MODULATED):
        params = ModelParams(**{**PAPER, "L": 60}, phi0=phi0, tunneling_mode=mode)
        q = params.q
        bands0 = None
        with run.op(f"solve_bands {mode.value}"):
            bands0 = spectrum.solve_bands(params, np.array([0.0]))
        if bands0 is None:
            continue
        for r in range(1, params.L + 1):
            with run.op(f"maximally_localize {mode.value} cell {r}"):
                state, report, _ = wannier.maximally_localize(bands0, q - 1, r)
                run.arrays.append(state.amplitudes)
                # cell r covers positions q(r-1) + 1/2 .. qr + 1/2 in sites
                run.check(abs(report.center - (q * (r - 1) + (q + 1) / 2)) < q / 2,
                          f"{mode.value} cell {r}: centre {report.center:.4f} "
                          "outside its home cell")
                run.values["wannier_omega_d_max"] = max(
                    run.values.get("wannier_omega_d_max", 0.0), report.omega_D)


# bound at import, before a tracer wraps numpy.linalg.eigh, so that the speed
# probe never shows up in the spans
_UNTRACED_EIGH = np.linalg.eigh


class SpeedProbe:
    """Samples the speed of the worker's core while the workload runs.

    On a shared machine a core's speed drifts by up to 1.5x over seconds to
    minutes under other tenants' load; repetitions in one run do not average
    that away.  Every PERIOD_S a SIGALRM handler in the worker's own thread
    times a fixed probe (a small batched eigh plus a Python loop, the mix the
    workloads run).  Probe time lands inside the workload's wall time and is
    subtracted from it.
    """

    PERIOD_S = 0.1
    REFERENCE_S = 1.0e-3  # probe time of the reference core of `wall_norm_s`

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((150, 3, 3)) + 1j * rng.standard_normal((150, 3, 3))
        self._h = a + np.conj(np.swapaxes(a, -1, -2))
        self.samples: list[float] = []

    def _probe(self, signum, frame):
        start = perf_counter()
        _UNTRACED_EIGH(self._h)
        acc = 0
        for i in range(10000):
            acc += i
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def mean_s(self) -> float:
        if not self.samples:
            raise RuntimeError("the workload ended before the first speed probe")
        return sum(self.samples) / len(self.samples)

    def normalize(self, wall_s: float) -> float:
        """Wall time without the probes, scaled to the reference core speed."""
        return (wall_s - sum(self.samples)) * self.REFERENCE_S / self.mean_s


WORKLOADS = {
    "pump-echo": pump_echo,
    "effective-compare": effective_compare,
    "topology": topology,
    "wannier": wannier_set,
}


def environment() -> dict:
    """numpy/scipy versions, BLAS library and thread settings, nproc, Python."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--phi0", type=float, required=True)
    parser.add_argument("--cell", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    tmp = args.out / "tmp"
    tmp.mkdir(parents=True)
    run = Run(tmp)
    tracer = Tracer() if args.trace else contextlib.nullcontext()
    try:
        with tracer, SpeedProbe() as probe:
            start = perf_counter()
            WORKLOADS[args.workload](run, args.phi0, args.cell)
            wall_s = perf_counter() - start
        result = {
            "wall_s": wall_s,
            "wall_norm_s": probe.normalize(wall_s),
            "probe_mean_s": probe.mean_s,
            "probes": len(probe.samples),
            "attempted": run.attempted,
            "failed": len(run.failures),
            "failures": run.failures,
            "values": run.values,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bytes_written": run.bytes_written(),
            "digest": run.outputs_digest(),
            "environment": environment(),
        }
        if args.trace:
            result["layers"] = tracer.summary()
            tracer.save(args.out / "spans.npz")
    finally:
        shutil.rmtree(tmp)
    (args.out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
