"""Command-line front end for pump experiments.

`_RUNNERS` is the one place an experiment is registered: it maps each name
to its runner, and the argument parser, `EXPERIMENTS` and `run` all read it.
Each experiment writes plain delimited text files with commented headers plus
a JSON manifest recording every resolved parameter, grid size, tolerance,
and invariant check, with `status` "ok".  A run stopped by a typed library
error still writes a manifest, with `status` "failed" and the error's type
and message.  Runs are deterministic: identical configurations produce
bit-identical files.  The CLI restates no library bound: a check of a bound
the library enforces reads its constant and passes exactly when it did not raise.

A pump run takes its model from its protocol (`dynamics._protocol_params`):
a suppressed run uses sine-modulated tunneling whatever `tunneling_mode`
says, so its initial MLWS, its MLWS references, its Chern numbers and its
manifest's model all come from the sine chain.  One t = 0 band solve serves
the initial MLWS and the references, one Wannier basis audited once, and one
band solve serves all Chern numbers of a run.  Chern numbers and cycle
phases read the first q-th of the topology grid when q divides its
intervals, and the whole grid otherwise; bands and flatness write every
time of it.  A Chern list that does not sum to zero fails the run.

Config files use `key = value` lines (# comments allowed); any CLI flag
overrides the file.  The value `none` is taken only by the fields that default
to none, and the experiment is the first argument, never a key.  Exit codes:
0 success, 1 numerical/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dynamics, effective, observables, spectrum, wannier
from .model import ModelParams, TunnelingMode, site_index
from .dynamics import Protocol

_FLOAT_FMT = "%.17g"


@dataclass
class RunConfig:
    experiment: str
    J: float = ModelParams.J
    V0: float = ModelParams.V0
    p: int = ModelParams.p
    q: int = ModelParams.q
    phi0: float = ModelParams.phi0
    omega: float = ModelParams.omega
    L: int = ModelParams.L
    tunneling_mode: str = ModelParams.tunneling_mode.value
    n_cycles: int | None = None
    initial_site: int | None = None
    initial_mlws_band: int | None = None
    initial_mlws_cell: int | None = None
    dt: float | None = None
    n_t: int = 240
    # a multiple of q = 3, so the phases run solves and reads one q-th of the
    # period (`_topology_strip`)
    n_t_phases: int = 4098
    band: int | None = None  # band index for phases (default: highest)
    outdir: str = "runs"

    def model_params(self) -> ModelParams:
        return ModelParams(J=self.J, V0=self.V0, p=self.p, q=self.q,
                           phi0=self.phi0, omega=self.omega, L=self.L,
                           tunneling_mode=TunnelingMode(self.tunneling_mode))


def parse_config_file(path: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def _coerce(field_name: str, value: str):
    types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    if field_name == "experiment":
        raise ValueError("the experiment is the first argument, not a config key")
    if field_name not in types:
        raise ValueError(f"unknown config key {field_name!r}")
    hint = types[field_name]
    if value == "none":
        if "None" not in hint:
            raise ValueError(f"{field_name} cannot be none")
        return None
    if "int" in hint:
        return int(value)
    if "float" in hint:
        return float(value)
    return value


def _resolve_initial(cfg: RunConfig, params: ModelParams, basis=None):
    """The start of a run on `params`, a site or an MLWS, and its label.  An
    MLWS is a member of `basis`, the run's audited Wannier basis at t = 0
    (`_mlws_basis`), made here if not given.  A site and an MLWS field set
    together are a ValueError."""
    mlws = cfg.initial_mlws_band is not None or cfg.initial_mlws_cell is not None
    if mlws and cfg.initial_site is not None:
        raise ValueError("initial_site conflicts with initial_mlws_band/initial_mlws_cell: "
                         "a run starts from a site or from an MLWS, not both")
    if not mlws:
        site = cfg.initial_site if cfg.initial_site is not None else site_index(
            _default_cell(params), params.q, params.q)
        return site, f"site {site}"
    band = cfg.initial_mlws_band if cfg.initial_mlws_band is not None else params.q - 1
    cell = cfg.initial_mlws_cell if cfg.initial_mlws_cell is not None else _default_cell(params)
    if not 0 <= band < params.q:
        raise ValueError(f"initial_mlws_band must lie in 0..{params.q - 1}, got {band}")
    if not 1 <= cell <= params.L:
        raise ValueError(f"initial_mlws_cell must lie in 1..{params.L}, got {cell}")
    if basis is None:
        basis = _mlws_basis(spectrum.solve_bands(params, np.array([0.0])))
    return basis[band, cell - 1], f"mlws band={band} cell={cell}"


def _mlws_basis(bands0: spectrum.BandSolution) -> np.ndarray:
    """The Wannier basis of the t = 0 band solve `bands0`, audited once by
    `wannier.spread_decomposition` on its top band's cell-1 member."""
    basis = wannier.wannier_basis(bands0)
    top = bands0.params.q - 1
    wannier.spread_decomposition(wannier.WannierState(basis[top, 0], top, 1), basis)
    return basis


def _default_cell(params: ModelParams) -> int:
    return min(params.L, params.L // 2 + 2)


def _topology_bands(cfg: RunConfig, params: ModelParams) -> spectrum.BandSolution:
    """The band solve on the closed topology grid of `cfg.n_t` intervals."""
    return spectrum.solve_bands(params, spectrum.default_topology_grid(params, cfg.n_t))


def _topology_strip(params: ModelParams, n_t: int) -> np.ndarray:
    """The closed topology grid of n_t intervals, cut to its first q-th when q
    divides n_t: Chern numbers and cycle phases read one q-th of the period
    as well as all of it (`spectrum.BandSolution`)."""
    grid = spectrum.default_topology_grid(params, n_t)
    return grid[:n_t // params.q + 1] if n_t % params.q == 0 else grid


def _chern_numbers(cfg: RunConfig, params: ModelParams) -> list:
    """The Chern number of every band on the topology grid, or on its first
    q-th (`_topology_strip`); the band solve is not kept.  Raises
    BandTouchingError when they do not sum to zero: the grid passes a band
    closing that no plaquette's flux shows."""
    bands = spectrum.solve_bands(params, _topology_strip(params, cfg.n_t))
    cherns = [spectrum.chern_number(bands, m) for m in range(params.q)]
    if sum(cherns) != 0:
        raise spectrum.BandTouchingError(
            f"Chern numbers {cherns} do not sum to zero on the {cfg.n_t}-interval "
            "topology grid; a band closes between grid points or the grid is too coarse")
    return cherns


def _write_table(path: Path, header: str, columns: dict) -> None:
    """Equal-length columns, keyed by name, under a commented header."""
    np.savetxt(path, np.column_stack(list(columns.values())), fmt=_FLOAT_FMT,
               delimiter="\t", header=header + "\ncolumns: " + "\t".join(columns))


def _per_band(prefix: str, rows) -> dict:
    """Columns named prefix0, prefix1, ... for rows indexed by band."""
    return {f"{prefix}{m}": row for m, row in enumerate(rows)}


def _check(value, ok) -> dict:
    """One `invariant_checks` entry."""
    return {"value": value, "pass": bool(ok)}


def _manifest(outdir: Path, cfg: RunConfig, params: ModelParams, extra: dict) -> None:
    """Write manifest.json; `extra` may override the default `status` "ok"."""
    payload = {
        "status": "ok",
        "config": dataclasses.asdict(cfg),
        "model": {
            "J": params.J, "V0": params.V0, "p": params.p, "q": params.q,
            "phi0": params.phi0, "omega": params.omega, "L": params.L,
            "n_sites": params.n_sites, "period": params.period,
            "tunneling_mode": params.tunneling_mode.value,
        },
        **extra,
    }
    (outdir / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns a process exit code."""
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        print(f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}",
              file=sys.stderr)
        return 2
    try:
        params = cfg.model_params()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.outdir) / cfg.experiment
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory: {exc}", file=sys.stderr)
        return 2
    try:
        runner(cfg, params, outdir)
    except (dynamics.IntegratorError, dynamics.SeamDensityError,
            dynamics.GaugeContinuityError, spectrum.BandTouchingError,
            effective.DivergentDenominatorError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        _manifest(outdir, cfg, params, {
            "status": "failed",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })
        return 1
    return 0


def _run_bands(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    bands = _topology_bands(cfg, params)
    t_col, k_col = np.meshgrid(bands.t_grid, bands.k_grid, indexing="ij")
    _write_table(outdir / "bands.tsv", "band energies over the (k, t) grid",
                 {"t": t_col.ravel(), "k": k_col.ravel(),
                  **_per_band("E_band", [e.T.ravel() for e in bands.energies])})
    gap = bands.min_gap()
    _manifest(outdir, cfg, params, {
        "grids": {"n_t": cfg.n_t, "n_k": params.L},
        "invariant_checks": {"min_gap": _check(gap, gap > spectrum.GAP_TOLERANCE * abs(params.V0))},
    })


def _run_chern(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    cherns = _chern_numbers(cfg, params)
    _write_table(outdir / "chern.tsv", "Chern numbers per band",
                 {"band": np.arange(params.q), "chern": np.asarray(cherns)})
    print("Chern numbers:", tuple(cherns))
    _manifest(outdir, cfg, params, {
        "chern": cherns,
        "grids": {"n_t": cfg.n_t, "n_k": params.L},
        "invariant_checks": {"chern_sum_zero": _check(int(sum(cherns)), sum(cherns) == 0)},
    })


def _run_flatness(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    report = spectrum.flatness(_topology_bands(cfg, params))
    _write_table(outdir / "flatness.tsv", "gaps, bandwidths, flatness ratios", {
        "t": report.t_grid, "phi": report.phases,
        **{f"gap{m}{m + 1}": gap for m, gap in enumerate(report.gaps)},
        **_per_band("width_band", report.widths),
        **_per_band("flatness_band", report.ratios),
    })
    min_gap = float(np.min(report.gaps))
    _manifest(outdir, cfg, params, {
        "grids": {"n_t": cfg.n_t, "n_k": params.L},
        "invariant_checks": {"gaps_positive": _check(min_gap, min_gap > 0)},
    })


def _run_phases(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    band = cfg.band if cfg.band is not None else params.q - 1
    bands = spectrum.solve_bands(params, _topology_strip(params, cfg.n_t_phases))
    rec = dynamics.accumulate_phases(params, bands, band)
    _write_table(outdir / "phases.tsv",
                 f"cycle phases and momentum-resolved shifts for band {band}",
                 {"k": rec.k_grid, "gamma_b": rec.gamma_b, "gamma_d": rec.gamma_d,
                  "gamma": rec.gamma, "X_b": rec.x_b, "X_d": rec.x_d, "xi": rec.xi})
    mean_xb = float(np.mean(rec.x_b))
    mean_xd = float(np.mean(rec.x_d))
    _manifest(outdir, cfg, params, {
        "band": band,
        "chern": rec.chern,
        "predicted_dispersion_omega_d": wannier.predict_dispersion(rec.gamma, rec.k_grid),
        "grids": {"n_t": cfg.n_t_phases, "n_k": params.L},
        "invariant_checks": {
            "mean_x_b_equals_qC": _check(mean_xb,
                                         abs(mean_xb - params.q * rec.chern) < 1e-2),
            "mean_x_d_vanishes": _check(mean_xd,
                                        abs(mean_xd) < 1e-3 * np.max(np.abs(rec.x_d))),
        },
    })


def _run_pump(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    protocol = Protocol(cfg.experiment.removeprefix("pump-"))
    n_cycles = cfg.n_cycles if cfg.n_cycles is not None else (
        2 if protocol is Protocol.ECHO else 1)
    params = dynamics._protocol_params(params, protocol)
    # the topology grid is checked before anything is propagated, and no table
    # is written before every library step has returned
    cherns = _chern_numbers(cfg, params)
    basis = _mlws_basis(spectrum.solve_bands(params, np.array([0.0])))
    initial, initial_label = _resolve_initial(cfg, params, basis)
    traj = dynamics.run_protocol(params, protocol, n_cycles, initial, dt=cfg.dt)
    top = params.q - 1
    t_over = traj.times / params.period
    pops = observables.band_population(traj.states, spectrum.solve_bands(params, traj.times))
    _write_table(outdir / "observables.tsv",
                 "pump trajectory observables (positions in unit cells / sites)",
                 {"t_over_T": t_over, "delta_p_cells": traj.delta_p, "d_w_sites": traj.d_w,
                  "norm": np.linalg.norm(traj.states, axis=1),
                  **_per_band("population_band", pops.T)})
    np.savetxt(outdir / "density.tsv", traj.density, fmt=_FLOAT_FMT, delimiter="\t",
               header="site density <n_j>(t); rows follow density_rows.tsv, "
                      "columns are sites 1..N")
    _write_table(outdir / "density_rows.tsv", "row axis of density.tsv", {"t_over_T": t_over})
    _write_table(outdir / "density_cols.tsv", "column axis of density.tsv",
                 {"site": np.arange(1, params.n_sites + 1)})
    band_min = float(np.min(pops[:, top]))
    _manifest(outdir, cfg, params, {
        "delta_p_final_cells": float(traj.delta_p[-1]),
        "d_w_final_sites": float(traj.d_w[-1]),
        "d_w_max_sites": float(np.max(traj.d_w)),
        "projections_final": {f"mlws_cell{cell}": float(np.abs(np.vdot(ref, traj.final_state)) ** 2)
                              for cell, ref in enumerate(basis[top], 1)},
        "invariant_checks": {
            "norm_drift": _check(traj.norm_drift, traj.norm_drift <= dynamics.MAX_NORM_DRIFT),
            "seam_density_max": _check(traj.seam_density_max,
                                       traj.seam_density_max <= dynamics.MAX_SEAM_DENSITY),
            # `final` is the end-of-run population, reported beside the minimum
            # over the run, which the check bounds
            "min_highest_band_population": {**_check(band_min, band_min >= 0.99),
                                            "final": float(pops[-1, top])},
        },
        "integrator": {"dt": traj.dt, "samples": len(traj.times),
                       "rule": "fourth-order Magnus (one exact unitary per step from "
                               "the midpoint Hamiltonian and its derivatives from "
                               "three midpoints of its smooth piece, which runs round "
                               "the period's ends); the chunk propagators of one "
                               "period serve every period, conjugated at -k on "
                               "echo-reversed periods; when the steps per period are "
                               "a multiple of q, the steps of the first q-th of the "
                               "period, translated by p^-1 mod q sites per q-th, "
                               "give the rest"},
        "protocol": protocol.value,
        "n_cycles": n_cycles,
        "initial_state": initial_label,
        "chern": cherns,
        "note": "delta_p is reported in unit cells; quantized transport "
                "compares delta_p per cycle against the band Chern number",
    })


def _run_effective_compare(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    n_cycles = cfg.n_cycles if cfg.n_cycles is not None else 1
    initial, initial_label = _resolve_initial(cfg, params)
    full, eff, fidelity = effective.compare_effective(
        params, initial, n_cycles=n_cycles, dt=cfg.dt)
    t_over = full.times / params.period
    _write_table(outdir / "observables_full.tsv", "full Hamiltonian trajectory",
                 {"t_over_T": t_over, "delta_p_cells": full.delta_p, "d_w_sites": full.d_w})
    _write_table(outdir / "observables_effective.tsv",
                 "piecewise effective Hamiltonian trajectory",
                 {"t_over_T": t_over, "delta_p_cells": eff.delta_p, "d_w_sites": eff.d_w})
    dp_diff = np.abs(full.delta_p - eff.delta_p)
    dw_diff = np.abs(full.d_w - eff.d_w)
    bound = dynamics.MAX_NORM_DRIFT
    _write_table(outdir / "discrepancy.tsv",
                 "pointwise differences between the two trajectories",
                 {"t_over_T": t_over, "abs_delta_p_diff": dp_diff, "abs_d_w_diff": dw_diff})
    _manifest(outdir, cfg, params, {
        "n_cycles": n_cycles,
        "initial_state": initial_label,
        "final_state_fidelity": fidelity,
        "max_delta_p_diff_cells": float(np.max(dp_diff)),
        "max_d_w_diff_sites": float(np.max(dw_diff)),
        "note": "the effective generator is piecewise in the modulation "
                "phase and discontinuous at region boundaries",
        "invariant_checks": {
            "norm_drift_full": _check(full.norm_drift, full.norm_drift <= bound),
            "norm_drift_effective": _check(eff.norm_drift, eff.norm_drift <= bound),
        },
    })


# the one registry of experiments, in the order the parser lists them
_RUNNERS = {
    "bands": _run_bands,
    "chern": _run_chern,
    "flatness": _run_flatness,
    "phases": _run_phases,
    "pump-traditional": _run_pump,
    "pump-echo": _run_pump,
    "pump-suppressed": _run_pump,
    "effective-compare": _run_effective_compare,
}
EXPERIMENTS = tuple(_RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aah-pump",
        description="pump experiments on the modulated three-site-cell chain",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("config", nargs="?", default=None,
                        help="optional config file of 'key = value' lines")
    parser.add_argument("--outdir", default=None, help="output directory (default ./runs)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override any config field, e.g. --set omega=0.02")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    values: dict = {}
    if args.config is not None:
        try:
            raw = parse_config_file(args.config)
        except (OSError, ValueError) as exc:
            print(f"bad config file: {exc}", file=sys.stderr)
            return 2
        values.update(raw)
    for token in args.overrides:
        if "=" not in token:
            print(f"--set expects KEY=VALUE, got {token!r}", file=sys.stderr)
            return 2
        key, val = (part.strip() for part in token.split("=", 1))
        values[key] = val
    try:
        coerced = {key: _coerce(key, val) for key, val in values.items()}
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    if args.outdir is not None:
        coerced["outdir"] = args.outdir
    cfg = RunConfig(experiment=args.experiment, **coerced)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
