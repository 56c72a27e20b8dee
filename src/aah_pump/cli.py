"""Command-line front end for pump experiments.

Each experiment writes plain delimited text files with commented headers plus
a JSON manifest recording every resolved parameter, grid size, tolerance,
and invariant check, with `status` "ok".  A run stopped by a typed library
error still writes a manifest, with `status` "failed" and the error's type
and message.  Runs are deterministic: identical configurations produce
bit-identical files.

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
from .model import ModelParams, Sign, TunnelingMode, site_index
from .dynamics import Protocol

EXPERIMENTS = (
    "bands",
    "chern",
    "flatness",
    "phases",
    "pump-traditional",
    "pump-echo",
    "pump-suppressed",
    "effective-compare",
)

_FLOAT_FMT = "%.17g"


@dataclass
class RunConfig:
    experiment: str
    J: float = 1.0
    V0: float = 30.0
    p: int = 1
    q: int = 3
    phi0: float = 0.0
    omega: float = 0.01
    L: int = 15
    tunneling_mode: str = "uniform"
    n_cycles: int | None = None
    initial_site: int | None = None
    initial_mlws_band: int | None = None
    initial_mlws_cell: int | None = None
    dt: float | None = None
    n_t: int = 240
    n_t_phases: int = 4096
    band: int | None = None  # band index for phases (default: highest)
    outdir: str = "runs"

    def model_params(self) -> ModelParams:
        mode = {
            "uniform": TunnelingMode.UNIFORM,
            "sine": TunnelingMode.SINE_MODULATED,
        }.get(self.tunneling_mode)
        if mode is None:
            raise ValueError(f"unknown tunneling_mode {self.tunneling_mode!r}")
        return ModelParams(J=self.J, V0=self.V0, p=self.p, q=self.q,
                           phi0=self.phi0, omega=self.omega, L=self.L,
                           tunneling_mode=mode)


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


def _resolve_initial(cfg: RunConfig, params: ModelParams):
    if cfg.initial_mlws_band is not None or cfg.initial_mlws_cell is not None:
        band = cfg.initial_mlws_band if cfg.initial_mlws_band is not None else params.q - 1
        cell = cfg.initial_mlws_cell if cfg.initial_mlws_cell is not None else _default_cell(params)
        bands0 = spectrum.solve_bands(params, np.array([0.0]))
        state, _, _ = wannier.maximally_localize(bands0, band, cell)
        return state.amplitudes, f"mlws band={band} cell={cell}"
    cell = _default_cell(params)
    site = cfg.initial_site if cfg.initial_site is not None else site_index(cell, params.q, params.q)
    return site, f"site {site}"


def _default_cell(params: ModelParams) -> int:
    return min(params.L, params.L // 2 + 2)


def _write_table(path: Path, header: str, columns: list, names: list) -> None:
    data = np.column_stack(columns)
    col_line = "columns: " + "\t".join(names)
    np.savetxt(path, data, fmt=_FLOAT_FMT, delimiter="\t",
               header=header + "\n" + col_line)


def _write_matrix(path: Path, header: str, matrix: np.ndarray) -> None:
    np.savetxt(path, matrix, fmt=_FLOAT_FMT, delimiter="\t", header=header)


class _ManifestEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (TunnelingMode, Sign, Protocol)):
            return o.value
        return super().default(o)


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
    (outdir / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, cls=_ManifestEncoder) + "\n"
    )


def _trajectory_outputs(outdir: Path, params: ModelParams, traj, refs: dict) -> dict:
    t_over = traj.times / params.period
    bands_at = spectrum.solve_bands(params, traj.times)
    pops = observables.band_population(traj.states, bands_at)
    _write_table(
        outdir / "observables.tsv",
        "pump trajectory observables (positions in unit cells / sites)",
        [t_over, traj.delta_p, traj.d_w,
         np.linalg.norm(traj.states, axis=1)] + [pops[:, m] for m in range(params.q)],
        ["t_over_T", "delta_p_cells", "d_w_sites", "norm"]
        + [f"population_band{m}" for m in range(params.q)],
    )
    _write_matrix(outdir / "density.tsv",
                  "site density <n_j>(t); rows follow density_rows.tsv, "
                  "columns are sites 1..N", traj.density)
    _write_table(outdir / "density_rows.tsv", "row axis of density.tsv",
                 [t_over], ["t_over_T"])
    _write_table(outdir / "density_cols.tsv", "column axis of density.tsv",
                 [np.arange(1, params.n_sites + 1)], ["site"])
    band_min = float(np.min(pops[:, params.q - 1]))
    checks = {
        "norm_drift": {"value": traj.norm_drift, "pass": bool(traj.norm_drift < 1e-8)},
        "seam_density_max": {"value": traj.seam_density_max,
                             "pass": bool(traj.seam_density_max <= 1e-3)},
        # `final` is the end-of-run population, reported beside the minimum
        # over the run, which the check bounds
        "min_highest_band_population": {"value": band_min,
                                        "final": float(pops[-1, params.q - 1]),
                                        "pass": bool(band_min >= 0.99)},
    }
    return {
        "delta_p_final_cells": float(traj.delta_p[-1]),
        "d_w_final_sites": float(traj.d_w[-1]),
        "d_w_max_sites": float(np.max(traj.d_w)),
        "projections_final": {label: float(np.abs(np.vdot(ref, traj.final_state)) ** 2)
                              for label, ref in refs.items()},
        "invariant_checks": checks,
        "integrator": {"dt": traj.dt, "samples": len(traj.times),
                       "rule": "fourth-order Magnus (one exact unitary per step from "
                               "the midpoint Hamiltonian and its derivatives from "
                               "three midpoints of the chunk); the chunk propagators "
                               "of one period serve every period, conjugated at -k "
                               "on echo-reversed periods"},
    }


def _mlws_references(params: ModelParams) -> dict:
    """The highest band's MLWS of every cell, from `wannier.maximally_localize`."""
    bands0 = spectrum.solve_bands(params, np.array([0.0]))
    band = params.q - 1
    return {f"mlws_cell{cell}": wannier.maximally_localize(bands0, band, cell)[0].amplitudes
            for cell in range(1, params.L + 1)}


def run(cfg: RunConfig) -> int:
    """Execute one experiment; returns a process exit code."""
    if cfg.experiment not in EXPERIMENTS:
        print(f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}",
              file=sys.stderr)
        return 2
    try:
        params = cfg.model_params()
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.outdir) / cfg.experiment
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if cfg.experiment == "bands":
            _run_bands(cfg, params, outdir)
        elif cfg.experiment == "chern":
            _run_chern(cfg, params, outdir)
        elif cfg.experiment == "flatness":
            _run_flatness(cfg, params, outdir)
        elif cfg.experiment == "phases":
            _run_phases(cfg, params, outdir)
        elif cfg.experiment == "effective-compare":
            _run_effective_compare(cfg, params, outdir)
        else:
            _run_pump(cfg, params, outdir)
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
    t_grid = spectrum.default_topology_grid(params, cfg.n_t)
    bands = spectrum.solve_bands(params, t_grid)
    t_col, k_col = np.meshgrid(t_grid, bands.k_grid, indexing="ij")
    energy_cols = [bands.energies[m].T.ravel() for m in range(params.q)]
    _write_table(outdir / "bands.tsv", "band energies over the (k, t) grid",
                 [t_col.ravel(), k_col.ravel()] + energy_cols,
                 ["t", "k"] + [f"E_band{m}" for m in range(params.q)])
    _manifest(outdir, cfg, params, {
        "grids": {"n_t": cfg.n_t, "n_k": params.L},
        "invariant_checks": {
            "min_gap": {"value": bands.min_gap(),
                        "pass": bool(bands.min_gap() > 1e-6 * abs(params.V0))},
        },
    })


def _run_chern(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    t_grid = spectrum.default_topology_grid(params, cfg.n_t)
    bands = spectrum.solve_bands(params, t_grid)
    cherns = [spectrum.chern_number(bands, m) for m in range(params.q)]
    _write_table(outdir / "chern.tsv", "Chern numbers per band",
                 [np.arange(params.q), np.asarray(cherns)], ["band", "chern"])
    print("Chern numbers:", tuple(cherns))
    _manifest(outdir, cfg, params, {
        "chern": cherns,
        "grids": {"n_t": cfg.n_t, "n_k": params.L},
        "invariant_checks": {
            "chern_sum_zero": {"value": int(sum(cherns)), "pass": sum(cherns) == 0},
        },
    })


def _run_flatness(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    t_grid = spectrum.default_topology_grid(params, cfg.n_t)
    bands = spectrum.solve_bands(params, t_grid)
    report = spectrum.flatness(bands)
    cols = [t_grid, report.phases]
    names = ["t", "phi"]
    for m in range(params.q - 1):
        cols.append(report.gaps[m])
        names.append(f"gap{m}{m + 1}")
    for m in range(params.q):
        cols.append(report.widths[m])
        names.append(f"width_band{m}")
    for m in range(params.q):
        cols.append(report.ratios[m])
        names.append(f"flatness_band{m}")
    _write_table(outdir / "flatness.tsv", "gaps, bandwidths, flatness ratios", cols, names)
    _manifest(outdir, cfg, params, {
        "grids": {"n_t": cfg.n_t, "n_k": params.L},
        "invariant_checks": {
            "gaps_positive": {"value": float(np.min(report.gaps)),
                              "pass": bool(np.min(report.gaps) > 0)},
        },
    })


def _run_phases(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    band = cfg.band if cfg.band is not None else params.q - 1
    t_grid = np.linspace(0.0, params.period, cfg.n_t_phases + 1)
    bands = spectrum.solve_bands(params, t_grid)
    rec = dynamics.accumulate_phases(params, bands, band)
    _write_table(outdir / "phases.tsv",
                 f"cycle phases and momentum-resolved shifts for band {band}",
                 [rec.k_grid, rec.gamma_b, rec.gamma_d, rec.gamma,
                  rec.x_b, rec.x_d, rec.xi],
                 ["k", "gamma_b", "gamma_d", "gamma", "X_b", "X_d", "xi"])
    pred = wannier.predict_dispersion(rec.gamma, rec.k_grid)
    mean_xb = float(np.mean(rec.x_b))
    mean_xd = float(np.mean(rec.x_d))
    _manifest(outdir, cfg, params, {
        "band": band,
        "chern": rec.chern,
        "predicted_dispersion_omega_d": pred,
        "grids": {"n_t": cfg.n_t_phases, "n_k": params.L},
        "invariant_checks": {
            "mean_x_b_equals_qC": {
                "value": mean_xb,
                "pass": bool(abs(mean_xb - params.q * rec.chern) < 1e-2),
            },
            "mean_x_d_vanishes": {
                "value": mean_xd,
                "pass": bool(abs(mean_xd) < 1e-3 * np.max(np.abs(rec.x_d))),
            },
        },
    })


def _run_pump(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    protocol = {
        "pump-traditional": Protocol.TRADITIONAL,
        "pump-echo": Protocol.ECHO,
        "pump-suppressed": Protocol.SUPPRESSED,
    }[cfg.experiment]
    n_cycles = cfg.n_cycles if cfg.n_cycles is not None else (
        2 if protocol is Protocol.ECHO else 1)
    initial, initial_label = _resolve_initial(cfg, params)
    traj = dynamics.run_protocol(params, protocol, n_cycles, initial, dt=cfg.dt)
    # SUPPRESSED runs with sine-modulated tunneling, whatever the configuration
    run_params = traj.params
    refs = _mlws_references(run_params)
    extra = _trajectory_outputs(outdir, run_params, traj, refs)
    t_grid = spectrum.default_topology_grid(run_params, cfg.n_t)
    cherns = [spectrum.chern_number(spectrum.solve_bands(run_params, t_grid), m)
              for m in range(params.q)]
    extra.update({
        "protocol": protocol.value,
        "n_cycles": n_cycles,
        "initial_state": initial_label,
        "chern": cherns,
        "note": "delta_p is reported in unit cells; quantized transport "
                "compares delta_p per cycle against the band Chern number",
    })
    _manifest(outdir, cfg, run_params, extra)


def _run_effective_compare(cfg: RunConfig, params: ModelParams, outdir: Path) -> None:
    n_cycles = cfg.n_cycles if cfg.n_cycles is not None else 1
    initial, initial_label = _resolve_initial(cfg, params)
    full, eff, fidelity = effective.compare_effective(
        params, initial, n_cycles=n_cycles, dt=cfg.dt)
    t_over = full.times / params.period
    _write_table(outdir / "observables_full.tsv", "full Hamiltonian trajectory",
                 [t_over, full.delta_p, full.d_w], ["t_over_T", "delta_p_cells", "d_w_sites"])
    _write_table(outdir / "observables_effective.tsv",
                 "piecewise effective Hamiltonian trajectory",
                 [t_over, eff.delta_p, eff.d_w], ["t_over_T", "delta_p_cells", "d_w_sites"])
    dp_diff = np.abs(full.delta_p - eff.delta_p)
    dw_diff = np.abs(full.d_w - eff.d_w)
    _write_table(outdir / "discrepancy.tsv",
                 "pointwise differences between the two trajectories",
                 [t_over, dp_diff, dw_diff],
                 ["t_over_T", "abs_delta_p_diff", "abs_d_w_diff"])
    _manifest(outdir, cfg, params, {
        "n_cycles": n_cycles,
        "initial_state": initial_label,
        "final_state_fidelity": fidelity,
        "max_delta_p_diff_cells": float(np.max(dp_diff)),
        "max_d_w_diff_sites": float(np.max(dw_diff)),
        "note": "the effective generator is piecewise in the modulation "
                "phase and discontinuous at region boundaries",
        "invariant_checks": {
            "norm_drift_full": {"value": full.norm_drift,
                                "pass": bool(full.norm_drift < 1e-8)},
            "norm_drift_effective": {"value": eff.norm_drift,
                                     "pass": bool(eff.norm_drift < 1e-8)},
        },
    })


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
