import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aah_pump import cli, dynamics, spectrum, wannier
from aah_pump.model import ModelParams

# omega=0.1 makes a pump run ten times shorter, but the ramp is then not
# adiabatic (dP is about -0.24 traditional and -0.37 suppressed, and the dense
# reference agrees), so it serves only smokes that assert no transport value.
FAST = ["--set", "omega=0.1"]


def read_manifest(outdir, experiment):
    return json.loads((Path(outdir) / experiment / "manifest.json").read_text())


def test_unknown_experiment_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-an-experiment"])
    assert exc.value.code == 2


def test_invalid_config_key_exits_2(tmp_path):
    assert cli.main(["chern", "--outdir", str(tmp_path), "--set", "bogus=1"]) == 2


@pytest.mark.parametrize("override",
                         ["experiment=chern", "J=none", "outdir=none", "omega=nan"])
def test_invalid_config_value_exits_2(tmp_path, capsys, override):
    # the experiment comes from the first argument only, only fields that
    # default to none take it, and model parameters must be finite
    assert cli.main(["bands", "--outdir", str(tmp_path), "--set", override]) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_unknown_tunneling_mode_exits_2(tmp_path, capsys, experiment):
    # pump-suppressed, which runs the sine chain whatever the mode says, too
    argv = [experiment, "--outdir", str(tmp_path), "--set", "tunneling_mode=bogus"]
    assert cli.main(argv) == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_every_experiment_runs(tmp_path, experiment):
    # cheap settings; omega=0.1 is not adiabatic, so no check need pass
    argv = [experiment, "--outdir", str(tmp_path), "--set", "n_t=48",
            "--set", "n_t_phases=1024"] + FAST
    assert cli.main(argv) == 0
    manifest = read_manifest(tmp_path, experiment)
    assert manifest["status"] == "ok"
    assert manifest["invariant_checks"]
    for check in manifest["invariant_checks"].values():
        assert {"value", "pass"} <= set(check)


def test_experiment_key_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = chern\n")
    assert cli.main(["bands", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_none_sets_an_optional_field(tmp_path):
    assert cli.main(["bands", "--outdir", str(tmp_path), "--set", "n_t=24",
                     "--set", "band=none"]) == 0
    assert read_manifest(tmp_path, "bands")["config"]["band"] is None


def test_malformed_config_file_exits_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega 0.1\n")
    assert cli.main(["chern", str(cfg), "--outdir", str(tmp_path)]) == 2


def test_chern_experiment(tmp_path, capsys):
    code = cli.main(["chern", "--outdir", str(tmp_path),
                     "--set", "tunneling_mode=sine"])
    assert code == 0
    assert "(-1, 2, -1)" in capsys.readouterr().out
    manifest = read_manifest(tmp_path, "chern")
    assert manifest["chern"] == [-1, 2, -1]
    assert manifest["invariant_checks"]["chern_sum_zero"]["pass"]
    table = np.loadtxt(tmp_path / "chern" / "chern.tsv")
    assert table[:, 1].tolist() == [-1.0, 2.0, -1.0]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample configuration\nomega = 0.05\nn_t = 48\n")
    code = cli.main(["bands", str(cfg), "--outdir", str(tmp_path),
                     "--set", "omega=0.08"])
    assert code == 0
    manifest = read_manifest(tmp_path, "bands")
    assert manifest["model"]["omega"] == 0.08
    assert manifest["grids"]["n_t"] == 48


def run_bands(outdir):
    assert cli.main(["bands", "--outdir", str(outdir), "--set", "n_t=24"]) == 0
    base = Path(outdir) / "bands"
    return {p.name: p.read_bytes() for p in sorted(base.iterdir())}


def test_runs_are_bit_identical(tmp_path):
    # an identical configuration, outdir included, gives identical bytes
    first = run_bands(tmp_path / "a")
    assert run_bands(tmp_path / "a") == first
    # outdir is a recorded config field, so another directory changes only
    # that entry of the manifest
    other = run_bands(tmp_path / "b")
    assert other["bands.tsv"] == first["bands.tsv"]
    manifests = [json.loads(files["manifest.json"]) for files in (first, other)]
    assert [m["config"].pop("outdir") for m in manifests] == [
        str(tmp_path / "a"), str(tmp_path / "b")]
    assert manifests[0] == manifests[1]


def test_band_touching_reports_failure(tmp_path, capsys):
    code = cli.main(["bands", "--outdir", str(tmp_path), "--set", "J=0.0"])
    assert code == 1
    assert "band touching" in capsys.readouterr().err


def test_phases_experiment(tmp_path):
    code = cli.main(["phases", "--outdir", str(tmp_path),
                     "--set", "n_t_phases=1024"])
    assert code == 0
    manifest = read_manifest(tmp_path, "phases")
    assert manifest["chern"] == -1
    checks = manifest["invariant_checks"]
    assert checks["mean_x_b_equals_qC"]["pass"]
    assert checks["mean_x_d_vanishes"]["pass"]
    table = np.loadtxt(tmp_path / "phases" / "phases.tsv")
    assert table.shape == (15, 7)


def test_phases_grid_default_is_whole_qths():
    # q*m intervals make the phases run solve and read the first q-th of its
    # grid only; another default would silently solve every point
    assert cli.RunConfig("phases").n_t_phases % ModelParams().q == 0


def test_phases_run_allocates_less_than_one_period_of_states(tmp_path):
    # the run holds the states of one q-th of its grid, not of a whole period
    cfg = cli.RunConfig("phases")
    p = cfg.model_params()
    tracemalloc.start()
    try:
        assert cli.main(["phases", "--outdir", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8.9 MB at L = 15
    assert peak < p.q * p.L * (cfg.n_t_phases + 1) * p.q * np.dtype(complex).itemsize


@pytest.mark.parametrize("experiment", ["chern", "pump-echo"])
def test_chern_list_that_does_not_sum_to_zero_fails_the_run(tmp_path, capsys, monkeypatch,
                                                           experiment):
    # on 3 intervals every band reads -1, yet every plaquette holds less than
    # pi/4, so no band's flux guard refuses it
    def no_propagation(*args, **kwargs):
        raise AssertionError("the run propagated past a failed Chern check")

    monkeypatch.setattr(dynamics, "run_protocol", no_propagation)
    assert cli.main([experiment, "--outdir", str(tmp_path), "--set", "n_t=3"]) == 1
    assert "run failed" in capsys.readouterr().err
    manifest = read_manifest(tmp_path, experiment)
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "BandTouchingError"
    assert "[-1, -1, -1]" in manifest["error"]["message"]
    assert "3-interval" in manifest["error"]["message"]
    assert not list((tmp_path / experiment).glob("*.tsv"))


# The two transport smokes run at the default paper omega=0.01: their dP
# bounds describe quantized transport, which holds only in the adiabatic regime.
# They bound no band population: a single-site start already has about 1% of
# its weight outside the highest band.
def test_pump_traditional_smoke(tmp_path):
    code = cli.main(["pump-traditional", "--outdir", str(tmp_path)])
    assert code == 0
    base = tmp_path / "pump-traditional"
    for name in ("observables.tsv", "density.tsv", "density_rows.tsv",
                 "density_cols.tsv", "manifest.json"):
        assert (base / name).exists()
    manifest = read_manifest(tmp_path, "pump-traditional")
    assert manifest["invariant_checks"]["norm_drift"]["pass"]
    assert manifest["invariant_checks"]["seam_density_max"]["pass"]
    assert -1.3 < manifest["delta_p_final_cells"] < -0.5
    assert manifest["status"] == "ok"
    population = manifest["invariant_checks"]["min_highest_band_population"]
    assert population["value"] <= population["final"] <= 1.0
    obs = np.loadtxt(base / "observables.tsv")
    density = np.loadtxt(base / "density.tsv")
    assert obs.shape[1] == 7  # t/T, dP, D_W, norm, three band populations
    assert density.shape == (obs.shape[0], 45)


def test_failed_run_leaves_manifest(tmp_path, capsys):
    # site 1 sits on the ring seam, so the run stops with SeamDensityError
    argv = ["pump-traditional", "--outdir", str(tmp_path), "--set", "initial_site=1"] + FAST
    assert cli.main(argv) == 1
    assert "run failed" in capsys.readouterr().err
    manifest_path = tmp_path / "pump-traditional" / "manifest.json"
    first = manifest_path.read_bytes()
    manifest = json.loads(first)
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "SeamDensityError"
    assert "seam" in manifest["error"]["message"]
    assert manifest["config"]["initial_site"] == 1
    assert cli.main(argv) == 1
    assert manifest_path.read_bytes() == first


@pytest.mark.parametrize("experiment, override", [
    ("pump-traditional", "dt=-1"),
    ("pump-traditional", "dt=0"),
    ("phases", "band=3"),
    ("phases", "band=-1"),
    ("pump-echo", "initial_mlws_band=3"),
    ("pump-echo", "initial_mlws_band=-1"),
    ("pump-echo", "initial_mlws_cell=0"),
    ("pump-echo", "initial_mlws_cell=16"),
    ("bands", "n_t=0"),
    ("phases", "n_t_phases=-1"),
])
def test_out_of_range_input_leaves_failed_manifest(tmp_path, capsys, experiment, override):
    # each is rejected by the library before any propagation, and the run
    # records the ValueError
    assert cli.main([experiment, "--outdir", str(tmp_path), "--set", override]) == 1
    assert "run failed" in capsys.readouterr().err
    manifest = read_manifest(tmp_path, experiment)
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "ValueError"


@pytest.mark.parametrize("experiment, mlws", [
    ("pump-traditional", ["initial_mlws_cell=7"]),
    ("pump-echo", ["initial_mlws_band=1"]),
    ("effective-compare", ["initial_mlws_band=2", "initial_mlws_cell=9"]),
])
def test_site_and_mlws_start_together_leave_failed_manifest(tmp_path, capsys, monkeypatch,
                                                            experiment, mlws):
    # a run starts from one of the two; taking the MLWS would leave the
    # manifest's config naming a site the run ignored
    def no_propagation(*args, **kwargs):
        raise AssertionError("the run propagated from a conflicting start")

    monkeypatch.setattr(dynamics, "run_protocol", no_propagation)
    argv = [experiment, "--outdir", str(tmp_path), "--set", "initial_site=5"]
    for override in mlws:
        argv += ["--set", override]
    assert cli.main(argv) == 1
    assert "run failed" in capsys.readouterr().err
    manifest = read_manifest(tmp_path, experiment)
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "ValueError"
    assert "initial_site conflicts with initial_mlws" in manifest["error"]["message"]


def test_uncreatable_outdir_exits_2(tmp_path, capsys):
    # an output directory under a regular file cannot be made: a usage error
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main(["chern", "--outdir", str(blocker / "x")]) == 2
    err = capsys.readouterr().err
    assert "cannot create output directory" in err
    assert len(err.strip().splitlines()) == 1


def test_pump_run_checks_its_grid_before_propagating(tmp_path, capsys, monkeypatch):
    # the topology grid is built and its Chern numbers taken before the run
    # propagates, so a bad n_t leaves a failed manifest and no data table
    def no_propagation(*args, **kwargs):
        raise AssertionError("the run propagated before its grid was checked")

    monkeypatch.setattr(dynamics, "run_protocol", no_propagation)
    assert cli.main(["pump-echo", "--outdir", str(tmp_path), "--set", "n_t=0"]) == 1
    assert "run failed" in capsys.readouterr().err
    manifest = read_manifest(tmp_path, "pump-echo")
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "ValueError"
    assert "n_t" in manifest["error"]["message"]
    assert not list((tmp_path / "pump-echo").glob("*.tsv"))


def test_vanishing_link_leaves_failed_manifest(tmp_path, capsys, monkeypatch):
    # an MLWS start needs the transport gauge; with every k-link zero it raises
    # BandTouchingError before any dynamics, and the run must record it
    monkeypatch.setattr(wannier, "_link_overlaps",
                        lambda params, u: np.zeros(len(u), dtype=complex))
    argv = ["pump-echo", "--outdir", str(tmp_path), "--set", "initial_mlws_cell=8"]
    assert cli.main(argv) == 1
    assert "run failed" in capsys.readouterr().err
    manifest = read_manifest(tmp_path, "pump-echo")
    assert manifest["status"] == "failed"
    assert manifest["error"]["type"] == "BandTouchingError"
    assert "link" in manifest["error"]["message"]


def test_pump_echo_smoke(tmp_path):
    code = cli.main(["pump-echo", "--outdir", str(tmp_path)] + FAST)
    assert code == 0
    manifest = read_manifest(tmp_path, "pump-echo")
    assert manifest["protocol"] == "echo"
    assert manifest["n_cycles"] == 2
    # overlaps with the orthonormal MLWS set of every cell: each in [0, 1],
    # and by Bessel's inequality their sum is at most one
    projections = manifest["projections_final"]
    assert set(projections) == {f"mlws_cell{c}" for c in range(1, 16)}
    assert all(0.0 <= value <= 1.0 for value in projections.values())
    assert sum(projections.values()) <= 1.0 + 1e-12
    # each is |<W(c)|psi_final>|^2 with W(c) the top band's MLWS of cell c,
    # to the bit, and psi_final the final state of the same run
    cfg = cli.RunConfig(experiment="pump-echo", omega=0.1)
    params = cfg.model_params()
    initial, _ = cli._resolve_initial(cfg, params)
    final = dynamics.run_protocol(params, 2, initial, echo=True).final_state
    bands0 = spectrum.solve_bands(params, np.array([0.0]))
    for cell in range(1, params.L + 1):
        mlws = wannier.maximally_localize(bands0, 2, cell)[0].amplitudes
        assert projections[f"mlws_cell{cell}"] == float(np.abs(np.vdot(mlws, final)) ** 2)


def test_pump_suppressed_smoke(tmp_path):
    code = cli.main(["pump-suppressed", "--outdir", str(tmp_path)])
    assert code == 0
    manifest = read_manifest(tmp_path, "pump-suppressed")
    assert manifest["model"]["tunneling_mode"] == "sine"
    assert manifest["delta_p_final_cells"] == pytest.approx(-1.0, abs=0.1)


def test_suppressed_run_is_the_traditional_run_of_the_sine_chain(tmp_path, capsys):
    # the suppression is a chain, not a way to propagate: the two runs write
    # the same tables, and a suppressed run that fails before propagating
    # records the sine chain it ran, as a run that succeeds does
    runs = {"pump-suppressed": [], "pump-traditional": ["--set", "tunneling_mode=sine"]}
    for experiment, extra in runs.items():
        assert cli.main([experiment, "--outdir", str(tmp_path)] + FAST + extra) == 0
    for name in ("observables.tsv", "density.tsv", "density_rows.tsv", "density_cols.tsv"):
        suppressed = (tmp_path / "pump-suppressed" / name).read_bytes()
        assert suppressed == (tmp_path / "pump-traditional" / name).read_bytes()
    failed = tmp_path / "failed"
    assert cli.main(["pump-suppressed", "--outdir", str(failed), "--set", "n_t=3"]) == 1
    assert "run failed" in capsys.readouterr().err
    manifest = read_manifest(failed, "pump-suppressed")
    assert manifest["status"] == "failed"
    assert manifest["model"]["tunneling_mode"] == "sine"


def test_suppressed_mlws_start_is_the_sine_chains(tmp_path):
    # the run switches to sine tunneling, and its start must be an MLWS of
    # that chain: wholly in the top band at t = 0
    argv = ["pump-suppressed", "--outdir", str(tmp_path),
            "--set", "initial_mlws_cell=9"] + FAST
    assert cli.main(argv) == 0
    obs = np.loadtxt(tmp_path / "pump-suppressed" / "observables.tsv")
    assert obs[0, 6] >= 1.0 - 1e-12  # population_band2 at t = 0


def test_effective_compare_smoke(tmp_path):
    code = cli.main(["effective-compare", "--outdir", str(tmp_path)] + FAST)
    assert code == 0
    base = tmp_path / "effective-compare"
    manifest = read_manifest(tmp_path, "effective-compare")
    assert 0.0 < manifest["final_state_fidelity"] <= 1.0
    disc = np.loadtxt(base / "discrepancy.tsv")
    assert disc.shape[1] == 3


def test_mlws_initial_state(tmp_path):
    code = cli.main(["pump-traditional", "--outdir", str(tmp_path),
                     "--set", "initial_mlws_band=2", "--set", "initial_mlws_cell=9"]
                    + FAST)
    assert code == 0
    manifest = read_manifest(tmp_path, "pump-traditional")
    assert manifest["initial_state"] == "mlws band=2 cell=9"


def test_mlws_start_comes_from_the_runs_one_basis(tmp_path, monkeypatch):
    # an MLWS-start pump run builds one Wannier basis, audits it once and
    # takes its start and its projection references from it; the start is
    # `maximally_localize`'s state bit for bit
    cfg = cli.RunConfig(experiment="pump-traditional", omega=0.1, initial_mlws_band=1,
                        initial_mlws_cell=9)
    params = cfg.model_params()
    bands0 = spectrum.solve_bands(params, np.array([0.0]))
    start, label = cli._resolve_initial(cfg, params)
    assert label == "mlws band=1 cell=9"
    assert np.array_equal(start, wannier.maximally_localize(bands0, 1, 9)[0].amplitudes)
    calls = {"wannier_basis": 0, "maximally_localize": 0, "spread_decomposition": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(wannier, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(wannier, name, counting)
    argv = ["pump-traditional", "--outdir", str(tmp_path), "--set", "initial_mlws_band=1",
            "--set", "initial_mlws_cell=9"] + FAST
    assert cli.main(argv) == 0
    assert calls == {"wannier_basis": 1, "maximally_localize": 0, "spread_decomposition": 1}


def test_cli_imports_without_scipy():
    # numpy is the only runtime dependency
    src = Path(cli.__file__).resolve().parents[1]
    code = "import aah_pump.cli, sys; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
