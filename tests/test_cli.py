"""End-to-end command-line runs against the exit-code contract."""

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biharm
from biharm import (Field, SolveConfig, cli, compute_gn, make_grid, save_gn,
                    write_snapshot)
from biharm.blowup import load_sweep
from biharm.cli import main
from biharm.groundstate import SOLVE_COUNTERS
from biharm.potentials import sample


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def write_config(path: Path, **overrides) -> Path:
    cfg = {
        "grid": {"d": 1, "n": 256, "half_width": 16.0},
        "potential": {"family": "gaussian_well", "depth": 1.0, "width": 1.0,
                      "center": [0.0]},
        "solver": {"tol_grad": 1e-6, "max_iters": 40000, "precondition": True},
        "gn": {"restarts": 4},
        "seed": 0,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """One shared GN artifact at n=256 for every command that needs one."""
    root = tmp_path_factory.mktemp("artifact")
    cfg = write_config(root / "cfg.json", output_dir=str(root / "gnrun"))
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 0, text
    return root / "gnrun"


def test_gn_writes_artifacts_and_reports(artifact_dir):
    sidecar = json.loads((artifact_dir / "gn.json").read_text())
    assert sidecar["a_star"] > 0
    assert (artifact_dir / "gn.bhf").exists()
    manifest = json.loads((artifact_dir / "manifest.json").read_text())
    assert manifest["command"] == "gn"
    assert manifest["version"]
    assert manifest["config"]["grid"]["n"] == 256


def test_gn_reports_iteration_count(tmp_path):
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"))
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 0, text
    sidecar = json.loads((tmp_path / "run" / "gn.json").read_text())
    assert isinstance(sidecar["iterations"], int) and sidecar["iterations"] > 0
    assert f"iterations = {sidecar['iterations']}" in text
    # the n/2 run on 128/16 settles at that grid's floor, above tol_grad
    check = sidecar["half_grid_check"]
    assert check["converged"] is False
    assert (f"n/2 check: quotient residual {check['quotient_grad']:.3e}, "
            "stopped unconverged") in text


def test_invalid_grid_rejected_before_any_output(tmp_path):
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "out"))
    raw = json.loads(cfg.read_text())
    raw["grid"]["n"] = 300
    cfg.write_text(json.dumps(raw))
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 2
    assert "power of two" in text
    assert not (tmp_path / "out").exists()


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, text = run_cli("--config", str(bad), "gn")
    assert code == 2
    assert "not valid JSON" in text


def test_missing_config_exits_2(tmp_path):
    code, text = run_cli("--config", str(tmp_path / "absent.json"), "solve")
    assert code == 2
    assert "cannot read config" in text


def test_unknown_solver_field_exits_2(tmp_path):
    # step0 is one of the line search's constants, not a setting
    for key in ("stepsize", "step0"):
        cfg = write_config(tmp_path / "c.json",
                           output_dir=str(tmp_path / "run"),
                           solver={"tol_grad": 1e-6, key: 0.1})
        code, text = run_cli("--config", str(cfg), "gn")
        assert code == 2
        assert text.startswith(f"config error: unknown solver fields "
                               f"['{key}']")
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", [False, "yes", 0])
def test_precondition_other_than_true_exits_2(tmp_path, value):
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solver={"tol_grad": 1e-6, "precondition": value})
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 2
    assert text.startswith("config error: ")
    assert "precondition" in text
    assert not (tmp_path / "run").exists()


def test_legacy_precondition_and_restarts_keys_still_run(tmp_path):
    # configs written when both were settable carry them; they are accepted
    # and change nothing
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solve={"a": 4.0})
    raw = json.loads(cfg.read_text())
    assert raw["solver"]["precondition"] is True
    assert raw["gn"] == {"restarts": 4}
    for command in ("gn", "solve"):
        code, text = run_cli("--config", str(cfg), command)
        assert code == 0, text


@pytest.mark.parametrize("checks, named", [
    ({"gn_window": "false"}, "gn_window"),
    ({"monotone_gap": "no"}, "monotone_gap"),
    ({"gn_window": 0}, "gn_window"),
    ({"h2_finall": 0.05}, "h2_finall")])
def test_bad_sweep_checks_exit_2(tmp_path, artifact_dir, checks, named):
    # a string flag must not switch a check on, and a misspelt key must not
    # silently leave the default in force
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 2, "ratio": 0.5,
                              "checks": checks})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 2
    assert text.startswith("config error: ")
    assert named in text
    assert not (tmp_path / "run").exists()


def test_sweep_checks_switched_off(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 2, "ratio": 0.5,
                              "checks": {"gn_window": False,
                                         "monotone_gap": False,
                                         "h2_final": None}})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 0, text
    for line in ("energy gap", "final H2 distance", "nonlinear mass"):
        assert line not in text
    assert "all enabled checks passed" in text


def test_solve_fraction_of_astar(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       solve={"a": "0.5*astar"})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0
    report = json.loads((tmp_path / "run" / "solve.json").read_text())
    assert report["status"] == "Converged"
    assert report["energy"] < 0
    assert (tmp_path / "run" / "solve.bhf").exists()
    assert (tmp_path / "run" / "iterations.csv").read_text().startswith("iter")


def test_solve_literal_coupling_needs_no_artifact(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       solve={"a": 4.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0
    assert "Converged" in text


def test_solve_reports_line_search_counters(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       solve={"a": 4.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0
    report = json.loads((tmp_path / "run" / "solve.json").read_text())
    for key in SOLVE_COUNTERS:
        assert isinstance(report[key], int) and report[key] >= 0
    # every accepted step took at least one trial, and every backtrack is one
    assert report["trials"] >= report["iterations"] + report["backtracks"]
    assert (f"line search: {report['trials']} trials, "
            f"{report['backtracks']} backtracks, "
            f"{report['cg_restarts']} CG restarts") in text
    assert f"fft_calls = {report['fft_calls']}" in text
    assert "preconditioner: P alone; the coarse step is off in 1D" in text
    assert report["status"] == "Converged"
    # in 1D there is no coarse step: 2 transforms on entry and 2 per
    # iteration, and every iteration on P alone
    assert report["fft_calls"] == 2 + 2 * report["iterations"]
    assert report["coarse_fallbacks"] == report["iterations"]


@pytest.mark.parametrize("init,kind", [(None, "gaussian"),
                                       ({"kind": "constant"}, "constant")])
def test_solve_json_reports_the_configured_init(tmp_path, init, kind):
    solver = {"tol_grad": 1e-6, "max_iters": 40000}
    if init is not None:
        solver["init"] = init
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solver=solver, solve={"a": 4.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0, text
    report = json.loads((tmp_path / "run" / "solve.json").read_text())
    assert report["init"] == kind
    assert report["status"] == "Converged"


def test_repeated_solves_share_one_sampled_potential(tmp_path):
    # every command parses its own grid; equal geometries must map to one
    # cached potential sample rather than pinning a new one per command
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 2, "n": 32, "half_width": 8.0},
                       potential={"family": "gaussian_well", "depth": 1.0,
                                  "width": 1.0, "center": [0.25, 0.0]},
                       output_dir=str(tmp_path / "run"),
                       solve={"a": 4.0})
    sample.cache_clear()
    assert run_cli("--config", str(cfg), "solve")[0] == 0
    size = sample.cache_info().currsize
    for _ in range(3):
        assert run_cli("--config", str(cfg), "solve")[0] == 0
    assert sample.cache_info().currsize == size


def test_solve_astar_fraction_without_artifact_points_at_gn(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       solve={"a": "0.9*astar"})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 2
    assert "'gn' command" in text


def test_solve_from_a_missing_file_is_config_error(tmp_path):
    path = tmp_path / "missing.bhf"
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solver={"init": {"kind": "file", "path": str(path)}},
                       solve={"a": 2.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 2
    assert text.startswith(f"config error: cannot start from {path}")
    assert not (tmp_path / "run").exists()


def test_solve_from_a_snapshot_on_another_grid_is_config_error(tmp_path):
    path = tmp_path / "coarse.bhf"
    write_snapshot(Field(make_grid(1, 128, 16.0), np.ones(128)), path)
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solver={"init": {"kind": "file", "path": str(path)}},
                       solve={"a": 2.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 2
    assert text.startswith(f"config error: cannot start from {path}")
    assert "does not match" in text
    assert not (tmp_path / "run").exists()


def test_solve_supercritical_is_exit_3(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       solver={"tol_grad": 1e-6, "max_iters": 40000,
                               "init": {"kind": "dilated_Q", "ell": 2.0}},
                       solve={"a": "1.05*astar"})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 3
    assert "fell below the floor -1000" in text
    report = json.loads((tmp_path / "run" / "solve.json").read_text())
    assert report["status"] == "DivergedBelowFloor"
    assert report["energy"] < -1e3


def test_sweep_summary_and_exit_0(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 4, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 0, text
    assert "shrinking" in text
    assert "all enabled checks passed" in text
    rows = (tmp_path / "run" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 5
    assert (tmp_path / "run" / "w_003.bhf").exists()


def test_sweep_ignores_the_solver_init(tmp_path, artifact_dir):
    # solver.init chooses the start of 'solve' only: every sweep starts from
    # the compressed reference profile, so the CSV is the same byte for byte
    outputs = []
    for i, init in enumerate((None, {"kind": "constant"},
                              {"kind": "dilated_Q", "ell": 2.0})):
        solver = {"tol_grad": 1e-6, "max_iters": 40000}
        if init is not None:
            solver["init"] = init
        cfg = write_config(tmp_path / f"c{i}.json",
                           output_dir=str(tmp_path / f"run{i}"),
                           solver=solver,
                           gn={"artifact": str(artifact_dir / "gn")},
                           sweep={"start": 0.5, "count": 3, "ratio": 0.5})
        code, text = run_cli("--config", str(cfg), "sweep")
        assert code == 0, text
        outputs.append((tmp_path / f"run{i}" / "sweep.csv").read_bytes())
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_sweep_timings_go_to_the_manifest_only(tmp_path, artifact_dir):
    # wall times differ between runs, so they stay out of sweep.csv, which
    # a rerun reproduces byte for byte
    outputs = []
    for i in range(2):
        run = tmp_path / f"run{i}"
        cfg = write_config(tmp_path / f"c{i}.json", output_dir=str(run),
                           gn={"artifact": str(artifact_dir / "gn")},
                           sweep={"start": 0.5, "count": 3, "ratio": 0.5})
        code, text = run_cli("--config", str(cfg), "sweep")
        assert code == 0, text
        timings = json.loads((run / "manifest.json").read_text())["timings"]
        assert sorted(timings) == ["command_s", "points_s"]
        points = timings["points_s"]
        assert len(points) == 3 and all(s > 0.0 for s in points)
        assert sum(points) < timings["command_s"]
        outputs.append((run / "sweep.csv").read_bytes())
    assert outputs[1] == outputs[0]
    header = outputs[0].decode().splitlines()[0]
    assert "seconds" not in header and "timings" not in header


def test_sweep_schedule_at_or_above_astar_rejected(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 1.2, "count": 2, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 2
    assert "do not exist" in text


def test_sweep_grid_mismatch_exits_2(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 1, "n": 128, "half_width": 16.0},
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 2, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 2
    assert "does not match" in text


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_sweep_with_no_resolved_records_exits_4(tmp_path):
    # a coarse grid puts the whole schedule below the resolution guard
    g = make_grid(1, 128, 16.0)
    gn = compute_gn(g, cfg=SolveConfig(tol_grad=1e-4, max_iters=8000))
    save_gn(gn, tmp_path / "gn")
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 1, "n": 128, "half_width": 16.0},
                       output_dir=str(tmp_path / "run"),
                       solver={"tol_grad": 1e-4, "max_iters": 2000},
                       gn={"artifact": str(tmp_path / "gn")},
                       sweep={"start": 0.015625, "count": 1, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 4
    assert "increase grid.n" in text
    assert (tmp_path / "run" / "sweep.csv").exists()  # partial output retained


def test_check_batteries_pass_across_seeds(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       check={"fields": 6, "directions": 6, "battery": 30})
    for seed in (0, 1, 2):
        code, text = run_cli("--config", str(cfg), "--seed", str(seed),
                             "check")
        assert code == 0, text
        assert text.count("pass") == 4


def test_check_flags_a_broken_gradient(tmp_path, artifact_dir, monkeypatch):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       check={"fields": 4, "directions": 4, "battery": 10})
    from biharm.energy import _unconstrained_gradient

    monkeypatch.setattr(cli, "_unconstrained_gradient",
                        lambda u, V, a: -_unconstrained_gradient(u, V, a))
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 4
    assert "gradient_fd" in text and "FAIL" in text
    assert "parseval" in text and "pass" in text


def test_check_rejects_an_artifact_for_another_grid(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 1, "n": 128, "half_width": 16.0},
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       check={"fields": 2, "directions": 2, "battery": 2})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 2
    assert "does not match the config grid" in text
    assert "n=256" in text and "n=128" in text
    assert "gn_inequality" not in text


def test_check_rejects_an_unreadable_artifact(tmp_path):
    (tmp_path / "gn.json").write_text("{not json")
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(tmp_path / "gn")},
                       check={"fields": 2, "directions": 2, "battery": 2})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 2
    assert text.startswith(f"error: cannot load GN artifact at "
                           f"{tmp_path / 'gn'}")


@pytest.mark.parametrize("command", ["solve", "sweep", "plotdata", "check"])
@pytest.mark.parametrize("a_star", [float("nan"), -3.0, 0.0, "15.9", True])
def test_corrupt_a_star_is_a_config_error(tmp_path, artifact_dir, command,
                                          a_star):
    sidecar = json.loads((artifact_dir / "gn.json").read_text())
    sidecar["a_star"] = a_star
    (tmp_path / "gn.json").write_text(json.dumps(sidecar))
    (tmp_path / "gn.bhf").write_bytes((artifact_dir / "gn.bhf").read_bytes())
    run = tmp_path / "run"
    run.mkdir()
    (run / "sweep.csv").write_text("")  # plotdata wants a sweep first
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(tmp_path / "gn")},
                       solve={"a": "0.5*astar"}, sweep={"count": 1},
                       check={"fields": 2, "directions": 2, "battery": 2})
    code, text = run_cli("--config", str(cfg), command)
    assert code == 2, text
    assert text.startswith(f"error: cannot load GN artifact at "
                           f"{tmp_path / 'gn'}")
    assert "a_star must be a finite positive number" in text


def test_check_reports_a_gn_fallback_that_does_not_converge(tmp_path):
    # with no artifact, check computes one; on 64^2 the fixed point's
    # residual floor sits above tol_grad 1e-6, so that computation fails
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 2, "n": 64, "half_width": 12.0},
                       potential={"family": "zero"},
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(tmp_path / "absent")},
                       check={"fields": 2, "directions": 2, "battery": 2})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 1
    assert text.startswith("error: the fixed point did not converge")
    assert "tol_grad" in text


def test_plotdata_needs_a_sweep_first(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "empty"),
                       gn={"artifact": str(artifact_dir / "gn")})
    code, text = run_cli("--config", str(cfg), "plotdata")
    assert code == 2
    assert "'sweep' command" in text


def test_plotdata_emits_three_column_files(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 3, "ratio": 0.5})
    code, _ = run_cli("--config", str(cfg), "sweep")
    assert code == 0
    code, text = run_cli("--config", str(cfg), "plotdata")
    assert code == 0
    for stem in ("eps", "energy_gap", "h2_dist"):
        lines = (tmp_path / "run" / f"plot_{stem}.csv").read_text().splitlines()
        assert lines[0].startswith("one_minus_a_over_astar")
        assert len(lines) == 4
    first = (tmp_path / "run" / "plot_eps.csv").read_text().splitlines()[1]
    assert float(first.split(",")[0]) == pytest.approx(0.5)


def test_sweep_csv_read_with_and_without_solver_counters(tmp_path,
                                                        artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 3, "ratio": 0.5})
    code, _ = run_cli("--config", str(cfg), "sweep")
    assert code == 0
    path = tmp_path / "run" / "sweep.csv"
    records = load_sweep(path)
    assert all(isinstance(r.iterations, int) and r.iterations > 0
               for r in records)
    assert all(isinstance(r.backtracks, int) and isinstance(r.cg_restarts, int)
               and isinstance(r.fft_calls, int) and r.fft_calls > 0
               and r.trials >= r.iterations + r.backtracks
               for r in records)
    # a CSV without the counter columns is a config error that names them:
    # one written before the trials column, then one without the last two
    lines = path.read_text().splitlines()
    assert set(SOLVE_COUNTERS) <= set(lines[0].split(","))
    column = lines[0].split(",").index("trials")
    path.write_text("\n".join(",".join(c for i, c in enumerate(line.split(","))
                                      if i != column)
                              for line in lines) + "\n")
    code, text = run_cli("--config", str(cfg), "plotdata")
    assert code == 2
    assert "['trials']" in text
    assert "rerun the 'sweep' command" in text
    path.write_text("\n".join(",".join(line.split(",")[:-2])
                              for line in lines) + "\n")
    code, text = run_cli("--config", str(cfg), "plotdata")
    assert code == 2
    assert "['fft_calls', 'coarse_fallbacks']" in text
    assert "rerun the 'sweep' command" in text
    assert not (tmp_path / "run" / "plot_eps.csv").exists()


def test_command_timings_go_to_the_manifest_only(tmp_path, artifact_dir):
    # gn, solve and check report their wall time in manifest.json, never in
    # gn.json or solve.json, which a rerun reproduces byte for byte
    artifact = {"artifact": str(artifact_dir / "gn")}
    runs = [("gn", {}, "gn.json"), ("solve", {"solve": {"a": 4.0}},
                                    "solve.json"),
            ("check", {"gn": artifact, "check": {
                "fields": 2, "directions": 2, "battery": 5}}, None)]
    for command, extra, scalars in runs:
        outputs = []
        for i in range(2):
            run = tmp_path / f"{command}{i}"
            cfg = write_config(tmp_path / f"{command}{i}.json",
                               output_dir=str(run), **extra)
            code, text = run_cli("--config", str(cfg), command)
            assert code == 0, text
            manifest = json.loads((run / "manifest.json").read_text())
            assert list(manifest["timings"]) == ["command_s"]
            assert manifest["timings"]["command_s"] > 0.0
            if scalars is not None:
                outputs.append((run / scalars).read_bytes())
        if scalars is not None:
            assert outputs[1] == outputs[0]
            assert b"command_s" not in outputs[0]


def test_same_seed_reproduces_scalars(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       solve={"a": "0.8*astar"})
    code, _ = run_cli("--config", str(cfg), "solve")
    assert code == 0
    first = (tmp_path / "run" / "solve.json").read_bytes()
    code, _ = run_cli("--config", str(cfg), "solve")
    assert code == 0
    assert (tmp_path / "run" / "solve.json").read_bytes() == first


def test_output_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "ignored"),
                       solve={"a": 2.0})
    code, _ = run_cli("--config", str(cfg), "--output",
                      str(tmp_path / "actual"), "solve")
    assert code == 0
    assert (tmp_path / "actual" / "solve.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_unknown_subcommand_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    code = main(["--config", str(cfg), "frobnicate"], out=io.StringIO())
    assert code == 2


def test_missing_command_exits_2_and_help_names_all_five(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"))
    assert main(["--config", str(cfg)], out=io.StringIO()) == 2
    assert "required: command" in capsys.readouterr().err
    assert main(["--help"], out=io.StringIO()) == 0
    words = capsys.readouterr().out.split()  # the help text wraps
    for name in ("gn", "solve", "sweep", "check", "plotdata"):
        assert f"{name}:" in words, name
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("overrides", [
    *({"solve": {"a": a}} for a in (float("nan"), float("inf"), float("-inf"),
                                    "1e999*astar", "-0.5*astar",
                                    "1.2.3*astar")),
    {"potential": {"family": "gaussian_well", "center": None}},
    {"grid": {"d": 1, "n": 256, "half_width": 1e308}}])
def test_bad_coupling_center_or_box_is_config_error(tmp_path, overrides):
    # what the README-config property test does not reach: the solve
    # coupling, a null well centre, and a finite half_width whose node
    # spacing overflows
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       **{"solve": {"a": 4.0}, **overrides})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 2
    assert text.startswith("config error: ")
    assert not (tmp_path / "run").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the package must not import it
    src = str(Path(biharm.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import biharm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_settings_nobody_sets_are_gone():
    # one unit-mass normalization, one centring rule, one GN computation:
    # each function takes only what its callers pass
    import inspect

    from biharm.field import (density_center, gaussian_mixture_field,
                              random_smooth_field, renormalize_mass)

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(renormalize_mass) == ["u"]
    assert params(density_center) == ["u"]
    assert params(random_smooth_field) == ["g", "rng"]
    assert params(gaussian_mixture_field) == ["g", "rng"]
    assert params(compute_gn) == ["g", "cfg"]
    assert params(main) == ["argv", "out"]
