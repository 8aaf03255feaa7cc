"""End-to-end command-line runs against the exit-code contract."""

import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import biharm
from biharm import (Field, SolveConfig, compute_gn, dilate, load_gn,
                    make_grid, save_gn, write_snapshot)
from biharm.blowup import load_sweep
from biharm.cli import build_parser, main
from biharm.groundstate import SOLVE_COUNTERS
from biharm.potentials import sample
from conftest import readme_block


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


def test_gn_that_does_not_converge_exits_1_and_writes_nothing(tmp_path):
    # the README config on 2D 64^2/12: the fixed point stalls at that
    # grid's floor, well above the README's tol_grad
    raw = json.loads(readme_block("json"))
    raw["grid"] = {"d": 2, "n": 64, "half_width": 12.0}
    raw["potential"]["center"] = [0.0, 0.0]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(raw))
    code, text = run_cli("--config", str(cfg), "--output",
                         str(tmp_path / "run"), "gn")
    assert code == 1, text
    assert text == ("error: the fixed point did not converge; quotient "
                    "residual 2.558e-05 above tol_grad 1.000e-06\n")
    assert not (tmp_path / "run" / "gn.json").exists()


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
    ({"h2_finall": 0.05}, "h2_finall"),
    ({"h2_final": -0.05}, "h2_final"),
    ({"energy_gap_tol": "0.1"}, "energy_gap_tol"),
    (None, "'sweep' object")])
def test_bad_sweep_checks_exit_2(tmp_path, artifact_dir, checks, named):
    # a string flag must not switch a check on, a misspelt key must not
    # silently leave the default in force, and a tolerance is a positive
    # number; with no sweep block at all (None) there is no schedule
    sweep = {} if checks is None else {
        "sweep": {"start": 0.5, "count": 2, "ratio": 0.5, "checks": checks}}
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")}, **sweep)
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 2
    assert text.startswith("config error: ")
    assert named in text
    assert not (tmp_path / "run").exists()


def _config_with(tmp_path, path, value):
    """A config with solve and sweep blocks and value set at the nested keys
    of path, made as needed (value is the whole document when path is
    empty)."""
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solve={"a": 4.0}, sweep={"count": 2})
    raw = json.loads(cfg.read_text())
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    if path:
        node[path[-1]] = value
    cfg.write_text(json.dumps(raw if path else value))
    return cfg


@pytest.mark.parametrize("path", [
    ("gridd",), ("grid", "N"), ("solver", "tol"), ("solver", "init", "widht"),
    ("gn", "artifcat"), ("solve", "aa"), ("sweep", "cuont"),
    ("sweep", "checks", "h2_finall"), ("check", "feilds")],
    ids=".".join)
def test_a_misspelt_key_in_any_block_exits_2(tmp_path, path):
    # every block the document holds is read whatever the command, so gn
    # rejects a misspelt sweep key too, rather than leaving the default in
    # force for the command that reads it.  check takes no settings, so its
    # block is itself the unknown key.
    cfg = _config_with(tmp_path, path, 2)
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 2, text
    assert text.startswith("config error: unknown ")
    assert repr("check" if path[0] == "check" else path[-1]) in text
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("path", [
    (), ("grid",), ("solver",), ("solver", "init"), ("gn",), ("solve",),
    ("sweep",), ("sweep", "checks"), ("check",)],
    ids=lambda path: ".".join(path) or "root")
def test_a_block_that_is_not_an_object_exits_2(tmp_path, path):
    cfg = _config_with(tmp_path, path, [])
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 2, text
    name = ".".join(path) or "config"
    # check takes no settings: a block of any type is an unknown key
    assert text.startswith("config error: unknown config fields ['check']"
                           if path == ("check",) else
                           f"config error: {name} must be a JSON object, "
                           "got list")
    assert not (tmp_path / "run").exists()


def _verdicts(text):
    """{row: passed} from the `name pass|FAIL detail` rows of a printout,
    in their order; sweep and check print them through one printer."""
    rows = {}
    for line in text.splitlines():
        words = line.split()
        if len(words) >= 2 and words[1] in ("pass", "FAIL"):
            rows[words[0]] = words[1] == "pass"
    return rows


def test_sweep_checks_switched_off(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 2, "ratio": 0.5,
                              "checks": {"gn_window": False,
                                         "monotone_gap": False,
                                         "h2_final": None}})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 0, text
    assert _verdicts(text) == {}


def test_energy_gap_tolerance_without_the_trend(tmp_path, artifact_dir):
    # monotone_gap and energy_gap_tol are independent: with the trend off,
    # the last resolved gap is held to the tolerance alone.  Two resolved
    # records are too few to judge a trend, and the tolerance needs none
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 2, "ratio": 0.5,
                              "checks": {"monotone_gap": False,
                                         "energy_gap_tol": 1.0,
                                         "gn_window": False,
                                         "h2_final": None}})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 0, text
    assert _verdicts(text) == {"energy_gap_tol": True}
    assert "tolerance 1.0" in text


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_a_scale_the_box_cannot_hold_is_not_resolved(tmp_path, artifact_dir):
    # with V = 0 nothing holds the minimizers together: their scale eps
    # spans far more than 4 nodes, but the box of width 32 cannot hold it
    # (eps is about 3e3, and rescaling by it drifts the mass 11-fold), so
    # no record is resolved and the sweep's checks have nothing to judge
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       potential={"family": "zero"},
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 4, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 4, text
    assert "resolved records: 0/4" in text
    assert "more than the box can hold" in text
    records = load_sweep(run / "sweep.csv")
    assert len(records) == 4
    assert all(r.eps > 4.0 * 32.0 / 256 and not r.resolved for r in records)


def test_sweep_prints_one_row_per_enabled_check_named_by_its_key(
        tmp_path, artifact_dir):
    # every check on: each row carries the sweep.checks key that switches
    # it, in one printer's format; two resolved records are too few for
    # the trend, and its row says so
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 2, "ratio": 0.5,
                              "checks": {"energy_gap_tol": 1.0}})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 4, text
    assert "resolved records: 2/2" in text
    rows = _verdicts(text)
    assert rows == {"monotone_gap": False, "energy_gap_tol": True,
                    "h2_final": True, "gn_window": True}
    [line] = [line for line in text.splitlines()
              if line.startswith("monotone_gap ")]
    assert line == ("monotone_gap    FAIL  need at least 3 resolved records "
                    "to judge the limit")
    assert "check FAIL" not in text
    assert "all enabled checks passed" not in text


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_a_sweep_with_no_resolved_record_prints_one_resolved_row(
        tmp_path, artifact_dir):
    # no check has a resolved record to judge: one FAIL row stands for them
    # all, with the explanation, and the table of records is empty
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       potential={"family": "zero"},
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 1, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 4, text
    assert _verdicts(text) == {"resolved": False}
    lines = text.splitlines()
    assert len(lines) == 3 and lines[1] == "resolved records: 0/1"
    assert lines[2].startswith("resolved        FAIL  no resolved records")
    assert "increase grid.half_width" in lines[2]


@pytest.mark.parametrize("checks, named", [
    ({"h2_final": 1e-12}, "h2_final"),
    ({"energy_gap_tol": 1e-12}, "energy_gap_tol")])
def test_a_failed_sweep_check_exits_4_and_keeps_outputs(
        tmp_path, artifact_dir, checks, named):
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 3, "ratio": 0.5,
                              "checks": checks})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 4, text
    rows = _verdicts(text)
    assert [name for name, ok in rows.items() if not ok] == [named]
    assert "check FAIL" not in text
    assert (run / "sweep.csv").exists()
    assert (run / "manifest.json").exists()


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
    assert (f"preconditioner: coarse step in 0 of {report['iterations']} "
            "iterations, P alone in the rest") in text
    assert report["status"] == "Converged"
    # in 1D there is no coarse step: 2 transforms on entry and 2 per
    # iteration, and every iteration on P alone
    assert report["fft_calls"] == 2 + 2 * report["iterations"]
    assert report["coarse_fallbacks"] == report["iterations"]
    assert report["coarse_half_grid"] == 0
    assert "coarse step on the n/2 grid in 0 of those" in text


def test_solve_counts_the_coarse_step_on_a_2d_constant_potential(tmp_path):
    # with V = 0 the coarse step is off in 2D too: every iteration is on P
    # alone, and the printout counts them rather than assuming the grid's
    # dimension decides
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       grid={"d": 2, "n": 64, "half_width": 12.0},
                       potential={"family": "zero"}, solver={},
                       solve={"a": 40.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0, text
    report = json.loads((tmp_path / "run" / "solve.json").read_text())
    assert report["status"] == "Converged"
    assert report["iterations"] > 0
    assert report["coarse_fallbacks"] == report["iterations"]
    assert (f"preconditioner: coarse step in 0 of {report['iterations']} "
            "iterations, P alone in the rest") in text


def test_solve_reports_the_coarse_steps_on_the_half_grid(tmp_path):
    # the benchmark's 2D solve forms every coarse step on the n/2 grid, and
    # solve.json and the printout say so, on a line of its own
    g = make_grid(2, 128, 12.0)
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       grid={"d": 2, "n": 128, "half_width": 12.0},
                       potential={"family": "gaussian_well", "depth": 1.0,
                                  "width": 1.0,
                                  "center": [g.dx / 4.0, -g.dx / 4.0]},
                       solve={"a": 56.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0, text
    report = json.loads((tmp_path / "run" / "solve.json").read_text())
    assert report["coarse_fallbacks"] == 0
    assert report["coarse_half_grid"] == report["iterations"] > 0
    assert (f"preconditioner: coarse step in {report['iterations']} of "
            f"{report['iterations']} iterations, P alone in the rest\n"
            f"coarse step on the n/2 grid in {report['iterations']} of "
            "those\n") in text


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


@pytest.mark.parametrize("init, named", [
    ({"kind": "file", "path": 123}, "path"), ({"kind": 5}, "kind")])
def test_solver_init_strings_must_be_strings(tmp_path, init, named):
    # a number is not coerced into a kind or a file name
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solver={"init": init}, solve={"a": 2.0})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 2
    assert text.startswith(f"config error: field {named!r} must be a string")
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
    assert _verdicts(text) == dict.fromkeys(
        ["monotone_gap", "h2_final", "gn_window"], True)
    assert "all enabled checks passed" not in text
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


def test_sweep_schedule_that_rounds_to_astar_exits_2(tmp_path, artifact_dir):
    # at ratio 0.5, 1 - a/a* drops below double precision's resolution of
    # a* well within 60 points; the schedule is rejected before any solve
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(artifact_dir / "gn")},
                       sweep={"start": 0.5, "count": 60, "ratio": 0.5})
    code, text = run_cli("--config", str(cfg), "sweep")
    assert code == 2, text
    assert text.startswith("config error: sweep schedule: ")
    assert not run.exists()


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


CHECK_ROWS = ["quotient", "normalization", "euler_lagrange", "gn_inequality"]


def _check_rows(text):
    """{row: passed} from check's printout, in its order."""
    rows = {}
    for line in text.splitlines():
        name, verdict = line.split()[:2]
        rows[name] = verdict == "pass"
    return rows


def test_check_batteries_pass_across_seeds(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")})
    for seed in (0, 1, 2):
        code, text = run_cli("--config", str(cfg), "--seed", str(seed),
                             "check")
        assert code == 0, text
        assert _check_rows(text) == dict.fromkeys(CHECK_ROWS, True)


@pytest.mark.parametrize("tamper, failing", [
    # the stored el_constants are the fit of the Q gn wrote, and the stored
    # quotient_grad is within a factor 2 of its residual
    pytest.param("scaled", ["normalization", "euler_lagrange"], id="scaled"),
    pytest.param("dilated", ["quotient", "normalization", "euler_lagrange"],
                 id="dilated"),
    # the stored nonlinear_check was a* int Q^q of the a* gn wrote
    pytest.param("a_star_moved", ["quotient", "normalization"],
                 id="a_star_moved"),
    pytest.param("nonlinear_check_moved", ["normalization"],
                 id="nonlinear_check_moved"),
    pytest.param("quotient_grad_large", ["quotient"],
                 id="quotient_grad_large"),
    pytest.param("quotient_grad_small", ["quotient"],
                 id="quotient_grad_small"),
    pytest.param("el_constants_moved", ["euler_lagrange"],
                 id="el_constants_moved"),
    pytest.param("zero", None, id="zero")])
def test_check_flags_a_tampered_artifact(tmp_path, artifact_dir, tamper,
                                         failing):
    # a valid artifact altered after gn wrote it: Q scaled by 1.01, Q
    # dilated by 1.001, a* moved by 1e-9 relative, the stored
    # nonlinear_check moved by 1e-9 relative (still within 1e-8 of 1, but
    # no longer a* int Q^q), the stored quotient_grad set to 0.5 or 1e-20,
    # the stored el_constants moved by 1e-9 relative, and Q zeroed, which
    # has no quotient at all
    gn = load_gn(artifact_dir / "gn")
    sidecar = json.loads((artifact_dir / "gn.json").read_text())
    Q = {"scaled": gn.Q * 1.01, "dilated": dilate(gn.Q, 1.001),
         "zero": gn.Q * 0.0}.get(tamper, gn.Q)
    if tamper == "a_star_moved":
        sidecar["a_star"] *= 1.0 + 1e-9
    if tamper == "nonlinear_check_moved":
        sidecar["residuals"]["nonlinear_check"] *= 1.0 + 1e-9
    if tamper.startswith("quotient_grad"):
        sidecar["residuals"]["quotient_grad"] = (
            0.5 if tamper.endswith("large") else 1e-20)
    if tamper == "el_constants_moved":
        sidecar["el_constants"] = [c * (1.0 + 1e-9)
                                   for c in sidecar["el_constants"]]
    write_snapshot(Q, tmp_path / "gn.bhf")
    (tmp_path / "gn.json").write_text(json.dumps(sidecar))
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(tmp_path / "gn")})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 4, text
    if failing is None:
        assert text == "check FAIL: quotient undefined for the zero field\n"
    else:
        rows = _check_rows(text)
        assert list(rows) == CHECK_ROWS
        assert [name for name, ok in rows.items() if not ok] == failing
    named = {"nonlinear_check_moved": "stored nonlinear_check",
             "quotient_grad_large": "stored quotient_grad",
             "quotient_grad_small": "stored quotient_grad",
             "el_constants_moved": "stored el_constants"}
    if tamper in named:
        assert named[tamper] in text


def test_check_passes_on_a_2d_artifact_from_gn(tmp_path):
    # the artifact biharm gn writes on 2D 128^2/16 with default settings
    # is valid, and check certifies it
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 2, "n": 128, "half_width": 16.0},
                       potential={"family": "zero"}, solver={},
                       output_dir=str(tmp_path / "run"))
    code, text = run_cli("--config", str(cfg), "gn")
    assert code == 0, text
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 0, text
    assert _check_rows(text) == dict.fromkeys(CHECK_ROWS, True)


def test_check_rejects_an_artifact_for_another_grid(tmp_path, artifact_dir):
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 1, "n": 128, "half_width": 16.0},
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(artifact_dir / "gn")})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 2
    assert "does not match the config grid" in text
    assert "n=256" in text and "n=128" in text
    assert "gn_inequality" not in text


def test_check_rejects_an_unreadable_artifact(tmp_path):
    (tmp_path / "gn.json").write_text("{not json")
    cfg = write_config(tmp_path / "c.json",
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(tmp_path / "gn")})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 2
    assert text.startswith(f"config error: cannot load GN artifact at "
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
                       solve={"a": "0.5*astar"}, sweep={"count": 1})
    code, text = run_cli("--config", str(cfg), command)
    assert code == 2, text
    assert text.startswith(f"config error: cannot load GN artifact at "
                           f"{tmp_path / 'gn'}")
    assert "a_star must be a finite positive number" in text


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize("part, corrupt", [
    ("sidecar", lambda s: {**s, "el_constants": None}),
    ("sidecar", lambda s: {**s, "residuals": None}),
    ("sidecar", lambda s: [s]),
    ("header", lambda h: {**h, "d": None}),
    ("header", lambda h: [h]),
    # each value has its own type, element by element: a string is no
    # list, and 7.5, "7" or true no iteration count
    ("sidecar", lambda s: {**s, "el_constants": "ab"}),
    ("sidecar", lambda s: {**s, "resolutions": "xy"}),
    ("sidecar", lambda s: {**s, "resolutions": [[128.0, 15.9]]}),
    ("sidecar", lambda s: {**s, "history": "12"}),
    ("sidecar", lambda s: {**s, "iterations": "7"}),
    ("sidecar", lambda s: {**s, "iterations": 7.5}),
    ("sidecar", lambda s: {**s, "iterations": True}),
    ("sidecar", lambda s: {**s, "half_grid_check": {
        "quotient_grad": "1e-2", "converged": False}}),
    ("sidecar", lambda s: {**s, "half_grid_check": {
        "quotient_grad": 1e-2, "converged": "false"}}),
    # json writes and reads NaN and Infinity, which are no numbers
    *(("sidecar", corrupt) for bad in (math.nan, math.inf) for corrupt in (
        lambda s, bad=bad: {**s, "el_constants": [bad, 1.0]},
        lambda s, bad=bad: {**s, "residuals": {**s["residuals"],
                                               "quotient_grad": bad}},
        lambda s, bad=bad: {**s, "resolutions": [[128, bad], [256, 1.0]]},
        lambda s, bad=bad: {**s, "history": [1.0, bad]},
        lambda s, bad=bad: {**s, "half_grid_check": {
            "quotient_grad": bad, "converged": True}},
        lambda s, bad=bad: {**s, "residuals": {**s["residuals"],
                                               "nonlinear_check": bad}})),
    ("sidecar", lambda s: {**s, "residuals": {
        **s["residuals"], "nonlinear_check": "not a number"}}),
    # the header's integers are JSON integers, and no number is a string
    ("header", lambda h: {**h, "d": True}),
    ("header", lambda h: {**h, "n": h["n"] + 0.9}),
    ("header", lambda h: {**h, "half_width": str(h["half_width"])}),
    ("header", lambda h: {**h, "count": str(h["count"])})],
    ids=["el_constants_null", "residuals_null", "sidecar_a_list",
         "header_d_null", "header_a_list", "el_constants_a_string",
         "resolutions_a_string", "resolutions_float_n", "history_a_string",
         "iterations_a_string", "iterations_a_float", "iterations_a_bool",
         "half_grid_residual_a_string", "half_grid_converged_a_string",
         *(f"{key}_{name}" for name in ("NaN", "Infinity") for key in (
             "el_constants", "residuals.quotient_grad", "resolutions",
             "history", "half_grid_check.quotient_grad",
             "residuals.nonlinear_check")),
         "residuals.nonlinear_check_a_string", "header_d_a_bool",
         "header_n_a_fraction",
         "header_half_width_a_string", "header_count_a_string"])
def test_a_gn_artifact_value_of_the_wrong_type_exits_2(
        tmp_path, artifact_dir, command, part, corrupt):
    sidecar = json.loads((artifact_dir / "gn.json").read_text())
    header, payload = (artifact_dir / "gn.bhf").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    if part == "sidecar":
        sidecar = corrupt(sidecar)
    else:
        header = corrupt(header)
    (tmp_path / "gn.json").write_text(json.dumps(sidecar))
    (tmp_path / "gn.bhf").write_bytes(json.dumps(header).encode() + b"\n"
                                      + payload)
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(tmp_path / "gn")},
                       solve={"a": "0.5*astar"}, sweep={"count": 1})
    code, text = run_cli("--config", str(cfg), command)
    assert code == 2, text
    assert text.startswith(f"config error: cannot load GN artifact at "
                           f"{tmp_path / 'gn'}")


@pytest.mark.parametrize("command", ["solve", "check"])
def test_three_el_constants_are_a_malformed_sidecar(tmp_path, artifact_dir,
                                                    command):
    # the Euler-Lagrange fit has two constants: a third number is no
    # artifact gn writes, and both commands reject it as they do a NaN,
    # before any work, rather than solve running on it and check failing
    # its euler_lagrange row
    sidecar = json.loads((artifact_dir / "gn.json").read_text())
    sidecar["el_constants"].append(1.0)
    (tmp_path / "gn.json").write_text(json.dumps(sidecar))
    (tmp_path / "gn.bhf").write_bytes((artifact_dir / "gn.bhf").read_bytes())
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(tmp_path / "gn")},
                       solve={"a": "0.5*astar"})
    code, text = run_cli("--config", str(cfg), command)
    assert code == 2, text
    assert text.startswith(f"config error: cannot load GN artifact at "
                           f"{tmp_path / 'gn'}")
    assert "el_constants must be two numbers" in text
    assert not (run / "manifest.json").exists()


def test_an_overflowing_coupling_is_a_config_error(tmp_path, artifact_dir):
    # 1e308 is a finite factor, but its product with a* is not: solve
    # exits 2 naming the coupling, before it computes or writes anything
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(artifact_dir / "gn")},
                       solve={"a": "1e308*astar"})
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 2, text
    assert text.startswith("config error: coupling '1e308*astar' overflows")
    assert not run.exists()


@pytest.mark.parametrize("command", ["gn", "solve", "sweep"])
@pytest.mark.parametrize("potential", [
    {"family": "power_well", "exponent": 1.0},
    {"family": "sum", "parts": [{"family": "harmonic"},
                                {"family": "power_well", "exponent": 1.0}]}],
    ids=["power_well", "sum"])
def test_a_potential_in_neither_class_exits_2(tmp_path, artifact_dir, command,
                                              potential):
    # a power well of exponent >= d is neither confining nor a splittable
    # well; solve cannot minimize with it, so every command rejects it
    # with the config, naming the family and the dimension
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       potential=potential,
                       gn={"artifact": str(artifact_dir / "gn")},
                       solve={"a": 4.0}, sweep={"count": 1})
    code, text = run_cli("--config", str(cfg), command)
    assert code == 2, text
    assert text.startswith("config error: invalid potential: potential "
                           "family 'power_well' is neither confining nor a "
                           "splittable well in d=1")
    assert not (tmp_path / "run").exists()


def test_check_without_an_artifact_exits_2_and_points_at_gn(tmp_path):
    # check certifies the stored artifact only: with none it computes
    # nothing and names the command that writes one, as solve, sweep and
    # plotdata do
    cfg = write_config(tmp_path / "c.json",
                       grid={"d": 2, "n": 64, "half_width": 12.0},
                       potential={"family": "zero"},
                       output_dir=str(tmp_path / "run"),
                       gn={"artifact": str(tmp_path / "absent")})
    code, text = run_cli("--config", str(cfg), "check")
    assert code == 2
    assert text.startswith(f"config error: cannot load GN artifact at "
                           f"{tmp_path / 'absent'}")
    assert "'gn' command" in text
    assert not (tmp_path / "run").exists()


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
    # gn.json or solve.json, which a rerun reproduces byte for byte; gn adds
    # the time compute_gn took
    artifact = {"artifact": str(artifact_dir / "gn")}
    runs = [("gn", {}, "gn.json", ["command_s", "gn_s"]),
            ("solve", {"solve": {"a": 4.0}}, "solve.json", ["command_s"]),
            ("check", {"gn": artifact}, None, ["command_s"])]
    for command, extra, scalars, keys in runs:
        outputs = []
        for i in range(2):
            run = tmp_path / f"{command}{i}"
            cfg = write_config(tmp_path / f"{command}{i}.json",
                               output_dir=str(run), **extra)
            code, text = run_cli("--config", str(cfg), command)
            assert code == 0, text
            manifest = json.loads((run / "manifest.json").read_text())
            timings = manifest["timings"]
            assert sorted(timings) == keys
            assert all(timings[key] > 0.0 for key in keys)
            assert timings["command_s"] >= timings.get("gn_s", 0.0)
            if scalars is not None:
                outputs.append((run / scalars).read_bytes())
        if scalars is not None:
            assert outputs[1] == outputs[0]
            assert all(key.encode() not in outputs[0] for key in keys)


@pytest.mark.parametrize("case, named", [
    *((f"{how}_artifact_{command}", "cannot load GN artifact at ")
      for how in ("missing", "unreadable")
      for command in ("solve", "sweep", "plotdata", "check")),
    ("artifact_on_another_grid", "does not match the config grid"),
    ("bad_file_start", "cannot start from "),
    ("schedule_rounds_to_astar", "sweep schedule: "),
    ("missing_sweep_csv", "not found; run the 'sweep' command first"),
    ("malformed_sweep_csv", "lacks the columns"),
    ("unknown_key", "unknown grid fields ['m']")])
def test_every_exit_2_prints_config_error_and_writes_nothing(
        tmp_path, artifact_dir, case, named):
    # each condition that exits 2 is found before anything is computed or
    # written: no output directory and no manifest.json appear (plotdata
    # reads its sweep.csv from the output directory, which then exists
    # before the run and is left as it was)
    run = tmp_path / "run"
    artifact = artifact_dir / "gn"
    command, extra = "check", {}
    if "_artifact_" in case:
        how, command = case.split("_artifact_")
        artifact = tmp_path / "gn"
        if how == "unreadable":
            (tmp_path / "gn.json").write_text("{not json")
    elif case == "artifact_on_another_grid":
        extra = {"grid": {"d": 1, "n": 128, "half_width": 16.0}}
    elif case == "bad_file_start":
        command = "solve"
        extra = {"solver": {"init": {"kind": "file",
                                     "path": str(tmp_path / "none.bhf")}}}
    elif case == "schedule_rounds_to_astar":
        command, extra = "sweep", {"sweep": {"count": 60}}
    elif case == "unknown_key":
        command = "gn"
        extra = {"grid": {"d": 1, "n": 256, "half_width": 16.0, "m": 1}}
    else:
        command = "plotdata"
    if command == "plotdata" and case != "missing_sweep_csv":
        run.mkdir()
        (run / "sweep.csv").write_text("a,energy\n1.0,-0.5\n")
    before = sorted(run.iterdir()) if run.exists() else None
    overrides = {"gn": {"artifact": str(artifact)},
                 "solve": {"a": "0.5*astar"}, "sweep": {"count": 1}}
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       **{**overrides, **extra})
    code, text = run_cli("--config", str(cfg), command)
    assert code == 2, text
    assert text.splitlines()[0].startswith("config error: ")
    assert named in text
    assert (sorted(run.iterdir()) if run.exists() else None) == before
    assert not (run / "manifest.json").exists()


@pytest.mark.parametrize("case, expected", [
    ("solve", 0), ("supercritical_solve", 3), ("failed_sweep_check", 4),
    ("unconverged_gn", 1)])
def test_manifest_is_written_on_every_exit_but_1(tmp_path, artifact_dir,
                                                 case, expected):
    run = tmp_path / "run"
    command, extra = case.rsplit("_", 1)[-1], {}
    if case == "solve":
        extra = {"solve": {"a": 4.0}}
    elif case == "supercritical_solve":  # acceptance criterion 08's run
        extra = {"solver": {"tol_grad": 1e-6, "max_iters": 40000,
                            "init": {"kind": "dilated_Q", "ell": 2.0}},
                 "solve": {"a": "1.05*astar"}}
    elif case == "failed_sweep_check":
        command = "sweep"
        extra = {"sweep": {"start": 0.5, "count": 3, "ratio": 0.5,
                           "checks": {"h2_final": 1e-12}}}
    else:  # the README's tol_grad is below 2D 64^2/12's floor
        extra = {"grid": {"d": 2, "n": 64, "half_width": 12.0},
                 "potential": {"family": "zero"}}
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(artifact_dir / "gn")}, **extra)
    code, text = run_cli("--config", str(cfg), command)
    assert code == expected, text
    manifest = run / "manifest.json"
    assert manifest.exists() == (expected != 1)
    if expected != 1:
        manifest = json.loads(manifest.read_text())
        assert manifest["command"] == command
        assert manifest["timings"]["command_s"] > 0.0
        assert manifest["outputs"]
        assert all(Path(p).exists() for p in manifest["outputs"])


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


@pytest.mark.parametrize("command", ["solve", "check"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_a_negative_seed_exits_2_before_any_compute(tmp_path, artifact_dir,
                                                    command, source):
    run = tmp_path / "run"
    cfg = write_config(tmp_path / "c.json", output_dir=str(run),
                       gn={"artifact": str(artifact_dir / "gn")},
                       solve={"a": 4.0},
                       **({"seed": -3} if source == "config" else {}))
    flag = ["--seed", "-1"] if source == "flag" else []
    code, text = run_cli("--config", str(cfg), *flag, command)
    assert code == 2, text
    assert text.startswith("config error: ") and "'seed'" in text
    assert not run.exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # built once, while other streams are current: each call still parses
    # its own argv and prints to the streams current at that call
    build_parser.cache_clear()
    with capsys.disabled():
        parser = build_parser()
    assert build_parser() is parser
    assert main(["--help"], out=io.StringIO()) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: biharm") and captured.err == ""
    cfg = write_config(tmp_path / "c.json", output_dir=str(tmp_path / "run"),
                       solve={"a": 4.0})
    assert main(["--config", str(cfg)], out=io.StringIO()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: biharm")
    assert "required: command" in captured.err
    code, text = run_cli("--config", str(cfg), "solve")
    assert code == 0, text
    assert "status = Converged" in text
    assert (tmp_path / "run" / "solve.json").exists()
    assert capsys.readouterr() == ("", "")
    assert build_parser() is parser


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
    {"grid": {"d": 1, "n": 256, "half_width": 1e308}},
    {"solve": {}}, {"sweep": {"ratio": 1.0}}, {"sweep": {"ratio": 0.0}}])
def test_bad_coupling_center_or_box_is_config_error(tmp_path, overrides):
    # what the README-config property test does not reach: the solve
    # coupling or its absence, a null well centre, a finite half_width whose
    # node spacing overflows, and a sweep ratio outside (0, 1), which every
    # command reads
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
