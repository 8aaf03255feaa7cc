"""The benchmark's entry points into the package, run without the harness.

perfbench/run.py builds a cli.RunConfig from each workload's config, warms
up with initial_field, energy and constrained_gradient, and loads the stored
gn artifact.  These tests make the same calls, so a change to those
signatures fails here rather than in a benchmark run, run the gn_1d
command against the workload's gates, and certify the stored artifact.  workloads.py is
executed from its path by runpy, which writes no bytecode cache, and every
output goes to a temporary directory: nothing is written under perfbench/.
"""

import io
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from biharm import cli
from biharm.energy import constrained_gradient, energy
from biharm.gn import load_gn
from biharm.groundstate import InitSpec, initial_field

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    return runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))


def test_workloads_match_the_benchmark_declaration(workloads):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads["WORKLOADS"]) == sorted(
        w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("seed", range(4))
def test_workload_configs_build_and_warm_up(workloads, tmp_path, seed):
    for name, workload in workloads["WORKLOADS"].items():
        # run.py writes the config as JSON and reads it back
        raw = json.loads(json.dumps(workload.config(seed)))
        run_cfg = cli.RunConfig(raw, workload.command,
                                {"seed": seed, "output": str(tmp_path / name)})
        assert run_cfg.seed == seed
        u = initial_field(run_cfg.grid, run_cfg.potential, InitSpec())
        total = energy(u, run_cfg.potential, 1.0).total
        grad = constrained_gradient(u, run_cfg.potential, 1.0)
        assert np.isfinite(total)
        assert np.all(np.isfinite(grad.values))
    assert not any(tmp_path.iterdir())


def test_stored_artifact_loads_and_matches_the_fixture(workloads):
    gn = load_gn(workloads["ARTIFACT"])
    ref = json.loads((ROOT / workloads["FIXTURE"]).read_text())["a_star"]
    assert workloads["rel_err"](gn.a_star, ref) <= 1e-8
    grid = workloads["GRID_1D"]
    g = gn.Q.grid
    assert (g.d, g.n, g.half_width) == (grid["d"], grid["n"],
                                        grid["half_width"])


def test_check_certifies_the_stored_artifact(workloads, tmp_path):
    # a sidecar from before iterations, history and half_grid_check were
    # stored carries every certificate check prints
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid": workloads["GRID_1D"],
                               "gn": {"artifact": str(workloads["ARTIFACT"])},
                               "output_dir": str(tmp_path / "run")}))
    out = io.StringIO()
    code = cli.main(["--config", str(cfg), "check"], out=out)
    assert code == 0, out.getvalue()
    assert [line.split()[:2] for line in out.getvalue().splitlines()] == [
        [row, "pass"] for row in ("quotient", "normalization",
                                  "euler_lagrange", "gn_inequality")]


def test_gn_workload_passes_its_gates(workloads, tmp_path):
    # the gn_1d command as run.py runs it, judged by the benchmark's own
    # gates: a fixed-point change that breaks a* or the EL constants fails
    # here before a benchmark run
    workload = workloads["GN1D"]()
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(workload.config(0)))
    run_dir = tmp_path / "op"
    out = io.StringIO()
    code = cli.main(["--config", str(cfg), "--output", str(run_dir),
                     "--seed", "0", workload.command], out=out)
    assert code == 0, out.getvalue()
    ref = json.loads((ROOT / workloads["FIXTURE"]).read_text())["a_star"]
    gates = workload.gates(run_dir, ref)
    assert gates and all(gate.ok for gate in gates), [
        gate.line() for gate in gates]
