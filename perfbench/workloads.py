"""The three benchmark workloads: CLI config, correctness gates, fingerprint.

Each workload is one ``biharm`` command run in-process through
``biharm.cli.main``.  The seed sets the signs of a quarter-node offset of the
``solve_2d`` well centre (see well_offset); energies are translation
invariant to about 1e-13, so the gates hold for every seed.  The seed does not change
``gn_1d`` (the potential does not enter ``gn``, and below seven restarts
``compute_gn`` draws no random numbers) nor ``sweep_1d`` (see its config).
Every run passes ``--seed``, which the manifest records.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
# regenerate with: python3 perfbench/make_artifact.py
ARTIFACT = HERE / "data" / "gn_d1_n512"
FIXTURE = "tests/fixtures/reference_d1.json"  # relative to the checkout root

SOLVER = {"tol_grad": 1e-6, "max_iters": 40000, "precondition": True}
GRID_1D = {"d": 1, "n": 512, "half_width": 16.0}
# the README config, as `biharm gn` runs it to make the stored artifact
README_GN = {"grid": GRID_1D, "potential": {
    "family": "gaussian_well", "depth": 1.0, "width": 1.0, "center": [0.0]},
    "solver": SOLVER, "gn": {"restarts": 4}, "seed": 0}
# 128^2 rather than 256^2: the same iteration counts and energies to 1e-11,
# at 2-5 s per command instead of 15-23 s
GRID_2D = {"d": 2, "n": 128, "half_width": 12.0}

# reference values the gates compare against, with their tolerances
SWEEP_FINAL_ENERGY = -0.8468115805112202
SOLVE_2D_ENERGY = -0.4760903343941605
SWEEP_POINTS = 8


@dataclass
class Gate:
    name: str
    value: object
    ok: bool

    def line(self) -> str:
        val = (f"{self.value:.3e}" if isinstance(self.value, float)
               else str(self.value))
        return f"{self.name}={val} {'ok' if self.ok else 'FAIL'}"


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def well_offset(seed: int, grid: dict) -> list:
    """Quarter-node offset of the well centre, signs drawn from the seed.

    The magnitude is fixed because it sets the cost: at 256^2 an offset of
    0.05 dx per axis took 1184 iterations and 0.49 dx took 1485, while
    mirror images take the same count.  Seed 0 is offset too: on the origin
    the solve takes 714 iterations, half the cost of every other seed.
    """
    dx = 2.0 * grid["half_width"] / grid["n"]
    signs = np.random.default_rng(seed).choice((-1.0, 1.0), size=grid["d"])
    return [float(s * dx / 4.0) for s in signs]


def gaussian_well(center: list) -> dict:
    return {"family": "gaussian_well", "depth": 1.0, "width": 1.0,
            "center": center}


class Workload:
    name: str
    command: str

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def gates(self, run_dir: Path, a_star_ref: float) -> list:
        raise NotImplementedError

    def fingerprint(self, run_dir: Path):
        raise NotImplementedError

    def a_star(self, run_dir: Path, artifact_a_star: float):
        """The sharp constant this workload produced or consumed, if any."""
        return None


class GN1D(Workload):
    name, command = "gn_1d", "gn"

    def config(self, seed):
        # one restart instead of the README's four: the same stages at about
        # 3 s per command rather than 12-19 s, so a run holds enough
        # commands for a steady median on a host whose speed swings 1.75x
        return dict(README_GN, gn={"restarts": 1}, seed=seed)

    def gates(self, run_dir, a_star_ref):
        out = json.loads((run_dir / "gn.json").read_text())
        err = rel_err(out["a_star"], a_star_ref)
        check = abs(out["residuals"]["nonlinear_check"] - 1.0)
        c1, c2 = out["el_constants"]
        return [Gate("a_star_rel_err", err, err <= 1e-8),
                Gate("nonlinear_check_err", check, check <= 1e-8),
                Gate("el_constants_positive", f"({c1:.6g},{c2:.6g})",
                     c1 > 0 and c2 > 0)]

    def fingerprint(self, run_dir):
        return json.loads((run_dir / "gn.json").read_text())

    def a_star(self, run_dir, artifact_a_star):
        return json.loads((run_dir / "gn.json").read_text())["a_star"]


class Sweep1D(Workload):
    name, command = "sweep_1d", "sweep"

    def config(self, seed):
        # the well stays on the origin for every seed: offsets of +dx/4 and
        # 0.49 dx stall the last point at max_iters twice (status MaxIters)
        return {"grid": GRID_1D, "potential": gaussian_well([0.0]),
                "solver": SOLVER, "gn": {"artifact": str(ARTIFACT)},
                "sweep": {"start": 0.5, "ratio": 0.5, "count": SWEEP_POINTS},
                "seed": seed}

    def gates(self, run_dir, a_star_ref):
        rows = self.fingerprint(run_dir)
        final = rows[-1]
        converged = sum(r["status"] == "Converged" for r in rows)
        resolved = sum(r["resolved"] == "True" for r in rows)
        err = rel_err(float(final["energy"]), SWEEP_FINAL_ENERGY)
        h2 = float(final["h2_dist_to_Q"])
        return [Gate("records", len(rows), len(rows) == SWEEP_POINTS),
                Gate("converged", converged, converged == SWEEP_POINTS),
                Gate("resolved", resolved, resolved == SWEEP_POINTS),
                Gate("final_h2_dist", h2, h2 < 0.05),
                Gate("final_energy_rel_err", err, err <= 1e-9)]

    def fingerprint(self, run_dir):
        with open(run_dir / "sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def a_star(self, run_dir, artifact_a_star):
        return artifact_a_star


class Solve2D(Workload):
    name, command = "solve_2d", "solve"

    def config(self, seed):
        return {"grid": GRID_2D, "potential": gaussian_well(
                    well_offset(seed, GRID_2D)),
                "solver": SOLVER, "solve": {"a": 56.0}, "seed": seed}

    def gates(self, run_dir, a_star_ref):
        out = self.fingerprint(run_dir)
        err = rel_err(out["energy"], SOLVE_2D_ENERGY)
        return [Gate("status", out["status"], out["status"] == "Converged"),
                Gate("energy_rel_err", err, err <= 1e-8)]

    def fingerprint(self, run_dir):
        return json.loads((run_dir / "solve.json").read_text())


WORKLOADS = {w.name: w for w in (GN1D(), Sweep1D(), Solve2D())}
