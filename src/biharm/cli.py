"""Command-line front end: configuration, orchestration, persistence, reports.

One JSON config document drives every subcommand; the exit-code contract is
part of the interface: 0 success, 1 unexpected failure or non-convergence,
2 configuration problem (detected before any compute), 3 the grid energy
fell below the solver's floor of -1e3 (DivergedBelowFloor: what the energy
does above a*, but node sums let grid-scale states reach it below a* too),
4 a requested check failed on otherwise valid output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blowup import (energy_limit_check, gn_sequence_check, load_sweep,
                     save_sweep, sweep, sweep_plot_columns)
from .energy import (_unconstrained_gradient, energy, gn_quotient,
                     scaled_energy_identity_check)
from .field import (Field, bilap_energy, gaussian_mixture_field, l2_norm_sq,
                    l2_norm_sq_spectral, random_smooth_field, write_snapshot)
from .gn import compute_gn, load_gn, save_gn
from .grid import Grid, make_grid, quadrature
from .groundstate import (ENERGY_FLOOR, SOLVE_COUNTERS, InitSpec, SolveConfig,
                          SolveStatus, initial_field, solve,
                          write_iteration_log)
from .potentials import ess_inf, potential_from_config

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_WITNESS = 3
EXIT_CHECK = 4

_ASTAR_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*\*\s*astar\s*$")


class ConfigError(ValueError):
    """Configuration rejected before any compute ran."""


# ---------------------------------------------------------------------------
# config loading & validation


def _is_finite_number(val) -> bool:
    return (not isinstance(val, bool) and isinstance(val, (int, float))
            and math.isfinite(val))


def _as_int(obj, key, default=None, minimum=None):
    val = obj.get(key, default)
    if val is None:
        raise ConfigError(f"missing integer field {key!r}")
    if not _is_finite_number(val) or int(val) != val:
        raise ConfigError(f"field {key!r} must be an integer, got {val!r}")
    val = int(val)
    if minimum is not None and val < minimum:
        raise ConfigError(f"field {key!r} must be >= {minimum}, got {val}")
    return val


def _as_float(obj, key, default=None):
    val = obj.get(key, default)
    if val is None:
        raise ConfigError(f"missing numeric field {key!r}")
    if not _is_finite_number(val):
        raise ConfigError(f"field {key!r} must be a finite number, got {val!r}")
    return float(val)


def load_config(path) -> dict:
    """Parse the JSON config document; malformed input is a ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _build_grid(cfg: dict) -> Grid:
    block = cfg.get("grid")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'grid' object with d, n, half_width")
    try:
        return make_grid(_as_int(block, "d", minimum=1),
                         _as_int(block, "n", minimum=1),
                         _as_float(block, "half_width"))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _build_potential(cfg: dict, d: int):
    block = cfg.get("potential", {"family": "zero"})
    try:
        return potential_from_config(block, d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid potential: {exc}") from exc


def _build_solver(cfg: dict) -> tuple[SolveConfig, InitSpec]:
    """The solver block: the stop rule, and the start that 'solve' uses."""
    block = cfg.get("solver", {})
    if not isinstance(block, dict):
        raise ConfigError("'solver' must be an object")
    defaults = SolveConfig()
    init_block = block.get("init", {})
    if not isinstance(init_block, dict):
        raise ConfigError("'solver.init' must be an object")
    known_init = {"kind", "width", "path", "ell"}
    extra = set(init_block) - known_init
    if extra:
        raise ConfigError(f"unknown solver.init fields {sorted(extra)}")
    di = InitSpec()
    # "precondition" is accepted, as true only, from configs written when the
    # preconditioner was optional; solve always preconditions
    known = {"tol_grad", "max_iters", "precondition", "init"}
    extra = set(block) - known
    if extra:
        raise ConfigError(f"unknown solver fields {sorted(extra)}")
    if block.get("precondition", True) is not True:
        raise ConfigError("field 'precondition' can only be true (solve "
                          f"always preconditions), got "
                          f"{block['precondition']!r}")
    try:
        init = InitSpec(kind=str(init_block.get("kind", di.kind)),
                        width=_as_float(init_block, "width", di.width),
                        path=str(init_block.get("path", di.path)),
                        ell=_as_float(init_block, "ell", di.ell))
        return SolveConfig(
            tol_grad=_as_float(block, "tol_grad", defaults.tol_grad),
            max_iters=_as_int(block, "max_iters", defaults.max_iters),
        ), init
    except ValueError as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc


def _parse_coupling(spec):
    """A literal number, or 'f*astar' to resolve against the GN artifact.

    Returns (literal_value, astar_factor): exactly one is not None.  Either
    must be finite and nonnegative.
    """
    if isinstance(spec, str):
        m = _ASTAR_RE.match(spec)
        try:
            literal, factor = None, float(m.group(1)) if m else None
        except ValueError:  # the pattern admits strings such as "1.2.3"
            factor = None
        if factor is None:
            raise ConfigError(f"cannot parse coupling {spec!r}; "
                              "use a number or 'f*astar'")
    elif _is_finite_number(spec):
        literal, factor = float(spec), None
    else:
        raise ConfigError("coupling must be a finite number or 'f*astar' "
                          f"string, got {spec!r}")
    if not 0.0 <= (literal if factor is None else factor) < math.inf:
        raise ConfigError(f"coupling must be finite and nonnegative, "
                          f"got {spec!r}")
    return literal, factor


class RunConfig:
    """Validated run configuration; construction performs every check that
    does not require compute (grids, potential family, solver numbers,
    schedule geometry, coupling syntax)."""

    def __init__(self, raw: dict, command: str, overrides: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        self.command = command
        self.grid = _build_grid(raw)
        self.potential = _build_potential(raw, self.grid.d)
        self.solver, self.init = _build_solver(raw)
        seed = overrides.get("seed")
        self.seed = _as_int(raw, "seed", 0) if seed is None else int(seed)
        out = overrides.get("output") or raw.get("output_dir", "run")
        if not isinstance(out, (str, Path)):
            raise ConfigError("output_dir must be a path string")
        self.output_dir = Path(out)

        gn_block = raw.get("gn", {})
        if not isinstance(gn_block, dict):
            raise ConfigError("'gn' must be an object")
        artifact = gn_block.get("artifact")
        self.gn_artifact = Path(artifact) if artifact else self.output_dir / "gn"

        if command == "solve":
            block = raw.get("solve")
            if not isinstance(block, dict) or "a" not in block:
                raise ConfigError("solve needs a 'solve' object with "
                                  "a coupling 'a'")
            self.coupling_literal, self.coupling_factor = _parse_coupling(
                block["a"])

        if command == "sweep":
            block = raw.get("sweep")
            if not isinstance(block, dict):
                raise ConfigError("sweep needs a 'sweep' object with "
                                  "start, count, ratio")
            start = _as_float(block, "start", 0.5)
            ratio = _as_float(block, "ratio", 0.5)
            count = _as_int(block, "count", 8, minimum=1)
            if not 0.0 < start < 1.0:
                raise ConfigError("sweep.start is 1 - a/a* of the first "
                                  "record and must lie in (0, 1); couplings "
                                  "at or above astar do not exist")
            if not 0.0 < ratio < 1.0:
                raise ConfigError("sweep.ratio must lie in (0, 1) so the "
                                  "schedule climbs toward astar")
            self.sweep_deltas = [start * ratio**k for k in range(count)]
            checks = block.get("checks", {})
            if not isinstance(checks, dict):
                raise ConfigError("'sweep.checks' must be an object")
            extra = set(checks) - {"h2_final", "gn_window", "monotone_gap",
                                   "energy_gap_tol"}
            if extra:
                raise ConfigError(f"unknown sweep.checks fields "
                                  f"{sorted(extra)}")
            for key in ("gn_window", "monotone_gap"):
                if not isinstance(checks.get(key, True), bool):
                    raise ConfigError(f"sweep.checks.{key} must be true or "
                                      f"false, got {checks[key]!r}")
            self.check_h2_final = checks.get("h2_final", 0.05)
            self.check_gn_window = checks.get("gn_window", True)
            self.check_monotone_gap = checks.get("monotone_gap", True)
            self.check_energy_gap_tol = checks.get("energy_gap_tol")
            for key, val in (("h2_final", self.check_h2_final),
                             ("energy_gap_tol", self.check_energy_gap_tol)):
                if val is not None and (not _is_finite_number(val)
                                        or val <= 0):
                    raise ConfigError(f"sweep.checks.{key} must be a positive "
                                      "number or null")

        if command == "check":
            block = raw.get("check", {})
            if not isinstance(block, dict):
                raise ConfigError("'check' must be an object")
            self.check_fields = _as_int(block, "fields", 20, minimum=1)
            self.check_directions = _as_int(block, "directions", 20, minimum=1)
            self.check_battery = _as_int(block, "battery", 200, minimum=1)


# ---------------------------------------------------------------------------
# manifests and small report helpers


def _write_manifest(cfg: RunConfig, outputs: list, timings: dict) -> None:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": cfg.command,
        "version": __version__,
        "seed": cfg.seed,
        "config": cfg.raw,
        "outputs": [str(p) for p in outputs],
        "timings": timings,
    }
    (cfg.output_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_gn_artifact(cfg: RunConfig, out):
    try:
        result = load_gn(cfg.gn_artifact)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load GN artifact at {cfg.gn_artifact}: {exc}\n"
              "run the 'gn' command first (or point gn.artifact at an "
              "existing result)", file=out)
        return None
    gq = result.Q.grid
    g = cfg.grid
    if gq != g:
        print(f"error: GN artifact grid (d={gq.d} n={gq.n} "
              f"half_width={gq.half_width}) does not match the config grid "
              f"(d={g.d} n={g.n} half_width={g.half_width}); regenerate with "
              "the 'gn' command", file=out)
        return None
    return result


# ---------------------------------------------------------------------------
# subcommands


def cmd_gn(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    try:
        result = compute_gn(cfg.grid, cfg=cfg.solver)
    except RuntimeError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_FAIL
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    base = cfg.output_dir / "gn"
    save_gn(result, base)
    print(f"a_star = {result.a_star:.12g}", file=out)
    print(f"quotient_residual = {result.quotient_residual:.3e}", file=out)
    main_run = len(result.history) - 1
    print(f"iterations = {result.iterations} (main run {main_run}, "
          f"n/2 check {result.iterations - main_run})", file=out)
    print(f"residual path = {result.history[0]:.3e} -> "
          f"{result.history[-1]:.3e} over {main_run} "
          f"iterations, in {result.seconds:.3f} s", file=out)
    print(f"nonlinear_check = {result.nonlinear_check:.12g}", file=out)
    c1, c2 = result.el_constants
    print(f"el_constants = ({c1:.9g}, {c2:.9g})", file=out)
    print("resolution cross-check:", file=out)
    for n, val in result.resolutions:
        print(f"  n={n:6d}  quotient={val:.12g}", file=out)
    if result.check_residual is not None:
        state = ("converged" if result.check_converged
                 else "stopped unconverged")
        print(f"n/2 check: quotient residual {result.check_residual:.3e}, "
              f"{state}", file=out)
    _write_manifest(cfg, [base.with_suffix(".bhf"), base.with_suffix(".json")],
                    _timings(t0))
    return EXIT_OK


def cmd_solve(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    profile = None
    if cfg.coupling_factor is not None or cfg.init.kind == "dilated_Q":
        gn = _load_gn_artifact(cfg, out)
        if gn is None:
            return EXIT_CONFIG
        profile = gn.Q
        a = (cfg.coupling_literal if cfg.coupling_factor is None
             else cfg.coupling_factor * gn.a_star)
    else:
        a = cfg.coupling_literal
    try:
        start = initial_field(cfg.grid, cfg.potential, cfg.init, profile)
    except (OSError, ValueError) as exc:
        # only a file start can fail: missing, unreadable or on another grid
        print(f"config error: cannot start from {cfg.init.path}: {exc}",
              file=out)
        return EXIT_CONFIG
    result = solve(cfg.grid, cfg.potential, a, cfg.solver, start=start)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    snap = cfg.output_dir / "solve.bhf"
    write_snapshot(result.minimizer, snap)
    log = cfg.output_dir / "iterations.csv"
    write_iteration_log(result, log)
    bd = result.breakdown
    summary = {
        "a": a,
        "status": result.status.value,
        "energy": bd.total,
        "kinetic": bd.kinetic,
        "potential": bd.potential,
        "nonlinear": bd.nonlinear,
        "mu": bd.mu,
        "grad_residual": result.grad_residual,
        **{c: getattr(result, c) for c in SOLVE_COUNTERS},
        "init": cfg.init.kind,
    }
    report = cfg.output_dir / "solve.json"
    report.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"status = {result.status.value}", file=out)
    print(f"a = {a:.12g}", file=out)
    print(f"energy = {bd.total:.12g}", file=out)
    print(f"grad_residual = {result.grad_residual:.3e} "
          f"after {result.iterations} iterations", file=out)
    print(f"line search: {result.trials} trials, {result.backtracks} "
          f"backtracks, {result.cg_restarts} CG restarts", file=out)
    print(f"fft_calls = {result.fft_calls}", file=out)
    if cfg.grid.d == 1:
        print("preconditioner: P alone; the coarse step is off in 1D",
              file=out)
    else:
        print(f"preconditioner: P alone in {result.coarse_fallbacks} of "
              f"{result.iterations} iterations, with the coarse step in the "
              "rest", file=out)
    _write_manifest(cfg, [snap, log, report], _timings(t0))
    if result.status is SolveStatus.DIVERGED_BELOW_FLOOR:
        print(f"grid energy fell below the floor {ENERGY_FLOOR:g}: expected "
              "above a*, but node sums let grid-scale states reach it below "
              "a* too", file=out)
        return EXIT_WITNESS
    return EXIT_OK


def _timings(t0: float, records=None) -> dict:
    """Wall seconds of the command since t0 and, for a sweep, of each
    point's solve, for the manifest only: the command's other outputs stay
    byte-for-byte reproducible."""
    timings = {"command_s": time.perf_counter() - t0}
    if records is not None:
        timings["points_s"] = [r.seconds for r in records]
    return timings


def cmd_sweep(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    gn = _load_gn_artifact(cfg, out)
    if gn is None:
        return EXIT_CONFIG
    schedule = [gn.a_star * (1.0 - d)
                for d in sorted(cfg.sweep_deltas, reverse=True)]
    records = sweep(cfg.grid, cfg.potential, schedule, cfg.solver, gn)
    csv_path = save_sweep(records, cfg.output_dir)
    outputs = [csv_path]
    print(f"wrote {csv_path} with {len(records)} records", file=out)

    resolved = [r for r in records if r.resolved]
    print(f"resolved records: {len(resolved)}/{len(records)}", file=out)
    failures = []
    if not resolved:
        print("check FAIL: no resolved records -- the concentration scale "
              "fell below 4 grid nodes everywhere; increase grid.n (or widen "
              "the schedule away from astar)", file=out)
        _write_manifest(cfg, outputs, _timings(t0, records))
        return EXIT_CHECK

    floor = ess_inf(cfg.potential, cfg.grid)
    print("  1-a/a*      energy        gap     eps      h2_dist  status",
          file=out)
    for r in resolved:
        print(f"  {1.0 - r.a / gn.a_star:#.3g}   {r.energy:+.6e}  "
              f"{abs(r.energy - floor):#.3g}  {r.eps:#.4g}  "
              f"{r.h2_dist_to_Q:#.4g}  {r.status}", file=out)

    if cfg.check_monotone_gap or cfg.check_energy_gap_tol is not None:
        tol = (np.inf if cfg.check_energy_gap_tol is None
               else float(cfg.check_energy_gap_tol))
        try:
            gap, ok = energy_limit_check(records, cfg.potential, tol=tol)
            print(f"energy gap to ess inf V: {gap:.4g} "
                  f"({'shrinking' if ok else 'NOT shrinking/too large'})",
                  file=out)
            if not ok:
                failures.append("energy_gap")
        except ValueError as exc:
            print(f"energy gap check unavailable: {exc}", file=out)
            failures.append("energy_gap")
    if cfg.check_h2_final is not None:
        final = resolved[-1].h2_dist_to_Q
        ok = final < float(cfg.check_h2_final)
        print(f"final H2 distance to Q: {final:.4g} "
              f"(tolerance {cfg.check_h2_final})", file=out)
        if not ok:
            failures.append("h2_final")
    if cfg.check_gn_window:
        vals = gn_sequence_check(records, gn)
        ok = 0.95 < vals[-1] < 1.0 + 1e-3
        print(f"a* x nonlinear mass of final rescaled profile: {vals[-1]:.6f}",
              file=out)
        if not ok:
            failures.append("gn_window")
    _write_manifest(cfg, outputs, _timings(t0, records))
    if failures:
        print("check FAIL: " + ", ".join(failures), file=out)
        return EXIT_CHECK
    print("all enabled checks passed", file=out)
    return EXIT_OK


def cmd_plotdata(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    csv_path = cfg.output_dir / "sweep.csv"
    if not csv_path.exists():
        print(f"error: {csv_path} not found; run the 'sweep' command first",
              file=out)
        return EXIT_CONFIG
    gn = _load_gn_artifact(cfg, out)
    if gn is None:
        return EXIT_CONFIG
    try:
        records = load_sweep(csv_path)
    except ValueError as exc:
        print(f"error: {exc}; rerun the 'sweep' command", file=out)
        return EXIT_CONFIG
    floor = ess_inf(cfg.potential, cfg.grid)
    cols = sweep_plot_columns(records, gn.a_star, floor)
    outputs = []
    for name, points in cols.items():
        path = cfg.output_dir / f"plot_{name}.csv"
        lines = ["one_minus_a_over_astar," + name]
        lines += [f"{x!r},{y!r}" for x, y in points]
        path.write_text("\n".join(lines) + "\n")
        outputs.append(path)
        print(f"wrote {path} ({len(points)} points)", file=out)
    _write_manifest(cfg, outputs, _timings(t0))
    return EXIT_OK


# ---------------------------------------------------------------------------
# property batteries (cmd_check)


def _battery_parseval(cfg: RunConfig, rng) -> tuple:
    worst = 0.0
    for _ in range(cfg.check_fields):
        u = random_smooth_field(cfg.grid, rng)
        a = l2_norm_sq(u)
        b = l2_norm_sq_spectral(u)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst < 1e-12, f"max rel mismatch {worst:.2e}"


def _battery_scaling(cfg: RunConfig, rng) -> tuple:
    worst = 0.0
    for _ in range(cfg.check_fields):
        u = random_smooth_field(cfg.grid, rng)
        for ell in (0.5, 0.8, 1.25, 2.0):
            scale = max(1.0, abs(ell**4 * bilap_energy(u)))
            defect = scaled_energy_identity_check(u, 2.0, ell)
            worst = max(worst, defect / scale)
    return worst < 1e-8, f"max rel defect {worst:.2e}"


def _battery_gn(cfg: RunConfig, rng, gn) -> tuple:
    floor = gn.a_star * (1.0 - 1e-6)
    worst = np.inf
    for k in range(cfg.check_battery):
        u = (gaussian_mixture_field(cfg.grid, rng) if k % 2 == 0
             else random_smooth_field(cfg.grid, rng))
        worst = min(worst, gn_quotient(u))
    return worst >= floor, f"min quotient {worst:.9g} vs a* {gn.a_star:.9g}"


def _battery_fd(cfg: RunConfig, rng) -> tuple:
    V = cfg.potential
    a = 2.0
    u = random_smooth_field(cfg.grid, rng)
    raw = _unconstrained_gradient(u, V, a)
    min_order = np.inf
    for _ in range(cfg.check_directions):
        phi = random_smooth_field(cfg.grid, rng).values
        pairing = quadrature(cfg.grid, raw * phi)
        errs = []
        for h in (1e-3, 1e-4):
            up = Field(cfg.grid, u.values + h * phi)
            dn = Field(cfg.grid, u.values - h * phi)
            fd = (energy(up, V, a).total - energy(dn, V, a).total) / (2 * h)
            errs.append(abs(fd - pairing))
        if errs[1] < 1e-13 * max(1.0, abs(pairing)):
            continue  # already at roundoff: counts as converged
        min_order = min(min_order, np.log10(errs[0] / errs[1]))
    return min_order >= 1.9, f"min convergence order {min_order:.3f}"


def cmd_check(cfg: RunConfig, out=sys.stdout) -> int:
    t0 = time.perf_counter()
    # an artifact whose sidecar exists must load; only a missing one is computed
    if cfg.gn_artifact.with_suffix(".json").exists():
        gn = _load_gn_artifact(cfg, out)
        if gn is None:
            return EXIT_CONFIG
    else:
        try:
            gn = compute_gn(cfg.grid, cfg=cfg.solver)
        except RuntimeError as exc:
            print(f"error: {exc}", file=out)
            return EXIT_FAIL
    rng = np.random.default_rng(cfg.seed)
    rows = [
        ("parseval", *_battery_parseval(cfg, rng)),
        ("scaling_identity", *_battery_scaling(cfg, rng)),
        ("gn_inequality", *_battery_gn(cfg, rng, gn)),
        ("gradient_fd", *_battery_fd(cfg, rng)),
    ]
    width = max(len(r[0]) for r in rows)
    ok_all = True
    for name, ok, detail in rows:
        ok_all &= ok
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}",
              file=out)
    _write_manifest(cfg, [], _timings(t0))
    return EXIT_OK if ok_all else EXIT_CHECK


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "gn": cmd_gn,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "plotdata": cmd_plotdata,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Fourth-order focusing ground states: critical constant, "
                    "minimizers, and concentration sweeps on periodic boxes.")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--output", help="output directory "
                        "(overrides config output_dir)")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument(
        "command", choices=tuple(_COMMANDS),
        help="gn: compute the critical constant and its optimizer; "
             "solve: minimize the energy at one coupling; "
             "sweep: solve along a schedule climbing toward astar; "
             "check: run the property batteries; "
             "plotdata: emit plot-ready columns from a sweep run")
    return parser


def main(argv=None, out=sys.stdout) -> int:
    """Parse argv, validate config, dispatch to the command; returns the
    exit code.  Reports go to out."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    overrides = {"seed": args.seed, "output": args.output}
    try:
        raw = load_config(args.config)
        cfg = RunConfig(raw, args.command, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=out)
        return EXIT_CONFIG
    return _COMMANDS[args.command](cfg, out=out)


if __name__ == "__main__":
    sys.exit(main())
