"""Command-line front end: configuration, orchestration, persistence, reports.

One JSON config document drives every subcommand; the exit-code contract is
part of the interface: 0 success, 1 gn's fixed point did not converge (or
an unexpected error), 2 configuration problem (detected before any
compute), 3 the grid energy fell below the solver's floor of -1e3
(DivergedBelowFloor: what the energy does above a*, but node sums let
grid-scale states reach it below a* too), 4 a requested check failed on
otherwise valid output.  `sweep` and `check` print their verdicts as one
`name pass|FAIL detail` row each: `sweep` one per enabled check, named by
its sweep.checks key, and `check` one per certificate of the stored gn
artifact (Q's quotient is a*, Q is normalized, Q solves the Euler-Lagrange
equation, no sampled field beats a*).  Only `gn` computes the artifact;
every other command that needs it reads it and exits 2 when it is missing.
A command raises ConfigError before it computes or writes anything, or
returns its exit code, outputs and timings; `main` alone prints the `config
error:` line of exit 2, times the command and writes manifest.json.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._readers import (ConfigError, _as_float, _as_flag, _as_int, _as_str,
                       _as_tolerance, _block, _is_finite_number)
from .blowup import (_validate_schedule, energy_limit_check,
                     gn_sequence_check, load_sweep, save_sweep, sweep,
                     sweep_plot_columns)
from .energy import el_residual, gn_quotient
from .field import (bilap_energy, gaussian_mixture_field, l2_norm_sq,
                    lq_integral, random_smooth_field, spectral_tail,
                    write_snapshot)
from .gn import _petviashvili, compute_gn, load_gn, save_gn
from .grid import make_grid
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


# ---------------------------------------------------------------------------
# config loading & validation


def _build(what, make, **kwargs):
    """make(**kwargs), its ValueError reported as a ConfigError on what."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def load_config(path):
    """Parse the JSON config document; malformed input is a ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


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
    schedule geometry, coupling syntax).  Every block the document holds is
    read, and its unknown keys rejected, whatever the command; a command
    only requires its own block."""

    def __init__(self, raw: dict, command: str, overrides: dict):
        top = _block({"config": raw}, "config", {
            "grid", "potential", "solver", "gn", "solve", "sweep", "seed",
            "output_dir"})
        grid = _block(top, "grid", {"d", "n", "half_width"})
        # "precondition" is accepted, as true only, from configs written when
        # the preconditioner was optional; solve always preconditions
        solver = _block(top, "solver",
                        {"tol_grad", "max_iters", "init", "precondition"})
        init = _block(solver, "init", {"kind", "width", "path", "ell"},
                      "solver.")
        # "restarts" is accepted and ignored, from configs written when
        # compute_gn took restarts
        gn = _block(top, "gn", {"artifact", "restarts"})
        solve = _block(top, "solve", {"a"})
        sweep = _block(top, "sweep", {"start", "ratio", "count", "checks"})
        checks = _block(sweep, "checks", {"h2_final", "gn_window",
                                          "monotone_gap", "energy_gap_tol"},
                        "sweep.")
        if command == "solve" and "a" not in solve:
            raise ConfigError("solve needs a 'solve' object with a coupling "
                              "'a'")
        if command == "sweep" and "sweep" not in top:
            raise ConfigError("sweep needs a 'sweep' object with start, "
                              "count, ratio")

        self.raw = raw
        self.command = command
        self.grid = _build("grid", make_grid,
                           d=_as_int(grid, "d", minimum=1),
                           n=_as_int(grid, "n", minimum=1),
                           half_width=_as_float(grid, "half_width"))
        self.potential = _build("potential", potential_from_config,
                                obj=top.get("potential", {"family": "zero"}),
                                d=self.grid.d)
        if solver.get("precondition", True) is not True:
            raise ConfigError("field 'precondition' can only be true (solve "
                              f"always preconditions), got "
                              f"{solver['precondition']!r}")
        self.solver = _build(
            "solver config", SolveConfig,
            tol_grad=_as_float(solver, "tol_grad", SolveConfig.tol_grad),
            max_iters=_as_int(solver, "max_iters", SolveConfig.max_iters))
        self.init = _build("solver config", InitSpec,
                           kind=_as_str(init, "kind", InitSpec.kind),
                           width=_as_float(init, "width", InitSpec.width),
                           path=_as_str(init, "path", InitSpec.path),
                           ell=_as_float(init, "ell", InitSpec.ell))
        self.seed = _as_int(top, "seed", 0, minimum=0)
        if overrides.get("seed") is not None:
            self.seed = _as_int(overrides, "seed", minimum=0)
        self.output_dir = Path(overrides.get("output")
                               or _as_str(top, "output_dir", "run"))
        artifact = _as_str(gn, "artifact", "")
        self.gn_artifact = Path(artifact) if artifact else self.output_dir / "gn"

        self.coupling_literal, self.coupling_factor = (
            _parse_coupling(solve["a"]) if "a" in solve else (None, None))

        start = _as_float(sweep, "start", 0.5)
        ratio = _as_float(sweep, "ratio", 0.5)
        count = _as_int(sweep, "count", 8, minimum=1)
        if not 0.0 < start < 1.0:
            raise ConfigError("sweep.start is 1 - a/a* of the first record "
                              "and must lie in (0, 1); couplings at or above "
                              "astar do not exist")
        if not 0.0 < ratio < 1.0:
            raise ConfigError("sweep.ratio must lie in (0, 1) so the "
                              "schedule climbs toward astar")
        # the schedule's last 1 - a/a*; where 1 minus it rounds to 1, a* (1 -
        # delta) is a* for every a*, so the schedule is rejected here, for
        # every command, without being built (cmd_sweep builds it)
        last = start * ratio ** (count - 1)
        if 1.0 - last == 1.0:
            raise ConfigError(f"sweep schedule: sweep.count {count} takes "
                              f"1 - a/a* down to {last:.3g}, too small for a "
                              "to differ from astar in double precision; "
                              "lower sweep.count")
        self.sweep_start, self.sweep_ratio, self.sweep_count = (
            start, ratio, count)
        self.check_h2_final = _as_tolerance(checks, "h2_final", 0.05)
        self.check_energy_gap_tol = _as_tolerance(checks, "energy_gap_tol",
                                                  None)
        self.check_gn_window = _as_flag(checks, "gn_window", True)
        self.check_monotone_gap = _as_flag(checks, "monotone_gap", True)


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


def _report(rows, out) -> bool:
    """Print each (name, ok, detail) row as `name  pass|FAIL  detail`; True
    when every row passes."""
    ok_all = True
    for name, ok, detail in rows:
        ok_all &= bool(ok)
        print(f"{name:<14}  {'pass' if ok else 'FAIL'}  {detail}", file=out)
    return ok_all


def _load_gn_artifact(cfg: RunConfig):
    """The stored gn artifact on the config's grid, or a ConfigError."""
    try:
        result = load_gn(cfg.gn_artifact)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"cannot load GN artifact at {cfg.gn_artifact}: "
                          f"{exc}\nrun the 'gn' command first (or point "
                          "gn.artifact at an existing result)") from exc
    gq, g = result.Q.grid, cfg.grid
    if gq != g:
        raise ConfigError(f"GN artifact grid (d={gq.d} n={gq.n} "
                          f"half_width={gq.half_width}) does not match the "
                          f"config grid (d={g.d} n={g.n} "
                          f"half_width={g.half_width}); regenerate with the "
                          "'gn' command")
    return result


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, files written, extra timings)


def cmd_gn(cfg: RunConfig, out):
    try:
        result = compute_gn(cfg.grid, cfg=cfg.solver)
    except RuntimeError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_FAIL, [], {}
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    base = cfg.output_dir / "gn"
    save_gn(result, base)
    print(f"a_star = {result.a_star:.12g}", file=out)
    print(f"quotient_residual = {result.quotient_residual:.3e}", file=out)
    print(f"iterations = {result.iterations}", file=out)
    print(f"residual path = {result.history[0]:.3e} -> "
          f"{result.history[-1]:.3e} in {result.seconds:.3f} s", file=out)
    print(f"nonlinear_check = {result.nonlinear_check:.12g}", file=out)
    c1, c2 = result.el_constants
    print(f"el_constants = ({c1:.9g}, {c2:.9g})", file=out)
    print(f"spectral tail = {spectral_tail(result.Q):.3e}", file=out)
    return (EXIT_OK, [base.with_suffix(".bhf"), base.with_suffix(".json")],
            {"gn_s": result.seconds})


def cmd_solve(cfg: RunConfig, out):
    profile, a = None, cfg.coupling_literal
    if cfg.coupling_factor is not None or cfg.init.kind == "dilated_Q":
        gn = _load_gn_artifact(cfg)
        profile = gn.Q
        if cfg.coupling_factor is not None:
            a = cfg.coupling_factor * gn.a_star
            if not math.isfinite(a):
                raise ConfigError(f"coupling {cfg.raw['solve']['a']!r} "
                                  f"overflows: a_star = {gn.a_star:.12g}")
    try:
        start = initial_field(cfg.grid, cfg.potential, cfg.init, profile)
    except (OSError, ValueError) as exc:
        # only a file start can fail: missing, unreadable or on another grid
        raise ConfigError(f"cannot start from {cfg.init.path}: {exc}") from exc
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
        "coarse_half_grid": result.coarse_half_grid,
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
    print(f"preconditioner: coarse step in "
          f"{result.iterations - result.coarse_fallbacks} of "
          f"{result.iterations} iterations, P alone in the rest", file=out)
    print(f"coarse step on the n/2 grid in {result.coarse_half_grid} of "
          f"those", file=out)
    if result.status is not SolveStatus.DIVERGED_BELOW_FLOOR:
        return EXIT_OK, [snap, log, report], {}
    print(f"grid energy fell below the floor {ENERGY_FLOOR:g}: expected above "
          "a*, but node sums let grid-scale states reach it below a* too",
          file=out)
    return EXIT_WITNESS, [snap, log, report], {}


def _sweep_checks(cfg: RunConfig, records, resolved, gn, floor):
    """(row, ok, detail) for each enabled sweep check, the row named by the
    sweep.checks key that switches it on; a lone `resolved` row when no
    record is resolved, since every check judges resolved records."""
    if not resolved:
        yield ("resolved", False, "no resolved records -- each concentration "
               "scale fell below 4 grid nodes (increase grid.n, or widen the "
               "schedule away from astar) or is more than the box can hold "
               "(its rescaling lost mass: increase grid.half_width)")
        return
    # the trend needs three resolved records; the tolerance only the last
    gap = abs(resolved[-1].energy - floor)
    if cfg.check_monotone_gap:
        try:
            ok = energy_limit_check(records, floor, tol=np.inf)[1]
            detail = (f"gap to ess inf V {gap:.4g}, "
                      f"{'' if ok else 'not '}shrinking over the last three "
                      "resolved records")
        except ValueError as exc:
            ok, detail = False, str(exc)
        yield "monotone_gap", ok, detail
    if cfg.check_energy_gap_tol is not None:
        yield ("energy_gap_tol", gap < cfg.check_energy_gap_tol,
               f"gap to ess inf V {gap:.4g}, tolerance "
               f"{cfg.check_energy_gap_tol}")
    if cfg.check_h2_final is not None:
        final = resolved[-1].h2_dist_to_Q
        yield ("h2_final", final < cfg.check_h2_final,
               f"final H2 distance to Q {final:.4g}, tolerance "
               f"{cfg.check_h2_final}")
    if cfg.check_gn_window:
        last = gn_sequence_check(records, gn)[-1]
        yield ("gn_window", 0.95 < last < 1.0 + 1e-3,
               f"a* x nonlinear mass of the final rescaled profile "
               f"{last:.6f}, window (0.95, 1.001)")


def cmd_sweep(cfg: RunConfig, out):
    gn = _load_gn_artifact(cfg)
    schedule = [gn.a_star * (1.0 - cfg.sweep_start * cfg.sweep_ratio**k)
                for k in range(cfg.sweep_count)]
    try:
        _validate_schedule(schedule, gn.a_star)
    except ValueError as exc:
        # the smallest values of 1 - a/a* can round to a* itself
        raise ConfigError(f"sweep schedule: {exc}; sweep.start * "
                          "sweep.ratio**(count - 1) is too small to tell a "
                          "from astar in double precision") from exc
    records = sweep(cfg.grid, cfg.potential, schedule, cfg.solver, gn)
    csv_path = save_sweep(records, cfg.output_dir)
    print(f"wrote {csv_path} with {len(records)} records", file=out)
    resolved = [r for r in records if r.resolved]
    print(f"resolved records: {len(resolved)}/{len(records)}", file=out)
    floor = ess_inf(cfg.potential, cfg.grid)
    if resolved:
        print("  1-a/a*      energy        gap     eps      h2_dist  status",
              file=out)
    for r in resolved:
        print(f"  {1.0 - r.a / gn.a_star:#.3g}   {r.energy:+.6e}  "
              f"{abs(r.energy - floor):#.3g}  {r.eps:#.4g}  "
              f"{r.h2_dist_to_Q:#.4g}  {r.status}", file=out)
    ok = _report(_sweep_checks(cfg, records, resolved, gn, floor), out)
    return (EXIT_OK if ok else EXIT_CHECK, [csv_path],
            {"points_s": [r.seconds for r in records]})


def cmd_plotdata(cfg: RunConfig, out):
    csv_path = cfg.output_dir / "sweep.csv"
    if not csv_path.exists():
        raise ConfigError(f"{csv_path} not found; run the 'sweep' command "
                          "first")
    gn = _load_gn_artifact(cfg)
    try:
        records = load_sweep(csv_path)
    except ValueError as exc:
        raise ConfigError(f"{exc}; rerun the 'sweep' command") from exc
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
    return EXIT_OK, outputs, {}


# ---------------------------------------------------------------------------
# certificates of the gn artifact (cmd_check)

# the random fields the minimality row draws
GN_BATTERY_FIELDS = 200


def _certificates(gn, rng):
    """(row, ok, detail) for each certificate of the stored profile Q: its
    quotient is the stored a* and its residual the stored quotient_grad; it
    has the sharp normalization, unit mass, |Lap Q|^2 and a* int Q^q, the
    last also the stored nonlinear_check; it solves the Euler-Lagrange
    equation with two positive constants, the stored el_constants; and no
    sampled field beats a*, the certificate that the stationary Q is the
    minimizer.  A detail names a stored number that does not hold."""
    Q, a_star = gn.Q, gn.a_star
    rel = abs(gn_quotient(Q) - a_star) / a_star
    detail = f"rel mismatch with a* {rel:.2e}"
    # quotient_grad is the residual of the iterate before the gauge step; a
    # stop rule Q meets at once has the fixed point only measure Q's residual
    own = _petviashvili(Q.grid, Q, SolveConfig(sys.float_info.max)).residual
    stored = 0.5 * own <= gn.quotient_residual <= 2.0 * own
    if not stored:
        detail += (f"; stored quotient_grad {gn.quotient_residual:.3e} is "
                   f"not within a factor 2 of Q's residual {own:.3e}")
    yield "quotient", rel <= 1e-12 and stored, detail
    check = a_star * lq_integral(Q)
    worst = max(abs(v - 1.0) for v in (l2_norm_sq(Q), bilap_energy(Q), check))
    detail = f"max deviation from 1 {worst:.2e}"
    # the sidecar's nonlinear_check is a* int Q^q of the same Q, to roundoff
    stored = abs(gn.nonlinear_check - check) <= 1e-12 * abs(check)
    if not stored:
        detail += (f"; stored nonlinear_check {gn.nonlinear_check:.12g} "
                   f"is not a* int Q^q {check:.12g}")
    yield "normalization", worst <= 1e-8 and stored, detail
    c1, c2, res = el_residual(Q)
    detail = f"constants ({c1:.6g}, {c2:.6g}), rel residual {res:.2e}"
    # the sidecar's el_constants are this fit of the same Q, to roundoff
    stored = np.allclose(gn.el_constants, (c1, c2), rtol=1e-12, atol=0.0)
    if not stored:
        detail += f"; stored el_constants {gn.el_constants} are not the fit's"
    yield ("euler_lagrange", c1 > 0.0 and c2 > 0.0 and res <= 1e-6 and stored,
           detail)
    worst = np.inf
    for k in range(GN_BATTERY_FIELDS):
        u = (gaussian_mixture_field(Q.grid, rng) if k % 2 == 0
             else random_smooth_field(Q.grid, rng))
        worst = min(worst, gn_quotient(u))
    yield ("gn_inequality", worst >= a_star * (1.0 - 1e-6),
           f"min quotient {worst:.9g} vs a* {a_star:.9g}")


def cmd_check(cfg: RunConfig, out):
    gn = _load_gn_artifact(cfg)
    try:
        ok = _report(_certificates(gn, np.random.default_rng(cfg.seed)), out)
    except ValueError as exc:  # a zero or constant Q has no quotient or fit
        print(f"check FAIL: {exc}", file=out)
        ok = False
    return EXIT_OK if ok else EXIT_CHECK, [], {}


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "gn": cmd_gn,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "check": cmd_check,
    "plotdata": cmd_plotdata,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing leaves it
    unchanged, and argparse looks up sys.stdout and sys.stderr when it
    prints, not when it is built."""
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Fourth-order focusing ground states: critical constant, "
                    "minimizers, and concentration sweeps on periodic boxes.")
    parser.add_argument("--config", required=True,
                        help="path to the JSON run configuration")
    parser.add_argument("--output", help="output directory "
                        "(overrides config output_dir)")
    parser.add_argument("--seed", type=int,
                        help="override config seed (non-negative)")
    parser.add_argument(
        "command", choices=tuple(_COMMANDS),
        help="gn: compute the critical constant and its optimizer; "
             "solve: minimize the energy at one coupling; "
             "sweep: solve along a schedule climbing toward astar; "
             "check: certify the stored gn artifact, which the gn "
             "command writes (quotient, normalization, Euler-Lagrange fit, "
             "no sampled field below astar); "
             "plotdata: emit plot-ready columns from a sweep run")
    return parser


def main(argv=None, out=sys.stdout) -> int:
    """Parse argv, validate config, dispatch to the command and write its
    manifest (not on exits 1 and 2); returns the exit code, reports to out."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    overrides = {"seed": args.seed, "output": args.output}
    try:
        cfg = RunConfig(load_config(args.config), args.command, overrides)
        t0 = time.perf_counter()
        code, outputs, timings = _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=out)
        return EXIT_CONFIG
    if code != EXIT_FAIL:
        _write_manifest(cfg, outputs, {
            "command_s": time.perf_counter() - t0, **timings})
    return code


if __name__ == "__main__":
    sys.exit(main())
