"""Concentration sweep toward the critical coupling, with profile diagnostics.

As the coupling climbs toward the critical value the minimizer collapses onto
the potential well at a shrinking length scale eps = (bilaplacian energy)^(-1/4).
Undoing that scale -- recenter, dilate by eps, renormalize -- should reproduce
the optimizer of the interpolation inequality, and the records collected here
measure exactly how well it does: energies against the essential infimum of the
potential, nonlinear mass against its critical value, and H2 distance of the
rescaled profile to the reference state.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .field import (Field, dilate, h2_distance, lq_integral, recenter,
                    translate, write_snapshot)
from .gn import GNResult, normalize_gn
from .grid import Grid
from .groundstate import (InitSpec, SolveConfig, SolveStatus, initial_field,
                          solve)
from .potentials import ess_inf

__all__ = [
    "SweepRecord",
    "sweep",
    "energy_limit_check",
    "gn_sequence_check",
    "sweep_plot_columns",
    "save_sweep",
    "load_sweep",
]


@dataclass
class SweepRecord:
    """One coupling value's minimizer, reduced to its concentration diagnostics.

    eps is kinetic**-0.25 by definition (kinetic being the bilaplacian
    quadrature of the minimizer), center is the density centroid, and
    h2_dist_to_Q is measured after optimizing a sub-grid translation of the
    rescaled profile.  resolved means the concentration scale still spans
    several grid nodes (eps > 4 dx); records with resolved=False are kept --
    their scalars are reported, but nothing quantitative should be trusted at
    a scale the grid no longer separates.  iterations, trials, backtracks,
    cg_restarts and fft_calls are the solver's counters for this coupling
    (None only on a record built by hand), and seconds is the solve's wall
    time (None on a record built by hand or read back from CSV).  seconds,
    the minimizer and its rescaled profile are not part of the CSV
    serialization: the minimizer and profile ride along for snapshotting and
    the sequence checks, and a wall time would break the byte-for-byte
    reproducibility of sweep.csv.
    """

    a: float
    energy: float
    kinetic: float
    eps: float
    center: tuple
    h2_dist_to_Q: float
    status: str
    resolved: bool
    iterations: int | None = None
    trials: int | None = None
    backtracks: int | None = None
    cg_restarts: int | None = None
    fft_calls: int | None = None
    seconds: float | None = None
    minimizer: Field | None = None
    rescaled: Field | None = None


_CSV_COLUMNS = ("a", "energy", "kinetic", "eps", "center", "h2_dist_to_Q",
                "status", "resolved", "iterations", "trials", "backtracks",
                "cg_restarts", "fft_calls")
_NEWTON_MAX_STEPS = 20


def _h2_after_best_shift(w: Field, ref: Field) -> float:
    """H2 distance minimized over sub-grid translations of w.

    Translation preserves the H2 norm, so the distance is smallest where the
    cross-correlation C(s) = <ref, (1 + Lap^2) w(. - s)> is largest, a
    Parseval sum of ref^ against z = (1 + |k|^4) w^ exp(-i k.s).  Its
    gradient and Hessian are the same sums of i k_i ref^ and -k_i k_j ref^
    against z, so those rows are formed once.  Both fields arrive centered,
    so the optimum sits near s = 0: Newton's method on C from s = 0, with
    steps clipped to half a node per axis, costs O(n^d) per step on the two
    transforms in hand and no FFT.  One exact translation then measures the
    distance at the optimum, which is reported only if it beats the distance
    at s = 0.
    """
    g = w.grid
    ik = g.ik
    pairs = [(i, j) for i in range(g.d) for j in range(i, g.d)]
    grad_rows = [iki * ref.hat for iki in ik]
    hess_rows = [ik[i] * grad_rows[j] for i, j in pairs]
    wk = (1.0 + g.k_quad) * w.hat
    hess = np.empty((g.d, g.d))
    shift = np.zeros(g.d)
    for _ in range(_NEWTON_MAX_STEPS):
        z = wk
        for iki, si in zip(ik, shift):
            z = z * np.exp(-si * iki)
        grad = np.array([g.parseval(r, z) for r in grad_rows])
        for (i, j), r in zip(pairs, hess_rows):
            hess[i, j] = hess[j, i] = g.parseval(r, z)
        try:
            step = -np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            break
        step = np.clip(step, -0.5 * g.dx, 0.5 * g.dx)
        shift = shift + step
        if np.max(np.abs(step)) < 1e-12 * g.dx:
            break
    return min(h2_distance(w, ref), h2_distance(translate(w, shift), ref))


def _validate_schedule(schedule, a_star: float) -> list:
    sched = [float(a) for a in schedule]
    if not sched:
        raise ValueError("schedule is empty")
    for a in sched:
        if not 0.0 < a < a_star:
            raise ValueError(f"coupling {a} outside (0, a*={a_star})")
    if any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be strictly increasing")
    return sched


def sweep(g: Grid, V, schedule, cfg: SolveConfig, gn: GNResult) -> list:
    """Solve along a strictly increasing schedule of couplings below a*.

    Until a solve has ended without diverging, each starts from the
    reference profile compressed to the scale the coupling gap suggests
    (ell = (1 - a/a*)^(-1/6)) and parked at the potential minimum.  After
    that each warm-starts from the last minimizer that did not diverge.
    When that minimizer is the newer of the two latest resolved converged
    records, the start is predicted from it instead: recentered, dilated
    about its own center by the secant ratio eps_older / eps_newer of the
    two records (a guess that the scale shrinks by the same factor again),
    and translated back to where it was.  cfg is only the stop rule.  A
    record is appended for every coupling whatever the solver status -- a
    failure is data -- but a diverged state is not propagated as the next
    warm start.
    """
    sched = _validate_schedule(schedule, gn.a_star)
    if gn.Q.grid != g:
        raise ValueError("reference profile lives on an incompatible grid")

    records: list = []
    prev: Field | None = None
    prev_eps = None
    # (centered minimizer, its recentering shift, secant ratio) while the
    # warm start is the newer of two resolved converged records
    predictor = None
    for a in sched:
        if predictor is not None:
            centered, applied, ratio = predictor
            start = translate(dilate(centered, ratio), -applied)
        elif prev is not None:
            start = prev
        else:
            ell = (1.0 - a / gn.a_star) ** (-1.0 / 6.0)
            start = initial_field(g, V, InitSpec("dilated_Q", ell=ell), gn.Q)
        t0 = time.perf_counter()
        result = solve(g, V, a, cfg, start=start)
        seconds = time.perf_counter() - t0
        u = result.minimizer
        kin = result.breakdown.kinetic
        eps = float(kin) ** -0.25
        resolved = bool(eps > 4.0 * g.dx)
        centered, applied = recenter(u)
        w = normalize_gn(centered)  # dilates by eps: the state has unit mass
        rec = SweepRecord(
            a=float(a),
            energy=float(result.breakdown.total),
            kinetic=float(kin),
            eps=eps,
            center=tuple(float(-s) for s in applied),
            h2_dist_to_Q=_h2_after_best_shift(w, gn.Q),
            status=result.status.value,
            resolved=resolved,
            iterations=result.iterations,
            trials=result.trials,
            backtracks=result.backtracks,
            cg_restarts=result.cg_restarts,
            fft_calls=result.fft_calls,
            seconds=seconds,
            minimizer=u,
            rescaled=w,
        )
        records.append(rec)
        trusted = resolved and rec.status == SolveStatus.CONVERGED.value
        # relative margin far above roundoff: the breakdown carried by one
        # solve and the fresh one of the next, warm-started, solve differ at
        # about 1e-12 relative even when the minimizer does not move
        if trusted and prev_eps is not None and eps > prev_eps * (1.0 + 1e-9):
            warnings.warn(
                f"concentration scale grew ({prev_eps:.4g} -> {eps:.4g}) "
                f"between resolved converged records at a={a}; recorded as "
                "data", RuntimeWarning, stacklevel=2)
        if result.status is not SolveStatus.DIVERGED_BELOW_FLOOR:
            prev = u
            predictor = ((centered, applied, prev_eps / eps)
                         if trusted and prev_eps is not None else None)
        if trusted:
            prev_eps = eps
    return records


def energy_limit_check(records, V, tol: float = 0.05):
    """Gap between the last resolved energy and ess inf V, with a verdict.

    Returns (gap, ok) where ok requires the gap under tol and the gaps of the
    last three resolved records strictly shrinking.  Needs at least three
    resolved records to judge a trend.
    """
    resolved = [r for r in records if r.resolved]
    if len(resolved) < 3:
        raise ValueError("need at least 3 resolved records to judge the limit")
    grid = next((r.minimizer.grid for r in resolved if r.minimizer is not None),
                None)
    floor = ess_inf(V, grid)
    gaps = [abs(r.energy - floor) for r in resolved[-3:]]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[-1] < tol
    return gaps[-1], bool(ok)


def gn_sequence_check(records, gn: GNResult) -> list:
    """a* times the critical-power mass of each resolved rescaled profile.

    For a sequence collapsing onto the reference profile these approach 1 from
    below (up to quadrature error); how fast is the caller's business.
    """
    rs = [r for r in records if r.resolved and r.rescaled is not None]
    if not rs:
        raise ValueError("no resolved records with stored rescaled profiles")
    return [float(gn.a_star * lq_integral(r.rescaled)) for r in rs]


def sweep_plot_columns(records, a_star: float, floor: float) -> dict:
    """Plot-ready (1 - a/a*, y) pairs for the three diagnostic trails.

    Keys: "eps", "energy_gap", "h2_dist".  Only resolved records contribute --
    the unresolved tail would plot the grid, not the problem.
    """
    rs = [r for r in records if r.resolved]
    xs = [1.0 - r.a / a_star for r in rs]
    return {
        "eps": list(zip(xs, (r.eps for r in rs))),
        "energy_gap": list(zip(xs, (r.energy - floor for r in rs))),
        "h2_dist": list(zip(xs, (r.h2_dist_to_Q for r in rs))),
    }


def save_sweep(records, run_dir) -> Path:
    """Write sweep.csv plus per-record snapshots of u and w under run_dir.

    Returns the path of the CSV.  Snapshot files are numbered in schedule
    order (u_000.bhf, w_000.bhf, ...); records without stored fields are
    skipped in the snapshot pass but still appear in the CSV.
    """
    run = Path(run_dir)
    run.mkdir(parents=True, exist_ok=True)
    path = run / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                repr(rec.a), repr(rec.energy), repr(rec.kinetic),
                repr(rec.eps), ";".join(repr(c) for c in rec.center),
                repr(rec.h2_dist_to_Q), rec.status, rec.resolved,
                rec.iterations, rec.trials, rec.backtracks, rec.cg_restarts,
                rec.fft_calls,
            ])
    for i, rec in enumerate(records):
        if rec.minimizer is not None:
            write_snapshot(rec.minimizer, run / f"u_{i:03d}.bhf")
        if rec.rescaled is not None:
            write_snapshot(rec.rescaled, run / f"w_{i:03d}.bhf")
    return path


def load_sweep(path) -> list:
    """Read a sweep.csv written by save_sweep back into records, without
    their fields; a ValueError names the columns the file lacks."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _CSV_COLUMNS
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the columns {missing}")
        return [SweepRecord(
            a=float(row["a"]),
            energy=float(row["energy"]),
            kinetic=float(row["kinetic"]),
            eps=float(row["eps"]),
            center=tuple(float(c) for c in row["center"].split(";")),
            h2_dist_to_Q=float(row["h2_dist_to_Q"]),
            status=row["status"],
            resolved=row["resolved"] == "True",
            iterations=int(row["iterations"]),
            trials=int(row["trials"]),
            backtracks=int(row["backtracks"]),
            cg_restarts=int(row["cg_restarts"]),
            fft_calls=int(row["fft_calls"]),
        ) for row in reader]
