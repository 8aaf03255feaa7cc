"""Concentration sweep toward the critical coupling, with profile diagnostics.

As the coupling climbs toward the critical value the minimizer collapses onto
the potential well at a shrinking length scale eps = (bilaplacian energy)^(-1/4).
Undoing that scale -- one dilate by eps about the density center onto the
origin, renormalized -- should reproduce the optimizer of the interpolation
inequality, and the records collected here measure exactly how well it does:
energies against the essential infimum of the potential, nonlinear mass
against its critical value, and H2 distance of the rescaled profile to the
reference state.  No field is translated: the best-shift search runs
Newton's method on that distance over translations, as a Parseval sum on the
two spectra.
"""

from __future__ import annotations

import csv
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from .field import (MASS_DRIFT_TOL, Field, _shift_phases, density_center,
                    dilate, h2_norm_sq, l2_norm_sq, lq_integral,
                    write_snapshot)
from .gn import GNResult
from .grid import Grid
from .groundstate import (SOLVE_COUNTERS, SolveConfig, SolveStatus,
                          _spd_solve, solve)
from .potentials import potential_argmin

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
    h2_dist_to_Q is the H2 distance of the rescaled profile to the
    reference, minimized over sub-grid translations: on a symmetric well
    the distance at the density center, where the profile sits, to
    roundoff; on an asymmetric potential less, by 1.9-17% for a second well
    beside the first on 1D 512/16 (README gives the cases).  resolved means
    the grid resolves the concentration scale: it still spans several grid
    nodes (eps > 4 dx), and the box holds it, the rescaling by eps having
    kept the unit mass to MASS_DRIFT_TOL.  Records with resolved=False are
    kept -- their scalars are reported, but nothing quantitative should be
    trusted at a scale the grid no longer separates or the box cannot hold.
    iterations through coarse_fallbacks are the solver's counters for this
    coupling, named and ordered as SOLVE_COUNTERS (None on a record built by
    hand), and seconds is the solve's wall time (None on a record built by
    hand or read back from CSV).  seconds, the minimizer and its rescaled
    profile are not part of the CSV serialization: the minimizer and profile
    ride along for snapshotting and the sequence checks, and a wall time
    would break the byte-for-byte reproducibility of sweep.csv.
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
    backtracks: int | None = None
    trials: int | None = None
    cg_restarts: int | None = None
    fft_calls: int | None = None
    coarse_fallbacks: int | None = None
    seconds: float | None = None
    minimizer: Field | None = None
    rescaled: Field | None = None


def _finite(text: str) -> float:
    if not math.isfinite(val := float(text)):
        raise ValueError(f"{text} is not finite")
    return val


def _counter(text: str) -> int | None:
    """A counter cell as save_sweep writes it: empty, or the digits of a
    nonnegative int, with no sign, space, underscore or non-ASCII digit."""
    if not text:
        return None
    if (val := int(text)) < 0 or str(val) != text:
        raise ValueError(f"{text!r} is not a counter")
    return val


# sweep.csv's columns in order, each read only as save_sweep writes it
_CSV_READERS = {
    "a": _finite, "energy": _finite, "kinetic": _finite, "eps": _finite,
    "center": lambda text: tuple(map(_finite, text.split(";"))),
    "h2_dist_to_Q": _finite,
    "status": lambda text: SolveStatus(text).value,
    "resolved": {"True": True, "False": False}.__getitem__,
    **dict.fromkeys(SOLVE_COUNTERS, _counter),
}
_CSV_COLUMNS = tuple(_CSV_READERS)
_NEWTON_MAX_STEPS = 20


def _h2_after_best_shift(w: Field, ref: Field) -> float:
    """H2 distance minimized over sub-grid translations of w.

    D(s) = ||translate(w, s) - ref||^2_H2 is the Parseval sum of
    diff = w^ P(s) - ref^ against W diff, W = 1 + |k|^4 and P(s) the
    product of the axes' phases of _shift_phases.  Newton's method runs on D
    itself from s = 0, both fields arriving centered: half of D's gradient
    is parseval(W diff, w^ P_i) and half its Hessian
    parseval(W w^ P_i, w^ P_j) + parseval(W diff, w^ P_ij), with P's
    derivatives from Grid.ik and, at a Nyquist mode, from cos(k_max s).
    Steps are clipped to half a node per axis, the d x d system is solved by
    the solver's _spd_solve, and a Hessian that is not positive definite
    ends the search.  The search runs one forward transform in all, that of
    w - ref, whose sum with ref^ is w^.  The distance at the optimum is
    reported only if it beats the distance at s = 0.
    """
    g = w.grid
    h, k_max, d = g.n // 2, g.k_max, g.d
    weight = 1.0 + g.k_quad_complex
    gap = w - ref
    at_zero = math.sqrt(h2_norm_sq(gap))
    w_hat = gap.hat + ref.hat
    # the symbols of d/ds and d^2/ds^2 on exp(-i k s)
    symbols = [(-ik, ik * ik) for ik in g.ik]
    shift = [0.0] * d
    for _ in range(_NEWTON_MAX_STEPS):
        # per axis: the phase and its two derivatives in s, those of
        # cos(k_max s) at the Nyquist mode; w^ rides on axis 0's
        jets = []
        for ax, (s, (d1, d2)) in enumerate(zip(shift, symbols)):
            p = _shift_phases(g, ax, s)
            first, second = d1 * p, d2 * p
            first[h] = -k_max * math.sin(k_max * s)
            second[h] = -k_max * k_max * math.cos(k_max * s)
            jets.append((p, first, second) if ax else
                        (w_hat * p, w_hat * first, w_hat * second))

        def moved(*axs):
            """w^ P differentiated once along each axis in axs."""
            out = jets[0][axs.count(0)]
            return out * jets[1][axs.count(1)] if d > 1 else out

        diff = moved() - ref.hat
        w_diff = weight * diff
        firsts = [moved(i) for i in range(d)]
        grad = [g.parseval(w_diff, f) for f in firsts]
        hess = [[0.0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                hess[i][j] = hess[j][i] = (
                    g.parseval(weight * firsts[i], firsts[j])
                    + g.parseval(w_diff, moved(i, j)))
        solved = _spd_solve(hess, grad)
        if solved is None:
            break
        # the Newton step is -hess^-1 grad
        step = [min(max(-st, -0.5 * g.dx), 0.5 * g.dx) for st in solved[0]]
        shift = [s + st for s, st in zip(shift, step)]
        if max(abs(st) for st in step) < 1e-12 * g.dx:
            break
    if not any(shift):
        # no step taken: at s = 0 the sum below would only round at_zero
        # differently, by an ulp either way
        return at_zero
    phase = _shift_phases(g, 0, shift[0])
    if d > 1:
        phase = phase * _shift_phases(g, 1, shift[1])
    diff = w_hat * phase - ref.hat
    return min(at_zero, math.sqrt(g.parseval(diff, weight * diff)))


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

    Every start is one dilate of a placement (source, ratio, center,
    target).  Until a solve has ended without diverging, the source is the
    reference profile, compressed to the scale the coupling gap suggests
    (ratio ell = (1 - a/a*)^(-1/6)) about the origin onto the potential
    minimum.  After that it is the last minimizer that did not diverge,
    about its own density center, which stays put: by ratio 1, which
    returns it as it stands, or, when it is the newer of the two latest
    resolved converged records, by the secant ratio eps_older / eps_newer
    of the two (a guess that the scale shrinks by the same factor again).
    cfg is only the stop rule.  A record is appended for every coupling
    whatever the solver status -- a failure is data -- but a diverged state
    is not propagated as the next start.
    """
    sched = _validate_schedule(schedule, gn.a_star)
    if gn.Q.grid != g:
        raise ValueError("reference profile lives on an incompatible grid")

    records: list = []
    placement = None  # of the last minimizer that did not diverge
    prev_eps = None
    for a in sched:
        source, ratio, pivot, target = placement or (
            gn.Q, (1.0 - a / gn.a_star) ** (-1.0 / 6.0), 0.0,
            potential_argmin(V, g))
        start = dilate(source, ratio, center=pivot, to=target)
        t0 = time.perf_counter()
        result = solve(g, V, a, cfg, start=start)
        seconds = time.perf_counter() - t0
        u = result.minimizer
        kin = result.breakdown.kinetic
        eps = float(kin) ** -0.25
        center = density_center(u)
        # the minimizer has unit mass, so the dilation by eps about its
        # center brings its bilaplacian energy to 1; it keeps that mass
        # only if the box holds the scale eps, and is renormalized by it
        v = dilate(u, eps, center=center)
        mass = l2_norm_sq(v)
        resolved = bool(eps > 4.0 * g.dx
                        and abs(mass - 1.0) <= MASS_DRIFT_TOL)
        w = v * math.sqrt(1.0 / mass)
        rec = SweepRecord(
            a=float(a),
            energy=float(result.breakdown.total),
            kinetic=float(kin),
            eps=eps,
            center=tuple(float(c) for c in center),
            h2_dist_to_Q=_h2_after_best_shift(w, gn.Q),
            status=result.status.value,
            resolved=resolved,
            **{c: getattr(result, c) for c in SOLVE_COUNTERS},
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
            ratio = prev_eps / eps if trusted and prev_eps is not None else 1.0
            placement = (u, ratio, center, center)
        if trusted:
            prev_eps = eps
    return records


def energy_limit_check(records, floor: float, tol: float = 0.05):
    """Gap of the last resolved energy to floor (ess inf V), with a verdict.

    Returns (gap, ok) where ok requires the gap under tol and the gaps of the
    last three resolved records strictly shrinking.  Needs at least three
    resolved records to judge a trend.
    """
    resolved = [r for r in records if r.resolved]
    if len(resolved) < 3:
        raise ValueError("need at least 3 resolved records to judge the limit")
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
                *(getattr(rec, c) for c in SOLVE_COUNTERS),
            ])
    for i, rec in enumerate(records):
        if rec.minimizer is not None:
            write_snapshot(rec.minimizer, run / f"u_{i:03d}.bhf")
        if rec.rescaled is not None:
            write_snapshot(rec.rescaled, run / f"w_{i:03d}.bhf")
    return path


def load_sweep(path) -> list:
    """Read a sweep.csv written by save_sweep back into records, without
    their fields; an empty counter cell reads as None.  A ValueError names
    the columns the file lacks, or the column and row (records count from
    1) of a cell save_sweep does not write, such as a non-finite number."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in _CSV_COLUMNS
                   if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks the columns {missing}")
        records = []
        for row_no, row in enumerate(reader, 1):
            values = {}
            for column, read in _CSV_READERS.items():
                try:
                    values[column] = read(row[column])
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"{path} row {row_no}: column {column!r} "
                                     f"holds {row[column]!r}") from exc
            records.append(SweepRecord(**values))
        return records
