"""Sharp interpolation constant and its optimizer by a Petviashvili fixed point.

The optimizer Q of the quotient J(u) = (int|Lap u|^2)(int|u|^2)^{(q-2)/2} /
int|u|^q solves Lap^2 Q + c1 Q = c2 Q^{q-1} with positive constants.  With
c1 = (q-2)/2 held fixed (4 in 1D, 2 in 2D) the Pohozaev identity forces
int|Lap Q|^2 = int|Q|^2, the unit gauge (on the grid, to discretization
error).  On resolved grids the iteration below therefore produces the
profile normalized up to its amplitude, and the dilation compute_gn applies
after it moves Q only at roundoff; on a coarse grid or at a loose tolerance
it does not (on 64^2/12 at tol_grad 1e-4, |Lap Q|^2 is 1.2e-7 off, outside
the 1e-8 that `biharm check` holds it to), so that step stays.  The plain map
converges linearly, its residual falling by a factor of about 0.15 per step;
Anderson mixing of depth one (Walker & Ni, SIAM J. Numer. Anal. 49, 2011)
brings that factor to about 0.01 near the solution, so the default tolerance
is reached in 7-9 iterations in 1D, and on 2D grids from 128^2 on a
half-width of 16, where the plain map settled at roundoff just above it.
The iteration converges to a stationary point of the quotient; it does not
prove a minimum.  That no sampled field beats a_star (random mixtures and
smooth fields, in `biharm check`'s gn_inequality row and in the tests) and
the Gaussian upper bound remain the certificate that it is the minimizer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .energy import critical_power, critical_shift, el_residual, gn_quotient
from .field import (Field, _nonlinear_weight, bilap_energy, density_center,
                    dilate, l2_norm_sq, lq_integral, read_snapshot,
                    renormalize_mass, write_snapshot)
from .grid import Grid, make_grid
from .groundstate import InitSpec, SolveConfig, initial_field
from .potentials import Zero


def __getattr__(name):
    # perfbench/tracer.py wraps gn.optimize.minimize; this lazy bridge keeps
    # scipy off the import path and goes when that wrapper goes
    if name == "optimize":
        import scipy.optimize
        return scipy.optimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# |M - 1| at or below this is roundoff: the iterate no longer moves
_M_ROUNDOFF = 1e-13
# iterations |M - 1| must sit at roundoff before an unconverged run stops
_SETTLED = 3


@dataclass
class GNResult:
    a_star: float
    Q: Field
    nonlinear_check: float  # a_star * integral |Q|^q; 1 in the sharp normalization
    el_constants: tuple
    resolutions: tuple  # ((n, a_star_at_n), ...) coarse-to-fine cross-check
    # the n/2 run's quotient residual and whether it reached tol_grad; None
    # without that run (n < 16) and for a sidecar written before they were
    # stored
    check_residual: float | None
    check_converged: bool | None
    quotient_residual: float
    # fixed-point iterations over all runs, the n/2 check included; None for a
    # sidecar written before the count was stored
    iterations: int | None
    # the main run's quotient residual at each iterate, first to last; None
    # for a sidecar written before the path was stored
    history: tuple | None
    # compute_gn's wall time; never written to the sidecar, which a rerun
    # reproduces byte for byte, so None on a loaded result
    seconds: float | None


@dataclass
class _Run:
    u: Field  # unit mass
    residual: float  # quotient-gradient norm at u
    iterations: int
    converged: bool
    history: tuple  # the residual at each iterate, first to last


def _petviashvili(g: Grid, u0: Field, cfg: SolveConfig) -> _Run:
    """Iterate u^ <- M^gamma N^(u) / L to the unit-gauge optimizer.

    L = c1 + |k|^4 with c1 = (q-2)/2, N(u) = u^{q-1}, gamma = (q-1)/(q-2) and
    M = <L u^, u^> / <N^(u), u^>, which is 1 exactly at a solution of
    L u = N(u); the factor M^gamma removes the amplitude instability of the
    plain iteration (Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42,
    2004).  c1 stays fixed because it is what pins the dilation gauge:
    recomputed from the iterate, it leaves the dilation direction without a
    restoring force and the scale drifts (at n = 16, into a spike).

    The update is Anderson-mixed with depth one: with T_k the map's image of
    the k-th iterate and f_k = T_k - u^_k, the next iterate is
    T_k - theta (T_k - T_{k-1}), theta = <f_k - f_{k-1}, f_k> / |f_k -
    f_{k-1}|^2 in the L2 inner product of the half spectra, the coefficient
    that minimizes the mixed residual |f_k - theta (f_k - f_{k-1})|.  The
    first step, and a step whose residuals do not differ, take T_k itself.

    Converged once the quotient-gradient norm of the mass-normalized iterate
    is at most cfg.tol_grad; the run keeps that norm at every iterate as its
    history, at no extra cost.  The run stops unconverged after cfg.max_iters
    updates, or once |M - 1| has sat at roundoff for a few iterations: the
    iterate then no longer moves, and the residual left over is the grid's
    departure from the continuum Pohozaev balance, which no further iteration
    removes.  Raises ValueError if the iterate collapses to zero.
    """
    q = critical_power(g.d)
    c1 = critical_shift(g.d)
    gamma = (q - 1.0) / (q - 2.0)
    symbol = c1 + g.k_quad
    u = u0.values
    u_hat = g.forward(u)
    settled = 0
    it = 0
    history = []
    t_prev = f_prev = None
    while True:
        nl = u * u
        _nonlinear_weight(nl, out=nl)
        nl *= u  # u^(q-1)
        nl_hat = g.forward(nl)
        mass = g.parseval(u_hat, u_hat)
        kin = g.parseval(u_hat, g.k_quad * u_hat)
        non = g.dx**g.d * float((u * nl).sum())
        if not (mass > 0.0 and non > 0.0 and np.isfinite(mass + kin + non)):
            raise ValueError("fixed-point iterate collapsed")
        # the quotient and its gradient at v = u / sqrt(mass), in spectral space
        kin_v = kin / mass
        non_v = non / mass ** (0.5 * q)
        v_hat = u_hat / np.sqrt(mass)
        grad = ((2.0 / non_v) * (g.k_quad * v_hat)
                + ((q - 2.0) * kin_v / non_v) * v_hat
                - (q * kin_v / non_v**2 / mass ** (0.5 * (q - 1))) * nl_hat)
        residual = float(np.sqrt(g.parseval(grad, grad)))
        history.append(residual)
        converged = residual <= cfg.tol_grad
        if converged or it == cfg.max_iters or settled >= _SETTLED:
            break
        M = (c1 * mass + kin) / non
        settled = settled + 1 if abs(M - 1.0) <= _M_ROUNDOFF else 0
        t_hat = M**gamma * nl_hat / symbol
        f_hat = t_hat - u_hat
        u_hat = t_hat
        if f_prev is not None:
            df = f_hat - f_prev
            df_sq = g.parseval(df, df)
            if df_sq > 0.0:
                theta = g.parseval(df, f_hat) / df_sq
                u_hat = t_hat - theta * (t_hat - t_prev)
        t_prev, f_prev = t_hat, f_hat
        u = g.inverse(u_hat)
        it += 1
    return _Run(Field(g, u / np.sqrt(mass)), residual, it, converged,
                tuple(history))


def _finalize(u: Field) -> Field:
    if u.values.flat[int(np.argmax(np.abs(u.values)))] < 0:
        u = -u
    return normalize_gn(u)


def compute_gn(g: Grid, cfg: SolveConfig | None = None) -> GNResult:
    """Find the quotient's optimizer by the Petviashvili fixed point.

    Runs the fixed point (see _petviashvili) once, from the unit-mass
    Gaussian of width 1 centered at the origin (the default start of a
    solve at zero potential); every start width tried
    converges to the same constant, so one start suffices, and the centered
    start is exactly even, so the result needs no symmetrizing.  cfg is only
    the stop rule.  The profile is then normalized to unit
    mass and unit fourth-order seminorm; the iteration works in that gauge,
    so on resolved grids only the amplitude changes.  The constant is the quotient of the
    stored profile, so the sharp-normalization identity
    a_star * lq_integral(Q) = 1 closes by construction.  A fixed point is
    stationary, not a proven minimum: that no other localized state beats it
    is what `biharm check`'s gn_inequality row, the test batteries and the
    Gaussian upper bound check.  The
    fixed point then runs again on the n/2 grid from the subsampled profile,
    for the resolutions cross-check; that run may stop unconverged, at the
    coarser grid's floor, and its residual and convergence are carried as
    check_residual and check_converged.  The result carries the first run's
    residual path (history) and the wall time of the whole call (seconds).
    Raises RuntimeError naming tol_grad when the first run does not
    converge.
    """
    t0 = time.perf_counter()
    if cfg is None:
        cfg = SolveConfig(tol_grad=3e-7, max_iters=8000)
    start = renormalize_mass(initial_field(g, Zero(), InitSpec()))
    try:
        best = _petviashvili(g, start, cfg)
    except ValueError as exc:
        raise RuntimeError(
            f"the fixed point collapsed to zero; tol_grad {cfg.tol_grad:.3e} "
            "was not reached") from exc
    iterations = best.iterations
    if not best.converged:
        raise RuntimeError(
            f"the fixed point did not converge; quotient residual "
            f"{best.residual:.3e} above tol_grad {cfg.tol_grad:.3e}")

    Q = _finalize(best.u)
    a_star = gn_quotient(Q)
    c1, c2, _fit = el_residual(Q)

    resolutions = []
    check_residual = check_converged = None
    if g.n >= 16:
        g2 = make_grid(g.d, g.n // 2, g.half_width)
        sub = Q.values[::2] if g.d == 1 else Q.values[::2, ::2]
        run2 = _petviashvili(g2, Field(g2, sub.copy()), cfg)
        iterations += run2.iterations
        resolutions.append((g2.n, gn_quotient(run2.u)))
        check_residual, check_converged = run2.residual, run2.converged
    resolutions.append((g.n, a_star))

    return GNResult(a_star=a_star, Q=Q,
                    nonlinear_check=a_star * lq_integral(Q),
                    el_constants=(c1, c2), resolutions=tuple(resolutions),
                    check_residual=check_residual,
                    check_converged=check_converged,
                    quotient_residual=best.residual, iterations=iterations,
                    history=best.history,
                    seconds=time.perf_counter() - t0)


def normalize_gn(u: Field) -> Field:
    """Dilate about the density center onto the origin: mass and |Lap u|^2
    both 1."""
    kin = bilap_energy(u)
    mass = l2_norm_sq(u)
    if mass <= 0.0:
        raise ValueError("cannot normalize the zero field")
    if kin <= 0.0:
        raise ValueError("constant fields cannot be normalized")
    ell = (mass / kin) ** 0.25
    # below ~1e-9 the dilation would move nothing but roundoff, and the two
    # seminorms already match well inside the 1e-8 normalization contract
    return renormalize_mass(
        dilate(u, 1.0 if abs(ell - 1.0) < 1e-9 else ell,
               center=density_center(u)))


def normalize_to_el(u: Field) -> Field:
    """Dilate and rescale onto the unit Euler-Lagrange normalization.

    If u solves the fourth-order equation with fitted constants (c1, c2), the
    mapped field v(x) = mu * u(x / lambda), lambda = c1^{1/4},
    mu = (c2/c1)^{1/(q-2)}, solves it with constants (1, 1).
    """
    q = critical_power(u.grid.d)
    c1, c2, _ = el_residual(u)
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError(
            f"fitted constants ({c1:.3g}, {c2:.3g}) are not both positive; "
            "not an expected-sign stationary state")
    lam = c1**0.25
    mu = (c2 / c1) ** (1.0 / (q - 2.0))
    v = dilate(u, 1.0 / lam)  # v0(x) = lam^{-d/2} u(x/lam)
    return v * float(mu * lam ** (u.grid.d / 2.0))


def save_gn(result: GNResult, path) -> None:
    """Persist the profile as a snapshot plus a JSON sidecar, at path with
    its suffix replaced by .bhf and by .json."""
    base = Path(path)
    write_snapshot(result.Q, base.with_suffix(".bhf"))
    g = result.Q.grid
    sidecar = {
        "a_star": result.a_star,
        "d": g.d,
        "n": g.n,
        "half_width": g.half_width,
        "el_constants": list(result.el_constants),
        "residuals": {
            "quotient_grad": result.quotient_residual,
            "nonlinear_check": result.nonlinear_check,
        },
        "resolutions": [list(pair) for pair in result.resolutions],
        "half_grid_check": (None if result.check_residual is None else {
            "quotient_grad": result.check_residual,
            "converged": result.check_converged}),
        "iterations": result.iterations,
        "history": (None if result.history is None
                    else list(result.history)),
    }
    base.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_gn(path) -> GNResult:
    """Read the artifact save_gn wrote at path.  A sidecar that is not a
    JSON object, or lacks a key save_gn writes, or holds a value of the
    wrong type, raises ValueError, as a malformed snapshot does."""
    base = Path(path)
    sidecar = json.loads(base.with_suffix(".json").read_text())
    Q = read_snapshot(base.with_suffix(".bhf"))
    try:
        return _gn_from_sidecar(sidecar, Q)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed sidecar {base.with_suffix('.json')}: "
                         f"{exc!r}") from exc


def _number(val, what: str) -> float:
    # bool is an int subclass, and JSON's true is no number
    if type(val) not in (int, float):
        raise ValueError(f"{what} must be a number, got {val!r}")
    return float(val)


def _resolution(pair, what: str) -> tuple:
    if not (isinstance(pair, list) and len(pair) == 2
            and type(pair[0]) is int):
        raise ValueError(f"{what} must hold [n, a_star] pairs, got {pair!r}")
    return pair[0], _number(pair[1], what)


def _list(val, what: str, item=_number) -> tuple:
    """The JSON list val as a tuple, each element read by item."""
    if not isinstance(val, list):
        raise ValueError(f"{what} must be a list, got {val!r}")
    return tuple(item(v, what) for v in val)


def _gn_from_sidecar(sidecar: dict, Q) -> GNResult:
    g = Q.grid
    if (sidecar["d"], sidecar["n"]) != (g.d, g.n) or \
            abs(sidecar["half_width"] - g.half_width) > 1e-12:
        raise ValueError("sidecar geometry disagrees with the stored snapshot")
    a_star = sidecar["a_star"]
    if type(a_star) not in (int, float) or not 0.0 < a_star < np.inf:
        raise ValueError(f"a_star must be a finite positive number, "
                         f"got {a_star!r}")
    a_star = float(a_star)
    # iterations, history and half_grid_check are absent from sidecars
    # written before they were stored, and a null half_grid_check is a run
    # without the n/2 check
    iterations = sidecar.get("iterations")
    if iterations is not None and type(iterations) is not int:
        raise ValueError(f"iterations must be an integer, got {iterations!r}")
    history = sidecar.get("history")
    check = sidecar.get("half_grid_check")
    check_residual = check_converged = None
    if check is not None:
        check_residual = _number(check["quotient_grad"],
                                 "half_grid_check.quotient_grad")
        check_converged = check["converged"]
        if type(check_converged) is not bool:
            raise ValueError(f"half_grid_check.converged must be true or "
                             f"false, got {check_converged!r}")
    return GNResult(a_star=a_star, Q=Q,
                    nonlinear_check=a_star * lq_integral(Q),
                    el_constants=_list(sidecar["el_constants"],
                                       "el_constants"),
                    resolutions=_list(sidecar["resolutions"], "resolutions",
                                      _resolution),
                    check_residual=check_residual,
                    check_converged=check_converged,
                    quotient_residual=_number(
                        sidecar["residuals"]["quotient_grad"],
                        "residuals.quotient_grad"),
                    iterations=iterations,
                    history=(None if history is None
                             else _list(history, "history")),
                    seconds=None)
