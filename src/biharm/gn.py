"""Sharp interpolation constant and its optimizer by a Petviashvili fixed point.

The optimizer Q of the quotient J(u) = (int|Lap u|^2)(int|u|^2)^{(q-2)/2} /
int|u|^q solves Lap^2 Q + c1 Q = c2 Q^{q-1} with positive constants.  With
c1 = (q-2)/2 held fixed (4 in 1D, 2 in 2D) the Pohozaev identity forces
int|Lap Q|^2 = int|Q|^2, the unit gauge (on the grid, to discretization
error).  On resolved grids the iteration below therefore produces the
profile normalized up to its amplitude, and the dilation compute_gn applies
after it moves Q only at roundoff; on a coarse grid or at a loose tolerance
it does not (on 64^2/12 at tol_grad 1e-4, |Lap Q|^2 is 1.4e-7 off, outside
the 1e-8 that `biharm check` holds it to), so that step stays.  The start is
a Gaussian already in that gauge.  The plain map converges linearly, its
residual falling by a factor of about 0.15 per step; Anderson mixing of
depth one (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) brings that factor to
about 0.01 near the solution, so from that start the default tolerance is
reached in 6 iterations on 1D grids of half-width 16 (7-9 from other start
widths), and in 8 on 2D grids from 128^2 on a half-width of 16, where the
plain map settled at roundoff just above it.
The iteration converges to a stationary point of the quotient; it does not
prove a minimum.  That no sampled field beats a_star (random mixtures and
smooth fields, in `biharm check`'s gn_inequality row and in the tests) and
the Gaussian upper bound remain the certificate that it is the minimizer.

Whether Q is resolved on its grid is read from Q's own spectrum
(field.spectral_tail, the largest coefficient in the top quarter of the band
relative to the largest).  On every grid measured, 1D 256 and 512 and 2D 64^2
and 128^2 on half-widths 12 to 24, the relative change of a_star when n
doubles was below the tail at n, or both sat at roundoff (1D 512/16: change
5.6e-16, tail 1.3e-16).  The tail measures the grid's error, not the box's: a
profile cut off by the periodic boundary can still have a small tail.
Convergence as n grows is checked by solving two grids (criterion 05 of the
acceptance tests).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._readers import (_as_float, _as_floats, _as_int, _block,
                       _is_finite_number)
from .energy import critical_power, critical_shift, el_residual, gn_quotient
from .field import (Field, _nonlinear_weight, bilap_energy, density_center,
                    dilate, l2_norm_sq, lq_integral, read_snapshot,
                    renormalize_mass, write_snapshot)
from .grid import Grid
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
    # a_star * integral |Q|^q, 1 in the sharp normalization; on a loaded
    # result the sidecar's value, which `biharm check` holds against Q
    nonlinear_check: float
    el_constants: tuple
    quotient_residual: float
    # fixed-point iterations; None for a sidecar written before the count was
    # stored
    iterations: int | None
    # the run's quotient residual at each iterate, first to last; None for a
    # sidecar written before the path was stored
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

    The loop writes into arrays allocated once per call, and each term of
    the gradient and of the update takes its scalar factors in one multiply.
    """
    q = critical_power(g.d)
    c1 = critical_shift(g.d)
    gamma = (q - 1.0) / (q - 2.0)
    k_quad = g.k_quad_complex
    # 1 / L as complex, so that the update's product runs numpy's complex
    # loop without casting a real table in every iteration
    inv_symbol = (1.0 / (c1 + g.k_quad)).astype(np.complex128)
    u = u0.values.copy()
    nl = np.empty(g.shape)
    # the spectra of u, u^(q-1) and |k|^4 u, the gradient, the map's image T
    # and residual f at this and at the last iterate, and f's difference,
    # which until then serves as scratch
    u_hat, nl_hat, ku_hat, grad, t_hat, f_hat, t_prev, f_prev, df = (
        np.empty(g.k_quad.shape, dtype=np.complex128) for _ in range(9))
    g.forward(u, out=u_hat)
    settled = 0
    it = 0
    history = []
    have_prev = False  # whether t_prev and f_prev hold the last iterate's
    while True:
        np.multiply(u, u, out=nl)
        _nonlinear_weight(nl, out=nl)
        nl *= u  # u^(q-1)
        g.forward(nl, out=nl_hat)
        np.multiply(k_quad, u_hat, out=ku_hat)
        mass = g.parseval(u_hat, u_hat)
        kin = g.parseval(u_hat, ku_hat)
        non = g.cell * float(np.vdot(u, nl))
        if not (mass > 0.0 and non > 0.0 and math.isfinite(mass + kin + non)):
            raise ValueError("fixed-point iterate collapsed")
        # the quotient's gradient at v = u / sqrt(mass), in spectral space,
        # (2 |k|^4 v^ + (q-2) kin_v v^) / non_v - q kin_v N^(v) / non_v^2
        # with kin_v = kin / mass and non_v = non / mass^(q/2); in u's
        # spectra each term carries scale = mass^((q-1)/2) / non
        scale = mass ** (0.5 * (q - 1)) / non
        np.multiply(ku_hat, 2.0 * scale, out=grad)
        grad += np.multiply(u_hat, (q - 2.0) * kin / mass * scale, out=df)
        grad -= np.multiply(nl_hat, q * kin / non * scale, out=df)
        residual = math.sqrt(g.parseval(grad, grad))
        history.append(residual)
        converged = residual <= cfg.tol_grad
        if converged or it == cfg.max_iters or settled >= _SETTLED:
            break
        M = (c1 * mass + kin) / non
        settled = settled + 1 if abs(M - 1.0) <= _M_ROUNDOFF else 0
        np.multiply(nl_hat, inv_symbol, out=t_hat)
        t_hat *= M**gamma
        np.subtract(t_hat, u_hat, out=f_hat)
        np.copyto(u_hat, t_hat)
        if have_prev:
            np.subtract(f_hat, f_prev, out=df)
            df_sq = g.parseval(df, df)
            if df_sq > 0.0:
                theta = g.parseval(df, f_hat) / df_sq
                np.subtract(t_hat, t_prev, out=df)
                df *= theta
                u_hat -= df
        have_prev = True
        t_hat, t_prev = t_prev, t_hat
        f_hat, f_prev = f_prev, f_hat
        g.inverse(u_hat, out=u)
        it += 1
    u /= math.sqrt(mass)
    return _Run(Field(g, u), residual, it, converged, tuple(history))


def _start(g: Grid) -> Field:
    """compute_gn's start: the unit-mass Gaussian e^{-|x|^2/2w^2} centred
    at the origin, of the width w = (d(d+2)/4)^{1/4} (0.931 in 1D, 1.189 in
    2D) at which int|Lap G|^2 = int G^2, the gauge the iteration converges
    to."""
    width = (g.d * (g.d + 2) / 4.0) ** 0.25
    return renormalize_mass(initial_field(g, Zero(), InitSpec(width=width)))


def _finalize(u: Field) -> Field:
    if u.values.flat[int(np.argmax(np.abs(u.values)))] < 0:
        u = -u
    return normalize_gn(u)


def compute_gn(g: Grid, cfg: SolveConfig | None = None) -> GNResult:
    """Find the quotient's optimizer by the Petviashvili fixed point.

    Runs the fixed point (see _petviashvili) once, from the unit-mass
    Gaussian centered at the origin whose width puts it in the unit gauge
    (_start; 6 iterations on the README grid, against 7 from width 1);
    every start width tried converges to the same constant, so one start
    suffices, and the centered start is exactly even, so the result needs
    no symmetrizing and normalize_gn no re-centring.  cfg is only the stop
    rule.  The profile is then normalized to unit mass and unit fourth-order
    seminorm; the iteration works in that gauge, so on resolved grids only
    the amplitude changes.  The constant is the quotient of the stored
    profile, so the sharp-normalization identity a_star * lq_integral(Q) = 1
    closes by construction.  A fixed point is stationary, not a proven
    minimum: that no other localized state beats it is what `biharm check`'s
    gn_inequality row, the test batteries and the Gaussian upper bound
    check.  Whether Q is resolved is read from spectral_tail(Q) (see the
    module docstring), which costs no transform: the quotient has cached
    Q's spectrum.  The result carries the run's iteration count, its
    residual path (history) and the wall time of the call (seconds).
    Raises RuntimeError naming tol_grad when the run does not converge.
    """
    t0 = time.perf_counter()
    if cfg is None:
        cfg = SolveConfig(tol_grad=3e-7, max_iters=8000)
    try:
        run = _petviashvili(g, _start(g), cfg)
    except ValueError as exc:
        raise RuntimeError(
            f"the fixed point collapsed to zero; tol_grad {cfg.tol_grad:.3e} "
            "was not reached") from exc
    if not run.converged:
        raise RuntimeError(
            f"the fixed point did not converge; quotient residual "
            f"{run.residual:.3e} above tol_grad {cfg.tol_grad:.3e}")

    Q = _finalize(run.u)
    a_star = gn_quotient(Q)
    c1, c2, _fit = el_residual(Q)
    return GNResult(a_star=a_star, Q=Q,
                    nonlinear_check=a_star * lq_integral(Q),
                    el_constants=(c1, c2), quotient_residual=run.residual,
                    iterations=run.iterations, history=run.history,
                    seconds=time.perf_counter() - t0)


def normalize_gn(u: Field) -> Field:
    """Dilate about the density center onto the origin: mass and |Lap u|^2
    both 1.  An even field's center is exactly the origin (density_center),
    so a centered field is not moved."""
    kin = bilap_energy(u)
    mass = l2_norm_sq(u)
    if mass <= 0.0:
        raise ValueError("cannot normalize the zero field")
    if kin <= 0.0:
        raise ValueError("constant fields cannot be normalized")
    ell = (mass / kin) ** 0.25
    center = density_center(u)
    # below ~1e-9 the dilation would move nothing but roundoff, and the two
    # seminorms already match well inside the 1e-8 normalization contract;
    # a centered u is then already in place and only its mass is rescaled
    if abs(ell - 1.0) < 1e-9:
        ell = 1.0
    return renormalize_mass(dilate(u, ell, center=center))


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
        "iterations": result.iterations,
        "history": (None if result.history is None
                    else list(result.history)),
    }
    base.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_gn(path) -> GNResult:
    """Read the artifact save_gn wrote at path.  A sidecar that is not a
    JSON object of the keys save_gn writes, or holds a value the config's
    readers reject (NaN, say), raises ValueError naming it, as a malformed
    snapshot does."""
    path = Path(path).with_suffix(".json")
    sidecar = json.loads(path.read_text())
    Q = read_snapshot(path.with_suffix(".bhf"))
    try:
        return _gn_from_sidecar(sidecar, Q)
    except ValueError as exc:
        raise ValueError(f"malformed sidecar {path}: {exc}") from exc


def _gn_from_sidecar(sidecar, Q) -> GNResult:
    # resolutions and half_grid_check held an n/2 re-run of the fixed point
    # that compute_gn no longer makes; every sidecar written before, the
    # stored benchmark artifact among them, carries them, so they are
    # accepted unread until the other allowances for old sidecars go too
    sidecar = _block({"sidecar": sidecar}, "sidecar", {
        "a_star", "d", "n", "half_width", "el_constants", "residuals",
        "resolutions", "half_grid_check", "iterations", "history"})
    g = Q.grid
    if (_as_int(sidecar, "d", json_int=True),
            _as_int(sidecar, "n", json_int=True)) != (g.d, g.n) or \
            abs(_as_float(sidecar, "half_width") - g.half_width) > 1e-12:
        raise ValueError("sidecar geometry disagrees with the stored snapshot")
    a_star = sidecar.get("a_star")
    if not (_is_finite_number(a_star) and a_star > 0.0):
        raise ValueError(f"a_star must be a finite positive number, "
                         f"got {a_star!r}")
    el_constants = _as_floats(sidecar, "el_constants")
    if len(el_constants) != 2:
        raise ValueError(f"el_constants must be two numbers, got "
                         f"{list(el_constants)!r}")
    residuals = _block(sidecar, "residuals", {"quotient_grad",
                                              "nonlinear_check"})
    # iterations and history are absent from sidecars written before they
    # were stored
    return GNResult(a_star=float(a_star), Q=Q,
                    nonlinear_check=_as_float(residuals, "nonlinear_check"),
                    el_constants=el_constants,
                    quotient_residual=_as_float(residuals, "quotient_grad"),
                    iterations=(None if sidecar.get("iterations") is None
                                else _as_int(sidecar, "iterations", minimum=0,
                                             json_int=True)),
                    history=(None if sidecar.get("history") is None
                             else _as_floats(sidecar, "history")),
                    seconds=None)
