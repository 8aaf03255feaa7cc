"""Constrained minimization on the unit-mass sphere by preconditioned nonlinear CG.

solve runs Polak-Ribiere+ conjugate gradient on the sphere of unit-mass
states, preconditioned by sigma / (sigma + |k|^4) with sigma = max(1, kinetic
energy) so the conditioning does not degrade as minimizers concentrate.  Its
Armijo line search tests energy_difference, an energy change assembled from
the step itself, whose rounding scales with the step rather than with the
energy; that keeps sufficient decrease decidable down to the gradient
tolerance, with no roundoff slack, residual gate or stall retry.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyBreakdown, chemical_potential, constrained_gradient,
                     critical_power, energy, energy_difference)
from .field import (Field, dilate, l2_norm_sq, read_snapshot, renormalize_mass,
                    translate)
from .grid import Grid
from .potentials import classify, sample

_ARMIJO = 1e-4


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    DIVERGED_BELOW_FLOOR = "DivergedBelowFloor"
    MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class InitSpec:
    """Initializer for the descent.

    kind is one of "gaussian" (unit-mass bump of the given width at the
    potential minimum; the default), "constant", "file" (load a snapshot from
    path), or "dilated_Q" (compress a reference profile by ell and park it at
    the potential minimum -- the warm start the concentration sweep uses).
    """

    kind: str = "gaussian"
    width: float = 1.0
    path: str = ""
    ell: float = 1.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "constant", "file", "dilated_Q"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.width <= 0 or self.ell <= 0:
            raise ValueError("init width and ell must be positive")
        if self.kind == "file" and not self.path:
            raise ValueError("file init needs a path")


@dataclass(frozen=True)
class SolveConfig:
    step0: float = 1.0
    shrink: float = 0.5
    grow: float = 1.3
    tol_grad: float = 1e-6
    max_iters: int = 2000
    energy_floor: float = -1e3
    init: InitSpec = InitSpec()
    precondition: bool = False

    def __post_init__(self):
        if self.step0 <= 0:
            raise ValueError("step0 must be positive")
        if not (0.0 < self.shrink < 1.0 < self.grow):
            raise ValueError("line-search factors need 0 < shrink < 1 < grow")
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.energy_floor >= 0:
            raise ValueError("energy_floor must be negative")


@dataclass
class SolveResult:
    minimizer: Field
    breakdown: EnergyBreakdown
    mu: float
    grad_residual: float
    iterations: int
    status: SolveStatus
    history: tuple  # rows (iter, energy, grad_residual, step_size)
    init_label: str
    backtracks: int  # line-search shrinks
    cg_restarts: int  # resets of the conjugate direction to -P G


def potential_argmin(V, g: Grid) -> np.ndarray:
    """Coordinates of the smallest sampled potential value (origin on ties)."""
    vals = sample(V, g).values
    if np.ptp(vals) == 0.0:
        return np.zeros(g.d)
    idx = np.unravel_index(int(np.argmin(vals)), g.shape)
    return np.array([g.axes[ax][i] for ax, i in enumerate(idx)])


def initial_field(g: Grid, V, spec: InitSpec, profile: Field | None = None) -> Field:
    """Build the unit-mass starting state described by spec."""
    if spec.kind == "gaussian":
        center = potential_argmin(V, g)
        r2 = sum((m - c) ** 2 for m, c in zip(g.meshes(), center))
        return renormalize_mass(Field(g, np.exp(-r2 / (2.0 * spec.width**2))))
    if spec.kind == "constant":
        return renormalize_mass(Field(g, np.ones(g.shape)))
    if spec.kind == "file":
        return renormalize_mass(read_snapshot(spec.path, g))
    # dilated_Q
    if profile is None:
        raise ValueError("dilated_Q initialization needs a reference profile")
    v = dilate(profile, spec.ell)
    center = potential_argmin(V, g)
    if np.any(center != 0.0):
        v = translate(v, center)
    return renormalize_mass(v)


def _precondition(g: Grid, grad: Field, kinetic: float) -> np.ndarray:
    """sigma / (sigma + |k|^4) applied to grad, with sigma = max(1, kinetic).

    The Hessian's low modes scale with the kinetic energy of the state, so a
    fixed shift would lose a factor of kinetic in conditioning as the state
    concentrates; tying sigma to it keeps the spectrum of the preconditioned
    Hessian of order sigma at every wavenumber.
    """
    sigma = max(1.0, kinetic)
    return g.inverse(sigma / (sigma + g.k_quad) * grad.hat)


def _armijo(u: Field, direction: np.ndarray, slope: float, step: float, V,
            a: float, mu: float, cfg: SolveConfig):
    """Backtrack from step until the unit-mass trial along direction passes
    Armijo on energy_difference with multiplier mu.

    Returns (trial values, step taken, shrinks); the trial is None when the
    direction does not descend or the step falls below 1e-18 * cfg.step0.
    """
    x = u.values
    w = u.grid.dx**u.grid.d
    t, shrinks = step, 0
    while slope < 0.0 and t > 1e-18 * cfg.step0:
        trial = x + t * direction
        trial *= np.sqrt(1.0 / (w * np.sum(trial * trial)))
        if energy_difference(u, trial - x, V, a, mu) <= _ARMIJO * t * slope:
            return trial, t, shrinks
        t *= cfg.shrink
        shrinks += 1
    return None, t, shrinks


def solve(g: Grid, V, a: float, cfg: SolveConfig = SolveConfig(),
          profile: Field | None = None, *, start: Field | None = None) -> SolveResult:
    """Minimize the energy at coupling a over unit-mass states on g.

    Polak-Ribiere+ nonlinear conjugate gradient on the unit-mass sphere.  The
    search direction is -P G plus beta times the previous direction, projected
    onto the tangent space at u, where G is the projected gradient and P is
    sigma / (sigma + |k|^4) with sigma = max(1, kinetic energy) when
    cfg.precondition is set (the identity otherwise).  Trial states are
    u + t d renormalized to unit mass, and Armijo backtracking (start at the
    last accepted step times cfg.grow, shrink by cfg.shrink) tests the exact
    energy difference of energy_difference, less the multiplier times the mass
    roundoff, so the test stays decisive down to the gradient tolerance.  The
    method restarts from -P G when the conjugate direction is not a descent
    direction or its line search fails.  Termination is data, not an
    exception: Converged when the projected-gradient L2 norm falls below
    cfg.tol_grad, DivergedBelowFloor when the energy passes cfg.energy_floor
    (the finite witness for the unbounded-below regime), MaxIters after
    cfg.max_iters steps or when no step along -P G lowers the energy.

    start, when given, overrides cfg.init: descent begins from the mass
    renormalization of that field (sweeps warm-start successive couplings
    from the previous minimizer this way).
    """
    if a < 0:
        raise ValueError("coupling must be nonnegative")
    if classify(V, g.d) == "neither":
        raise ValueError("potential is neither confining nor a relatively bounded well")

    if start is not None:
        if start.grid is not g and (start.grid.d, start.grid.n, start.grid.half_width) != (g.d, g.n, g.half_width):
            raise ValueError("warm-start field lives on a different grid")
        u = renormalize_mass(start)
    else:
        u = initial_field(g, V, cfg.init, profile)
    q = critical_power(g.d)
    w = g.dx**g.d

    def inner(x, y):
        return w * float(np.sum(x * y))

    def status_of(bd, res):
        if bd.total < cfg.energy_floor:
            return SolveStatus.DIVERGED_BELOW_FLOOR
        if res <= cfg.tol_grad:
            return SolveStatus.CONVERGED
        return None

    bd = energy(u, V, a)
    grad = constrained_gradient(u, V, a)
    res = float(np.sqrt(l2_norm_sq(grad)))
    history = [(0, bd.total, res, 0.0)]
    status = status_of(bd, res)

    step = cfg.step0
    it = backtracks = cg_restarts = 0
    prev = None  # (direction, P G, <G, P G>) of the last accepted step
    while status is None and it < cfg.max_iters:
        x = u.values
        pg = _precondition(g, grad, bd.kinetic) if cfg.precondition else grad.values
        gpg = inner(grad.values, pg)
        candidates = [-pg + inner(pg, x) * x]
        if prev is not None:
            beta = max(0.0, (gpg - inner(grad.values, prev[1])) / prev[2])
            if beta > 0.0:
                cg = beta * prev[0] - pg
                candidates.insert(0, cg - inner(cg, x) * x)
        # the multiplier of u, half the coefficient that projects the raw
        # gradient onto the tangent space, read off the breakdown in hand
        mu = bd.kinetic + bd.potential - 0.5 * a * q * bd.nonlinear
        for k, direction in enumerate(candidates):
            cg_restarts += k  # the second candidate is the reset to -P G
            trial, t, shrinks = _armijo(u, direction, inner(grad.values, direction),
                                        step, V, a, mu, cfg)
            backtracks += shrinks
            if trial is not None:
                break
        else:
            status = SolveStatus.MAX_ITERS
            break
        it += 1
        u = Field(g, trial)
        bd = energy(u, V, a)
        grad = constrained_gradient(u, V, a)
        res = float(np.sqrt(l2_norm_sq(grad)))
        history.append((it, bd.total, res, t))
        prev = (direction, pg, gpg)
        step = t * cfg.grow
        status = status_of(bd, res)
    if status is None:
        status = SolveStatus.MAX_ITERS

    return SolveResult(minimizer=u, breakdown=bd,
                       mu=chemical_potential(u, V, a),
                       grad_residual=res, iterations=it, status=status,
                       history=tuple(history),
                       init_label="warm" if start is not None else cfg.init.kind,
                       backtracks=backtracks, cg_restarts=cg_restarts)


def write_iteration_log(result: SolveResult, path) -> None:
    """Dump the iteration history as CSV: iter, energy, grad_residual, step_size."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "energy", "grad_residual", "step_size"])
        for it, total, res, step in result.history:
            writer.writerow([it, f"{total:.17g}", f"{res:.17g}", f"{step:.17g}"])


def trial_upper_bound(g: Grid, V, a: float, eps: float, profile: Field,
                      x0=None) -> float:
    """Energy of the concentrating trial state; an upper bound for the infimum.

    The reference profile is cut off smoothly at radius eps**(-1/6) (quintic
    ramp over the outer 40% of that radius), renormalized, compressed by
    ell = eps**(-1/5), and centered at x0 (potential minimum when omitted).
    Raises when the cutoff radius does not fit in the box, which signals the
    box is too small for this eps.
    """
    if eps <= 0:
        raise ValueError("profile parameter eps must be positive")
    radius = eps ** (-1.0 / 6.0)
    if radius >= g.half_width:
        raise ValueError(
            f"cutoff radius {radius:.4g} exceeds the box half-width {g.half_width}; "
            "enlarge the box or increase eps")
    r = np.sqrt(sum(m**2 for m in g.meshes()))
    t = np.clip((r - 0.6 * radius) / (0.4 * radius), 0.0, 1.0)
    ramp = 1.0 - t**3 * (t * (6.0 * t - 15.0) + 10.0)
    w = renormalize_mass(Field(g, profile.values * ramp))
    v = dilate(w, eps ** (-1.0 / 5.0))
    if x0 is None:
        x0 = potential_argmin(V, g)
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    if np.any(x0 != 0.0):
        v = translate(v, x0)
    return energy(renormalize_mass(v), V, a).total
