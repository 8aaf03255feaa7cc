"""Constrained minimization on the unit-mass sphere by preconditioned nonlinear CG.

solve runs Polak-Ribiere+ conjugate gradient on the sphere of unit-mass
states, preconditioned by sigma / (sigma + |k|^4) with sigma = max(1, kinetic
energy) so the conditioning does not degrade as minimizers concentrate.  Its
Armijo line search tests spectral_energy_difference, an energy change
assembled from the step itself, whose rounding scales with the step rather
than with the energy; that keeps sufficient decrease decidable down to the
gradient tolerance, with no roundoff slack, residual gate or stall retry.
The method has one configuration: the preconditioner is always on, the
line-search constants and ENERGY_FLOOR are fixed, a SolveConfig is only the
stop rule, and solve puts the Field it starts from on the unit-mass sphere.

The loop works on a spectral state: plain arrays of the nodal values x and
their real transform X, with the search direction carried in both spaces
too.  A trial state is a linear combination of x and the direction, so its
transform is the same combination of X and the direction's transform, and
line-search trials need no FFT.  One iteration costs three real transforms:
the inverse in the fused energy-and-gradient evaluation, and the forward and
inverse of the preconditioner.  Fields are built only on entry and return,
and the arrays the loop writes are allocated once per call and reused, so
the loop allocates no arrays of its own.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyBreakdown, SpectralScratch, critical_power,
                     energy, spectral_energy_and_gradient,
                     spectral_energy_difference)
from .field import Field, dilate, read_snapshot, renormalize_mass, translate
from .grid import Grid
from .potentials import classify, sample

_ARMIJO = 1e-4
# line search: the first iteration's first trial step, the factor a failed
# trial shrinks by, and the factor on the last accepted step that gives the
# next iteration's first trial
_STEP0, _SHRINK, _GROW = 1.0, 0.5, 1.3
# a total energy below this is the finite witness of the unbounded-below
# regime: solve stops with DivergedBelowFloor
ENERGY_FLOOR = -1e3


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    DIVERGED_BELOW_FLOOR = "DivergedBelowFloor"
    MAX_ITERS = "MaxIters"


@dataclass(frozen=True)
class InitSpec:
    """The shape of a starting state, as initial_field builds it.

    kind is one of "gaussian" (a bump of the given width at the potential
    minimum; the default), "constant", "file" (load a snapshot from path), or
    "dilated_Q" (compress a reference profile by ell and park it at the
    potential minimum -- the start of the concentration sweep).
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
    """The stop rule of a solve, and of compute_gn's fixed point: the
    gradient tolerance and the iteration budget."""

    tol_grad: float = 1e-6
    max_iters: int = 2000

    def __post_init__(self):
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveResult:
    minimizer: Field
    breakdown: EnergyBreakdown
    mu: float
    grad_residual: float
    iterations: int
    status: SolveStatus
    history: tuple  # rows (iter, energy, grad_residual, step_size)
    backtracks: int  # line-search shrinks
    cg_restarts: int  # resets of the conjugate direction to -P G
    fft_calls: int  # real transforms the solver ran, entry evaluation included


def potential_argmin(V, g: Grid) -> np.ndarray:
    """Coordinates of the smallest sampled potential value (origin on ties)."""
    vals = sample(V, g).values
    if np.ptp(vals) == 0.0:
        return np.zeros(g.d)
    idx = np.unravel_index(int(np.argmin(vals)), g.shape)
    return np.array([g.axes[ax][i] for ax, i in enumerate(idx)])


def initial_field(g: Grid, V, spec: InitSpec, profile: Field | None = None) -> Field:
    """Build the start's shape described by spec; solve normalizes its mass."""
    if spec.kind == "gaussian":
        center = potential_argmin(V, g)
        r2 = sum((m - c) ** 2 for m, c in zip(g.meshes(), center))
        return Field(g, np.exp(-r2 / (2.0 * spec.width**2)))
    if spec.kind == "constant":
        return Field(g, np.ones(g.shape))
    if spec.kind == "file":
        return read_snapshot(spec.path, g)
    # dilated_Q
    if profile is None:
        raise ValueError("dilated_Q initialization needs a reference profile")
    v = dilate(profile, spec.ell)
    center = potential_argmin(V, g)
    if np.any(center != 0.0):
        v = translate(v, center)
    return v


class _Workspace:
    """The arrays one solve reuses on every iteration, so its loop allocates
    none of its own.

    The direction (d, D) and the preconditioned gradient pg come in pairs:
    the last accepted step's enter the next beta, so each iteration writes
    the member of the pair the previous one did not.  The line search's
    trial step lives in delta and dhat, and the kernels' work arrays in
    scratch, which also holds short-lived products between kernel calls.
    """

    def __init__(self, g: Grid):
        def real():
            return np.empty(g.shape)

        def half():
            return np.empty(g.k_quad.shape, dtype=np.complex128)

        self.grad, self.delta = real(), real()
        self.ghat, self.PG, self.dhat = half(), half(), half()
        self.symbol = np.empty(g.k_quad.shape)
        self.d, self.pg = (real(), real()), (real(), real())
        self.D = (half(), half())
        self.scratch = SpectralScratch(g)


def _armijo(g: Grid, x, X, d, D, slope: float, mass_defect: float,
            step: float, vvals, a: float, mu: float, ws: _Workspace):
    """Backtrack from step until the unit-mass trial c (x + t d) passes
    Armijo on spectral_energy_difference with multiplier mu.

    c = (1 + s)^(-1/2), where s = mass(x + t d) - 1 follows from
    mass_defect = mass(x) - 1 and the inner products of x and d, and c - 1 is
    formed as expm1(-log1p(s) / 2) so it keeps its relative precision for
    small steps.  The step delta = (c - 1) x + c t d and its transform, the
    same combination of X and D, cost no FFT and are written into ws.delta
    and ws.dhat.  Returns (delta, delta transform, step taken, shrinks);
    delta is None when the direction does not descend or the step falls
    below 1e-18 * _STEP0.
    """
    w = g.dx**g.d
    xd2 = 2.0 * w * float(np.vdot(x, d))
    dd = w * float(np.vdot(d, d))
    delta, dhat = ws.delta, ws.dhat
    tmp, tmp_hat = ws.scratch.real[0], ws.scratch.half
    t, shrinks = step, 0
    while slope < 0.0 and t > 1e-18 * _STEP0:
        cm1 = math.expm1(-0.5 * math.log1p(mass_defect + t * (xd2 + t * dd)))
        ct = (1.0 + cm1) * t
        np.multiply(x, cm1, out=delta)
        delta += np.multiply(d, ct, out=tmp)
        np.multiply(X, cm1, out=dhat)
        dhat += np.multiply(D, ct, out=tmp_hat)
        if (spectral_energy_difference(g, x, X, delta, dhat, vvals, a, mu,
                                       ws.scratch)
                <= _ARMIJO * t * slope):
            return delta, dhat, t, shrinks
        t *= _SHRINK
        shrinks += 1
    return None, None, t, shrinks


def solve(g: Grid, V, a: float, cfg: SolveConfig = SolveConfig(), *,
          start: Field | None = None) -> SolveResult:
    """Minimize the energy at coupling a over unit-mass states on g.

    Polak-Ribiere+ nonlinear conjugate gradient on the unit-mass sphere.  The
    search direction is -P G plus beta times the previous direction, projected
    onto the tangent space at u, where G is the projected gradient and P is
    sigma / (sigma + |k|^4) with sigma = max(1, kinetic energy).  Trial
    states are u + t d renormalized to unit mass, and Armijo backtracking
    (the first trial step is 1, each later one starts at the last accepted
    step times 1.3, and a failed trial halves it) tests the exact energy
    difference of spectral_energy_difference, less the multiplier times the
    mass roundoff, so the test stays decisive down to the gradient
    tolerance.  The method restarts from -P G when the conjugate direction is
    not a descent direction or its line search fails.  Termination is data,
    not an exception: Converged when the projected-gradient L2 norm falls
    below cfg.tol_grad, DivergedBelowFloor when the energy passes
    ENERGY_FLOOR (the finite witness for the unbounded-below regime),
    MaxIters after cfg.max_iters steps or when no step along -P G lowers the
    energy.

    The iterate is the spectral state (x, X = real transform of x): the
    direction is carried as the pair (d, D) of one linear combination taken
    in both spaces, an accepted step adds delta to x and its transform to X,
    and each iteration runs three real transforms, counted in
    SolveResult.fft_calls.  Every array the loop writes comes from one
    workspace allocated per call, so calls share no state and the loop
    allocates no arrays of its own (numpy's 2D inverse transform still makes
    one intermediate).  The breakdown, the
    gradient residual and the multiplier mu = kinetic + potential
    - (a q / 2) nonlinear of the result are those of the final spectral
    state.

    Descent begins from the mass renormalization of start, a Field on g, and
    this is the one place a start is normalized; start=None means
    initial_field(g, V, InitSpec()), the unit-width Gaussian at the
    potential minimum.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"coupling must be finite and nonnegative, got {a}")
    if classify(V, g.d) == "neither":
        raise ValueError("potential is neither confining nor a relatively bounded well")

    if start is None:
        start = initial_field(g, V, InitSpec())
    gs = start.grid
    if (gs.d, gs.n, gs.half_width) != (g.d, g.n, g.half_width):
        raise ValueError("start field lives on a different grid")
    u = renormalize_mass(start)
    q = critical_power(g.d)
    w = g.dx**g.d
    vvals = sample(V, g).values

    def inner(x, y):
        return w * float(np.vdot(x, y))

    def multiplier(bd):
        # the multiplier of a unit-mass state, half the coefficient that
        # projects the raw gradient onto the tangent space
        return bd.kinetic + bd.potential - 0.5 * a * q * bd.nonlinear

    def status_of(bd, res):
        if bd.total < ENERGY_FLOOR:
            return SolveStatus.DIVERGED_BELOW_FLOOR
        if res <= cfg.tol_grad:
            return SolveStatus.CONVERGED
        return None

    ws = _Workspace(g)
    x = u.values.copy()
    X = g.forward(x)
    bd, grad, res = spectral_energy_and_gradient(g, x, X, vvals, a, ws.grad,
                                                 ws.scratch)
    fft_calls = 2
    history = [(0, bd.total, res, 0.0)]
    status = status_of(bd, res)

    step = _STEP0
    it = backtracks = cg_restarts = 0
    prev = None  # (d, D, P G, <G, P G>) of the last accepted step
    slot = 0  # the member of each workspace pair this iteration writes
    while status is None and it < cfg.max_iters:
        ghat = g.forward(grad, out=ws.ghat)
        # sigma tied to the kinetic energy: the Hessian's low modes scale
        # with it, so a fixed shift would lose a factor of kinetic in
        # conditioning as the state concentrates
        sigma = max(1.0, bd.kinetic)
        symbol = np.add(g.k_quad, sigma, out=ws.symbol)
        np.divide(sigma, symbol, out=symbol)
        PG = np.multiply(symbol, ghat, out=ws.PG)
        pg = ws.pg[slot]
        g.inverse(PG, out=pg)
        fft_calls += 2
        gpg = inner(grad, pg)
        pgx = inner(pg, x)
        # candidate directions beta d_prev - P G - c x, with c projecting
        # onto the tangent space at x: the conjugate one first, if any, then
        # the reset to -P G
        candidates = [(0.0, -pgx)]
        if prev is not None:
            beta = max(0.0, (gpg - inner(grad, prev[2])) / prev[3])
            if beta > 0.0:
                candidates.insert(0, (beta, beta * inner(prev[0], x) - pgx))
        mu = multiplier(bd)
        mass_defect = inner(x, x) - 1.0
        d, D = ws.d[slot], ws.D[slot]
        for k, (beta, c) in enumerate(candidates):
            cg_restarts += k  # the second candidate is the reset to -P G
            np.multiply(x, -c, out=d)
            d -= pg
            np.multiply(X, -c, out=D)
            D -= PG
            if beta:
                d += np.multiply(prev[0], beta, out=ws.scratch.real[0])
                D += np.multiply(prev[1], beta, out=ws.scratch.half)
            delta, dhat, t, shrinks = _armijo(g, x, X, d, D, inner(grad, d),
                                              mass_defect, step, vvals, a, mu,
                                              ws)
            backtracks += shrinks
            if delta is not None:
                break
        else:
            status = SolveStatus.MAX_ITERS
            break
        it += 1
        x += delta
        X += dhat
        bd, grad, res = spectral_energy_and_gradient(g, x, X, vvals, a,
                                                     ws.grad, ws.scratch)
        fft_calls += 1
        history.append((it, bd.total, res, t))
        prev = (d, D, pg, gpg)
        slot = 1 - slot
        step = t * _GROW
        status = status_of(bd, res)
    if status is None:
        status = SolveStatus.MAX_ITERS

    return SolveResult(minimizer=Field(g, x), breakdown=bd,
                       mu=multiplier(bd),
                       grad_residual=res, iterations=it, status=status,
                       history=tuple(history),
                       backtracks=backtracks, cg_restarts=cg_restarts,
                       fft_calls=fft_calls)


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
