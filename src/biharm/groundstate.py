"""Constrained minimization on the unit-mass sphere by preconditioned nonlinear CG.

solve runs Polak-Ribiere+ conjugate gradient on the sphere of unit-mass
states with a two-level preconditioner.  Its first level is sigma / (sigma +
|k|^4) with sigma = max(1, c1 kinetic energy), c1 = (q - 2)/2: the fixed
point's operator c1 + |k|^4 (see gn) at the iterate's scale, so the
conditioning does not degrade as minimizers concentrate.  Its second level
is a coarse step on the generators of the group that blow-up follows, the
translations d_i u and the mass-preserving dilation s . grad u + (d/2) u
about the potential's minimum (s its coordinate there, made smooth and
periodic): near a* the energy is flat along them, and the first level
leaves them as the constrained Hessian's d + 1 smallest preconditioned
eigenvalues, far below the rest (0.36, 0.36 and 0.60 against [13.4, 17.8]
in 2D on 128^2/12 at a = 56).  The coarse step replaces the first level's
action on their span by the Newton step there (deflation; Nicolaides, SIAM
J. Numer. Anal. 24, 1987; Tang, Nabben, Vuik & Erlangga, J. Sci. Comput.
39, 2009), and it falls back to the first level alone wherever the Hessian
on the span is not positive definite, or not distinguishably so.  It runs
in 2D only: on the 1D grids an iteration is about a hundred microseconds
of small array calls, and on warm-started sweeps the step cost more than
the iterations it saved.  The line search fits a quadratic to each trial's
energy change and the slope at zero, and steps to the quadratic's minimizer:
after a failed trial, and once more after a passing one, so each step
roughly minimizes the energy along its direction, as conjugacy needs.  Every
trial is tested for Armijo sufficient decrease on the energy change along
the line in closed form: the kinetic and potential energies are quadratic in
the step and the nonlinear one is a polynomial of degree q, so a few moments
of the state and the direction, taken once per iteration, give the change at
any step as a scalar expression (see _line).  Its rounding scales with the
step rather than with the energy, which keeps sufficient decrease decidable
down to the gradient tolerance, with no roundoff slack, residual gate or
stall retry.
The method has one configuration: the preconditioner is always on, the
line-search constants and ENERGY_FLOOR are fixed, a SolveConfig is only the
stop rule, and solve puts the Field it starts from on the unit-mass sphere.

The loop works on a spectral state: plain arrays of the nodal values x and
their real transform X, with the search direction carried in both spaces
too, and the gradient kept as a half spectrum.  A trial costs no array
pass, and only the accepted step is built, as the same linear combination
of x and the direction and of their transforms, with no FFT.  One
iteration costs two real transforms, the forward one in the fused
energy-and-gradient evaluation and the inverse of the preconditioned
gradient, and in 2D the coarse step's three more: d inverse ones (the
nodal translations) and one forward one (the dilation's spectrum).  Fields
are built only on entry and return, and the arrays the loop writes are
allocated once per call, one for each role, and reused, so the loop
allocates no arrays of its own.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyBreakdown, critical_power, critical_shift, energy,
                     spectral_energy_and_gradient)
from .field import (Field, _nonlinear_weight, dilate, read_snapshot,
                    renormalize_mass)
from .grid import Grid
from .potentials import classify, potential_argmin, sample

_ARMIJO = 1e-4
# line search: the first iteration's first trial step, and the factor on the
# last accepted step that gives the next iteration's first trial
_STEP0, _GROW = 1.0, 1.3
# the coarse step's test of A's pivots against B's (see _spd_solve): the
# square root of double's epsilon, well above the roundoff of sums of B's
# size and the drift of the carried transform (about 1e-9 relative)
_PIVOT_RTOL = 1.5e-8
# solve stops with DivergedBelowFloor once the grid energy is below this.
# Above a* the energy is unbounded below and passes it; below a* grid-scale
# states pass it too, since the |u|^q term is a node sum, so it is no proof
# that no minimizer exists
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
    grad_residual: float
    iterations: int
    status: SolveStatus
    history: tuple  # rows (iter, energy, grad_residual, step_size)
    backtracks: int  # line-search trials that failed Armijo
    trials: int  # line-search trials: closed-form energy changes evaluated
    cg_restarts: int  # resets of the conjugate direction to -P G
    # real transforms the solver ran: 2 on entry, 2 per iteration (5 in 2D,
    # with the coarse step's)
    fft_calls: int
    # iterations that used P alone, without the coarse step: where A was not
    # positive definite, and every one in 1D, where the step does not run
    coarse_fallbacks: int


# SolveResult's counters in its field order, the one list that SweepRecord,
# sweep.csv and solve.json carry them by
SOLVE_COUNTERS = ("iterations", "backtracks", "trials", "cg_restarts",
                  "fft_calls", "coarse_fallbacks")


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
    return dilate(profile, spec.ell, to=potential_argmin(V, g))


class _Workspace:
    """Every array one solve writes, each with its own memory, allocated
    once per call so that the loop allocates none of its own.

    One direction (d, D) and one P G (pg nodal, PG spectral): the last
    step's enter the next beta, read before the iteration writes over them.
    ghat is the gradient spectrum, delta and dhat the accepted step, rows
    the q/2 + 1 real rows of the line moments and half a half spectrum;
    rows, half and delta also serve as scratch.  Given a center, the coarse
    step runs: coords are its dilation's coordinates about center,
    read-only, and z the d + 1 generators' spectra; else both are None.
    """

    def __init__(self, g: Grid, center=None):
        # (L/pi) sin(pi (x_i - center_i) / L): x_i - center_i to third order
        # near center, and smooth across the box's edge, where x_i jumps
        self.coords = None if center is None else tuple(
            (g.half_width / np.pi
             * np.sin(np.pi / g.half_width * (g.axes[i] - center[i]))
             ).reshape((-1,) + (1,) * (g.d - 1 - i))
            for i in range(g.d))
        self.delta, self.pg, self.d = (np.empty(g.shape) for _ in range(3))
        # a tuple of views, as the loop indexes them often
        self.rows = tuple(np.empty((critical_power(g.d) // 2 + 1, *g.shape)))
        self.dhat, self.half, self.PG, self.ghat, self.D = (
            np.empty(g.k_quad.shape, dtype=np.complex128) for _ in range(5))
        self.z = None if center is None else np.empty(
            (g.d + 1, *g.k_quad.shape), dtype=np.complex128)
        self.symbol = np.empty(g.k_quad.shape)


def _monomials(x, d, rows) -> None:
    """Write x^(h-k) d^k into rows[k] for k = 0..h, h = len(rows) - 1 >= 3,
    by 3 (h - 1) products and no other array."""
    h = len(rows) - 1
    np.multiply(x, x, out=rows[h - 2])
    for k in range(h - 3, -1, -1):
        np.multiply(rows[k + 1], x, out=rows[k])  # x^(h-k)
    np.multiply(rows[1], d, out=rows[1])
    dk = np.multiply(d, d, out=rows[h])
    for k in range(2, h - 1):
        np.multiply(rows[k], dk, out=rows[k])
        dk *= d  # d^(k+1)
    np.multiply(x, dk, out=rows[h - 1])
    dk *= d


@functools.cache
def _tail_binomials(h: int) -> tuple:
    """C(h, k) from k = h down to 2: the Horner coefficients of
    ((1 + u)^h - 1 - h u) / u^2."""
    return tuple(math.comb(h, k) for k in range(h, 1, -1))


def _line(g: Grid, x, X, d, D, vvals, bd: EnergyBreakdown,
          mass_defect: float, ws: _Workspace):
    """The energy change along the search line, and the step that makes it.

    Returns (phi, build).  phi(t) = E(v) - E(u) - mu (mass(v) - mass(u)) for
    the unit-mass trial v = c (x + t d), c = (1 + s)^(-1/2), where
    s = mass(x + t d) - 1 = mass_defect + t (2 <x,d> + t <d,d>).  The kinetic
    and potential energies are quadratic and the nonlinear one is
    homogeneous of degree q, so

        phi(t) = (c^2 - 1) (K0 + P0 - mu m0)
                 + c^2 t (2 (K1 + P1) + t (K2 + P2) - mu (2 <x,d> + t <d,d>))
                 - a ((c^q - 1) S0 + c^q sum_{j=1..q} C(q, j) t^j S_j),

    with m0 = mass(x), K1, K2 and P1, P2 the kinetic and potential forms of
    (x, d) and (d, d), and S_j = int x^(q-j) d^j.  K0, P0 and S0 are the
    breakdown bd of x and mu is its multiplier bd.mu; the other moments are
    taken here, once per direction, S_j as <H_k, H_(j-k)> over the rows
    H_k = x^(q/2-k) d^k in ws.rows.  A trial is then a scalar expression
    with no array pass.  The terms first order in s cancel, as mu is the
    multiplier: with u = c^2 - 1 = -s / (1 + s) and h = q/2 an integer,

        (c^2 - 1) (K0 + P0 - mu m0) - a (c^q - 1) S0
            = -mu (m0 - 1) u - a S0 sum_{k=2..h} C(h, k) u^k,

    which keeps the rounding of the renormalization, relative to the mass
    defect, out of steps so small that their energy change is below it.
    A trial whose polynomial overflows gives a non-finite phi rather than
    an exception.

    build(t) writes the step delta = (c - 1) x + c t d into ws.delta and its
    transform, the same combination of X and D, into ws.dhat: no FFT.
    """
    w = g.dx**g.d
    q, a, mu = bd.q, bd.a, bd.mu
    xd2 = 2.0 * w * float(np.vdot(x, d))
    dd = w * float(np.vdot(d, d))
    kd = np.multiply(g.k_quad, D, out=ws.half)
    k1 = g.parseval(X, kd)
    k2 = g.parseval(D, kd)
    rows = ws.rows
    vd = np.multiply(vvals, d, out=rows[0])
    p1 = w * float(np.vdot(vd, x))
    p2 = w * float(np.vdot(vd, d))
    _monomials(x, d, rows)
    # C(q, j) S_j from j = q down to 1, in Horner order
    coef = [math.comb(q, j) * w * float(np.vdot(rows[j // 2],
                                                rows[j - j // 2]))
            for j in range(q, 0, -1)]
    # Python floats throughout, so an overflowing trial makes inf and nan
    # silently, as numpy scalars would not
    mass_defect = float(mass_defect)
    c0 = -mu * mass_defect
    c1 = 2.0 * (k1 + p1) - mu * xd2
    c2 = k2 + p2 - mu * dd
    s0, h = bd.nonlinear, q // 2
    binom = _tail_binomials(h)

    def phi(t):
        s = mass_defect + t * (xd2 + t * dd)
        csq = 1.0 / (1.0 + s)
        u = -s * csq
        tail = 0.0
        for b in binom:
            tail = tail * u + b
        poly = 0.0
        for b in coef:
            poly = (poly + b) * t
        return (u * c0 - a * s0 * u * u * tail + csq * t * (c1 + t * c2)
                - a * csq**h * poly)

    def build(t):
        cm1 = math.expm1(-0.5 * math.log1p(mass_defect + t * (xd2 + t * dd)))
        ct = (1.0 + cm1) * t
        delta, dhat = ws.delta, ws.dhat
        np.multiply(x, cm1, out=delta)
        delta += np.multiply(d, ct, out=ws.rows[0])
        np.multiply(X, cm1, out=dhat)
        dhat += np.multiply(D, ct, out=ws.half)

    return phi, build


def _spd_solve(m, r, ref=None):
    """Solve m c = r for a symmetric matrix m, given as rows of Python
    floats that are overwritten, by elimination without pivoting.

    Returns c and the pivots, or None unless every pivot is positive, that
    is unless m is positive definite.  Given the pivots ref of a positive
    definite reference matrix, each pivot must also exceed _PIVOT_RTOL times
    ref's: a pivot that small is what is left of cancelling terms of the
    reference's size, and roundoff can give it either sign."""
    n = len(r)
    r = list(r)
    pivots = []
    for k in range(n):
        piv = m[k][k]
        if not piv > (0.0 if ref is None else _PIVOT_RTOL * ref[k]):
            return None
        pivots.append(piv)
        for i in range(k + 1, n):
            f = m[i][k] / piv
            for j in range(k + 1, n):
                m[i][j] -= f * m[k][j]
            r[i] -= f * r[k]
    for k in range(n - 1, -1, -1):
        for j in range(k + 1, n):
            r[k] -= m[k][j] * r[j]
        r[k] /= m[k][k]
    return r, pivots


def _coarse_step(g: Grid, x, X, mass: float, vvals, bd: EnergyBreakdown,
                 sigma: float, ws: _Workspace):
    """The coarse step of the two-level preconditioner: the coefficients c
    of the generators Z of translation and dilation, or None.

    Z holds the partial derivatives d_i x (spectra i k_i X, nodal values by
    one inverse transform each) and the dilation Lambda x = s . grad x +
    (d/2) x projected onto the tangent space at x, which leaves s . grad x
    less its component along x (nodal, spectrum by one forward transform).
    s = ws.coords is the coordinate about the potential's minimum, where
    minimizers concentrate, made smooth and periodic.  The plain coordinate
    jumps at the box's edge, and |k|^4 amplifies the Gibbs tail of that
    jump: with it, gradient residuals rose to about 10 within a solve, and
    the 2D solve at a = 57.5 on 128^2/12 took 92 iterations instead of 26.

    With H = 2 (|k|^4 + V - mu - (a q (q-1)/2) x^(q-2)), the Hessian of the
    energy less mu times the mass, and M = 2 (sigma + |k|^4), for which
    P = 2 sigma M^-1, the matrices A = Z^T H Z and B = Z^T M Z give

        c = 2 sigma (A^-1 - B^-1) Z^T G,

    and P G + sum_i c_i Z_i replaces P's action on span Z by the Newton step
    there, on P's scale.  The Gram, kinetic and gradient sums are Parseval
    sums of Z^ with Z^, |k|^4 Z^ and G^, the potential and nonlinear ones
    nodal inner products, each symmetric matrix's upper triangle only, and
    the (d+1) x (d+1) systems are solved in Python floats; numpy's
    matrix products would cost about 10 us a call at this size, and BLAS
    its work buffers.  mass is <x, x>.  None when A is not positive
    definite, far from a minimizer, where the Hessian has directions of
    negative curvature, or when a pivot of A is within roundoff of zero
    against B's (see _spd_solve).  Z^ is left in ws.z for _precondition.
    """
    dim, m = g.d, g.d + 1
    z, zr, tmp = ws.z, ws.rows[:m], ws.delta
    for i in range(dim):
        np.multiply(g.ik[i], X, out=z[i])
        g.inverse(z[i], out=zr[i])
    lam = np.multiply(ws.coords[0], zr[0], out=zr[dim])
    for i in range(1, dim):
        lam += np.multiply(ws.coords[i], zr[i], out=tmp)
    lam -= np.multiply(x, float(np.vdot(lam, x)) * g.dx**dim / mass,
                       out=tmp)
    g.forward(lam, out=z[dim])
    # A's nodal part, with the Hessian's weight V - (a q (q-1)/2) x^(q-2);
    # mu enters with the Gram sums.  Upper triangles first, mirrored below
    # with the spectral sums.
    weight = np.multiply(x, x, out=ws.rows[-1])
    _nonlinear_weight(weight, out=weight)
    weight *= -0.5 * bd.a * bd.q * (bd.q - 1)
    weight += vvals
    w = g.dx**dim
    a_mat = [[0.0] * m for _ in range(m)]
    for j in range(m):
        np.multiply(weight, zr[j], out=tmp)
        for i in range(j + 1):
            a_mat[i][j] = w * float(np.vdot(zr[i], tmp))
    # halved: c = sigma ((A/2)^-1 - (B/2)^-1) Z^T G
    b_mat = [[0.0] * m for _ in range(m)]
    r = []
    for j in range(m):
        k4z = np.multiply(g.k_quad, z[j], out=ws.half)
        for i in range(j + 1):
            gram, kin = g.parseval(z[i], z[j]), g.parseval(z[i], k4z)
            a_mat[i][j] = a_mat[j][i] = a_mat[i][j] + kin - bd.mu * gram
            b_mat[i][j] = b_mat[j][i] = kin + sigma * gram
        r.append(g.parseval(z[j], ws.ghat))
    b_solved = _spd_solve(b_mat, r)
    if b_solved is None:
        return None
    cb, b_pivots = b_solved
    a_solved = _spd_solve(a_mat, r, b_pivots)
    if a_solved is None:
        return None
    return [sigma * (p - q) for p, q in zip(a_solved[0], cb)]


def _precondition(g: Grid, x, X, mass: float, vvals, bd: EnergyBreakdown,
                  sigma: float, ws: _Workspace) -> bool:
    """Write the preconditioned gradient into ws.PG: P G, with
    P = sigma / (sigma + |k|^4), plus the coarse step's sum_i c_i Z_i (see
    _coarse_step).  Returns False when it is P G alone: the workspace has
    no generators (ws.z is None), or A is not positive definite."""
    symbol = np.add(g.k_quad, sigma, out=ws.symbol)
    np.divide(sigma, symbol, out=symbol)
    z, PG = ws.z, ws.PG
    coef = (None if z is None
            else _coarse_step(g, x, X, mass, vvals, bd, sigma, ws))
    if coef is None:
        np.multiply(symbol, ws.ghat, out=PG)
        return False
    # sum_i c_i Z_i, the dilation's term first, then P G by way of the
    # spent z[0], so that P G's product is still in cache for its sum
    np.multiply(z[-1], coef[-1], out=PG)
    for zi, ci in zip(z[:-1], coef):
        zi *= ci
        PG += zi
    PG += np.multiply(symbol, ws.ghat, out=z[0])
    return True


def _armijo(phi, slope: float, step: float):
    """Find a step t along a line whose energy change phi(t) passes Armijo
    with phi(0) = 0 and phi'(0) = slope, and that roughly minimizes phi.

    Each trial's phi(t) fits the quadratic slope t + curv t^2.  A failed
    trial is followed by the quadratic's minimizer clamped to [0.1 t, 0.5 t];
    a trial whose phi(t) is not finite fails and is followed by 0.1 t.  A
    passing trial is followed by one more at the minimizer when curv > 0
    and it lies more than 0.1 t from t, and the lower of the two steps that
    pass is kept.  phi is a scalar
    expression (see _line), so trials cost no array work and the caller
    builds only the step it takes.  Returns (step taken, failed trials,
    trials); the step is None when the direction does not descend or the
    step falls below 1e-18 * _STEP0.
    """
    t, fails = step, 0
    while slope < 0.0 and t > 1e-18 * _STEP0:
        e = phi(t)
        # the minimizer of slope t + curv t^2, curv = excess / t^2; 0 when
        # the fit is not convex (or e is not finite)
        excess = e - slope * t
        t_min = -0.5 * slope * t * t / excess if excess > 0.0 else 0.0
        if -math.inf < e <= _ARMIJO * t * slope:
            break
        fails += 1
        t = min(0.5 * t, max(0.1 * t, t_min))
    else:
        return None, fails, fails
    trials = fails + 1
    if t_min > 0.0 and abs(t_min - t) > 0.1 * t:
        trials += 1
        e_min = phi(t_min)
        if e_min <= _ARMIJO * t_min * slope and e_min < e:
            return t_min, fails, trials
    return t, fails, trials


def solve(g: Grid, V, a: float, cfg: SolveConfig = SolveConfig(), *,
          start: Field | None = None) -> SolveResult:
    """Minimize the energy at coupling a over unit-mass states on g.

    Polak-Ribiere+ nonlinear conjugate gradient on the unit-mass sphere.  The
    search direction is -P G plus beta times the previous direction, projected
    onto the tangent space at u, where G is the projected gradient and P is
    two-level: sigma / (sigma + |k|^4), with sigma = max(1, c1 kinetic
    energy) and c1 = critical_shift(d), the leading term of -mu near a*,
    with its action on the span of the translation and dilation generators
    of u replaced by the Newton step there (see _coarse_step) in 2D.  An
    iteration uses the first level alone in 1D, and in 2D when the Hessian
    on that span is not positive definite; SolveResult.coarse_fallbacks
    counts those iterations.  Trial
    states are u + t d renormalized to unit mass.  The line search (the
    first trial step is 1, each later one starts at the last accepted step
    times 1.3) steps to the minimizer of the quadratic through each trial's
    energy change and the slope at zero: within [0.1 t, 0.5 t] after a
    failed trial, and once past a passing one, keeping the lower step that
    passes (see _armijo).  Its Armijo test reads the energy change in closed
    form from moments of u and the direction taken once per iteration (see
    _line), less the multiplier times the mass change, so a trial costs no
    array pass and the test stays decisive down to the gradient tolerance.
    SolveResult.trials counts those tests and backtracks the failed ones.
    The method restarts from -P G when the conjugate direction is
    not a descent direction or its line search fails.  Termination is data,
    not an exception: Converged when the projected-gradient L2 norm falls
    below cfg.tol_grad, DivergedBelowFloor when the energy passes
    ENERGY_FLOOR (see there: not by itself proof of the unbounded regime),
    MaxIters after cfg.max_iters steps or when no step along -P G lowers the
    energy.

    The iterate is the spectral state (x, X = real transform of x) of the
    module docstring, so the gradient's norm, beta and the slope are
    Parseval sums, and SolveResult.fft_calls counts its transforms.  Every
    array the loop writes comes from one _Workspace per call, so calls
    share no state (numpy's 2D inverse transform still makes one
    intermediate).  The breakdown of the result, and with it the
    multiplier breakdown.mu, and the gradient residual are those of the
    final spectral state.

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
    if start.grid != g:
        raise ValueError("start field lives on a different grid")
    u = renormalize_mass(start)
    c1 = critical_shift(g.d)
    w = g.dx**g.d
    vvals = sample(V, g).values

    def inner(x, y):
        return w * float(np.vdot(x, y))

    def status_of(bd, res):
        if bd.total < ENERGY_FLOOR:
            return SolveStatus.DIVERGED_BELOW_FLOOR
        if res <= cfg.tol_grad:
            return SolveStatus.CONVERGED
        return None

    # the coarse step runs in 2D only: at 1D sizes an iteration is about a
    # hundred microseconds of small array calls, and on warm-started
    # sweeps the step's transforms and sums cost more than the iterations
    # it saves
    coarse = g.d > 1
    ws = _Workspace(g, potential_argmin(V, g) if coarse else None)
    work = (ws.rows[0], ws.rows[1], ws.half)
    d, D = ws.d, ws.D
    x = u.values.copy()
    X = g.forward(x)
    bd, ghat, res = spectral_energy_and_gradient(g, x, X, vvals, a, ws.ghat,
                                                 work)
    fft_calls = 2
    history = [(0, bd.total, res, 0.0)]
    status = status_of(bd, res)

    step = _STEP0
    it = backtracks = trials = cg_restarts = coarse_fallbacks = 0
    gpg_prev = None  # <G, P G> of the last accepted step
    while status is None and it < cfg.max_iters:
        # sigma = c1 kinetic: the multiplier is -c1 (kinetic + potential)
        # + (q/2) energy, so as the state concentrates -mu tends to c1
        # kinetic, and sigma + |k|^4 is the fixed point's c1 + |k|^4 at the
        # iterate's scale, the constrained Hessian's principal part
        sigma = max(1.0, c1 * bd.kinetic)
        # the last step's P G and direction enter beta: read them before
        # this iteration writes over them
        if gpg_prev is not None:
            gpg_cross = g.parseval(ghat, ws.PG)
            dx_prev = inner(d, x)
        mass = inner(x, x)
        if not _precondition(g, x, X, mass, vvals, bd, sigma, ws):
            coarse_fallbacks += 1
        PG = ws.PG
        pg = g.inverse(PG, out=ws.pg)
        fft_calls += 1 + (g.d + 1) * coarse
        gpg = g.parseval(ghat, PG)
        pgx = inner(pg, x)
        # candidate directions beta d_prev - P G - c x, with c projecting
        # onto the tangent space at x: the conjugate one first, if any, then
        # the reset to -P G
        candidates = [(0.0, -pgx)]
        if gpg_prev is not None:
            beta = max(0.0, (gpg - gpg_cross) / gpg_prev)
            if beta > 0.0:
                candidates.insert(0, (beta, beta * dx_prev - pgx))
                # beta d_prev and beta D_prev, kept until d and D are written
                beta_d = np.multiply(d, beta, out=ws.rows[0])
                beta_D = np.multiply(D, beta, out=ws.half)
        mass_defect = mass - 1.0
        for k, (beta, c) in enumerate(candidates):
            cg_restarts += k  # the second candidate is the reset to -P G
            np.multiply(x, -c, out=d)
            d -= pg
            np.multiply(X, -c, out=D)
            D -= PG
            if beta:
                d += beta_d
                D += beta_D
            phi, build = _line(g, x, X, d, D, vvals, bd, mass_defect, ws)
            t, fails, tried = _armijo(phi, g.parseval(ghat, D), step)
            backtracks += fails
            trials += tried
            if t is not None:
                break
        else:
            status = SolveStatus.MAX_ITERS
            break
        it += 1
        build(t)
        x += ws.delta
        X += ws.dhat
        bd, ghat, res = spectral_energy_and_gradient(g, x, X, vvals, a,
                                                     ws.ghat, work)
        fft_calls += 1
        history.append((it, bd.total, res, t))
        gpg_prev = gpg
        step = t * _GROW
        status = status_of(bd, res)
    if status is None:
        status = SolveStatus.MAX_ITERS

    return SolveResult(minimizer=Field(g, x), breakdown=bd,
                       grad_residual=res, iterations=it, status=status,
                       history=tuple(history),
                       backtracks=backtracks, trials=trials,
                       cg_restarts=cg_restarts,
                       fft_calls=fft_calls, coarse_fallbacks=coarse_fallbacks)


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
    x0 = potential_argmin(V, g) if x0 is None else x0
    v = dilate(w, eps ** (-1.0 / 5.0), to=x0)
    return energy(renormalize_mass(v), V, a).total
