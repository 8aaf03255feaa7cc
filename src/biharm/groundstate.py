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
on the span is not positive definite, or not distinguishably so.  It is
formed on the coarsest grid that resolves the iterate, the n/2 grid or
the solve's own, and applied on the solve's grid the same way from
either (see _precondition).  It runs in 2D only, and only on a potential
that is not constant, whose minimum the dilation is centred on.  On the
1D grids an iteration is about a hundred microseconds of small array
calls, and on warm-started sweeps the step cost more than the iterations
it saved.  The line search fits a
quadratic to each trial's energy change and the slope at zero, and steps
to the quadratic's minimizer: after a failed trial, and once more after a
passing one, so each step roughly minimizes the energy along its
direction, as conjugacy needs.  Every
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
nodal translations) and one forward one (the dilation's spectrum), on
the grid the step is formed on (on n/2, a quarter of the points).  Fields
are built only on entry and return, and the arrays the loop writes are
allocated once per call, one for each role, and reused, so the loop
allocates no arrays of its own.  On the 1D grids an iteration's cost is
numpy's per-call overhead rather than arithmetic, so the hot path calls
ufuncs and ndarray methods rather than numpy's Python-level wrappers
(x.sum() for np.sum, a.ravel().dot(b.ravel()) for np.vdot of real arrays,
v.max() > v.min() for np.ptp, math.sqrt for np.sqrt of a Python float),
and reads constants computed once per grid (Grid.cell,
Grid.parseval_scale, Grid.k_quad_complex).
"""

from __future__ import annotations

import csv
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyBreakdown, critical_power, critical_shift,
                     spectral_energy_and_gradient)
from .field import (Field, _nonlinear_weight, dilate, read_snapshot,
                    renormalize_mass)
from .grid import Grid, make_grid
from .potentials import classify, potential_argmin, sample

_ARMIJO = 1e-4
# line search: the first iteration's first trial step, and the factor on the
# last accepted step that gives the next iteration's first trial
_STEP0, _GROW = 1.0, 1.3
# the coarse step's test of A's pivots against B's (see _spd_solve): the
# square root of double's epsilon, well above the roundoff of sums of B's
# size and the drift of the carried transform (about 1e-9 relative)
_PIVOT_RTOL = 1.5e-8
# the coarse step is formed on the n/2 grid while the share of the
# iterate's L2 norm outside that grid's band is below this (see _coarse_step)
_HALF_GRID_TAIL = 1e-4
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
        if not (0 < self.width < math.inf and 0 < self.ell < math.inf):
            raise ValueError("init width and ell must be finite and positive")
        if self.kind == "file" and not self.path:
            raise ValueError("file init needs a path")


@dataclass(frozen=True)
class SolveConfig:
    """The stop rule of a solve, and of compute_gn's fixed point: the
    gradient tolerance and the iteration budget."""

    tol_grad: float = 1e-6
    max_iters: int = 2000

    def __post_init__(self):
        if not 0 < self.tol_grad < math.inf:
            raise ValueError("tol_grad must be finite and positive")
        if not 1 <= self.max_iters < math.inf:
            raise ValueError("max_iters must be finite and at least 1")


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
    # with the coarse step's, on either grid)
    fft_calls: int
    # iterations that used P alone, without the coarse step: where A was not
    # positive definite, and every one where the step does not run, in 1D
    # and with a constant potential
    coarse_fallbacks: int
    # iterations whose coarse step was formed on the n/2 grid (see
    # _coarse_step); not one of SOLVE_COUNTERS, so sweep.csv does not carry it
    coarse_half_grid: int


# SolveResult's counters in its field order, the one list that SweepRecord,
# sweep.csv and solve.json carry them by; solve.json also carries
# coarse_half_grid
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


def _coords(g: Grid, center) -> tuple:
    """The dilation's coordinates about center, one broadcastable array per
    axis: (L/pi) sin(pi (x_i - center_i) / L), x_i - center_i to third
    order near center, and smooth across the box's edge, where x_i jumps."""
    return tuple((g.half_width / np.pi
                  * np.sin(np.pi / g.half_width * (g.axes[i] - center[i]))
                  ).reshape((-1,) + (1,) * (g.d - 1 - i))
                 for i in range(g.d))


class _Workspace:
    """Every array one solve writes, each with its own memory, allocated
    once per call so that the loop allocates none of its own.

    One direction (d, D) and one P G (pg nodal, PG spectral): the last
    step's enter the next beta, read before the iteration writes over them.
    ghat is the gradient spectrum, delta and dhat the accepted step, rows
    the q/2 + 1 real rows of the line moments and half a half spectrum;
    rows, half and delta also serve as scratch.  levels are the grids the
    coarse step can be formed on, coarsest first (see _precondition): given
    a center, the n/2 grid when g can halve and g itself; else none, and
    the step does not run.
    """

    def __init__(self, g: Grid, center=None):
        self.delta, self.pg, self.d = (np.empty(g.shape) for _ in range(3))
        # a tuple of views, as the loop indexes them often
        self.rows = tuple(np.empty((critical_power(g.d) // 2 + 1, *g.shape)))
        self.dhat, self.half, self.PG, self.ghat, self.D = (
            np.empty(g.k_quad.shape, dtype=np.complex128) for _ in range(5))
        self.symbol = np.empty(g.k_quad.shape)
        self.levels = ()
        if center is not None:
            # make_grid's smallest grid is n = 8
            grids = (g,) if g.n < 16 else (
                make_grid(g.d, g.n // 2, g.half_width), g)
            self.levels = tuple(_Level(g, h, center, self) for h in grids)


class _Level:
    """One grid the coarse step can be formed on, and the arrays the step
    writes there, named as _coarse_step reads them: coords the dilation's
    coordinates about the center, read-only, z the d + 1 generators'
    spectra, rows, delta and half scratch.  blocks pairs each block of g's
    half spectrum that the level's band holds with its place in the
    level's, and scale is the ratio of g's unnormalized transforms to the
    level's: _restrict truncates through them, and _precondition scales the
    dilation's spectrum into P G through them.

    On g itself the level borrows the workspace's rows, delta and half, its
    only block is the whole spectrum, and scale is 1.  On the n/2 grid h,
    the band is the wavenumbers below n/4 in magnitude on every axis, scale
    is 2^d, x holds the iterate's values at h's nodes, every other node of
    g (the index nodes picks them), and X and ghat the iterate's and the
    gradient's spectra truncated onto the band.  h's Nyquist row and column
    lie outside it, and stay zero in X and ghat.
    """

    def __init__(self, g: Grid, h: Grid, center, ws: _Workspace):
        self.grid = h
        self.coords = _coords(h, center)
        self.z = np.empty((g.d + 1, *h.k_quad.shape), dtype=np.complex128)
        if h is g:
            self.rows, self.delta, self.half = ws.rows, ws.delta, ws.half
            whole = (slice(None),) * g.d
            self.blocks, self.scale = ((whole, whole),), 1.0
            return
        self.nodes = (slice(None, None, 2),) * g.d
        self.x, self.delta = (np.empty(h.shape) for _ in range(2))
        self.rows = tuple(np.empty((g.d + 2, *h.shape)))
        self.X, self.ghat, self.half = (
            np.zeros(h.k_quad.shape, dtype=np.complex128) for _ in range(3))
        m = h.n // 2
        low = (slice(0, m),) * g.d
        # in 2D, g's rows of wavenumbers -(m-1)..-1 are h's rows m+1..2m-1
        high = ((slice(1 - m, None), slice(0, m)),
                (slice(m + 1, None), slice(0, m)))
        self.blocks = ((low, low),) + ((high,) if g.d == 2 else ())
        self.scale = 2.0**g.d


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
def _moment_plan(q: int) -> tuple:
    """(C(q, j), k, j - k) with k = j // 2, from j = q down to 1: S_j's
    binomial and the two rows H_k, H_(j-k) whose inner product is S_j (see
    _line)."""
    return tuple((math.comb(q, j), j // 2, j - j // 2)
                 for j in range(q, 0, -1))


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
    w = g.cell
    q, a, mu = bd.q, bd.a, bd.mu
    xf, df = x.ravel(), d.ravel()
    xd2 = 2.0 * w * float(xf.dot(df))
    dd = w * float(df.dot(df))
    kd = np.multiply(g.k_quad_complex, D, out=ws.half)
    k1 = g.parseval(X, kd)
    k2 = g.parseval(D, kd)
    rows = ws.rows
    vd = np.multiply(vvals, d, out=rows[0]).ravel()
    p1 = w * float(vd.dot(xf))
    p2 = w * float(vd.dot(df))
    _monomials(x, d, rows)
    flat = [r.ravel() for r in rows]
    # C(q, j) S_j from j = q down to 1, in Horner order
    coef = [c * w * float(flat[lo].dot(flat[hi]))
            for c, lo, hi in _moment_plan(q)]
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


def _coarse_step(g: Grid, x, X, ghat, mass: float, vvals,
                 bd: EnergyBreakdown, sigma: float, lv: _Level):
    """The coarse step of the two-level preconditioner: the coefficients c
    of the generators Z of translation and dilation, or None.

    Z holds the partial derivatives d_i x (spectra i k_i X, nodal values by
    one inverse transform each) and the dilation Lambda x = s . grad x +
    (d/2) x projected onto the tangent space at x, which leaves s . grad x
    less its component along x (nodal, spectrum by one forward transform).
    s = lv.coords is the coordinate about the potential's minimum, where
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
    sums of Z^ with Z^, |k|^4 Z^ and G^ = ghat, the potential and nonlinear
    ones nodal inner products, each symmetric matrix's upper triangle only,
    and the (d+1) x (d+1) systems are solved in Python floats; numpy's
    matrix products would cost about 10 us a call at this size, and BLAS
    its work buffers.  mass is <x, x>.  None when A is not positive
    definite, far from a minimizer, where the Hessian has directions of
    negative curvature, or when a pivot of A is within roundoff of zero
    against B's (see _spd_solve).  Z^ is left in lv.z for _precondition.

    The step only has to be a good (d+1) x (d+1) Galerkin correction, so
    _precondition forms it on the n/2 grid h, at about two thirds of the
    cost (_precondition at solve_2d's state took 420 against 645 us on a
    2-core x86 VM, BLAS on one thread), while the iterate is resolved
    there: while the share of X's L2 norm outside h's band (every |k_i|
    below h's Nyquist wavenumber), sqrt(1 - <X_h, X_h> / mass) for X
    truncated onto that band, is below _HALF_GRID_TAIL = 1e-4.  g is then
    h, x the iterate's values at h's nodes, and X and ghat its and the
    gradient's spectra truncated onto h's band (see _restrict).  The
    samples of x, not the truncation's own nodal values, enter the nodal
    sums: they spare a transform and differ by the folded tail, less than
    1e-4 of the norm.  Otherwise the step is formed on the solve's grid.
    On 128^2/12 at tol_grad 1e-6 the final iterate's tail is 1.3e-7 for
    Harmonic(1) at a = 30 and 3.3e-6 and 3.7e-5 for the well a quarter
    node off the origin at a = 54 and 56, but 8.8e-4 for Harmonic(1) at
    a = 57, and 5.5e-3 and 5.8e-3 for the well at a = 57.5, off the origin
    and at it.  Those last three are above 1e-4 and rightly so: formed on
    h at their final iterates, A is indefinite (its dilation entry -4.7,
    -84 and -113), where on the solve's grid it is positive definite.
    """
    dim, m = g.d, g.d + 1
    z, zr, tmp = lv.z, lv.rows[:m], lv.delta
    for i in range(dim):
        np.multiply(g.ik[i], X, out=z[i])
        g.inverse(z[i], out=zr[i])
    lam = np.multiply(lv.coords[0], zr[0], out=zr[dim])
    for i in range(1, dim):
        lam += np.multiply(lv.coords[i], zr[i], out=tmp)
    lam -= np.multiply(x, float(lam.ravel().dot(x.ravel())) * g.cell / mass,
                       out=tmp)
    g.forward(lam, out=z[dim])
    # A's nodal part, with the Hessian's weight V - (a q (q-1)/2) x^(q-2);
    # mu enters with the Gram sums.  Upper triangles first, mirrored below
    # with the spectral sums.
    weight = np.multiply(x, x, out=lv.rows[-1])
    _nonlinear_weight(weight, out=weight)
    weight *= -0.5 * bd.a * bd.q * (bd.q - 1)
    weight += vvals
    w = g.cell
    a_mat = [[0.0] * m for _ in range(m)]
    for j in range(m):
        np.multiply(weight, zr[j], out=tmp)
        for i in range(j + 1):
            a_mat[i][j] = w * float(zr[i].ravel().dot(tmp.ravel()))
    # halved: c = sigma ((A/2)^-1 - (B/2)^-1) Z^T G
    b_mat = [[0.0] * m for _ in range(m)]
    r = []
    for j in range(m):
        k4z = np.multiply(g.k_quad_complex, z[j], out=lv.half)
        for i in range(j + 1):
            gram, kin = g.parseval(z[i], z[j]), g.parseval(z[i], k4z)
            a_mat[i][j] = a_mat[j][i] = a_mat[i][j] + kin - bd.mu * gram
            b_mat[i][j] = b_mat[j][i] = kin + sigma * gram
        r.append(g.parseval(z[j], ghat))
    b_solved = _spd_solve(b_mat, r)
    if b_solved is None:
        return None
    cb, b_pivots = b_solved
    a_solved = _spd_solve(a_mat, r, b_pivots)
    if a_solved is None:
        return None
    return [sigma * (p - q) for p, q in zip(a_solved[0], cb)]


def _restrict(g: Grid, x, X, ghat, mass: float, vvals, lv: _Level):
    """The iterate x, X, the gradient ghat, the mass <x, x> and the sampled
    potential vvals on lv's grid, in that order, or None when the iterate
    is not resolved there.  On g itself they are the loop's own arrays.  On
    the n/2 grid, X is truncated onto its band, into lv.X, and the share of
    X's L2 norm outside the band, sqrt(1 - <lv.X, lv.X> / mass), must be
    below _HALF_GRID_TAIL; then ghat is truncated into lv.ghat and x and
    vvals are sampled at the n/2 grid's nodes, x into lv.x."""
    h = lv.grid
    if h is g:
        return x, X, ghat, mass, vvals
    for src, dst in lv.blocks:
        np.multiply(X[src], 1.0 / lv.scale, out=lv.X[dst])
    if h.parseval(lv.X, lv.X) < (1.0 - _HALF_GRID_TAIL**2) * mass:
        return None
    for src, dst in lv.blocks:
        np.multiply(ghat[src], 1.0 / lv.scale, out=lv.ghat[dst])
    np.copyto(lv.x, x[lv.nodes])
    xf = lv.x.ravel()
    return lv.x, lv.X, lv.ghat, h.cell * float(xf.dot(xf)), vvals[lv.nodes]


def _precondition(g: Grid, x, X, mass: float, vvals, bd: EnergyBreakdown,
                  sigma: float, ws: _Workspace):
    """Write the preconditioned gradient into ws.PG: P G, with
    P = sigma / (sigma + |k|^4), plus the coarse step's sum_i c_i Z_i (see
    _coarse_step).  The step is formed on the first of ws.levels that
    resolves the iterate (see _restrict), and applied on g: the
    translations by their exact spectra i k_i X, the dilation by its
    spectrum on the level, scaled into P G's spectrum through the level's
    blocks.  Returns the grid the step was formed on, or None when it is
    P G alone: the workspace has no levels, or A is not positive
    definite."""
    symbol = np.add(g.k_quad, sigma, out=ws.symbol)
    np.divide(sigma, symbol, out=symbol)
    PG = np.multiply(symbol, ws.ghat, out=ws.PG)
    for lv in ws.levels:
        state = _restrict(g, x, X, ws.ghat, mass, vvals, lv)
        if state is not None:
            break
    else:
        return None
    coef = _coarse_step(lv.grid, *state, bd, sigma, lv)
    if coef is None:
        return None
    for ik, ci in zip(g.ik, coef):
        zi = np.multiply(ik, X, out=ws.half)
        zi *= ci
        PG += zi
    lam = lv.z[-1]
    lam *= coef[-1] * lv.scale
    for src, dst in lv.blocks:
        band = PG[src]
        band += lam[dst]
    return lv.grid


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
    iteration uses the first level alone in 1D, in 2D when the sampled
    potential is constant (the dilation is centred on its minimum, and
    with V = 0 the step took 161 iterations at a = 50 on 128^2/12 where P
    alone takes 107), and when the Hessian on that span is not positive
    definite; SolveResult.coarse_fallbacks counts those iterations, and
    coarse_half_grid those whose step was formed on the n/2 grid.  Trial
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
    w = g.cell
    vvals = sample(V, g).values

    def inner(x, y):
        return w * float(x.ravel().dot(y.ravel()))

    def status_of(bd, res):
        if bd.total < ENERGY_FLOOR:
            return SolveStatus.DIVERGED_BELOW_FLOOR
        if res <= cfg.tol_grad:
            return SolveStatus.CONVERGED
        return None

    # the coarse step runs in 2D only: at 1D sizes an iteration is about a
    # hundred microseconds of small array calls, and on warm-started
    # sweeps the step's transforms and sums cost more than the iterations
    # it saves.  Its dilation is centred on the potential's minimum, which
    # a constant V does not have: there the step's generators carry no
    # soft mode, and P alone takes fewer iterations
    ws = _Workspace(g, potential_argmin(V, g)
                    if g.d > 1 and vvals.max() > vvals.min() else None)
    # the coarse step's d + 1 transforms, on whichever level it is formed
    step_ffts = (g.d + 1) * bool(ws.levels)
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
    coarse_half_grid = 0
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
        step_grid = _precondition(g, x, X, mass, vvals, bd, sigma, ws)
        coarse_fallbacks += step_grid is None
        coarse_half_grid += step_grid is not None and step_grid is not g
        PG = ws.PG
        pg = g.inverse(PG, out=ws.pg)
        fft_calls += 1 + step_ffts
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
                       fft_calls=fft_calls, coarse_fallbacks=coarse_fallbacks,
                       coarse_half_grid=coarse_half_grid)


def write_iteration_log(result: SolveResult, path) -> None:
    """Dump the iteration history as CSV: iter, energy, grad_residual, step_size."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "energy", "grad_residual", "step_size"])
        for it, total, res, step in result.history:
            writer.writerow([it, f"{total:.17g}", f"{res:.17g}", f"{step:.17g}"])

