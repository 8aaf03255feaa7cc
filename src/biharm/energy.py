"""The constrained energy, its gradient, its multiplier and the sharp-constant
quotient.

For a field u of unit mass on a d-dimensional grid the energy at coupling a
is

    kinetic + potential - a * nonlinear
      = int |Lap u|^2 + int V |u|^2 - a * int |u|^q,

with q = 2(1 + 4/d) the mass-critical power of the fourth-order problem.
Every power of the field, here and in the solver and the fixed point, comes
from one kernel, field._nonlinear_weight.  The nonlinear term is its plain
nodal quadrature, which aliases: grid-scale states reach quotients far
below a_star.  The gradient below is that quadrature's exact discrete
gradient — the pair is what makes finite-difference consistency and
monotone line searches hold to rounding.  The multiplier of
the mass constraint, mu = kinetic + potential - (a q / 2) nonlinear, is
EnergyBreakdown.mu.

Every kinetic term is a Parseval sum (Grid.parseval) over the half
spectrum of Grid.forward, the one spectral format.  The Field-level
functions (energy, energy_difference, constrained_gradient, ...) are the
reference evaluations, and the gradient is built on one implementation of
the Euler-Lagrange operator Lap^2 u + V u - (a q / 2) |u|^{q-2} u.  The
solver's inner loop uses the array-level spectral_energy_and_gradient
instead, on the nodal values and transform it carries: it returns the
projected gradient as a half spectrum, from one forward transform, and
writes only into the arrays its caller passes in.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .field import (Field, _nonlinear_weight, bilap_apply, bilap_energy,
                    l2_norm_sq, lq_integral)
from .grid import Grid, quadrature
from .potentials import sample


def critical_power(d: int) -> int:
    """Mass-critical nonlinearity power q = 2(1 + 4/d)."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    return 10 if d == 1 else 6


def critical_shift(d: int) -> float:
    """c1 = (q - 2)/2 = 4/d at the mass-critical power q.

    For a unit-mass state the multiplier kinetic + potential - (a q / 2)
    nonlinear equals -c1 (kinetic + potential) + (q/2) total, so near the
    threshold, where the energy stays bounded while the kinetic one grows,
    it tends to -c1 kinetic: the shift of the fixed point's operator
    Lap^2 + c1 at the state's own scale.
    """
    return 0.5 * (critical_power(d) - 2)


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    nonlinear: float
    total: float
    a: float
    q: int

    @property
    def mu(self) -> float:
        """Lagrange multiplier of the mass constraint,
        <u, Lap^2 u + V u - (a q / 2) |u|^{q-2} u>."""
        return (self.kinetic + self.potential
                - 0.5 * self.a * self.q * self.nonlinear)


def energy(u: Field, V, a: float) -> EnergyBreakdown:
    """Evaluate the three quadratures and their combination."""
    g = u.grid
    q = critical_power(g.d)
    kin = bilap_energy(u)
    pot = quadrature(g, sample(V, g).values * u.values**2)
    non = lq_integral(u)
    return EnergyBreakdown(kin, pot, non, kin + pot - a * non, float(a), q)


def energy_difference(u: Field, delta: np.ndarray, V, a: float,
                      mu: float = 0.0) -> float:
    """E(v) - E(u) - mu * (mass(v) - mass(u)) for v = u + delta, from delta.

    v has the values u + delta and the transform u.hat + forward(delta).
    Every term is a sum of delta-weighted products:

        kinetic     sum |k|^4 Re(conj(delta_hat) (delta_hat + 2 u_hat))
        potential   sum V delta (v + u)
        nonlinear   sum delta (v + u) sum_{j < q/2} v^{2j} u^{q-2-2j}
        mass        sum delta (v + u)

    so the result carries rounding relative to the step, not to the energy,
    and stays exact where subtracting two energy() totals is pure roundoff.
    mu subtracts the mass change, which for the multiplier of u removes the
    first-order effect of renormalization roundoff.  It is the reference for
    the solver's closed-form line energy.

    The sums run in extended precision (numpy's longdouble, transforms
    included), and each term is rounded once, on return.  Near a minimizer
    the kinetic, potential and nonlinear changes are each about 1e5 times
    their sum, the slope, so double-precision sums of a few hundred terms
    lose some of it: 5.1e-10 at the 2D test fixture (slope 2e-11), half
    the 1e-9 to which the closed form is tested against this, and more at
    smaller slopes.  Where numpy's longdouble is double (MSVC, macOS on
    arm64) the sums run in double all the same, with a RuntimeWarning that
    says so.
    """
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        warnings.warn("numpy's longdouble is double precision here: "
                      "energy_difference may lose about 1e-9 of an energy "
                      "change near a minimizer", RuntimeWarning,
                      stacklevel=2)
    g = u.grid
    q = critical_power(g.d)
    x = u.values.astype(np.longdouble)
    delta = np.asarray(delta, dtype=np.longdouble)
    dhat = g.forward(delta)
    vv = x + delta
    s = delta * (vv + x)  # delta (v + u)
    vv *= vv
    uu = x * x
    poly = vv + uu
    upow = uu.copy()
    for _ in range(q // 2 - 2):
        poly *= vv
        upow *= uu
        poly += upow
    kin = g.parseval(dhat, g.k_quad * (dhat + 2.0 * u.hat))
    rest = (np.vdot(s, sample(V, g).values) - a * np.vdot(s, poly)
            - mu * np.sum(s))
    return float(kin + g.dx**g.d * rest)


def spectral_energy_and_gradient(g: Grid, x: np.ndarray, X: np.ndarray,
                                 vvals: np.ndarray, a: float,
                                 out: np.ndarray, work: tuple):
    """Breakdown, projected gradient spectrum and the gradient's L2 norm
    from one forward transform.

    x are the nodal values of the state and X = g.forward(x) its
    transform (carried alongside x by the solver rather than recomputed);
    vvals is the sampled potential.  Returns (EnergyBreakdown, G_hat, |G|)
    with G_hat the half spectrum of the gradient of energy() projected as
    constrained_gradient projects it, written into out:

        G_hat = 2 |k|^4 X + forward(2 V x - a q x^(q-1)) - c X,
        c = (2 kinetic + 2 potential - a q nonlinear) / (dx^d sum x^2).

    The kinetic term and |G| are Parseval sums over the half spectrum, the
    rest are nodal quadratures, and the only transform is the forward one
    of the nodal part.  work is two real arrays of the grid's shape and one
    complex array of its half spectrum, all overwritten.
    """
    q = critical_power(g.d)
    w = g.dx**g.d
    xq1, vx, khat = work
    np.multiply(x, x, out=xq1)
    mass = np.sum(xq1)
    _nonlinear_weight(xq1, out=xq1)
    xq1 *= x  # x^(q-1)
    np.multiply(vvals, x, out=vx)
    np.multiply(g.k_quad, X, out=khat)
    kin = g.parseval(X, khat)
    pot = w * float(np.vdot(vx, x))
    non = w * float(np.vdot(xq1, x))
    vx *= 2.0
    xq1 *= a * q
    vx -= xq1  # the nodal part of the raw gradient
    ghat = g.forward(vx, out=out)
    khat *= 2.0
    ghat += khat
    ghat -= np.multiply(X, (2.0 * (kin + pot) - a * q * non) / (w * mass),
                        out=khat)
    bd = EnergyBreakdown(kin, pot, non, kin + pot - a * non, float(a), q)
    return bd, ghat, float(np.sqrt(g.parseval(ghat, ghat)))


def _unconstrained_gradient(u: Field, V, a: float) -> np.ndarray:
    """Nodal values of the L2 gradient of the energy, twice the
    Euler-Lagrange operator Lap^2 u + V u - (a q / 2) |u|^{q-2} u."""
    q = critical_power(u.grid.d)
    x = u.values
    vvals = sample(V, u.grid).values
    return 2.0 * (bilap_apply(u).values + vvals * x
                  - (a * q / 2.0) * _nonlinear_weight(x * x) * x)


def constrained_gradient(u: Field, V, a: float) -> Field:
    """L2 gradient of the energy projected onto the mass sphere's tangent
    space: G = G_raw - (<G_raw, u>/<u, u>) u, so <G, u> = 0 to rounding."""
    g = u.grid
    raw = _unconstrained_gradient(u, V, a)
    coef = quadrature(g, raw * u.values) / quadrature(g, u.values**2)
    return Field(g, raw - coef * u.values)


def gn_quotient(u: Field) -> float:
    """Dilation- and scale-invariant quotient whose infimum is the sharp
    interpolation constant: kinetic * mass^{(q-2)/2} / nonlinear."""
    q = critical_power(u.grid.d)
    non = lq_integral(u)
    if non <= 0.0:
        raise ValueError("quotient undefined for the zero field")
    return bilap_energy(u) * l2_norm_sq(u) ** ((q - 2) / 2.0) / non


def el_residual(u: Field):
    """Least-squares stationarity fit.

    Fits constants (c1, c2) minimizing || Lap^2 u + c1*u - c2*|u|^{q-2}u ||
    and returns (c1, c2, residual) with the residual relative to
    ||Lap^2 u||.  A minimizer of the quotient satisfies the fitted equation
    with positive constants; the normalized profile pins both to 1.

    With the columns A = [u, -|u|^{q-2}u] the fit is the 2x2 normal system
    G c = -A^T Lap^2 u, G = A^T A, formed from five dot products and solved
    by Cramer's rule in Python floats; the residual is then evaluated
    directly, not from G.  Raises ValueError when the two columns are
    numerically collinear, det G <= 1e-12 G_11 G_22 (a constant field, or
    one of values +-c), which makes the normal equations degenerate.
    """
    bi = bilap_apply(u).values.ravel()
    base = u.values.ravel()
    pw = (_nonlinear_weight(u.values * u.values) * u.values).ravel()
    g11 = float(base @ base)
    g12 = -float(base @ pw)
    g22 = float(pw @ pw)
    det = g11 * g22 - g12 * g12
    if det <= 1e-12 * g11 * g22:
        raise ValueError(
            "degenerate stationarity fit: u and |u|^{q-2}u are collinear")
    r1 = -float(base @ bi)
    r2 = float(pw @ bi)
    c1 = (g22 * r1 - g12 * r2) / det
    c2 = (g11 * r2 - g12 * r1) / det
    res = np.linalg.norm(bi + c1 * base - c2 * pw)
    scale = np.linalg.norm(bi)
    return c1, c2, float(res / scale)
