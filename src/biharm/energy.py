"""The constrained energy, its gradient, the sharp-constant quotient, and
stationarity diagnostics.

For a field u of unit mass on a d-dimensional grid the energy at coupling a
is

    kinetic + potential - a * nonlinear
      = int |Lap u|^2 + int V |u|^2 - a * int |u|^q,

with q = 2(1 + 4/d) the mass-critical power of the fourth-order problem.
The nonlinear term is the plain pointwise quadrature, and the gradient below
is its exact discrete gradient — the pair is what makes finite-difference
consistency and monotone line searches hold to rounding.

The Field-level functions (energy, constrained_gradient, ...) are the
reference evaluations.  The solver's inner loop uses the array-level
spectral_energy_and_gradient and spectral_energy_difference instead, on the
nodal values and real transform it carries and with work arrays it owns
(SpectralScratch); energy_difference is the Field-level wrapper of the
latter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import Field, bilap_apply, bilap_energy, l2_norm_sq, lq_integral
from .grid import Grid, quadrature
from .potentials import sample


def critical_power(d: int) -> int:
    """Mass-critical nonlinearity power q = 2(1 + 4/d)."""
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    return 10 if d == 1 else 6


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    nonlinear: float
    total: float
    a: float
    q: int


def energy(u: Field, V, a: float) -> EnergyBreakdown:
    """Evaluate the three quadratures and their combination."""
    g = u.grid
    q = critical_power(g.d)
    kin = bilap_energy(u)
    pot = quadrature(g, sample(V, g).values * u.values**2)
    non = lq_integral(u, q)
    return EnergyBreakdown(kin, pot, non, kin + pot - a * non, float(a), q)


def energy_difference(u: Field, delta: np.ndarray, V, a: float,
                      mu: float = 0.0) -> float:
    """E(v) - E(u) - mu * (mass(v) - mass(u)) for v = u + delta, from delta.

    The Field-level form of spectral_energy_difference: it transforms u and
    delta and hands both states to that kernel.
    """
    g = u.grid
    x = u.values
    return spectral_energy_difference(g, x, g.rforward(x), delta,
                                      g.rforward(delta), sample(V, g).values,
                                      a, mu)


class SpectralScratch:
    """Work arrays the spectral kernels overwrite: five real arrays of the
    grid's shape and one complex array of its half spectrum.

    The solver makes one per solve and hands it to every evaluation; a
    kernel called without one allocates a fresh one.
    """

    __slots__ = ("real", "half")

    def __init__(self, g: Grid):
        self.real = tuple(np.empty(g.shape) for _ in range(5))
        self.half = np.empty(g.rk_quad.shape, dtype=np.complex128)


def spectral_energy_difference(g: Grid, x: np.ndarray, X: np.ndarray,
                               delta: np.ndarray, dhat: np.ndarray,
                               vvals: np.ndarray, a: float, mu: float,
                               scratch: SpectralScratch | None = None
                               ) -> float:
    """E(v) - E(u) - mu * (mass(v) - mass(u)) for the state u with values x
    and real transform X = g.rforward(x), and v = u + delta.

    dhat is the real transform of delta (in the solver, the same linear
    combination of X and the direction's transform that delta is of x and
    the direction, so no FFT is needed), and v has the values x + delta and
    the transform X + dhat.  Every term is a sum of delta-weighted products:

        kinetic     sum |k|^4 Re(conj(delta_hat) (delta_hat + 2 u_hat))
        potential   sum V delta (v + u)
        nonlinear   sum delta (v + u) sum_{j < q/2} v^{2j} u^{q-2-2j}
        mass        sum delta (v + u)

    so the result carries rounding relative to the step, not to the energy,
    and stays exact where subtracting two energy() totals is pure roundoff.
    mu subtracts the mass change, which for the multiplier of u removes the
    first-order effect of renormalization roundoff.  The work arrays come
    from scratch, which is overwritten.
    """
    q = critical_power(g.d)
    if scratch is None:
        scratch = SpectralScratch(g)
    vv, s, uu, poly, upow = scratch.real
    khat = scratch.half
    np.add(x, delta, out=vv)
    np.add(vv, x, out=s)
    s *= delta  # delta (v + u)
    vv *= vv
    np.multiply(x, x, out=uu)
    np.add(vv, uu, out=poly)
    np.copyto(upow, uu)
    for _ in range(q // 2 - 2):
        poly *= vv
        upow *= uu
        poly += upow
    np.add(X, X, out=khat)
    khat += dhat
    khat *= g.rk_quad_parseval  # |k|^4 (delta_hat + 2 u_hat), Parseval-weighted
    kin = np.vdot(dhat, khat).real
    rest = np.vdot(s, vvals) - a * np.vdot(s, poly) - mu * np.sum(s)
    return float(g.dx**g.d * (kin / g.n**g.d + rest))


def spectral_energy_and_gradient(g: Grid, x: np.ndarray, X: np.ndarray,
                                 vvals: np.ndarray, a: float,
                                 out: np.ndarray | None = None,
                                 scratch: SpectralScratch | None = None):
    """Breakdown, projected gradient and its L2 norm from one inverse
    transform.

    x are the nodal values of the state and X = g.rforward(x) its real
    transform (carried alongside x by the solver rather than recomputed);
    vvals is the sampled potential.  Returns (EnergyBreakdown, G, |G|) with
    G the gradient of energy() projected as constrained_gradient projects
    it, written into out when given.  The kinetic term is the Parseval sum
    over X, the rest are nodal quadratures, and the only transform is
    g.rinverse(|k|^4 X).  The work arrays come from scratch, which is
    overwritten.
    """
    q = critical_power(g.d)
    w = g.dx**g.d
    if scratch is None:
        scratch = SpectralScratch(g)
    xq1, vx = scratch.real[:2]
    khat = scratch.half
    np.multiply(x, x, out=xq1)
    mass = np.sum(xq1)
    xq1 *= xq1
    if q == 10:
        xq1 *= xq1
    xq1 *= x  # x^(q-1) by multiplication: x^5 in 2D, x^9 in 1D
    np.multiply(vvals, x, out=vx)
    np.multiply(g.rk_quad_parseval, X, out=khat)
    kin = w / g.n**g.d * np.vdot(X, khat).real
    pot = w * np.vdot(vx, x)
    non = w * np.vdot(xq1, x)
    grad = g.rinverse(np.multiply(g.rk_quad, X, out=khat), out=out)
    grad += vx
    grad *= 2.0
    xq1 *= a * q
    grad -= xq1  # the raw gradient
    grad -= np.multiply(x, np.vdot(grad, x) / mass, out=vx)
    bd = EnergyBreakdown(float(kin), float(pot), float(non),
                         float(kin + pot - a * non), float(a), q)
    return bd, grad, float(np.sqrt(w * np.vdot(grad, grad)))


def scaled_energy_identity_check(u: Field, a: float, ell: float,
                                 refine: int = 2) -> float:
    """Absolute defect of the dilation identity at zero potential.

    Mass-preserving dilation multiplies both the kinetic and the critical
    nonlinear term by ell^4, so energy(dilate(u, ell)) must equal
    ell^4 * (kinetic - a * nonlinear); the return value is the absolute
    difference, which vanishes to spectral accuracy for resolved ell.

    refine controls the quadrature grid of the |u|^q terms on both sides:
    squeezing (ell > 1) pushes the q-th power's spectrum past the native
    Nyquist band well before the field itself degrades, and the identity
    should measure the dilation, not that aliasing.
    """
    from .field import dilate

    g = u.grid
    q = critical_power(g.d)
    v = dilate(u, ell)
    lhs = (bilap_energy(v) - a * lq_integral(v, q, refine=refine))
    rhs = ell**4 * (bilap_energy(u) - a * lq_integral(u, q, refine=refine))
    return abs(lhs - rhs)


def _unconstrained_gradient(u: Field, V, a: float) -> np.ndarray:
    q = critical_power(u.grid.d)
    vvals = sample(V, u.grid).values
    return (2.0 * bilap_apply(u).values + 2.0 * vvals * u.values
            - a * q * np.abs(u.values) ** (q - 2) * u.values)


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
    non = lq_integral(u, q)
    if non <= 0.0:
        raise ValueError("quotient undefined for the zero field")
    return bilap_energy(u) * l2_norm_sq(u) ** ((q - 2) / 2.0) / non


def el_residual(u: Field):
    """Least-squares stationarity fit.

    Fits constants (c1, c2) minimizing || Lap^2 u + c1*u - c2*|u|^{q-2}u ||
    and returns (c1, c2, residual) with the residual relative to
    ||Lap^2 u||.  A minimizer of the quotient satisfies the fitted equation
    with positive constants; the normalized profile pins both to 1.

    Raises ValueError when u and |u|^{q-2}u are numerically collinear (a
    constant field), which makes the normal equations degenerate.
    """
    g = u.grid
    q = critical_power(g.d)
    bi = bilap_apply(u).values.ravel()
    base = u.values.ravel()
    pw = (np.abs(u.values) ** (q - 2) * u.values).ravel()
    A = np.stack([base, -pw], axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise ValueError(
            "degenerate stationarity fit: u and |u|^{q-2}u are collinear")
    (c1, c2), *_ = np.linalg.lstsq(A, -bi, rcond=None)
    res = np.linalg.norm(bi + c1 * base - c2 * pw)
    scale = np.linalg.norm(bi)
    return float(c1), float(c2), float(res / scale)


def chemical_potential(u: Field, V, a: float) -> float:
    """Lagrange multiplier of the mass constraint at u:
    mu = <u, Lap^2 u + V u - (a q / 2) |u|^{q-2} u>."""
    g = u.grid
    q = critical_power(g.d)
    vvals = sample(V, g).values
    op = (bilap_apply(u).values + vvals * u.values
          - (a * q / 2.0) * np.abs(u.values) ** (q - 2) * u.values)
    return float(quadrature(g, u.values * op))


def stationarity_residual(u: Field, V, a: float) -> float:
    """L2 norm of (Lap^2 + V - (aq/2)|u|^{q-2})u - mu*u at the constrained
    multiplier mu — the first-order optimality defect of a unit-mass state."""
    g = u.grid
    q = critical_power(g.d)
    vvals = sample(V, g).values
    mu = chemical_potential(u, V, a)
    r = (bilap_apply(u).values + vvals * u.values
         - (a * q / 2.0) * np.abs(u.values) ** (q - 2) * u.values
         - mu * u.values)
    return float(np.sqrt(quadrature(g, r**2)))
