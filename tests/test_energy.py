import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharm import (Field, bilap_energy, dilate, l2_norm_sq, load_gn,
                    lq_integral, make_grid, renormalize_mass)
from biharm.energy import (
    _unconstrained_gradient,
    constrained_gradient,
    critical_power,
    el_residual,
    energy,
    gn_quotient,
)
from biharm.field import (bilap_apply, gaussian_mixture_field,
                          random_smooth_field)
from biharm.grid import quadrature
from biharm.potentials import GaussianWell, Harmonic, Zero
from conftest import energy_difference


@pytest.fixture(scope="module")
def gpi():
    # small box of half-width pi: integer-frequency trigonometric fields
    # are exact grid modes here
    return make_grid(1, 64, np.pi)


def test_critical_power():
    assert critical_power(1) == 10
    assert critical_power(2) == 6
    with pytest.raises(ValueError):
        critical_power(3)


def test_energy_constant_field(gpi):
    u = Field(gpi, np.full(gpi.shape, (2 * np.pi) ** -0.5))
    assert_allclose(l2_norm_sq(u), 1.0, rtol=1e-14)
    br = energy(u, Zero(), 1.0)
    assert br.kinetic == 0.0
    assert br.potential == 0.0
    assert_allclose(br.total, -((2 * np.pi) ** -4.0), rtol=1e-12)


def test_energy_cosine_mode(gpi):
    x = gpi.axes[0]
    u = Field(gpi, np.sqrt(2) * (2 * np.pi) ** -0.5 * np.cos(x))
    assert_allclose(l2_norm_sq(u), 1.0, rtol=1e-13)
    br = energy(u, Zero(), 0.0)
    assert_allclose(br.total, 1.0, rtol=1e-12)
    assert_allclose(br.kinetic, 1.0, rtol=1e-12)


def test_energy_against_fine_quadrature(g1):
    # independent oracle: 10x finer plain quadrature of the analytic
    # Gaussian profile (kinetic via the closed-form second derivative)
    x = g1.axes[0]
    u = Field(g1, np.pi**-0.25 * np.exp(-0.5 * x**2))
    br = energy(u, Harmonic(1.0), 0.5)
    xf = -16.0 + (g1.dx / 10.0) * np.arange(10 * g1.n)
    uf = np.pi**-0.25 * np.exp(-0.5 * xf**2)
    lap = np.pi**-0.25 * (xf**2 - 1.0) * np.exp(-0.5 * xf**2)
    dxf = g1.dx / 10.0
    assert_allclose(br.kinetic, np.sum(lap**2) * dxf, rtol=1e-9)
    assert_allclose(br.potential, np.sum(xf**2 * uf**2) * dxf, rtol=1e-9)
    assert_allclose(br.nonlinear, np.sum(uf**10) * dxf, rtol=1e-9)
    assert_allclose(br.total,
                    np.sum(lap**2 + xf**2 * uf**2 - 0.5 * uf**10) * dxf,
                    rtol=1e-9)


def test_energy_affine_in_coupling(g1, rng):
    u = random_smooth_field(g1, rng)
    V = GaussianWell(1.0, 1.0, (0.0,))
    a_star_like = 16.0
    values = {a: energy(u, V, a).total for a in (0.0, a_star_like / 2,
                                                 a_star_like)}
    non = energy(u, V, 0.0).nonlinear
    assert_allclose(values[a_star_like / 2] - values[0.0],
                    -a_star_like / 2 * non, rtol=1e-12)
    assert_allclose(values[a_star_like] - values[0.0],
                    -a_star_like * non, rtol=1e-12)


def scaled_energy_identity_check(u: Field, a: float, ell: float) -> float:
    """Absolute defect of the dilation identity at zero potential.

    Mass-preserving dilation multiplies both the kinetic and the critical
    nonlinear term by ell^4, so energy(dilate(u, ell)) must equal
    ell^4 * (kinetic - a * nonlinear); the return value is the absolute
    difference, which vanishes to spectral accuracy for resolved ell.

    The |u|^q terms on both sides are lq_integral's on a 4 times finer
    grid: squeezing (ell > 1) pushes the q-th power's spectrum past the
    native Nyquist band well before the field itself degrades, and the
    identity should measure the dilation, not the nodal quadrature's
    aliasing.
    """
    v = dilate(u, ell)
    lhs = bilap_energy(v) - a * lq_integral(v, refine=4)
    rhs = ell**4 * (bilap_energy(u) - a * lq_integral(u, refine=4))
    return abs(lhs - rhs)


def test_scaling_identity(g1, gauss1, rng):
    u = renormalize_mass(gauss1)
    assert scaled_energy_identity_check(u, 1.0, 1.0) == 0.0
    v = gaussian_mixture_field(g1, rng)
    br = energy(v, Zero(), 0.0)
    scale = 1.5**4 * (br.kinetic + 2.0 * br.nonlinear)
    assert scaled_energy_identity_check(v, 2.0, 1.5) < 1e-8 * scale
    scale_u = 2.0**4 * (energy(u, Zero(), 0.0).kinetic
                        + 1.0 * energy(u, Zero(), 0.0).nonlinear)
    assert scaled_energy_identity_check(u, 1.0, 2.0) < 1e-8 * scale_u


def test_constrained_gradient_tangency(g1, rng):
    V = GaussianWell(1.0, 1.0, (0.0,))
    for _ in range(5):
        u = random_smooth_field(g1, rng)
        gr = constrained_gradient(u, V, 3.0)
        ip = quadrature(g1, gr.values * u.values)
        assert abs(ip) < 1e-12 * max(1.0, float(np.abs(gr.values).max()))


def test_gradient_finite_difference_consistency(g1, rng):
    # central differences of the energy along random directions must match
    # the unprojected gradient pairing with second-order convergence
    V = GaussianWell(1.0, 1.0, (0.0,))
    a = 2.0
    u = random_smooth_field(g1, rng)
    raw = _unconstrained_gradient(u, V, a)
    for k in range(3):
        phi = random_smooth_field(g1, rng).values
        pairing = quadrature(g1, raw * phi)
        errs = []
        for h in (1e-3, 1e-4):
            up = Field(g1, u.values + h * phi)
            dn = Field(g1, u.values - h * phi)
            fd = (energy(up, V, a).total - energy(dn, V, a).total) / (2 * h)
            errs.append(abs(fd - pairing))
        ratio = errs[0] / max(errs[1], 1e-300)
        assert errs[1] < 1e-6
        assert 30.0 < ratio < 300.0   # h^2 convergence: nominal factor 100


def test_gn_quotient_gaussian_closed_form(g1):
    x = g1.axes[0]
    u = Field(g1, np.exp(-0.5 * x**2))
    target = 0.75 * np.sqrt(5.0) * np.pi**2
    assert_allclose(gn_quotient(u), target, rtol=1e-9)


def test_gn_quotient_invariances(g1, gauss1, rng):
    u = gaussian_mixture_field(g1, rng)
    j = gn_quotient(u)
    for ell in (0.5, 0.8, 1.25, 2.0):
        assert abs(gn_quotient(dilate(u, ell)) - j) < 1e-8 * j
    assert gn_quotient(3.7 * u) == pytest.approx(j, rel=1e-12)
    with pytest.raises(ValueError):
        gn_quotient(Field(g1, np.zeros(g1.shape)))


# -- the grid's own sharp constant --------------------------------------------
# A state a few nodes wide has a quotient far below a_star, because the |u|^q
# term is summed at the nodes.  Strict xfails: they turn into passes once the
# nonlinear quadrature is free of aliasing.

A_STAR_1D = json.loads((Path(__file__).parent / "fixtures"
                        / "reference_d1.json").read_text())["a_star"]
A_STAR_2D = 57.580213854  # compute_gn on 2D 128^2/16
NODE_SUM = ("the |u|^q quadrature is a node sum, which aliases: grid-scale "
            "states reach quotients below a_star")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=NODE_SUM)
def test_grid_scale_state_respects_a_star_1d():
    g = make_grid(1, 512, 16.0)
    vals = np.zeros(g.shape)
    c = g.n // 2
    vals[c - 1:c + 2] = (0.3, 1.0, 0.3)
    # 11.48 with node sums, against 15.92
    assert gn_quotient(Field(g, vals)) >= A_STAR_1D * (1 - 1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=NODE_SUM)
def test_grid_scale_state_respects_a_star_2d():
    g = make_grid(2, 128, 12.0)
    vals = np.zeros(g.shape)
    c = g.n // 2
    vals[c - 1:c + 2, c] = vals[c, c - 1:c + 2] = 0.3
    vals[c, c] = 1.0
    # 43.64 with node sums, against 57.58
    assert gn_quotient(Field(g, vals)) >= A_STAR_2D * (1 - 1e-9)


def test_el_residual_degenerate_on_constant(gpi):
    u = Field(gpi, np.full(gpi.shape, 0.3))
    with pytest.raises(ValueError):
        el_residual(u)


def test_el_residual_degenerate_on_alternating_signs(gpi):
    # |u|^{q-2}u = c^{q-2} u on a field of values +-c: collinear columns
    u = Field(gpi, 0.3 * (-1.0) ** np.arange(gpi.n))
    with pytest.raises(ValueError):
        el_residual(u)


def _planted_field(g1):
    x = g1.axes[0]
    return Field(g1, np.exp(-0.5 * x**2) + 0.1 * np.exp(-0.5 * (x - 1) ** 2))


def _el_fit_inputs():
    # the stored 1D Q, the planted-equation field, and 20 seeded random
    # fields of each generator in 1D and in 2D
    stored = Path(__file__).parents[1] / "perfbench" / "data" / "gn_d1_n512"
    yield pytest.param(lambda: load_gn(stored).Q, id="stored_Q")
    yield pytest.param(lambda: _planted_field(make_grid(1, 512, 16.0)),
                       id="planted")
    for d, n, half_width in ((1, 256, 16.0), (2, 64, 12.0)):
        for gen in (random_smooth_field, gaussian_mixture_field):
            for seed in range(20):
                yield pytest.param(
                    lambda d=d, n=n, hw=half_width, gen=gen, seed=seed: gen(
                        make_grid(d, n, hw), np.random.default_rng(seed)),
                    id=f"{gen.__name__}-{d}d-{seed}")


@pytest.mark.parametrize("make_field", _el_fit_inputs())
def test_el_residual_matches_lstsq(make_field):
    # the closed-form normal equations against LAPACK's least squares on
    # the same two columns
    u = make_field()
    c1, c2, res = el_residual(u)
    bi = bilap_apply(u).values.ravel()
    base = u.values.ravel()
    pw = np.abs(base) ** (critical_power(u.grid.d) - 2) * base
    coef, *_ = np.linalg.lstsq(np.stack([base, -pw], axis=1), -bi,
                               rcond=None)
    assert_allclose([c1, c2], coef, rtol=1e-10)
    # the residual is a norm relative to ||Lap^2 u||: roundoff bounds its
    # absolute error, however small the residual itself
    r = np.linalg.norm(bi + coef[0] * base - coef[1] * pw)
    assert_allclose(res, r / np.linalg.norm(bi), rtol=0.0, atol=1e-12)


def test_el_residual_recovers_planted_equation(g1):
    # plant a field that satisfies Lap^2 u + c1 u - c2 |u|^8 u = r with a
    # tiny controlled r by solving for the field spectrally is circular;
    # instead verify the fit on an exact relation: for u a single cosine
    # mode the cubic-free identity Lap^2 u = kappa^4 u forces c1 = -kappa^4
    # only if the nonlinear column is orthogonal; use a two-mode field and
    # check the residual definition directly against a hand-built lstsq.
    u = _planted_field(g1)
    c1, c2, res = el_residual(u)
    bi = bilap_apply(u).values
    pw = np.abs(u.values) ** 8 * u.values
    A = np.stack([u.values, -pw], axis=1)
    coef, *_ = np.linalg.lstsq(A, -bi, rcond=None)
    assert_allclose([c1, c2], coef, rtol=1e-10)
    r = np.linalg.norm(bi + c1 * u.values - c2 * pw) / np.linalg.norm(bi)
    assert_allclose(res, r, rtol=1e-12)


def test_chemical_potential_cosine_eigenmode(gpi):
    x = gpi.axes[0]
    u = Field(gpi, np.sqrt(2) * (2 * np.pi) ** -0.5 * np.cos(x))
    assert_allclose(energy(u, Zero(), 0.0).mu, 1.0, rtol=1e-12)


def test_chemical_potential_linear_case_is_energy(g1):
    x = g1.axes[0]
    u = renormalize_mass(Field(g1, np.exp(-0.5 * x**2)))
    br = energy(u, Harmonic(1.0), 0.0)
    assert_allclose(br.mu, br.kinetic + br.potential, rtol=1e-12)


def test_stationarity_residual_for_cosine(gpi):
    # an eigenmode of the linear problem is exactly stationary: at unit mass
    # the constrained gradient is 2 (Lap^2 u - mu u)
    x = gpi.axes[0]
    u = Field(gpi, np.sqrt(2) * (2 * np.pi) ** -0.5 * np.cos(x))
    assert np.sqrt(l2_norm_sq(constrained_gradient(u, Zero(), 0.0))) < 2e-10


@pytest.mark.parametrize("geom,center", [((1, 512, 16.0), (0.0,)),
                                         ((2, 64, 12.0), (0.0, 0.0))])
def test_breakdown_mu_is_the_multiplier(geom, center):
    # mu = <u, Lap^2 u + V u - (a q / 2) |u|^{q-2} u>, half the pairing of
    # u with the unconstrained gradient, on the mass sphere and off it
    g = make_grid(*geom)
    V = GaussianWell(1.0, 1.0, center)
    a = 6.0
    r2 = sum(m**2 for m in g.meshes())
    base = renormalize_mass(Field(g, np.exp(-r2 / (2.0 * 0.8**2))))
    for mass in (0.5, 1.0, 2.0):
        u = base * mass**0.5
        assert_allclose(l2_norm_sq(u), mass, rtol=1e-13)
        raw = _unconstrained_gradient(u, V, a)
        pairing = 0.5 * quadrature(g, u.values * raw)
        assert_allclose(energy(u, V, a).mu, pairing, rtol=1e-12)


def test_star_import_binds_all_exports():
    # every exported name is bound, once; the multiplier lives on
    # EnergyBreakdown, not in functions of its own
    import biharm

    ns = {}
    exec("from biharm import *", ns)
    assert len(set(biharm.__all__)) == len(biharm.__all__)
    assert [n for n in biharm.__all__ if n not in ns] == []
    for gone in ("chemical_potential", "stationarity_residual"):
        assert gone not in biharm.__all__
        assert not hasattr(biharm, gone)


# one case per critical power: q = 10 on a line, q = 6 in the plane
DIFF_CASES = [((1, 256, 16.0), (0.0,), 12.0), ((2, 64, 12.0), (0.0, 0.0), 20.0)]


@pytest.mark.parametrize("geom,center,a", DIFF_CASES)
def test_energy_difference_matches_energy_totals(geom, center, a):
    g = make_grid(*geom)
    V = GaussianWell(1.0, 1.0, center)
    r2 = sum(m**2 for m in g.meshes())
    u = renormalize_mass(Field(g, np.exp(-r2 / (2.0 * 0.7**2))))
    v = renormalize_mass(u - constrained_gradient(u, V, a) * 1e-2)
    e_u = energy(u, V, a).total
    de = energy_difference(u, v.values - u.values, V, a)
    assert abs(de - (energy(v, V, a).total - e_u)) <= 1e-12 * abs(e_u)


def _preconditioned(grad: Field) -> Field:
    g = grad.grid
    return Field(g, g.inverse(g.forward(grad.values) / (1 + g.k_quad)))


@pytest.mark.parametrize("geom,center,a", DIFF_CASES)
def test_energy_difference_resolves_tiny_steps(geom, center, a):
    # a near-stationary state and a unit preconditioned descent direction:
    # at t = 1e-9 the difference of two energy() totals is dominated by
    # their roundoff, while the kernel still recovers the slope.  The state
    # comes from fixed half steps of preconditioned descent, not from solve,
    # so no line search decides where it stops (9 steps on either grid:
    # naive/kernel errors 1.2e-5/8.1e-8 and 3.4e-6/5.7e-9 of the slope)
    g = make_grid(*geom)
    V = GaussianWell(1.0, 1.0, center)
    r2 = sum(m**2 for m in g.meshes())
    u = renormalize_mass(Field(g, np.exp(-r2 / (2.0 * 0.7**2))))
    grad = constrained_gradient(u, V, a)
    while l2_norm_sq(grad) > 3e-2**2:
        u = renormalize_mass(u - _preconditioned(grad) * 0.5)
        grad = constrained_gradient(u, V, a)
    d = _preconditioned(grad)
    d = d * (1.0 / np.sqrt(l2_norm_sq(d)))
    slope = -quadrature(g, grad.values * d.values)
    t = 1e-9
    v = renormalize_mass(u - d * t)
    delta = v.values - u.values
    de = energy_difference(u, delta, V, a, energy(u, V, a).mu)
    naive = energy(v, V, a).total - energy(u, V, a).total
    assert abs(de / t - slope) <= 1e-6 * abs(slope)
    assert abs(naive / t - slope) > 1e-6 * abs(slope)


def test_energy_difference_warns_without_extended_precision(monkeypatch):
    # where numpy's longdouble is double, the reference says it runs in
    # double and still returns the difference
    g = make_grid(1, 64, 8.0)
    u = renormalize_mass(Field(g, np.exp(-g.axes[0] ** 2)))
    delta = 1e-3 * u.values
    want = energy_difference(u, delta, Zero(), 2.0)
    finfo = np.finfo

    def double_only(dtype):
        return finfo(np.float64 if dtype is np.longdouble else dtype)

    monkeypatch.setattr(np, "finfo", double_only)
    with pytest.warns(RuntimeWarning, match="longdouble is double"):
        got = energy_difference(u, delta, Zero(), 2.0)
    assert got == want
