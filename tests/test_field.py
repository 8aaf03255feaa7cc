import ast
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from biharm import (
    Field,
    ResolutionWarning,
    bilap_apply,
    bilap_energy,
    density_center,
    dilate,
    h2_norm_sq,
    l2_norm_sq,
    lq_integral,
    make_grid,
    read_snapshot,
    renormalize_mass,
    translate,
    write_snapshot,
)
from biharm.blowup import _h2_after_best_shift
from biharm.energy import critical_power
from biharm.field import (_chirp_plan, _nonlinear_weight, _refined_values,
                          _roll, gaussian_mixture_field, random_smooth_field)
from biharm.grid import quadrature
from conftest import h2_distance, reflect

SQRT_PI = np.sqrt(np.pi)


# -- closed-form Gaussian facts: u = exp(-x^2/2) on the 1d box ---------------

def test_gaussian_mass(gauss1):
    assert_allclose(l2_norm_sq(gauss1), SQRT_PI, rtol=1e-12)


def test_gaussian_fourth_order_seminorm(gauss1):
    # Lap u = (x^2 - 1) exp(-x^2/2); the squared integral reduces to
    # moments of exp(-x^2): 3/4 - 2*(1/2) + 1 = 3/4 in units of sqrt(pi).
    assert_allclose(bilap_energy(gauss1), 0.75 * SQRT_PI, rtol=1e-12)


def test_gaussian_tenth_power(gauss1):
    assert_allclose(lq_integral(gauss1), np.sqrt(np.pi / 5.0), rtol=1e-12)


def test_gaussian_h2(gauss1):
    assert_allclose(h2_norm_sq(gauss1), 1.75 * SQRT_PI, rtol=1e-12)


def test_gaussian_2d_mass(g2_small):
    mx, my = g2_small.meshes()
    u = Field(g2_small, np.exp(-0.5 * (mx**2 + my**2)))
    assert_allclose(l2_norm_sq(u), np.pi, rtol=1e-12)


# -- spectral bookkeeping ----------------------------------------------------

def test_parseval(g1, rng):
    u = random_smooth_field(g1, rng)
    assert_allclose(u.grid.parseval(u.hat, u.hat), l2_norm_sq(u), rtol=1e-12)


def test_bilap_apply_on_cosine_mode(g1):
    x = g1.axes[0]
    kap = 3 * np.pi / 16.0
    u = Field(g1, np.cos(kap * x))
    v = bilap_apply(u)
    # absolute floor reflects FFT roundoff amplified by the |k|^4 symbol
    assert_allclose(v.values, kap**4 * u.values, rtol=0, atol=1e-7)


def test_hat_is_cached(gauss1):
    assert gauss1.hat is gauss1.hat


# -- dilation ----------------------------------------------------------------

@pytest.mark.parametrize("ell", [0.5, 0.8, 1.25, 2.0])
def test_dilate_matches_analytic_gaussian(g1, ell):
    x = g1.axes[0]
    u = Field(g1, np.pi**-0.25 * np.exp(-0.5 * x**2))
    v = dilate(u, ell)
    target = ell**0.5 * np.pi**-0.25 * np.exp(-0.5 * (ell * x) ** 2)
    assert_allclose(v.values, target, rtol=0, atol=1e-11)


@pytest.mark.parametrize("ell", [0.5, 0.8, 1.25, 2.0])
def test_dilate_scaling_laws(gauss1, ell):
    v = dilate(gauss1, ell)
    assert_allclose(l2_norm_sq(v), l2_norm_sq(gauss1), rtol=1e-10)
    assert_allclose(bilap_energy(v), ell**4 * bilap_energy(gauss1), rtol=1e-8)
    # at the critical power q = 10 in one dimension the |u|^q integral
    # scales by ell^(q/2 - 1) = ell^4 as well
    assert_allclose(lq_integral(v), ell**4 * lq_integral(gauss1),
                    rtol=1e-8)


def test_dilate_identity_is_noop(gauss1):
    assert dilate(gauss1, 1.0) is gauss1
    assert dilate(gauss1, 1.0, center=0.5, to=0.5) is gauss1
    # by one, a placement is the translation from center to to
    moved = dilate(gauss1, 1.0, center=0.5, to=2.0)
    assert np.array_equal(moved.values, translate(gauss1, (1.5,)).values)


def test_dilate_warns_when_under_resolved(gauss1):
    with pytest.warns(ResolutionWarning):
        dilate(gauss1, 40.0)
    with pytest.warns(ResolutionWarning):
        dilate(gauss1, 0.05)


def test_dilate_rejects_nonpositive(gauss1):
    with pytest.raises(ValueError):
        dilate(gauss1, -1.0)


@pytest.mark.parametrize("move, name", [
    (lambda u: dilate(u, np.nan), "ell"),
    (lambda u: dilate(u, np.inf), "ell"),
    (lambda u: dilate(u, 2.0, center=np.nan), "center"),
    (lambda u: dilate(u, 1.0, center=-np.inf), "center"),
    (lambda u: dilate(u, 2.0, to=np.inf), "to"),
    (lambda u: dilate(u, 0.5, to=np.nan), "to"),
    (lambda u: translate(u, np.nan), "shift"),
    (lambda u: translate(u, (np.inf,)), "shift"),
])
def test_placements_reject_non_finite_arguments(gauss1, move, name,
                                                count_transforms):
    # rejected before any transform, by a message naming the argument
    calls = count_transforms()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} "):
            move(gauss1)
    assert calls == []


@pytest.mark.parametrize("ell", [1.0, 2.0])
def test_dilate_rejects_misshapen_placement(gauss1, ell):
    # a 1D grid takes one coordinate, whether or not ell moves anything
    with pytest.raises(ValueError):
        dilate(gauss1, ell, to=(1.0, 2.0))
    with pytest.raises(ValueError):
        dilate(gauss1, ell, center=np.zeros((1, 1)))


def _dense_dilation(u, ell, center=0.0, to=0.0):
    """Reference dilation: the interpolant summed at every scaled node,
    center + ell * (x - to) with x - to the periodic distance, each axis's
    Nyquist mode taking the real phase cos(k_max y)."""
    g = u.grid
    x = g.axes[0]
    L = g.half_width
    evs, tapers = [], []
    for c, t in np.broadcast_to(np.array([center, to], dtype=float).T,
                                (g.d, 2)):
        dist = np.mod(x - t + L, 2.0 * L) - L
        ev = np.exp(1j * np.outer(c + ell * dist + L, g.wavenumbers[0]))
        ev[:, g.n // 2] = ev[:, g.n // 2].real
        evs.append(ev)
        r = np.clip((np.abs(ell * dist) / L - 0.75) / 0.25, 0.0, 1.0)
        tapers.append(1.0 - r**3 * (r * (6.0 * r - 15.0) + 10.0))
    hat = np.fft.fftn(u.values)
    if g.d == 1:
        vals = (evs[0] @ hat).real * (ell**0.5 / g.n)
    else:
        vals = (evs[0] @ hat @ evs[1].T).real * (ell / g.n**2)
    if (ell - 1.0) * L > 0.5 * g.dx:
        vals = vals * (tapers[0] if g.d == 1
                       else np.outer(tapers[0], tapers[1]))
    return vals


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
@pytest.mark.parametrize("d,n,half_width", [(1, 512, 16.0), (1, 2048, 16.0),
                                            (2, 128, 12.0)])
def test_dilate_matches_dense_interpolant(d, n, half_width):
    # a field moved to center, so that the scaled positions about it stay
    # on the field; the target to sits elsewhere, off the nodes
    g = make_grid(d, n, half_width)
    u0 = random_smooth_field(g, np.random.default_rng(7))
    for center, to in (((0.0, 0.0), (0.0, 0.0)), ((1.3, -2.1), (-0.77, 3.3)),
                       ((-5.2, 4.05), (7.9, -half_width + 0.3))):
        center, to = np.array(center[:d]), np.array(to[:d])
        u = translate(u0, center)
        for ell in (0.37, 0.8, 1.3, 2.0, 4.0, 6.0):
            ref = _dense_dilation(u, ell, center, to)
            err = np.max(np.abs(dilate(u, ell, center, to).values - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (center, to, ell, err)


def test_dilate_plan_is_shared_read_only_and_stateless():
    g = make_grid(1, 256, 12.0)
    # an equal grid that is another object finds the same plan
    twin = dataclasses.replace(g)
    assert twin is not g and _chirp_plan(twin) is _chirp_plan(g)
    for arr in _chirp_plan(g):
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    u = random_smooth_field(g, np.random.default_rng(3))
    first = dilate(u, 1.7, center=0.4, to=-1.3).values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        for other, ell in ((make_grid(2, 32, 8.0), 0.6),
                           (make_grid(1, 512, 16.0), 2.5), (g, 0.8),
                           (g, 3.0)):
            dilate(random_smooth_field(other, np.random.default_rng(4)), ell,
                   center=0.2, to=0.9)
    assert np.array_equal(dilate(u, 1.7, center=0.4, to=-1.3).values, first)


def test_roll_equals_np_roll(rng):
    # dilate rolls its output by whole nodes with _roll, two slices and a
    # concatenate, in place of np.roll's general path
    v = rng.standard_normal((8, 8))
    for r in (-9, -1, 0, 3, 8, 11):
        for ax in (0, 1):
            assert np.array_equal(_roll(v, r, ax), np.roll(v, r, axis=ax))


# -- translation, recentering, reflection ------------------------------------

def test_translate_matches_analytic(g1, gauss1):
    x = g1.axes[0]
    v = translate(gauss1, 1.5)
    assert_allclose(v.values, np.exp(-0.5 * (x - 1.5) ** 2), rtol=0,
                    atol=1e-12)


def test_recenter_centroid(g1):
    x = g1.axes[0]
    u = Field(g1, np.exp(-0.5 * (x - 3.0) ** 2))
    center = density_center(u)
    assert_allclose(center, [3.0], atol=1e-8)
    centered = dilate(u, 1.0, center=center)
    assert_allclose(centered.values, np.exp(-0.5 * x**2), rtol=0, atol=1e-8)


def test_recenter_2d(g2_small):
    mx, my = g2_small.meshes()
    u = Field(g2_small, np.exp(-0.5 * ((mx - 1.0) ** 2 + (my + 2.0) ** 2)))
    center = density_center(u)
    assert_allclose(center, [1.0, -2.0], atol=1e-8)
    assert_allclose(dilate(u, 1.0, center=center).values,
                    np.exp(-0.5 * (mx**2 + my**2)), rtol=0, atol=1e-8)


@pytest.mark.parametrize("d", [1, 2])
def test_density_center_equals_its_reference_formula(d, g1, g2_small, rng):
    # the centroid by np.mod on array temporaries: the operations
    # density_center runs in place, so the same bits; the node half a box
    # from the peak, at -L and +L alike, is displaced by 0, and the offset
    # gives that node a density the sum does not round away
    g = g1 if d == 1 else g2_small
    u = Field(g, random_smooth_field(g, rng).values + 0.1)
    dens = u.values**2
    peak = np.unravel_index(int(np.argmax(dens)), g.shape)
    L, span = g.half_width, 2.0 * g.half_width
    ref = []
    for ax, x in enumerate(g.axes):
        marginal = dens if d == 1 else dens.sum(axis=1 - ax)
        disp = np.mod(x - x[peak[ax]] + L, span) - L
        disp[(peak[ax] + g.n // 2) % g.n] = 0.0
        c = x[peak[ax]] + float((marginal * disp).sum() / dens.sum())
        ref.append(np.mod(c + L, span) - L)
    assert density_center(u).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_density_center_of_an_even_field_is_zero(d):
    # the node at -L has no mirror node at +L; counted at -L it would pull
    # the centre of e^{-|x|^2/2} on 64/4 to -L u(-L)^2 / sum u^2 = -3.2e-8
    g = make_grid(d, 64, 4.0)
    u = Field(g, np.exp(-0.5 * sum(m**2 for m in g.meshes())))
    assert density_center(u).tolist() == [0.0] * d


def test_recenter_wraps_across_boundary(g1):
    x = g1.axes[0]
    # density peak near the periodic seam; unwrapped centroid must not
    # land in the box middle
    u = Field(g1, np.exp(-0.5 * (np.mod(x - 15.5 + 16.0, 32.0) - 16.0) ** 2))
    center = density_center(u)
    assert_allclose(dilate(u, 1.0, center=center).values,
                    np.exp(-0.5 * x**2), rtol=0, atol=1e-8)
    assert_allclose(np.abs(center), [15.5], atol=1e-8)


def test_reflect(g1, gauss1):
    x = g1.axes[0]
    v = reflect(translate(gauss1, 1.5))
    assert_allclose(v.values, np.exp(-0.5 * (x + 1.5) ** 2), rtol=0,
                    atol=1e-12)


def test_reflect_involution(g1, rng):
    u = random_smooth_field(g1, rng)
    assert_allclose(reflect(reflect(u)).values, u.values, rtol=0, atol=0)


# -- normalization and arithmetic --------------------------------------------

def test_renormalize_mass(gauss1):
    v = renormalize_mass(gauss1 * 3.0)
    assert_allclose(l2_norm_sq(v), 1.0, rtol=1e-14)
    assert_allclose(v.values, renormalize_mass(gauss1).values, rtol=1e-14)
    with pytest.raises(ValueError):
        renormalize_mass(Field(gauss1.grid, np.zeros(gauss1.grid.shape)))


def test_field_arithmetic(g1, gauss1):
    w = 2.0 * gauss1 - gauss1
    assert_allclose(w.values, gauss1.values, rtol=0, atol=0)
    assert_allclose((-gauss1).values, -gauss1.values)
    assert h2_distance(gauss1, gauss1) == 0.0
    assert_allclose(h2_distance(2.0 * gauss1, gauss1) ** 2,
                    h2_norm_sq(gauss1), rtol=1e-12)


def test_field_validation(g1):
    with pytest.raises(ValueError):
        Field(g1, np.ones(17))
    bad = np.ones(g1.shape)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g1, bad)


def test_mixed_grid_arithmetic_rejected(g1, g1_coarse):
    u = Field(g1, np.ones(g1.shape))
    v = Field(g1_coarse, np.ones(g1_coarse.shape))
    with pytest.raises(ValueError):
        u + v


def test_lq_refine_agrees_when_resolved(gauss1):
    coarse = lq_integral(gauss1, refine=1)
    fine = lq_integral(gauss1, refine=2)
    assert_allclose(fine, coarse, rtol=1e-10)
    with pytest.raises(ValueError):
        lq_integral(gauss1, refine=0)


# -- the nonlinear kernel: the one place a power of the field is taken --------


@pytest.mark.parametrize("d,n,half_width", [(1, 512, 16.0), (2, 64, 8.0)])
@pytest.mark.parametrize("make", [random_smooth_field, gaussian_mixture_field])
def test_nonlinear_weight_matches_the_power(d, n, half_width, make):
    g = make_grid(d, n, half_width)
    q = critical_power(d)
    rng = np.random.default_rng(17)
    signed = False
    for _ in range(3):
        u = make(g, rng)
        x = u.values
        signed |= bool(np.any(x < 0))
        # atol: a subnormal result carries too few digits for a relative test
        assert_allclose(_nonlinear_weight(x * x) * x,
                        np.abs(x) ** (q - 2) * x,
                        rtol=8 * np.finfo(float).eps,
                        atol=np.finfo(float).tiny)
        assert_allclose(lq_integral(u), quadrature(g, np.abs(x) ** q),
                        rtol=1e-14)
    assert signed


def test_every_power_of_the_field_goes_through_the_kernel():
    # a power taken anywhere else would escape a change of the quadrature
    src = Path(__file__).resolve().parents[1] / "src" / "biharm"
    power = re.compile(r"\*\* *\(?q|abs\(.*\) *\*\*|q == 10")
    tree = ast.parse((src / "field.py").read_text())
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_nonlinear_weight")
    hits = []
    for name in ("energy", "field", "gn", "groundstate", "blowup"):
        lines = (src / f"{name}.py").read_text().splitlines()
        for i, line in enumerate(lines, 1):
            in_kernel = (name == "field"
                         and kernel.lineno <= i <= kernel.end_lineno)
            if power.search(line) and not in_kernel:
                hits.append(f"{name}.py:{i}: {line.strip()}")
    assert not hits


def test_every_move_of_a_field_goes_through_dilate():
    # dilate is the one placement map: nothing outside field.py translates
    src = Path(__file__).resolve().parents[1] / "src" / "biharm"
    calls = []
    for path in sorted(src.glob("*.py")):
        if path.name == "field.py":
            continue
        tree = ast.parse(path.read_text())
        defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "translate" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                owner = next((f.name for f in defs
                              if f.lineno <= node.lineno <= f.end_lineno),
                             "<module>")
                calls.append(f"{path.stem}.{owner}")
    assert calls == []


# -- the half spectrum against full-spectrum oracles --------------------------
#
# The translation and refinement oracles act one axis at a time through the
# complex 1D transform, so in 2D they are tensor products of 1D maps: a
# corner coefficient at (n/2, n/2) stands for all four modes (+-n/2, +-n/2).

def _full_k(g):
    return np.stack(np.meshgrid(*g.wavenumbers, indexing="ij"))


def _full_k4(g):
    return (_full_k(g) ** 2).sum(axis=0) ** 2


def _oracle_translate(u, shift):
    g = u.grid
    vals = u.values
    for ax in range(g.d):
        phase = np.exp(-1j * g.wavenumbers[ax] * shift[ax])
        phase = phase.reshape([-1 if a == ax else 1 for a in range(g.d)])
        vals = np.fft.ifft(np.fft.fft(vals, axis=ax) * phase, axis=ax).real
    return vals


def _oracle_h2_distance(u, v):
    g = u.grid
    hat = np.fft.fftn(u.values - v.values)
    scale = g.dx**g.d / g.n**g.d
    return np.sqrt(scale * np.sum((1.0 + _full_k4(g)) * np.abs(hat) ** 2))


def _oracle_best_shift_distance(w, ref):
    """The H2 distance minimized over translations by Nelder-Mead from
    s = 0, on full-spectrum translations and distances throughout."""
    g = w.grid
    best = optimize.minimize(
        lambda s: _oracle_h2_distance(Field(g, _oracle_translate(w, s)), ref),
        np.zeros(g.d), method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-12))
    return best.fun


def _oracle_refined(u, factor):
    g = u.grid
    pad = (g.n * factor - g.n) // 2
    vals = u.values
    for ax in range(g.d):
        hat = np.fft.fftshift(np.fft.fft(vals, axis=ax), axes=ax)
        width = [(pad, pad) if a == ax else (0, 0) for a in range(g.d)]
        hat = np.fft.ifftshift(np.pad(hat, width), axes=ax)
        vals = np.fft.ifft(hat, axis=ax).real * factor
    return vals


@pytest.mark.parametrize("d,n,half_width", [(1, 512, 16.0), (2, 128, 8.0)])
def test_half_spectrum_matches_full_spectrum_oracles(d, n, half_width):
    g = make_grid(d, n, half_width)
    rng = np.random.default_rng(11)
    u, v = random_smooth_field(g, rng), random_smooth_field(g, rng)
    hat = np.fft.fftn(u.values)
    k4 = _full_k4(g)
    scale = g.dx**g.d / g.n**g.d

    def close(value, oracle):
        err = np.max(np.abs(np.asarray(value) - oracle))
        assert err <= 1e-12 * np.max(np.abs(oracle)), err

    close(bilap_energy(u), scale * np.sum(k4 * np.abs(hat) ** 2))
    close(u.grid.parseval(u.hat, u.hat), scale * np.sum(np.abs(hat) ** 2))
    close(bilap_apply(u).values, np.fft.ifftn(k4 * hat).real)
    shift = np.array([0.3, -0.2][:d]) * g.dx + 0.7
    close(translate(u, shift).values, _oracle_translate(u, shift))
    q = 10 if d == 1 else 6
    dxf = g.dx / 2
    close(lq_integral(u, refine=2),
          dxf**d * np.sum(np.abs(_oracle_refined(u, 2)) ** q))
    # w is u moved off the grid plus a perturbation, so the search has an
    # interior optimum and the distance there is far from zero
    w = Field(g, _oracle_translate(u, 0.3 * g.dx * np.ones(d))) + 0.1 * v
    close(_h2_after_best_shift(w, u), _oracle_best_shift_distance(w, u))


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
@pytest.mark.parametrize("d,n,half_width", [(1, 64, 8.0), (2, 32, 8.0)])
def test_nyquist_modes_of_white_noise(d, n, half_width):
    # white noise fills the Nyquist modes, which stand for both +n/2 and
    # -n/2: refinement must split them for the interpolant to pass through
    # every node, and translation must give them the real phase
    g = make_grid(d, n, half_width)
    u = Field(g, np.random.default_rng(5).standard_normal(g.shape))
    top = np.max(np.abs(u.values))
    fine = _refined_values(u, 2)
    coarse = fine[::2] if d == 1 else fine[::2, ::2]
    assert np.max(np.abs(coarse - u.values)) <= 1e-13 * top
    assert np.max(np.abs(fine - _oracle_refined(u, 2))) <= 1e-13 * top
    shift = np.array([0.3, -0.2][:d]) * g.dx
    moved = translate(u, shift).values
    assert np.max(np.abs(moved - _oracle_translate(u, shift))) <= 1e-13 * top
    # the Parseval sums weigh the Nyquist column once, as the full spectrum
    # holds it; smooth fields carry too little there to tell
    hat = np.fft.fftn(u.values)
    scale = g.dx**g.d / g.n**g.d
    mass = scale * np.sum(np.abs(hat) ** 2)
    kin = scale * np.sum(_full_k4(g) * np.abs(hat) ** 2)
    assert abs(u.grid.parseval(u.hat, u.hat) - mass) <= 1e-12 * mass
    assert abs(bilap_energy(u) - kin) <= 1e-12 * kin
    v = Field(g, np.random.default_rng(6).standard_normal(g.shape))
    w = Field(g, moved) + 0.1 * v
    best = _oracle_best_shift_distance(w, u)
    assert abs(_h2_after_best_shift(w, u) - best) <= 1e-12 * best
    # dilation gives the Nyquist modes the same real phase, so that it is
    # continuous in ell through 1, where it is translate
    center, to = np.array([0.37, -1.1][:d]), np.array([-2.3, 0.71][:d])
    for ell in (0.8, 1.3, 3.0):
        err = dilate(u, ell, center, to).values - _dense_dilation(
            u, ell, center, to)
        assert np.max(np.abs(err)) <= 1e-12 * top, ell
    near = dilate(u, 1.0 + 1e-13, center, to).values
    assert np.max(np.abs(near - translate(u, to - center).values)) <= (
        1e-10 * top)


def test_best_shift_reaches_the_distance_minimum_on_white_noise():
    # translate damps Nyquist modes by cos(k_max s), so the norm of the moved
    # field changes with s: a search maximizing the correlation read 122.33
    # here, where the distance reaches 120.81
    g = make_grid(2, 32, 8.0)
    u = Field(g, np.random.default_rng(5).standard_normal(g.shape))
    v = Field(g, np.random.default_rng(6).standard_normal(g.shape))
    w = translate(u, np.array([0.3, -0.2]) * g.dx) + 0.1 * v
    direct = optimize.minimize(
        lambda s: h2_distance(translate(w, s), u),
        np.array([-0.3, 0.2]) * g.dx, method="Nelder-Mead",
        options=dict(xatol=1e-10, fatol=1e-12))
    assert _h2_after_best_shift(w, u) <= direct.fun * (1.0 + 1e-9)


# -- random fields -----------------------------------------------------------

def test_random_smooth_field_unit_mass(g1):
    rng = np.random.default_rng(7)
    u = random_smooth_field(g1, rng)
    assert_allclose(l2_norm_sq(u), 1.0, rtol=1e-13)
    v = random_smooth_field(g1, np.random.default_rng(7))
    assert_allclose(v.values, u.values, rtol=0, atol=0)


def test_random_smooth_field_2d(g2_small):
    u = random_smooth_field(g2_small, np.random.default_rng(3))
    assert u.values.shape == (64, 64)
    assert_allclose(l2_norm_sq(u), 1.0, rtol=1e-13)


# -- snapshot files ----------------------------------------------------------

def test_snapshot_round_trip_bit_exact(g1, rng, tmp_path):
    u = random_smooth_field(g1, rng)
    path = tmp_path / "u.bhf"
    write_snapshot(u, path)
    v = read_snapshot(path)
    assert np.array_equal(v.values, u.values)
    assert (v.grid.d, v.grid.n, v.grid.half_width) == (1, 512, 16.0)
    w = read_snapshot(path, grid=g1)
    assert w.grid is g1


def test_snapshot_header_contents(gauss1, tmp_path):
    import json

    path = tmp_path / "u.bhf"
    write_snapshot(gauss1, path)
    with open(path, "rb") as fh:
        meta = json.loads(fh.readline().decode("utf-8"))
    assert meta == {"d": 1, "n": 512, "half_width": 16.0, "count": 512}


def test_snapshot_2d_round_trip(g2_small, rng, tmp_path):
    u = random_smooth_field(g2_small, rng)
    path = tmp_path / "u2.bhf"
    write_snapshot(u, path)
    v = read_snapshot(path)
    assert np.array_equal(v.values, u.values)


def test_snapshot_payload_must_match_the_header_count(gauss1, tmp_path):
    path = tmp_path / "u.bhf"
    write_snapshot(gauss1, path)
    raw = path.read_bytes()
    with open(path, "ab") as fh:
        fh.write(bytes(8))
    with pytest.raises(ValueError, match="payload bytes"):
        read_snapshot(path)
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload bytes"):
        read_snapshot(path)
    path.write_bytes(raw)
    assert np.array_equal(read_snapshot(path).values, gauss1.values)


def test_snapshot_grid_mismatch(gauss1, g1_coarse, tmp_path):
    path = tmp_path / "u.bhf"
    write_snapshot(gauss1, path)
    with pytest.raises(ValueError):
        read_snapshot(path, grid=g1_coarse)


def test_snapshot_malformed_header(tmp_path):
    path = tmp_path / "bad.bhf"
    path.write_bytes(b"not json\n" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_snapshot(path)
