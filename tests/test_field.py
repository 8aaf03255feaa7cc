import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharm import (
    Field,
    ResolutionWarning,
    bilap_apply,
    bilap_energy,
    dilate,
    h2_distance,
    h2_norm_sq,
    l2_norm_sq,
    lq_integral,
    make_grid,
    read_snapshot,
    recenter,
    reflect,
    renormalize_mass,
    translate,
    write_snapshot,
)
from biharm.blowup import _h2_after_best_shift
from biharm.field import (_refined_values, l2_norm_sq_spectral,
                          random_smooth_field)

SQRT_PI = np.sqrt(np.pi)


# -- closed-form Gaussian facts: u = exp(-x^2/2) on the 1d box ---------------

def test_gaussian_mass(gauss1):
    assert_allclose(l2_norm_sq(gauss1), SQRT_PI, rtol=1e-12)


def test_gaussian_fourth_order_seminorm(gauss1):
    # Lap u = (x^2 - 1) exp(-x^2/2); the squared integral reduces to
    # moments of exp(-x^2): 3/4 - 2*(1/2) + 1 = 3/4 in units of sqrt(pi).
    assert_allclose(bilap_energy(gauss1), 0.75 * SQRT_PI, rtol=1e-12)


def test_gaussian_tenth_power(gauss1):
    assert_allclose(lq_integral(gauss1, 10), np.sqrt(np.pi / 5.0), rtol=1e-12)


def test_gaussian_h2(gauss1):
    assert_allclose(h2_norm_sq(gauss1), 1.75 * SQRT_PI, rtol=1e-12)


def test_gaussian_2d_mass(g2_small):
    mx, my = g2_small.meshes()
    u = Field(g2_small, np.exp(-0.5 * (mx**2 + my**2)))
    assert_allclose(l2_norm_sq(u), np.pi, rtol=1e-12)


# -- spectral bookkeeping ----------------------------------------------------

def test_parseval(g1, rng):
    u = random_smooth_field(g1, rng)
    assert_allclose(l2_norm_sq_spectral(u), l2_norm_sq(u), rtol=1e-12)


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
    assert_allclose(lq_integral(v, 10), ell**4 * lq_integral(gauss1, 10),
                    rtol=1e-8)


def test_dilate_identity_is_noop(gauss1):
    assert dilate(gauss1, 1.0) is gauss1


def test_dilate_warns_when_under_resolved(gauss1):
    with pytest.warns(ResolutionWarning):
        dilate(gauss1, 40.0)
    with pytest.warns(ResolutionWarning):
        dilate(gauss1, 0.05)


def test_dilate_rejects_nonpositive(gauss1):
    with pytest.raises(ValueError):
        dilate(gauss1, -1.0)


def _dense_dilation(u, ell):
    """Reference dilation: the interpolant summed at every scaled node."""
    g = u.grid
    x = g.axes[0]
    ev = np.exp(1j * np.outer(ell * x + g.half_width, g.wavenumbers[0]))
    hat = np.fft.fftn(u.values)
    if g.d == 1:
        vals = (ev @ hat).real * (ell**0.5 / g.n)
    else:
        vals = (ev @ hat @ ev.T).real * (ell / g.n**2)
    if (ell - 1.0) * g.half_width > 0.5 * g.dx:
        t = np.clip((np.abs(ell * x) / g.half_width - 0.75) / 0.25, 0.0, 1.0)
        taper = 1.0 - t**3 * (t * (6.0 * t - 15.0) + 10.0)
        vals = vals * (taper if g.d == 1 else np.outer(taper, taper))
    return vals


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
@pytest.mark.parametrize("d,n,half_width", [(1, 512, 16.0), (1, 2048, 16.0),
                                            (2, 128, 12.0)])
def test_dilate_matches_dense_interpolant(d, n, half_width):
    g = make_grid(d, n, half_width)
    u = random_smooth_field(g, np.random.default_rng(7))
    for ell in (0.37, 0.8, 1.3, 2.0, 4.0, 6.0):
        ref = _dense_dilation(u, ell)
        err = np.max(np.abs(dilate(u, ell).values - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), (ell, err)


# -- translation, recentering, reflection ------------------------------------

def test_translate_matches_analytic(g1, gauss1):
    x = g1.axes[0]
    v = translate(gauss1, 1.5)
    assert_allclose(v.values, np.exp(-0.5 * (x - 1.5) ** 2), rtol=0,
                    atol=1e-12)


def test_recenter_centroid(g1):
    x = g1.axes[0]
    u = Field(g1, np.exp(-0.5 * (x - 3.0) ** 2))
    centered, shift = recenter(u)
    assert_allclose(shift, [-3.0], atol=1e-8)
    assert_allclose(centered.values, np.exp(-0.5 * x**2), rtol=0, atol=1e-8)


def test_recenter_2d(g2_small):
    mx, my = g2_small.meshes()
    u = Field(g2_small, np.exp(-0.5 * ((mx - 1.0) ** 2 + (my + 2.0) ** 2)))
    centered, shift = recenter(u)
    assert_allclose(shift, [-1.0, 2.0], atol=1e-8)
    assert_allclose(centered.values, np.exp(-0.5 * (mx**2 + my**2)),
                    rtol=0, atol=1e-8)


def test_recenter_wraps_across_boundary(g1):
    x = g1.axes[0]
    # density peak near the periodic seam; unwrapped centroid must not
    # land in the box middle
    u = Field(g1, np.exp(-0.5 * (np.mod(x - 15.5 + 16.0, 32.0) - 16.0) ** 2))
    centered, shift = recenter(u)
    assert_allclose(centered.values, np.exp(-0.5 * x**2), rtol=0, atol=1e-8)
    assert_allclose(np.abs(shift), [15.5], atol=1e-8)


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
    coarse = lq_integral(gauss1, 10, refine=1)
    fine = lq_integral(gauss1, 10, refine=2)
    assert_allclose(fine, coarse, rtol=1e-10)
    with pytest.raises(ValueError):
        lq_integral(gauss1, 10, refine=0)
    with pytest.raises(ValueError):
        lq_integral(gauss1, 1.5)


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
    """The best-shift search run on complex full spectra throughout."""
    g = w.grid
    ks = _full_k(g).reshape(g.d, -1)
    corr = ((1.0 + _full_k4(g)) * np.fft.fftn(w.values)
            * np.conj(np.fft.fftn(ref.values))).ravel()
    shift = np.zeros(g.d)
    for _ in range(20):
        z = corr * np.exp(-1j * (shift @ ks))
        step = -np.linalg.solve(-(ks * z.real) @ ks.T, ks @ z.imag)
        step = np.clip(step, -0.5 * g.dx, 0.5 * g.dx)
        shift = shift + step
        if np.max(np.abs(step)) < 1e-12 * g.dx:
            break
    moved = Field(g, _oracle_translate(w, shift))
    return min(_oracle_h2_distance(w, ref), _oracle_h2_distance(moved, ref))


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
    close(l2_norm_sq_spectral(u), scale * np.sum(np.abs(hat) ** 2))
    close(bilap_apply(u).values, np.fft.ifftn(k4 * hat).real)
    shift = np.array([0.3, -0.2][:d]) * g.dx + 0.7
    close(translate(u, shift).values, _oracle_translate(u, shift))
    q = 10 if d == 1 else 6
    dxf = g.dx / 2
    close(lq_integral(u, q, refine=2),
          dxf**d * np.sum(np.abs(_oracle_refined(u, 2)) ** q))
    # w is u moved off the grid plus a perturbation, so the search has an
    # interior optimum and the distance there is far from zero
    w = Field(g, _oracle_translate(u, 0.3 * g.dx * np.ones(d))) + 0.1 * v
    close(_h2_after_best_shift(w, u), _oracle_best_shift_distance(w, u))


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
