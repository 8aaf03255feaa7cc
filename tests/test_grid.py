import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharm import make_grid, quadrature


def test_nodes_span_box(g1):
    x = g1.axes[0]
    assert x[0] == -16.0
    assert_allclose(x[1] - x[0], g1.dx)
    assert_allclose(x[-1], 16.0 - g1.dx)
    assert g1.dx == 32.0 / 512


def test_wavenumbers_fft_order(g1):
    k = g1.wavenumbers[0]
    assert k[0] == 0.0
    assert_allclose(k[1], np.pi / 16.0)
    assert_allclose(k, 2 * np.pi * np.fft.fftfreq(512, d=g1.dx))
    assert_allclose(g1.k_max, np.pi * 256 / 16.0)


def test_symbol_arrays(g1):
    assert_allclose(g1.k_quad, g1.k_sq**2)
    assert g1.k_sq.shape == (512,)


def test_symbol_arrays_2d(g2_small):
    kx, ky = g2_small.wavenumbers
    assert g2_small.k_sq.shape == (64, 64)
    assert_allclose(g2_small.k_sq, kx[:, None] ** 2 + ky[None, :] ** 2)
    assert_allclose(g2_small.k_quad, g2_small.k_sq**2)


def test_meshes_shapes(g2_small):
    mx, my = g2_small.meshes()
    assert mx.shape == (64, 64)
    assert mx[3, 0] == mx[3, 17]
    assert my[0, 5] == my[41, 5]


def test_quadrature_constant(g1, g2_small):
    assert_allclose(quadrature(g1, np.ones(g1.shape)), 32.0)
    assert_allclose(quadrature(g2_small, np.ones(g2_small.shape)), 24.0**2)


def test_quadrature_shape_mismatch(g1):
    with pytest.raises(ValueError):
        quadrature(g1, np.ones(100))


def test_transform_round_trip(g1, rng):
    u = rng.standard_normal(g1.shape)
    assert_allclose(g1.inverse(g1.forward(u)), u, rtol=0, atol=1e-12)


# 1e308 is finite, but its node spacing 2 * 1e308 / 64 overflows
@pytest.mark.parametrize("d,n,hw", [(3, 64, 8.0), (1, 100, 8.0),
                                    (1, 4, 8.0), (1, 64, 0.0),
                                    (1, 64, np.nan), (1, 64, np.inf),
                                    (1, 64, -np.inf), (1, 64, 1e308)])
def test_make_grid_rejects_bad_config(d, n, hw):
    with pytest.raises(ValueError):
        make_grid(d, n, hw)


def test_arrays_read_only(g1):
    with pytest.raises(ValueError):
        g1.k_sq[0] = 1.0


@pytest.mark.parametrize("shape", [(512,), (64, 64)])
def test_real_transform_matches_complex_half_spectrum(shape, g1, g2_small, rng):
    g = g1 if len(shape) == 1 else g2_small
    u = rng.standard_normal(g.shape)
    full = np.fft.fftn(u)
    half = g.rforward(u)
    assert half.shape == shape[:-1] + (shape[-1] // 2 + 1,)
    assert_allclose(half, full[..., :shape[-1] // 2 + 1], rtol=0,
                    atol=1e-12 * np.abs(full).max())
    assert_allclose(g.rinverse(half), u, rtol=0, atol=1e-12)
    assert_allclose(g.rk_quad, g.k_quad[..., :shape[-1] // 2 + 1])
    # the multiplicity-weighted half sum is the full-spectrum Parseval sum
    assert_allclose(np.sum(g.rk_quad_parseval * np.abs(half) ** 2),
                    np.sum(g.k_quad * np.abs(full) ** 2), rtol=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_real_transforms_into_out_match_allocating_form(d, g1, g2_small, rng):
    g = g1 if d == 1 else g2_small
    u = rng.standard_normal(g.shape)
    half = np.empty(g.rk_quad.shape, dtype=np.complex128)
    back = np.empty(g.shape)
    assert g.rforward(u, out=half) is half
    assert g.rinverse(half, out=back) is back
    assert half.tobytes() == g.rforward(u).tobytes()
    assert back.tobytes() == g.rinverse(half).tobytes()
