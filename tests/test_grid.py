import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from biharm import make_grid, quadrature
from biharm.potentials import GaussianWell, sample


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


def _unit_weights(g, index):
    # parseval(e, e) and parseval(e, k_quad e) for the half spectrum e with
    # a single 1 at index, in units of dx^d / n^d: the multiplicity of that
    # column in the full spectrum, and that times |k|^4
    e = np.zeros(g.k_quad.shape, dtype=complex)
    e[index] = 1.0
    scale = g.dx**g.d / g.n**g.d
    return g.parseval(e, e) / scale, g.parseval(e, g.k_quad * e) / scale


def test_symbol_arrays(g1):
    k = g1.wavenumbers[0][:257]
    assert g1.k_quad.shape == (257,)
    assert_allclose(g1.k_quad, k**4)
    mass, kin = np.array([_unit_weights(g1, j) for j in range(257)]).T
    # the zero and Nyquist columns are their own mirrors
    assert mass[0] == mass[-1] == 1.0
    assert np.all(mass[1:-1] == 2.0)
    assert_allclose(kin, g1.k_quad * mass)


def test_symbol_arrays_2d(g2_small):
    kx, ky = g2_small.wavenumbers
    assert g2_small.k_quad.shape == (64, 33)
    assert_allclose(g2_small.k_quad,
                    (kx[:, None] ** 2 + ky[None, :33] ** 2) ** 2)
    rows = [0, 1, 32, 63]
    mass, kin = np.array([[_unit_weights(g2_small, (r, j)) for j in range(33)]
                          for r in rows]).transpose(2, 0, 1)
    # the weight is the last-axis column's multiplicity, on every row
    assert np.all(mass[:, [0, -1]] == 1.0)
    assert np.all(mass[:, 1:-1] == 2.0)
    assert_allclose(kin, g2_small.k_quad[rows] * mass)


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


def test_grids_compare_by_geometry():
    g = make_grid(1, 64, 8.0)
    twin = dataclasses.replace(g)  # built separately, not the shared grid
    assert twin is not g
    assert twin == g and hash(twin) == hash(g)
    for other in (make_grid(1, 128, 8.0), make_grid(1, 64, 4.0),
                  make_grid(2, 64, 8.0)):
        assert other != g
    # a per-grid cache keyed on the grid hits for the equal twin
    V = GaussianWell(0.5, 1.5, (0.25,))
    first = sample(V, g)
    hits = sample.cache_info().hits
    assert sample(V, twin) is first
    assert sample.cache_info().hits == hits + 1


def test_arrays_read_only(g1):
    for table in (g1.k_quad, g1.axes[0], g1.wavenumbers[0], g1.ik[0]):
        with pytest.raises(ValueError):
            table[0] = 1.0


@pytest.mark.parametrize("d", [1, 2])
def test_derivative_table(d, g1, g2_small):
    # ik[i] X is the spectrum of the partial derivative along axis i
    g = g1 if d == 1 else g2_small
    r2 = sum(m**2 for m in g.meshes())
    u = np.exp(-r2 / 4.0)
    X = g.forward(u)
    for ax, mesh in enumerate(g.meshes()):
        assert_allclose(g.inverse(g.ik[ax] * X), -0.5 * mesh * u, rtol=0,
                        atol=1e-12)


@pytest.mark.parametrize("shape", [(512,), (64, 64)])
def test_real_transform_matches_complex_half_spectrum(shape, g1, g2_small, rng):
    g = g1 if len(shape) == 1 else g2_small
    u = rng.standard_normal(g.shape)
    full = np.fft.fftn(u)
    half = g.forward(u)
    assert half.shape == shape[:-1] + (shape[-1] // 2 + 1,)
    assert half.shape == g.k_quad.shape
    assert_allclose(half, full[..., :shape[-1] // 2 + 1], rtol=0,
                    atol=1e-12 * np.abs(full).max())
    assert_allclose(g.inverse(half), u, rtol=0, atol=1e-12)
    # Grid.parseval on half spectra is dx^d / n^d times the full-spectrum
    # Parseval sum: the mass and the |k|^4-weighted sum
    k_sq = sum(np.meshgrid(*(k**2 for k in g.wavenumbers), indexing="ij"))
    scale = g.dx**g.d / g.n**g.d
    assert_allclose(g.parseval(half, half),
                    scale * np.sum(np.abs(full) ** 2), rtol=1e-12)
    assert_allclose(g.parseval(half, g.k_quad * half),
                    scale * np.sum(k_sq**2 * np.abs(full) ** 2), rtol=1e-12)
    # and of two fields, scale * Re sum(conj(U) W), which is the quadrature
    # of u w
    w = rng.standard_normal(g.shape)
    full_w = np.fft.fftn(w)
    expected = scale * np.vdot(full, full_w).real
    bound = scale * np.linalg.norm(full) * np.linalg.norm(full_w)
    assert abs(g.parseval(half, g.forward(w)) - expected) <= 1e-12 * bound
    assert abs(expected - quadrature(g, u * w)) <= 1e-12 * bound


@pytest.mark.parametrize("d", [1, 2])
def test_real_transforms_into_out_match_allocating_form(d, g1, g2_small, rng):
    g = g1 if d == 1 else g2_small
    u = rng.standard_normal(g.shape)
    half = np.empty(g.k_quad.shape, dtype=np.complex128)
    back = np.empty(g.shape)
    assert g.forward(u, out=half) is half
    assert g.inverse(half, out=back) is back
    assert half.tobytes() == g.forward(u).tobytes()
    assert back.tobytes() == g.inverse(half).tobytes()
