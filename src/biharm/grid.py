"""Uniform periodic grids with spectral transforms and quadrature.

The domain is the box [-half_width, half_width)^d with n points per axis,
so dx = 2*half_width/n and the grid nodes are x_j = -half_width + j*dx.
Wavenumbers follow the standard FFT index ordering j in {0, 1, ..., n/2-1,
-n/2, ..., -1} with k_j = pi*j/half_width, which is what the unnormalized
numpy transforms expect.  Quadrature is the periodic trapezoid rule
dx^d * sum(samples): exact for trigonometric polynomials below Nyquist and
spectrally accurate for smooth decaying data.

Fields are real, so their spectrum is Hermitian and the grid has one
transform pair, forward/inverse, onto the half spectrum: the last axis is
cut to its n/2 + 1 non-negative columns, the conjugate mirror of the rest
being implied.  Grid.parseval is the one place that turns two half spectra
back into a full-spectrum sum, the L2 inner product of the two fields: the
zero and Nyquist columns are their own mirrors, every other column stands
for itself and its dropped conjugate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Immutable periodic grid in dimension d in {1, 2}.

    Grids compare and hash by their geometry (d, n, half_width); every
    other attribute is derived from it.

    Attributes:
        d: spatial dimension.
        n: points per axis (power of two).
        half_width: box half-length, domain is [-half_width, half_width)^d.
        dx: node spacing, 2*half_width/n exactly.
        axes: per-axis node coordinates, each of shape (n,).
        wavenumbers: per-axis spectral table k_j = pi*j/half_width in FFT
            order, full length n (the half spectrum's last axis uses the
            first n/2 + 1 entries).
        k_quad: |k|^4 on the half spectrum (the fourth-order symbol used by
            every bilaplacian evaluation).
        ik: per-axis i k_i, shaped to broadcast over the half spectrum (the
            symbol of the partial derivative along axis i), zero at the
            Nyquist wavenumber: that mode is cos(k_max x) on the nodes, whose
            derivative vanishes at every node, and i k_max X would be the
            spectrum of no real field.
    """

    d: int
    n: int
    half_width: float
    dx: float = field(compare=False)
    axes: tuple = field(repr=False, compare=False)
    wavenumbers: tuple = field(repr=False, compare=False)
    k_quad: np.ndarray = field(repr=False, compare=False)
    ik: tuple = field(repr=False, compare=False)

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def k_max(self) -> float:
        """Magnitude of the per-axis Nyquist wavenumber."""
        return np.pi * (self.n // 2) / self.half_width

    def forward(self, values: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """Real forward transform onto the half spectrum (unnormalized),
        written into out when given."""
        if self.d == 1:
            return np.fft.rfft(values, axis=0, out=out)
        return np.fft.rfftn(values, axes=(0, 1), out=out)

    def inverse(self, coeffs: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """Inverse of forward, back to real nodal values, written into out
        when given."""
        if self.d == 1:
            return np.fft.irfft(coeffs, n=self.n, axis=0, out=out)
        return np.fft.irfftn(coeffs, s=self.shape, axes=(0, 1), out=out)

    def parseval(self, a: np.ndarray, b: np.ndarray) -> float:
        """L2 inner product int f g of the real fields whose half spectra
        are a and b: dx^d / n^d times the full-spectrum sum
        Re sum(conj(a) b), which is twice the half-spectrum sum less the
        zero and Nyquist columns (every (n/2)-th), their own mirrors.  With
        b = k_quad * a it is int |Lap f|^2."""
        edge = self.n // 2
        return float(self.dx**self.d / self.n**self.d
                     * (2.0 * np.vdot(a, b).real
                        - np.vdot(a[..., ::edge], b[..., ::edge]).real))

    def meshes(self) -> tuple:
        """Nodal coordinate arrays broadcast to the full grid shape."""
        return np.meshgrid(*self.axes, indexing="ij")


def make_grid(d: int, n: int, half_width: float) -> Grid:
    """Build a periodic grid, shared per geometry.

    Equal arguments return the same immutable Grid, so the per-grid tables
    are built once per geometry.

    Args:
        d: spatial dimension, 1 or 2.
        n: points per axis; must be a power of two and at least 8.
        half_width: box half-length (> 0).

    Returns:
        A fully populated immutable Grid.

    Raises:
        ValueError: on d outside {1, 2}, non-power-of-two or too-small n,
            or a half_width that is not positive or whose spacing is not
            finite.
    """
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d}")
    if not isinstance(n, (int, np.integer)) or n < 8 or not _is_power_of_two(int(n)):
        raise ValueError(f"n must be a power of two >= 8, got {n}")
    if not 0 < half_width < np.inf:
        raise ValueError(
            f"half_width must be positive and finite, got {half_width}")
    if not np.isfinite(2.0 * half_width / n):
        raise ValueError(
            f"half_width {half_width} overflows the node spacing 2*half_width/n")

    return _shared_grid(int(d), int(n), float(half_width))


@functools.lru_cache(maxsize=32)
def _shared_grid(d: int, n: int, half_width: float) -> Grid:
    dx = 2.0 * half_width / n
    x = -half_width + dx * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=dx)  # equals pi*j/half_width, FFT order

    axes = tuple(x.copy() for _ in range(d))
    tables = tuple(k.copy() for _ in range(d))
    half = n // 2 + 1
    k_sq = k**2
    k_quad = (k_sq[:half] if d == 1 else k_sq[:, None] + k_sq[None, :half]) ** 2
    k_diff = k.copy()
    k_diff[n // 2] = 0.0  # no derivative at the Nyquist mode (see Grid.ik)
    ik = tuple(1j * (k_diff[:half] if ax == d - 1 else k_diff[:, None])
               for ax in range(d))
    for arr in (*axes, *tables, k_quad, *ik):
        arr.setflags(write=False)
    return Grid(d=d, n=n, half_width=half_width, dx=dx, axes=axes,
                wavenumbers=tables, k_quad=k_quad, ik=ik)


def quadrature(g: Grid, samples: np.ndarray) -> float:
    """Periodic trapezoid quadrature: dx^d * sum(samples)."""
    samples = np.asarray(samples)
    if samples.shape != g.shape:
        raise ValueError(f"samples shape {samples.shape} does not match grid {g.shape}")
    return float(g.dx**g.d * samples.sum())
