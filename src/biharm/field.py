"""Real-valued grid functions: mass, spectral Sobolev norms, rescaling maps.

A Field couples nodal values to its Grid and lazily caches the half-spectrum
coefficients of Grid.forward, so repeated norm evaluations reuse one
transform.  All operations are pure and return new Fields.  The
fourth-order seminorm is evaluated through the spectral symbol |k|^4 as a
Parseval sum over the half spectrum (Grid.parseval); the H^2 norm squared
is mass + fourth-order seminorm.  Spectral maps (bilap_apply,
translate, refinement) act on the half spectrum and treat the Nyquist
modes, which stand for both +k_max and -k_max, Hermitian-symmetrically.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .grid import Grid, _shared_grid, make_grid, quadrature

SNAPSHOT_SUFFIX = ".bhf"


class ResolutionWarning(UserWarning):
    """A rescaling pushed spectral content toward or past the Nyquist limit."""


class Field:
    """Real scalar function sampled on a periodic grid."""

    __slots__ = ("grid", "values", "_hat")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._hat = None

    @property
    def hat(self) -> np.ndarray:
        """Cached unnormalized half-spectrum coefficients (Grid.forward of
        values)."""
        if self._hat is None:
            self._hat = self.grid.forward(self.values)
            self._hat.setflags(write=False)
        return self._hat

    def __add__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _check_same_grid(self, other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)

    def __repr__(self) -> str:
        g = self.grid
        return f"Field(d={g.d}, n={g.n}, half_width={g.half_width})"


def _check_same_grid(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def l2_norm_sq(u: Field) -> float:
    """Mass of the field: quadrature of |u|^2."""
    return quadrature(u.grid, u.values**2)


def l2_norm_sq_spectral(u: Field) -> float:
    """Mass evaluated from spectral coefficients (Parseval route)."""
    return u.grid.parseval(u.hat, u.hat)


def bilap_energy(u: Field) -> float:
    """Fourth-order seminorm: integral of |Laplacian u|^2 via the |k|^4 symbol."""
    g = u.grid
    return g.parseval(u.hat, g.k_quad * u.hat)


def h2_norm_sq(u: Field) -> float:
    """Squared H^2 norm: mass plus the fourth-order seminorm."""
    return l2_norm_sq(u) + bilap_energy(u)


def h2_distance(u: Field, v: Field) -> float:
    """H^2 distance sqrt(||u-v||^2 + ||Lap(u-v)||^2)."""
    return float(np.sqrt(max(h2_norm_sq(u - v), 0.0)))


def lq_integral(u: Field, q: float, refine: int = 1) -> float:
    """Quadrature of |u|^q.

    Args:
        u: field.
        q: power, any real >= 2 (call sites use the critical power of u's
            dimension).
        refine: optional spectral refinement factor.  refine > 1 zero-pads the
            coefficients onto a refine*n grid before taking the pointwise
            power, which bounds the quadrature aliasing of high powers at
            marginal resolution.  Default 1 evaluates on the native nodes.
    """
    if q < 2:
        raise ValueError(f"power must be >= 2, got {q}")
    g = u.grid
    if refine == 1:
        return quadrature(g, np.abs(u.values) ** q)
    if refine < 1 or int(refine) != refine:
        raise ValueError(f"refine must be a positive integer, got {refine}")
    fine = _refined_values(u, int(refine))
    dxf = g.dx / refine
    return float(dxf**g.d * np.sum(np.abs(fine) ** q))


def _refined_values(u: Field, factor: int) -> np.ndarray:
    """Values of the trigonometric interpolant on a factor-times-finer grid.

    The half spectrum is zero-padded onto the fine grid's.  A coarse Nyquist
    coefficient stands for the modes at both +n/2 and -n/2, which are
    distinct on the fine grid, so it is split evenly between them: the
    Nyquist row goes half to each of its two fine rows, and the Nyquist
    column is halved, the fine inverse transform supplying its mirror.
    """
    g = u.grid
    # derived from a valid grid, so make_grid's checks (among them n a power
    # of two) need not hold for any integer factor
    fine = _shared_grid(g.d, g.n * factor, g.half_width)
    h = g.n // 2
    padded = np.zeros(fine.k_quad.shape, dtype=np.complex128)
    if g.d == 1:
        padded[:h + 1] = u.hat
    else:
        padded[:h, :h + 1] = u.hat[:h]
        padded[-h:, :h + 1] = u.hat[h:]
        padded[h] = padded[-h] = 0.5 * padded[-h]
    padded[..., h] *= 0.5
    return fine.inverse(padded) * (factor**g.d)


def renormalize_mass(u: Field) -> Field:
    """Rescale onto the unit-mass sphere (direction unchanged)."""
    cur = l2_norm_sq(u)
    if cur <= 0.0:
        raise ValueError("cannot renormalize the zero field")
    return u * float(np.sqrt(1.0 / cur))


def bilap_apply(u: Field) -> Field:
    """Apply the fourth-order operator spectrally: coefficients times |k|^4."""
    g = u.grid
    return Field(g, g.inverse(g.k_quad * u.hat))


def dilate(u: Field, ell: float) -> Field:
    """Mass-preserving dilation v(x) = ell^{d/2} u(ell x) on the same grid.

    The trigonometric interpolant of u is evaluated exactly at the scaled
    nodes ell*x_j by a Bluestein chirp-z transform along each axis: with the
    signed spectral index m and the centered node index j (x_j = j dx), the
    sum over m of hat_m (-1)^m exp(2 pi i ell m j / n) becomes, through
    m j = (m^2 + j^2 - (j - m)^2) / 2, a chirp, one length-2n FFT
    convolution with the kernel exp(-i pi ell s^2 / n), and a chirp, at
    O(n log n) per axis line.  For ell > 1 some scaled positions leave the
    box, where the interpolant would wrap around and tile spurious periodic
    images of the field; instead the values are rolled off smoothly to zero
    over the outer quarter of the box (quintic ramp in |ell x| per axis,
    folded into the output chirp).  The roll-off suppresses the images while
    keeping the map free of jump discontinuities — a hard cutoff would
    inject a high-wavenumber seam whose fourth-order content grows with
    grid resolution and pollutes downstream H^2 diagnostics.  Dilations
    whose box overflow (ell - 1)*half_width stays within half a node skip
    the roll-off: no scaled position meaningfully exits the box, the
    outermost node reads the wrap, which differs from the true tail by a
    tail-sized amount, and skipping keeps the map continuous in ell
    through 1, which gauge-fixing and unit-constant-normalization callers
    with ell = 1 + O(eps) rely on.  For the box-localized fields this map
    is meant for, the induced error is the field's boundary tail, i.e. the
    periodization error already inherent to the box.  Emits
    ResolutionWarning when the mass-preservation check drifts above 1e-6,
    the symptom of ell pushing u's content past the Nyquist limit or of
    ell < 1 spreading tails into the periodic wrap.
    """
    if ell <= 0:
        raise ValueError(f"dilation scale must be positive, got {ell}")
    ell = float(ell)
    if ell == 1.0:
        return u
    g = u.grid
    n = g.n
    # the chirps exp(i pi ell m^2 / n), at the signed spectral index m after
    # fftshift and at the centered node index j = x/dx (the same range), and
    # the kernel below all read one table exp(i pi ell r^2 / n), r = 0..n
    table = np.exp(1j * np.pi * ell * np.arange(n + 1) ** 2 / n)
    chirp = table[np.abs(np.arange(n) - n // 2)]
    # (-1)^m = exp(i k_m L), node 0 sitting at -L; m = -n/2 is even
    pre = chirp.copy()
    pre[1::2] *= -1
    post = chirp * (ell**0.5 / n)
    if (ell - 1.0) * g.half_width > 0.5 * g.dx:
        t = np.clip((np.abs(ell * g.axes[0]) / g.half_width - 0.75) / 0.25,
                    0.0, 1.0)
        post = post * (1.0 - t**3 * (t * (6.0 * t - 15.0) + 10.0))
    # kernel exp(-i pi ell s^2 / n) at s = j - m in [-(n-1), n-1], stored
    # cyclically on 2n points: |s| = 0..n-1, then n..1
    kernel_hat = np.fft.fft(
        np.concatenate((table[:n], table[n:0:-1])).conj())
    z = np.fft.fftn(u.values)  # the chirp-z needs the full spectrum
    for _ in range(g.d):
        a = np.fft.fftshift(z, axes=-1) * pre
        z = np.fft.ifft(np.fft.fft(a, 2 * n) * kernel_hat)[..., :n] * post
        z = np.moveaxis(z, -1, 0)
    v = Field(g, z.real)
    mass_in = l2_norm_sq(u)
    if mass_in > 0:
        drift = abs(l2_norm_sq(v) - mass_in) / mass_in
        if drift > 1e-6:
            warnings.warn(
                f"dilation by {ell} drifted mass by {drift:.3e}; "
                "the scaled field is under-resolved on this grid",
                ResolutionWarning, stacklevel=2)
    return v


def translate(u: Field, shift) -> Field:
    """Periodic sub-grid translation v(x) = u(x - shift) by spectral phase.

    A Nyquist mode stands for both +k_max and -k_max, and a real field
    carries it as the real combination of the two, so along each axis it
    takes the phase cos(k_max * shift), the real part of exp(-i k shift).
    In 2D the map is the product of the two 1D translations: the corner
    mode (n/2, n/2) takes the product of the two cosines.
    """
    g = u.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.shape != (g.d,):
        raise ValueError(f"shift must have {g.d} components")
    h = g.n // 2
    hat = u.hat
    for ax in range(g.d):
        k = g.wavenumbers[ax]
        phase = np.exp(-1j * k * shift[ax])
        phase[h] = np.cos(k[h] * shift[ax])
        # axis 0 of a 2D spectrum is full length; the last axis is halved
        hat = hat * (phase[:h + 1] if ax == g.d - 1 else phase[:, None])
    return Field(g, g.inverse(hat))


def recenter(u: Field):
    """Translate u so its density center sits at the origin.

    The center is the |u|^2 centroid computed with periodic unwrapping around
    the density maximum.  Returns (field, shift) where shift is the
    translation that was applied, so a feature at position c reports
    shift = -c.
    """
    g = u.grid
    dens = u.values**2
    total = dens.sum()
    if total <= 0.0:
        raise ValueError("cannot recenter the zero field")
    peak = np.unravel_index(int(np.argmax(dens)), g.shape)
    span = 2.0 * g.half_width
    center = np.empty(g.d)
    for ax in range(g.d):
        x = g.axes[ax]
        x_peak = x[peak[ax]]
        disp = np.mod(x - x_peak + g.half_width, span) - g.half_width
        if g.d == 2:
            disp = disp.reshape([-1 if a == ax else 1 for a in range(2)])
        offset = float((dens * disp).sum() / total)
        c = x_peak + offset
        center[ax] = np.mod(c + g.half_width, span) - g.half_width
    return translate(u, -center), -center


def reflect(u: Field) -> Field:
    """Point reflection v(x) = u(-x) respecting periodic indexing."""
    vals = u.values
    for ax in range(u.grid.d):
        vals = np.roll(np.flip(vals, axis=ax), 1, axis=ax)
    return Field(u.grid, vals)


def random_smooth_field(g: Grid, rng: np.random.Generator) -> Field:
    """Random unit-mass field: band-limited noise under a Gaussian envelope.

    The cutoff keeps spectral content below half the Nyquist wavenumber (so
    high powers of the field still quadrature exactly after compression by 2)
    and the envelope well inside the box (so dilation by 1/2 leaves no
    periodic seam) — the regime the scaling-identity and quotient batteries
    live in.
    """
    k_cut = max(2.5, min(5.0, g.k_max / 10.0))
    envelope_width = min(1.0, g.half_width / 12.0)
    shape = g.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    k = g.wavenumbers[0]
    k_sq = k**2 if g.d == 1 else k[:, None] ** 2 + k[None, :] ** 2
    decay = np.exp(-(k_sq / k_cut**2))
    vals = np.fft.ifftn(coeffs * decay).real
    mesh = g.meshes()
    r_sq = sum(m**2 for m in mesh)
    vals = vals * np.exp(-r_sq / (2.0 * envelope_width**2))
    return renormalize_mass(Field(g, vals))


def gaussian_mixture_field(g: Grid, rng: np.random.Generator) -> Field:
    """Random unit-mass superposition of four signed Gaussian bumps.

    Bump-shaped trial fields with order-one amplitude probe the quotient and
    inequality batteries near minimizer-like profiles, where band-limited
    noise (whose fourth-order energy dwarfs everything) cannot.
    """
    mesh = g.meshes()
    vals = np.zeros(g.shape)
    for _ in range(4):
        width = rng.uniform(0.6, 1.0)
        amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        r_sq = sum((m - rng.uniform(-1.0, 1.0)) ** 2 for m in mesh)
        vals += amp * np.exp(-r_sq / (2.0 * width**2))
    return renormalize_mass(Field(g, vals))


def write_snapshot(u: Field, path) -> None:
    """Write the bit-exact snapshot format: one JSON header line, then
    count little-endian float64 values in row-major order."""
    g = u.grid
    header = json.dumps({"d": g.d, "n": g.n, "half_width": g.half_width,
                         "count": int(u.values.size)})
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def read_snapshot(path, grid: Grid | None = None) -> Field:
    """Read a snapshot written by write_snapshot.

    If grid is given it must match the header; otherwise the grid is rebuilt
    from the header.  A payload that is not exactly the header's count of
    values -- short, or with bytes after them -- raises ValueError.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    try:
        meta = json.loads(header_line.decode("utf-8"))
        d, n = int(meta["d"]), int(meta["n"])
        half_width, count = float(meta["half_width"]), int(meta["count"])
    except (ValueError, KeyError) as exc:
        raise ValueError(f"malformed snapshot header in {path}") from exc
    if count != n**d:
        raise ValueError(f"snapshot count {count} does not equal n^d = {n**d}")
    if len(raw) != 8 * count:
        raise ValueError(f"snapshot {path} holds {len(raw)} payload bytes, "
                         f"not the {8 * count} its header declares")
    values = np.frombuffer(raw, dtype="<f8").reshape((n,) * d)
    if grid is None:
        grid = make_grid(d, n, half_width)
    elif (grid.d, grid.n, grid.half_width) != (d, n, half_width):
        raise ValueError("snapshot header does not match the supplied grid")
    return Field(grid, values)
