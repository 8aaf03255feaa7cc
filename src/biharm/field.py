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

import functools
import json
import math
import warnings
from typing import NamedTuple

import numpy as np

from ._readers import _as_float, _as_int, _block
from .grid import Grid, _shared_grid, make_grid, quadrature

# the relative mass drift past which dilate warns that the scaled field is
# under-resolved, and past which a sweep record's rescaling is not resolved
MASS_DRIFT_TOL = 1e-6


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
        if not np.isfinite(values).all():
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


def bilap_energy(u: Field) -> float:
    """Fourth-order seminorm: integral of |Laplacian u|^2 via the |k|^4 symbol."""
    g = u.grid
    return g.parseval(u.hat, g.k_quad_complex * u.hat)


def h2_norm_sq(u: Field) -> float:
    """Squared H^2 norm: mass plus the fourth-order seminorm."""
    return l2_norm_sq(u) + bilap_energy(u)


def spectral_tail(u: Field) -> float:
    """max |u^| over the half-spectrum modes with |k_i| >= 0.75 k_max on some
    axis, relative to max |u^|: the decay of the coefficients into the top
    quarter of the band, which estimates the truncation error of the grid
    (Boyd, Chebyshev and Fourier Spectral Methods, 2001).  It reads the
    cached spectrum u.hat.  It says nothing about the box: a field cut off
    by the periodic boundary can have a small tail."""
    g = u.grid
    mag = np.abs(u.hat)
    peak = mag.max()
    if peak == 0.0:
        raise ValueError("the zero field has no spectral tail")
    # |j| of k_j = pi j / half_width along an axis, exact in floats
    top = np.abs(np.fft.fftfreq(g.n, 1.0 / g.n)) >= 0.75 * (g.n // 2)
    cols = top[:g.n // 2 + 1]
    mask = cols if g.d == 1 else top[:, None] | cols[None, :]
    return float(mag[mask].max() / peak)


def _nonlinear_weight(sq: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """x^(q-2) from sq = x^2, at the critical power q of sq's dimension.

    The one place the package takes a power of the field: x^4 in 2D
    (q = 6) and x^8 in 1D (q = 10), by squaring sq, with the dimension read
    from sq.ndim.  Callers form x^(q-1) as weight * x, the integral of |x|^q
    as the inner product of weight and sq, and the Hessian's weight from it
    directly.  Taking the square lets a caller share it with its mass sum,
    and out = sq works in place.

    The power is taken at the nodes, so the nodal quadrature of |x|^q
    aliases: the power has q/2 times the field's bandwidth, and grid-scale
    states reach quotients far below a_star.
    """
    w = np.multiply(sq, sq, out=out)
    if sq.ndim == 1:
        w *= w
    return w


def lq_integral(u: Field, refine: int = 1) -> float:
    """Quadrature of |u|^q at the critical power q of u's dimension.

    The power is _nonlinear_weight's, summed at the nodes, which aliases
    (see _nonlinear_weight).  refine > 1 zero-pads the coefficients onto a
    refine*n grid before taking the power, which bounds that aliasing at
    marginal resolution; the default 1 sums on the native nodes.
    """
    if refine < 1 or int(refine) != refine:
        raise ValueError(f"refine must be a positive integer, got {refine}")
    g = u.grid
    x = u.values if refine == 1 else _refined_values(u, int(refine))
    sq = x * x
    return float((g.dx / refine)**g.d * np.vdot(_nonlinear_weight(sq), sq))


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
    return u * math.sqrt(1.0 / cur)


def bilap_apply(u: Field) -> Field:
    """Apply the fourth-order operator spectrally: coefficients times |k|^4."""
    g = u.grid
    return Field(g, g.inverse(g.k_quad_complex * u.hat))


class _ChirpPlan(NamedTuple):
    """dilate's tables that depend on the grid alone, all read-only.

    r_sq is pi r^2 / n for r = 0..n, the exponent of the chirp table per
    unit ell; centred indexes that table at |m| for the signed spectral
    index m = -n/2..n/2-1 (and so at |j| for the centered node index j),
    and cyclic at |s| for the kernel's s = j - m stored cyclically on 2n
    points (0..n-1, then n..1).  k is k_m at those m, alt is (-1)^m, and
    sign is the nodal (-1)^(j_1 + ... + j_d), by which the values' full
    transform comes out in m order along every axis, in place of an
    fftshift.
    """

    r_sq: np.ndarray
    centred: np.ndarray
    cyclic: np.ndarray
    k: np.ndarray
    alt: np.ndarray
    sign: np.ndarray


@functools.lru_cache(maxsize=32)
def _chirp_plan(g: Grid) -> _ChirpPlan:
    n = g.n
    m = np.arange(n) - n // 2
    alt = np.where(m % 2, -1.0, 1.0)  # m = -n/2 is even
    # node j = 0..n-1 carries (-1)^j, as alt does at index j
    sign = alt if g.d == 1 else np.multiply.outer(alt, alt)
    plan = _ChirpPlan(r_sq=np.pi / n * np.arange(n + 1) ** 2,
                      centred=np.abs(m),
                      cyclic=np.concatenate((np.arange(n),
                                             np.arange(n, 0, -1))),
                      k=m * (np.pi / g.half_width), alt=alt, sign=sign)
    for arr in plan:
        arr.setflags(write=False)
    return plan


def dilate(u: Field, ell: float, center=0.0, to=0.0) -> Field:
    """Mass-preserving placement v(x) = ell^{d/2} u(center + ell (x - to)).

    The one map that moves fields: it scales u by ell about the point
    center and lands that point on to, with x - to the periodic distance in
    [-L, L) per axis; center and to are numbers or one coordinate per axis,
    else ValueError, and a non-finite ell, center or to raises ValueError
    naming it before any transform.  The trigonometric interpolant of u is
    evaluated exactly at the scaled positions by a Bluestein chirp-z
    transform along each axis: with the signed spectral index m and the
    centered node index j (x_j = j dx), the sum over m of hat_m (-1)^m
    exp(i k_m b) exp(2 pi i ell m j / n), b = center - ell to, becomes,
    through m j = (m^2 + j^2 - (j - m)^2) / 2, a chirp, one length-2n FFT
    convolution with the kernel exp(-i pi ell s^2 / n), and a chirp, at
    O(n log n) per axis line.  The phase exp(i k_m b) rides on the input
    chirp and whole nodes of to roll the output, so placing costs nothing
    extra.  Everything that depends on neither ell nor the placement -- the
    index tables of the chirps and the kernel, k_m, and the nodal sign that
    puts the spectrum in m order -- comes from a read-only plan cached per
    grid (_chirp_plan), so a call builds one exp table, one kernel FFT and
    the convolution.  A Nyquist mode takes translate's phase cos(k_max y)
    per axis.  For ell > 1 some scaled positions leave the box, where the
    interpolant would tile periodic images of the field; instead the values
    are rolled off smoothly to zero over the outer quarter of the box about
    to (quintic ramp in |ell (x - to)| per axis, folded into the output
    chirp), which, unlike a hard cutoff, injects no high-wavenumber seam
    into H^2 diagnostics.  Dilations whose box overflow (ell - 1)*half_width
    stays within half a node skip the roll-off, which keeps the map
    continuous in ell through 1, where it is translate(u, to - center), for
    gauge-fixing callers; the outermost node then reads the wrap, an error
    of the size of the field's boundary tail.  Emits ResolutionWarning when
    the mass-preservation check drifts above MASS_DRIFT_TOL, the symptom of ell
    pushing u's content past the Nyquist limit or of ell < 1 spreading
    tails into the periodic wrap.
    """
    if not 0 < ell < math.inf:
        raise ValueError(
            f"ell must be a positive and finite dilation scale, got {ell}")
    ell = float(ell)
    g = u.grid
    center, to = (np.asarray(p, dtype=np.float64) for p in (center, to))
    if {center.shape, to.shape} - {(), (g.d,)}:
        raise ValueError(f"center and to must have {g.d} components")
    for name, p in (("center", center), ("to", to)):
        if not np.isfinite(p).all():
            raise ValueError(f"{name} must be finite, got {p}")
    # one Python float per axis from here on
    center, to = ([float(p)] * g.d if p.ndim == 0 else p.tolist()
                  for p in (center, to))
    if ell == 1.0:
        return u if center == to else translate(u, np.subtract(to, center))
    n = g.n
    plan = _chirp_plan(g)
    # whole nodes of to roll the output; the rest of the placement is the
    # phase exp(i k_m b) on the input chirp
    rolls = [math.ceil(t / g.dx) for t in to]
    fracs = [t - r * g.dx for t, r in zip(to, rolls)]
    # the chirps exp(i pi ell m^2 / n) and exp(i pi ell j^2 / n), and the
    # kernel below, all read one table exp(i pi ell r^2 / n), r = 0..n
    table = np.exp(1j * ell * plan.r_sq)
    chirp = table[plan.centred]
    pre = chirp * plan.alt  # (-1)^m = exp(i k_m L), node 0 sitting at -L
    post = chirp * (ell**0.5 / n)
    kernel_hat = np.fft.fft(table[plan.cyclic].conj())
    # the chirp-z needs the full spectrum, in m order along every axis
    z = u.values * plan.sign
    z = np.fft.fft(z) if g.d == 1 else np.fft.fftn(z)
    for ax in reversed(range(g.d)):
        b = center[ax] - ell * fracs[ax]
        p_in = pre * np.exp(1j * b * plan.k) if b else pre
        p_out, taper = post, 1.0
        if (ell - 1.0) * g.half_width > 0.5 * g.dx:
            t = np.abs(ell * (g.axes[ax] - fracs[ax])) / g.half_width
            t = np.minimum(np.maximum((t - 0.75) / 0.25, 0.0), 1.0)
            taper = 1.0 - t**3 * (t * (6.0 * t - 15.0) + 10.0)
            p_out = post * taper
        a = np.fft.ifft(np.fft.fft(z * p_in, 2 * n) * kernel_hat)[..., :n]
        a *= p_out
        if ax:
            # i sin(k_max y) turns the Nyquist bin's exp(-i k_max y) into
            # cos(k_max y); the closing .real does it for the last axis.
            # That bin, m = -n/2, is the first in m order
            nyq = np.sin(g.k_max * (b + ell * g.axes[ax])) * taper
            a += np.multiply.outer(z[..., 0], 1j * (ell**0.5 / n) * nyq)
        z = a.T
    v = z.real
    for ax, r in enumerate(rolls):
        v = _roll(v, r, ax)
    v = Field(g, v)
    mass_in = l2_norm_sq(u)
    if mass_in > 0:
        drift = abs(l2_norm_sq(v) - mass_in) / mass_in
        if drift > MASS_DRIFT_TOL:
            warnings.warn(
                f"dilation by {ell} drifted mass by {drift:.3e}; "
                "the scaled field is under-resolved on this grid",
                ResolutionWarning, stacklevel=2)
    return v


def _roll(v: np.ndarray, r: int, ax: int) -> np.ndarray:
    """v rolled by r places along axis ax, as np.roll does it."""
    r %= v.shape[ax]
    if not r:
        return v
    head = (slice(None),) * ax
    return np.concatenate((v[head + (slice(-r, None),)],
                           v[head + (slice(None, -r),)]), axis=ax)


def translate(u: Field, shift) -> Field:
    """Periodic sub-grid translation v(x) = u(x - shift) by spectral phase;
    a non-finite shift raises ValueError.

    In 2D the map is the product of the two 1D translations, so the corner
    mode (n/2, n/2) takes the product of the two cosines of _shift_phases.
    That cosine damps Nyquist content, so a translation and its opposite
    do not return such a field: a 2D compute_gn profile on 64^2/12 moved
    by (0.3, -0.2) dx and back is 1.4e-5 away in H^2 (1.3e-11 at 128^2).
    """
    g = u.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))
    if shift.shape != (g.d,):
        raise ValueError(f"shift must have {g.d} components")
    if not np.isfinite(shift).all():
        raise ValueError(f"shift must be finite, got {shift}")
    hat = u.hat
    for ax in range(g.d):
        hat = hat * _shift_phases(g, ax, shift[ax])
    return Field(g, g.inverse(hat))


def _shift_phases(g: Grid, ax: int, s: float) -> np.ndarray:
    """translate's phase along axis ax for the shift s, shaped to broadcast
    over the half spectrum.

    Away from the Nyquist mode it is exp(-i k s).  A Nyquist mode stands for
    both +k_max and -k_max, and a real field carries it as the real
    combination of the two, so it takes the real part, cos(k_max s).
    """
    h = g.n // 2
    # axis 0 of a 2D spectrum is full length; the last axis is halved
    last = ax == g.d - 1
    phase = np.exp(-1j * s * g.wavenumbers[ax][:h + 1 if last else None])
    phase[h] = phase[h].real
    return phase if last else phase[:, None]


def density_center(u: Field) -> np.ndarray:
    """The |u|^2 centroid, one coordinate per axis, in [-L, L).

    Each axis's displacements are unwrapped periodically around the density
    maximum, so a field straddling the box's seam is located where it sits.
    The node half a box from the maximum lies at -L and at +L alike, and
    its displacement is 0, so an exactly even field is centered at 0.
    """
    g = u.grid
    dens = u.values**2
    total = dens.sum()
    if total <= 0.0:
        raise ValueError("the zero field has no density center")
    peak = np.unravel_index(dens.argmax(), g.shape)
    L, span = g.half_width, 2.0 * g.half_width
    center = np.empty(g.d)
    for ax, x in enumerate(g.axes):
        x_peak = float(x[peak[ax]])
        # the periodic displacement from the peak, weighted by the marginal
        disp = x - x_peak
        disp += L
        np.mod(disp, span, out=disp)
        disp -= L
        disp[(peak[ax] + g.n // 2) % g.n] = 0.0
        disp *= dens if g.d == 1 else dens.sum(axis=1 - ax)
        c = x_peak + float(disp.sum() / total)
        center[ax] = (c + L) % span - L
    return center


def random_smooth_field(g: Grid, rng: np.random.Generator) -> Field:
    """Random unit-mass field: band-limited noise under a Gaussian envelope.

    The cutoff, at most a tenth of the Nyquist wavenumber but never below
    2.5, and the envelope, well inside the box, make a trial field of the
    quotient batteries that is smooth and localized on grids that resolve
    Q.  Neither is sized for rescaling: on 2D 128^2/16 the content runs past
    half the Nyquist wavenumber.
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
    from the header.  A header that is not a JSON object of the integers d, n,
    count and the number half_width, and a payload that is not exactly the
    header's count of values -- short, or with bytes after them -- raise
    ValueError.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    try:
        meta = _block({"header": json.loads(header_line.decode("utf-8"))},
                      "header", {"d", "n", "half_width", "count"})
        d, n, count = (_as_int(meta, key, minimum=1, json_int=True)
                       for key in ("d", "n", "count"))
        half_width = _as_float(meta, "half_width")
    except ValueError as exc:
        raise ValueError(f"malformed snapshot header {path}: {exc}") from exc
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
