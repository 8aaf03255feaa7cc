"""External potential families, their classification, and the negative-part
level decomposition used by the coercivity bound.

Two admissible classes: confining nonnegative potentials ("V1") and
bounded-or-singular wells whose negative part splits into a small L^{p1}
piece, a small L^{p2} piece, and a bounded remainder ("V2").  Everything
else is "neither" and is rejected by the gates that need coercivity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._readers import ConfigError, _as_float, _as_floats, _block
from .field import Field
from .grid import Grid


@dataclass(frozen=True)
class Zero:
    """V = 0 (degenerate confining member)."""


@dataclass(frozen=True)
class Harmonic:
    """V(x) = strength * |x|^2."""

    strength: float = 1.0

    def __post_init__(self):
        if not 0 <= self.strength < math.inf:
            raise ValueError("harmonic strength must be finite and >= 0")


@dataclass(frozen=True)
class GaussianWell:
    """V(x) = -depth * exp(-|x - center|^2 / width^2)."""

    depth: float = 1.0
    width: float = 1.0
    center: tuple = (0.0,)

    def __post_init__(self):
        if not (0 < self.depth < math.inf and 0 < self.width < math.inf):
            raise ValueError("well depth and width must be finite and "
                             "positive")
        c = self.center
        if np.isscalar(c):
            c = (float(c),)
        c = tuple(float(x) for x in c)
        if not all(map(math.isfinite, c)):
            raise ValueError(f"well center must be finite, got {c}")
        object.__setattr__(self, "center", c)


@dataclass(frozen=True)
class PowerWell:
    """V(x) = -depth * |x|^{-exponent}, clamped at half a node spacing.

    The exponent window (0, 4) keeps the singularity below the order of the
    operator in the supported dimensions; integrability of the negative part
    (the splittable-well hypothesis) additionally needs exponent < d, which
    classification checks.
    """

    depth: float = 1.0
    exponent: float = 0.5

    def __post_init__(self):
        if not 0 < self.depth < math.inf:
            raise ValueError("well depth must be finite and positive")
        if not 0 < self.exponent < 4:
            raise ValueError("power-well exponent must lie in (0, 4)")


@dataclass(frozen=True)
class Sum:
    """Pointwise sum of component potentials."""

    parts: tuple = ()

    def __post_init__(self):
        if not self.parts:
            raise ValueError("sum potential needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))


def _evaluate(V, meshes, clamp: float):
    """Pointwise values on coordinate meshes; clamp is the radial floor for
    singular families (half a node spacing when sampling a grid)."""
    if isinstance(V, Zero):
        return np.zeros(np.broadcast(*meshes).shape)
    if isinstance(V, Harmonic):
        return V.strength * sum(m**2 for m in meshes)
    if isinstance(V, GaussianWell):
        if len(V.center) != len(meshes):
            raise ValueError(
                f"well center has {len(V.center)} components, grid is "
                f"{len(meshes)}-dimensional")
        r_sq = sum((m - c) ** 2 for m, c in zip(meshes, V.center))
        return -V.depth * np.exp(-r_sq / V.width**2)
    if isinstance(V, PowerWell):
        r = np.sqrt(sum(m**2 for m in meshes))
        if clamp > 0:
            r = np.maximum(r, clamp)
        with np.errstate(divide="ignore"):
            return -V.depth * r**-V.exponent
    if isinstance(V, Sum):
        return sum(_evaluate(p, meshes, clamp) for p in V.parts)
    raise TypeError(f"not a potential family: {type(V).__name__}")


@functools.lru_cache(maxsize=128)
def sample(V, g: Grid) -> Field:
    """Evaluate the potential on the grid nodes (cached per potential/grid)."""
    vals = _evaluate(V, g.meshes(), clamp=g.dx / 2.0)
    return Field(g, np.broadcast_to(vals, g.shape).copy())


def ess_inf(V, g: Grid | None = None) -> float:
    """Essential infimum, analytic per family.

    Sums are minimized numerically (grid scan, then damped Newton on the
    closed-form derivatives from the scan's argmin), which is why they need
    a grid; the result is never above the smallest sampled value.
    """
    if isinstance(V, (Zero, Harmonic)):
        return 0.0
    if isinstance(V, GaussianWell):
        return -float(V.depth)
    if isinstance(V, PowerWell):
        return float("-inf")
    if isinstance(V, Sum):
        if any(isinstance(p, PowerWell) for p in _flatten(V)):
            return float("-inf")
        if g is None:
            raise ValueError("sum potentials need a grid to minimize over")
        return float(min(sample(V, g).values.min(),
                         _newton_minimum(V, potential_argmin(V, g))))
    raise TypeError(f"not a potential family: {type(V).__name__}")


def potential_argmin(V, g: Grid) -> np.ndarray:
    """Coordinates of the smallest sampled potential value: the first such
    node in C order when several tie, and the origin when the sampled V is
    constant."""
    vals = sample(V, g).values
    if vals.max() == vals.min():
        return np.zeros(g.d)
    idx = np.unravel_index(int(np.argmin(vals)), g.shape)
    return np.array([g.axes[ax][i] for ax, i in enumerate(idx)])


def _newton_minimum(V, x: np.ndarray) -> float:
    """Value at a local minimum of a Sum without power wells, from x.

    Damped Newton on the closed-form gradient and Hessian: the Hessian's
    eigenvalues are taken in absolute value so every step points downhill,
    and a step is halved until the value drops.  It stops when no halving
    lowers the value, which near the minimum means the steps are below
    roundoff.
    """
    def value(y):
        return float(_evaluate(V, tuple(y), clamp=0.0))

    f = value(x)
    for _ in range(30):
        grad, hess = _gradient_and_hessian(V, x)
        lam, vecs = np.linalg.eigh(hess)
        lam = np.maximum(np.abs(lam), 1e-12)
        step = -vecs @ ((vecs.T @ grad) / lam)
        for _ in range(40):
            trial = value(x + step)
            if trial < f:
                break
            step *= 0.5
        else:
            return f
        x, f = x + step, trial
    return f


def _gradient_and_hessian(V, x: np.ndarray):
    """Closed-form gradient and Hessian at x of a Sum of Zero, Harmonic and
    GaussianWell parts."""
    d = x.size
    grad, hess = np.zeros(d), np.zeros((d, d))
    for p in _flatten(V):
        if isinstance(p, Harmonic):
            grad += 2.0 * p.strength * x
            hess += 2.0 * p.strength * np.eye(d)
        elif isinstance(p, GaussianWell):
            r = x - np.asarray(p.center)
            w2 = p.width**2
            c = 2.0 * p.depth / w2 * math.exp(-float(r @ r) / w2)
            grad += c * r
            hess += c * (np.eye(d) - (2.0 / w2) * np.outer(r, r))
    return grad, hess


def _flatten(V):
    if isinstance(V, Sum):
        for p in V.parts:
            yield from _flatten(p)
    else:
        yield V


def classify(V, d: int) -> str:
    """Classify as "V1" (nonnegative confining, Zero being the degenerate
    member), "V2" (well with an L^p-splittable negative part), or "neither"."""
    leaves = list(_flatten(V))
    labels = []
    for p in leaves:
        if isinstance(p, (Zero, Harmonic)):
            labels.append("V1")
        elif isinstance(p, GaussianWell):
            labels.append("V2")
        elif isinstance(p, PowerWell):
            labels.append("V2" if p.exponent < d else "neither")
        else:
            raise TypeError(f"not a potential family: {type(p).__name__}")
    if all(lab == "V1" for lab in labels):
        return "V1"
    if all(lab in ("V1", "V2") for lab in labels):
        return "V2"
    return "neither"


@dataclass(frozen=True)
class PotentialSplit:
    """Exact pointwise decomposition of the negative part min{V, 0} into a
    peaked piece small in L^{p1}, a far tail small in L^{p2}, and a bounded
    remainder.  cut_level = 0 is the sentinel for "no peak was peeled"."""

    v1_part: Field
    v2_part: Field
    v3_part: Field
    p1: float
    p2: float
    cut_level: float
    tail_level: float = 0.0    # diagnostic: magnitude cut of the far tail


def level_split(V, g: Grid, p1: float = 2.0, p2: float = 4.0,
                eps: float = 0.05, v3_bound: float | None = None
                ) -> PotentialSplit:
    """Split min{V, 0} by magnitude levels.

    When the tolerance is slack (eps at least the sup of the negative part)
    and no ceiling is requested, the bounded remainder carries everything and
    cut_level = 0 reports that no cut was needed.  Otherwise the far tail
    (smallest magnitudes) goes to the L^{p2} piece, cut at the largest
    sampled level whose below-level cumulative L^{p2} norm stays within eps,
    located by bisection on the level-ordered cumulative sums.  The peak
    (largest magnitudes) is peeled into the L^{p1} piece only when a finite
    v3_bound ceiling is requested; its cut is the smallest sampled level that
    keeps the above-level L^{p1} norm within eps, and it must not exceed the
    ceiling — failure of that search means no finite cut level meets the
    budget at this resolution, i.e. the potential behaves as if outside the
    splittable-well hypothesis.  cut_level = 0 is the documented sentinel for
    "no peak peel".  v1 + v2 + v3 equals min{V, 0} node-for-node exactly.
    """
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    if not max(1.0, g.d / 4.0) < p1 < p2:
        raise ValueError(f"need max(1, d/4) < p1 < p2, got p1={p1}, p2={p2}")
    vals = sample(V, g).values
    if classify(V, g.d) != "V2" and vals.min() < 0:
        raise ValueError(
            "level_split needs a splittable-well potential or a nonnegative "
            "one")
    w = np.minimum(vals, 0.0)
    zero = Field(g, np.zeros(g.shape))
    if not np.any(w < 0):
        return PotentialSplit(zero, zero, zero, p1, p2, 0.0)
    mags = np.abs(w)
    sup_w = float(mags.max())
    if v3_bound is None and eps >= sup_w:
        # tolerance slack: the bounded piece carries the whole well
        return PotentialSplit(zero, zero, Field(g, w), p1, p2, 0.0)

    neg = mags > 0
    m = np.sort(mags[neg])                  # ascending, with repeats
    levels = np.unique(m)
    ends = np.searchsorted(m, levels, side="right")  # past each level's run
    cell = g.cell

    # ---- peak peel, only under a requested ceiling: smallest level whose
    # above-level p1 mass fits eps^p1.  The masses are suffix sums, so the
    # small ones near the peak are not differences of large numbers
    if v3_bound is not None:
        if v3_bound <= 0:
            raise ValueError("v3_bound must be positive")
        above_p1 = np.append(np.cumsum((m**p1)[::-1])[::-1], 0.0)[ends] * cell
        ok = np.flatnonzero(above_p1 <= eps**p1)
        if ok.size == 0 or levels[ok[0]] > v3_bound:
            raise ValueError(
                "no finite cut level meets the tolerance at this resolution; "
                "the potential behaves as if outside the splittable-well "
                "hypothesis")
        cut_level = float(levels[ok[0]])
        peak_mask = mags > cut_level
    else:
        cut_level = 0.0
        peak_mask = np.zeros(g.shape, dtype=bool)

    # ---- far tail below the peak: largest level whose below-level p2 mass
    # fits eps^p2
    low = levels[levels <= cut_level] if cut_level > 0 else levels
    mass_p2 = np.cumsum(m**p2)[ends[:low.size] - 1] * cell
    tail_idx = int(np.searchsorted(mass_p2, eps**p2, side="right")) - 1
    tail_level = float(low[tail_idx]) if tail_idx >= 0 else 0.0
    tail_mask = neg & (mags <= tail_level)

    v1 = np.where(peak_mask, w, 0.0)
    v2 = np.where(tail_mask, w, 0.0)
    v3 = w - v1 - v2
    return PotentialSplit(Field(g, v1), Field(g, v2), Field(g, v3),
                          p1, p2, cut_level, tail_level)


def _weighted_multiplier_norm(g: Grid, m: np.ndarray, iters: int = 80) -> float:
    """Operator norm of multiplication by m >= 0 measured against fields
    weighted by (1 + |k|^4)^{1/2}, by power iteration on the symmetrized
    operator."""
    if not np.any(m):
        return 0.0
    sym = (1.0 + g.k_quad) ** -0.5

    def apply(v):
        v = m * g.inverse(sym * g.forward(v))
        return g.inverse(sym * g.forward(v))

    rng = np.random.default_rng(1)
    v = rng.standard_normal(g.shape)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        av = apply(v)
        new_lam = float(v.ravel() @ av.ravel())
        nrm = np.linalg.norm(av)
        if nrm == 0.0:
            return 0.0
        v = av / nrm
        if abs(new_lam - lam) <= 1e-12 * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return abs(lam)


def sobolev_lower_bound(V, g: Grid, eps: float) -> float:
    """Certified constant C >= 0 with eps*∫|Δu|² + ∫V|u|² >= -C for every
    unit-mass field on this grid.

    Assembled from level peels of the negative part: everything above a
    ceiling enters through 1.1 times its multiplier norm against the
    fourth-order weight (a certified candidate while that stays below eps,
    the coercivity margin), the below-ceiling remainder through its sup.  A
    ladder of ceilings is tried and the best certified constant wins; the
    no-peel candidate sup|min{V,0}| is always available, so the result is
    finite and never increases with eps.
    """
    if eps <= 0:
        raise ValueError("weight must be positive")
    if classify(V, g.d) == "neither":
        raise ValueError("potential is neither confining nor a splittable "
                         "well; no coercivity certificate")
    vals = sample(V, g).values
    w = np.minimum(vals, 0.0)
    mags = np.abs(w)
    sup_w = float(mags.max())
    if sup_w == 0.0:
        return 0.0

    best = sup_w                                  # no-peel fallback
    ceilings = [sup_w * 2.0**-j for j in range(1, 15)] + [0.0]
    for ceiling in ceilings:
        m = np.where(mags > ceiling, mags, 0.0)
        lam_hat = 1.1 * _weighted_multiplier_norm(g, m)
        if lam_hat > eps:
            continue                              # coercivity margin lost
        best = min(best, lam_hat + ceiling)
    return best


# the keys each family reads besides "family"
_FAMILY_KEYS = {"zero": (), "harmonic": ("strength",),
                "gaussian_well": ("depth", "width", "center"),
                "power_well": ("depth", "exponent"), "sum": ("parts",)}


def potential_from_config(obj, d: int):
    """Build a potential from its JSON-config dict (see the run-config
    format); raises ConfigError, a ValueError, on malformed input and on a
    power well in neither class in dimension d (see classify), which solve
    rejects; a sum's parts are built, and so checked, one by one."""
    fam = obj.get("family") if isinstance(obj, dict) else None
    known = _FAMILY_KEYS.get(fam) if isinstance(fam, str) else None
    if known is None and isinstance(obj, dict):
        raise ConfigError(f"unknown potential family: {fam!r}")
    obj = _block({"potential": obj}, "potential", {"family", *(known or ())})
    if fam == "zero":
        return Zero()
    if fam == "harmonic":
        return Harmonic(strength=_as_float(obj, "strength", 1.0))
    if fam == "gaussian_well":
        center = obj.get("center", [0.0] * d)
        if not isinstance(center, list):  # one number for a 1D center
            center = [center]
        center = _as_floats({"center": center}, "center")
        if len(center) != d:
            raise ConfigError(f"well center must have {d} components")
        return GaussianWell(depth=_as_float(obj, "depth", 1.0),
                            width=_as_float(obj, "width", 1.0), center=center)
    if fam == "power_well":
        V = PowerWell(depth=_as_float(obj, "depth", 1.0),
                      exponent=_as_float(obj, "exponent", 0.5))
        if classify(V, d) == "neither":
            raise ConfigError(f"potential family 'power_well' is neither "
                              f"confining nor a splittable well in d={d}: "
                              f"its exponent {V.exponent} must be below d")
        return V
    parts = obj.get("parts")
    if not isinstance(parts, list) or not parts:
        raise ConfigError("sum potential needs a non-empty parts list")
    return Sum(tuple(potential_from_config(p, d) for p in parts))
