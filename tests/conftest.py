"""Shared fixtures, and the reference evaluations that only the tests use:
the longdouble energy change, the point reflection and the H^2 distance;
and the README's code blocks."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from biharm import Field, h2_norm_sq, make_grid
from biharm.energy import critical_power
from biharm.potentials import sample


def readme_block(lang: str) -> str:
    """The README's first fenced code block in lang."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def h2_distance(u: Field, v: Field) -> float:
    """H^2 distance sqrt(||u-v||^2 + ||Lap(u-v)||^2)."""
    return math.sqrt(max(h2_norm_sq(u - v), 0.0))


def reflect(u: Field) -> Field:
    """Point reflection v(x) = u(-x) respecting periodic indexing."""
    vals = u.values
    for ax in range(u.grid.d):
        vals = np.roll(np.flip(vals, axis=ax), 1, axis=ax)
    return Field(u.grid, vals)


def energy_difference(u: Field, delta: np.ndarray, V, a: float,
                      mu: float = 0.0) -> float:
    """E(v) - E(u) - mu * (mass(v) - mass(u)) for v = u + delta, from delta.

    v has the values u + delta and the transform u.hat + forward(delta).
    Every term is a sum of delta-weighted products:

        kinetic     sum |k|^4 Re(conj(delta_hat) (delta_hat + 2 u_hat))
        potential   sum V delta (v + u)
        nonlinear   sum delta (v + u) sum_{j < q/2} v^{2j} u^{q-2-2j}
        mass        sum delta (v + u)

    so the result carries rounding relative to the step, not to the energy,
    and stays exact where subtracting two energy() totals is pure roundoff.
    mu subtracts the mass change, which for the multiplier of u removes the
    first-order effect of renormalization roundoff.  It is the reference
    the solver's closed-form line energy (groundstate._line) is tested
    against.

    The sums run in extended precision (numpy's longdouble, transforms
    included), and each term is rounded once, on return.  Near a minimizer
    the kinetic, potential and nonlinear changes are each about 1e5 times
    their sum, the slope, so double-precision sums of a few hundred terms
    lose some of it: 5.1e-10 at the 2D test fixture (slope 2e-11), half
    the 1e-9 to which the closed form is tested against this, and more at
    smaller slopes.  Where numpy's longdouble is double (MSVC, macOS on
    arm64) the sums run in double all the same, with a RuntimeWarning that
    says so.
    """
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        warnings.warn("numpy's longdouble is double precision here: "
                      "energy_difference may lose about 1e-9 of an energy "
                      "change near a minimizer", RuntimeWarning,
                      stacklevel=2)
    g = u.grid
    q = critical_power(g.d)
    x = u.values.astype(np.longdouble)
    delta = np.asarray(delta, dtype=np.longdouble)
    dhat = g.forward(delta)
    vv = x + delta
    s = delta * (vv + x)  # delta (v + u)
    vv *= vv
    uu = x * x
    poly = vv + uu
    upow = uu.copy()
    for _ in range(q // 2 - 2):
        poly *= vv
        upow *= uu
        poly += upow
    kin = g.parseval(dhat, g.k_quad_complex * (dhat + 2.0 * u.hat))
    rest = (np.vdot(s, sample(V, g).values) - a * np.vdot(s, poly)
            - mu * s.sum())
    return float(kin + g.cell * rest)


@pytest.fixture(scope="session")
def g1():
    return make_grid(1, 512, 16.0)


@pytest.fixture(scope="session")
def g1_coarse():
    return make_grid(1, 256, 16.0)


@pytest.fixture(scope="session")
def g2_small():
    return make_grid(2, 64, 12.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture(scope="session")
def gauss1(g1):
    """Unit-amplitude centered Gaussian exp(-x^2/2) on the d=1 grid."""
    x = g1.axes[0]
    return Field(g1, np.exp(-0.5 * x**2))


@pytest.fixture()
def count_transforms(monkeypatch):
    """Call it to start recording np.fft calls: it returns the list their
    names are appended to; monkeypatch.undo() stops the recording."""
    def start():
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
                     "irfftn", "fft2", "ifft2", "rfft2", "irfft2"):
            fn = getattr(np.fft, name)

            def counted(*args, _fn=fn, **kwargs):
                calls.append(_fn.__name__)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        return calls
    return start
