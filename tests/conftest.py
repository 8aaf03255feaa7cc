import numpy as np
import pytest

from biharm import Field, make_grid


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
