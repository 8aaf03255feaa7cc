"""Property tests for the rescaling maps: dilation group law, translation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm import dilate, make_grid, translate
from biharm.field import random_smooth_field

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SCALES = st.floats(min_value=0.7, max_value=1.4)


@pytest.fixture(scope="module")
def grids():
    return {1: make_grid(1, 512, 16.0), 2: make_grid(2, 128, 8.0)}


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@PROPERTY_SETTINGS
@given(d=st.sampled_from([1, 2]), seed=SEEDS, a=SCALES, b=SCALES)
def test_dilation_group_law(grids, d, seed, a, b):
    # box-localized fields whose spectra decay well below Nyquist/1.4: both
    # dilations stay resolved and inside the box, so composing them is one
    # dilation by the product
    u = random_smooth_field(grids[d], np.random.default_rng(seed))
    twice = dilate(dilate(u, a), b)
    once = dilate(u, a * b)
    assert _max_rel(twice.values, once.values) <= 1e-10


@PROPERTY_SETTINGS
@given(d=st.sampled_from([1, 2]), seed=SEEDS,
       shift=st.lists(st.floats(min_value=-8.0, max_value=8.0),
                      min_size=2, max_size=2))
def test_translation_round_trip(grids, d, seed, shift):
    u = random_smooth_field(grids[d], np.random.default_rng(seed))
    s = np.array(shift[:d])
    back = translate(translate(u, s), -s)
    assert _max_rel(back.values, u.values) <= 1e-12
