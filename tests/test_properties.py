"""Property tests: the rescaling maps (dilation group law, translation) and
the config parser (bad numbers always exit 2 with a message)."""

import copy
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm import dilate, make_grid, translate
from biharm.cli import main
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


def _readme_config() -> dict:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def _numeric_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _numeric_paths(child, path + (key,))


README_CONFIG = _readme_config()
NUMERIC_PATHS = list(_numeric_paths(README_CONFIG))
NOT_A_FINITE_NUMBER = st.one_of(
    st.none(), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.text(max_size=8), st.sampled_from([math.nan, math.inf, -math.inf]))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


def test_readme_config_has_numeric_fields():
    assert ("grid", "half_width") in NUMERIC_PATHS
    assert ("potential", "center", 0) in NUMERIC_PATHS
    assert ("seed",) in NUMERIC_PATHS


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(NUMERIC_PATHS), value=NOT_A_FINITE_NUMBER)
def test_bad_number_in_readme_config_exits_2(config_dir, path, value):
    # the sweep command reads every block of the README config; any numeric
    # field replaced by something that is not a finite number is a config
    # error, reported before any compute and never as a traceback
    raw = copy.deepcopy(README_CONFIG)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cfg = config_dir / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = io.StringIO()
    code = main(["--config", str(cfg), "--output", str(config_dir / "run"),
                 "sweep"], out=out)
    assert code == 2
    assert out.getvalue().startswith("config error: ")
    assert not (config_dir / "run").exists()
