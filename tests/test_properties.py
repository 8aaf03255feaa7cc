"""Property tests: the rescaling maps (dilation group law, translation,
dilation about a point, recentering), the snapshot format (bit-exact round
trip) and the config parser (bad numbers always exit 2 with a message);
and the README's code blocks: its config parses, its quickstart runs."""

import copy
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from biharm import Field, density_center, dilate, make_grid, translate
from biharm.cli import main
from biharm.field import random_smooth_field, read_snapshot, write_snapshot
from conftest import readme_block

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


@PROPERTY_SETTINGS
@given(d=st.sampled_from([1, 2]), seed=SEEDS,
       shift=st.lists(st.floats(min_value=-8.0, max_value=8.0),
                      min_size=2, max_size=2))
def test_recenter_undoes_a_translation(grids, d, seed, shift):
    # recentering forgets where the field was: a translated copy comes back
    # to the same field, and the two density centers differ by the
    # translation, modulo the box period
    g = grids[d]
    u = random_smooth_field(g, np.random.default_rng(seed))
    s = np.array(shift[:d])
    moved = translate(u, s)
    center, moved_center = density_center(u), density_center(moved)
    centered = dilate(u, 1.0, center=center)
    moved_centered = dilate(moved, 1.0, center=moved_center)
    assert _max_rel(moved_centered.values, centered.values) <= 1e-12
    period = 2.0 * g.half_width
    gap = np.mod(moved_center - center - s + g.half_width, period)
    assert np.max(np.abs(gap - g.half_width)) <= 1e-12 * g.half_width


@PROPERTY_SETTINGS
@given(d=st.sampled_from([1, 2]), seed=SEEDS, r=SCALES,
       center=st.lists(st.floats(min_value=-8.0, max_value=8.0),
                       min_size=2, max_size=2))
def test_dilation_about_a_point_is_one_map(grids, d, seed, r, center):
    # a field sitting at c, dilated about c in one call, is the field moved
    # to the origin, dilated there and moved back
    g = grids[d]
    c = np.array(center[:d])
    u = translate(random_smooth_field(g, np.random.default_rng(seed)), c)
    chained = translate(dilate(translate(u, -c), r), c)
    once = dilate(u, r, center=c, to=c)
    assert _max_rel(once.values, chained.values) <= 1e-12


@st.composite
def snapshot_fields(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([8, 16, 32] if d == 1 else [8, 16]))
    half_width = draw(st.floats(min_value=1e-3, max_value=1e3))
    values = draw(arrays(np.float64, (n,) * d,
                         elements=st.floats(allow_nan=False,
                                            allow_infinity=False)))
    return Field(make_grid(d, n, half_width), values)


@pytest.fixture(scope="module")
def snapshot_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshots")


@PROPERTY_SETTINGS
@given(u=snapshot_fields())
def test_snapshot_round_trip_is_bit_exact(snapshot_dir, u):
    # any finite values, signed zeros and subnormals included, and any box
    # size come back bit for bit, on the given grid or one rebuilt from the
    # header
    path = snapshot_dir / "u.bhf"
    write_snapshot(u, path)
    for grid in (u.grid, None):
        back = read_snapshot(path, grid)
        assert back.grid is u.grid
        assert back.values.tobytes() == u.values.tobytes()


def test_readme_quickstart_runs_as_written(capsys):
    # the library quickstart, executed verbatim: a* on the README grid, a
    # ground state at 0.9 a*, and the 8-point sweep with its limit check
    exec(readme_block("python"), {})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("15.9166")
    assert out[1].startswith("SolveStatus.CONVERGED")
    assert len(out) == 2 + 8


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


README_CONFIG = json.loads(readme_block("json"))
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
