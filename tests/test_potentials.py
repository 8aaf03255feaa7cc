import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

from biharm import Field, bilap_energy, l2_norm_sq, make_grid, quadrature
from biharm.field import random_smooth_field
from biharm.potentials import (
    GaussianWell,
    Harmonic,
    PowerWell,
    Sum,
    Zero,
    classify,
    ess_inf,
    level_split,
    lp_norm,
    potential_from_config,
    sample,
    sobolev_lower_bound,
)


def test_sample_pinned_values(g1):
    assert not sample(Zero(), g1).values.any()
    x = g1.axes[0]
    harm = sample(Harmonic(1.0), g1).values
    assert harm[np.flatnonzero(x == 2.0)[0]] == 4.0
    well = sample(GaussianWell(1.0, 1.0, (0.0,)), g1).values
    assert well[np.flatnonzero(x == 0.0)[0]] == -1.0


def test_sample_cached(g1):
    assert sample(Harmonic(1.0), g1) is sample(Harmonic(1.0), g1)


def test_sample_2d_well_center(g2_small):
    V = GaussianWell(2.0, 1.5, (1.5, -0.75))
    vals = sample(V, g2_small).values
    mx, my = g2_small.meshes()
    expect = -2.0 * np.exp(-((mx - 1.5) ** 2 + (my + 0.75) ** 2) / 1.5**2)
    assert_allclose(vals, expect, rtol=1e-14)


def test_sample_center_dimension_mismatch(g2_small):
    with pytest.raises(ValueError):
        sample(GaussianWell(1.0, 1.0, (0.0,)), g2_small)


def test_ess_inf_analytic(g1):
    assert ess_inf(Harmonic(2.0)) == 0.0
    assert ess_inf(Zero()) == 0.0
    assert ess_inf(GaussianWell(1.5, 1.0, (0.0,))) == -1.5
    assert ess_inf(PowerWell(1.0, 0.5)) == -np.inf


def test_ess_inf_sum_matches_scalar_minimization(g1):
    V = Sum((Harmonic(1.0), GaussianWell(1.0, 1.0, (0.0,))))
    got = ess_inf(V, g1)
    # independent oracle: minimize x^2 - exp(-x^2) directly
    res = optimize.minimize_scalar(lambda x: x * x - np.exp(-x * x),
                                   bounds=(-4.0, 4.0), method="bounded")
    assert_allclose(got, res.fun, atol=1e-9)
    assert_allclose(got, -1.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_ess_inf_two_well_sum_matches_nelder_mead(d, g1, g2_small):
    # a harmonic bowl with two off-centre wells of different depth: the
    # scan's argmin is a node near the deeper well, and Newton from there
    # must land where a derivative-free polish of the same start does
    g = g1 if d == 1 else g2_small
    c1, c2 = ((1.3,), (-2.1,)) if d == 1 else ((1.3, -0.7), (-1.9, 1.1))
    V = Sum((Harmonic(0.1), GaussianWell(2.0, 0.8, c1),
             GaussianWell(1.5, 1.2, c2)))
    vals = sample(V, g).values
    best = np.unravel_index(int(np.argmin(vals)), g.shape)
    x0 = np.array([g.axes[ax][i] for ax, i in enumerate(best)])

    def v(x):
        wells = V.parts[1:]
        return 0.1 * (x @ x) - sum(
            w.depth * np.exp(-np.sum((x - w.center) ** 2) / w.width**2)
            for w in wells)

    oracle = optimize.minimize(v, x0, method="Nelder-Mead",
                               options={"xatol": 1e-12, "fatol": 1e-14})
    got = ess_inf(V, g)
    assert got <= vals.min()
    assert got < vals.min() - 1e-6  # the scan alone is off by O(dx^2)
    assert_allclose(got, oracle.fun, rtol=0, atol=1e-12)


def test_ess_inf_sum_needs_grid():
    V = Sum((Harmonic(1.0), GaussianWell(1.0, 1.0, (0.0,))))
    with pytest.raises(ValueError):
        ess_inf(V)


def test_ess_inf_consistent_with_grid_min(g1):
    # bounded families: analytic value within node-resolution of the scan
    for V in (Zero(), Harmonic(0.7), GaussianWell(2.0, 1.3, (0.5,))):
        scan = float(sample(V, g1).values.min())
        assert abs(ess_inf(V, g1) - scan) < 10 * g1.dx**2


def test_classification(g1):
    assert classify(Zero(), 1) == "V1"
    assert classify(Harmonic(1.0), 1) == "V1"
    assert classify(Harmonic(0.0), 1) == "V1"   # degenerates to Zero
    assert classify(GaussianWell(1.0, 1.0, (0.0,)), 1) == "V2"
    assert classify(PowerWell(1.0, 0.5), 1) == "V2"
    assert classify(PowerWell(1.0, 1.5), 1) == "neither"
    assert classify(PowerWell(1.0, 1.5), 2) == "V2"
    assert classify(Sum((Harmonic(1.0), GaussianWell(1.0, 1.0, (0.0,)))),
                    1) == "V2"
    assert classify(Sum((Harmonic(1.0), PowerWell(1.0, 2.5))), 2) == "neither"


def test_family_validation():
    with pytest.raises(ValueError):
        Harmonic(-1.0)
    with pytest.raises(ValueError):
        GaussianWell(0.0, 1.0, (0.0,))
    with pytest.raises(ValueError):
        GaussianWell(1.0, -2.0, (0.0,))
    with pytest.raises(ValueError):
        PowerWell(1.0, 4.5)
    with pytest.raises(ValueError):
        PowerWell(-1.0, 0.5)
    with pytest.raises(ValueError):
        Sum(())


def test_confinement_proxy_for_confining_potentials(g1, g2_small):
    # nonnegative samples, and corners dominate the origin (Zero is the
    # documented degenerate exemption)
    for V, g in ((Harmonic(1.0), g1),
                 (Sum((Harmonic(0.5), Harmonic(0.5))), g1),
                 (Harmonic(2.0), g2_small)):
        assert classify(V, g.d) == "V1"
        vals = sample(V, g).values
        assert vals.min() >= 0.0
        corner = vals[(0,) * g.d]
        origin = vals[tuple(np.argmin(np.abs(ax)) for ax in g.axes)]
        assert corner > origin


def test_level_split_nonnegative_trivial(g1):
    s = level_split(Harmonic(1.0), g1, 2.0, 4.0, eps=0.05)
    assert not s.v1_part.values.any()
    assert not s.v2_part.values.any()
    assert not s.v3_part.values.any()
    assert s.cut_level == 0.0


def test_level_split_slack_tolerance(g1):
    V = GaussianWell(1.0, 1.0, (0.0,))
    s = level_split(V, g1, 2.0, 4.0, eps=10.0)
    assert s.cut_level == 0.0
    assert not s.v1_part.values.any()
    assert not s.v2_part.values.any()
    w = np.minimum(sample(V, g1).values, 0.0)
    assert np.array_equal(s.v3_part.values, w)
    assert np.max(np.abs(s.v3_part.values)) == 1.0


def test_level_split_tight_tolerance(g1):
    V = GaussianWell(1.0, 1.0, (0.0,))
    s = level_split(V, g1, 2.0, 4.0, eps=0.05)
    assert lp_norm(s.v1_part, 2.0) <= 0.05
    assert lp_norm(s.v2_part, 4.0) <= 0.05
    assert s.tail_level > 0.0          # the far tail genuinely engaged
    w = np.minimum(sample(V, g1).values, 0.0)
    total = s.v1_part.values + s.v2_part.values + s.v3_part.values
    assert np.array_equal(total, w)    # exact pointwise identity
    assert np.isfinite(np.max(np.abs(s.v3_part.values)))


def test_level_split_peak_peel(g1):
    V = PowerWell(1.0, 0.5)
    sup_w = float(np.max(np.abs(sample(V, g1).values)))
    s = level_split(V, g1, 2.0, 4.0, eps=3.0, v3_bound=sup_w / 4)
    assert 0.0 < s.cut_level <= sup_w / 4
    assert 0.0 < lp_norm(s.v1_part, 2.0) <= 3.0
    assert np.max(np.abs(s.v3_part.values)) <= s.cut_level
    w = np.minimum(sample(V, g1).values, 0.0)
    total = s.v1_part.values + s.v2_part.values + s.v3_part.values
    assert np.array_equal(total, w)


def test_level_split_infeasible_budget_raises(g1):
    # a ceiling below the sampled depth with a microscopic budget must
    # surface the no-finite-cut-level failure
    V = PowerWell(1.0, 0.9)
    sup_w = float(np.max(np.abs(sample(V, g1).values)))
    with pytest.raises(ValueError, match="no finite cut level"):
        level_split(V, g1, 2.0, 4.0, eps=1e-9, v3_bound=sup_w / 2)


def test_level_split_rejects_bad_exponents_and_class(g1):
    V = GaussianWell(1.0, 1.0, (0.0,))
    with pytest.raises(ValueError):
        level_split(V, g1, 4.0, 2.0, eps=0.1)
    with pytest.raises(ValueError):
        level_split(V, g1, 2.0, 4.0, eps=-0.1)
    with pytest.raises(ValueError):
        level_split(PowerWell(1.0, 1.5), g1, 2.0, 4.0, eps=0.1)


def _oracle_cuts(V, g, p1, p2, eps, v3_bound):
    """level_split's two cut levels from one masked sum per sampled level."""
    mags = np.abs(np.minimum(sample(V, g).values, 0.0))
    neg = mags > 0
    levels = np.unique(mags[neg])
    cell = g.dx**g.d
    cut = 0.0
    if v3_bound is not None:
        above = np.array([np.sum(mags[mags > lev] ** p1) * cell
                          for lev in levels])
        cut = float(levels[np.flatnonzero(above <= eps**p1)[0]])
    low = levels[levels <= cut] if cut > 0 else levels
    below = np.array([np.sum(mags[neg & (mags <= lev)] ** p2) * cell
                      for lev in low])
    idx = int(np.searchsorted(below, eps**p2, side="right")) - 1
    return cut, float(low[idx]) if idx >= 0 else 0.0


@pytest.mark.parametrize("grid, V, eps, ceiling", [
    ((1, 512, 16.0), GaussianWell(1.0, 1.0, (0.0,)), 0.05, None),
    ((1, 512, 16.0), GaussianWell(1.0, 1.0, (0.0,)), 0.5, 1.0),
    ((1, 512, 16.0), GaussianWell(1.0, 1.0, (0.0,)), 0.8, 1.0),
    ((1, 512, 16.0), PowerWell(1.0, 0.5), 3.0, 0.25),
    ((1, 512, 16.0), PowerWell(1.0, 0.5), 0.3, None),
    ((2, 64, 12.0), GaussianWell(2.0, 1.5, (1.5, -0.75)), 0.1, 1.5),
    ((2, 128, 12.0), GaussianWell(1.0, 1.0, (0.0, 0.0)), 0.05, None),
    ((2, 128, 12.0), GaussianWell(1.0, 1.0, (0.0, 0.0)), 0.5, 1.0)])
def test_level_split_matches_per_level_sums(grid, V, eps, ceiling):
    # the cumulative sums over one sort pick the levels that one masked sum
    # per level picks, and the parts follow node for node
    g = make_grid(*grid)
    sup_w = float(np.max(np.abs(np.minimum(sample(V, g).values, 0.0))))
    v3_bound = None if ceiling is None else ceiling * sup_w
    s = level_split(V, g, 2.0, 4.0, eps=eps, v3_bound=v3_bound)
    cut, tail = _oracle_cuts(V, g, 2.0, 4.0, eps, v3_bound)
    assert (s.cut_level, s.tail_level) == (cut, tail)
    assert tail > 0.0 and (cut > 0.0) == (ceiling is not None)
    w = np.minimum(sample(V, g).values, 0.0)
    mags = np.abs(w)
    peak = mags > cut if cut > 0 else np.zeros(g.shape, dtype=bool)
    far = (mags > 0) & (mags <= tail)
    assert np.array_equal(s.v1_part.values, np.where(peak, w, 0.0))
    assert np.array_equal(s.v2_part.values, np.where(far, w, 0.0))
    assert np.array_equal(s.v3_part.values, np.where(peak | far, 0.0, w))


def test_sobolev_bound_zero_for_nonnegative(g1):
    assert sobolev_lower_bound(Zero(), g1, 0.3) == 0.0
    assert sobolev_lower_bound(Harmonic(1.0), g1, 0.3) == 0.0


def test_sobolev_bound_monotone_in_weight(g1):
    V = GaussianWell(1.0, 1.0, (0.0,))
    cs = [sobolev_lower_bound(V, g1, e) for e in (0.02, 0.1, 0.5, 2.0)]
    assert all(c >= 0.0 and np.isfinite(c) for c in cs)
    assert all(a >= b for a, b in zip(cs, cs[1:]))


def test_sobolev_bound_rejects_unclassified(g1):
    with pytest.raises(ValueError):
        sobolev_lower_bound(PowerWell(1.0, 1.5), g1, 0.1)


def test_sobolev_bound_randomized_battery(g1):
    # certified constant must hold on a large battery of unit-mass fields
    V = GaussianWell(1.0, 1.0, (0.0,))
    eps = 0.1
    c = sobolev_lower_bound(V, g1, eps)
    assert np.isfinite(c) and c >= 0.0
    vvals = sample(V, g1).values
    x = g1.axes[0]
    rng = np.random.default_rng(404)
    worst = np.inf
    trials = [random_smooth_field(g1, rng) for _ in range(1000)]
    # wide smooth bumps sitting in the well are the adversarial direction:
    # tiny fourth-order energy, order-one overlap with the well
    for width in (0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0):
        u = Field(g1, np.exp(-0.5 * (x / width) ** 2))
        trials.append(u * float(l2_norm_sq(u)) ** -0.5)
    for u in trials:
        lhs = eps * bilap_energy(u) + quadrature(g1, vvals * u.values**2)
        worst = min(worst, lhs)
        assert lhs >= -c - 1e-12
    # the battery genuinely stresses the bound from below
    assert worst < 0.0


def test_sobolev_bound_battery_power_well(g1):
    V = PowerWell(1.0, 0.5)
    eps = 0.25
    c = sobolev_lower_bound(V, g1, eps)
    assert np.isfinite(c) and c >= 0.0
    vvals = sample(V, g1).values
    rng = np.random.default_rng(405)
    for _ in range(200):
        u = random_smooth_field(g1, rng)
        lhs = eps * bilap_energy(u) + quadrature(g1, vvals * u.values**2)
        assert lhs >= -c - 1e-12


def test_config_round_trip():
    cases = [
        ({"family": "zero"}, Zero()),
        ({"family": "harmonic", "strength": 0.5}, Harmonic(0.5)),
        ({"family": "gaussian_well", "depth": 1.0, "width": 2.0,
          "center": [0.5]}, GaussianWell(1.0, 2.0, (0.5,))),
        ({"family": "power_well", "depth": 1.0, "exponent": 0.5},
         PowerWell(1.0, 0.5)),
        ({"family": "sum", "parts": [
            {"family": "harmonic", "strength": 1.0},
            {"family": "gaussian_well", "depth": 1.0, "width": 1.0,
             "center": [0.0]}]},
         Sum((Harmonic(1.0), GaussianWell(1.0, 1.0, (0.0,))))),
    ]
    for cfg, expected in cases:
        V = potential_from_config(cfg, 1)
        assert type(V) is type(expected)
        assert V == expected


def test_config_rejects_malformed():
    with pytest.raises(ValueError):
        potential_from_config({"family": "quartic"}, 1)
    with pytest.raises(ValueError):
        potential_from_config({"family": "harmonic", "omega": 1.0}, 1)
    with pytest.raises(ValueError):
        potential_from_config({"family": "gaussian_well",
                               "center": [0.0, 0.0]}, 1)
    with pytest.raises(ValueError):
        potential_from_config({"family": "sum", "parts": []}, 1)
    with pytest.raises(ValueError):
        potential_from_config(["zero"], 1)


def test_power_well_clamp_tracks_resolution(g1, g1_coarse):
    # the singular node is capped at half a node spacing, so refining the
    # grid deepens the sampled minimum
    fine = sample(PowerWell(1.0, 0.5), g1).values.min()
    coarse = sample(PowerWell(1.0, 0.5), g1_coarse).values.min()
    assert fine < coarse < 0.0
