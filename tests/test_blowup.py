"""Sweep diagnostics along couplings climbing toward the critical constant."""

import dataclasses
import re
import sys
import warnings

import numpy as np
import pytest

from biharm import (GaussianWell, Harmonic, ResolutionWarning, SolveConfig,
                    SolveResult, Sum, SweepRecord, Zero, blowup, compute_gn,
                    energy_limit_check, ess_inf, gn_sequence_check,
                    load_sweep, make_grid, read_snapshot, save_sweep, sweep,
                    sweep_plot_columns)
from biharm.blowup import _h2_after_best_shift
from biharm.energy import critical_power, critical_shift
from biharm.field import bilap_energy, density_center, l2_norm_sq, translate
from biharm.groundstate import (SOLVE_COUNTERS, InitSpec, SolveStatus,
                                initial_field, solve)
from conftest import h2_distance


@pytest.fixture(scope="module")
def g256():
    return make_grid(1, 256, 16.0)


@pytest.fixture(scope="module")
def gn256(g256):
    return compute_gn(g256)


@pytest.fixture(scope="module")
def solve_cfg():
    return SolveConfig(tol_grad=1e-6, max_iters=40000)


@pytest.fixture(scope="module")
def well_records(g256, gn256, solve_cfg):
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in range(1, 7)]
    return sweep(g256, GaussianWell(1.0), schedule, solve_cfg, gn256)


def test_single_record_at_half_coupling(g256, gn256, solve_cfg):
    records = sweep(g256, GaussianWell(1.0), [gn256.a_star / 2], solve_cfg,
                    gn256)
    assert len(records) == 1
    r = records[0]
    assert r.status == "Converged"
    assert np.isfinite(r.kinetic) and r.kinetic > 0
    assert r.resolved
    assert abs(r.center[0]) < 1e-3


def test_schedule_validation(g256, gn256, solve_cfg):
    V = GaussianWell(1.0)
    with pytest.raises(ValueError, match="empty"):
        sweep(g256, V, [], solve_cfg, gn256)
    with pytest.raises(ValueError, match="increasing"):
        sweep(g256, V, [8.0, 8.0], solve_cfg, gn256)
    with pytest.raises(ValueError, match="increasing"):
        sweep(g256, V, [10.0, 8.0], solve_cfg, gn256)
    with pytest.raises(ValueError, match="outside"):
        sweep(g256, V, [gn256.a_star * 1.01], solve_cfg, gn256)
    with pytest.raises(ValueError, match="outside"):
        sweep(g256, V, [0.0, 8.0], solve_cfg, gn256)


def test_reference_grid_mismatch(gn256, solve_cfg):
    other = make_grid(1, 512, 16.0)
    with pytest.raises(ValueError, match="incompatible grid"):
        sweep(other, GaussianWell(1.0), [8.0], solve_cfg, gn256)


def test_all_records_converged_and_resolved(well_records):
    assert [r.status for r in well_records] == ["Converged"] * len(well_records)
    assert all(r.resolved for r in well_records)


def test_eps_is_inverse_quartic_root_of_kinetic(well_records):
    for r in well_records:
        assert r.eps == r.kinetic**-0.25


def test_kinetic_increases_and_scale_shrinks(well_records):
    kin = [r.kinetic for r in well_records]
    eps = [r.eps for r in well_records]
    assert all(b > a for a, b in zip(kin, kin[1:]))
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_profile_distance_decreases_below_threshold(well_records):
    d = [r.h2_dist_to_Q for r in well_records]
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[-1] < 0.05


def test_rescaled_profiles_sit_in_unit_gauge(well_records):
    for r in well_records:
        assert abs(l2_norm_sq(r.rescaled) - 1.0) < 1e-8
        assert abs(bilap_energy(r.rescaled) - 1.0) < 1e-6


def test_minimizers_center_on_the_well(well_records):
    for r in well_records:
        assert abs(r.center[0]) < 1e-3


def test_nonlinear_mass_approaches_critical_from_below(well_records, gn256):
    vals = gn_sequence_check(well_records, gn256)
    assert len(vals) == len(well_records)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 1.0
    assert vals[-1] > 0.95
    assert all(v < 1.0 + 1e-3 for v in vals)


def test_reference_profile_scores_one(gn256):
    fake = SweepRecord(a=1.0, energy=0.0, kinetic=1.0, eps=1.0, center=(0.0,),
                       h2_dist_to_Q=0.0, status="Converged", resolved=True,
                       rescaled=gn256.Q)
    (val,) = gn_sequence_check([fake], gn256)
    assert abs(val - 1.0) < 1e-6


def test_sequence_check_needs_resolved_profiles(gn256):
    bad = SweepRecord(a=1.0, energy=0.0, kinetic=1.0, eps=1.0, center=(0.0,),
                      h2_dist_to_Q=0.0, status="MaxIters", resolved=False,
                      rescaled=gn256.Q)
    with pytest.raises(ValueError, match="resolved"):
        gn_sequence_check([bad], gn256)


def test_energy_gap_verdicts(well_records, g256):
    floor = ess_inf(GaussianWell(1.0), g256)
    gap, ok = energy_limit_check(well_records, floor, tol=0.3)
    assert ok
    assert 0.0 < gap < 0.3
    strict_gap, strict_ok = energy_limit_check(well_records, floor, tol=0.01)
    assert strict_gap == gap
    assert not strict_ok


def test_energy_check_needs_three_resolved(well_records, g256):
    with pytest.raises(ValueError, match="3 resolved"):
        energy_limit_check(well_records[:2], ess_inf(GaussianWell(1.0), g256))


def test_energy_limit_without_potential(g256, gn256, solve_cfg):
    # with no well the box minimizers flatten out; energies hug zero from
    # below at the 1e-5 scale of the near-constant state's nonlinear term.
    # Their eps (about 3105) is far wider than the box, so no record is
    # resolved and sweep compares none of them for growth; the roundoff
    # margin of that comparison is test_concentration_growth_warning's.
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in (1, 4, 6, 8)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the flat states do not survive rescaling by eps ~ 254; each record
        # flags that, and it is not what this test checks
        warnings.simplefilter("ignore", ResolutionWarning)
        records = sweep(g256, Zero(), schedule, solve_cfg, gn256)
    assert not any(r.resolved for r in records)
    gaps = [abs(r.energy) for r in records]
    assert all(g < 0.05 for g in gaps)
    assert all(r.energy < 0.0 for r in records)


@pytest.mark.parametrize("kinetic_factor, warns", [(0.9, True),
                                                     (1.0 - 4e-12, False)])
def test_concentration_growth_warning(g256, gn256, solve_cfg, monkeypatch,
                                      kinetic_factor, warns):
    # the second solve reports a kinetic energy below the first one's, so
    # eps = kinetic^(-1/4) grows: by 2.7% it is flagged, by 1e-12 it is
    # roundoff and is not
    solves = []

    def shrunk_kinetic(*args, **kwargs):
        res = solve(*args, **kwargs)
        if solves:
            kin = solves[0].breakdown.kinetic * kinetic_factor
            res = dataclasses.replace(res, breakdown=dataclasses.replace(
                res.breakdown, kinetic=kin))
        solves.append(res)
        return res

    monkeypatch.setattr(blowup, "solve", shrunk_kinetic)
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in (1, 2)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = sweep(g256, GaussianWell(1.0), schedule, solve_cfg, gn256)
    assert all(r.resolved and r.status == "Converged" for r in records)
    assert records[1].eps > records[0].eps
    grew = [w for w in caught if "concentration scale grew" in str(w.message)]
    assert len(grew) == int(warns)


def test_harmonic_gap_shrinks_toward_zero(g256, gn256, solve_cfg):
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in (2, 4, 6)]
    records = sweep(g256, Harmonic(1.0), schedule, solve_cfg, gn256)
    gap, ok = energy_limit_check(records, ess_inf(Harmonic(1.0), g256),
                                 tol=1.0)
    assert ok
    assert gap < 0.5


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_under_resolved_tail_is_flagged():
    # on a coarse grid the near-critical minimizer collapses past the node
    # spacing; the record must say so rather than present spike numbers as
    # converged physics
    g = make_grid(1, 128, 16.0)
    gn = compute_gn(g, cfg=SolveConfig(tol_grad=1e-4, max_iters=8000))
    cfg = SolveConfig(tol_grad=1e-6, max_iters=2000)
    records = sweep(g, GaussianWell(1.0), [gn.a_star * (1.0 - 2.0**-6)], cfg,
                    gn)
    r = records[0]
    assert not r.resolved
    assert r.eps < 4.0 * g.dx
    assert np.isfinite(r.h2_dist_to_Q)
    with pytest.raises(ValueError, match="3 resolved"):
        energy_limit_check(records, ess_inf(GaussianWell(1.0), g))


def test_solver_failures_are_recorded_not_raised(g256, gn256):
    starved = SolveConfig(tol_grad=1e-14, max_iters=3)
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in (1, 2)]
    records = sweep(g256, GaussianWell(1.0), schedule, starved, gn256)
    assert [r.status for r in records] == ["MaxIters", "MaxIters"]
    assert all(np.isfinite(r.energy) for r in records)


def test_save_sweep_writes_csv_and_snapshots(tmp_path, well_records, g256):
    csv_path = save_sweep(well_records, tmp_path / "run")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("a,energy,kinetic,eps,center,h2_dist_to_Q,status,"
                        "resolved,iterations,backtracks,trials,"
                        "cg_restarts,fft_calls,coarse_fallbacks")
    assert len(lines) == len(well_records) + 1
    first = lines[1].split(",")
    assert float(first[0]) == well_records[0].a
    assert first[6] == "Converged"
    assert [int(c) for c in first[8:]] == [well_records[0].iterations,
                                          well_records[0].backtracks,
                                          well_records[0].trials,
                                          well_records[0].cg_restarts,
                                          well_records[0].fft_calls,
                                          well_records[0].coarse_fallbacks]
    for i, rec in enumerate(well_records):
        u = read_snapshot(tmp_path / "run" / f"u_{i:03d}.bhf", g256)
        w = read_snapshot(tmp_path / "run" / f"w_{i:03d}.bhf", g256)
        assert np.array_equal(u.values, rec.minimizer.values)
        assert np.array_equal(w.values, rec.rescaled.values)


def test_hand_built_record_round_trips_through_csv(tmp_path):
    # a record built by hand carries no solver counters: they are written
    # as empty cells and read back as None
    bare = SweepRecord(a=1.0, energy=-0.5, kinetic=2.0, eps=2.0**-0.25,
                       center=(0.1,), h2_dist_to_Q=0.01, status="MaxIters",
                       resolved=False)
    counted = dataclasses.replace(bare, a=1.5, status="Converged",
                                  resolved=True, iterations=7, backtracks=0,
                                  trials=8, cg_restarts=1, fft_calls=16,
                                  coarse_fallbacks=7)
    path = save_sweep([bare, counted], tmp_path / "run")
    assert load_sweep(path) == [bare, counted]


@pytest.mark.parametrize("column, cell", [
    ("energy", "nan"), ("eps", "inf"), ("center", "0.0;-inf"),
    ("status", "Bogus"), ("resolved", "yes"), ("resolved", ""),
    ("iterations", "-3"), ("backtracks", " 7"), ("trials", "+7"),
    ("cg_restarts", "1_0"), ("fft_calls", "\u0663")])
def test_load_sweep_rejects_cells_save_sweep_never_writes(tmp_path, column,
                                                          cell):
    # a non-finite number, a status that is no SolveStatus value, a
    # resolved other than True or False, and a counter that int() reads
    # but save_sweep never writes (a negative count, a sign, a space, an
    # underscore, a non-ASCII digit: U+0663 is ARABIC-INDIC DIGIT THREE)
    # each name their column and row
    rec = SweepRecord(a=1.0, energy=-0.5, kinetic=2.0, eps=2.0**-0.25,
                      center=(0.1, 0.2), h2_dist_to_Q=0.01,
                      status="Converged", resolved=True)
    path = save_sweep([rec, dataclasses.replace(rec, a=1.5)],
                      tmp_path / "run")
    header, first, second = path.read_text().splitlines()
    cells = second.split(",")
    cells[header.split(",").index(column)] = cell
    path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"row 2: column '{column}' holds {cell!r}")):
        load_sweep(path)


def test_energy_limit_check_on_records_read_back(tmp_path, g256, gn256,
                                                 solve_cfg):
    # records read back from sweep.csv carry no minimizer, and so no grid:
    # the floor of a sum potential, which needs one, comes from the caller
    V = Sum((GaussianWell(1.0, 1.0, (0.0,)), GaussianWell(1e-3, 1.0, (5.0,))))
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in (2, 4, 6)]
    records = sweep(g256, V, schedule, solve_cfg, gn256)
    floor = ess_inf(V, g256)
    read = load_sweep(save_sweep(records, tmp_path / "run"))
    assert [r.energy for r in read] == [r.energy for r in records]
    gap, ok = energy_limit_check(read, floor, tol=0.3)
    assert ok and gap == abs(records[-1].energy - floor)


def test_solve_counters_are_the_solver_result_counters():
    # SOLVE_COUNTERS lists SolveResult's integer fields in its order, each
    # also a field of SweepRecord, but for coarse_half_grid, which only
    # solve.json carries
    result = [f.name for f in dataclasses.fields(SolveResult)
              if f.type in (int, "int")]
    assert list(SOLVE_COUNTERS) == [c for c in result
                                    if c != "coarse_half_grid"]
    record = {f.name for f in dataclasses.fields(SweepRecord)}
    assert set(SOLVE_COUNTERS) <= record


def test_plot_columns_track_records(well_records, gn256):
    cols = sweep_plot_columns(well_records, gn256.a_star, -1.0)
    assert sorted(cols) == ["energy_gap", "eps", "h2_dist"]
    xs = [x for x, _ in cols["eps"]]
    assert xs[0] == pytest.approx(0.5)
    assert all(b < a for a, b in zip(xs, xs[1:]))
    gaps = [y for _, y in cols["energy_gap"]]
    assert all(y > 0 for y in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_records_carry_the_solver_counters(g256, gn256, solve_cfg,
                                          monkeypatch):
    results = []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(sys.modules["biharm.blowup"], "solve", counted)
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in (1, 3)]
    records = sweep(g256, GaussianWell(1.0), schedule, solve_cfg, gn256)
    assert [(r.iterations, r.trials, r.backtracks, r.cg_restarts, r.fft_calls,
             r.coarse_fallbacks) for r in records] == [
        (s.iterations, s.trials, s.backtracks, s.cg_restarts, s.fft_calls,
         s.coarse_fallbacks) for s in results]
    assert all(r.iterations > 0 for r in records)
    assert all(r.seconds > 0.0 for r in records)


def _golden_section_h2(w, ref):
    """Reference shift search: coordinate-wise golden section, two sweeps."""
    g = w.grid
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    shift = np.zeros(g.d)

    def dist(s):
        return h2_distance(translate(w, s), ref)

    best = dist(shift)
    for _ in range(2):
        for ax in range(g.d):
            lo, hi = -2.0 * g.dx, 2.0 * g.dx
            while hi - lo > 1e-6 * g.dx:
                c = hi - invphi * (hi - lo)
                d = lo + invphi * (hi - lo)
                sc, sd = shift.copy(), shift.copy()
                sc[ax] += c
                sd[ax] += d
                if dist(sc) < dist(sd):
                    hi = d
                else:
                    lo = c
            mid = shift.copy()
            mid[ax] += 0.5 * (lo + hi)
            best, shift = min((best, shift), (dist(mid), mid),
                              key=lambda pair: pair[0])
    return best


def test_shift_search_agrees_with_golden_section(well_records, gn256):
    for r in well_records:
        w = r.rescaled  # the sweep measures its stored profile as it is
        ref = _golden_section_h2(w, gn256.Q)
        assert _h2_after_best_shift(w, gn256.Q) == r.h2_dist_to_Q
        assert abs(r.h2_dist_to_Q - ref) <= 1e-10 * ref


def test_shift_search_recovers_a_1d_translation(g256, gn256):
    moved = translate(gn256.Q, (0.3 * g256.dx,))
    assert h2_distance(moved, gn256.Q) > 1e-2
    assert _h2_after_best_shift(moved, gn256.Q) <= 1e-10


def test_shift_search_runs_one_forward_transform(g256, gn256,
                                                count_transforms):
    # with the reference's spectrum cached, the search transforms w - ref
    # once and inverts nothing
    gn256.Q.hat
    moved = translate(gn256.Q, (0.3 * g256.dx,))
    calls = count_transforms()
    _h2_after_best_shift(moved, gn256.Q)
    assert calls == ["rfft"]


def test_shift_search_recovers_a_2d_translation():
    # 128^2: at 64^2 the profile's Nyquist content (1e-5) already caps how
    # exactly a sub-grid translation can be undone
    g = make_grid(2, 128, 12.0)
    Q = compute_gn(g, SolveConfig(tol_grad=1e-4, max_iters=4000)).Q
    moved = translate(Q, (0.3 * g.dx, -0.2 * g.dx))
    assert h2_distance(moved, Q) > 1e-2
    assert _h2_after_best_shift(moved, Q) <= 1e-10


def test_shift_search_never_worse_than_no_shift(g256, gn256):
    # against -Q the distance's nearby stationary point is its maximum;
    # Newton converges to it, and the unshifted distance is kept
    w = -translate(gn256.Q, (0.1 * g256.dx,))
    at_zero = h2_distance(w, gn256.Q)
    assert h2_distance(translate(w, (-0.1 * g256.dx,)), gn256.Q) > at_zero
    assert _h2_after_best_shift(w, gn256.Q) == at_zero


def test_shift_search_lowers_the_distance_on_an_asymmetric_well(
        g256, gn256, solve_cfg):
    # on a symmetric well the density center already sits at the distance
    # minimum and the search changes nothing; a second, wider well beside
    # the first skews the profile, and the minimum moves off that center
    V = Sum((GaussianWell(1.0, 1.0, (0.0,)), GaussianWell(0.5, 2.0, (1.5,))))
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in range(1, 9)]
    records = sweep(g256, V, schedule, solve_cfg, gn256)
    assert all(r.resolved for r in records)
    for r in records:
        assert r.h2_dist_to_Q < 0.99 * h2_distance(r.rescaled, gn256.Q)


def test_offset_well_sweep_converges_every_point(solve_cfg, monkeypatch):
    # a well a quarter node off the origin once left the 2^-8 point on a
    # roundoff shelf of the line search, ending MaxIters after 40000 steps
    g = make_grid(1, 512, 16.0)
    gn = compute_gn(g)
    iterations = []

    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(sys.modules["biharm.blowup"], "solve", counted)
    schedule = [gn.a_star * (1.0 - 2.0**-k) for k in range(1, 9)]
    records = sweep(g, GaussianWell(1.0, 1.0, (g.dx / 4.0,)), schedule,
                    solve_cfg, gn)
    assert [r.status for r in records] == ["Converged"] * 8
    assert len(iterations) == 8
    assert max(iterations) <= 500


def _plain_chain(g, V, schedule, cfg, gn):
    """Each coupling warm-started from the previous minimizer as it stands."""
    ell = (1.0 - schedule[0] / gn.a_star) ** (-1.0 / 6.0)
    start = initial_field(g, V, InitSpec("dilated_Q", ell=ell), gn.Q)
    results = []
    for a in schedule:
        results.append(solve(g, V, a, cfg, start=start))
        start = results[-1].minimizer
    return results


def test_scale_predictor_saves_iterations_at_the_same_energies(
        g256, gn256, solve_cfg):
    V = GaussianWell(1.0)
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in range(1, 7)]
    chain = _plain_chain(g256, V, schedule, solve_cfg, gn256)
    records = sweep(g256, V, schedule, solve_cfg, gn256)
    assert all(r.status is SolveStatus.CONVERGED for r in chain)
    assert all(r.status == "Converged" and r.resolved for r in records)
    assert (sum(r.iterations for r in records)
            < sum(r.iterations for r in chain))
    for rec, res in zip(records, chain):
        ref = res.breakdown.total
        assert abs(rec.energy - ref) <= 1e-10 * abs(ref)


def test_scale_predictor_dilates_about_the_minimizer(g256, gn256, solve_cfg,
                                                     monkeypatch):
    # off the origin, a dilation about x = 0 would pull the predicted bubble
    # toward the origin; about the minimizer's own center it stays on the well
    starts = []

    def recorded(*args, **kwargs):
        starts.append(kwargs["start"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(sys.modules["biharm.blowup"], "solve", recorded)
    well = 0.3
    schedule = [gn256.a_star * (1.0 - 2.0**-k) for k in range(1, 7)]
    records = sweep(g256, GaussianWell(1.0, 1.0, (well,)), schedule,
                    solve_cfg, gn256)
    assert [r.status for r in records] == ["Converged"] * len(schedule)
    assert all(abs(r.center[0] - well) < 1e-5 for r in records)
    for k in range(2, len(records)):
        prev = records[k - 1]
        # the start is predicted, not the last minimizer as it stands ...
        assert not np.array_equal(starts[k].values, prev.minimizer.values)
        # ... and sits where that minimizer sits
        assert abs(density_center(starts[k])[0] - prev.center[0]) < (
            1e-3 * g256.dx)


@pytest.fixture(scope="module")
def gn512(g1):
    return compute_gn(g1)


def test_sweep_iterations_are_stable_under_roundoff(g1, gn512, solve_cfg):
    # the benchmark's sweep schedule, 2^-1 ... 2^-8: scaling Q by a few
    # ulps (the warm starts move by as much) keeps the total iterations
    # within 10%; with a first-passing Armijo step and halving, -8e-15
    # moved 534 iterations to 607
    V = GaussianWell(1.0)
    schedule = [gn512.a_star * (1.0 - 2.0**-k) for k in range(1, 9)]

    def total(gn):
        return sum(r.iterations
                   for r in sweep(g1, V, schedule, solve_cfg, gn))

    base = total(gn512)
    for k in (1, -1, 2, -2, 4, -4, 8, -8):
        scaled = dataclasses.replace(gn512, Q=gn512.Q * (1.0 + k * 1e-15))
        assert abs(total(scaled) - base) <= 0.1 * base


def test_sweep_to_two_to_the_minus_twelve(g1, gn512, solve_cfg):
    # twelve halvings of 1 - a/a*: every point converges on a resolved
    # bubble, in fewer than 300 iterations each
    schedule = [gn512.a_star * (1.0 - 2.0**-k) for k in range(1, 13)]
    records = sweep(g1, GaussianWell(1.0), schedule, solve_cfg, gn512)
    assert len(records) == 12
    assert all(r.status == "Converged" and r.resolved for r in records)
    assert max(r.iterations for r in records) < 300


def _halving_sweep(g, V, gn, cfg, depth):
    schedule = [gn.a_star * (1.0 - 2.0**-k) for k in range(1, depth + 1)]
    return sweep(g, V, schedule, cfg, gn)


@pytest.fixture(scope="module")
def deep_sweeps(g1, gn512, solve_cfg):
    # warm sweeps on 1D 512/16: the Gaussian well to 2^-14, the Harmonic
    # trap to 2^-12
    return {"well": _halving_sweep(g1, GaussianWell(1.0), gn512, solve_cfg,
                                   14),
            "harmonic": _halving_sweep(g1, Harmonic(1.0), gn512, solve_cfg,
                                       12)}


def test_well_sweep_to_two_to_the_minus_fourteen(deep_sweeps):
    # with the preconditioner shifted by c1 * kinetic, the multiplier's
    # leading term, every point takes a handful of iterations: 14 at most,
    # where the shift kinetic alone took up to 60
    records = deep_sweeps["well"]
    assert len(records) == 14
    assert all(r.status == "Converged" and r.resolved for r in records)
    assert max(r.iterations for r in records) <= 25


@pytest.mark.parametrize("family", ["well", "harmonic"])
def test_multiplier_tends_to_minus_c1_kinetic(g1, deep_sweeps, solve_cfg,
                                              family):
    # the premise of the preconditioner's shift: the multiplier of a unit-
    # mass state is -c1 (kinetic + potential) + (q/2) energy, and near a*,
    # where the energy stays bounded and the kinetic energy grows, it tends
    # to -c1 kinetic
    V = GaussianWell(1.0) if family == "well" else Harmonic(1.0)
    q, c1 = critical_power(1), critical_shift(1)
    records = deep_sweeps[family]
    for k, tol in ((8, 0.02), (12, 0.005)):
        rec = records[k - 1]
        res = solve(g1, V, rec.a, solve_cfg, start=rec.minimizer)
        assert res.status is SolveStatus.CONVERGED
        bd = res.breakdown
        identity = -c1 * (bd.kinetic + bd.potential) + 0.5 * q * bd.total
        assert abs(bd.mu - identity) <= 1e-13 * abs(bd.mu)
        assert abs(-bd.mu / (c1 * bd.kinetic) - 1.0) <= tol, (k, bd.mu)
