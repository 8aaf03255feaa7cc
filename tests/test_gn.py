import json
from pathlib import Path

import numpy as np
import pytest

from biharm import (
    Field,
    SolveConfig,
    bilap_energy,
    compute_gn,
    dilate,
    el_residual,
    gn_quotient,
    l2_norm_sq,
    load_gn,
    lq_integral,
    make_grid,
    normalize_gn,
    normalize_to_el,
    renormalize_mass,
    save_gn,
)
from biharm import gn
from biharm.field import gaussian_mixture_field, random_smooth_field
from biharm.gn import _petviashvili, _start
from biharm.groundstate import InitSpec, initial_field
from biharm.potentials import Zero
from conftest import h2_distance, reflect

# closed forms for the centered Gaussian trial state e^{-|x|^2/2}
GAUSSIAN_QUOTIENT_1D = 0.75 * np.sqrt(5.0) * np.pi**2
GAUSSIAN_QUOTIENT_2D = 6.0 * np.pi**2

FIXTURE = Path(__file__).parent / "fixtures" / "reference_d1.json"


def gaussian_start(g, width):
    """The unit-mass centered Gaussian of the given width, an arbitrary
    start; compute_gn's own is gn._start."""
    return renormalize_mass(initial_field(g, Zero(), InitSpec(width=width)))


@pytest.fixture(scope="module")
def gn256():
    return compute_gn(make_grid(1, 256, 16.0))


@pytest.fixture(scope="module")
def gn_wide():
    # The unit-EL profile is sqrt(2) wider than the unit-seminorm one, so its
    # boundary tail on half_width 16 is ~4e-5 and the fourth-order symbol
    # amplifies the periodic seam mismatch into the fit residual.  A wide box
    # keeps that tail at roundoff and lets the dilation algebra be measured.
    return compute_gn(make_grid(1, 2048, 48.0))


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


def test_normalization_invariants(gn256):
    Q = gn256.Q
    assert abs(np.sqrt(l2_norm_sq(Q)) - 1.0) < 1e-10
    assert abs(np.sqrt(bilap_energy(Q)) - 1.0) < 1e-8
    assert abs(gn256.nonlinear_check - 1.0) < 1e-6
    assert gn256.a_star > 0
    assert gn256.quotient_residual <= 3e-7


def test_el_constants_identities(gn256):
    c1, c2 = gn256.el_constants
    # at the sharp-normalized minimizer the multiplier pair is ((q-2)/2, (q/2)a*)
    assert abs(c1 - 4.0) < 1e-6
    assert abs(c2 - 5.0 * gn256.a_star) < 1e-6 * 5.0 * gn256.a_star
    _, _, fit = el_residual(gn256.Q)
    assert fit < 1e-6


def test_quotient_minimality_battery(gn256):
    g = gn256.Q.grid
    rng = np.random.default_rng(411)
    floor = gn256.a_star * (1.0 - 1e-6)
    for i in range(150):
        u = gaussian_mixture_field(g, rng)
        assert gn_quotient(u) >= floor
    for i in range(150):
        u = random_smooth_field(g, rng)
        assert gn_quotient(u) >= floor


def test_resolution_cross_check(gn256):
    (n_half, a_half), (n_full, a_full) = gn256.resolutions
    assert (n_half, n_full) == (128, 256)
    assert a_full == gn256.a_star
    assert abs(a_half - a_full) <= 1e-6 * a_full


def test_reference_fixture_regression(gn256, reference):
    assert reference["generator"]["n"] == 1024
    assert abs(gn256.a_star - reference["a_star"]) <= 1e-6 * reference["a_star"]
    c1, c2 = gn256.el_constants
    assert abs(c1 - reference["el_constants"][0]) < 1e-6
    assert abs(c2 - reference["el_constants"][1]) < 1e-4
    g = gn256.Q.grid
    j0 = g.n // 2
    for rad, want in zip(reference["profile_radii"], reference["profile_values"]):
        j = j0 + int(round(rad / g.dx))
        assert abs(gn256.Q.values[j] - want) < 1e-5


def test_gaussian_upper_bound(gn256):
    assert gn256.a_star <= GAUSSIAN_QUOTIENT_1D + 1e-9
    # and genuinely below: the Gaussian is not the optimizer
    assert gn256.a_star < GAUSSIAN_QUOTIENT_1D - 0.5


def test_profile_even(gn256):
    assert h2_distance(gn256.Q, reflect(gn256.Q)) < 1e-5


def test_normalize_gn_idempotent(gn256):
    again = normalize_gn(gn256.Q)
    assert h2_distance(again, gn256.Q) < 1e-10


def test_normalize_gn_scaling_recovery(gn256):
    # 3*Q(2x) = (3/sqrt(2)) * dilate(Q, 2); both norms must come back to 1
    w = dilate(gn256.Q, 2.0) * (3.0 / np.sqrt(2.0))
    v = normalize_gn(w)
    assert abs(np.sqrt(l2_norm_sq(v)) - 1.0) < 1e-8
    assert abs(np.sqrt(bilap_energy(v)) - 1.0) < 1e-8
    # squeezing by 2 pushes the upper half of the spectrum past Nyquist, so
    # the round trip only recovers the profile to truncation accuracy
    assert h2_distance(v, gn256.Q) < 1e-3


def test_normalize_gn_rejects_degenerate():
    g = make_grid(1, 64, 8.0)
    with pytest.raises(ValueError, match="constant"):
        normalize_gn(Field(g, np.full(g.shape, 0.7)))
    with pytest.raises(ValueError, match="zero"):
        normalize_gn(Field(g, np.zeros(g.shape)))


def test_normalize_to_el_hits_unit_constants(gn256):
    v = normalize_to_el(gn256.Q)
    c1, c2, _ = el_residual(v)
    assert abs(c1 - 1.0) < 1e-5
    assert abs(c2 - 1.0) < 1e-5


def test_normalize_to_el_residual_wide_box(gn_wide):
    _, _, fit_q = el_residual(gn_wide.Q)
    assert fit_q < 1e-6
    v = normalize_to_el(gn_wide.Q)
    c1, c2, fit = el_residual(v)
    assert abs(c1 - 1.0) < 1e-5
    assert abs(c2 - 1.0) < 1e-5
    assert fit < 1e-6


def test_normalize_to_el_idempotent(gn256):
    v = normalize_to_el(gn256.Q)
    again = normalize_to_el(v)
    assert h2_distance(again, v) < 1e-6


def test_normalize_to_el_sign_equivariant(gn256):
    v = normalize_to_el(gn256.Q)
    w = normalize_to_el(gn256.Q * -1.0)
    assert np.max(np.abs(w.values + v.values)) < 1e-14


def test_normalize_to_el_rejects_wrong_sign():
    g = make_grid(1, 128, 8.0)
    x = g.axes[0]
    osc = renormalize_mass(Field(g, np.cos(2.0 * np.pi * x / g.half_width)))
    with pytest.raises(ValueError, match="not both positive"):
        normalize_to_el(osc)


def test_save_load_roundtrip(tmp_path, gn256):
    base = tmp_path / "profile"
    save_gn(gn256, base)
    back = load_gn(base)
    assert back.a_star == gn256.a_star
    assert np.array_equal(back.Q.values, gn256.Q.values)
    assert back.el_constants == tuple(gn256.el_constants)
    assert abs(back.nonlinear_check - gn256.nonlinear_check) < 1e-12
    assert back.resolutions == gn256.resolutions

    sidecar = json.loads((tmp_path / "profile.json").read_text())
    sidecar["n"] = 128
    (tmp_path / "profile.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="geometry"):
        load_gn(base)


def test_artifact_paths_replace_the_suffix(tmp_path, gn256):
    # the sidecar check of `biharm check` looks for path.with_suffix(".json"),
    # the file load_gn reads
    save_gn(gn256, tmp_path / "profile.v2.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "profile.v2.bhf", "profile.v2.json"]
    back = load_gn(tmp_path / "profile.v2.bhf")
    assert np.array_equal(back.Q.values, gn256.Q.values)


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_unreachable_tolerance_raises():
    g = make_grid(1, 16, 6.0)
    cfg = SolveConfig(tol_grad=1e-16, max_iters=200)
    with pytest.raises(RuntimeError, match="residual"):
        compute_gn(g, cfg)


def test_repeated_runs_are_bit_identical():
    g = make_grid(1, 256, 16.0)
    first = compute_gn(g)
    second = compute_gn(g)
    assert second.a_star == first.a_star
    assert np.array_equal(second.Q.values, first.Q.values)


def test_every_start_width_converges_to_one_constant():
    # the evidence that compute_gn needs a single start: widths from half to
    # more than twice the profile's all reach one constant
    g = make_grid(1, 512, 16.0)
    cfg = SolveConfig(tol_grad=3e-7, max_iters=8000)
    values = []
    for width in (1.0, 0.7, 1.5, 2.2, 0.5, 1.1):
        run = _petviashvili(g, gaussian_start(g, width), cfg)
        assert run.converged, width
        # the mixed iteration takes 7-9; the plain map took 11-13
        assert run.iterations <= 10, (width, run.iterations)
        values.append(gn_quotient(run.u))
    assert max(values) - min(values) <= 1e-12 * min(values)


def test_the_gauge_step_closes_the_normalization_on_a_coarse_grid():
    # why compute_gn keeps normalize_gn: on resolved grids the fixed point's
    # output is already in the unit gauge to roundoff, but on 64^2/12 at
    # tol_grad 1e-4 its |Lap Q|^2 is about 1.4e-7 off, outside check's 1e-8
    # normalization contract; the dilation takes it to roundoff
    g = make_grid(2, 64, 12.0)
    cfg = SolveConfig(tol_grad=1e-4, max_iters=4000)
    result = compute_gn(g, cfg)
    Q = result.Q
    assert abs(bilap_energy(Q) - 1.0) <= 1e-12
    assert abs(result.a_star * lq_integral(Q) - 1.0) <= 1e-12
    run = _petviashvili(g, _start(g), cfg)
    assert run.converged
    assert abs(bilap_energy(run.u) - 1.0) > 1e-8
    assert abs(gn_quotient(run.u) * lq_integral(run.u) - 1.0) > 1e-8


@pytest.mark.parametrize("d,n,half_width", [(1, 512, 16.0), (2, 128, 16.0)])
def test_start_is_in_the_unit_gauge(d, n, half_width):
    # the iteration pins int|Lap Q|^2 = int Q^2, and compute_gn's start
    # already satisfies it, to discretization error
    start = _start(make_grid(d, n, half_width))
    assert abs(bilap_energy(start) / l2_norm_sq(start) - 1.0) <= 1e-12


def test_main_run_iterations_on_the_readme_grid():
    # 6 mixed iterations from compute_gn's start in the unit gauge, 7 from
    # width 1; the plain map took 11
    result = compute_gn(make_grid(1, 512, 16.0))
    assert len(result.history) - 1 <= 6, result.history
    assert abs(result.a_star - 15.916606603741892) <= 1e-12 * result.a_star


def test_default_2d_converges_from_128_on_a_half_width_of_16():
    # the plain map settled at roundoff on these grids with residuals near
    # 4.9e-7, above the default tol_grad; the mixed one gets below it, and
    # the two grids agree on the constant
    results = [compute_gn(make_grid(2, n, hw))
               for n, hw in ((128, 16.0), (256, 24.0))]
    for r in results:
        assert r.quotient_residual <= 3e-7
        assert abs(r.nonlinear_check - 1.0) < 1e-8
        assert r.a_star <= GAUSSIAN_QUOTIENT_2D
    a128, a256 = (r.a_star for r in results)
    assert abs(a128 - a256) <= 1e-10 * a256, (a128, a256)


def test_the_gauge_start_saves_iterations_on_a_coarse_2d_grid():
    # on 64^2/12 at tol_grad 1e-4 the run from compute_gn's start takes 6
    # iterations, against 8 from width 1
    g = make_grid(2, 64, 12.0)
    cfg = SolveConfig(tol_grad=1e-4, max_iters=4000)
    runs = [_petviashvili(g, start, cfg)
            for start in (_start(g), gaussian_start(g, 1.0))]
    assert all(run.converged for run in runs)
    assert runs[0].iterations < runs[1].iterations, [
        run.iterations for run in runs]


def test_compute_gn_translates_nothing_on_a_coarse_2d_grid(monkeypatch):
    # the fixed point's iterate is exactly even, so its density centre is
    # exactly the origin: normalize_gn dilates about it and moves nothing,
    # and Q stays even to roundoff (a centre of 3e-8 dx would move it by
    # 8e-9 off its mirror image)
    centers = []

    def spy(u, ell, center=0.0, to=0.0):
        centers.append(np.broadcast_to(center, (u.grid.d,)).tolist())
        return dilate(u, ell, center=center, to=to)

    monkeypatch.setattr(gn, "dilate", spy)
    Q = compute_gn(make_grid(2, 64, 12.0), SolveConfig(tol_grad=1e-4,
                                                       max_iters=4000)).Q
    assert centers == [[0.0, 0.0]]
    assert np.abs(Q.values - reflect(Q).values).max() <= 1e-14


@pytest.mark.parametrize("d,n,half_width", [(1, 512, 16.0), (2, 64, 12.0)])
def test_fixed_point_residual_is_the_quotient_gradient_norm(d, n, half_width):
    # the residual the fixed point reports, from multiplicity-weighted half
    # spectra, against the L2 norm of the quotient's gradient at the
    # returned unit-mass state, from full complex spectra
    g = make_grid(d, n, half_width)
    q = 10 if d == 1 else 6
    # tol_grad 1e-5 stops the 1D run near 1e-6, far above the transform
    # noise below; the 2D grid's floor (~2.5e-5) is above it, so that run
    # stops once M settles, as it does at the default tolerance
    run = _petviashvili(g, gaussian_start(g, 1.0),
                        SolveConfig(tol_grad=1e-5, max_iters=8000))
    v = run.u.values
    k4 = sum(np.meshgrid(*(k**2 for k in g.wavenumbers), indexing="ij")) ** 2
    v_hat = np.fft.fftn(v)
    kin = g.dx**d / n**d * np.sum(k4 * np.abs(v_hat) ** 2)
    non = g.dx**d * np.sum(v**q)
    grad = ((2.0 / non) * np.fft.ifftn(k4 * v_hat).real
            + ((q - 2.0) * kin / non) * v - (q * kin / non**2) * v ** (q - 1))
    norm = np.sqrt(g.dx**d * np.sum(grad**2))
    # |k|^4 amplifies transform roundoff into a gradient noise of about
    # 1e-8, which at a residual near 1e-7 or below would swamp the
    # comparison; leaving out the multiplicity would move it by about 30%
    assert abs(run.residual - norm) <= 0.1 * norm, (run.residual, norm)


def test_default_2d_raises_naming_tol_grad():
    # the 64^2 grid's quotient-residual floor (~2.5e-5) sits above the
    # default tolerance: the run must stop and say so rather than stall
    g = make_grid(2, 64, 12.0)
    with pytest.raises(RuntimeError, match="tol_grad"):
        compute_gn(g)
    cfg = SolveConfig(tol_grad=3e-7, max_iters=8000)
    run = _petviashvili(g, gaussian_start(g, 1.0), cfg)
    assert not run.converged
    assert run.iterations < 100  # stopped once M settled, not at max_iters


def test_iterations_counted_and_saved(tmp_path, gn256):
    assert isinstance(gn256.iterations, int) and gn256.iterations > 0
    # the count includes the n/2 cross-check run: it exceeds that of the
    # fixed point alone from compute_gn's start
    g = gn256.Q.grid
    alone = _petviashvili(g, _start(g),
                          SolveConfig(tol_grad=3e-7, max_iters=8000))
    assert alone.converged
    assert gn256.iterations > alone.iterations
    save_gn(gn256, tmp_path / "profile")
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert sidecar["iterations"] == gn256.iterations
    assert isinstance(sidecar["iterations"], int)
    assert load_gn(tmp_path / "profile").iterations == gn256.iterations


def test_load_accepts_sidecar_without_iterations(tmp_path, gn256):
    save_gn(gn256, tmp_path / "profile")
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    del sidecar["iterations"]
    (tmp_path / "profile.json").write_text(json.dumps(sidecar))
    back = load_gn(tmp_path / "profile")
    assert back.iterations is None
    assert back.a_star == gn256.a_star


def test_residual_path_saved_and_time_kept_out_of_the_sidecar(tmp_path,
                                                              gn256):
    # the first run's residual at every iterate, ending at the reported
    # residual; the wall time stays off the sidecar, which a rerun
    # reproduces byte for byte
    g = gn256.Q.grid
    alone = _petviashvili(g, _start(g),
                          SolveConfig(tol_grad=3e-7, max_iters=8000))
    assert gn256.history == alone.history
    assert len(gn256.history) == alone.iterations + 1
    assert gn256.history[-1] == gn256.quotient_residual
    assert gn256.history[0] > 1e6 * gn256.history[-1]
    assert gn256.seconds > 0.0
    save_gn(gn256, tmp_path / "profile")
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert sidecar["history"] == list(gn256.history)
    assert "seconds" not in json.dumps(sidecar)
    back = load_gn(tmp_path / "profile")
    assert back.history == gn256.history
    assert back.seconds is None


def test_half_grid_check_records_an_unconverged_run(tmp_path):
    # on 2D 128^2/16 the main run converges, while the n/2 run on 64^2/16
    # (dx = 0.5) settles at that grid's floor, residual 1.8e-2: the quotient
    # it reports is flagged, in the result and in the sidecar
    r = compute_gn(make_grid(2, 128, 16.0))
    assert r.quotient_residual <= 3e-7
    assert r.check_converged is False
    assert r.check_residual > 1e-3
    save_gn(r, tmp_path / "profile")
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    assert sidecar["half_grid_check"] == {"quotient_grad": r.check_residual,
                                          "converged": False}
    back = load_gn(tmp_path / "profile")
    assert (back.check_residual, back.check_converged) == (
        r.check_residual, False)


def test_load_accepts_sidecar_without_half_grid_check(tmp_path, gn256):
    save_gn(gn256, tmp_path / "profile")
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    del sidecar["half_grid_check"]
    (tmp_path / "profile.json").write_text(json.dumps(sidecar))
    back = load_gn(tmp_path / "profile")
    assert back.check_residual is None and back.check_converged is None
    assert back.a_star == gn256.a_star


def test_load_accepts_sidecar_without_history(tmp_path, gn256):
    save_gn(gn256, tmp_path / "profile")
    sidecar = json.loads((tmp_path / "profile.json").read_text())
    del sidecar["history"]
    (tmp_path / "profile.json").write_text(json.dumps(sidecar))
    back = load_gn(tmp_path / "profile")
    assert back.history is None
    assert back.a_star == gn256.a_star


def test_2d_smoke():
    g = make_grid(2, 64, 12.0)
    cfg = SolveConfig(tol_grad=1e-4, max_iters=4000)
    r = compute_gn(g, cfg)
    assert 0 < r.a_star <= GAUSSIAN_QUOTIENT_2D + 1e-9
    assert abs(r.nonlinear_check - 1.0) < 1e-6
    assert abs(np.sqrt(l2_norm_sq(r.Q)) - 1.0) < 1e-10
    assert h2_distance(r.Q, reflect(r.Q)) < 1e-3
    rng = np.random.default_rng(99)
    floor = r.a_star * (1.0 - 1e-6)
    for _ in range(25):
        assert gn_quotient(gaussian_mixture_field(g, rng)) >= floor
