from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import eigh

from biharm.energy import constrained_gradient, energy
from biharm.field import (Field, l2_norm_sq, renormalize_mass,
                          write_snapshot)
from biharm.grid import make_grid, quadrature
from biharm.groundstate import (ENERGY_FLOOR, InitSpec, SolveConfig,
                                SolveStatus, initial_field, potential_argmin,
                                solve, trial_upper_bound, write_iteration_log)
from biharm.potentials import GaussianWell, Harmonic, PowerWell, Zero, sample
from biharm.potentials import sobolev_lower_bound


def _unit_gaussian(g, width=1.0):
    r2 = sum(m**2 for m in g.meshes())
    return renormalize_mass(Field(g, np.exp(-r2 / (2.0 * width**2))))


@pytest.fixture(scope="module")
def harmonic_128():
    g = make_grid(1, 128, 8.0)
    cfg = SolveConfig(tol_grad=1e-8, max_iters=4000)
    return g, solve(g, Harmonic(1.0), 0.0, cfg)


@pytest.fixture(scope="module")
def well_run():
    g = make_grid(1, 256, 16.0)
    V = GaussianWell(depth=1.0, width=1.0)
    cfg = SolveConfig(tol_grad=1e-8, max_iters=4000)
    return g, V, solve(g, V, 8.0, cfg)


def test_linear_ground_state_matches_eigensolver(harmonic_128):
    # the dense eigensolver is the reference on the fixture's grid and on a
    # coarse one (16 nodes on half-width 6)
    coarse = make_grid(1, 16, 6.0)
    for g, res in (harmonic_128,
                   (coarse, solve(coarse, Harmonic(1.0), 0.0,
                                  SolveConfig(tol_grad=1e-7, max_iters=4000)))):
        assert res.status is SolveStatus.CONVERGED
        vpot = sample(Harmonic(1.0), g).values

        # dense operator matrix: fourth-order symbol applied columnwise
        # + diag(V)
        k4 = (g.wavenumbers[0] ** 2) ** 2  # the full-spectrum symbol
        kin = np.real(np.fft.ifft(k4[:, None] * np.fft.fft(np.eye(g.n), axis=0),
                                  axis=0))
        mat = 0.5 * (kin + kin.T) + np.diag(vpot)
        lams, vecs = eigh(mat)
        lam = float(lams[0])
        phi = vecs[:, 0]
        phi = phi / np.sqrt(quadrature(g, phi * phi))
        overlap = abs(quadrature(g, res.minimizer.values * phi))
        assert abs(res.breakdown.total - lam) < 1e-9, g.n
        assert overlap > 1.0 - 1e-6, g.n
        # with no nonlinear term the multiplier is the eigenvalue itself
        assert abs(res.mu - res.breakdown.total) < 1e-8, g.n


def test_resolution_doubling_energy_agreement(harmonic_128):
    g, res = harmonic_128
    g2 = make_grid(1, 256, 8.0)
    cfg = SolveConfig(tol_grad=1e-8, max_iters=4000)
    res2 = solve(g2, Harmonic(1.0), 0.0, cfg)
    assert res2.status is SolveStatus.CONVERGED
    assert abs(res.breakdown.total - res2.breakdown.total) < 1e-7


def test_energy_strictly_decreases_with_coupling(harmonic_128):
    g, res0 = harmonic_128
    cfg = SolveConfig(tol_grad=1e-8, max_iters=4000)
    res8 = solve(g, Harmonic(1.0), 8.0, cfg)
    assert res8.status is SolveStatus.CONVERGED
    assert res8.breakdown.total < res0.breakdown.total


def test_history_monotone_mass_exact_and_log_roundtrip(well_run, tmp_path):
    g, V, res = well_run
    assert res.status is SolveStatus.CONVERGED
    assert res.grad_residual <= 1e-8
    assert abs(l2_norm_sq(res.minimizer) - 1.0) < 1e-12
    energies = [row[1] for row in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    assert res.history[0][0] == 0
    assert len(res.history) == res.iterations + 1

    path = tmp_path / "descent.csv"
    write_iteration_log(res, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iter,energy,grad_residual,step_size"
    assert len(lines) == len(res.history) + 1
    last = lines[-1].split(",")
    assert int(last[0]) == res.history[-1][0]
    assert float(last[1]) == pytest.approx(res.breakdown.total, rel=1e-15)


def test_line_search_counters(well_run):
    g, V, res = well_run
    assert isinstance(res.backtracks, int) and res.backtracks >= 0
    assert isinstance(res.cg_restarts, int) and res.cg_restarts >= 0
    # an accepted step restarts at most once, from the conjugate direction
    # to -P G
    assert res.cg_restarts <= res.iterations


def test_converged_well_respects_sobolev_floor(well_run):
    g, V, res = well_run
    ceiling = sobolev_lower_bound(V, g, 0.25)
    assert res.breakdown.total >= -ceiling - 1e-9


def test_supercritical_coupling_diverges_below_floor():
    # a = 20 exceeds the quotient of every state (the gaussian already gives
    # 16.56), so descent concentrates without bound; the floor is the witness.
    g = make_grid(1, 256, 16.0)
    cfg = SolveConfig(tol_grad=1e-10, max_iters=20000)
    res = solve(g, Zero(), 20.0, cfg)
    assert res.status is SolveStatus.DIVERGED_BELOW_FLOOR
    assert res.breakdown.total < ENERGY_FLOOR


def test_floor_hit_at_initialization():
    g = make_grid(1, 512, 16.0)
    start = initial_field(g, Zero(), InitSpec(kind="dilated_Q", ell=12.0),
                          _unit_gaussian(g))
    assert abs(l2_norm_sq(renormalize_mass(start)) - 1.0) < 1e-12
    res = solve(g, Zero(), 20.0, start=start)
    assert res.status is SolveStatus.DIVERGED_BELOW_FLOOR
    assert res.iterations == 0
    assert res.breakdown.total < ENERGY_FLOOR


def test_gaussian_init_sits_at_potential_minimum():
    g = make_grid(1, 128, 8.0)
    V = GaussianWell(depth=1.0, width=1.0, center=(3.0,))
    assert potential_argmin(V, g)[0] == pytest.approx(3.0, abs=1e-12)
    u = initial_field(g, V, InitSpec())
    assert g.axes[0][int(np.argmax(u.values))] == pytest.approx(3.0)
    assert abs(l2_norm_sq(renormalize_mass(u)) - 1.0) < 1e-12
    # constant potential: centered at the origin, not at the first node
    assert np.all(potential_argmin(Zero(), g) == 0.0)


def test_constant_and_file_inits(tmp_path):
    g = make_grid(1, 64, 8.0)
    u = initial_field(g, Zero(), InitSpec(kind="constant"))
    assert np.ptp(u.values) == 0.0
    assert abs(l2_norm_sq(renormalize_mass(u)) - 1.0) < 1e-12

    v = _unit_gaussian(g) * 3.0
    path = tmp_path / "seed.bhf"
    write_snapshot(v, path)
    w = renormalize_mass(
        initial_field(g, Zero(), InitSpec(kind="file", path=str(path))))
    assert abs(l2_norm_sq(w) - 1.0) < 1e-12
    corr = quadrature(g, w.values * v.values) / np.sqrt(l2_norm_sq(v))
    assert corr == pytest.approx(1.0, rel=1e-12)

    other = make_grid(1, 32, 8.0)
    with pytest.raises(ValueError):
        initial_field(other, Zero(), InitSpec(kind="file", path=str(path)))


@pytest.mark.parametrize("geom,V", [
    ((1, 256, 16.0), GaussianWell(1.0, 1.0, (0.5,))),
    ((2, 32, 8.0), GaussianWell(1.0, 1.0, (0.25, -0.5))),
])
def test_default_start_is_the_gaussian_init(geom, V):
    # start=None and an explicit initial_field(InitSpec()) start are the same
    # solve: one normalization, inside solve, either way
    g = make_grid(*geom)
    cfg = SolveConfig(tol_grad=1e-6, max_iters=400)
    a = solve(g, V, 5.0, cfg)
    b = solve(g, V, 5.0, cfg, start=initial_field(g, V, InitSpec()))
    assert a.minimizer.values.tobytes() == b.minimizer.values.tobytes()
    for key in ("iterations", "backtracks", "cg_restarts", "fft_calls"):
        assert getattr(a, key) == getattr(b, key)
    assert a.status is b.status is SolveStatus.CONVERGED


def test_init_and_config_validation():
    with pytest.raises(ValueError, match="unknown init kind"):
        InitSpec(kind="plane_wave")
    with pytest.raises(ValueError):
        InitSpec(width=-1.0)
    with pytest.raises(ValueError, match="needs a path"):
        InitSpec(kind="file")
    g = make_grid(1, 32, 8.0)
    with pytest.raises(ValueError, match="reference profile"):
        initial_field(g, Zero(), InitSpec(kind="dilated_Q", ell=2.0))
    for bad in (dict(tol_grad=0.0), dict(max_iters=0)):
        with pytest.raises(ValueError):
            SolveConfig(**bad)
    assert [f.name for f in fields(SolveConfig)] == ["tol_grad", "max_iters"]


def test_solve_rejects_bad_problems():
    g = make_grid(1, 32, 8.0)
    with pytest.raises(ValueError, match="nonnegative"):
        solve(g, Zero(), -1.0)
    for a in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            solve(g, Zero(), a)
    with pytest.raises(ValueError, match="neither"):
        solve(g, PowerWell(depth=1.0, exponent=2.0), 1.0)


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_trial_state_upper_bounds_the_minimum(well_run):
    g, V, res = well_run
    ub = trial_upper_bound(g, V, 8.0, eps=0.5, profile=_unit_gaussian(g))
    assert res.breakdown.total <= ub + 1e-8


@pytest.mark.filterwarnings("ignore::biharm.ResolutionWarning")
def test_trial_bound_centering_and_errors():
    g = make_grid(1, 256, 16.0)
    prof = _unit_gaussian(g)
    V = GaussianWell(depth=1.0, width=1.0, center=(2.0,))
    auto = trial_upper_bound(g, V, 4.0, eps=0.5, profile=prof)
    explicit = trial_upper_bound(g, V, 4.0, eps=0.5, profile=prof, x0=(2.0,))
    assert auto == pytest.approx(explicit, rel=1e-12)
    # the centered trial state feels the well; an off-center one does not
    far = trial_upper_bound(g, V, 4.0, eps=0.5, profile=prof, x0=(-8.0,))
    assert auto < far
    with pytest.raises(ValueError, match="cutoff radius"):
        trial_upper_bound(g, V, 4.0, eps=1e-9, profile=prof)
    with pytest.raises(ValueError, match="positive"):
        trial_upper_bound(g, V, 4.0, eps=0.0, profile=prof)


def test_solve_2d_smoke():
    g = make_grid(2, 32, 8.0)
    cfg = SolveConfig(tol_grad=1e-6, max_iters=2000)
    res = solve(g, Harmonic(1.0), 0.0, cfg)
    assert res.status is SolveStatus.CONVERGED
    assert abs(l2_norm_sq(res.minimizer) - 1.0) < 1e-12
    assert res.breakdown.total > 0.0


def test_cg_counters_are_pinned():
    # the Polak-Ribiere beta reads the previous step's preconditioned
    # gradient, kept in the other workspace slot; a solver that wrote every
    # iteration's P G into one slot would compute beta from the new one and
    # take a different path, which these counters pin
    g = make_grid(2, 32, 8.0)
    cfg = SolveConfig(tol_grad=1e-5, max_iters=2000)
    res = solve(g, GaussianWell(1.0, 1.0, (0.0, 0.0)), 40.0, cfg)
    assert res.status is SolveStatus.CONVERGED
    assert (res.iterations, res.backtracks, res.cg_restarts,
            res.fft_calls) == (21, 9, 8, 65)


def _assert_same_result(r, s):
    assert r.minimizer.values.tobytes() == s.minimizer.values.tobytes()
    assert r.breakdown == s.breakdown
    assert (r.mu, r.grad_residual, r.status, r.history) == (
        s.mu, s.grad_residual, s.status, s.history)
    assert (r.iterations, r.backtracks, r.cg_restarts, r.fft_calls) == (
        s.iterations, s.backtracks, s.cg_restarts, s.fft_calls)


def test_repeated_solves_share_no_state():
    # every solve owns its work arrays: a second call, or one after a solve
    # on another grid, reproduces the first bit for bit (150 iterations are
    # plenty to compare, converged or not)
    cfg = SolveConfig(tol_grad=1e-6, max_iters=150)
    g2 = make_grid(2, 32, 8.0)
    V2 = GaussianWell(1.0, 1.0, (0.1, -0.05))
    g1 = make_grid(1, 128, 8.0)
    first = solve(g2, V2, 30.0, cfg)
    _assert_same_result(first, solve(g2, V2, 30.0, cfg))
    other = solve(g1, GaussianWell(1.0), 8.0, cfg)
    _assert_same_result(first, solve(g2, V2, 30.0, cfg))
    _assert_same_result(other, solve(g1, GaussianWell(1.0), 8.0, cfg))


_TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
               "irfftn", "fft2", "ifft2", "rfft2", "irfft2")


def _count_transforms(monkeypatch):
    calls = []
    for name in _TRANSFORMS:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _well_2d():
    # the 2D benchmark problem: a quarter-node offset well, cold start
    g = make_grid(2, 128, 12.0)
    return g, GaussianWell(1.0, 1.0, (g.dx / 4.0, -g.dx / 4.0)), 56.0, None


def _well_1d():
    g = make_grid(1, 512, 16.0)
    return g, GaussianWell(1.0), 14.0, None


def _warm_sweep_point():
    # the second point of a sweep: warm-started from the first minimizer
    g, V, _, _ = _well_1d()
    cfg = SolveConfig(tol_grad=1e-6, max_iters=40000)
    return g, V, 15.0, solve(g, V, 14.0, cfg).minimizer


@pytest.mark.parametrize("problem", [_well_1d, _well_2d, _warm_sweep_point])
def test_spectral_state_matches_field_evaluation(problem, monkeypatch):
    # the solver carries the values and their real transform side by side;
    # its reported state must be that of the returned minimizer, and it
    # must count every transform it runs, at most three per iteration
    g, V, a, start = problem()
    cfg = SolveConfig(tol_grad=1e-6, max_iters=40000)
    calls = _count_transforms(monkeypatch)
    res = solve(g, V, a, cfg, start=start)
    monkeypatch.undo()
    assert res.status is SolveStatus.CONVERGED
    assert res.fft_calls == len(calls)
    assert set(calls) <= {"rfft", "irfft", "rfftn", "irfftn"}
    assert res.fft_calls <= 3 * res.iterations + 8

    ref = energy(res.minimizer, V, a)
    for key in ("kinetic", "potential", "nonlinear", "total"):
        assert getattr(res.breakdown, key) == pytest.approx(
            getattr(ref, key), rel=1e-12, abs=0.0)
    # transform roundoff amplified by |k|^4 leaves a noise n of about 1e-9
    # in any evaluation of G, whose norm sits near tol_grad; the norms then
    # differ by about |n|^2 / (2 |G|^2), measured at 5e-6 relative at most
    grad = constrained_gradient(res.minimizer, V, a)
    assert res.grad_residual == pytest.approx(
        np.sqrt(l2_norm_sq(grad)), rel=1e-4)
