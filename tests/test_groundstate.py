import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.linalg import eigh

from biharm.energy import (constrained_gradient, critical_power,
                           critical_shift, energy,
                           spectral_energy_and_gradient)
from biharm.field import (Field, bilap_apply, dilate, l2_norm_sq,
                          renormalize_mass, write_snapshot)
from biharm.gn import compute_gn
from biharm.grid import make_grid, quadrature
from biharm.groundstate import (ENERGY_FLOOR, SOLVE_COUNTERS, InitSpec,
                                SolveConfig, SolveStatus, _armijo,
                                _coarse_step, _line, _precondition,
                                _restrict, _spd_solve, _Workspace,
                                initial_field, potential_argmin, solve,
                                write_iteration_log)
from biharm.potentials import GaussianWell, Harmonic, PowerWell, Zero, sample
from biharm.potentials import sobolev_lower_bound
from conftest import energy_difference


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
        assert abs(res.breakdown.mu - res.breakdown.total) < 1e-8, g.n


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
    # each accepted step passed one trial, and each backtrack failed one
    assert res.trials >= res.iterations + res.backtracks
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


def test_roundoff_stall_ends_max_iters_early():
    # a tol_grad below the residual's roundoff floor: once neither the
    # conjugate direction nor the reset to -P G finds an Armijo step, the
    # solve stops MaxIters there (20 iterations, residual 1.5e-15), long
    # before max_iters
    g = make_grid(1, 128, 8.0)
    cfg = SolveConfig(tol_grad=1e-15, max_iters=5000)
    res = solve(g, GaussianWell(1.0), 5.0, cfg)
    assert res.status is SolveStatus.MAX_ITERS
    assert res.iterations < 100
    assert res.grad_residual > cfg.tol_grad


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
    for key in ("iterations", "backtracks", "trials", "cg_restarts",
                "fft_calls"):
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


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build", [
    lambda: GaussianWell(NAN, 1.0, (0.0,)),
    lambda: GaussianWell(1.0, INF, (0.0,)),
    lambda: GaussianWell(1.0, 1.0, (NAN,)),
    lambda: GaussianWell(1.0, 1.0, (0.0, -INF)),
    lambda: Harmonic(INF),
    lambda: Harmonic(NAN),
    lambda: PowerWell(NAN, 0.5),
    lambda: PowerWell(INF, 0.5),
    lambda: SolveConfig(tol_grad=NAN),
    lambda: SolveConfig(tol_grad=INF),
    lambda: SolveConfig(max_iters=INF),
    lambda: InitSpec(width=NAN),
    lambda: InitSpec(kind="dilated_Q", ell=INF)],
    ids=["well_depth_nan", "well_width_inf", "well_center_nan",
         "well_center_inf", "harmonic_inf", "harmonic_nan", "power_depth_nan",
         "power_depth_inf", "tol_grad_nan", "tol_grad_inf", "max_iters_inf",
         "init_width_nan", "init_ell_inf"])
def test_library_dataclasses_reject_non_finite_numbers(build):
    # NaN fails every comparison, so a test such as tol_grad <= 0 lets it
    # through, and a NaN tol_grad ran solve to max_iters without a word.
    # A config's readers reject these values first; a library caller has
    # only these checks
    with pytest.raises(ValueError, match="finite"):
        build()


def test_solve_rejects_bad_problems():
    g = make_grid(1, 32, 8.0)
    with pytest.raises(ValueError, match="nonnegative"):
        solve(g, Zero(), -1.0)
    for a in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            solve(g, Zero(), a)
    with pytest.raises(ValueError, match="neither"):
        solve(g, PowerWell(depth=1.0, exponent=2.0), 1.0)


def test_trial_state_upper_bounds_the_minimum(well_run):
    # the blow-up-scale trial: Q compressed to the minimizer's own scale
    # eps = kinetic^(-1/4) and put back on the unit-mass sphere.  Its energy
    # bounds the minimum from above, and closely (2.6e-4 above it)
    g, V, res = well_run
    eps = res.breakdown.kinetic ** -0.25
    trial = renormalize_mass(dilate(compute_gn(g).Q, 1.0 / eps))
    gap = energy(trial, V, 8.0).total - res.breakdown.total
    assert -1e-8 <= gap < 1e-3


def test_solve_2d_smoke():
    g = make_grid(2, 32, 8.0)
    cfg = SolveConfig(tol_grad=1e-6, max_iters=2000)
    res = solve(g, Harmonic(1.0), 0.0, cfg)
    assert res.status is SolveStatus.CONVERGED
    assert abs(l2_norm_sq(res.minimizer) - 1.0) < 1e-12
    assert res.breakdown.total > 0.0


def test_cg_counters_are_pinned():
    # the Polak-Ribiere beta reads the previous step's preconditioned
    # gradient before the iteration writes its own P G over it; a solver
    # that read it after would compute beta from the new one and take a
    # different path, which these counters pin; every iteration takes the
    # coarse step
    g = make_grid(2, 32, 8.0)
    cfg = SolveConfig(tol_grad=1e-5, max_iters=2000)
    res = solve(g, GaussianWell(1.0, 1.0, (0.0, 0.0)), 40.0, cfg)
    assert res.status is SolveStatus.CONVERGED
    assert (res.iterations, res.backtracks, res.trials, res.cg_restarts,
            res.fft_calls, res.coarse_fallbacks) == (9, 1, 17, 0, 47, 0)


def test_2d_harmonic_cold_solve_iterations():
    # the preconditioner's shift c1 * kinetic, the fixed point's operator at
    # the iterate's scale, takes the default start to the minimizer in 76
    # iterations, 70 with the coarse step (71 with the step never on the n/2
    # grid); the shift kinetic alone took 110
    g = make_grid(2, 128, 12.0)
    res = solve(g, Harmonic(1.0), 30.0,
                SolveConfig(tol_grad=1e-6, max_iters=40000))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations <= 95


@pytest.mark.parametrize("signs", [(1, -1), (1, 1), (-1, 1), (-1, -1)])
def test_benchmark_2d_solve_iterations(signs):
    # the benchmark's 2D solve, its well a quarter node off the origin: the
    # coarse step on the translation and dilation generators takes it to
    # the minimizer in 10 iterations for every sign (32 with P alone)
    g = make_grid(2, 128, 12.0)
    V = GaussianWell(1.0, 1.0, tuple(s * g.dx / 4.0 for s in signs))
    res = solve(g, V, 56.0, SolveConfig(tol_grad=1e-6, max_iters=40000))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations <= 15
    assert res.coarse_fallbacks < res.iterations


def test_2d_solve_near_the_threshold_iterations():
    # at a = 57.5, just below a* = 57.58 on this grid, the coarse step
    # takes the solve from 284 iterations with P alone to 31 (27 with the
    # step never on the n/2 grid)
    g = make_grid(2, 128, 12.0)
    V = GaussianWell(1.0, 1.0, (g.dx / 4.0, -g.dx / 4.0))
    res = solve(g, V, 57.5, SolveConfig(tol_grad=1e-6, max_iters=40000))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations <= 100


def test_constant_potential_solves_with_p_alone():
    # the coarse step's dilation is centred on the potential's minimum, and
    # V = 0 has none: with the step this solve took 161 iterations, with P
    # alone it takes 107
    g = make_grid(2, 128, 12.0)
    res = solve(g, Zero(), 50.0, SolveConfig(tol_grad=1e-6, max_iters=40000))
    assert res.status is SolveStatus.CONVERGED
    assert res.iterations <= 110
    assert res.coarse_fallbacks == res.iterations
    assert res.fft_calls == 2 + 2 * res.iterations


@pytest.mark.parametrize("V", [Zero(), GaussianWell(1.0, 1.0, (0.0, 0.0))])
def test_2d_counters_are_python_ints(V):
    # solve.json writes them with json, which rejects numpy integers
    g = make_grid(2, 32, 8.0)
    res = solve(g, V, 40.0, SolveConfig(tol_grad=1e-5, max_iters=20))
    assert all(type(getattr(res, c)) is int for c in SOLVE_COUNTERS)


def test_coarse_system_rejects_roundoff_pivots():
    # the coarse step's (d+1) x (d+1) solve: an indefinite matrix, or a
    # pivot of A below sqrt(eps) of B's matching one, which roundoff in
    # sums of B's size could have given either sign, means P alone
    c, pivots = _spd_solve([[4.0, 2.0], [2.0, 2.0]], [2.0, 0.0])
    assert c == pytest.approx([1.0, -1.0]) and pivots == [4.0, 1.0]
    assert _spd_solve([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]) is None
    assert _spd_solve([[4.0, 2.0], [2.0, 1.0 + 1e-9]], [2.0, 0.0],
                      pivots) is None
    c, _ = _spd_solve([[4.0, 2.0], [2.0, 1.0 + 1e-6]], [2.0, 0.0], pivots)
    assert c == pytest.approx([0.5e6 + 0.5, -1e6], rel=1e-8)


# Grid.ik is zero at the Nyquist wavenumber, so the generators' spectra
# i k_i X hold only what their nodal values hold, and the step's spectral
# and nodal sums agree on a raw iterate as on a band-limited one (with the
# Nyquist entries kept, they parted by 1e-4 relative after 3 iterations on
# 64^2/12)
@pytest.mark.parametrize("iters, band_limited", [
    (1, True), (3, True), (6, True), (3, False)])
def test_coarse_step_matches_dense_reference(iters, band_limited):
    # the coarse step's coefficients against the dense (d+1) x (d+1)
    # reference built from Field-level operators on the generators Z:
    # A = Z^T (Lap^2 + V - mu - (a q (q-1)/2) x^(q-2)) Z,
    # B = Z^T (Lap^2 + sigma) Z, r = Z^T G and c = sigma (A^-1 - B^-1) r
    # (measured agreement: 1.9e-11 relative at most)
    g = make_grid(2, 64, 12.0)
    V = GaussianWell(1.0, 1.0, (g.dx / 4.0, -g.dx / 4.0))
    a, q = 56.0, critical_power(2)
    u = solve(g, V, a, SolveConfig(tol_grad=1e-12, max_iters=iters)).minimizer
    X = g.forward(u.values)
    if band_limited:
        X[g.n // 2] = X[:, g.n // 2] = 0.0
        u = Field(g, g.inverse(X))
    x = u.values
    vvals = sample(V, g).values
    center = potential_argmin(V, g)
    ws = _Workspace(g, center)
    bd, _, _ = spectral_energy_and_gradient(
        g, x, X, vvals, a, ws.ghat, (ws.rows[0], ws.rows[1], ws.half))
    sigma = max(1.0, critical_shift(2) * bd.kinetic)
    mass = quadrature(g, x * x)
    coef = _coarse_step(g, x, X, mass, vvals, bd, sigma, ws)
    assert coef is not None

    grads = [Field(g, g.inverse(ik * u.hat)) for ik in g.ik]
    s = [g.half_width / np.pi * np.sin(np.pi / g.half_width * (m - c))
         for m, c in zip(g.meshes(), center)]
    lam = Field(g, sum(si * gi.values for si, gi in zip(s, grads)))
    lam = lam - u * (quadrature(g, lam.values * x) / mass)
    z = grads + [lam]
    mu = energy(u, V, a).mu
    weight = vvals - mu - 0.5 * a * q * (q - 1) * x ** (q - 2)
    grad = constrained_gradient(u, V, a).values

    def gram(op):
        return np.array([[quadrature(g, zi.values * op(zj)) for zj in z]
                         for zi in z])

    a_ref = gram(lambda zj: bilap_apply(zj).values + weight * zj.values)
    b_ref = gram(lambda zj: bilap_apply(zj).values + sigma * zj.values)
    r = np.array([quadrature(g, zi.values * grad) for zi in z])
    ref = sigma * (np.linalg.solve(a_ref, r) - np.linalg.solve(b_ref, r))
    assert np.max(np.abs(np.array(coef) - ref)) <= 1e-9 * np.max(np.abs(ref))


def _truncated(g, h, spectrum):
    # the half spectrum on g truncated onto the wavenumbers below h's
    # Nyquist on every axis, as a half spectrum on h (the transforms are
    # unnormalized, so it is scaled by 2^-d)
    m = h.n // 2
    out = np.zeros(h.k_quad.shape, dtype=np.complex128)
    out[:m, :m] = spectrum[:m, :m] / 4.0
    out[m + 1:, :m] = spectrum[1 - m:, :m] / 4.0
    return out


@pytest.mark.parametrize("iters", [1, 4, 10])
def test_half_grid_coarse_step_matches_dense_reference(iters):
    # on the benchmark's problem the coarse step is formed on the n/2 grid
    # h from the first iteration on: its coefficients against the dense
    # reference on h, from Field-level operators, for the iterate's samples
    # at h's nodes (the nodal weight and the dilation's projection) and its
    # spectrum and gradient truncated onto h's band (the generators and
    # Z^T G); and the preconditioned gradient against P G plus the
    # reference coefficients on the exact translations i k_i X and the
    # dilation's spectrum on h, zero-padded onto g (measured agreement:
    # 2e-14 relative at most, for both)
    g, V, a, _ = _well_2d()
    h = make_grid(2, g.n // 2, g.half_width)
    q = critical_power(2)
    u = solve(g, V, a, SolveConfig(tol_grad=1e-12, max_iters=iters)).minimizer
    x, X = u.values, u.hat
    vvals = sample(V, g).values
    center = potential_argmin(V, g)
    ws = _Workspace(g, center)
    bd, ghat, _ = spectral_energy_and_gradient(
        g, x, X, vvals, a, ws.ghat, (ws.rows[0], ws.rows[1], ws.half))
    sigma = max(1.0, critical_shift(2) * bd.kinetic)
    mass = quadrature(g, x * x)
    assert _precondition(g, x, X, mass, vvals, bd, sigma, ws) == h
    correction = ws.PG - sigma / (sigma + g.k_quad) * ghat
    lv = ws.coarse
    mass_h = _restrict(g, x, X, mass, ghat, lv)
    coef = _coarse_step(h, lv.x, lv.X, mass_h, sample(V, h).values, bd,
                        sigma, lv)
    assert coef is not None

    us = Field(h, x[::2, ::2])
    Xt = _truncated(g, h, X)
    grads = [Field(h, h.inverse(ik * Xt)) for ik in h.ik]
    s = [h.half_width / np.pi * np.sin(np.pi / h.half_width * (m - c))
         for m, c in zip(h.meshes(), center)]
    lam = Field(h, sum(si * gi.values for si, gi in zip(s, grads)))
    lam = lam - us * (quadrature(h, lam.values * us.values) / l2_norm_sq(us))
    z = grads + [lam]
    weight = (sample(V, h).values - bd.mu
              - 0.5 * a * q * (q - 1) * us.values ** (q - 2))
    grad = h.inverse(_truncated(g, h, ghat))

    def gram(op):
        return np.array([[quadrature(h, zi.values * op(zj)) for zj in z]
                         for zi in z])

    a_ref = gram(lambda zj: bilap_apply(zj).values + weight * zj.values)
    b_ref = gram(lambda zj: bilap_apply(zj).values + sigma * zj.values)
    r = np.array([quadrature(h, zi.values * grad) for zi in z])
    ref = sigma * (np.linalg.solve(a_ref, r) - np.linalg.solve(b_ref, r))
    assert np.max(np.abs(np.array(coef) - ref)) <= 1e-12 * np.max(np.abs(ref))

    padded = np.zeros_like(X)
    m = h.n // 2
    padded[:m, :m] = 4.0 * lam.hat[:m, :m]
    padded[1 - m:, :m] = 4.0 * lam.hat[m + 1:, :m]
    ref_correction = ref[-1] * padded + sum(
        ci * ik * X for ci, ik in zip(ref, g.ik))
    assert np.max(np.abs(correction - ref_correction)) <= (
        1e-12 * np.max(np.abs(ref_correction)))


def test_coarse_step_grid_follows_the_spectral_tail():
    # the step is formed on the n/2 grid while the iterate's L2 norm
    # outside that grid's band is below 1e-4 of it: at the benchmark's
    # minimizer it is 3.7e-5, at a = 57.5 on the same grid 5.5e-3, where an
    # A formed on n/2 is indefinite
    g, V, _, _ = _well_2d()
    ws = _Workspace(g, potential_argmin(V, g))
    cfg = SolveConfig(tol_grad=1e-6, max_iters=40000)
    for a, takes_half in ((56.0, True), (57.5, False)):
        res = solve(g, V, a, cfg)
        x = res.minimizer.values
        mass = quadrature(g, x * x)
        ghat = res.minimizer.hat.copy()  # any gradient: the tail is X's
        assert (_restrict(g, x, res.minimizer.hat, mass, ghat, ws.coarse)
                is not None) is takes_half
        if takes_half:  # every iteration of the benchmark's solve
            assert res.coarse_half_grid == res.iterations
        else:  # the early, smooth iterates only
            assert 0 < res.coarse_half_grid < res.iterations


def test_a_grid_that_cannot_halve_forms_the_coarse_step_on_itself():
    # n = 8 is the smallest grid: there is no n/2 grid to form the step on
    g = make_grid(2, 8, 4.0)
    V = GaussianWell(1.0, 1.0, (0.0, 0.0))
    assert _Workspace(g, potential_argmin(V, g)).coarse is None
    res = solve(g, V, 20.0, SolveConfig(tol_grad=1e-6, max_iters=200))
    assert res.coarse_half_grid == 0
    assert res.coarse_fallbacks < res.iterations


@pytest.mark.parametrize("d", [1, 2])
def test_workspace_arrays_share_no_memory(d):
    # one array per role: the coarse step's generators, on either grid, P
    # G's nodal values and the accepted step each own their memory, with
    # or without the step
    g = make_grid(d, 32, 8.0)
    for center in (None, (0.0,) * d):
        ws = _Workspace(g, center)
        assert (ws.coarse is None) is (center is None)
        arrays = []
        for val in [*vars(ws).values(),
                    *(() if ws.coarse is None else vars(ws.coarse).values())]:
            arrays.extend(val if isinstance(val, tuple) else [val])
        arrays = [arr for arr in arrays if isinstance(arr, np.ndarray)]
        for i, arr in enumerate(arrays):
            for other in arrays[i + 1:]:
                assert not np.shares_memory(arr, other)


def _assert_same_result(r, s):
    assert r.minimizer.values.tobytes() == s.minimizer.values.tobytes()
    assert r.breakdown == s.breakdown
    assert (r.grad_residual, r.status, r.history) == (
        s.grad_residual, s.status, s.history)
    assert (r.iterations, r.backtracks, r.trials, r.cg_restarts,
            r.fft_calls) == (s.iterations, s.backtracks, s.trials,
                             s.cg_restarts, s.fft_calls)


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
def test_spectral_state_matches_field_evaluation(problem, monkeypatch,
                                                 count_transforms):
    # the solver carries the values and their real transform side by side;
    # its reported state must be that of the returned minimizer, and it
    # must count every transform it runs: two on entry and two per
    # iteration (the evaluation's and the inverse of P G), and in 2D the
    # coarse step's d + 1 more per iteration
    g, V, a, start = problem()
    cfg = SolveConfig(tol_grad=1e-6, max_iters=40000)
    calls = count_transforms()
    res = solve(g, V, a, cfg, start=start)
    monkeypatch.undo()
    assert res.status is SolveStatus.CONVERGED
    assert res.fft_calls == len(calls)
    assert set(calls) <= {"rfft", "irfft", "rfftn", "irfftn"}
    per_iteration = 2 + (g.d + 1) * (g.d > 1)
    assert res.fft_calls == 2 + per_iteration * res.iterations

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


def _near_minimizer(g, V, a):
    return solve(g, V, a, SolveConfig(tol_grad=1e-4)).minimizer


def _cold_off_sphere(g, V, a):
    # the default start, 0.1% off the unit-mass sphere: steps up to t = 1
    # reach every power of d, and the mass defect enters phi and build
    return renormalize_mass(initial_field(g, V, InitSpec())) * 1.001**0.5


def _search_line(problem, state):
    # the solver's first direction from a state, -P G projected onto the
    # tangent space, with the line energy of _line
    g, V, a, _ = problem()
    u = state(g, V, a)
    w = g.dx**g.d
    x = u.values.copy()
    X = g.forward(x)
    vvals = sample(V, g).values
    ws = _Workspace(g)
    bd, ghat, _ = spectral_energy_and_gradient(
        g, x, X, vvals, a, ws.ghat, (ws.rows[0], ws.rows[1], ws.half))
    sigma = max(1.0, bd.kinetic)
    PG = sigma / (sigma + g.k_quad) * ghat
    pg = g.inverse(PG)
    c = w * np.vdot(pg, x)
    d, D = c * x - pg, c * X - PG
    slope = g.parseval(ghat, D)
    phi, build = _line(g, x, X, d, D, vvals, bd, w * np.vdot(x, x) - 1.0, ws)
    return u, V, a, bd.mu, slope, phi, build, ws


@pytest.mark.parametrize("problem,state", [
    (_well_1d, _near_minimizer), (_well_2d, _near_minimizer),
    (_well_1d, _cold_off_sphere), (_well_2d, _cold_off_sphere)])
def test_line_energy_matches_energy_difference(problem, state):
    # a trial reads the energy change in closed form from moments of x and
    # d; it must be the energy change of the step the solver then builds,
    # to rounding relative to the step (worst over t, measured: 1.8e-11 in
    # 1D and 3.7e-10 in 2D near the minimizer, where energy_difference
    # summed in double would itself be up to 5.1e-10 off; 8.6e-14 and
    # 4.2e-14 off the sphere)
    u, V, a, mu, slope, phi, build, ws = _search_line(problem, state)
    assert slope < 0.0
    for t in 10.0 ** np.arange(-10, 1):
        build(t)
        ref = energy_difference(u, ws.delta, V, a, mu)
        assert abs(phi(t) - ref) <= 1e-9 * max(abs(ref), abs(slope * t))


def test_overflowing_trial_is_a_failed_trial():
    # at t = 1e40 the q = 10 polynomial overflows: phi is not finite, and
    # the line search counts a failed trial and steps on, raising nothing;
    # a trial at phi = -inf, as t^10 S_10 overflowing gives, fails too
    u, V, a, mu, slope, phi, build, ws = _search_line(_well_1d,
                                                      _near_minimizer)
    assert not math.isfinite(phi(1e40))
    t, fails, trials = _armijo(phi, slope, 1e40)
    assert t is not None and fails >= 1 and trials >= fails + 1
    assert -math.inf < phi(t) <= 1e-4 * t * slope
