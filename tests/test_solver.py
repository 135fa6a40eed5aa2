"""Backward solver: bootstrap, per-step regressions, deterministic reduction,
order behaviour and perturbation stability."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from fbsde_pc import (
    GridSpec,
    NumericalError,
    SolverConfig,
    ValidationError,
    adams_pair,
    deterministic_solve,
    milne_local_ratios,
    sample_ensemble,
    solve,
    stable_preset,
    unstable_two_step,
)
from fbsde_pc import solver
from fbsde_pc.problems import (
    constant_problem,
    example1,
    example2,
    exponential_ode,
    terminal_z,
)
from fbsde_pc.regression import DesignSolver
from fbsde_pc.solver import (
    auto_substeps,
    deterministic_perturbation_deviation,
    result_to_dict,
)


# y0 of deterministic_solve(exponential_ode(), ...) at N = 8, 40 and 200, by
# (family, m, seeding), recorded from the scalar recursion that the one-path
# kernel replaced.  "auto" rows take the top levels from the closed form, and
# "bootstrap" rows from the start-up (see seeded)
DETERMINISTIC_Y0 = {
    ("adams", 1, "auto"): (0.3958758906890161, 0.3726634637735021, 0.36880644855768735),
    ("adams", 1, "bootstrap"): (0.3958758906890161, 0.3726634637735021, 0.36880644855768735),
    ("adams", 2, "auto"): (0.3672805044230375, 0.36785932164201407, 0.36787866708976386),
    ("adams", 2, "bootstrap"): (0.3672942799955588, 0.36785934124802355, 0.36787866712383527),
    ("adams", 3, "auto"): (0.3679170251146098, 0.36787969537076964, 0.36787944311160564),
    ("adams", 3, "bootstrap"): (0.36792078554029695, 0.3678796965675551, 0.3678794431153476),
    ("adams", 4, "auto"): (0.3678765477461846, 0.367879437103614, 0.3678794411652822),
    ("adams", 4, "bootstrap"): (0.3678772274210136, 0.36787943780500704, 0.3678794411708946),
    ("stable", 1, "auto"): (0.36893324408072026, 0.3679184897168603, 0.36788097976527695),
    ("stable", 1, "bootstrap"): (0.36893324408072026, 0.3679184897168603, 0.36788097976527695),
    ("stable", 2, "auto"): (0.3666169177303374, 0.36783365319849115, 0.3678776443279503),
    ("stable", 2, "bootstrap"): (0.36662588028329207, 0.3678336662156309, 0.36787764435064646),
    ("stable", 3, "auto"): (0.3680554064553522, 0.3678808124367019, 0.3678794520516324),
    ("stable", 3, "bootstrap"): (0.3680579244688151, 0.36788081322553357, 0.3678794520541215),
    ("stable", 4, "auto"): (0.3678708582140857, 0.36787942763735926, 0.36787944114968535),
    ("stable", 4, "bootstrap"): (0.36787120284450964, 0.3678794280989015, 0.3678794411534175),
}


def config_for(scheme, N, T=1.0, **kw):
    return SolverConfig(scheme=scheme, grid=GridSpec(T=T, N=N), **kw)


def without_closed_form(problem):
    """problem without its closed form, so that deterministic_solve seeds its
    top levels from the start-up."""
    return dataclasses.replace(problem, closed_form_y=None, closed_form_z=None)


def seeded(problem, seeding):
    """problem for a test row labelled seeding: "bootstrap" rows drop the
    closed form to reach the start-up, "auto" and "closed-form" rows keep it."""
    return without_closed_form(problem) if seeding == "bootstrap" else problem


class TestAutoSubsteps:
    def test_three_step_formula(self):
        # r = ceil(h^{-(m-1)/2}) = ceil(20) for m=3, N=20, T=1
        assert auto_substeps(3, 1.0 / 20.0) == 20

    def test_two_step(self):
        assert auto_substeps(2, 1.0 / 20.0) == math.ceil(math.sqrt(20.0))

    def test_one_step_no_refinement(self):
        assert auto_substeps(1, 0.05) == 1

    def test_cap(self):
        assert auto_substeps(4, 1.0 / 100.0) == 64


class TestZeroDriverConstantPayoff:
    def test_one_step_exact(self):
        problem = constant_problem(value=2.5, d=2)
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=6), 300, seed=0)
        sol = solve(problem, config_for(stable_preset(1), 6), ens)
        assert sol.y0 == pytest.approx(2.5, abs=1e-10)
        assert sol.z0 == pytest.approx(np.zeros(2), abs=1e-10)

    def test_three_step_bootstrap_models_constant(self):
        problem = constant_problem(value=2.5, d=2)
        N = 8
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=N), 400, seed=1)
        sol = solve(problem, config_for(stable_preset(3), N), ens)
        assert sol.y0 == pytest.approx(2.5, abs=1e-8)
        x_probe = np.random.default_rng(0).standard_normal((20, 2))
        for node in (N - 1, N - 2):  # bootstrap-produced levels
            assert sol.y_models[node].predict(x_probe) == pytest.approx(
                np.full(20, 2.5), abs=1e-8)
            assert sol.z_models[node].predict(x_probe) == pytest.approx(
                np.zeros((20, 2)), abs=1e-8)

    def test_milne_indicator_near_zero(self):
        problem = constant_problem(value=1.0, d=1)
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=5), 200, seed=3)
        sol = solve(problem, config_for(stable_preset(2), 5), ens)
        assert np.all(np.abs(sol.milne) < 1e-10)


class TestTerminalConsistency:
    def test_terminal_rules_pointwise(self):
        problem = example1(eta=0.6)
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=5), 500, seed=2)
        sol = solve(problem, config_for(stable_preset(1), 5), ens)
        x = np.random.default_rng(1).standard_normal((40, 2))
        assert sol.y_models[5].predict(x) == pytest.approx(problem.phi(x), abs=1e-12)
        assert sol.z_models[5].predict(x) == pytest.approx(terminal_z(problem, x), abs=1e-12)


class TestDeterministicSolve:
    def test_trapezoidal_recurrence_matches_hand_oracle(self):
        # predictor: ytilde = y(1 - h); corrector: y <- y(1 - h + h^2/2),
        # so Y_0 = (1 - h + h^2/2)^N exactly
        problem = exponential_ode(T=1.0)
        N = 16
        sol = deterministic_solve(problem, config_for(stable_preset(1), N))
        h = 1.0 / N
        assert sol.y0 == pytest.approx((1.0 - h + h * h / 2.0) ** N, rel=1e-14)

    def test_z_identically_zero(self):
        problem = exponential_ode()
        sol = deterministic_solve(problem, config_for(stable_preset(2), 12))
        assert np.all(sol.z0 == 0.0)

    def test_non_finite_y0_is_numerical_error(self):
        # the recursion overflows on this horizon
        problem = exponential_ode(T=1e308)
        with pytest.raises(NumericalError, match="non-finite y0"):
            deterministic_solve(problem, config_for(stable_preset(2), 4, T=1e308))

    def test_rejects_noisy_problem(self):
        with pytest.raises(ValidationError, match="sigma is not identically zero"):
            deterministic_solve(example1(), config_for(stable_preset(1), 8))

    def test_rejects_z_dependent_driver(self):
        with pytest.raises(ValidationError, match="driver depends on z"):
            deterministic_solve(
                dataclasses.replace(example2(),
                                    sigma=lambda t, x: np.zeros((1, 1))),
                config_for(stable_preset(1), 8))

    def test_solve_dispatches_on_flag(self):
        problem = exponential_ode()
        cfg = config_for(stable_preset(2), 12, deterministic=True)
        a = solve(problem, cfg)
        b = deterministic_solve(problem, config_for(stable_preset(2), 12))
        assert a.y0 == b.y0

    def test_bootstrap_seeding_close_to_closed_form(self):
        problem = exponential_ode()
        cfg = config_for(adams_pair(3), 32)
        cf = deterministic_solve(problem, cfg)
        bs = deterministic_solve(without_closed_form(problem), cfg)
        exact = math.exp(-1.0)
        assert abs(bs.y0 - cf.y0) < 1e-5
        assert abs(bs.y0 - exact) < 2 * abs(cf.y0 - exact) + 1e-6

    @pytest.mark.parametrize("m, seeding, y0", [
        (2, "closed-form", 0.7341829392170706),
        (2, "bootstrap", 0.73418806841862),
        (3, "closed-form", 0.7359402599291344),
        (3, "bootstrap", 0.7359417856279983),
    ], ids=["m2-closed-form", "m2-bootstrap", "m3-closed-form", "m3-bootstrap"])
    def test_drifting_path_pinned(self, m, seeding, y0):
        # b = 1 and phi(x) = 1 + x, so Y_t = e^{t-1} (2 + X_t - t): phi differs
        # between neighbouring states, where noise in the start-up's fine
        # increments would reach y0 through the z fit of its top step.  The
        # values were recorded from the scalar recursion, which had no noise
        # to leak; the zero-noise start-up has to reproduce them
        problem = dataclasses.replace(
            exponential_ode(), b=lambda t, x: np.ones_like(x), phi=lambda x: 1.0 + x[:, 0],
            closed_form_y=lambda t, x: np.exp(t - 1.0) * (2.0 + x[:, 0] - t))
        sol = deterministic_solve(seeded(problem, seeding), config_for(stable_preset(m), 10))
        assert sol.y0 == pytest.approx(y0, rel=1e-14)

    def test_bootstrap_seeding_is_one_step_scheme(self, monkeypatch):
        # with one substep the start-up grid is the coarse grid, so level N-1
        # is the one-step trapezoidal value
        monkeypatch.setattr(solver, "auto_substeps", lambda m, h: 1)
        problem = exponential_ode()
        N = 12
        one = deterministic_solve(problem, config_for(stable_preset(1), N))
        two = deterministic_solve(without_closed_form(problem), config_for(stable_preset(2), N))
        assert two.y[N - 1] == pytest.approx(one.y[N - 1], rel=1e-12, abs=0.0)


class TestObservedOrder:
    # "bootstrap" runs the stochastic solve's start-up.  m = 4 is left out
    # there: auto_substeps wants 90-716 substeps at these N and is capped at
    # BOOTSTRAP_SUBSTEP_CAP = 64, and the observed orders are 4.23 and 4.41
    @pytest.mark.parametrize("m, seeding", [
        *(pytest.param(m, "auto", id=str(m)) for m in (1, 2, 3, 4)),
        *(pytest.param(m, "bootstrap", id=f"{m}-bootstrap") for m in (1, 2, 3)),
    ])
    def test_adams_pairs_hit_their_order(self, m, seeding):
        problem = seeded(exponential_ode(), seeding)
        exact = math.exp(-1.0)
        errors = []
        for N in (20, 40, 80):
            sol = deterministic_solve(problem, config_for(adams_pair(m), N))
            errors.append(abs(sol.y0 - exact))
        observed = math.log2(errors[0] / errors[1])
        assert observed == pytest.approx(m, abs=0.35)
        observed = math.log2(errors[1] / errors[2])
        assert observed == pytest.approx(m, abs=0.35)

    def test_trapezoidal_preset_is_second_order(self):
        # the one-step preset has a vanishing second truncation coefficient,
        # so the ODE reduction converges at order 2
        problem = exponential_ode()
        exact = math.exp(-1.0)
        errors = []
        for N in (20, 40):
            sol = deterministic_solve(problem, config_for(stable_preset(1), N))
            errors.append(abs(sol.y0 - exact))
        assert math.log2(errors[0] / errors[1]) == pytest.approx(2.0, abs=0.2)


class TestMilneLocalRatios:
    def test_order2_pair_ratios_near_one(self):
        problem = exponential_ode()
        ratios = milne_local_ratios(problem, adams_pair(2), GridSpec(T=1.0, N=160))
        assert np.all(ratios > 0.8)
        assert np.all(ratios < 1.25)

    def test_ratio_tightens_with_h(self):
        problem = exponential_ode()
        coarse = milne_local_ratios(problem, adams_pair(2), GridSpec(T=1.0, N=20))
        fine = milne_local_ratios(problem, adams_pair(2), GridSpec(T=1.0, N=320))
        assert abs(np.median(fine) - 1.0) < abs(np.median(coarse) - 1.0)

    def test_needs_closed_form(self):
        with pytest.raises(ValidationError, match="local Milne check needs a closed-form"):
            milne_local_ratios(without_closed_form(exponential_ode()), adams_pair(2),
                               GridSpec(T=1.0, N=8))


class TestStabilityGuard:
    def test_unstable_scheme_rejected(self):
        problem = exponential_ode()
        with pytest.raises(ValidationError, match="root condition"):
            deterministic_solve(problem, config_for(unstable_two_step(), 10))

    def test_override_allows_unstable(self):
        problem = exponential_ode()
        sol = deterministic_solve(problem, config_for(unstable_two_step(), 10,
                                                      allow_unstable=True))
        assert np.isfinite(sol.y0)

    def test_grid_too_short(self):
        message = r"a scheme of m = 3 steps needs N >= 3 time steps, got N = 2"
        grid = GridSpec(T=1.0, N=2)
        problem = example1()
        ensemble = sample_ensemble(problem, grid, 50, seed=1)
        with pytest.raises(ValidationError, match=message):
            solve(problem, config_for(stable_preset(3), 2), ensemble)
        with pytest.raises(ValidationError, match=message):
            deterministic_solve(exponential_ode(), config_for(adams_pair(3), 2))
        with pytest.raises(ValidationError, match=message):
            milne_local_ratios(exponential_ode(), adams_pair(3), grid)


class TestPerturbationStability:
    def test_stable_scheme_deviation_linear_in_steps(self):
        problem = exponential_ode()
        delta = 1e-6
        for m in (1, 2, 3):
            scheme = stable_preset(m)
            for N in (10, 20, 40):
                dev = deterministic_perturbation_deviation(
                    problem, scheme, GridSpec(T=1.0, N=N), delta)
                assert dev <= 1e3 * delta / (1.0 / N)

    def test_unstable_scheme_deviation_grows_geometrically(self):
        problem = exponential_ode()
        delta = 1e-6
        devs = [deterministic_perturbation_deviation(
            problem, unstable_two_step(), GridSpec(T=1.0, N=N), delta,
            allow_unstable=True) for N in (10, 20, 40)]
        assert devs[1] > 100 * devs[0]
        assert devs[2] > 100 * devs[1]


class TestStochasticSolver:
    def test_determinism_same_seed(self):
        problem = example1(eta=0.6)
        grid = GridSpec(T=1.0, N=5)
        cfg = config_for(stable_preset(2), 5)
        a = solve(problem, cfg, sample_ensemble(problem, grid, 800, seed=4))
        b = solve(problem, cfg, sample_ensemble(problem, grid, 800, seed=4))
        assert a.y0 == b.y0
        assert np.array_equal(a.z0, b.z0)

    @pytest.mark.parametrize("m, N, M, y0, z0", [
        (1, 20, 12018, 1.5999623936234464, (0.42746356974014155, 0.42549080022780617)),
        (2, 20, 12018, 1.6001212392105495, (0.42544995308070965, 0.4194332110530845)),
        (3, 10, 3000, 1.5969292253930476, (0.4358831038740537, 0.38423283534848374)),
    ], ids=["m1", "m2", "m3"])
    def test_pinned_estimates(self, m, N, M, y0, z0):
        # example1 at the acceptance settings, seed 5: speed work on the
        # simulation and regression layers may move y0/z0 by rounding only,
        # at the 1e-9 relative tolerance perfbench's gate applies
        problem = example1(eta=0.6, tau=1.0 / math.sqrt(2.0), d=2)
        grid = GridSpec(T=problem.T, N=N)
        sol = solve(problem, SolverConfig(scheme=stable_preset(m), grid=grid, basis_degree=6),
                    sample_ensemble(problem, grid, M, seed=5))
        assert sol.y0 == pytest.approx(y0, rel=1e-9)
        np.testing.assert_allclose(sol.z0, z0, rtol=1e-9, atol=0)

    def test_pinned_example2_estimate(self):
        # example2 at the solve-paths settings with 20000 paths, seed 5, held
        # to the same 1e-9 as the example1 pins
        problem = example2()
        grid = GridSpec(T=problem.T, N=50)
        sol = solve(problem, SolverConfig(scheme=stable_preset(2), grid=grid, basis_degree=2),
                    sample_ensemble(problem, grid, 20000, seed=5))
        assert sol.y0 == pytest.approx(0.7309945601728149, rel=1e-9)
        np.testing.assert_allclose(sol.z0, (0.1434699158167255,), rtol=1e-9, atol=0)
        # every eighth Milne indicator and their mean: each is the mean gap
        # between two fits of the same level, so a change in how the
        # corrector response is summed shows here first
        pinned = (1.7687703839419644e-05, 0.00011297868282037566, 3.0999353174000996e-05,
                  5.5700623091882105e-05, 9.270770442567161e-05, 5.079839167332599e-05,
                  7.451696437842293e-05)
        np.testing.assert_allclose(sol.milne[::8], pinned, rtol=1e-9, atol=0)
        assert sol.milne.mean() == pytest.approx(7.002746516256111e-05, rel=1e-9)

    @pytest.mark.parametrize("family, m, seeding", DETERMINISTIC_Y0)
    def test_pinned_deterministic_estimates(self, family, m, seeding):
        # only the order of the sums differs from the scalar recursion, so the
        # values agree to rounding
        scheme = {"adams": adams_pair, "stable": stable_preset}[family](m)
        problem = seeded(exponential_ode(), seeding)
        for N, y0 in zip((8, 40, 200), DETERMINISTIC_Y0[family, m, seeding]):
            sol = deterministic_solve(problem, config_for(scheme, N))
            assert sol.y0 == pytest.approx(y0, rel=1e-14), N

    @pytest.mark.parametrize("scheme, N, y0, rel", [
        (stable_preset(3), 80, 0.3678796117031056, 1e-14),
        (adams_pair(2), 16, 0.36774468697932833, 1e-14),
        # the root 2 of the unstable pair amplifies each step's rounding up
        # to 2^N = 4096 times, so a change in the order of the sums moves y0
        # by about 1e-12 relative
        (unstable_two_step(), 12, -0.34711829177774056, 1e-11),
    ], ids=["readme-stable3", "cli-adams2", "cli-unstable2"])
    def test_pinned_deterministic_cli_estimates(self, scheme, N, y0, rel):
        # the exponential-ode --deterministic solves of README.md and
        # test_cli.py that DETERMINISTIC_Y0 does not already hold
        sol = deterministic_solve(exponential_ode(),
                                  config_for(scheme, N, allow_unstable=True))
        assert sol.y0 == pytest.approx(y0, rel=rel)

    def test_pinned_milne_local_ratios(self):
        # the Milne gap |Ytilde - Y| of each ratio is the difference of two
        # O(1) values, so the ratio's rounding is near 1e-9 relative
        ratios = milne_local_ratios(exponential_ode(), adams_pair(2), GridSpec(T=1.0, N=160))
        pinned = (1.009880828052473, 1.0098808228915654, 1.0098808183125139,
                  1.0098808241726218, 1.009880825862191, 1.0098808199334228,
                  1.009880818476215, 1.0098808213788588)
        np.testing.assert_allclose(ratios[::20], pinned, rtol=1e-6, atol=0)
        assert ratios.mean() == pytest.approx(1.0098808235726646, rel=1e-6)

    def test_example2_two_step_accuracy_trend(self):
        # single-seed errors are Monte Carlo noise at this M, so the
        # discretization bias is read off the seed-averaged signed error
        problem = example2()
        exact = math.e / (1.0 + math.e)
        biases = []
        for N in (5, 20):
            grid = GridSpec(T=1.0, N=N)
            signed = []
            for seed in range(6):
                ens = sample_ensemble(problem, grid, 10_000, seed=seed)
                sol = solve(problem, config_for(stable_preset(2), N), ens)
                signed.append(sol.y0 - exact)
            biases.append(abs(np.mean(signed)))
        assert biases[1] < biases[0]
        assert biases[1] < 5e-3

    def test_bootstrap_is_one_step_scheme(self, monkeypatch):
        # with one substep the start-up grid is the coarse grid from t_{N-1},
        # so level N-1 must be the one-step fit there, regressed (not a point
        # mass: t_{N-1} > 0)
        monkeypatch.setattr(solver, "auto_substeps", lambda m, h: 1)
        problem = example2()
        N = 4
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=N), 2000, seed=5)
        one = solve(problem, config_for(stable_preset(1), N, basis_degree=3), ens)
        two = solve(problem, config_for(stable_preset(2), N, basis_degree=3), ens)
        for a, b in ((one.y_models, two.y_models), (one.z_models, two.z_models)):
            assert b[N - 1].coefficients == pytest.approx(a[N - 1].coefficients,
                                                          rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_storage_layout_changes_speed_only(self, m):
        # the same values stored trajectory-major solve to the same bits
        problem = example1(eta=0.6, d=2)
        N = 6
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=N), 1500, seed=8)
        trajectory_major = dataclasses.replace(
            ens, X=np.ascontiguousarray(ens.X), dW=np.ascontiguousarray(ens.dW))
        assert not trajectory_major.X[:, 1, :].flags.c_contiguous
        cfg = config_for(stable_preset(m), N, basis_degree=3)
        native, other = solve(problem, cfg, ens), solve(problem, cfg, trajectory_major)
        assert native.y0.hex() == other.y0.hex()
        assert [v.hex() for v in native.z0] == [v.hex() for v in other.z0]

    @staticmethod
    def traced_peak(problem, M, degree):
        """Traced peak bytes of an m = 2 solve of problem (N = 8), the
        start-up's fine states included."""
        grid = GridSpec(T=problem.T, N=8)
        ensemble = sample_ensemble(problem, grid, M, seed=5)
        config = SolverConfig(scheme=stable_preset(2), grid=grid, basis_degree=degree)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            solve(problem, config, ensemble)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_one_design_array_per_level(self):
        # a level drops its design once its solver exists and frees all its
        # arrays before the next level: the traced peak of this solve (the
        # start-up's fine states included) is about 2.95 M K 8 bytes, against
        # 4.17 when a level held its design, its solver's centered copy and
        # the previous level's copy at once
        M, K = 4000, 28
        assert self.traced_peak(example1(d=2), M, 6) < 3.5 * M * K * 8

    def test_one_design_array_per_gelsy_level(self):
        # with M < K every level is solved by gelsy from the centered copy C:
        # a level holds its design, C and the K x K Gram matrix (here 1.16
        # M K) at once, and each solve forms the standardized design A, which
        # gelsy overwrites in place.  The traced peak is about 3.7 M K 8
        # bytes, against 4.5 when scipy.linalg.lstsq copied A for gelsy
        M, K = 200, 231
        assert self.traced_peak(example1(d=2), M, 20) < 4.0 * M * K * 8

    def test_two_gelsy_calls_per_gelsy_level(self, monkeypatch):
        # gelsy's rank depends on the design alone, so a gelsy level reads it
        # off its two solves (z and predictor responses, then the corrector)
        # and runs no third, rank-only factorization
        calls, solvers = [], []
        dgelsy = lapack.dgelsy

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return dgelsy(*args, **kwargs)

        class Recorded(DesignSolver):
            def __init__(self, features):
                super().__init__(features)
                solvers.append(self)

        monkeypatch.setattr(lapack, "dgelsy", counting)
        monkeypatch.setattr(solver, "DesignSolver", Recorded)
        problem, M, K = example1(d=2), 20, 28
        grid = GridSpec(T=problem.T, N=8)
        solve(problem, config_for(stable_preset(2), 8, basis_degree=6),
              sample_ensemble(problem, grid, M, seed=5))
        # three start-up levels and six main-pass levels above the point mass
        assert len(solvers) == 9
        assert all(s.rank is not None and s.rank <= M < K for s in solvers)
        assert calls == [(M, K)] * (2 * len(solvers))

    def test_path_vectors_freed_after_last_read(self):
        # on a small basis the M-vectors of a level, not its design, set the
        # peak, which falls in the start-up's fine pass.  Each vector is
        # dropped once its last reader is done: the traced peak of this solve
        # is about 18.1 M 8 bytes, the fine states included, against 26.1
        # when a level kept its responses, its predictions and the seeding
        # loop's y and z to its end
        M = 20000
        assert self.traced_peak(example2(), M, 2) < 22 * M * 8

    @pytest.mark.parametrize("m, calls", [(1, 2), (2, 3), (3, 3)])
    def test_phi_called_once_per_backward_run(self, m, calls):
        # phi gives the terminal y of each backward run (the main pass and
        # the start-up's fine pass) and the proxy of the level below the
        # terminal node; the terminal z rule evaluates grad_phi alone
        problem = example2()
        count = []

        def phi(x):
            count.append(len(x))
            return problem.phi(x)

        counted = dataclasses.replace(problem, phi=phi)
        grid = GridSpec(T=problem.T, N=8)
        solve(counted, config_for(stable_preset(m), 8),
              sample_ensemble(counted, grid, 500, seed=5))
        assert len(count) == calls

    def test_mismatched_grid_rejected(self):
        problem = example1()
        ens = sample_ensemble(problem, GridSpec(T=1.0, N=6), 100, seed=0)
        with pytest.raises(ValidationError):
            solve(problem, config_for(stable_preset(1), 5), ens)

    def test_mismatched_dimension_rejected(self):
        grid = GridSpec(T=1.0, N=5)
        ens = sample_ensemble(example1(d=2), grid, 100, seed=0)
        with pytest.raises(ValidationError, match="ensemble dimension does not match problem"):
            solve(example1(d=3), config_for(stable_preset(1), 5), ens)

    def test_missing_ensemble_rejected(self):
        with pytest.raises(ValidationError):
            solve(example1(), config_for(stable_preset(1), 5))

    def test_result_document(self):
        problem = exponential_ode()
        sol = deterministic_solve(problem, config_for(stable_preset(2), 10))
        doc = result_to_dict(sol, runtime_sec=0.25)
        assert set(doc) == {"y0", "z0", "milne", "config", "runtime_sec"}
        assert set(doc["config"]) == {f.name for f in dataclasses.fields(SolverConfig)}
        assert doc["config"]["grid"] == {"T": 1.0, "N": 10}
        assert len(doc["milne"]) == 10 - 2 + 1


class TestCallableShapes:
    """A problem callable that returns a wrong shape is named before numpy
    broadcasts it: a driver of shape (M, 1) used to build an M x M array."""

    M = 2000

    def traced_solve(self, problem):
        """The traced peak bytes of sampling and solving example2's grid with
        M paths and stable_preset(2), and the ValidationError raised, if any."""
        grid = GridSpec(T=problem.T, N=8)
        config = SolverConfig(scheme=stable_preset(2), grid=grid)
        tracemalloc.start()
        try:
            try:
                solve(problem, config, sample_ensemble(problem, grid, self.M, seed=7))
            except ValidationError as err:
                return tracemalloc.get_traced_memory()[1], err
            return tracemalloc.get_traced_memory()[1], None
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name, wrong, expected", [
        ("b", lambda b: lambda t, x: b(t, x)[:, 0], "(2000, 1) or ()"),
        ("sigma", lambda s: lambda t, x: s(t, x)[:, :, 0], "(1, 1) or (2000, 1, 1)"),
        ("f", lambda f: lambda t, x, y, z: f(t, x, y, z)[:, None], "(2000,) or ()"),
        ("phi", lambda phi: lambda x: phi(x)[:, None], "(2000,)"),
        ("grad_phi", lambda g: lambda x: g(x)[:, 0], "(2000, 1)"),
    ], ids=["b", "sigma", "f", "phi", "grad_phi"])
    def test_wrong_shape_named_before_it_broadcasts(self, name, wrong, expected):
        problem = example2()
        good_peak, err = self.traced_solve(problem)
        assert err is None
        planted = dataclasses.replace(problem, **{name: wrong(getattr(problem, name))})
        peak, err = self.traced_solve(planted)
        assert err is not None
        assert str(err).startswith(f"problem callable {name} returned shape (")
        assert str(err).endswith(f"expected {expected}")
        assert peak < good_peak

    def test_zero_dimensional_drift_and_driver_accepted(self):
        # b and f may return one value for every path
        problem = constant_problem(value=2.0, d=2)
        scalar = dataclasses.replace(problem, b=lambda t, x: 0.0, f=lambda t, x, y, z: 0.0)
        grid = GridSpec(T=1.0, N=6)
        config = config_for(stable_preset(2), 6)
        a = solve(problem, config, sample_ensemble(problem, grid, 200, seed=4))
        b = solve(scalar, config, sample_ensemble(scalar, grid, 200, seed=4))
        assert a.y0 == b.y0 == pytest.approx(2.0)


def test_results_independent_of_blas_threads():
    """A solve leaves BLAS threading to the process: at the acceptance size,
    where dsyrk, dgemm and the start-up all run, one and two OpenBLAS threads
    give repr-identical y0 and z0."""
    script = (
        "from fbsde_pc import GridSpec, SolverConfig, sample_ensemble, solve, stable_preset\n"
        "from fbsde_pc.problems import example1\n"
        "problem = example1(d=2)\n"
        "grid = GridSpec(T=1.0, N=20)\n"
        "ensemble = sample_ensemble(problem, grid, 12018, seed=20210210)\n"
        "config = SolverConfig(scheme=stable_preset(2), grid=grid, basis_degree=6)\n"
        "sol = solve(problem, config, ensemble)\n"
        "print(repr(sol.y0), repr(sol.z0.tolist()))\n"
    )
    src = str(Path(solver.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
