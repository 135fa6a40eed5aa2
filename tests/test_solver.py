"""Backward solver: bootstrap, per-step regressions, deterministic reduction,
order behaviour and perturbation stability."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from fbsde_pc import (
    DegenerateIndicator,
    GridSpec,
    NumericalError,
    SolverConfig,
    ValidationError,
    adams_pair,
    milne_local_ratios,
    sample_ensemble,
    scheme_from_json,
    solve,
    stable_preset,
    unstable_two_step,
)
from fbsde_pc import simulation, solver
from fbsde_pc.problems import (
    constant_problem,
    example1,
    example2,
    exponential_ode,
    terminal_z,
)
from fbsde_pc.regression import DesignSolver, RegressionModel
from fbsde_pc.solver import (
    BackwardSolution,
    _exact_models,
    auto_substeps,
    deterministic_perturbation_deviation,
    result_to_dict,
)


# y0 of solve(exponential_ode(), ...) at N = 8, 40 and 200, by
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
    """problem without its closed form, so that a sigma = 0 solve seeds its
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
        sol = solve(problem, config_for(stable_preset(1), N))
        h = 1.0 / N
        assert sol.y0 == pytest.approx((1.0 - h + h * h / 2.0) ** N, rel=1e-14)

    def test_z_identically_zero(self):
        problem = exponential_ode()
        sol = solve(problem, config_for(stable_preset(2), 12))
        assert np.all(sol.z0 == 0.0)

    def test_non_finite_y0_is_numerical_error(self):
        # the recursion overflows on this horizon
        problem = exponential_ode(T=1e308)
        with pytest.raises(NumericalError, match="non-finite y0"):
            solve(problem, config_for(stable_preset(2), 4, T=1e308))

    def test_rejects_noisy_problem(self):
        with pytest.raises(ValidationError, match="sigma is not identically zero"):
            solve(example1(), config_for(stable_preset(1), 8))

    def test_rejects_z_dependent_driver(self):
        with pytest.raises(ValidationError, match="driver depends on z"):
            solve(
                dataclasses.replace(example2(),
                                    sigma=lambda t, x: np.zeros((1, 1))),
                config_for(stable_preset(1), 8))

    @pytest.mark.parametrize("seeding, y0, milne", [
        ("closed-form", 0.3679314516693683,
         (1.0188363358563471e-05, 1.1074752802551583e-05, 1.2137152709573716e-05,
          1.3034791313774422e-05, 1.4138436994500421e-05, 1.5835080917732855e-05,
          1.6569379593145416e-05, 1.7731799205485584e-05, 2.1430664736236487e-05,
          2.0723359097167086e-05)),
        ("bootstrap", 0.3679317659704264,
         (1.0189320997281795e-05, 1.1075736150802558e-05, 1.2133104616041113e-05,
          1.303841323678223e-05, 1.4143852960938711e-05, 1.5817040476177417e-05,
          1.65825631976646e-05, 1.7760300452351884e-05, 2.135134201366462e-05,
          2.076846262117904e-05)),
    ], ids=["closed-form", "start-up"])
    def test_solve_without_ensemble_is_the_sigma0_reduction(self, seeding, y0, milne):
        # the values and the document are those the sigma = 0 reduction gave
        # when it had a result type of its own
        cfg = config_for(stable_preset(3), 12)
        sol = solve(seeded(exponential_ode(), seeding), cfg)
        assert isinstance(sol, BackwardSolution)
        assert len(sol.y_models) == len(sol.z_models) == 12 + 1
        assert repr(sol.y0) == repr(y0)
        assert repr(sol.milne.tolist()) == repr(list(milne))
        expected = {"y0": y0, "z0": [0.0], "milne": list(milne),
                    "config": {**dataclasses.replace(cfg, basis_degree=0).to_dict(),
                               "deterministic": True},
                    "runtime_sec": 0.25}
        doc = result_to_dict(sol, 0.25, deterministic=True)
        assert json.dumps(doc) == json.dumps(expected)

    def test_closed_form_rules_exact_at_any_state(self):
        # the closed-form slots are rules of x at their time, so they hold on
        # an ensemble of states, not only at the one sigma = 0 path
        problem = example2()
        times = np.array([0.0, 0.25, 0.5])
        exact_y, exact_z = _exact_models(problem, times)
        x = np.random.default_rng(3).standard_normal((50, 1))
        for t, y_rule, z_rule in zip(times, exact_y, exact_z):
            assert np.array_equal(y_rule.predict(x), problem.closed_form_y(t, x))
            assert np.array_equal(z_rule.predict(x), problem.closed_form_z(t, x))

    @pytest.mark.parametrize("name, wrong, shapes", [
        ("closed_form_y", lambda g: lambda t, x: g(t, x)[:, None], "(1, 1), expected (1,)"),
        ("closed_form_z", lambda g: lambda t, x: g(t, x)[:, 0], "(1,), expected (1, 1)"),
    ], ids=["y", "z"])
    def test_wrong_closed_form_shape_named(self, name, wrong, shapes):
        # the top slots of a sigma = 0 solve check the closed form as phi is
        # checked, instead of reshaping its value
        problem = exponential_ode()
        planted = dataclasses.replace(problem, **{name: wrong(getattr(problem, name))})
        with pytest.raises(ValidationError) as err:
            solve(planted, config_for(stable_preset(3), 12))
        assert str(err.value) == f"problem callable {name} returned shape {shapes}"

    def test_solve_with_ensemble_runs_monte_carlo(self):
        # an ensemble selects the Monte Carlo solve, on a sigma = 0 problem too
        problem = exponential_ode()
        grid = GridSpec(T=1.0, N=12)
        sol = solve(problem, config_for(stable_preset(2), 12),
                    sample_ensemble(problem, grid, 50, seed=1))
        assert isinstance(sol, BackwardSolution)
        assert sol.config.basis_degree == 2
        assert sol.y0 == pytest.approx(math.exp(-1.0), rel=1e-2)

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "scheme", "grid", "basis_degree", "y_bound", "allow_unstable", "stability_tol"]

    def test_bootstrap_seeding_close_to_closed_form(self):
        problem = exponential_ode()
        cfg = config_for(adams_pair(3), 32)
        cf = solve(problem, cfg)
        bs = solve(without_closed_form(problem), cfg)
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
        sol = solve(seeded(problem, seeding), config_for(stable_preset(m), 10))
        assert sol.y0 == pytest.approx(y0, rel=1e-14)

    def test_bootstrap_seeding_is_one_step_scheme(self, monkeypatch):
        # with one substep the start-up grid is the coarse grid, so level N-1
        # is the one-step trapezoidal value
        monkeypatch.setattr(solver, "auto_substeps", lambda m, h: 1)
        problem = exponential_ode()
        N = 12
        one = solve(problem, config_for(stable_preset(1), N))
        two = solve(without_closed_form(problem), config_for(stable_preset(2), N))
        x0 = problem.x0[None, :]
        assert two.y_models[N - 1].predict(x0) == pytest.approx(
            one.y_models[N - 1].predict(x0), rel=1e-12, abs=0.0)


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
            sol = solve(problem, config_for(adams_pair(m), N))
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
            sol = solve(problem, config_for(stable_preset(1), N))
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

    def test_factor_beyond_float_range_is_degenerate(self):
        # error constants so close that |C / (C - Ctilde)| is a finite
        # fraction no float holds: the check is as undefined as at C = Ctilde
        scheme = scheme_from_json(json.dumps({
            "m": 1, "alpha": ["1"], "gamma0": 2.5, "gamma": ["0"],
            "alpha_tilde": ["1"], "gamma_tilde": ["1e-320"]}))
        with pytest.raises(DegenerateIndicator, match="beyond the float range"):
            milne_local_ratios(exponential_ode(), scheme, GridSpec(T=1.0, N=8))


class TestStabilityGuard:
    def test_unstable_scheme_rejected(self):
        problem = exponential_ode()
        with pytest.raises(ValidationError, match="root condition"):
            solve(problem, config_for(unstable_two_step(), 10))

    def test_override_allows_unstable(self):
        problem = exponential_ode()
        sol = solve(problem, config_for(unstable_two_step(), 10, allow_unstable=True))
        assert np.isfinite(sol.y0)

    def test_grid_too_short(self):
        message = r"a scheme of m = 3 steps needs N >= 3 time steps, got N = 2"
        grid = GridSpec(T=1.0, N=2)
        problem = example1()
        ensemble = sample_ensemble(problem, grid, 50, seed=1)
        with pytest.raises(ValidationError, match=message):
            solve(problem, config_for(stable_preset(3), 2), ensemble)
        with pytest.raises(ValidationError, match=message):
            solve(exponential_ode(), config_for(adams_pair(3), 2))
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
            sol = solve(problem, config_for(scheme, N))
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
        sol = solve(exponential_ode(), config_for(scheme, N, allow_unstable=True))
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
        # the solver centers a level's design in place, the level drops its
        # name for it once the solver exists, and all its arrays are freed
        # before the next level: the traced peak of this solve (the
        # start-up's fine states included) is about 1.95 M K 8 bytes, against
        # 2.77 when the solver centered a copy of the design and 4.17 when a
        # level also kept the previous level's copy
        M, K = 4000, 28
        assert self.traced_peak(example1(d=2), M, 6) < 2.4 * M * K * 8

    def test_one_design_array_per_gelsy_level(self):
        # with M < K every level is solved by gelsy from C, the design
        # centered in place: a level holds C and the K x K Gram matrix (here
        # 1.16 M K) at once, and each solve forms the standardized design A,
        # which gelsy overwrites in place.  The traced peak is about 2.6-2.7
        # M K 8 bytes, against 3.6-3.7 when the solver centered a copy of the
        # design and 4.5 when scipy.linalg.lstsq also copied A for gelsy
        M, K = 200, 231
        assert self.traced_peak(example1(d=2), M, 20) < 3.2 * M * K * 8

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

    def test_one_point_levels_build_no_design_solver(self, monkeypatch):
        # where every path sits at one point (X_0 = x0, or the one sigma = 0
        # path) a level's fits are sample means: no DesignSolver, and models
        # on the basis whose coefficients past the constant are 0
        built = []

        class Counted(DesignSolver):
            def __init__(self, features):
                super().__init__(features)
                built.append(features.shape)

        monkeypatch.setattr(solver, "DesignSolver", Counted)
        problem, N = example1(d=2), 4
        result = solve(problem, config_for(stable_preset(1), N, basis_degree=2),
                       sample_ensemble(problem, GridSpec(T=problem.T, N=N), 200, seed=5))
        assert built == [(200, 6)] * (N - 1)
        for model in (result.y_models[0], result.z_models[0]):
            assert isinstance(model, RegressionModel)
            assert model.coefficients.shape[0] == 6
            assert np.all(model.coefficients[1:] == 0.0)
        built.clear()
        # the start-up runs too, on the same one path
        solve(without_closed_form(exponential_ode()), config_for(stable_preset(3), 8))
        assert built == []

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

    def test_one_point_level_builds_no_design(self, monkeypatch):
        # every path sits at x0 at t = 0: the level fits sample means, and the
        # one-level-ahead model is evaluated on one row, not on M copies of x0
        from fbsde_pc.regression import PolynomialBasis
        repeated = []
        design_matrix = PolynomialBasis.design_matrix

        def recording(self, x):
            x = np.asarray(x)
            if len(x) > 1 and np.all(x == x[0]):
                repeated.append(x.shape)
            return design_matrix(self, x)

        monkeypatch.setattr(PolynomialBasis, "design_matrix", recording)
        problem = example2()
        grid = GridSpec(T=problem.T, N=6)
        solve(problem, config_for(stable_preset(2), 6), sample_ensemble(problem, grid, 300, seed=2))
        assert repeated == []

    def test_missing_ensemble_rejected(self):
        # without an ensemble, solve is the sigma = 0 reduction, which refuses noise
        with pytest.raises(ValidationError, match="sigma is not identically zero"):
            solve(example1(), config_for(stable_preset(1), 5))

    def test_result_document(self):
        problem = exponential_ode()
        sol = solve(problem, config_for(stable_preset(2), 10))
        doc = result_to_dict(sol, runtime_sec=0.25, deterministic=True)
        assert set(doc) == {"y0", "z0", "milne", "config", "runtime_sec"}
        assert set(doc["config"]) == {f.name for f in dataclasses.fields(SolverConfig)} | {
            "deterministic"}
        assert doc["config"]["deterministic"] is True
        assert doc["config"]["grid"] == {"T": 1.0, "N": 10}
        assert len(doc["milne"]) == 10 - 2 + 1


# (callable, a wrong version of it, the shapes its error expects) on
# example2 with M = 2000 paths
WRONG_SHAPES = [
    ("b", lambda b: lambda t, x: b(t, x)[:, 0], "(2000, 1) or ()"),
    ("sigma", lambda s: lambda t, x: s(t, x)[:, :, 0], "(1, 1) or (2000, 1, 1)"),
    ("f", lambda f: lambda t, x, y, z: f(t, x, y, z)[:, None], "(2000,) or ()"),
    ("phi", lambda phi: lambda x: phi(x)[:, None], "(2000,)"),
    ("grad_phi", lambda g: lambda x: g(x)[:, 0], "(2000, 1)"),
]


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

    @pytest.mark.parametrize("name, wrong, expected", WRONG_SHAPES,
                             ids=[case[0] for case in WRONG_SHAPES])
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
    where dsyrk, dgemm and the start-up all run, and on example2's K = 3
    basis at 65600 paths, which split into two row ranges on two cores, one
    and two OpenBLAS threads give repr-identical y0 and z0."""
    script = (
        "from fbsde_pc import GridSpec, SolverConfig, sample_ensemble, solve, stable_preset\n"
        "from fbsde_pc.problems import example1, example2\n"
        "for problem, N, M, degree in ((example1(d=2), 20, 12018, 6), (example2(), 10, 65600, 2)):\n"
        "    grid = GridSpec(T=problem.T, N=N)\n"
        "    ensemble = sample_ensemble(problem, grid, M, seed=20210210)\n"
        "    config = SolverConfig(scheme=stable_preset(2), grid=grid, basis_degree=degree)\n"
        "    sol = solve(problem, config, ensemble)\n"
        "    print(repr(sol.y0), repr(sol.z0.tolist()))\n"
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


_REAL_CORES = simulation._cores()


def force_workers(monkeypatch, count):
    """Pretend the affinity holds count cores (the real ones, repeated) and
    that 64 rows pay for a worker, so that a few hundred paths split into
    count row ranges."""
    cores = (_REAL_CORES * count)[:count]
    monkeypatch.setattr(simulation, "_cores", lambda: cores)
    monkeypatch.setattr(simulation, "_WORKER_MIN_WORK", 64)


def _affinity():
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


def recording_threads(problem, seen):
    """problem whose b and f add (name, thread) of each call to seen."""
    def spy(name, fn):
        def call(*args):
            seen.add((name, threading.get_ident()))
            return fn(*args)
        return call
    return dataclasses.replace(problem, b=spy("b", problem.b), f=spy("f", problem.f))


# (problem, m, basis degree): example1 on its K = 28 basis for each step
# count, and example2 on its K = 3 basis; every m >= 2 solve runs the start-up
ROW_CASES = [(example1(d=2), m, 6) for m in (1, 2, 3, 4)] + [(example2(), 2, 2)]


class TestRowWorkers:
    """Simulation and solver split their row-wise work over forced workers:
    every value and every error is the one-worker run's, and no thread
    outlives a call."""

    # three workers split the rows at 192 and 384, two at 256
    M = 600

    def run(self, problem, m, degree):
        grid = GridSpec(T=problem.T, N=8)
        ensemble = sample_ensemble(problem, grid, self.M, seed=3)
        config = config_for(stable_preset(m), 8, basis_degree=degree)
        return ensemble.X, solve(problem, config, ensemble)

    def outcome(self, monkeypatch, workers, call):
        """What call() returns or raises with the given worker count, once
        the thread count and this thread's affinity are checked unchanged."""
        force_workers(monkeypatch, workers)
        threads, affinity = threading.active_count(), _affinity()
        try:
            return call()
        except Exception as err:
            return err
        finally:
            assert threading.active_count() == threads
            assert _affinity() == affinity

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("problem, m, degree", ROW_CASES,
                             ids=["example1-m1", "example1-m2", "example1-m3", "example1-m4",
                                  "example2-m2"])
    def test_solve_bit_identical_to_one_worker(self, monkeypatch, workers, problem, m, degree):
        X1, one = self.outcome(monkeypatch, 1, lambda: self.run(problem, m, degree))
        seen = set()
        X, many = self.outcome(monkeypatch, workers,
                               lambda: self.run(recording_threads(problem, seen), m, degree))
        # every Euler step ran on the workers, and so did the levels' driver
        # calls (the calling thread evaluates f only at the top levels)
        here = threading.get_ident()
        euler = {thread for name, thread in seen if name == "b"}
        levels = {thread for name, thread in seen if name == "f"} - {here}
        assert here not in euler and len(euler) >= workers and len(levels) >= workers
        assert np.array_equal(X, X1)
        assert repr(many.y0) == repr(one.y0)
        assert np.array_equal(many.z0, one.z0)
        assert np.array_equal(many.milne, one.milne, equal_nan=True)
        models = zip(many.y_models[:-1] + many.z_models[:-1], one.y_models[:-1] + one.z_models[:-1])
        assert all(np.array_equal(a.coefficients, b.coefficients) for a, b in models)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name, wrong, expected",
                             WRONG_SHAPES + [("f", lambda f: lambda t, x, y, z: (
                                 f(t, x, y, z)[:, None] if t < 0.5 else f(t, x, y, z)),
                                 "(2000,) or ()")],
                             ids=[case[0] for case in WRONG_SHAPES] + ["f-below-start-up"])
    def test_wrong_shape_error_as_one_worker(self, monkeypatch, workers, name, wrong, expected):
        # b and sigma fail in the Euler workers and the late f in a level's
        # corrector phase; phi, grad_phi and the first f fail in the calling
        # thread.  The error names the shapes of a call on all rows
        problem = example2()
        planted = dataclasses.replace(problem, **{name: wrong(getattr(problem, name))})
        grid = GridSpec(T=problem.T, N=8)
        config = SolverConfig(scheme=stable_preset(2), grid=grid)

        def call():
            solve(planted, config, sample_ensemble(planted, grid, 2000, seed=7))

        one = self.outcome(monkeypatch, 1, call)
        many = self.outcome(monkeypatch, workers, call)
        assert isinstance(one, ValidationError) and type(many) is type(one)
        assert str(many) == str(one)
        assert str(one).endswith(f"expected {expected}")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_non_finite_corrector_error_as_one_worker(self, monkeypatch, workers):
        # the driver is infinite at t_2 on the paths above 1.4, which lie in
        # several row ranges
        problem = example2()
        grid = GridSpec(T=problem.T, N=8)
        t2 = grid.times[2]

        def f(t, x, y, z):
            out = problem.f(t, x, y, z)
            if t == t2:
                out[x[:, 0] > 1.4] = np.inf
            return out

        planted = dataclasses.replace(problem, f=f)

        def call():
            solve(planted, SolverConfig(scheme=stable_preset(2), grid=grid),
                  sample_ensemble(planted, grid, self.M, seed=7))

        one = self.outcome(monkeypatch, 1, call)
        many = self.outcome(monkeypatch, workers, call)
        assert isinstance(one, NumericalError) and type(many) is type(one)
        assert str(many) == str(one) == "non-finite corrector response at step 2"

    @pytest.mark.parametrize("workers", [2, 3])
    def test_caller_errstate_applies_in_workers(self, monkeypatch, workers):
        # b and f overflow an exponential on every path and clamp it away;
        # the caller's errstate silences that in every worker (pytest turns
        # any warning into an error)
        base = constant_problem(value=1.0, d=1)

        def b(t, x):
            return np.minimum(np.exp(x + 800.0), 0.0)

        def f(t, x, y, z):
            return np.minimum(np.exp(x[:, 0] + 800.0), 1.0) - 1.0

        problem = dataclasses.replace(base, b=b, f=f)

        def call():
            with np.errstate(over="ignore"):
                return self.run(problem, 2, 2)

        X1, one = self.outcome(monkeypatch, 1, call)
        X, many = self.outcome(monkeypatch, workers, call)
        assert np.array_equal(X, X1)
        assert repr(many.y0) == repr(one.y0)
        assert one.y0 == pytest.approx(1.0)


def test_large_ensemble_values_of_the_one_worker_kernel():
    """Above the real threshold (70000 paths make two workers of 2^15 rows on
    any machine with two cores) y0, z0 and the Milne indicators are the
    values the single-thread kernel gave."""
    problem = example2()
    grid = GridSpec(T=problem.T, N=4)
    sol = solve(problem, SolverConfig(scheme=stable_preset(2), grid=grid),
                sample_ensemble(problem, grid, 70000, seed=11))
    assert repr(sol.y0) == "0.7313316950602711"
    assert repr(sol.z0.tolist()) == "[0.1413441892098003]"
    assert repr(sol.milne.tolist()) == (
        "[0.0006284314750858305, 0.000557858841133928, 0.00021669898784396147]")
