"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The Monte Carlo ladders reuse module-scoped results so the suite
stays in the minutes range.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction as Fr

import numpy as np
import pytest

from fbsde_pc import (
    GridSpec,
    SolverConfig,
    adams_pair,
    batch_ci,
    characteristic_polynomial,
    check_root_condition,
    convergence_rate,
    derivative_weights,
    deterministic_solve,
    milne_factor,
    milne_local_ratios,
    polynomial_roots,
    solve_order_conditions,
    stable_preset,
    t_quantile,
    truncation_residuals,
    unstable_three_step,
    unstable_two_step,
)
from fbsde_pc.experiments import TrialLadder, run_ladder
from fbsde_pc.problems import example1, example2, exponential_ode
from fbsde_pc.simulation import sample_ensemble
from fbsde_pc.solver import deterministic_perturbation_deviation, solve

from test_experiments import t_quantile_oracle
from test_schemes import ADAMS_TABLE


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


@contextmanager
def runtime_budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s over the {seconds}s budget"


# -- 1. coefficient fixtures ----------------------------------------------------

def test_coefficient_fixtures():
    with criterion("coefficient fixtures: Adams table orders 1..6, exact rationals"):
        with runtime_budget(1.0):
            for order, (pred_gamma, pred_ec, corr, corr_ec) in ADAMS_TABLE.items():
                scheme = adams_pair(order)
                assert scheme.predictor.gamma == pred_gamma
                assert scheme.corrector.gamma0 == corr[0]
                assert scheme.corrector.gamma == corr[1:]
                assert scheme.error_constant_pred == pred_ec
                assert scheme.error_constant_corr == corr_ec


# -- 2. order-condition fixtures --------------------------------------------------

def test_order_condition_fixtures():
    with criterion("order conditions: one-step and three-step schemes regenerate from pins"):
        with runtime_budget(1.0):
            one = solve_order_conditions(1, gamma0=Fr(1, 2))
            assert one.alpha == (Fr(1),) and one.gamma == (Fr(1, 2),)
            three = solve_order_conditions(3, alpha=(Fr(1, 3),) * 3, gamma0=Fr(5, 6))
            assert three.gamma == (Fr(-1, 3), Fr(11, 6), Fr(-1, 3))
            pred = solve_order_conditions(3, alpha=(Fr(1, 3),) * 3, gamma0=0)
            assert pred.gamma == (Fr(39, 18), Fr(-2, 3), Fr(1, 2))
            for coeffs, order in ((one, 1), (three, 3), (pred, 3)):
                for residual in truncation_residuals(coeffs, order):
                    assert abs(residual) <= Fr(1, 10**12)


# -- 3. derivative-weight fixtures -----------------------------------------------

def test_derivative_weight_fixtures():
    with criterion("derivative weights: m = 1, 2, 3 exact values"):
        with runtime_budget(1.0):
            assert derivative_weights(1) == (Fr(-1), Fr(1))
            assert derivative_weights(2) == (Fr(-3, 2), Fr(2), Fr(-1, 2))
            assert derivative_weights(3) == (
                Fr(-11, 6), Fr(3), Fr(-3, 2), Fr(1, 3))


# -- 4. stability fixtures --------------------------------------------------------

def test_stability_fixtures():
    with criterion("stability fixtures: published stable/unstable verdicts"):
        with runtime_budget(1.0):
            def verdict(scheme, alpha):
                # the scheme's corrector carries the published solution weights
                poly = characteristic_polynomial(scheme)
                assert poly == (1.0, *(-float(a) for a in alpha))
                return check_root_condition(polynomial_roots(poly))

            assert verdict(stable_preset(1), (1,)).status == "stable"
            assert verdict(stable_preset(3), (Fr(1, 3),) * 3).status == "stable"
            two = verdict(unstable_two_step(), (3, -2))
            assert two.status == "unstable"
            assert [round(r.real) for r in two.offending] == [2]
            three = verdict(unstable_three_step(), (2, 5, -6))
            assert three.status == "unstable"
            assert sorted(round(r.real) for r in three.offending) == [-2, 3]


# -- 5. deterministic order check --------------------------------------------------

def test_deterministic_order_check():
    with criterion("deterministic order: stable schemes m = 1..4 within 0.25 of m"):
        with runtime_budget(10.0):
            problem = exponential_ode()
            exact = math.exp(-1.0)
            for m in (1, 2, 3, 4):
                errors = []
                for N in (40, 80, 160):
                    sol = deterministic_solve(
                        problem, SolverConfig(scheme=adams_pair(m),
                                              grid=GridSpec(T=1.0, N=N)))
                    errors.append(abs(sol.y0 - exact))
                for k in (0, 1):
                    observed = math.log2(errors[k] / errors[k + 1])
                    assert abs(observed - m) <= 0.25, (m, observed)


# -- 6. Milne indicator ------------------------------------------------------------

def test_milne_indicator_proposition():
    with criterion("Milne indicator: local ratio in [0.8, 1.25] for the order-2 pair"):
        with runtime_budget(5.0):
            ratios = milne_local_ratios(exponential_ode(), adams_pair(2),
                                        GridSpec(T=1.0, N=160))
            assert float(np.min(ratios)) >= 0.8
            assert float(np.max(ratios)) <= 1.25


# -- 7. instability demonstration ---------------------------------------------------

def test_instability_demonstration():
    with criterion("instability: divergent unstable schemes vs bounded stable ones"):
        with runtime_budget(10.0):
            problem = exponential_ode()
            u_exact = np.exp(np.linspace(0.0, 1.0, 101) - 1.0)

            def max_error(scheme):
                sol = deterministic_solve(
                    problem, SolverConfig(scheme=scheme, grid=GridSpec(T=1.0, N=100),
                                          allow_unstable=True))
                return float(np.nanmax(np.abs(sol.y - u_exact)))

            assert max_error(unstable_two_step()) > 1e6
            assert max_error(unstable_three_step()) > 1e6
            assert max_error(stable_preset(2)) < 1e-2
            assert max_error(stable_preset(3)) < 1e-2


# -- 8. Monte Carlo reproduction of the benchmark table ------------------------------

TABLE_Y = {
    1: {5: 1.257e-2, 10: 7.969e-3, 20: 5.276e-3},
    2: {5: 7.960e-3, 10: 7.012e-4, 20: 4.276e-4},
}
LADDER_DEGREE = 6


@pytest.fixture(scope="module")
def table_ladders():
    problem = example1(eta=0.6, tau=1.0 / math.sqrt(2.0), d=2, T=1.0)
    reports = {}
    for m in (1, 2):
        ladder = TrialLadder(problem=problem, scheme=stable_preset(m),
                             pairs=((5, 12018), (10, 12018), (20, 12018)),
                             batches=21, base_seed=2024,
                             basis_degree=LADDER_DEGREE)
        reports[m] = run_ladder(ladder)
    smoke = TrialLadder(problem=problem, scheme=stable_preset(3),
                        pairs=((5, 3000), (10, 3000), (20, 3000)),
                        batches=15, base_seed=2024, basis_degree=LADDER_DEGREE)
    reports[3] = run_ladder(smoke)
    return reports


def test_table_reproduction_error_band(table_ladders):
    with criterion("benchmark table: Y-errors within a factor of 3 of the printed values"):
        for m in (1, 2):
            for row in table_ladders[m].rows:
                printed = TABLE_Y[m][row.N]
                assert row.err_y <= 3.0 * printed, (m, row.N, row.err_y, printed)
                assert row.ci_y[0] <= row.err_y <= row.ci_y[1]


def test_table_reproduction_smoke_rows(table_ladders):
    with criterion("benchmark table: m = 3 and m = 4 smoke rows run at reduced M"):
        for row in table_ladders[3].rows:
            assert math.isfinite(row.err_y) and row.err_y >= 0.0
        problem = example1(eta=0.6, tau=1.0 / math.sqrt(2.0), d=2, T=1.0)
        ladder4 = TrialLadder(problem=problem, scheme=stable_preset(4),
                              pairs=((10, 2000), (20, 2000)), batches=5,
                              base_seed=7, basis_degree=LADDER_DEGREE)
        report4 = run_ladder(ladder4)
        for row in report4.rows:
            assert math.isfinite(row.err_y)


def test_table_reproduction_convergence_rates(table_ladders):
    """Fitted Y-rates at the published sample size.

    With this problem's driver vanishing identically along the exact solution,
    the exact Y process is a conditional-expectation martingale of the
    terminal payoff: every consistent scheme propagates it with zero
    time-discretization bias, so the measured Y-errors at fixed M consist of
    Monte Carlo noise plus basis-approximation effects, neither of which
    shrinks with N.  The rate thresholds below assume an O(h^m) error ladder
    that this algorithm provably does not produce on this problem; they are
    asserted as stated rather than weakened, and are expected to fail.
    """
    with criterion("benchmark table: fitted Y-rates meet the per-step thresholds"):
        rate1 = table_ladders[1].rate_y
        rate2 = table_ladders[2].rate_y
        rate3 = table_ladders[3].rate_y
        assert rate1 is not None and rate1 >= 0.7, f"m=1 Y-rate {rate1}"
        assert rate2 is not None and rate2 >= 1.6, f"m=2 Y-rate {rate2}"
        assert rate3 is not None and rate3 >= 2.3, f"m=3 Y-rate {rate3}"


# -- 9. second benchmark sanity -------------------------------------------------------

def test_example2_sanity():
    with criterion("scalar benchmark: m = 2, N = 20, M = 1e4 hits the closed form"):
        with runtime_budget(120.0):
            problem = example2()
            grid = GridSpec(T=1.0, N=20)
            ensemble = sample_ensemble(problem, grid, 10_000, seed=11)
            sol = solve(problem, SolverConfig(scheme=stable_preset(2), grid=grid),
                        ensemble)
            assert abs(sol.y0 - math.e / (1.0 + math.e)) <= 5e-3
            assert abs(sol.z0[0] - math.e**2 / (1.0 + math.e) ** 3) <= 2e-2


# -- 10. perturbation stability --------------------------------------------------------

def test_perturbation_stability():
    with criterion("perturbation stability: bounded for stable schemes, geometric for the unstable pair"):
        with runtime_budget(60.0):
            problem = exponential_ode()
            delta = 1e-6
            for m in (1, 2, 3):
                for N in (10, 20, 40):
                    dev = deterministic_perturbation_deviation(
                        problem, stable_preset(m), GridSpec(T=1.0, N=N), delta)
                    h = 1.0 / N
                    assert dev <= 1e3 * delta / h, (m, N, dev)
            devs = [deterministic_perturbation_deviation(
                problem, unstable_two_step(), GridSpec(T=1.0, N=N), delta,
                allow_unstable=True) for N in (10, 20, 40)]
            assert devs[1] > 1e2 * devs[0]
            assert devs[2] > 1e2 * devs[1]


# -- 11. statistical infrastructure -----------------------------------------------------

def test_statistical_infrastructure():
    with criterion("statistics: t quantile vs integration oracle; CI coverage 95% +- 3%"):
        with runtime_budget(30.0):
            assert t_quantile(0.975, 20) == pytest.approx(2.0860, abs=1e-4)
            assert t_quantile(0.975, 20) == pytest.approx(
                t_quantile_oracle(0.975, 20), abs=1e-8)
            rng = np.random.default_rng(99)
            mu, sigma, reps = 0.5, 0.1, 2000
            covered = 0
            for _ in range(reps):
                _, lo, hi = batch_ci(rng.normal(mu, sigma, 21))
                covered += lo <= mu <= hi
            assert covered / reps == pytest.approx(0.95, abs=0.03)
