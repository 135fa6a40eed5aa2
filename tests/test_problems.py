"""Benchmark problem definitions and their closed forms."""

import math

import numpy as np
import pytest
from scipy.special import expit

from fbsde_pc import (
    ValidationError,
    closed_form_reference,
    example1,
    example2,
    exponential_ode,
)
from fbsde_pc.problems import PROBLEM_REGISTRY, FbsdeProblem, constant_problem, terminal_z


class TestExample1:
    def test_value_at_origin(self):
        problem = example1(eta=0.6)
        y, _ = closed_form_reference(problem, 0.0, problem.x0)
        assert y == pytest.approx(1.6, abs=1e-15)

    def test_z_at_origin(self):
        problem = example1(eta=0.6, tau=1 / math.sqrt(2), d=2, T=1.0)
        _, z = closed_form_reference(problem, 0.0, problem.x0)
        want = (1 / math.sqrt(2)) * math.exp(-0.5)
        assert z == pytest.approx(np.full(2, want), rel=1e-9)
        assert want == pytest.approx(0.42888, abs=5e-6)

    def test_driver_vanishes_on_closed_form(self):
        problem = example1(eta=0.6, d=2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            t = float(rng.uniform(0.0, problem.T))
            x = rng.standard_normal((1, 2))
            y = np.asarray(problem.closed_form_y(t, x))
            f = problem.f(t, x, y, np.zeros((1, 2)))
            assert abs(float(f[0])) <= 1e-12

    def test_terminal_consistency(self):
        problem = example1()
        rng = np.random.default_rng(8)
        x = rng.standard_normal((100, 2))
        u_T = np.asarray(problem.closed_form_y(problem.T, x))
        assert u_T == pytest.approx(problem.phi(x), abs=1e-12)

    def test_tau_defaults_to_inverse_sqrt_d(self):
        problem = example1(d=4)
        x = np.ones((1, 4))
        # phi = 1 + eta + sin(tau * sum x) with tau = 1/2
        assert problem.phi(x)[0] == pytest.approx(1.6 + math.sin(0.5 * 4))

    def test_bounds(self):
        problem = example1(eta=0.6, d=2)
        assert problem.y_bound == pytest.approx(2.6)
        assert problem.z_bound == pytest.approx(math.sqrt(2) / math.sqrt(2))

    def test_driver_clamp(self):
        problem = example1(eta=0.6)
        f = problem.f(0.0, np.zeros((1, 2)), np.array([50.0]), np.zeros((1, 2)))
        assert float(f[0]) == 1.0

    def test_driver_lipschitz_spot_check(self):
        problem = example1(eta=0.6)
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = float(rng.uniform(0, 1))
            x = rng.standard_normal((1, 2))
            y = rng.uniform(-2.6, 2.6, size=1)
            dy = 1e-6
            f0 = float(problem.f(t, x, y, np.zeros((1, 2)))[0])
            f1 = float(problem.f(t, x, y + dy, np.zeros((1, 2)))[0])
            # |df/dy| = 2|arg| <= 2*(|y| + eta + 1 + 1) when unclamped
            assert abs(f1 - f0) / dy <= 2 * (abs(float(y[0])) + 0.6 + 2.0) + 1e-3


class TestExample2:
    def test_y_at_start(self):
        problem = example2()
        y, _ = closed_form_reference(problem, 0.0, problem.x0)
        assert y == pytest.approx(math.e / (1 + math.e), abs=1e-12)
        assert y == pytest.approx(0.731059, abs=1e-6)

    def test_z_at_start(self):
        problem = example2()
        _, z = closed_form_reference(problem, 0.0, problem.x0)
        want = math.e**2 / (1 + math.e) ** 3
        assert float(z[0]) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.143734, abs=1e-6)

    def test_terminal_consistency(self):
        problem = example2()
        x = np.random.default_rng(1).standard_normal((100, 1))
        u_T = np.asarray(problem.closed_form_y(problem.T, x))
        assert u_T == pytest.approx(problem.phi(x), abs=1e-12)

    def test_closed_form_satisfies_pde(self):
        # finite-difference check of u_t + b u_x + 0.5 sigma^2 u_xx + f = 0
        problem = example2()
        rng = np.random.default_rng(2)
        eps = 1e-5
        for _ in range(25):
            t = float(rng.uniform(0.05, 0.95))
            x = rng.uniform(0.0, 2.0, size=(1, 1))
            u = lambda tt, xx: float(np.asarray(problem.closed_form_y(tt, xx))[0])
            u_t = (u(t + eps, x) - u(t - eps, x)) / (2 * eps)
            u_x = (u(t, x + eps) - u(t, x - eps)) / (2 * eps)
            u_xx = (u(t, x + eps) - 2 * u(t, x) + u(t, x - eps)) / eps**2
            b = float(problem.b(t, x)[0, 0])
            sig = float(np.asarray(problem.sigma(t, x)).reshape(-1)[0])
            y = np.array([u(t, x)])
            z = np.asarray(problem.closed_form_z(t, x))
            f = float(problem.f(t, x, y, z)[0])
            assert abs(u_t + b * u_x + 0.5 * sig**2 * u_xx + f) <= 1e-4

    def test_terminal_values_at_zero_state(self):
        problem = example2()
        y = problem.phi(np.zeros((1, 1)))
        assert y.shape == (1,)
        assert y[0] == pytest.approx(math.e / (1 + math.e), abs=1e-12)


class TestTerminalValues:
    def test_constant_problem_needs_a_dimension(self):
        with pytest.raises(ValidationError, match="d >= 1"):
            constant_problem(d=0)

    def test_constant_payoff_zero_z(self):
        problem = constant_problem(value=2.0, d=3)
        x = np.random.default_rng(0).standard_normal((20, 3))
        assert problem.phi(x) == pytest.approx(np.full(20, 2.0))
        assert terminal_z(problem, x) == pytest.approx(np.zeros((20, 3)), abs=1e-12)

    def test_example1_z_formula(self):
        problem = example1(eta=0.6, tau=0.5, d=2)
        x = np.random.default_rng(3).standard_normal((50, 2))
        z = terminal_z(problem, x)
        want = 0.5 * np.cos(0.5 * x.sum(axis=1))
        for k in range(2):
            assert z[:, k] == pytest.approx(want, rel=1e-12)


class TestClosedFormReference:
    def test_missing_closed_form(self):
        problem = FbsdeProblem(
            name="bare", d=1, T=1.0, x0=np.zeros(1),
            b=lambda t, x: np.zeros_like(x),
            sigma=lambda t, x: np.eye(1),
            f=lambda t, x, y, z: np.zeros(x.shape[0]),
            phi=lambda x: np.zeros(x.shape[0]),
            grad_phi=lambda x: np.zeros_like(x),
        )
        with pytest.raises(ValidationError, match="has no closed-form solution"):
            closed_form_reference(problem, 0.0, problem.x0)

    def test_exponential_ode_oracle(self):
        problem = exponential_ode(T=1.0)
        y, z = closed_form_reference(problem, 0.0, problem.x0)
        assert y == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert z == pytest.approx(np.zeros(1))
        y_mid, _ = closed_form_reference(problem, 0.25, problem.x0)
        assert y_mid == pytest.approx(math.exp(-0.75), abs=1e-15)

    def test_example1_at_terminal_time(self):
        problem = example1(eta=0.6)
        x = np.array([0.3, -0.2])
        y, z = closed_form_reference(problem, problem.T, x)
        assert y == pytest.approx(float(problem.phi(x[None, :])[0]), abs=1e-14)
        assert z == pytest.approx(terminal_z(problem, x[None, :])[0], abs=1e-12)


class TestCallablesAgainstPlainForms:
    """The hot callables against the plain expressions they replace."""

    def test_example2_drift_is_bit_identical(self):
        problem = example2()
        x = np.random.default_rng(4).uniform(-30.0, 30.0, size=(2000, 1))
        for t in (0.0, 0.37, 1.0):
            assert np.array_equal(problem.b(t, x), 1.0 / (1.0 + 2.0 * np.exp(t + x)))

    def test_example2_sigma_and_driver_within_rounding(self):
        problem = example2()
        rng = np.random.default_rng(5)
        x = rng.uniform(-30.0, 30.0, size=(5000, 1))
        y = rng.uniform(-1.0, 1.0, size=5000)
        z = rng.uniform(-1.0, 1.0, size=(5000, 1))
        for t in (0.0, 0.37, 1.0):
            sig = expit(t + x)[:, :, None]
            got = problem.sigma(t, x)
            assert got.shape == (5000, 1, 1)
            assert np.all(np.abs(got - sig) <= 1e-15 * np.abs(sig))
            w, zz = t + x[:, 0], z[:, 0]
            terms = (-2.0 * y / (1.0 + 2.0 * np.exp(w)), -0.5 * y * zz * expit(-w),
                     0.5 * y * y * zz)
            gap = np.abs(problem.f(t, x, y, z) - sum(terms))
            assert np.all(gap <= 1e-15 * sum(np.abs(term) for term in terms))

    @pytest.mark.filterwarnings("error")
    def test_example2_limits_at_extreme_states(self):
        # e^w overflows at w = 800 and underflows at w = -800; both are the
        # intended limits, reached without a warning
        problem = example2()
        x = np.array([[800.0], [-800.0]])
        y = np.array([0.5, 0.5])
        z = np.array([[0.25], [0.25]])
        assert np.array_equal(problem.b(0.0, x), [[0.0], [1.0]])
        assert np.array_equal(problem.sigma(0.0, x), [[[1.0]], [[0.0]]])
        # f -> y^2 z/2 as e^w -> inf, and -2y - y z (1 - y)/2 as e^w -> 0
        assert np.array_equal(problem.f(0.0, x, y, z), [0.03125, -1.03125])

    @pytest.mark.parametrize("d", range(1, 11))
    def test_example1_row_sums(self, d):
        eta, tau, T, t = 0.6, 1.0 / math.sqrt(d), 1.0, 0.3
        problem = example1(eta=eta, tau=tau, d=d, T=T)
        rng = np.random.default_rng(d)
        x = rng.standard_normal((300, d)) * 2.0
        x[7] = -0.0
        y = rng.uniform(0.0, 3.0, size=300)
        z = rng.standard_normal((300, d))
        s = tau * x.sum(axis=1)
        decay = np.exp(-tau * tau * d / 2.0 * (T - t))
        arg = y - eta - 1.0 - np.sin(s) * decay
        plain = {
            "phi": (problem.phi(x), 1.0 + eta + np.sin(s)),
            "grad_phi": (problem.grad_phi(x), np.repeat((tau * np.cos(s))[:, None], d, axis=1)),
            "f": (problem.f(t, x, y, z), np.minimum(1.0, arg * arg)),
            "u": (problem.closed_form_y(t, x), 1.0 + eta + np.sin(s) * decay),
            "zeta": (problem.closed_form_z(t, x),
                     np.repeat((tau * np.cos(s) * decay)[:, None], d, axis=1)),
        }
        # numpy adds rows this short one column after another; longer rows
        # it sums in eight lanes, so the sums differ in their last bits, and
        # sin/cos carry that as an absolute error of up to |derivative| <= 10
        # times it (not a relative one near a zero)
        spread = 1e-15 * 10.0 * tau * np.abs(x).sum(axis=1)
        for name, (got, want) in plain.items():
            if d <= 7:
                assert np.array_equal(got, want), name
            else:
                bound = 1e-15 * np.abs(want) + (spread if want.ndim == 1 else spread[:, None])
                assert np.all(np.abs(got - want) <= bound), name


@pytest.mark.parametrize("name", sorted(PROBLEM_REGISTRY))
def test_callables_leave_their_arguments_alone(name):
    # the solver keeps x, y and z after each call, so the callables must
    # return new arrays and never write into their arguments
    problem = PROBLEM_REGISTRY[name]()
    rng = np.random.default_rng(6)
    x = rng.standard_normal((64, problem.d))
    y = rng.standard_normal(64)
    z = rng.standard_normal((64, problem.d))
    calls = {
        "b": (problem.b, (0.5, x)),
        "sigma": (problem.sigma, (0.5, x)),
        "f": (problem.f, (0.5, x, y, z)),
        "phi": (problem.phi, (x,)),
        "grad_phi": (problem.grad_phi, (x,)),
    }
    for label, (fn, args) in calls.items():
        before = [np.copy(a) for a in args]
        out = np.asarray(fn(*args))
        for a, kept in zip(args, before):
            assert np.asarray(a).tobytes() == np.asarray(kept).tobytes(), label
            assert not np.shares_memory(out, a), label
