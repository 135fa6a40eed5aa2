"""Problem definitions: the decoupled FBSDE abstraction and the two built-in
benchmark problems with closed-form solutions.

All callables are vectorized over a leading trajectory axis: states x have
shape (M, d), y values (M,), z values (M, d).  sigma may return a constant
(d, d) matrix or a per-trajectory (M, d, d) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .exceptions import ValidationError


@dataclass(frozen=True)
class FbsdeProblem:
    """A decoupled forward-backward SDE.

    dX = b dt + sigma dW with X_0 = x0, and backward
    Y_t = phi(X_T) + int_t^T f(s, X_s, Y_s, Z_s) ds - int_t^T Z_s dW_s.
    grad_phi is the gradient of phi at the rows of x, (M, d) -> (M, d); it
    gives the terminal Z.  closed_form_y/z, when present, give the exact
    (Y, Z) as functions of (t, x) and are used purely as test oracles.

    b, sigma and f run on all M paths: f twice per backward level, b and
    sigma once per Euler step.  Every callable returns a new array and never
    writes into its x, y or z, which the solver keeps after the call.

    Shapes returned, for states x of shape (M, d): b (M, d), sigma (d, d) or
    (M, d, d), f (M,), phi (M,) and grad_phi (M, d).  b and f may also return
    a 0-d value, such as the float 0.0, which stands for every path.  Any
    other shape raises ValidationError.
    """

    name: str
    d: int
    T: float
    x0: np.ndarray
    b: Callable
    sigma: Callable
    f: Callable
    phi: Callable
    grad_phi: Callable
    y_bound: float = math.inf
    z_bound: float = math.inf
    closed_form_y: Optional[Callable] = None
    closed_form_z: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(self.d))

    @property
    def has_closed_form(self) -> bool:
        return self.closed_form_y is not None and self.closed_form_z is not None


def require_shape(value: np.ndarray, name: str, *shapes: tuple) -> np.ndarray:
    """value, once its shape is one of shapes; otherwise a ValidationError
    naming the callable that returned it."""
    if value.shape not in shapes:
        expected = " or ".join(str(shape) for shape in shapes)
        raise ValidationError(
            f"problem callable {name} returned shape {value.shape}, expected {expected}")
    return value


def terminal_z(problem: FbsdeProblem, x: np.ndarray) -> np.ndarray:
    """The terminal Z, grad(phi)(x) . sigma(T, x), at the rows of x (M, d)."""
    M, d = x.shape
    grad = require_shape(np.asarray(problem.grad_phi(x), dtype=float), "grad_phi", (M, d))
    sig = require_shape(np.asarray(problem.sigma(problem.T, x), dtype=float), "sigma",
                        (d, d), (M, d, d))
    if sig.ndim == 2:
        return grad @ sig
    return np.einsum("mk,mkl->ml", grad, sig)


def closed_form_reference(problem: FbsdeProblem, t: float, x: np.ndarray):
    """(Y, Z) of the closed-form solution at one state; raises ValidationError without one."""
    if not problem.has_closed_form:
        raise ValidationError(f"problem {problem.name!r} has no closed-form solution")
    x = np.asarray(x, dtype=float).reshape(1, problem.d)
    y = float(np.asarray(problem.closed_form_y(t, x)).reshape(-1)[0])
    z = np.asarray(problem.closed_form_z(t, x), dtype=float).reshape(problem.d)
    return y, z


# -- benchmark problem 1: sine terminal, self-cancelling driver ----------------

def _row_sum(x: np.ndarray, scale: float) -> np.ndarray:
    """scale * sum(x, axis=1), the columns added left to right: no per-row
    reduce, and the same sums as numpy's for d <= 7 (apart in rounding beyond)."""
    s = x[:, 0].astype(float)
    for j in range(1, x.shape[1]):
        s += x[:, j]
    s *= scale
    return s


def example1(eta: float = 0.6, tau: Optional[float] = None, d: int = 2,
             T: float = 1.0) -> FbsdeProblem:
    """Pure Brownian state (b = 0, sigma = I, so X = W) with

        phi(x) = 1 + eta + sin(tau * sum(x)),
        f(t, x, y, .) = min{1, (y - eta - 1 - sin(tau*sum(x)) * decay(t))^2},

    where decay(t) = exp(-tau^2 d (T - t)/2).  The driver vanishes along the
    exact solution, which is available in closed form.  tau defaults to
    1/sqrt(d).
    """
    if d < 1:
        raise ValidationError("need d >= 1")
    if tau is None:
        tau = 1.0 / math.sqrt(d)
    for name, value in (("eta", eta), ("tau", tau)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"need a finite {name} > 0, got {value}")
    tau = float(tau)
    rate = tau * tau * d / 2.0
    if math.isinf(rate):
        raise ValidationError(f"tau = {tau} makes the decay rate tau^2 d / 2 infinite")

    def b(t, x):
        return np.zeros_like(x)

    def sigma(t, x):
        return np.eye(d)

    def phi(x):
        s = _row_sum(x, tau)
        return np.add(np.sin(s, out=s), 1.0 + eta, out=s)

    def grad_phi(x):
        g = _row_sum(x, tau)
        np.multiply(np.cos(g, out=g), tau, out=g)
        return np.repeat(g[:, None], d, axis=1)

    def f(t, x, y, z):
        s = _row_sum(x, tau)
        np.multiply(np.sin(s, out=s), -np.exp(-rate * (T - t)), out=s)
        s += y - eta - 1.0
        s *= s
        return np.minimum(1.0, s, out=s)

    def u(t, x):
        return 1.0 + eta + np.sin(_row_sum(x, tau)) * np.exp(-rate * (T - t))

    def zeta(t, x):
        g = tau * np.cos(_row_sum(x, tau)) * np.exp(-rate * (T - t))
        return np.repeat(g[:, None], d, axis=1)

    return FbsdeProblem(
        name="example1", d=d, T=T, x0=np.zeros(d),
        b=b, sigma=sigma, f=f, phi=phi, grad_phi=grad_phi,
        y_bound=2.0 + eta, z_bound=tau * math.sqrt(d),
        closed_form_y=u, closed_form_z=zeta,
    )


# -- benchmark problem 2: scalar logistic FBSDE --------------------------------

def example2(T: float = 1.0) -> FbsdeProblem:
    """Scalar decoupled FBSDE with logistic closed form.

        dX = dt / (1 + 2 e^w) + (e^w / (1 + e^w)) dW,       w = t + X_t,
        f  = -2y/(1 + 2 e^w) - (yz/(1 + e^w) - y^2 z)/2,
        phi(x) = e^{T+x} / (1 + e^{T+x}),

    with Y_t = expit(t + X_t) and Z_t = e^{2w}/(1 + e^w)^3.  The first driver
    denominator matches the drift's (1 + 2 e^w): that is the unique choice
    under which the stated closed form solves the equation (checked against
    the associated PDE in the test suite).
    """

    # b, sigma and f take one exponential each and work in their own arrays;
    # e^w = inf is the intended limit (its reciprocal is 0), not an error
    @np.errstate(over="ignore")
    def b(t, x):
        e = np.add(t, x, dtype=float)
        np.exp(e, out=e)
        e *= 2.0
        e += 1.0
        return np.reciprocal(e, out=e)

    @np.errstate(over="ignore")
    def sigma(t, x):
        # expit(w) = 1/(1 + e^{-w}), and -t - x is -(t + x) exactly
        e = np.subtract(-t, x, dtype=float)
        np.exp(e, out=e)
        e += 1.0
        return np.reciprocal(e, out=e)[:, :, None]

    def phi(x):
        return expit(T + x[:, 0])

    def grad_phi(x):
        s = expit(T + x[:, 0])
        return (s * (1.0 - s))[:, None]

    @np.errstate(over="ignore")
    def f(t, x, y, z):
        # -y (2/(1 + 2e) + zz (1/(1 + e) - y)/2), e = e^w, with the minus moved inside
        e = np.add(t, x[:, 0], dtype=float)
        np.exp(e, out=e)
        inv2 = e * 2.0
        inv2 += 1.0
        np.divide(2.0, inv2, out=inv2)
        e += 1.0
        out = np.subtract(y, np.reciprocal(e, out=e), out=e)
        out *= z[:, 0]
        out *= 0.5
        out -= inv2
        out *= y
        return out

    def u(t, x):
        return expit(t + x[:, 0])

    def zeta(t, x):
        s = expit(t + x[:, 0])
        return (s * s * expit(-(t + x[:, 0])))[:, None]

    return FbsdeProblem(
        name="example2", d=1, T=T, x0=np.array([1.0]),
        b=b, sigma=sigma, f=f, phi=phi, grad_phi=grad_phi,
        y_bound=1.0, z_bound=1.0,
        closed_form_y=u, closed_form_z=zeta,
    )


# -- regression-free test problems ---------------------------------------------

def exponential_ode(T: float = 1.0) -> FbsdeProblem:
    """Noise-free reduction with driver f = -y and phi = 1.

    With sigma = 0 the backward equation is the ODE dY/dt = -f, so
    Y_t = e^{-(T-t)}.  Used for exact order measurement.
    """

    def b(t, x):
        return np.zeros_like(x)

    def sigma(t, x):
        return np.zeros((1, 1))

    def phi(x):
        return np.ones(x.shape[0])

    def f(t, x, y, z):
        return -y

    def u(t, x):
        return np.full(x.shape[0], math.exp(-(T - t)))

    def zeta(t, x):
        return np.zeros((x.shape[0], 1))

    return FbsdeProblem(
        name="exponential-ode", d=1, T=T, x0=np.zeros(1),
        b=b, sigma=sigma, f=f, phi=phi,
        grad_phi=lambda x: np.zeros_like(x),
        closed_form_y=u, closed_form_z=zeta,
    )


def constant_problem(value: float = 1.0, d: int = 1, T: float = 1.0) -> FbsdeProblem:
    """Brownian state (b = 0, sigma = I), zero driver and constant terminal
    payoff; Y = value and Z = 0."""
    if d < 1:
        raise ValidationError("need d >= 1")

    def b(t, x):
        return np.zeros_like(x)

    def sigma(t, x):
        return np.eye(d)

    def phi(x):
        return np.full(x.shape[0], float(value))

    def f(t, x, y, z):
        return np.zeros(x.shape[0])

    def u(t, x):
        return np.full(x.shape[0], float(value))

    def zeta(t, x):
        return np.zeros((x.shape[0], d))

    return FbsdeProblem(
        name="constant", d=d, T=T, x0=np.zeros(d),
        b=b, sigma=sigma, f=f, phi=phi,
        grad_phi=lambda x: np.zeros_like(x),
        closed_form_y=u, closed_form_z=zeta,
    )


PROBLEM_REGISTRY = {
    "example1": example1,
    "example2": example2,
    "exponential-ode": exponential_ode,
    "constant": constant_problem,
}
