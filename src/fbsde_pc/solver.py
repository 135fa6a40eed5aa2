"""Backward predictor-corrector pass over a simulated ensemble.

One kernel, _backward, runs a scheme over a time array, paths and Brownian
increments, from the models at its top m levels down to its first node.  Each
step produces, in order: the z model (derivative weights applied to future
levels against Brownian increments), the explicit predictor model, and the
corrector model whose driver term uses the predicted value.  solve runs the
kernel on the coarse grid; its top levels N-1..N-m+1 come from the same kernel
run with the one-step trapezoidal pair on a bridge-refined fine grid.  A first
node at t = 0 is a point mass, so its regressions collapse to sample means.

A sigma = 0 problem runs the same kernel, start-up included, on one path of
zero increments with the constant basis: each regression then has one row
and fits its response exactly, so the kernel runs the scheme's scalar
recursion.  The Milne local-error check runs it one step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .exceptions import DegenerateIndicator, NumericalError, ValidationError
from .problems import FbsdeProblem, closed_form_reference, require_shape, terminal_z
from .regression import (
    DesignSolver,
    RegressionModel,
    build_basis,
    constant_model,
    truncate,
)
from .schemes import MultistepScheme, milne_factor, scheme_to_dict, stable_preset
from .simulation import GridSpec, PathEnsemble, euler_paths, euler_states, refine_increments
from .stability import scheme_verdict

BOOTSTRAP_SUBSTEP_CAP = 64


def auto_substeps(m: int, h: float) -> int:
    """Refinement count keeping the one-step bootstrap error at the scheme's
    local order: r = ceil(h^{-(m-1)/2}), capped."""
    if m <= 1:
        return 1
    r = math.ceil(h ** (-(m - 1) / 2.0))
    return max(1, min(r, BOOTSTRAP_SUBSTEP_CAP))


@dataclass(frozen=True)
class SolverConfig:
    scheme: MultistepScheme
    grid: GridSpec
    basis_degree: int = 2
    y_bound: Optional[float] = None   # None -> problem-supplied bound
    allow_unstable: bool = False
    deterministic: bool = False
    stability_tol: float = 1e-8

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(scheme=scheme_to_dict(self.scheme),
                   grid={"T": self.grid.T, "N": self.grid.N})
        return out


@dataclass
class BackwardSolution:
    y0: float
    z0: np.ndarray
    y_models: list
    z_models: list
    milne: np.ndarray  # indicator per step i = 0..N-m
    config: SolverConfig


@dataclass
class DeterministicSolution:
    y: np.ndarray
    milne: np.ndarray
    y0: float
    z0: np.ndarray
    config: SolverConfig


class _Terminal:
    """A terminal rule in a model slot: predict evaluates it at the rows of x."""

    def __init__(self, rule):
        self._rule = rule

    def predict(self, x):
        return np.asarray(self._rule(np.asarray(x, dtype=float)))


def _float_arrays(scheme: MultistepScheme):
    corr, pred = scheme.corrector, scheme.predictor
    return (
        np.array([float(v) for v in corr.alpha]),
        float(corr.gamma0),
        np.array([float(v) for v in corr.gamma]),
        np.array([float(v) for v in pred.alpha]),
        np.array([float(v) for v in pred.gamma]),
        np.array([float(v) for v in scheme.lambda_h[1:]]),
    )


def _terminal_slots(problem: FbsdeProblem, N: int) -> tuple[list, list]:
    """y and z model lists with one slot per node, the terminal rules in slot N."""
    y_rule = _Terminal(lambda x: require_shape(np.asarray(problem.phi(x)), "phi", (len(x),)))
    z_rule = _Terminal(lambda x: terminal_z(problem, x))
    return [None] * N + [y_rule], [None] * N + [z_rule]


def _value(model, x: np.ndarray) -> float:
    """A y model's prediction at the one state x."""
    return float(np.asarray(model.predict(x[None, :])).reshape(-1)[0])


def _require_steps(m: int, N: int) -> None:
    if N < m:
        raise ValidationError(f"a scheme of m = {m} steps needs N >= {m} time steps, got N = {N}")


def _require_stable(scheme: MultistepScheme, allow_unstable: bool, tol: float) -> None:
    if allow_unstable:
        return
    verdict = scheme_verdict(scheme, tol=tol)
    if not verdict.is_stable:
        raise ValidationError(
            f"root condition: scheme {scheme.name or scheme.m}-step has verdict "
            f"{verdict.status!r} (offending roots {verdict.offending}); "
            "pass allow_unstable to override"
        )


def _check_finite(arr: np.ndarray, what: str, step: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite {what} at step {step}")


def _milne_scale(scheme: MultistepScheme) -> float:
    try:
        return float(milne_factor(scheme))
    except DegenerateIndicator:
        return float("nan")


def _backward(problem: FbsdeProblem, config: SolverConfig, times: np.ndarray, h: float,
              X: np.ndarray, dW: np.ndarray, y_models: list, z_models: list,
              perturb_y: float = 0.0) -> np.ndarray:
    """Run config.scheme backward over the nodes of times, step h.

    X (M, n+1, d) holds the states and dW (M, n, d) the increments between
    them.  y_models and z_models have one slot per node; the top m slots hold
    the starting models, and every lower slot is filled in place.  perturb_y
    is added to every corrector response.  Returns the Milne indicator of
    each step i = 0..n-m.
    """
    scheme = config.scheme
    m, n = scheme.m, len(times) - 1
    M, _, d = X.shape
    alpha, gamma0, gamma, alpha_t, gamma_t, lam = _float_arrays(scheme)
    basis = build_basis(problem.d, config.basis_degree)
    y_bound = problem.y_bound if config.y_bound is None else config.y_bound
    z_bound = problem.z_bound

    # the m live levels j: y_j(X_j), f_j and the martingale increment
    # z_j(X_j) . dW_j (None at the last node), stored as each level is fitted
    live: dict[int, tuple] = {}

    def driver(t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        return require_shape(np.asarray(problem.f(t, x, y, z), dtype=float), "f", (M,), ())

    def zdw_at(j: int, z: np.ndarray):
        return None if j == n else np.einsum("md,md->m", z, dW[:, j, :])

    for j in range(n - m + 1, n + 1):
        xj = X[:, j, :]
        y = np.asarray(y_models[j].predict(xj))
        z = np.asarray(z_models[j].predict(xj))
        live[j] = (y, driver(times[j], xj, y, z), zdw_at(j, z))
    del y, z

    factor = _milne_scale(scheme)
    milne = np.zeros(n - m + 1)

    def level(i: int) -> None:
        # one level in a call of its own, so that every array it builds but
        # the live ones is freed before the next level builds its design.
        # Within the level each M-vector is dropped once its last reader is
        # done: on a small basis these vectors, not the design, set the peak
        xi = X[:, i, :]
        point_mass = i == 0 and times[0] == 0.0
        design = None if point_mass else basis.design_matrix(xi)
        # centering the z responses by any fixed function of the current state
        # leaves E_i[. dW^T] unchanged; the one-level-ahead model removes the
        # bulk of the y spread.  Every RegressionModel here was fitted on basis,
        # so its prediction reuses this level's design.
        ahead = y_models[i + 1]
        if design is not None and isinstance(ahead, RegressionModel):
            proxy = truncate(design @ ahead.coefficients, ahead.truncation_bound)
        else:
            proxy = np.asarray(ahead.predict(xi))
        # the z and predictor responses are summed straight into one
        # Fortran-ordered right-hand side, which BLAS reads without a copy
        rhs = np.zeros((M, d + 1), order="F")
        s_z, s_pred = rhs[:, :d], rhs[:, d]
        dw = dW[:, i, :]  # W_{i+j} - W_i, as a running sum over j
        for j in range(1, m + 1):
            yj, fj, _ = live[i + j]
            s_z += lam[j - 1] * (yj - proxy)[:, None] * dw
            s_pred += alpha_t[j - 1] * yj + h * gamma_t[j - 1] * fj
            if j < m:
                dw = dw + dW[:, i + j, :]
        del proxy, dw
        s_z /= h
        _check_finite(s_pred, "predictor response", i)

        if point_mass:
            # the mean of a C-ordered copy adds the rows one after another;
            # a Fortran-ordered column is summed pairwise, which rounds z0
            # differently
            z_model = constant_model(np.ascontiguousarray(s_z).mean(axis=0), basis, z_bound)
            z_here = z_model.predict(xi)
            y_pred_here = constant_model(s_pred.mean(), basis, y_bound).predict(xi)
            del rhs, s_z, s_pred
        else:
            solver = DesignSolver(design)
            # the solver's centered copy gives the fitted values from here on,
            # so the level keeps one M x K array
            del design
            coef = solver.solve(rhs)
            del rhs, s_z, s_pred
            z_model = RegressionModel(coef[:, :d], basis, z_bound)
            z_here = truncate(solver.fitted(coef[:, :d]), z_bound)
            y_pred_here = truncate(solver.fitted(coef[:, d]), y_bound)

        # the corrector response is built in place on the driver's new
        # float array
        f_pred = driver(times[i], xi, y_pred_here, z_here)
        s_corr = f_pred if f_pred.ndim else np.full(M, f_pred)
        del f_pred
        s_corr *= h * gamma0
        # subtract the martingale increments sum_k z_k(X_k) dW_k from the
        # corrector responses: zero conditional mean, so every fitted
        # conditional expectation is unchanged while the terminal noise no
        # longer telescopes into Y_0 (without it the Y_0 standard error is
        # std(phi(X_T))/sqrt(M))
        zdw = zdw_at(i, z_here)
        control = zdw
        for j in range(1, m + 1):
            yj, fj, zdw_j = live[i + j]
            s_corr += alpha[j - 1] * (yj - control)
            s_corr += h * gamma[j - 1] * fj
            if j < m:
                control = control + zdw_j
        del control
        if m == 1:
            zdw = None  # no later level reads it
        if perturb_y:
            s_corr += perturb_y
        _check_finite(s_corr, "corrector response", i)

        if point_mass:
            y_model = constant_model(s_corr.mean(), basis, y_bound)
            del s_corr
            y_here = y_model.predict(xi)
        else:
            y_coef = solver.solve(s_corr)
            del s_corr
            y_model = RegressionModel(y_coef, basis, y_bound)
            y_here = truncate(solver.fitted(y_coef), y_bound)
            del solver

        gap = y_pred_here - y_here
        del y_pred_here
        milne[i] = factor * float(np.mean(np.abs(gap, out=gap)))
        del gap
        y_models[i] = y_model
        z_models[i] = z_model
        del live[i + m]
        if i > 0:
            live[i] = (y_here, driver(times[i], xi, y_here, z_here), zdw)

    for i in range(n - m, -1, -1):
        level(i)
    return milne


def _bootstrap(problem: FbsdeProblem, config: SolverConfig, ensemble: PathEnsemble,
               y_models: list, z_models: list) -> None:
    """Fill the top coarse levels N-1..N-m+1 of y_models and z_models.

    Runs the one-step trapezoidal pair on a Brownian-bridge refined grid
    (auto_substeps pieces per coarse step) from T down to t_{N-m+1} and keeps
    the models at the coarse nodes.  A deterministic solve has no noise to
    refine: its fine increments are zero.
    """
    grid = config.grid
    N = grid.N
    r = auto_substeps(config.scheme.m, grid.h)
    start = N - config.scheme.m + 1
    # fine nodes t_start, t_start + h/r, ..., T; the last is T exactly,
    # because the terminal driver is evaluated there
    n_fine, h_f = (N - start) * r, grid.h / r
    times = grid.times[start] + h_f * np.arange(n_fine + 1)
    times[-1] = grid.T
    if config.deterministic:
        fine_dw = np.zeros((ensemble.M, n_fine, ensemble.d))
    else:
        fine_dw = refine_increments(ensemble, start, r)
    fine_x = euler_states(problem, times, h_f, fine_dw, ensemble.X[:, start, :])
    fine_y = [None] * n_fine + [y_models[N]]
    fine_z = [None] * n_fine + [z_models[N]]
    trapezoid = replace(config, scheme=stable_preset(1))
    _backward(problem, trapezoid, times, h_f, fine_x, fine_dw, fine_y, fine_z)
    y_models[start:N] = fine_y[:-1:r]
    z_models[start:N] = fine_z[:-1:r]


def solve(problem: FbsdeProblem, config: SolverConfig,
          ensemble: Optional[PathEnsemble] = None) -> "BackwardSolution | DeterministicSolution":
    """Full backward pass; returns estimates of (Y_0, Z_0) plus all fitted
    per-step models and the Milne local-error indicators."""
    if config.deterministic:
        return deterministic_solve(problem, config)
    if ensemble is None:
        raise ValidationError("stochastic solve needs a path ensemble")
    m, grid = config.scheme.m, config.grid
    N = grid.N
    if (ensemble.grid.N, ensemble.grid.T) != (grid.N, grid.T):
        raise ValidationError("ensemble grid does not match solver grid")
    if ensemble.d != problem.d:
        raise ValidationError("ensemble dimension does not match problem")
    _require_steps(m, N)
    _require_stable(config.scheme, config.allow_unstable, config.stability_tol)

    y_models, z_models = _terminal_slots(problem, N)
    if m >= 2:
        _bootstrap(problem, config, ensemble, y_models, z_models)
    milne = _backward(problem, config, grid.times, grid.h, ensemble.X, ensemble.dW,
                      y_models, z_models)

    x0 = ensemble.X[0, 0]
    y0 = _value(y_models[0], x0)
    z0 = np.asarray(z_models[0].predict(x0[None, :]), dtype=float).reshape(problem.d)
    return BackwardSolution(y0=y0, z0=z0, y_models=y_models, z_models=z_models,
                            milne=milne, config=config)


# -- deterministic (sigma = 0) reduction ---------------------------------------

def _probe_deterministic(problem: FbsdeProblem) -> None:
    """Cheap spot checks that sigma vanishes and the driver ignores z."""
    x = problem.x0[None, :]
    for t in (0.0, problem.T / 2.0, problem.T):
        for shift in (0.0, 1.0):
            sig = np.asarray(problem.sigma(t, x + shift), dtype=float)
            if np.any(sig != 0.0):
                raise ValidationError(
                    "deterministic solve needs sigma = 0, but sigma is not identically zero")
    y = np.array([0.7])
    for t in (0.0, problem.T / 2.0):
        f0 = np.asarray(problem.f(t, x, y, np.zeros((1, problem.d))))
        f1 = np.asarray(problem.f(t, x, y, np.ones((1, problem.d))))
        if not np.allclose(f0, f1, rtol=0.0, atol=0.0):
            raise ValidationError(
                "deterministic solve needs a driver free of z, but the driver depends on z")


def _one_path(problem: FbsdeProblem, grid: GridSpec) -> PathEnsemble:
    """The sigma = 0 path: Euler steps from x0 with zero increments.  Its seed
    keys no draw, because sigma = 0 never refines its increments."""
    return euler_paths(problem, grid, np.zeros((1, grid.N, problem.d)), seed=0)


def _exact_models(problem: FbsdeProblem, times: np.ndarray, x: np.ndarray):
    """Constant models of the closed-form Y and Z at each node (times[i], x[i])."""
    basis = build_basis(problem.d, 0)
    exact = [closed_form_reference(problem, t, xi) for t, xi in zip(times, x)]
    return ([constant_model(y, basis) for y, _ in exact],
            [constant_model(z, basis) for _, z in exact])


def deterministic_solve(problem: FbsdeProblem, config: SolverConfig, *,
                        _perturb_y: float = 0.0) -> DeterministicSolution:
    """The backward kernel on the one sigma = 0 path, with the constant basis.

    Y_{N-1}..Y_{N-m+1} come from the problem's closed form when it has one,
    and otherwise from the stochastic solve's start-up, run on the same path.
    _perturb_y is added to every corrector of the main pass, for
    deterministic_perturbation_deviation.
    """
    _probe_deterministic(problem)
    scheme = config.scheme
    m, grid = scheme.m, config.grid
    N = grid.N
    _require_steps(m, N)
    _require_stable(scheme, config.allow_unstable, config.stability_tol)

    path = _one_path(problem, grid)
    kernel = replace(config, basis_degree=0, deterministic=True)
    y_models, z_models = _terminal_slots(problem, N)
    start = N - m + 1
    if problem.has_closed_form:
        y_models[start:N], z_models[start:N] = _exact_models(
            problem, grid.times[start:N], path.X[0, start:N])
    try:
        # an unstable scheme or a long horizon may overflow; that is reported
        # once, as a non-finite result
        with np.errstate(over="ignore", invalid="ignore"):
            if m >= 2 and not problem.has_closed_form:
                _bootstrap(problem, kernel, path, y_models, z_models)
            milne = _backward(problem, kernel, grid.times, grid.h, path.X, path.dW,
                              y_models, z_models, _perturb_y)
    except NumericalError as err:
        raise NumericalError(f"non-finite y0 from the sigma = 0 recursion: {err}") from None
    y = np.array([_value(y_models[i], path.X[0, i]) for i in range(N + 1)])
    return DeterministicSolution(y=y, milne=milne, y0=float(y[0]), z0=np.zeros(problem.d),
                                 config=kernel)


def milne_local_ratios(problem: FbsdeProblem, scheme: MultistepScheme,
                       grid: GridSpec) -> np.ndarray:
    """Local-error check of the Milne device on a sigma = 0 problem.

    The kernel runs one step from each window of m + 1 nodes whose top m
    slots hold the exact solution, so |u - Y| is the local error; the
    returned ratios |u - Y| / (factor * |Ytilde - Y|) tend to 1 as h -> 0.
    """
    _probe_deterministic(problem)
    if not problem.has_closed_form:
        raise ValidationError("local Milne check needs a closed-form solution")
    m, N = scheme.m, grid.N
    _require_steps(m, N)
    milne_factor(scheme)  # raises DegenerateIndicator when the factor is undefined
    path, times = _one_path(problem, grid), grid.times
    x = path.X[0]
    config = SolverConfig(scheme=scheme, grid=grid, basis_degree=0)
    exact_y, exact_z = _exact_models(problem, times, x)
    ratios = np.empty(N - m + 1)
    for i in range(N - m + 1):
        nodes = slice(i, i + m + 1)
        y_models = [None] + exact_y[i + 1:i + m + 1]
        z_models = [None] + exact_z[i + 1:i + m + 1]
        gap = _backward(problem, config, times[nodes], grid.h, path.X[:, nodes],
                        path.dW[:, i:i + m], y_models, z_models)[0]
        error = abs(_value(exact_y[i], x[i]) - _value(y_models[0], x[i]))
        ratios[i] = error / gap if gap > 0 else np.inf
    return ratios


def deterministic_perturbation_deviation(problem: FbsdeProblem, scheme: MultistepScheme,
                                         grid: GridSpec, delta: float,
                                         allow_unstable: bool = False) -> float:
    """|Y_0 shift| caused by injecting a constant perturbation of size delta
    into every corrector step of the deterministic recursion."""
    base = SolverConfig(scheme=scheme, grid=grid, allow_unstable=allow_unstable)
    clean = deterministic_solve(problem, base)
    noisy = deterministic_solve(problem, base, _perturb_y=delta)
    return abs(noisy.y0 - clean.y0)


def result_to_dict(solution, runtime_sec: float) -> dict:
    """Result document for the CLI: estimates, indicators, the config and the
    runtime.  The Milne indicators are null when the scheme leaves them
    undefined."""
    undefined = math.isnan(_milne_scale(solution.config.scheme))
    return {
        "y0": solution.y0,
        "z0": np.asarray(solution.z0, dtype=float).tolist(),
        "milne": None if undefined else np.asarray(solution.milne, dtype=float).tolist(),
        "config": solution.config.to_dict(),
        "runtime_sec": runtime_sec,
    }
