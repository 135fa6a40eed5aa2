"""Backward predictor-corrector pass over a simulated ensemble.

One kernel, _backward, runs a scheme over a time array, paths and Brownian
increments, from the models at its top m levels down to its first node.  Each
step produces, in order: the z model (derivative weights applied to future
levels against Brownian increments), the explicit predictor model, and the
corrector model whose driver term uses the predicted value.  solve runs the
kernel on the coarse grid; its top levels N-1..N-m+1 come from the same kernel
run with the one-step trapezoidal pair on a bridge-refined fine grid.  Where
every path sits at one point (X_0 = x0 at t = 0, or the one sigma = 0 path),
a level's least-squares fits are sample means, taken without a design.

solve without an ensemble is the sigma = 0 reduction: the same kernel,
start-up included, on one path of zero increments with the constant basis;
each mean is of one row, so the kernel runs the scheme's scalar recursion.
Both kinds of solve run through one sequence, _run, and return one
BackwardSolution.  The Milne local-error check runs the kernel one step at a
time.
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
    _OnePointFit,
    build_basis,
    constant_model,
    truncate,
)
from .schemes import MultistepScheme, milne_factor, scheme_to_dict, stable_preset
from .simulation import (
    GridSpec,
    PathEnsemble,
    RowWorkers,
    _check_budget,
    euler_paths,
    euler_states,
    refine_increments,
)
from .stability import scheme_verdict

BOOTSTRAP_SUBSTEP_CAP = 64


def auto_substeps(m: int, h: float) -> int:
    """Refinement count keeping the one-step bootstrap error at the scheme's
    local order: r = ceil(h^{-(m-1)/2}), capped."""
    if m <= 1:
        return 1
    # h^{-(m-1)/2} reaches the cap where h <= cap^{-2/(m-1)}, a test no tiny h overflows
    if h <= BOOTSTRAP_SUBSTEP_CAP ** (-2.0 / (m - 1)):
        return BOOTSTRAP_SUBSTEP_CAP
    return max(1, min(math.ceil(h ** (-(m - 1) / 2.0)), BOOTSTRAP_SUBSTEP_CAP))


@dataclass(frozen=True)
class SolverConfig:
    """How to solve; whether to sample is set by the ensemble passed to solve."""

    scheme: MultistepScheme
    grid: GridSpec
    basis_degree: int = 2
    y_bound: Optional[float] = None   # None -> problem-supplied bound
    allow_unstable: bool = False
    stability_tol: float = 1e-8

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(scheme=scheme_to_dict(self.scheme),
                   grid={"T": self.grid.T, "N": self.grid.N})
        return out

    def check_design_budget(self, d: int, M: int) -> None:
        """Refuse an M-row regression design of this basis above the budget."""
        _check_budget(M * build_basis(d, self.basis_degree).size, "regression design")


@dataclass
class BackwardSolution:
    y0: float
    z0: np.ndarray
    y_models: list
    z_models: list
    milne: np.ndarray  # indicator per step i = 0..N-m
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


def _check_finite(arr: np.ndarray, what: str, step: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericalError(f"non-finite {what} at step {step}")


def _milne_scale(scheme: MultistepScheme) -> float:
    """The Milne factor as a float; nan where it is undefined or beyond the float range."""
    try:
        return float(milne_factor(scheme))
    except (DegenerateIndicator, OverflowError):
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

    Each level picks one fit: the sample means of _OnePointFit where every
    path sits at one point (M = 1, or a first node at t = 0), else a
    DesignSolver of the level's design.  The design, the fit, both solves and
    the Milne mean run in the calling thread over all M rows.  The work
    between them is row by row, in three phases run on RowWorkers: the
    responses, then the fitted z and predicted y with the corrector
    responses, then the fitted y, the Milne gap and the live driver values.
    Each phase writes its rows of arrays allocated here, so every value is
    the same for any split.
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

    def driver(t: float, x: np.ndarray, y: np.ndarray, z: np.ndarray,
               r0: int = 0, r1: int = M) -> np.ndarray:
        """f at rows r0..r1-1, one value per row (a 0-d value stands for each)."""
        rows = slice(r0, r1)
        value = require_shape(np.asarray(problem.f(t, x[rows], y[rows], z[rows]), dtype=float),
                              "f", (M,), (), rows=(r1 - r0, M))
        return value if value.ndim else np.broadcast_to(value, (r1 - r0,))

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

    def level(i: int, workers: RowWorkers) -> None:
        # one level in a call of its own, so that every array it builds but
        # the live ones is freed before the next level builds its design.
        # Within the level each M-vector is dropped once its last reader is
        # done: on a small basis these vectors, not the design, set the peak
        xi = X[:, i, :]
        design = None if M == 1 or (i == 0 and times[0] == 0.0) else basis.design_matrix(xi)
        # centering the z responses by any fixed function of the current state
        # leaves E_i[. dW^T] unchanged; the one-level-ahead model removes the
        # bulk of the y spread.  Every RegressionModel here was fitted on basis,
        # so its prediction reuses this level's design; at one point it is the
        # one value at the first row.
        ahead = y_models[i + 1]
        proxy = None
        if design is None or not isinstance(ahead, RegressionModel):
            proxy = np.broadcast_to(ahead.predict(xi if design is not None else xi[:1]), (M,))
        # the z and predictor responses are summed straight into one
        # Fortran-ordered right-hand side, which BLAS reads without a copy
        rhs = np.empty((M, d + 1), order="F")

        def responses(r0: int, r1: int) -> None:
            rows = slice(r0, r1)
            rhs[rows] = 0.0
            if proxy is None:
                ahead_y = truncate(design[rows] @ ahead.coefficients, ahead.truncation_bound)
            else:
                ahead_y = proxy[rows]
            s_z, s_pred = rhs[rows, :d], rhs[rows, d]
            dw = dW[rows, i, :]  # W_{i+j} - W_i, as a running sum over j
            for j in range(1, m + 1):
                yj, fj, _ = live[i + j]
                s_z += lam[j - 1] * (yj[rows] - ahead_y)[:, None] * dw
                s_pred += alpha_t[j - 1] * yj[rows] + h * gamma_t[j - 1] * fj[rows]
                if j < m:
                    dw = dw + dW[rows, i + j, :]
            s_z /= h
            _check_finite(s_pred, "predictor response", i)

        workers.run(responses)
        del proxy

        # one point: sample means, no design.  A DesignSolver centers the
        # design in place and fits from it, so a level keeps one M x K array
        solver = _OnePointFit(basis.size) if design is None else DesignSolver(design)
        del design
        coef = solver.solve(rhs)
        del rhs
        z_model = RegressionModel(coef[:, :d], basis, z_bound)
        z_here, y_pred_here = np.empty((M, d)), np.empty(M)
        # z_k(X_k) . dW_k is kept for the levels below only when m > 1
        zdw = np.empty(M) if m > 1 else None
        s_corr = np.empty(M)

        def corrector(r0: int, r1: int) -> None:
            rows = slice(r0, r1)
            z_here[rows] = truncate(solver.fitted(coef[:, :d], rows), z_bound)
            y_pred_here[rows] = truncate(solver.fitted(coef[:, d], rows), y_bound)
            s = s_corr[rows]
            np.multiply(driver(times[i], xi, y_pred_here, z_here, r0, r1), h * gamma0, out=s)
            # subtract the martingale increments sum_k z_k(X_k) dW_k from the
            # corrector responses: zero conditional mean, so every fitted
            # conditional expectation is unchanged while the terminal noise no
            # longer telescopes into Y_0 (without it the Y_0 standard error is
            # std(phi(X_T))/sqrt(M))
            control = np.einsum("md,md->m", z_here[rows], dW[rows, i, :],
                                out=None if zdw is None else zdw[rows])
            for j in range(1, m + 1):
                yj, fj, zdw_j = live[i + j]
                s += alpha[j - 1] * (yj[rows] - control)
                s += h * gamma[j - 1] * fj[rows]
                if j < m:
                    control = control + zdw_j[rows]
            if perturb_y:
                s += perturb_y
            _check_finite(s, "corrector response", i)

        workers.run(corrector)

        y_coef = solver.solve(s_corr)
        del s_corr
        y_model = RegressionModel(y_coef, basis, y_bound)
        y_here = np.empty(M)
        f_here = np.empty(M) if i > 0 else None

        def fit(r0: int, r1: int) -> None:
            rows = slice(r0, r1)
            y_here[rows] = truncate(solver.fitted(y_coef, rows), y_bound)
            # |gap| is written over the predicted y, which nothing reads after
            gap = y_pred_here[rows]
            np.abs(np.subtract(gap, y_here[rows], out=gap), out=gap)
            if f_here is not None:
                f_here[rows] = driver(times[i], xi, y_here, z_here, r0, r1)

        workers.run(fit)
        del solver
        milne[i] = factor * float(np.mean(y_pred_here))
        del y_pred_here
        y_models[i] = y_model
        z_models[i] = z_model
        del live[i + m]
        if i > 0:
            live[i] = (y_here, f_here, zdw)

    with RowWorkers(M) as workers:
        for i in range(n - m, -1, -1):
            level(i, workers)
    return milne


def _bootstrap(problem: FbsdeProblem, config: SolverConfig, ensemble: PathEnsemble,
               y_models: list, z_models: list, refine: bool) -> None:
    """Fill the top coarse levels N-1..N-m+1 of y_models and z_models.

    Runs the one-step trapezoidal pair on a Brownian-bridge refined grid
    (auto_substeps pieces per coarse step) from T down to t_{N-m+1} and keeps
    the models at the coarse nodes.  The fine increments are bridge draws when
    refine is set; the sigma = 0 path has no noise to refine, and passes zeros.
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
    fine_dw = (refine_increments(ensemble, start, r) if refine
               else np.zeros((ensemble.M, n_fine, ensemble.d)))
    fine_x = euler_states(problem, times, h_f, fine_dw, ensemble.X[:, start, :])
    fine_y = [None] * n_fine + [y_models[N]]
    fine_z = [None] * n_fine + [z_models[N]]
    trapezoid = replace(config, scheme=stable_preset(1))
    _backward(problem, trapezoid, times, h_f, fine_x, fine_dw, fine_y, fine_z)
    y_models[start:N] = fine_y[:-1:r]
    z_models[start:N] = fine_z[:-1:r]


def _run(problem: FbsdeProblem, config: SolverConfig, ensemble: Optional[PathEnsemble],
         perturb_y: float = 0.0):
    """The sequence of both kinds of solve: checks, terminal slots, the top
    m - 1 slots, then the main pass with perturb_y added to its correctors
    (nonzero only for deterministic_perturbation_deviation).  Returns the
    ensemble, the y and z models and the Milne indicators.
    ensemble None is the sigma = 0 reduction: its one path is built here, its
    top slots come from the closed form when there is one, its start-up
    refines no noise, and an overflow is reported as a non-finite y0.  Both
    kinds run with overflow silenced: a non-finite response fails _check_finite.
    """
    scheme, grid = config.scheme, config.grid
    m, N = scheme.m, grid.N
    _require_steps(m, N)
    if not config.allow_unstable:
        verdict = scheme_verdict(scheme, tol=config.stability_tol)
        if not verdict.is_stable:
            raise ValidationError(
                f"root condition: scheme {scheme.name or m}-step has verdict "
                f"{verdict.status!r} (offending roots {verdict.offending}); "
                "pass allow_unstable to override")
    sigma0 = ensemble is None
    if sigma0:
        ensemble = _one_path(problem, grid)
    config.check_design_budget(problem.d, ensemble.M)
    y_models, z_models = _terminal_slots(problem, N)
    start = N - m + 1
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if sigma0 and problem.has_closed_form:
                y_models[start:N], z_models[start:N] = _exact_models(
                    problem, grid.times[start:N], ensemble.X[0, start:N])
            elif m >= 2:
                _bootstrap(problem, config, ensemble, y_models, z_models, refine=not sigma0)
            milne = _backward(problem, config, grid.times, grid.h, ensemble.X, ensemble.dW,
                              y_models, z_models, perturb_y)
    except NumericalError as err:
        if not sigma0:
            raise
        raise NumericalError(f"non-finite y0 from the sigma = 0 recursion: {err}") from None
    return ensemble, y_models, z_models, milne


def solve(problem: FbsdeProblem, config: SolverConfig,
          ensemble: Optional[PathEnsemble] = None) -> BackwardSolution:
    """Full backward pass over ensemble; returns estimates of (Y_0, Z_0) plus
    all fitted per-step models and the Milne local-error indicators.

    Without an ensemble it is the sigma = 0 reduction: the declaration is
    spot-checked, then the kernel runs on the one sigma = 0 path with the
    constant basis, which the result's config records.  Its top levels come
    from the closed form when the problem has one, else from the start-up.
    """
    if ensemble is None:
        _probe_deterministic(problem)
        config = replace(config, basis_degree=0)
    elif (ensemble.grid.N, ensemble.grid.T) != (config.grid.N, config.grid.T):
        raise ValidationError("ensemble grid does not match solver grid")
    elif ensemble.d != problem.d:
        raise ValidationError("ensemble dimension does not match problem")
    ensemble, y_models, z_models, milne = _run(problem, config, ensemble)
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
    _check_budget(grid.N * problem.d, "sigma = 0 path")
    return euler_paths(problem, grid, np.zeros((1, grid.N, problem.d)), seed=0)


def _exact_models(problem: FbsdeProblem, times: np.ndarray, x: np.ndarray):
    """Constant models of the closed-form Y and Z at each node (times[i], x[i])."""
    basis = build_basis(problem.d, 0)
    exact = [closed_form_reference(problem, t, xi) for t, xi in zip(times, x)]
    return ([constant_model(y, basis) for y, _ in exact],
            [constant_model(z, basis) for _, z in exact])


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
    if math.isnan(_milne_scale(scheme)):
        raise DegenerateIndicator("the Milne factor is beyond the float range")
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
    _probe_deterministic(problem)
    config = SolverConfig(scheme=scheme, grid=grid, basis_degree=0, allow_unstable=allow_unstable)
    clean, noisy = (_value(_run(problem, config, None, perturb)[1][0], problem.x0)
                    for perturb in (0.0, delta))
    return abs(noisy - clean)


def result_to_dict(solution: BackwardSolution, runtime_sec: float, deterministic: bool) -> dict:
    """Result document for the CLI: estimates, indicators, the config (with
    deterministic, whether the problem declared sigma = 0) and the runtime.
    The Milne indicators are null when the scheme leaves them undefined."""
    undefined = math.isnan(_milne_scale(solution.config.scheme))
    return {
        "y0": solution.y0,
        "z0": np.asarray(solution.z0, dtype=float).tolist(),
        "milne": None if undefined else np.asarray(solution.milne, dtype=float).tolist(),
        "config": {**solution.config.to_dict(), "deterministic": deterministic},
        "runtime_sec": runtime_sec,
    }
