"""Least-squares Monte Carlo regression on total-degree polynomial bases.

Conditional expectations are approximated by projecting sampled responses
onto monomials of the current state, then clamping predictions to an a-priori
bound on the solution (the truncation operator).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .exceptions import BasisTooLarge, DimensionMismatch, EmptySample, ValidationError

DEFAULT_BASIS_CAP = 512
RANK_TOL = 1e-10


@dataclass(frozen=True)
class PolynomialBasis:
    """All monomials of total degree <= degree in d variables, graded lex
    ordered so the constant comes first."""

    d: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.exponents)

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at the rows of x: (M, d) -> (M, K)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.d:
            raise DimensionMismatch(
                f"basis has dimension {self.d}, points have {x.shape[1]}")
        out = np.ones((x.shape[0], self.size))
        # cache integer powers per coordinate; degrees are tiny
        powers = [None] * self.d
        maxdeg = [max(e[k] for e in self.exponents) for k in range(self.d)]
        for k in range(self.d):
            cols = [np.ones(x.shape[0])]
            for _ in range(maxdeg[k]):
                cols.append(cols[-1] * x[:, k])
            powers[k] = cols
        for j, expo in enumerate(self.exponents):
            col = out[:, j]
            for k, e in enumerate(expo):
                if e:
                    col *= powers[k][e]
        return out


def build_basis(d: int, degree: int) -> PolynomialBasis:
    """Enumerate the C(d + degree, degree) monomials of total degree <= degree."""
    if d < 1:
        raise DimensionMismatch("need d >= 1")
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    size = math.comb(d + degree, degree)
    if size > DEFAULT_BASIS_CAP:
        raise BasisTooLarge(f"basis would have {size} functions (cap {DEFAULT_BASIS_CAP})")
    exponents = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), total):
            e = [0] * d
            for k in combo:
                e[k] += 1
            exponents.append(tuple(e))
    return PolynomialBasis(d=d, degree=degree, exponents=tuple(exponents))


def truncate(x, bound: float):
    """Coordinatewise clamp to [-bound, bound]; the identity when bound = inf."""
    if not bound > 0:
        raise ValidationError("truncation bound must be positive (or inf)")
    if math.isinf(bound):
        return np.asarray(x, dtype=float)
    return np.clip(np.asarray(x, dtype=float), -bound, bound)


class DesignSolver:
    """A design matrix prepared once and solved against several response sets.

    Non-constant columns are shifted to zero mean (when an intercept column is
    present to absorb the shift) and scaled to unit RMS; the transform is
    folded back into the returned coefficients.  Solves go through LAPACK's
    column-pivoted QR least squares (gelsy) with rank threshold RANK_TOL
    relative to the leading R diagonal entry, so rank-deficient systems get
    the minimum-norm solution (in the scaled coordinates) and stacked
    response columns share one factorization.
    """

    def __init__(self, features: np.ndarray):
        a = np.asarray(features, dtype=float)
        if a.ndim != 2:
            raise ValueError("features must be a 2-d design matrix")
        if a.shape[0] == 0:
            raise EmptySample("regression needs at least one sample")
        self.n_features = a.shape[1]
        m, k = a.shape
        self.shift = np.zeros(k)
        self.intercept = None
        self._intercept_value = 1.0
        spread = a.max(axis=0) - a.min(axis=0) if m > 1 else np.zeros(k)
        constant = spread == 0
        for j in range(k):
            if constant[j] and a[0, j] != 0:
                self.intercept = j
                self._intercept_value = a[0, j]
                break
        # shifting is only well defined with an intercept column to absorb it
        if self.intercept is not None:
            self.shift = np.where(constant, 0.0, a.mean(axis=0))
        centered = a - self.shift
        rms = np.sqrt(np.mean(centered**2, axis=0))
        self.scale = np.where(rms > 0, rms, 1.0)
        if self.intercept is not None:
            self.scale[self.intercept] = 1.0
        self._a = centered / self.scale
        self.rank: Optional[int] = None  # set by the first solve

    def solve(self, responses: np.ndarray) -> np.ndarray:
        """Least-squares coefficients for one or more response columns."""
        b = np.asarray(responses, dtype=float)
        vector_input = b.ndim == 1
        if vector_input:
            b = b[:, None]
        if b.shape[0] != self._a.shape[0]:
            raise ValueError("responses and features disagree on sample count")
        std_coef, _, rank, _ = scipy.linalg.lstsq(
            self._a, b, cond=RANK_TOL, lapack_driver="gelsy", check_finite=False)
        self.rank = int(rank)
        coef = std_coef / self.scale[:, None]
        if self.intercept is not None:
            coef[self.intercept] -= (self.shift @ coef) / self._intercept_value
        return coef[:, 0] if vector_input else coef


@dataclass
class RegressionModel:
    """A fitted (and truncated) basis expansion.

    coefficients has shape (K,) for a scalar target or (K, r) for a vector
    target; predictions are clamped coordinatewise to the truncation bound.
    """

    coefficients: np.ndarray
    basis: PolynomialBasis
    truncation_bound: float = math.inf

    def predict(self, x: np.ndarray) -> np.ndarray:
        design = self.basis.design_matrix(x)
        return truncate(design @ self.coefficients, self.truncation_bound)


def constant_model(value, basis: PolynomialBasis, bound: float = math.inf) -> RegressionModel:
    """Model predicting a constant scalar or vector, already truncated."""
    value = truncate(np.asarray(value, dtype=float), bound)
    if value.ndim == 0:
        coef = np.zeros(basis.size)
        coef[0] = float(value)
    else:
        coef = np.zeros((basis.size, value.shape[-1]))
        coef[0, :] = value
    return RegressionModel(coefficients=coef, basis=basis, truncation_bound=bound)
