"""Least-squares Monte Carlo regression on total-degree polynomial bases.

Conditional expectations are approximated by projecting sampled responses
onto monomials of the current state, then clamping predictions to an a-priori
bound on the solution (the truncation operator).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .exceptions import ValidationError

DEFAULT_BASIS_CAP = 512
RANK_TOL = 1e-10
# Smallest 1-norm reciprocal condition estimate of the Cholesky factor R of a
# standardized design's Gram matrix A^T A for which the design is solved from
# the normal equations instead of by gelsy.  R^T R = A^T A, so cond_2(R) =
# cond_2(A) <= K cond_1(R); dtrcon's estimate of ||R^-1||_1 is attained by a
# vector, so it can fall short of the true norm (in practice by less than 10)
# but never exceed it.  Above the threshold cond_2(A) is thus below about
# 1e4 K.  gelsy's incremental condition estimate of every leading block of its
# R is at least 1/cond_2(A), far above RANK_TOL for K <= DEFAULT_BASIS_CAP, so
# gelsy would find full rank too and the minimum-norm rule never applies.
# Forming A^T A squares the condition number (Higham, Accuracy and Stability
# of Numerical Algorithms, ch. 20): the coefficients differ from gelsy's by a
# relative error of order eps cond_2(A)^2, about 1e-10 for cond_2(A) near 1e3
# at the threshold and 1e-13 on the acceptance-size designs (K = 28,
# cond_2(A) about 20, factor estimate above 4e-3).
CHOLESKY_RCOND_MIN = 1e-3


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

    @functools.cached_property
    def _recipe(self) -> tuple:
        """(row, k) of each x_k and (row, parent, factor) of every monomial
        of higher degree, whose column design_matrix forms as parent's times
        factor's: x_k^e as x_k^(e-1) times x_k, any other as its exponents
        with the last nonzero one zeroed times that power of x_k.  So each
        monomial is the powers of x_1, x_2, ... multiplied left to right,
        each power a running product."""
        row = {e: j for j, e in enumerate(self.exponents)}
        linear, products = [], []
        for j, expo in enumerate(self.exponents[1:], 1):
            k = max(i for i, e in enumerate(expo) if e)
            head, e, tail = expo[:k], expo[k], expo[k + 1:]
            if any(head):
                products.append((j, row[head + (0,) + tail], row[(0,) * k + (e,) + tail]))
            elif e > 1:
                products.append((j, row[head + (e - 1,) + tail], row[head + (1,) + tail]))
            else:
                linear.append((j, k))
        return tuple(linear), tuple(products)

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at the rows of x: (M, d) -> (M, K).

        The design is Fortran-ordered: each monomial's column is contiguous,
        as the column statistics and BLAS calls of DesignSolver read it.
        Each column above degree one is one multiply of two earlier ones
        (see _recipe).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.d:
            raise ValidationError(
                f"basis has dimension {self.d}, points have {x.shape[1]}")
        # one contiguous row per monomial, transposed on return
        out = np.empty((self.size, x.shape[0]))
        out[0] = 1.0
        linear, products = self._recipe
        for j, k in linear:
            out[j] = x[:, k]
        for j, parent, factor in products:
            np.multiply(out[parent], out[factor], out=out[j])
        return out.T


def build_basis(d: int, degree: int) -> PolynomialBasis:
    """Enumerate the C(d + degree, degree) monomials of total degree <= degree."""
    if d < 1:
        raise ValidationError("need d >= 1")
    if degree < 0:
        raise ValidationError("degree must be >= 0")
    size = math.comb(d + degree, degree)
    if size > DEFAULT_BASIS_CAP:
        raise ValidationError(f"basis would have {size} functions (cap {DEFAULT_BASIS_CAP})")
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
    """A polynomial design factored once and solved against several response
    sets.

    The design is one that PolynomialBasis.design_matrix writes: column 0 is
    the constant 1 and carries the intercept; any other first column is
    refused.  Every other column is shifted to zero mean and scaled to unit
    RMS, and the transform is folded back into the returned coefficients.
    Only the shift is applied to the M x K design, which becomes the
    centered matrix C the solver keeps: a writable float64 array that numpy
    flags Fortran-contiguous is centered in place, so the caller's array
    holds C afterwards (column 0 stays 1).  A single-row design is flagged
    Fortran-contiguous in either order, so it is always overwritten, and
    becomes [1, 0, ..., 0].  Any other design is first converted into a new
    Fortran-ordered array.  The Gram matrix C^T C gives each column's RMS on
    its diagonal, and the scaling D is applied to that K x K matrix, giving
    the Gram matrix A^T A of the standardized design A = C D^-1,
    Cholesky-factored once.
    When A has at least as many rows as columns, the factorization succeeds
    and its condition estimate clears CHOLESKY_RCOND_MIN, each solve is
    A^T b = D^-1 C^T b and two triangular solves with the factor.  Any other
    design is solved by LAPACK's pivoted-QR least squares (gelsy) on A with
    rank threshold RANK_TOL relative to the leading R diagonal entry, so
    rank-deficient systems get the minimum-norm solution in the scaled
    coordinates.  rank is known from construction on the Cholesky path;
    on the gelsy path it is None until the first solve sets it, since gelsy
    reads it off the factorization of A alone.  fitted gives
    features @ coef from C alone, so a caller need not keep its design; one
    that reads the design again hands the solver a copy.
    """

    def __init__(self, features: np.ndarray):
        a = np.asarray(features, dtype=float)
        if a.ndim != 2:
            raise ValueError("features must be a 2-d design matrix")
        if a.shape[0] == 0:
            raise ValidationError("regression needs at least one sample")
        if a.shape[1] == 0 or not np.all(a[:, 0] == 1.0):
            raise ValueError("column 0 of the design must be the constant 1")
        m, k = a.shape
        # C, Fortran-ordered so that BLAS reads it untransposed, is the
        # design centered in place, so a level holds one M x K array; any
        # other layout, dtype or a read-only design is converted first.  The
        # mean is taken down contiguous columns, and column 0 has shift 0
        centered = np.require(a, requirements=("F", "W"))
        self.shift = centered.mean(axis=0)
        self.shift[0] = 0.0
        np.subtract(centered, self.shift, out=centered)
        # upper triangle of C^T C, then of A^T A = D^-1 C^T C D^-1.  A
        # constant column centers to its mean's rounding error, a few ulps of
        # its value; scaled by 1, not by that RMS, it stays below gelsy's rank
        # threshold and gets a negligible coefficient
        gram = blas.dsyrk(1.0, centered, trans=1)
        rms = np.sqrt(np.diag(gram) / m)
        self.scale = np.where(rms > RANK_TOL * np.abs(self.shift), rms, 1.0)
        self.scale[0] = 1.0
        gram /= self.scale
        gram /= self.scale[:, None]
        self._centered, self._cholesky = centered, None
        if m >= k:
            # upper triangle of the factor R, R^T R = A^T A, over the Gram matrix
            gram, info = lapack.dpotrf(gram, overwrite_a=True)
            if info == 0 and lapack.dtrcon(gram)[0] >= CHOLESKY_RCOND_MIN:
                self._cholesky, self.rank = gram, k
                return
        # gelsy decides the rank at each solve, once the K x K matrix is dropped
        del gram
        self.rank = None

    def _gelsy(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        # A is formed from C for each solve, so that no second M x K array
        # outlives it, and gelsy overwrites it in place.  The right-hand side
        # is copied into K rows at least, the rows of the solution.  The
        # workspace is the size gelsy asks for, as scipy.linalg.lstsq takes it
        m, k = self._centered.shape
        a = np.divide(self._centered, self.scale, order="F")
        rhs = np.zeros((max(m, k), b.shape[1]), order="F")
        rhs[:m] = b
        work, _ = lapack.dgelsy_lwork(m, k, b.shape[1], RANK_TOL)
        _, x, _, rank, info = lapack.dgelsy(
            a, rhs, np.zeros(k, dtype=np.int32), RANK_TOL, int(work),
            overwrite_a=True, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of gelsy")
        return x[:k], int(rank)

    def solve(self, responses: np.ndarray) -> np.ndarray:
        """Least-squares coefficients for one or more response columns."""
        b = np.asarray(responses, dtype=float)
        vector_input = b.ndim == 1
        if vector_input:
            b = b[:, None]
        if b.shape[0] != self._centered.shape[0]:
            raise ValueError("responses and features disagree on sample count")
        if self._cholesky is None:
            std_coef, self.rank = self._gelsy(b)
        else:
            rhs = blas.dgemm(1.0, self._centered, b, trans_a=True)
            rhs /= self.scale[:, None]
            std_coef, _ = lapack.dpotrs(self._cholesky, rhs, overwrite_b=True)
        coef = std_coef / self.scale[:, None]
        coef[0] -= self.shift @ coef
        return coef[:, 0] if vector_input else coef

    def fitted(self, coef: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """features @ coef at the given rows, for coefficients of shape (K,)
        or (K, r), from the centered design C: features = C + 1 shift^T."""
        out = self._centered[rows] @ coef
        out += self.shift @ coef
        return out


class _OnePointFit:
    """DesignSolver's fit where every row sits at one point: the projection on
    the basis is then the sample mean, carried by the constant column."""

    def __init__(self, size: int):
        self.size = size

    def solve(self, responses: np.ndarray) -> np.ndarray:
        """Coefficients (K, ...): each response column's mean, zeros below."""
        coef = np.zeros((self.size,) + np.shape(responses)[1:])
        coef[0] = np.mean(responses, axis=0)
        return coef

    def fitted(self, coef: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        return coef[0]


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

