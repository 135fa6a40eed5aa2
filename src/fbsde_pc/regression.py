"""Least-squares Monte Carlo regression on total-degree polynomial bases.

Conditional expectations are approximated by projecting sampled responses
onto monomials of the current state, then clamping predictions to an a-priori
bound on the solution (the truncation operator).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
from scipy.linalg import blas, lapack

from .exceptions import BasisTooLarge, DimensionMismatch, EmptySample, ValidationError

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

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        """Evaluate every monomial at the rows of x: (M, d) -> (M, K).

        The design is Fortran-ordered: each monomial's column is contiguous,
        as the column statistics and BLAS calls of DesignSolver read it.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.d:
            raise DimensionMismatch(
                f"basis has dimension {self.d}, points have {x.shape[1]}")
        # one contiguous row per monomial, transposed on return
        out = np.ones((self.size, x.shape[0]))
        # cache integer powers per coordinate; degrees are tiny
        powers = [None] * self.d
        maxdeg = [max(e[k] for e in self.exponents) for k in range(self.d)]
        for k in range(self.d):
            cols = [np.ones(x.shape[0])]
            for _ in range(maxdeg[k]):
                cols.append(cols[-1] * x[:, k])
            powers[k] = cols
        for j, expo in enumerate(self.exponents):
            row = out[j]
            for k, e in enumerate(expo):
                if e:
                    row *= powers[k][e]
        return out.T


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


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS bundled with numpy
    (ILP64, symbols suffixed 64_) or scipy and loaded in this process; empty
    when neither wheel bundles one.  Looked up on first use, not at import."""
    controls = []
    for module in (np, scipy):
        libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue  # bundled but not loaded
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                if get_threads is not None and set_threads is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    controls.append((get_threads, set_threads))
                    break
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread and give each
    copy back its previous thread count on exit, also on an exception.

    numpy and scipy each bundle an OpenBLAS with its own thread pool.  The
    solver alternates between them on tall, narrow designs, where the two
    pools mostly compete for the same cores; one thread each is faster and
    gives the same results.  The count is process-wide, so solves running in
    concurrent threads of one process would see each other's setting.
    """
    controls = _openblas_thread_controls()
    previous = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


class DesignSolver:
    """A design matrix factored once and solved against several response sets.

    Non-constant columns are shifted to zero mean (when an intercept column is
    present to absorb the shift) and scaled to unit RMS; the transform is
    folded back into the returned coefficients.  The standardized design A
    has its Gram matrix A^T A formed and Cholesky-factored once.  When A has
    at least as many rows as columns, the factorization succeeds and its
    condition estimate clears CHOLESKY_RCOND_MIN, each solve is A^T b and two
    triangular solves with the factor.  Any other design is solved by
    LAPACK's pivoted-QR least squares (gelsy) with rank threshold RANK_TOL
    relative to the leading R diagonal entry, so rank-deficient systems get
    the minimum-norm solution in the scaled coordinates.  rank is known from
    construction on.
    """

    def __init__(self, features: np.ndarray):
        a = np.asarray(features, dtype=float)
        if a.ndim != 2:
            raise ValueError("features must be a 2-d design matrix")
        if a.shape[0] == 0:
            raise EmptySample("regression needs at least one sample")
        m, k = a.shape
        self.n_samples, self.n_features = m, k
        self.shift = np.zeros(k)
        self.intercept = None
        self._intercept_value = 1.0
        # the one standardized copy, Fortran-ordered so that every column
        # statistic runs down contiguous memory and BLAS reads it untransposed;
        # np.array always copies, so the caller's design is never overwritten
        std = np.array(a, order="F")
        spread = std.max(axis=0) - std.min(axis=0) if m > 1 else np.zeros(k)
        constant = spread == 0
        for j in range(k):
            if constant[j] and std[0, j] != 0:
                self.intercept = j
                self._intercept_value = std[0, j]
                break
        # shifting is only well defined with an intercept column to absorb it
        if self.intercept is not None:
            self.shift = np.where(constant, 0.0, std.mean(axis=0))
            std -= self.shift
        rms = np.sqrt(np.einsum("ij,ij->j", std, std) / m)
        self.scale = np.where(rms > 0, rms, 1.0)
        if self.intercept is not None:
            self.scale[self.intercept] = 1.0
        std /= self.scale
        self._std = self._cholesky = self._features = None
        if m >= k:
            # upper triangles of A^T A and of its factor R, R^T R = A^T A
            cholesky, info = lapack.dpotrf(blas.dsyrk(1.0, std, trans=1), overwrite_a=True)
            if info == 0 and lapack.dtrcon(cholesky)[0] >= CHOLESKY_RCOND_MIN:
                self._std, self._cholesky = std, cholesky
                self.rank = k
                return
        # gelsy decides the rank; it standardizes the caller's features again
        # for each solve, so that no second M x K copy is kept
        self._features = a
        self.rank = self._gelsy(np.zeros(m))[1]

    def _gelsy(self, b: np.ndarray) -> tuple[np.ndarray, int]:
        std = (self._features - self.shift) / self.scale
        std_coef, _, rank, _ = scipy.linalg.lstsq(
            std, b, cond=RANK_TOL, lapack_driver="gelsy", check_finite=False)
        return std_coef, int(rank)

    def solve(self, responses: np.ndarray) -> np.ndarray:
        """Least-squares coefficients for one or more response columns."""
        b = np.asarray(responses, dtype=float)
        vector_input = b.ndim == 1
        if vector_input:
            b = b[:, None]
        if b.shape[0] != self.n_samples:
            raise ValueError("responses and features disagree on sample count")
        if self._cholesky is None:
            std_coef = self._gelsy(b)[0]
        else:
            std_coef, _ = lapack.dpotrs(
                self._cholesky, blas.dgemm(1.0, self._std, b, trans_a=True), overwrite_b=True)
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
