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
# Smallest 1-norm reciprocal condition estimate of R for which a design is
# solved from its own pivoted QR instead of by gelsy.  gelsy counts a design
# as full rank when, for every leading block R_i of R, its incremental
# condition estimate smin/smax exceeds RANK_TOL.  That estimate's smin is
# attained by a unit vector, so it is >= sigma_min(R_i) >= sigma_min(R), and
# its smax is <= sigma_max(R_i) <= sigma_max(R); the ratio is therefore at
# least 1/cond_2(R).  On the other side cond_2(R) <= K cond_1(R), and dtrcon's
# estimate of ||R^-1||_1 is attained by a vector, so it can fall short of the
# true norm but never exceed it.  The margin of 1e6 over RANK_TOL covers
# K <= DEFAULT_BASIS_CAP = 512 with a further factor of about 2000 for that
# shortfall (in practice it stays below 10), so a design above this threshold
# is one gelsy would also solve at full rank, by the same QR.
QR_RCOND_MIN = 1e6 * RANK_TOL


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
    folded back into the returned coefficients.  The standardized design is
    factored once, in place, by column-pivoted QR (geqp3).  When it has at
    least as many rows as columns and R's condition estimate clears
    QR_RCOND_MIN, each solve applies Q^T and back-substitutes with R.  Any
    other design is solved by LAPACK's pivoted-QR least squares (gelsy) with
    rank threshold RANK_TOL relative to the leading R diagonal entry, so
    rank-deficient systems get the minimum-norm solution in the scaled
    coordinates.  rank is known from construction on.
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
        # statistic runs down contiguous memory and geqp3 factors it in place;
        # np.array always copies, so the caller's design is never overwritten
        qr = np.array(a, order="F")
        spread = qr.max(axis=0) - qr.min(axis=0) if m > 1 else np.zeros(k)
        constant = spread == 0
        for j in range(k):
            if constant[j] and qr[0, j] != 0:
                self.intercept = j
                self._intercept_value = qr[0, j]
                break
        # shifting is only well defined with an intercept column to absorb it
        if self.intercept is not None:
            self.shift = np.where(constant, 0.0, qr.mean(axis=0))
            qr -= self.shift
        rms = np.sqrt(np.einsum("ij,ij->j", qr, qr) / m)
        self.scale = np.where(rms > 0, rms, 1.0)
        if self.intercept is not None:
            self.scale[self.intercept] = 1.0
        qr /= self.scale
        self._qr = self._features = None
        if m >= k:
            lwork = int(lapack.dgeqp3(qr, lwork=-1, overwrite_a=True)[3][0])
            qr, pivots, tau, _, _ = lapack.dgeqp3(qr, lwork=lwork, overwrite_a=True)
            r = np.asfortranarray(qr[:k])
            rcond, _ = lapack.dtrcon(r)
            if rcond >= QR_RCOND_MIN:
                self._qr, self._tau, self._r, self._order = qr, tau, r, pivots - 1
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
        if self._qr is None:
            std_coef = self._gelsy(b)[0]
        else:
            # ormqr gets the workspace gelsy would leave it, which decides
            # whether Q^T is applied in blocks
            m, k = self._qr.shape
            lwork = int(lapack.dgelsy_lwork(m, k, b.shape[1], RANK_TOL)[0]) - 2 * k
            qtb, _, _ = lapack.dormqr("L", "T", self._qr, self._tau, b, lwork)
            # trsm, as inside gelsy (trtrs takes another kernel for one column),
            # and Fortran order, as gelsy returns it, so that shift @ coef
            # below sums in the same order: the result is gelsy's, bit for bit
            std_coef = np.empty((self.rank, b.shape[1]), order="F")
            std_coef[self._order] = blas.dtrsm(1.0, self._r, qtb[:self.rank])
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
