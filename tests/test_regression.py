"""Polynomial bases, OLS fitting (including rank-deficient min-norm) and the
truncation operator."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsde_pc import (
    GridSpec,
    ValidationError,
    build_basis,
    sample_ensemble,
    truncate,
)
from fbsde_pc.problems import example1
from fbsde_pc.regression import (
    CHOLESKY_RCOND_MIN,
    RANK_TOL,
    DesignSolver,
    RegressionModel,
    _OnePointFit,
    constant_model,
)


class TestBuildBasis:
    def test_bivariate_quadratic(self):
        basis = build_basis(2, 2)
        assert basis.size == 6
        assert basis.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_constant_only(self):
        basis = build_basis(1, 0)
        assert basis.exponents == ((0,),)

    def test_trivariate_quadratic_size(self):
        assert build_basis(3, 2).size == 10

    def test_cap(self):
        with pytest.raises(ValidationError, match="basis would have 3003 functions"):
            build_basis(10, 5)  # C(15, 5) = 3003 functions, past the cap of 512

    def test_design_matrix_values(self):
        basis = build_basis(2, 2)
        x = np.array([[2.0, 3.0]])
        row = basis.design_matrix(x)[0]
        assert row.tolist() == [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]

    @staticmethod
    def left_to_right_design(basis, x):
        """Each column as ones times the powers of x_1, x_2, ... taken left to
        right, each power a running product of its coordinate."""
        want = np.empty((x.shape[0], basis.size))
        for j, expo in enumerate(basis.exponents):
            col = np.ones(x.shape[0])
            for k, e in enumerate(expo):
                power = np.ones(x.shape[0])
                for _ in range(e):
                    power = power * x[:, k]
                col = col * power
            want[:, j] = col
        return want

    def test_design_matrix_is_fortran_ordered(self):
        basis = build_basis(2, 4)
        x = np.random.default_rng(7).standard_normal((50, 2))
        design = basis.design_matrix(x)
        assert design.shape == (50, basis.size)
        assert design.flags.f_contiguous
        assert np.array_equal(design, self.left_to_right_design(basis, x))
        coef = np.random.default_rng(8).standard_normal((basis.size, 2))
        model = RegressionModel(coef, basis, 1.0)
        assert np.array_equal(model.predict(x), np.clip(design @ coef, -1.0, 1.0))

    @pytest.mark.parametrize("degree", range(7))
    @pytest.mark.parametrize("d", range(1, 5))
    def test_design_matrix_multiplies_left_to_right(self, d, degree):
        basis = build_basis(d, degree)
        x = 3.0 * np.random.default_rng(10 * d + degree).standard_normal((40, d))
        want = self.left_to_right_design(basis, x)
        assert np.array_equal(basis.design_matrix(x), want)
        # a second call reuses the basis's cached recipe
        assert np.array_equal(basis.design_matrix(x[:7]), want[:7])

    def test_design_matrix_dimension_check(self):
        basis = build_basis(2, 2)
        with pytest.raises(ValidationError, match="basis has dimension 2, points have 3"):
            basis.design_matrix(np.zeros((4, 3)))


class TestOlsFit:
    def test_exact_quadratic_zero_residual(self):
        rng = np.random.default_rng(0)
        basis = build_basis(2, 2)
        x = rng.standard_normal((400, 2))
        design = basis.design_matrix(x)
        coef_true = np.array([0.5, -1.0, 2.0, 0.25, 1.5, -0.75])
        y = design @ coef_true
        coef = DesignSolver(design.copy()).solve(y)
        rss = float(np.sum((design @ coef - y) ** 2))
        assert rss <= 1e-10 * float(np.sum(y**2))

    def test_constant_responses(self):
        basis = build_basis(2, 2)
        x = np.random.default_rng(1).standard_normal((100, 2))
        coef = DesignSolver(basis.design_matrix(x)).solve(np.full(100, 3.25))
        assert coef[0] == pytest.approx(3.25, abs=1e-12)
        assert np.all(np.abs(coef[1:]) < 1e-12)

    def test_duplicated_column_gets_pseudoinverse_solution(self):
        # A has identical columns after its ones column; the minimum-norm
        # solution splits the pinv weight evenly: A+ y = (0, 1/2, 1/2) for y
        # = the duplicated column
        col = np.array([1.0, 2.0, 3.0])
        design = np.column_stack([np.ones(3), col, col])
        expected = np.linalg.pinv(design) @ col
        coef = DesignSolver(design).solve(col)
        assert coef == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx([0.0, 0.5, 0.5], abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(ValidationError, match="at least one sample"):
            DesignSolver(np.zeros((0, 2))).solve(np.zeros(0))

    def test_vector_target_matches_columnwise_fits(self):
        rng = np.random.default_rng(5)
        basis = build_basis(2, 2)
        x = rng.standard_normal((200, 2))
        design = basis.design_matrix(x)
        y = rng.standard_normal((200, 3))
        joint = DesignSolver(design.copy()).solve(y)
        for k in range(3):
            single = DesignSolver(design.copy()).solve(y[:, k])
            assert joint[:, k] == pytest.approx(single)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(9)
        basis = build_basis(3, 2)
        x = rng.standard_normal((500, 3))
        design = basis.design_matrix(x)
        y = rng.standard_normal(500)
        residual = y - design @ DesignSolver(design.copy()).solve(y)
        for k in range(design.shape[1]):
            dot = abs(float(residual @ design[:, k]))
            assert dot <= 1e-8 * np.linalg.norm(residual) * np.linalg.norm(design[:, k]) + 1e-12

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(13)
        basis = build_basis(2, 2)
        x = rng.standard_normal((150, 2))
        design = basis.design_matrix(x)
        y = rng.standard_normal(150)
        base = DesignSolver(design.copy()).solve(y)
        scaled = DesignSolver(design.copy()).solve(7.5 * y)
        assert scaled == pytest.approx(7.5 * base, rel=1e-10)

    def test_consistency_as_samples_grow(self):
        basis = build_basis(1, 2)
        coef_true = np.array([1.0, -2.0, 0.5])
        medians = []
        for M in (100, 1000, 10000):
            errs = []
            for seed in range(20):
                rng = np.random.default_rng(seed)
                x = rng.standard_normal((M, 1))
                design = basis.design_matrix(x)
                y = design @ coef_true + 0.5 * rng.standard_normal(M)
                fit = DesignSolver(design).solve(y)
                errs.append(np.linalg.norm(fit - coef_true))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]


class TestTruncate:
    def test_clamp(self):
        assert truncate(np.array([3.0, -5.0]), 2.0).tolist() == [2.0, -2.0]

    def test_identity_below_bound(self):
        x = np.array([0.5, -1.25])
        assert truncate(x, 2.0).tolist() == x.tolist()

    def test_infinite_bound_is_identity(self):
        x = np.array([1e12, -1e12])
        assert truncate(x, math.inf).tolist() == x.tolist()

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(0.1, 1e5))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, bound):
        x = np.array(values)
        once = truncate(x, bound)
        assert truncate(once, bound).tolist() == once.tolist()

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            truncate(np.array([1.0]), 0.0)


class TestPredict:
    def test_constant_coefficients(self):
        basis = build_basis(2, 2)
        model = RegressionModel(np.array([4.0, 0, 0, 0, 0, 0]), basis, 10.0)
        out = model.predict(np.random.default_rng(2).standard_normal((5, 2)))
        assert out == pytest.approx(np.full(5, 4.0))

    def test_linear_fit_recovers_values(self):
        rng = np.random.default_rng(3)
        basis = build_basis(2, 1)
        x = rng.standard_normal((100, 2))
        y = 1.0 + 2.0 * x[:, 0] - 3.0 * x[:, 1]
        model = RegressionModel(DesignSolver(basis.design_matrix(x)).solve(y), basis)
        probe = rng.standard_normal((10, 2))
        want = 1.0 + 2.0 * probe[:, 0] - 3.0 * probe[:, 1]
        assert model.predict(probe) == pytest.approx(want, abs=1e-10)

    def test_truncation_applies(self):
        basis = build_basis(1, 0)
        model = RegressionModel(np.array([10.0]), basis, 1.0)
        assert model.predict(np.zeros((3, 1))).tolist() == [1.0, 1.0, 1.0]

    def test_dimension_mismatch(self):
        basis = build_basis(2, 1)
        model = RegressionModel(np.zeros(3), basis, math.inf)
        with pytest.raises(ValidationError, match="basis has dimension 2, points have 3"):
            model.predict(np.zeros((4, 3)))


class TestDesignSolver:
    @pytest.mark.parametrize("shape", [(40,), (2, 40, 3)], ids=["1-d", "3-d"])
    def test_design_must_be_2d(self, shape):
        with pytest.raises(ValueError, match="features must be a 2-d design matrix"):
            DesignSolver(np.ones(shape))

    @pytest.mark.parametrize("shape", [(300, 6), (20, 28)], ids=["cholesky", "gelsy"])
    def test_response_rows_must_match_design(self, shape):
        m, k = shape
        design = build_basis(2, 6).design_matrix(
            np.random.default_rng(7).standard_normal((m, 2)))[:, :k]
        solver = DesignSolver(design)
        for responses in (np.zeros(m + 1), np.zeros((m - 1, 2))):
            with pytest.raises(ValueError, match="responses and features disagree"):
                solver.solve(responses)

    def test_factorization_reused_across_responses(self):
        rng = np.random.default_rng(21)
        design = np.column_stack([np.ones(60), rng.standard_normal((60, 4))])
        solver = DesignSolver(design)
        y1 = rng.standard_normal(60)
        y2 = rng.standard_normal(60)
        stacked = solver.solve(np.column_stack([y1, y2]))
        assert stacked[:, 0] == pytest.approx(solver.solve(y1))
        assert stacked[:, 1] == pytest.approx(solver.solve(y2))

    def test_point_mass_design_degrades_gracefully(self):
        basis = build_basis(2, 2)
        x = np.zeros((50, 2))
        design = basis.design_matrix(x)
        coef = DesignSolver(design.copy()).solve(np.full(50, 2.5))
        assert (design @ coef)[0] == pytest.approx(2.5)
        # on 50 copies of one state the least-squares fit is the sample mean,
        # as the one-point fit gives it
        design = basis.design_matrix(np.tile([0.7, -1.3], (50, 1)))
        y = np.random.default_rng(4).standard_normal((50, 3))
        one_point = _OnePointFit(basis.size)
        np.testing.assert_allclose(design @ DesignSolver(design.copy()).solve(y),
                                   np.broadcast_to(one_point.fitted(one_point.solve(y)), (50, 3)),
                                   rtol=1e-12)

    def test_constant_model(self):
        basis = build_basis(2, 2)
        model = constant_model(np.array([3.0, -9.0]), basis, bound=5.0)
        out = model.predict(np.ones((4, 2)))
        assert out[0].tolist() == [3.0, -5.0]

    @staticmethod
    def full_scan_standardization(design):
        """(shift, scale) by the ones-first rule, with constant columns found
        by a full scan: column 0 is the intercept, with shift 0 and scale 1;
        every other column is shifted by its mean and scaled by the RMS of
        the centered column, or by 1 when the column is constant (max - min
        is 0, as for every column of a single row) or that RMS is not
        positive."""
        std = np.array(design, dtype=float, order="F")
        constant = std.max(axis=0) - std.min(axis=0) == 0
        shift = std.mean(axis=0)
        shift[0] = 0.0
        std -= shift
        rms = np.sqrt(np.einsum("ij,ij->j", std, std) / std.shape[0])
        scale = np.where(constant | ~(rms > 0), 1.0, rms)
        scale[0] = 1.0
        return shift, scale

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", ["constant-at-0", "constant-at-2", "all-zero",
                                      "ends-match", "single-row", "plus-inf"])
    def test_standardization_matches_full_scan(self, case, order):
        rng = np.random.default_rng(53)
        design = rng.standard_normal((200, 5)) * [1.0, 2.0, 0.5, 3.0, 1.5] + 0.7
        design[:, 0] = 1.0
        if case == "constant-at-2":
            # a constant besides the intercept centers to rounding error
            design[:, 2] = -3.5
        elif case == "all-zero":
            design[:, 1] = 0.0
        elif case == "ends-match":
            design[-1, 3] = design[0, 3]
        elif case == "plus-inf":
            design[:, 2] = np.inf
        elif case == "single-row":
            design = np.array([[1.0, 0.0, -3.0, 5.0]])
        design = np.asarray(design, order=order)
        with np.errstate(invalid="ignore"):  # inf - inf in the column of +inf
            shift, scale = self.full_scan_standardization(design)
            solver = DesignSolver(design)
        np.testing.assert_allclose(solver.shift, shift, rtol=1e-14, atol=0)
        np.testing.assert_allclose(solver.scale, scale, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("first", ["zero", "two", "random"])
    def test_design_without_ones_column_refused(self, first):
        rng = np.random.default_rng(59)
        design = build_basis(2, 2).design_matrix(rng.standard_normal((40, 2)))
        design[:, 0] = {"zero": 0.0, "two": 2.0, "random": rng.standard_normal(40)}[first]
        with pytest.raises(ValueError, match="column 0 of the design must be the constant 1"):
            DesignSolver(design)

    @pytest.mark.parametrize("shape", [(300, 6), (20, 28)], ids=["cholesky", "gelsy"])
    def test_fortran_design_centered_in_place(self, shape):
        # a writable float64 Fortran-ordered design becomes the solver's
        # centered matrix C, so no second M x K array is made; a design of
        # any other layout, or a read-only one, is converted into a new array
        # first and left as it was.  The centering is the same subtraction
        # either way, so every solver gives the same bits
        rng = np.random.default_rng(17)
        m, k = shape
        f_design = build_basis(2, 6).design_matrix(rng.standard_normal((m, 2)))[:, :k]
        assert f_design.flags.f_contiguous and not f_design.flags.c_contiguous
        c_design = np.ascontiguousarray(f_design)
        read_only = f_design.copy(order="F")
        read_only.flags.writeable = False
        kept = c_design.tobytes()
        b = rng.standard_normal((m, 2))
        f_solver = DesignSolver(f_design)
        assert np.shares_memory(f_design, f_solver._centered)
        assert np.all(f_design[:, 0] == 1.0)
        assert np.array_equal(f_design, c_design - f_solver.shift)
        centered = f_design.tobytes(order="A")
        coefs, fits = [], []
        for solver, design in ((f_solver, f_design), (DesignSolver(c_design), c_design),
                               (DesignSolver(read_only), read_only)):
            coefs.append(solver.solve(b))
            fits.append(solver.fitted(coefs[-1]))
        assert f_design.tobytes(order="A") == centered
        assert c_design.tobytes() == kept and read_only.tobytes() == kept
        for coef, fit in zip(coefs[1:], fits[1:]):
            assert np.array_equal(coef, coefs[0])
            assert np.array_equal(fit, fits[0])

    def test_single_row_design_centered_in_place(self):
        # numpy flags a 1 x K array Fortran-contiguous whatever its order, so
        # even a C-ordered row is the solver's C: each column's mean is its
        # one entry, and the row becomes [1, 0, ..., 0]
        row = np.array([[1.0, 0.5, -2.0, 3.0]])
        assert row.flags.c_contiguous and row.flags.f_contiguous
        solver = DesignSolver(row)
        assert np.shares_memory(row, solver._centered)
        assert row.tobytes() == np.array([[1.0, 0.0, 0.0, 0.0]]).tobytes()
        assert solver.shift.tolist() == [0.0, 0.5, -2.0, 3.0]

    # -- factored once: the Cholesky path and the gelsy fallback ------------------

    @staticmethod
    def gelsy_reference(design, b):
        """(coefficients, rank) of one gelsy call on the design standardized
        by DesignSolver's shift and scale, the transform folded back: what
        DesignSolver returned before it factored each design once.  b holds
        one response per column."""
        solver = DesignSolver(design.copy())
        std = (design - solver.shift) / solver.scale
        std_coef, _, rank, _ = scipy.linalg.lstsq(
            std, b, cond=RANK_TOL, lapack_driver="gelsy", check_finite=False)
        coef = std_coef / solver.scale[:, None]
        coef[0] -= solver.shift @ coef
        return coef, rank

    @pytest.fixture
    def gelsy_calls(self, monkeypatch):
        calls = []
        dgelsy = lapack.dgelsy

        def counting(*args, **kwargs):
            calls.append("gelsy")
            return dgelsy(*args, **kwargs)

        monkeypatch.setattr(lapack, "dgelsy", counting)
        return calls

    @staticmethod
    def example1_states():
        """example1's states at the middle of the acceptance grid (d = 2)."""
        problem = example1(eta=0.6, tau=1.0 / math.sqrt(2.0), d=2)
        grid = GridSpec(T=problem.T, N=20)
        return sample_ensemble(problem, grid, 3000, seed=5).X[:, 10, :]

    @classmethod
    def example1_design(cls):
        """Degree-6 design (K = 28) of example1_states, standardized column by
        column."""
        design = build_basis(2, 6).design_matrix(cls.example1_states())
        design[:, 1:] -= design[:, 1:].mean(axis=0)
        design[:, 1:] /= np.sqrt(np.mean(design[:, 1:] ** 2, axis=0))
        return design

    @pytest.mark.parametrize("shape", [(60, 4), (500, 10), (2000, 28), "example1"],
                             ids=["60x4", "500x10", "2000x28", "example1"])
    def test_full_rank_design_matches_gelsy(self, gelsy_calls, shape):
        rng = np.random.default_rng(31)
        if shape == "example1":
            design = self.example1_design()
        else:
            design = rng.standard_normal(shape)
            design[:, 0] = 1.0
        m, k = design.shape
        b = rng.standard_normal((m, 3))
        solver = DesignSolver(design.copy())
        assert solver.rank == k
        coef = solver.solve(b)
        assert gelsy_calls == []
        want, _, rank, _ = scipy.linalg.lstsq(design, b, cond=RANK_TOL,
                                              lapack_driver="gelsy")
        assert rank == k
        np.testing.assert_allclose(coef, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(solver.solve(b[:, 1]), want[:, 1], rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("shift, cholesky", [(0.80, True), (0.82, False)],
                             ids=["just-above", "just-below"])
    def test_rcond_threshold_decides_path(self, gelsy_calls, shift, cholesky):
        # moving example1's states off the origin makes the monomials more
        # collinear; these shifts put the Cholesky factor's condition
        # estimate within 5 % either side of CHOLESKY_RCOND_MIN
        design = build_basis(2, 6).design_matrix(self.example1_states() + shift)
        m, k = design.shape
        b = np.random.default_rng(47).standard_normal((m, 3))
        solver = DesignSolver(design.copy())
        coef = solver.solve(b)
        assert gelsy_calls == ([] if cholesky else ["gelsy"])
        assert solver.rank == k
        std = (design - solver.shift) / solver.scale
        ratio = lapack.dtrcon(np.linalg.cholesky(std.T @ std).T)[0] / CHOLESKY_RCOND_MIN
        assert (1.0 < ratio < 1.05) if cholesky else (0.95 < ratio < 1.0)
        want, rank = self.gelsy_reference(design, b)
        assert rank == k
        if cholesky:
            # the normal equations lose accuracy as cond_2(A)^2
            bound = k * np.finfo(float).eps * np.linalg.cond(std) ** 2
            np.testing.assert_allclose(coef, want, rtol=0, atol=bound * np.abs(want).max())
        else:
            assert np.array_equal(coef, want)
        self.assert_fitted_values(solver, design, coef)
        self.assert_fitted_values(solver, design, coef[:, 1])

    @staticmethod
    def assert_fitted_values(solver, design, coef):
        """solver.fitted gives design @ coef, on either path, though the
        Cholesky path keeps only the centered copy of the design."""
        want = design @ coef
        np.testing.assert_allclose(solver.fitted(coef), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    @staticmethod
    def near_collinear_design():
        """Two columns equal but for a 1e-11 relative perturbation: the
        standardized design has condition number about 1e11."""
        rng = np.random.default_rng(41)
        x = rng.standard_normal((400, 4))
        design = np.column_stack([np.ones(400), x[:, :3], x[:, 0] + 1e-11 * x[:, 3]])
        std = design.copy()
        std[:, 1:] = (std[:, 1:] - std[:, 1:].mean(axis=0)) / std[:, 1:].std(axis=0)
        s = np.linalg.svd(std, compute_uv=False)
        assert 1e10 < s[0] / s[-1] < 1e12
        return design

    @pytest.mark.parametrize("case", ["duplicated", "point-mass", "M<K", "cond-1e11"])
    def test_degenerate_design_takes_gelsy_bit_for_bit(self, gelsy_calls, case):
        rng = np.random.default_rng(43)
        if case == "duplicated":
            x = rng.standard_normal((80, 2))
            design = np.column_stack([np.ones(80), x, x[:, 0]])
        elif case == "point-mass":
            design = build_basis(2, 2).design_matrix(np.full((50, 2), 0.3))
        elif case == "M<K":
            design = build_basis(2, 6).design_matrix(rng.standard_normal((20, 2)))
        else:
            design = self.near_collinear_design()
        m, k = design.shape
        solver = DesignSolver(design.copy())
        # gelsy's rank depends on the design alone: no solve is spent on it
        # before the first response arrives
        assert gelsy_calls == []
        assert solver.rank is None
        want_rank = self.gelsy_reference(design, np.zeros((m, 1)))[1]
        assert want_rank < k
        b = rng.standard_normal((m, 3))
        for given, columns in ((b, b), (b[:, 1], b[:, 1:2])):
            gelsy_calls.clear()
            coef = solver.solve(given)
            assert gelsy_calls == ["gelsy"]
            assert solver.rank == want_rank
            want, rank = self.gelsy_reference(design, columns)
            assert rank == want_rank
            assert np.array_equal(coef, want.reshape(coef.shape))
            self.assert_fitted_values(solver, design, coef)
