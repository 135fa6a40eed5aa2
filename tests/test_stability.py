"""Root-condition machinery: characteristic polynomials, root finding and
the stability verdict."""

import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from fbsde_pc import (
    CharacteristicPolynomial,
    Coefficients,
    ValidationError,
    characteristic_polynomial,
    check_root_condition,
    polynomial_roots,
    scheme_verdict,
    stable_preset,
    unstable_three_step,
    unstable_two_step,
)
from fbsde_pc.stability import MARGINAL, STABLE, UNSTABLE


def roots_of(*coeffs):
    return polynomial_roots(CharacteristicPolynomial(coeffs=coeffs))


class TestCharacteristicPolynomial:
    def test_unstable_two_step_alpha(self):
        corr = Coefficients(alpha=(3, -2), gamma0=1, gamma=(Fr(-3, 2), Fr(-1, 2)))
        assert characteristic_polynomial(corr).coeffs == (1.0, -3.0, 2.0)

    def test_one_step(self):
        corr = Coefficients(alpha=(1,), gamma0=1, gamma=(0,))
        assert characteristic_polynomial(corr).coeffs == (1.0, -1.0)

    def test_uniform_three_step(self):
        poly = characteristic_polynomial(stable_preset(3))
        assert poly.coeffs == (1.0, -1 / 3, -1 / 3, -1 / 3)

    def test_monic_required(self):
        with pytest.raises(ValueError):
            CharacteristicPolynomial(coeffs=(2.0, 1.0))


class TestPolynomialRoots:
    def test_quadratic_with_integer_roots(self):
        roots = roots_of(1.0, -3.0, 2.0)
        assert sorted(r.real for r in roots) == pytest.approx([1.0, 2.0], abs=1e-10)
        assert all(abs(r.imag) < 1e-10 for r in roots)

    def test_cubic_with_integer_roots(self):
        roots = roots_of(1.0, -2.0, -5.0, 6.0)
        assert sorted(r.real for r in roots) == pytest.approx([-2.0, 1.0, 3.0], abs=1e-9)

    def test_linear(self):
        assert roots_of(1.0, -1.0) == [1.0 + 0.0j]

    def test_residual_bound(self):
        coeffs = (1.0, -1 / 3, -1 / 3, -1 / 3)
        poly = CharacteristicPolynomial(coeffs=coeffs)
        for r in polynomial_roots(poly):
            assert abs(np.polyval(poly.coeffs, r)) <= 1e-9

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            degree = int(rng.integers(2, 7))
            roots = []
            while len(roots) < degree:
                if degree - len(roots) >= 2 and rng.random() < 0.5:
                    re, im = rng.uniform(-0.9, 0.9), rng.uniform(0.1, 0.9)
                    roots += [complex(re, im), complex(re, -im)]
                else:
                    roots.append(complex(rng.uniform(-0.95, 0.95), 0.0))
            coeffs = np.real(np.poly(np.array(roots)))
            got = polynomial_roots(CharacteristicPolynomial(coeffs=tuple(coeffs)))
            regen = np.real(np.poly(np.array(got)))
            assert np.allclose(regen, coeffs, rtol=1e-8, atol=1e-8)


class TestRootCondition:
    def test_published_fixtures(self):
        assert check_root_condition(roots_of(1.0, -1.0)).status == STABLE
        assert check_root_condition(roots_of(1.0, -1 / 3, -1 / 3, -1 / 3)).status == STABLE
        v2 = check_root_condition(roots_of(1.0, -3.0, 2.0))
        assert v2.status == UNSTABLE
        assert [round(r.real) for r in v2.offending] == [2]
        v3 = check_root_condition(roots_of(1.0, -2.0, -5.0, 6.0))
        assert v3.status == UNSTABLE
        assert sorted(round(r.real) for r in v3.offending) == [-2, 3]

    def test_three_step_complex_pair_modulus(self):
        roots = roots_of(1.0, -1 / 3, -1 / 3, -1 / 3)
        moduli = sorted(abs(r) for r in roots)
        # complex pair sits at |z| = 1/sqrt(3), unit root is simple
        assert moduli[0] == pytest.approx(1 / math.sqrt(3), rel=1e-9)
        assert moduli[1] == pytest.approx(1 / math.sqrt(3), rel=1e-9)
        assert moduli[2] == pytest.approx(1.0, rel=1e-12)

    def test_double_root_on_circle_is_unstable(self):
        verdict = check_root_condition([1.0 + 0j, 1.0 + 1e-12j, 0.3 + 0j], tol=1e-8)
        assert verdict.status == UNSTABLE

    def test_double_root_inside_disk_is_fine(self):
        verdict = check_root_condition([0.5 + 0j, 0.5 + 0j, -0.2 + 0j])
        assert verdict.status == STABLE

    def test_marginal_when_tolerance_sensitive(self):
        # modulus 1 + tol/2: clean at tol, violating at tol/10
        verdict = check_root_condition([1.0 + 5e-9, 0.1], tol=1e-8)
        assert verdict.status == MARGINAL

    def test_marginal_near_double_boundary_root(self):
        # two simple roots on the circle separated by 3*tol merge at 10*tol
        verdict = check_root_condition([1.0 + 0j, 1.0 + 3e-8j, 0.0j], tol=1e-8)
        assert verdict.status == MARGINAL

    def test_far_from_circle_needs_no_marginal_flag(self):
        verdict = check_root_condition([0.99, -0.5])
        assert verdict.status == STABLE

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            check_root_condition([0.5], tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # a NaN tolerance fails every comparison, so it would pass any scheme
        with pytest.raises(ValidationError, match="tol must be finite"):
            scheme_verdict(unstable_two_step(), tol=tol)

    def test_random_stable_and_planted_unstable(self):
        rng = np.random.default_rng(11)
        n_checked = 0
        while n_checked < 1000:
            degree = int(rng.integers(1, 7))
            roots = []
            while len(roots) < degree:
                if degree - len(roots) >= 2 and rng.random() < 0.4:
                    radius = rng.uniform(0.05, 0.9)
                    angle = rng.uniform(0.05, math.pi - 0.05)
                    roots += [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
                else:
                    roots.append(complex(rng.uniform(-0.9, 0.9), 0.0))
            coeffs = tuple(np.real(np.poly(np.array(roots))))
            found = polynomial_roots(CharacteristicPolynomial(coeffs=coeffs))
            assert check_root_condition(found).status == STABLE
            planted = roots[:-1] + [complex(1.05 * np.sign(rng.standard_normal()) or 1.05, 0.0)]
            coeffs = tuple(np.real(np.poly(np.array(planted))))
            found = polynomial_roots(CharacteristicPolynomial(coeffs=coeffs))
            assert check_root_condition(found).status == UNSTABLE
            n_checked += 1


class TestSchemeVerdict:
    def test_presets_are_stable(self):
        for m in (1, 2, 3, 4):
            assert scheme_verdict(stable_preset(m)).is_stable

    def test_published_unstable_schemes(self):
        v2 = scheme_verdict(unstable_two_step())
        assert v2.status == UNSTABLE
        assert [round(r.real) for r in v2.offending] == [2]
        v3 = scheme_verdict(unstable_three_step())
        assert sorted(round(r.real) for r in v3.offending) == [-2, 3]
