"""Coefficient machinery: fixtures, order-condition solving, derivative
weights and the Milne factor."""

import json
import re
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from fbsde_pc import (
    Coefficients,
    DegenerateIndicator,
    MultistepScheme,
    ValidationError,
    adams_pair,
    derivative_weights,
    milne_factor,
    scheme_from_json,
    scheme_to_json,
    solve_order_conditions,
    stable_preset,
    truncation_residuals,
    unstable_three_step,
    unstable_two_step,
)
from fbsde_pc.schemes import (
    _solve_exact,
    error_constant,
    preset_scheme,
    scheme_from_dict,
    scheme_to_dict,
)

PRESETS = ([("stable", m) for m in range(1, 5)] + [("adams", k) for k in range(1, 7)]
           + [("unstable", 2), ("unstable", 3)])

# Adams-Bashforth/Adams-Moulton table for orders 1..6: predictor driver
# weights, predictor error constant, corrector (gamma0, *gamma), corrector
# error constant.
ADAMS_TABLE = {
    1: ((Fr(1),), Fr(1, 2),
        (Fr(1), Fr(0)), Fr(-1, 2)),
    2: ((Fr(3, 2), Fr(-1, 2)), Fr(-5, 12),
        (Fr(1, 2), Fr(1, 2), Fr(0)), Fr(1, 12)),
    3: ((Fr(23, 12), Fr(-4, 3), Fr(5, 12)), Fr(3, 8),
        (Fr(5, 12), Fr(2, 3), Fr(-1, 12), Fr(0)), Fr(-1, 24)),
    4: ((Fr(55, 24), Fr(-59, 24), Fr(37, 24), Fr(-3, 8)), Fr(-251, 720),
        (Fr(3, 8), Fr(19, 24), Fr(-5, 24), Fr(1, 24), Fr(0)), Fr(19, 720)),
    5: ((Fr(1901, 720), Fr(-1387, 360), Fr(109, 30), Fr(-637, 360), Fr(251, 720)),
        Fr(95, 288),
        (Fr(251, 720), Fr(323, 360), Fr(-11, 30), Fr(53, 360), Fr(-19, 720), Fr(0)),
        Fr(-3, 160)),
    6: ((Fr(4277, 1440), Fr(-2641, 480), Fr(4991, 720), Fr(-3649, 720),
         Fr(959, 480), Fr(-95, 288)), Fr(-19087, 60480),
        (Fr(95, 288), Fr(1427, 1440), Fr(-133, 240), Fr(241, 720),
         Fr(-173, 1440), Fr(3, 160), Fr(0)), Fr(863, 60480)),
}


@pytest.mark.parametrize("order", sorted(ADAMS_TABLE))
def test_adams_pair_matches_table(order):
    pred_gamma, pred_ec, corr, corr_ec = ADAMS_TABLE[order]
    scheme = adams_pair(order)
    nearest = (Fr(1),) + (Fr(0),) * (order - 1)
    assert scheme.predictor.alpha == nearest
    assert scheme.predictor.gamma0 == 0
    assert scheme.predictor.gamma == pred_gamma
    assert scheme.corrector.alpha == nearest
    assert scheme.corrector.gamma0 == corr[0]
    assert scheme.corrector.gamma == corr[1:]
    assert scheme.error_constant_pred == pred_ec
    assert scheme.error_constant_corr == corr_ec


@pytest.mark.parametrize("order", sorted(ADAMS_TABLE))
def test_adams_pair_residuals_vanish_exactly(order):
    scheme = adams_pair(order)
    assert truncation_residuals(scheme.corrector, order) == [Fr(0)] * (order + 1)
    assert truncation_residuals(scheme.predictor, order) == [Fr(0)] * (order + 1)
    # residual order+1 is the tabulated error constant, exactly
    assert truncation_residuals(scheme.corrector, order + 1)[-1] == ADAMS_TABLE[order][3]
    assert truncation_residuals(scheme.predictor, order + 1)[-1] == ADAMS_TABLE[order][1]


def test_adams_pair_rejects_unsupported_order():
    for bad in (0, 7, -1):
        with pytest.raises(ValidationError, match="Adams pairs are provided for orders 1..6"):
            adams_pair(bad)


class TestSolveOrderConditions:
    def test_one_step_trapezoidal_pin(self):
        corr = solve_order_conditions(1, gamma0=Fr(1, 2))
        assert corr.alpha == (Fr(1),)
        assert corr.gamma == (Fr(1, 2),)

    def test_one_step_full_weight_pin(self):
        corr = solve_order_conditions(1, gamma0=1)
        assert corr.alpha == (Fr(1),)
        assert corr.gamma == (Fr(0),)

    def test_three_step_uniform_family(self):
        corr = solve_order_conditions(3, alpha=(Fr(1, 3),) * 3, gamma0=Fr(5, 6))
        assert corr.gamma == (Fr(-1, 3), Fr(11, 6), Fr(-1, 3))
        assert truncation_residuals(corr, 3) == [Fr(0)] * 4

    def test_pins_preserved_exactly(self):
        corr = solve_order_conditions(2, alpha=(Fr(1, 2), Fr(1, 2)), gamma0=Fr(2, 3))
        assert corr.alpha == (Fr(1, 2), Fr(1, 2))
        assert corr.gamma0 == Fr(2, 3)

    def test_underdetermined(self):
        with pytest.raises(ValidationError, match="^underdetermined:"):
            solve_order_conditions(2, gamma0=Fr(1, 2))

    def test_overdetermined_conflicting_pins(self):
        # alpha_1 = 1/2 violates C_0 = 1 - alpha_1 = 0 outright
        with pytest.raises(ValidationError, match="^overdetermined:"):
            solve_order_conditions(1, alpha=(Fr(1, 2),), gamma0=Fr(1, 2))

    def test_roundtrip_random_pins(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            alpha = [Fr(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
                     for _ in range(m)]
            try:
                corr = solve_order_conditions(m, alpha=alpha, gamma0=Fr(1, 2))
            except ValidationError as exc:
                assert re.match("(over|under)determined:|singular:", str(exc)), exc
                continue
            res = truncation_residuals(corr, m)
            assert all(c == 0 for c in res)
            assert corr.alpha == tuple(alpha)


class TestSolvePredictorConditions:
    # a predictor is the explicit member of the family: gamma0 pinned to 0

    def test_two_step_adams_bashforth(self):
        pred = solve_order_conditions(2, alpha=(1, 0), gamma0=0)
        assert pred.gamma == (Fr(3, 2), Fr(-1, 2))

    def test_one_step(self):
        pred = solve_order_conditions(1, alpha=(1,), gamma0=0)
        assert pred.gamma0 == 0
        assert pred.gamma == (Fr(1),)

    def test_three_step_uniform(self):
        pred = solve_order_conditions(3, alpha=(Fr(1, 3),) * 3, gamma0=0)
        assert pred.gamma == (Fr(39, 18), Fr(-2, 3), Fr(1, 2))
        assert truncation_residuals(pred, 3) == [Fr(0)] * 4


class TestDerivativeWeights:
    def test_fixtures(self):
        assert derivative_weights(1) == (Fr(-1), Fr(1))
        assert derivative_weights(2) == (Fr(-3, 2), Fr(2), Fr(-1, 2))
        assert derivative_weights(3) == (Fr(-11, 6), Fr(3), Fr(-3, 2), Fr(1, 3))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_moment_conditions(self, m):
        w = derivative_weights(m)
        for j in range(m + 1):
            total = sum(Fr(n**j) * w[n] for n in range(m + 1))
            assert total == (1 if j == 1 else 0)

    def test_h_independence_on_linear_function(self):
        # applying the stored weights with two different h to samples of a
        # linear function gives the same slope
        w = [float(v) for v in derivative_weights(3)]
        slope, intercept = 2.75, -0.4
        for h in (0.1, 0.025):
            samples = [slope * (1.0 + n * h) + intercept for n in range(4)]
            est = sum(wn * s for wn, s in zip(w, samples)) / h
            assert est == pytest.approx(slope, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="need m >= 1"):
            derivative_weights(0)
        with pytest.raises(ValidationError, match="unsupported past m = 12"):
            derivative_weights(13)


class TestTruncationResiduals:
    def test_trivial_substitution(self):
        coeffs = Coefficients(alpha=(1,), gamma0=0, gamma=(0,))
        assert truncation_residuals(coeffs, 1) == [Fr(0), Fr(-1)]

    def test_order2_pair_through_index_3(self):
        scheme = adams_pair(2)
        assert truncation_residuals(scheme.corrector, 3) == [0, 0, 0, Fr(1, 12)]
        assert truncation_residuals(scheme.predictor, 3) == [0, 0, 0, Fr(-5, 12)]


class TestMilneFactor:
    def test_adams_pairs(self):
        assert milne_factor(adams_pair(1)) == Fr(1, 2)
        assert milne_factor(adams_pair(2)) == Fr(1, 6)
        assert milne_factor(adams_pair(4)) == Fr(19, 270)

    def test_degenerate(self):
        # stable-2's predictor reused as the corrector (gamma0 = 0): the two
        # sides have the same weights, hence equal error constants
        pred = stable_preset(2).predictor
        degenerate = MultistepScheme(pred, pred)
        assert degenerate.error_constant_pred == degenerate.error_constant_corr == Fr(-3, 8)
        with pytest.raises(DegenerateIndicator):
            milne_factor(degenerate)


class TestPresets:
    def test_uniform_presets_have_full_order(self):
        for m in (1, 2, 3, 4):
            scheme = stable_preset(m)
            assert truncation_residuals(scheme.corrector, m) == [Fr(0)] * (m + 1)
            assert truncation_residuals(scheme.predictor, m) == [Fr(0)] * (m + 1)
            assert scheme.error_constant_corr != scheme.error_constant_pred

    def test_one_step_preset_is_trapezoidal(self):
        scheme = stable_preset(1)
        assert scheme.corrector.gamma0 == Fr(1, 2)
        assert scheme.corrector.gamma == (Fr(1, 2),)
        assert scheme.predictor.gamma == (Fr(1),)

    def test_unstable_schemes_satisfy_order_conditions(self):
        two = unstable_two_step()
        three = unstable_three_step()
        assert truncation_residuals(two.corrector, 2) == [Fr(0)] * 3
        assert truncation_residuals(two.predictor, 2) == [Fr(0)] * 3
        assert truncation_residuals(three.corrector, 3) == [Fr(0)] * 4
        assert truncation_residuals(three.predictor, 3) == [Fr(0)] * 4

    def test_error_constant_helper_matches_scheme_fields(self):
        for scheme in (adams_pair(3), stable_preset(2), unstable_two_step()):
            assert error_constant(scheme.corrector) == scheme.error_constant_corr
            assert error_constant(scheme.predictor) == scheme.error_constant_pred


class TestSchemeJson:
    def test_roundtrip_preserves_rationals(self):
        # with the derived fields or without them, every preset loads back equal
        for family, m in PRESETS:
            scheme = preset_scheme(family, m)
            assert scheme_from_json(scheme_to_json(scheme)) == scheme
            weights_only = {k: v for k, v in scheme_to_dict(scheme).items()
                            if k not in ("lambda_h", "C_pred", "C_corr")}
            assert scheme_from_dict(weights_only) == scheme

    def test_derived_fields_checked_by_value(self):
        # a derived field in another notation is accepted; a different value is not
        doc = {**scheme_to_dict(adams_pair(1)), "C_pred": "0.5", "lambda_h": [-1, 1.0]}
        assert scheme_from_dict(doc) == adams_pair(1)
        doc["C_corr"] = "0.5"
        with pytest.raises(ValidationError, match=re.escape(
                "scheme field 'C_corr' is \"0.5\", but the weights give \"-1/2\"")):
            scheme_from_dict(doc)

    @pytest.mark.parametrize("m", [2.9, "2", True], ids=["fraction", "string", "boolean"])
    def test_step_count_must_be_an_integer(self, m):
        # with the weights of the scheme int(m) names, which int() would load
        doc = {**scheme_to_dict(stable_preset(int(m))), "m": m}
        with pytest.raises(ValidationError, match=re.escape(
                f"scheme field 'm': {json.dumps(m)} is not an integer")):
            scheme_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("gamma0", "1e5000"), ("gamma", ["-1e-5000"]), ("gamma0", "1e999999999"),
    ], ids=["1e5000", "-1e-5000", "1e999999999"])
    def test_decimal_exponent_is_bounded(self, key, value):
        # Fraction would build 10^|exponent| exactly: past 4300 digits it
        # cannot be written back, and at 1e999999999 it would stall the loader
        doc = {k: v for k, v in scheme_to_dict(stable_preset(1)).items()
               if k not in ("lambda_h", "C_pred", "C_corr")}
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=re.escape(
                f"scheme field {key!r}: decimal exponent beyond +-4300")):
            scheme_from_dict({**doc, key: value})
        assert time.perf_counter() - start < 1.0

    def test_weight_too_long_to_write_names_its_field(self):
        # 10^4300 has 4301 digits, one past what Python writes as a string
        doc = {**scheme_to_dict(stable_preset(1)), "gamma0": "1e4300"}
        with pytest.raises(ValidationError, match=re.escape(
                "scheme field 'gamma0': a number too long to write as a string")):
            scheme_from_dict(doc)

    def test_strings_are_exact_fractions(self):
        text = scheme_to_json(stable_preset(3))
        assert '"5/6"' in text
        assert '"-11/6"' in text


class TestExactSolver:
    def test_singular_square_system(self):
        rows = [[Fr(1), Fr(2)], [Fr(2), Fr(4)]]
        with pytest.raises(ValidationError, match="^singular:"):
            _solve_exact(rows, [Fr(1), Fr(2)])

    def test_inconsistent_system(self):
        rows = [[Fr(1)], [Fr(1)]]
        with pytest.raises(ValidationError, match="^overdetermined:"):
            _solve_exact(rows, [Fr(1), Fr(2)])

    def test_unique_solution(self):
        rows = [[Fr(2), Fr(0)], [Fr(1), Fr(3)]]
        assert _solve_exact(rows, [Fr(4), Fr(5)]) == [Fr(2), Fr(1)]


def test_scheme_checks_step_counts():
    pred = Coefficients(alpha=(1, 0), gamma0=0, gamma=(Fr(3, 2), Fr(-1, 2)))
    corr = Coefficients(alpha=(1,), gamma0=1, gamma=(0,))
    with pytest.raises(ValidationError, match="disagree on step count"):
        MultistepScheme(pred, corr)


def test_predictor_must_be_explicit():
    # the solver never applies a predictor's gamma0, so a nonzero one is refused
    scheme = stable_preset(2)
    with pytest.raises(ValidationError, match="predictor must be explicit"):
        MultistepScheme(scheme.corrector, scheme.corrector)


def test_derived_fields_are_not_constructor_inputs():
    scheme = adams_pair(2)
    assert scheme.lambda_h == derivative_weights(2)
    with pytest.raises(TypeError):
        MultistepScheme(scheme.predictor, scheme.corrector, lambda_h=(Fr(-1), Fr(1), Fr(0)))

