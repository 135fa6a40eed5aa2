"""Coefficients of linear multi-step predictor-corrector schemes.

A corrector step combines m future solution levels with driver values,

    Y_i = sum_j alpha_j Y_{i+j} + h*gamma0*f(t_i, ., Ytilde_i, Z_i)
        + h * sum_j gamma_j f_{i+j},

the (explicit) predictor is the same shape without the gamma0 term, and Z is
recovered from future levels through derivative weights lambda.  The scheme
reaches order m when the truncation coefficients C_0..C_m all vanish; C_{m+1}
is the error constant.  Everything in this module is exact: coefficients are
Fractions and stay Fractions until a solver converts them to floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Union

from .exceptions import DegenerateIndicator, ValidationError

NumberLike = Union[int, str, float, Fraction]

# conditioning is not an issue in exact arithmetic, but nothing past this is
# exercised or tested, so refuse rather than silently extrapolate
MAX_STEP_COUNT = 12


def as_fraction(value: NumberLike) -> Fraction:
    """Coerce to an exact Fraction (floats via their binary expansion)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str, float)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _fraction_tuple(values: Sequence[NumberLike]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class CorrectorCoefficients:
    """Weights of the (formally implicit) corrector: m solution weights alpha,
    the predicted-driver weight gamma0 and m future driver weights gamma."""

    alpha: tuple[Fraction, ...]
    gamma0: Fraction
    gamma: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _fraction_tuple(self.alpha))
        object.__setattr__(self, "gamma0", as_fraction(self.gamma0))
        object.__setattr__(self, "gamma", _fraction_tuple(self.gamma))
        if len(self.alpha) != len(self.gamma):
            raise ValidationError("alpha and gamma must have the same length")
        if not self.alpha:
            raise ValidationError("need at least one step")

    @property
    def m(self) -> int:
        return len(self.alpha)

    def order(self, max_order: Optional[int] = None) -> int:
        """Largest n with C_0 = ... = C_n = 0 (exact)."""
        return _formal_order(self, max_order)


@dataclass(frozen=True)
class PredictorCoefficients:
    """Weights of the explicit predictor.  There is no weight on the current
    driver value: explicitness is built into the type."""

    alpha_tilde: tuple[Fraction, ...]
    gamma_tilde: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha_tilde", _fraction_tuple(self.alpha_tilde))
        object.__setattr__(self, "gamma_tilde", _fraction_tuple(self.gamma_tilde))
        if len(self.alpha_tilde) != len(self.gamma_tilde):
            raise ValidationError("alpha_tilde and gamma_tilde must have the same length")
        if not self.alpha_tilde:
            raise ValidationError("need at least one step")

    @property
    def m(self) -> int:
        return len(self.alpha_tilde)

    def order(self, max_order: Optional[int] = None) -> int:
        return _formal_order(self, max_order)


@dataclass(frozen=True)
class MultistepScheme:
    """A complete predictor-corrector scheme, ready for the backward solver.

    Only the two coefficient sets and the name are chosen.  The derivative
    weights lambda_h and the error constants Ctilde and C are derived from
    them once, at construction, so they cannot disagree with the weights.
    """

    predictor: PredictorCoefficients
    corrector: CorrectorCoefficients
    name: str = ""
    lambda_h: tuple[Fraction, ...] = field(init=False)
    error_constant_pred: Fraction = field(init=False)
    error_constant_corr: Fraction = field(init=False)

    def __post_init__(self):
        if self.predictor.m != self.corrector.m:
            raise ValidationError("predictor and corrector disagree on step count")
        object.__setattr__(self, "lambda_h", derivative_weights(self.m))
        object.__setattr__(self, "error_constant_pred", error_constant(self.predictor))
        object.__setattr__(self, "error_constant_corr", error_constant(self.corrector))

    @property
    def m(self) -> int:
        return self.corrector.m


# -- truncation residuals -----------------------------------------------------

def _weights_of(coeffs) -> tuple[tuple[Fraction, ...], Fraction, tuple[Fraction, ...]]:
    if isinstance(coeffs, CorrectorCoefficients):
        return coeffs.alpha, coeffs.gamma0, coeffs.gamma
    if isinstance(coeffs, PredictorCoefficients):
        return coeffs.alpha_tilde, Fraction(0), coeffs.gamma_tilde
    raise TypeError(f"expected corrector or predictor coefficients, got {type(coeffs)!r}")


def _alpha_row_coeff(j: int, l: int) -> Fraction:
    return -Fraction(l**j) / factorial(j)


def _gamma_row_coeff(j: int, l: int) -> Fraction:
    # l = 0 encodes gamma0, which only enters C_1
    if l == 0:
        return Fraction(1) if j == 1 else Fraction(0)
    if j == 0:
        return Fraction(0)
    return Fraction(l ** (j - 1)) / factorial(j - 1)


def truncation_residuals(coeffs, up_to: int) -> list[Fraction]:
    """Evaluate the truncation coefficients C_0..C_{up_to} exactly.

    C_0 = 1 - sum(alpha); for j >= 1,
    C_j = -(1/j!) sum_l l^j alpha_l + (1/(j-1)!) sum_l l^{j-1} gamma_l,
    with gamma0 entering the j = 1 sum only.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    alpha, gamma0, gamma = _weights_of(coeffs)
    return [Fraction(j == 0)
            + sum(_alpha_row_coeff(j, l) * a for l, a in enumerate(alpha, 1))
            + sum(_gamma_row_coeff(j, l) * g for l, g in enumerate((gamma0, *gamma)))
            for j in range(up_to + 1)]


def _formal_order(coeffs, max_order: Optional[int] = None) -> int:
    alpha, _, _ = _weights_of(coeffs)
    limit = max_order if max_order is not None else 2 * len(alpha) + 4
    res = truncation_residuals(coeffs, limit)
    order = -1
    for c in res:
        if c != 0:
            break
        order += 1
    return order


def error_constant(coeffs) -> Fraction:
    """First truncation coefficient past the scheme's step count, C_{m+1}."""
    alpha, _, _ = _weights_of(coeffs)
    return truncation_residuals(coeffs, len(alpha) + 1)[-1]


# -- exact linear solves ------------------------------------------------------

def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial pivoting over exact rationals.

    Raises ValidationError on an inconsistent (overdetermined) system, and
    when unknowns remain free: underdetermined when too few equations touch
    them at all, singular otherwise.
    """
    n_unknowns = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    touched = sum(1 for r in rows if any(c != 0 for c in r))
    pivots = []
    row_at = 0
    for col in range(n_unknowns):
        best, best_abs = None, Fraction(0)
        for r in range(row_at, len(aug)):
            mag = abs(aug[r][col])
            if mag > best_abs:
                best, best_abs = r, mag
        if best is None or best_abs == 0:
            continue  # free column so far
        aug[row_at], aug[best] = aug[best], aug[row_at]
        piv = aug[row_at][col]
        aug[row_at] = [v / piv for v in aug[row_at]]
        for r in range(len(aug)):
            if r != row_at and aug[r][col] != 0:
                fac = aug[r][col]
                aug[r] = [v - fac * w for v, w in zip(aug[r], aug[row_at])]
        pivots.append(col)
        row_at += 1
        if row_at == len(aug):
            break
    for r in range(row_at, len(aug)):
        if all(c == 0 for c in aug[r][:-1]) and aug[r][-1] != 0:
            raise ValidationError(
                "overdetermined: pinned values are inconsistent with the order conditions")
    if len(pivots) < n_unknowns:
        if touched < n_unknowns:
            raise ValidationError(
                f"underdetermined: {n_unknowns} unknowns but only {touched} conditions "
                "involve them; pin more values")
        raise ValidationError("singular: pins make the order-condition system rank-deficient")
    solution = [Fraction(0)] * n_unknowns
    for r, col in enumerate(pivots):
        solution[col] = aug[r][-1]
    return solution


def _normalize_pins(values, m: int, label: str) -> list[Optional[Fraction]]:
    if values is None:
        return [None] * m
    values = list(values)
    if len(values) != m:
        raise ValueError(f"{label} must have length {m}, got {len(values)}")
    return [None if v is None else as_fraction(v) for v in values]


def _solve_conditions(m, alpha_pins, gamma0_pin, gamma_pins, with_gamma0):
    # unknown layout: alpha_1..alpha_m, [gamma0], gamma_1..gamma_m
    slots = [("a", l) for l in range(1, m + 1)]
    if with_gamma0:
        slots.append(("g", 0))
    slots += [("g", l) for l in range(1, m + 1)]

    def pin_of(kind, l):
        if kind == "a":
            return alpha_pins[l - 1]
        return gamma0_pin if l == 0 else gamma_pins[l - 1]

    unknowns = [s for s in slots if pin_of(*s) is None]
    index = {s: k for k, s in enumerate(unknowns)}
    rows, rhs = [], []
    for j in range(m + 1):
        row = [Fraction(0)] * len(unknowns)
        const = Fraction(1) if j == 0 else Fraction(0)
        for kind, l in slots:
            coeff = _alpha_row_coeff(j, l) if kind == "a" else _gamma_row_coeff(j, l)
            pinned = pin_of(kind, l)
            if pinned is None:
                row[index[(kind, l)]] += coeff
            else:
                const += coeff * pinned
        rows.append(row)
        rhs.append(-const)
    solution = _solve_exact(rows, rhs)

    def value_of(kind, l):
        pinned = pin_of(kind, l)
        return pinned if pinned is not None else solution[index[(kind, l)]]

    alpha = tuple(value_of("a", l) for l in range(1, m + 1))
    gamma = tuple(value_of("g", l) for l in range(1, m + 1))
    gamma0 = value_of("g", 0) if with_gamma0 else Fraction(0)
    return alpha, gamma0, gamma


def solve_order_conditions(
    m: int,
    *,
    alpha: Optional[Sequence] = None,
    gamma0: Optional[NumberLike] = None,
    gamma: Optional[Sequence] = None,
) -> CorrectorCoefficients:
    """Solve C_0 = ... = C_m = 0 for the unpinned corrector weights.

    Each pin argument may be omitted (all entries unknown) or a length-m
    sequence with None marking unknowns; gamma0 is a scalar pin.  The order
    conditions leave a family of order-m schemes, so enough pins must be
    supplied to make the solution unique; pinned values are kept exactly.
    """
    if m < 1:
        raise ValidationError("step count must be >= 1")
    a, g0, g = _solve_conditions(
        m,
        _normalize_pins(alpha, m, "alpha"),
        None if gamma0 is None else as_fraction(gamma0),
        _normalize_pins(gamma, m, "gamma"),
        with_gamma0=True,
    )
    return CorrectorCoefficients(alpha=a, gamma0=g0, gamma=g)


def solve_predictor_conditions(
    m: int,
    *,
    alpha_tilde: Optional[Sequence] = None,
    gamma_tilde: Optional[Sequence] = None,
) -> PredictorCoefficients:
    """Same as solve_order_conditions with the current-driver weight absent."""
    if m < 1:
        raise ValidationError("step count must be >= 1")
    a, _, g = _solve_conditions(
        m,
        _normalize_pins(alpha_tilde, m, "alpha_tilde"),
        None,
        _normalize_pins(gamma_tilde, m, "gamma_tilde"),
        with_gamma0=False,
    )
    return PredictorCoefficients(alpha_tilde=a, gamma_tilde=g)


# -- derivative weights -------------------------------------------------------

def derivative_weights(m: int) -> tuple[Fraction, ...]:
    """Solve the (m+1)-point moment system sum_n n^j u_n = [j == 1] exactly.

    The solution u = h*lambda_{m,0..m} is grid-independent and turns future
    solution levels into a first derivative estimate of order m:
    (1/h) * sum_n u[n] * g(t + n*h) estimates g'(t).
    """
    if m < 1:
        raise ValidationError("need m >= 1")
    if m > MAX_STEP_COUNT:
        raise ValidationError(f"derivative weights unsupported past m = {MAX_STEP_COUNT}")
    rows = [[Fraction(n**j) for n in range(m + 1)] for j in range(m + 1)]
    rhs = [Fraction(1) if j == 1 else Fraction(0) for j in range(m + 1)]
    return tuple(_solve_exact(rows, rhs))


# -- Milne local-error indicator ----------------------------------------------

def milne_factor(scheme: MultistepScheme) -> Fraction:
    """|C/(C - Ctilde)|: multiplies |Ytilde - Y| to estimate the local error."""
    c, ct = scheme.error_constant_corr, scheme.error_constant_pred
    if c == ct:
        raise DegenerateIndicator("predictor and corrector error constants coincide")
    return abs(c / (c - ct))


# -- ready-made schemes -------------------------------------------------------

def adams_pair(order: int) -> MultistepScheme:
    """Adams-Bashforth predictor with the matching Adams-Moulton corrector.

    Both sides are derived from the order conditions (never tabulated):
    the predictor pins the solution weight on the nearest level, the corrector
    additionally pins its last driver weight to zero so that it spans the
    nodes i..i+order-1 plus the predicted value at i.
    """
    if not 1 <= order <= 6:
        raise ValidationError("Adams pairs are provided for orders 1..6")
    nearest = (Fraction(1),) + (Fraction(0),) * (order - 1)
    predictor = solve_predictor_conditions(order, alpha_tilde=nearest)
    gamma_pins: list[Optional[Fraction]] = [None] * order
    gamma_pins[-1] = Fraction(0)
    corrector = solve_order_conditions(order, alpha=nearest, gamma=gamma_pins)
    return MultistepScheme(predictor, corrector, name=f"adams-{order}")


# Free corrector parameter of the uniform-average family.  The one- and
# three-step values are the published choices; the even step counts follow the
# same tie-break those satisfy (first and last driver weights equal).
_UNIFORM_GAMMA0 = {
    1: Fraction(1, 2),
    2: Fraction(2, 3),
    3: Fraction(5, 6),
    4: Fraction(17, 30),
}


def stable_preset(m: int) -> MultistepScheme:
    """Stable order-m scheme with uniform solution weights alpha_j = 1/m.

    The uniform average makes the companion matrix row-stochastic, so the
    root condition holds for every m; the remaining corrector freedom is fixed
    by the gamma0 values above.
    """
    if m not in _UNIFORM_GAMMA0:
        raise ValidationError("uniform presets cover m = 1..4")
    uniform = (Fraction(1, m),) * m
    predictor = solve_predictor_conditions(m, alpha_tilde=uniform)
    corrector = solve_order_conditions(m, alpha=uniform, gamma0=_UNIFORM_GAMMA0[m])
    return MultistepScheme(predictor, corrector, name=f"uniform-{m}")


def unstable_two_step() -> MultistepScheme:
    """Order-2 scheme whose characteristic root 2 violates the root condition."""
    predictor = PredictorCoefficients(
        alpha_tilde=(3, -2), gamma_tilde=(Fraction(1, 2), Fraction(-3, 2)))
    corrector = CorrectorCoefficients(
        alpha=(3, -2), gamma0=1, gamma=(Fraction(-3, 2), Fraction(-1, 2)))
    return MultistepScheme(predictor, corrector, name="unstable-2")


def unstable_three_step() -> MultistepScheme:
    """Order-3 scheme with characteristic roots {-2, 1, 3}; unstable."""
    predictor = PredictorCoefficients(alpha_tilde=(2, 5, -6), gamma_tilde=(2, -6, -2))
    corrector = CorrectorCoefficients(alpha=(2, 5, -6), gamma0=-3, gamma=(11, -15, 1))
    return MultistepScheme(predictor, corrector, name="unstable-3")


_FAMILIES = {
    "stable": stable_preset,
    "adams": adams_pair,
}


def preset_scheme(family: str, m: int) -> MultistepScheme:
    """Look up a named scheme family: stable | adams | unstable."""
    if family == "unstable":
        if m == 2:
            return unstable_two_step()
        if m == 3:
            return unstable_three_step()
        raise ValidationError("unstable presets exist for m = 2 and m = 3")
    try:
        return _FAMILIES[family](m)
    except KeyError:
        raise ValidationError(f"unknown scheme family {family!r}") from None


# -- JSON interchange ---------------------------------------------------------

def scheme_to_dict(scheme: MultistepScheme) -> dict:
    """Plain-dict form with every number as an exact fraction/decimal string."""
    s = str
    return {
        "m": scheme.m,
        "alpha": [s(v) for v in scheme.corrector.alpha],
        "gamma0": s(scheme.corrector.gamma0),
        "gamma": [s(v) for v in scheme.corrector.gamma],
        "alpha_tilde": [s(v) for v in scheme.predictor.alpha_tilde],
        "gamma_tilde": [s(v) for v in scheme.predictor.gamma_tilde],
        "lambda_h": [s(v) for v in scheme.lambda_h],
        "C_pred": s(scheme.error_constant_pred),
        "C_corr": s(scheme.error_constant_corr),
        "name": scheme.name,
    }


def _json_int(value) -> int:
    """value when it is a JSON integer; a fractional number, a string or a
    boolean raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{json.dumps(value)} is not an integer")
    return value


def scheme_from_dict(data: dict) -> MultistepScheme:
    """Inverse of scheme_to_dict.  The scheme is built from its weights alone;
    lambda_h, C_pred and C_corr may be omitted, and when present must equal
    the values derived from the weights.  A missing, malformed or disagreeing
    field raises ValidationError naming it."""
    if not isinstance(data, dict):
        raise ValidationError("a scheme must be a JSON object")

    def read(key, convert=_fraction_tuple):
        if key not in data:
            raise ValidationError(f"scheme has no {key!r} field")
        try:
            return convert(data[key])
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"scheme field {key!r}: {exc}") from None

    m = read("m", _json_int)
    corrector = CorrectorCoefficients(
        alpha=read("alpha"), gamma0=read("gamma0", as_fraction), gamma=read("gamma"))
    predictor = PredictorCoefficients(
        alpha_tilde=read("alpha_tilde"), gamma_tilde=read("gamma_tilde"))
    if corrector.m != m:
        raise ValidationError("declared step count m disagrees with coefficient lengths")
    scheme = MultistepScheme(predictor, corrector, name=data.get("name", ""))
    derived = scheme_to_dict(scheme)
    for key, convert in (("lambda_h", _fraction_tuple), ("C_pred", as_fraction),
                         ("C_corr", as_fraction)):
        if key in data and read(key, convert) != convert(derived[key]):
            raise ValidationError(f"scheme field {key!r} is {json.dumps(data[key])}, "
                                  f"but the weights give {json.dumps(derived[key])}")
    return scheme


def scheme_to_json(scheme: MultistepScheme, indent: int = 2) -> str:
    return json.dumps(scheme_to_dict(scheme), indent=indent, allow_nan=False)


def scheme_from_json(text: str) -> MultistepScheme:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not JSON: {exc}") from None
    return scheme_from_dict(data)


def load_scheme(path) -> MultistepScheme:
    """Read a scheme file; malformed content raises ValidationError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return scheme_from_json(fh.read())
    except ValueError as exc:  # ValidationError, or UnicodeDecodeError on non-UTF-8 bytes
        raise ValidationError(f"{path}: {exc}") from None
