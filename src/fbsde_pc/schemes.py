"""Coefficients of linear multi-step predictor-corrector schemes.

A corrector step combines m future solution levels with driver values,

    Y_i = sum_j alpha_j Y_{i+j} + h*gamma0*f(t_i, ., Ytilde_i, Z_i)
        + h * sum_j gamma_j f_{i+j},

the (explicit) predictor is the same formula with gamma0 = 0, and Z is
recovered from future levels through derivative weights lambda.  The scheme
reaches order m when the truncation coefficients C_0..C_m all vanish; C_{m+1}
is the error constant.  Everything in this module is exact: coefficients are
Fractions and stay Fractions until a solver converts them to floats.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence, Union

from .exceptions import DegenerateIndicator, ValidationError

NumberLike = Union[int, str, float, Fraction]

# conditioning is not an issue in exact arithmetic, but nothing past this is
# exercised or tested, so refuse rather than silently extrapolate
MAX_STEP_COUNT = 12

# Fraction builds 10^|exponent| of a decimal string exactly, in time that grows
# faster than the exponent; past Python's 4300-digit str limit it cannot be written
MAX_DECIMAL_EXPONENT = 4300
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?0*(\d+(?:_\d+)*)\s*\Z")


def as_fraction(value: NumberLike) -> Fraction:
    """Coerce to an exact Fraction (floats via their binary expansion).  A
    boolean is not a number here, and a string's decimal exponent may not
    exceed MAX_DECIMAL_EXPONENT in magnitude."""
    if isinstance(value, bool) or not isinstance(value, (int, str, float, Fraction)):
        raise TypeError(f"cannot interpret {value!r} as a rational number")
    if isinstance(value, str):
        # int() never reads a long exponent: ten characters exceed 10^4
        exponent = _DECIMAL_EXPONENT.search(value)
        if exponent and (len(exponent[1]) > 9 or int(exponent[1]) > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
    return Fraction(value)


def _fraction_tuple(values: Sequence[NumberLike]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


@dataclass(frozen=True)
class Coefficients:
    """Weights of one multi-step formula: m solution weights alpha, the
    current-driver weight gamma0 and m future driver weights gamma.  A
    corrector puts gamma0 on the predicted value; a predictor is the explicit
    member of the family, gamma0 = 0."""

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

    def order(self) -> int:
        """Largest n with C_0 = ... = C_n = 0 (exact), looking up to C_{2m+4}."""
        residuals = truncation_residuals(self, 2 * self.m + 4)
        return next((j for j, c in enumerate(residuals) if c != 0), len(residuals)) - 1


@dataclass(frozen=True)
class MultistepScheme:
    """A complete predictor-corrector scheme, ready for the backward solver.

    Only the two coefficient sets and the name are chosen; the predictor must
    be explicit (gamma0 = 0).  The derivative weights lambda_h and the error
    constants Ctilde and C are derived from the weights once, at
    construction, so they cannot disagree with them.
    """

    predictor: Coefficients
    corrector: Coefficients
    name: str = ""
    lambda_h: tuple[Fraction, ...] = field(init=False)
    error_constant_pred: Fraction = field(init=False)
    error_constant_corr: Fraction = field(init=False)

    def __post_init__(self):
        if self.predictor.gamma0 != 0:
            raise ValidationError("the predictor must be explicit (gamma0 = 0), "
                                  f"got gamma0 = {self.predictor.gamma0}")
        if self.predictor.m != self.corrector.m:
            raise ValidationError("predictor and corrector disagree on step count")
        object.__setattr__(self, "lambda_h", derivative_weights(self.m))
        object.__setattr__(self, "error_constant_pred", error_constant(self.predictor))
        object.__setattr__(self, "error_constant_corr", error_constant(self.corrector))

    @property
    def m(self) -> int:
        return self.corrector.m


# -- truncation residuals -----------------------------------------------------

def _alpha_row_coeff(j: int, l: int) -> Fraction:
    return -Fraction(l**j) / factorial(j)


def _gamma_row_coeff(j: int, l: int) -> Fraction:
    # l = 0 encodes gamma0, which only enters C_1
    if l == 0:
        return Fraction(1) if j == 1 else Fraction(0)
    if j == 0:
        return Fraction(0)
    return Fraction(l ** (j - 1)) / factorial(j - 1)


def truncation_residuals(coeffs: Coefficients, up_to: int) -> list[Fraction]:
    """Evaluate the truncation coefficients C_0..C_{up_to} exactly.

    C_0 = 1 - sum(alpha); for j >= 1,
    C_j = -(1/j!) sum_l l^j alpha_l + (1/(j-1)!) sum_l l^{j-1} gamma_l,
    with gamma0 entering the j = 1 sum only.
    """
    if up_to < 0:
        raise ValueError("up_to must be >= 0")
    return [Fraction(j == 0)
            + sum(_alpha_row_coeff(j, l) * a for l, a in enumerate(coeffs.alpha, 1))
            + sum(_gamma_row_coeff(j, l) * g
                  for l, g in enumerate((coeffs.gamma0, *coeffs.gamma)))
            for j in range(up_to + 1)]


def error_constant(coeffs: Coefficients) -> Fraction:
    """First truncation coefficient past the scheme's step count, C_{m+1}."""
    return truncation_residuals(coeffs, coeffs.m + 1)[-1]


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


def solve_order_conditions(
    m: int,
    *,
    alpha: Optional[Sequence] = None,
    gamma0: Optional[NumberLike] = None,
    gamma: Optional[Sequence] = None,
) -> Coefficients:
    """Solve C_0 = ... = C_m = 0 for the unpinned weights.

    Each pin argument may be omitted (all entries unknown) or a length-m
    sequence with None marking unknowns; gamma0 is a scalar pin, and
    gamma0=0 gives an explicit predictor.  The order conditions leave a
    family of order-m schemes, so enough pins must be supplied to make the
    solution unique; pinned values are kept exactly.
    """
    if m < 1:
        raise ValidationError("step count must be >= 1")
    # one slot per weight, alpha_1..alpha_m then gamma0..gamma_m (gamma0 is l = 0)
    slots = [("a", l) for l in range(1, m + 1)] + [("g", l) for l in range(m + 1)]
    pins = dict(zip(slots, [*_normalize_pins(alpha, m, "alpha"),
                            None if gamma0 is None else as_fraction(gamma0),
                            *_normalize_pins(gamma, m, "gamma")]))
    unknowns = [s for s in slots if pins[s] is None]
    index = {s: k for k, s in enumerate(unknowns)}
    rows, rhs = [], []
    for j in range(m + 1):
        row = [Fraction(0)] * len(unknowns)
        const = Fraction(j == 0)
        for kind, l in slots:
            coeff = _alpha_row_coeff(j, l) if kind == "a" else _gamma_row_coeff(j, l)
            if pins[(kind, l)] is None:
                row[index[(kind, l)]] += coeff
            else:
                const += coeff * pins[(kind, l)]
        rows.append(row)
        rhs.append(-const)
    solution = iter(_solve_exact(rows, rhs))
    values = [next(solution) if pins[s] is None else pins[s] for s in slots]
    return Coefficients(alpha=values[:m], gamma0=values[m], gamma=values[m + 1:])


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
    predictor = solve_order_conditions(order, alpha=nearest, gamma0=0)
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
    predictor = solve_order_conditions(m, alpha=uniform, gamma0=0)
    corrector = solve_order_conditions(m, alpha=uniform, gamma0=_UNIFORM_GAMMA0[m])
    return MultistepScheme(predictor, corrector, name=f"uniform-{m}")


def unstable_two_step() -> MultistepScheme:
    """Order-2 scheme whose characteristic root 2 violates the root condition."""
    predictor = Coefficients(alpha=(3, -2), gamma0=0, gamma=(Fraction(1, 2), Fraction(-3, 2)))
    corrector = Coefficients(alpha=(3, -2), gamma0=1, gamma=(Fraction(-3, 2), Fraction(-1, 2)))
    return MultistepScheme(predictor, corrector, name="unstable-2")


def unstable_three_step() -> MultistepScheme:
    """Order-3 scheme with characteristic roots {-2, 1, 3}; unstable."""
    predictor = Coefficients(alpha=(2, 5, -6), gamma0=0, gamma=(2, -6, -2))
    corrector = Coefficients(alpha=(2, 5, -6), gamma0=-3, gamma=(11, -15, 1))
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
    """Plain-dict form with every number as an exact fraction/decimal string.
    The predictor's gamma0 is 0 by construction and has no key.  A number
    with more digits than Python writes as a string raises ValidationError
    naming its field."""
    pred, corr = scheme.predictor, scheme.corrector
    out = {"m": scheme.m}
    for key, value in (("alpha", corr.alpha), ("gamma0", corr.gamma0), ("gamma", corr.gamma),
                       ("alpha_tilde", pred.alpha), ("gamma_tilde", pred.gamma),
                       ("lambda_h", scheme.lambda_h), ("C_pred", scheme.error_constant_pred),
                       ("C_corr", scheme.error_constant_corr)):
        try:
            out[key] = str(value) if isinstance(value, Fraction) else [str(v) for v in value]
        except ValueError:
            raise ValidationError(f"scheme field {key!r}: a number too long to write "
                                  "as a string") from None
    return {**out, "name": scheme.name}


def _json_int(value) -> int:
    """value when it is a JSON integer; a fractional number, a string or a
    boolean raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{json.dumps(value)} is not an integer")
    return value


def _json_weights(value) -> tuple[Fraction, ...]:
    """value's entries as Fractions when it is a JSON array; anything else
    (a string would be read one character at a time) raises TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"{json.dumps(value)} is not an array")
    return _fraction_tuple(value)


# the keys scheme_to_dict writes; a scheme file may hold no others
_FIELDS = ("m", "alpha", "gamma0", "gamma", "alpha_tilde", "gamma_tilde", "lambda_h",
           "C_pred", "C_corr", "name")


def scheme_from_dict(data: dict) -> MultistepScheme:
    """Inverse of scheme_to_dict.  The scheme is built from its weights alone;
    lambda_h, C_pred and C_corr may be omitted, and when present must equal
    the values derived from the weights.  A missing, malformed, disagreeing
    or unknown field raises ValidationError naming it; a weight list must be
    a JSON array, and no weight may be a boolean."""
    if not isinstance(data, dict):
        raise ValidationError("a scheme must be a JSON object")
    unknown = [key for key in data if key not in _FIELDS]
    if unknown:
        raise ValidationError(f"scheme has unknown field {', '.join(map(repr, unknown))}")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValidationError(f"scheme field 'name': {json.dumps(name)} is not a string")

    def read(key, convert=_json_weights):
        if key not in data:
            raise ValidationError(f"scheme has no {key!r} field")
        try:
            return convert(data[key])
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ValidationError(f"scheme field {key!r}: {exc}") from None

    m = read("m", _json_int)
    corrector = Coefficients(
        alpha=read("alpha"), gamma0=read("gamma0", as_fraction), gamma=read("gamma"))
    predictor = Coefficients(alpha=read("alpha_tilde"), gamma0=0, gamma=read("gamma_tilde"))
    if corrector.m != m:
        raise ValidationError("declared step count m disagrees with coefficient lengths")
    scheme = MultistepScheme(predictor, corrector, name=name)
    derived = scheme_to_dict(scheme)
    for key, convert in (("lambda_h", _json_weights), ("C_pred", as_fraction),
                         ("C_corr", as_fraction)):
        if key in data and read(key, convert) != convert(derived[key]):
            raise ValidationError(f"scheme field {key!r} is {json.dumps(data[key])}, "
                                  f"but the weights give {json.dumps(derived[key])}")
    return scheme


def scheme_to_json(scheme: MultistepScheme) -> str:
    return json.dumps(scheme_to_dict(scheme), indent=2, allow_nan=False)


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
