"""Dahlquist root-condition analysis for multi-step correctors.

A corrector with solution weights alpha has characteristic polynomial
P(z) = z^m - alpha_1 z^{m-1} - ... - alpha_m.  The scheme is numerically
stable iff all roots lie in the closed unit disk and the boundary roots are
simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError, ValidationError
from .schemes import Coefficients, MultistepScheme

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CharacteristicPolynomial:
    """Monic real polynomial, coefficients highest degree first."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) < 2:
            raise ValueError("degree must be >= 1")
        if self.coeffs[0] != 1.0:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@dataclass
class StabilityVerdict:
    status: str
    roots: list[complex]
    multiplicities: list[int]
    offending: list[complex] = field(default_factory=list)
    tol: float = DEFAULT_TOL

    @property
    def is_stable(self) -> bool:
        return self.status == STABLE


def characteristic_polynomial(corrector) -> CharacteristicPolynomial:
    """(1, -alpha_1, ..., -alpha_m) from a corrector or a full scheme."""
    if isinstance(corrector, MultistepScheme):
        corrector = corrector.corrector
    if not isinstance(corrector, Coefficients):
        raise TypeError("expected Coefficients or MultistepScheme")
    return CharacteristicPolynomial(
        coeffs=(1.0, *(-float(a) for a in corrector.alpha)))


def polynomial_roots(poly: CharacteristicPolynomial) -> list[complex]:
    """All roots via companion-matrix eigenvalues plus one Newton polish each.

    Each returned root r satisfies |P(r)| <= 1e-9 * max|coeff|; anything
    worse raises NumericalError.
    """
    coeffs = np.asarray(poly.coeffs, dtype=float)
    n = poly.degree
    companion = np.zeros((n, n))
    companion[0, :] = -coeffs[1:]
    companion[np.arange(1, n), np.arange(0, n - 1)] = 1.0
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    deriv = np.polyder(coeffs)
    p = np.polyval(coeffs, roots)
    dp = np.polyval(deriv, roots)
    safe = np.abs(dp) > np.finfo(float).tiny
    roots = np.where(safe, roots - np.where(safe, p, 0) / np.where(safe, dp, 1), roots)
    residual = np.abs(np.polyval(coeffs, roots))
    bound = 1e-9 * np.max(np.abs(coeffs))
    if np.any(residual > bound):
        raise NumericalError(
            f"root residual {residual.max():.3e} above {bound:.3e}; "
            f"partial roots: {roots.tolist()}"
        )
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def _cluster(roots: list[complex], tol: float):
    """Group roots closer than tol (transitively) into multiplicity clusters."""
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < tol:
                parent[find(i)] = find(j)
    groups: dict[int, list[complex]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(roots[i])
    clusters = []
    for members in groups.values():
        centroid = sum(members) / len(members)
        clusters.append((centroid, members))
    return clusters


def _violations(roots: list[complex], tol: float):
    """Offending roots: modulus beyond 1 + tol, or multiple on the unit band."""
    offending = []
    reps, mults = [], []
    for centroid, members in _cluster(roots, tol):
        modulus = abs(centroid)
        reps.append(centroid)
        mults.append(len(members))
        if modulus > 1.0 + tol:
            offending.extend(members)
        elif abs(modulus - 1.0) <= tol and len(members) >= 2:
            offending.extend(members)
    return offending, reps, mults


def check_root_condition(roots, tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Decide the root condition with a clustering tolerance.

    Unstable: a root outside the closed unit disk (beyond 1 + tol) or a
    multiple root on the unit band.  When no violation exists at tol but one
    appears at tol/10 or 10*tol, the call is tolerance-sensitive and the
    verdict is Marginal rather than Stable.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be finite and > 0, got {tol}")
    roots = [complex(r) for r in roots]
    offending, reps, mults = _violations(roots, tol)
    if offending:
        status = UNSTABLE
    else:
        status = STABLE
        near_unit = any(abs(abs(r) - 1.0) <= tol for r in roots)
        if near_unit:
            for other_tol in (tol / 10.0, tol * 10.0):
                if _violations(roots, other_tol)[0]:
                    status = MARGINAL
                    break
    return StabilityVerdict(
        status=status, roots=reps, multiplicities=mults,
        offending=sorted(offending, key=lambda z: (z.real, z.imag)), tol=tol,
    )


def scheme_verdict(scheme, tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Characteristic polynomial -> roots -> root condition, in one call."""
    poly = characteristic_polynomial(scheme)
    return check_root_condition(polynomial_roots(poly), tol=tol)


def verdict_to_dict(verdict: StabilityVerdict) -> dict:
    return {
        "status": verdict.status,
        "tol": verdict.tol,
        "roots": [
            {"re": r.real, "im": r.imag, "modulus": abs(r), "multiplicity": k}
            for r, k in zip(verdict.roots, verdict.multiplicities)
        ],
        "offending": [
            {"re": r.real, "im": r.imag, "modulus": abs(r)} for r in verdict.offending
        ],
    }
