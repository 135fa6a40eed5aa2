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
from .schemes import MultistepScheme

STABLE = "stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

DEFAULT_TOL = 1e-8


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


def characteristic_polynomial(scheme: MultistepScheme) -> tuple[float, ...]:
    """(1, -alpha_1, ..., -alpha_m), the coefficients of the scheme's
    corrector polynomial, highest degree first."""
    if not isinstance(scheme, MultistepScheme):
        raise TypeError("expected a MultistepScheme")
    return (1.0, *(-float(a) for a in scheme.corrector.alpha))


def polynomial_roots(coeffs) -> list[complex]:
    """All roots of a monic polynomial of degree >= 1, coefficients highest
    degree first: companion-matrix eigenvalues plus one Newton polish each.

    Each returned root r satisfies |P(r)| <= 1e-9 * max|coeff|; anything
    worse raises NumericalError.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if len(coeffs) < 2 or coeffs[0] != 1.0:
        raise ValueError(f"need a monic polynomial of degree >= 1, got {coeffs.tolist()}")
    companion = np.eye(len(coeffs) - 1, k=-1)
    companion[0] = -coeffs[1:]
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    dp = np.polyval(np.polyder(coeffs), roots)
    safe = np.abs(dp) > np.finfo(float).tiny
    roots = roots - np.divide(np.polyval(coeffs, roots), dp, out=np.zeros_like(roots),
                              where=safe)
    residual = np.abs(np.polyval(coeffs, roots))
    bound = 1e-9 * np.max(np.abs(coeffs))
    if np.any(residual > bound):
        raise NumericalError(
            f"root residual {residual.max():.3e} above {bound:.3e}; "
            f"partial roots: {roots.tolist()}"
        )
    return sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))


def _violations(roots: list[complex], tol: float):
    """Offending roots (modulus beyond 1 + tol, or multiple on the unit band),
    cluster centroids and multiplicities.  Roots closer than tol, transitively,
    share a label and form one cluster; clusters keep the order of their first
    roots, and their members the order of roots."""
    label = list(range(len(roots)))
    for j, r in enumerate(roots):
        for i in range(j):
            if label[i] != label[j] and abs(roots[i] - r) < tol:
                merged = label[j]
                label = [label[i] if k == merged else k for k in label]
    clusters: dict[int, list[complex]] = {}
    for r, k in zip(roots, label):
        clusters.setdefault(k, []).append(r)
    offending, reps, mults = [], [], []
    for members in clusters.values():
        centroid = sum(members) / len(members)
        reps.append(centroid)
        mults.append(len(members))
        modulus = abs(centroid)
        if modulus > 1.0 + tol or (abs(modulus - 1.0) <= tol and len(members) >= 2):
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
    status = UNSTABLE if offending else STABLE
    if (status == STABLE and any(abs(abs(r) - 1.0) <= tol for r in roots)
            and any(_violations(roots, t)[0] for t in (tol / 10.0, tol * 10.0))):
        status = MARGINAL
    return StabilityVerdict(
        status=status, roots=reps, multiplicities=mults,
        offending=sorted(offending, key=lambda z: (z.real, z.imag)), tol=tol,
    )


def scheme_verdict(scheme, tol: float = DEFAULT_TOL) -> StabilityVerdict:
    """Characteristic polynomial -> roots -> root condition, in one call."""
    return check_root_condition(polynomial_roots(characteristic_polynomial(scheme)), tol=tol)


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
