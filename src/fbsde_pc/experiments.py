"""Experiment harness: convergence ladders, batch-mean confidence intervals,
rate fitting, stability demonstrations and report emission."""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import stdtrit

from .exceptions import NumericalError, ValidationError
from .problems import FbsdeProblem, closed_form_reference
from .schemes import MultistepScheme
from .simulation import GridSpec, sample_ensemble
from .solver import SolverConfig, solve

# confidence level of every ladder row's batch interval
CI_LEVEL = 0.95

# (N, M) pairs used by the published convergence tables
PAPER_LADDER = ((5, 2778), (10, 5996), (15, 8809), (20, 12018))


# -- statistical infrastructure -------------------------------------------------

def t_quantile(p: float, df: int) -> float:
    """Student-t inverse CDF."""
    if not 0.0 < p < 1.0:
        raise ValidationError("p must lie strictly between 0 and 1")
    if df < 1:
        raise ValidationError("df must be >= 1")
    return float(stdtrit(df, p))


def batch_ci(batch_errors: Sequence[float]):
    """(mean, lower, upper) from batch averages, using the CI_LEVEL t interval
    with len-1 degrees of freedom and the unbiased variance."""
    errors = np.asarray(batch_errors, dtype=float)
    if errors.size < 2:
        raise ValidationError("confidence interval needs at least two batches")
    mean = float(errors.mean())
    var = float(errors.var(ddof=1))
    half = t_quantile(0.5 + CI_LEVEL / 2.0, errors.size - 1) * math.sqrt(var / errors.size)
    return mean, mean - half, mean + half


def convergence_rate(Ns: Sequence[float], errors: Sequence[float]) -> float:
    """Negated least-squares slope of log2(error) against log2(N)."""
    Ns = np.asarray(Ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if Ns.size != errors.size or Ns.size < 2:
        raise ValidationError("need at least two (N, error) points")
    if np.any(errors <= 0.0):
        raise ValidationError("errors must be strictly positive to fit a rate")
    slope = np.polyfit(np.log2(Ns), np.log2(errors), 1)[0]
    return float(-slope)


def pairwise_rates(Ns: Sequence[float], errors: Sequence[float]) -> list[float]:
    """Two-point rates for each adjacent ladder pair."""
    out = []
    for (n1, e1), (n2, e2) in zip(zip(Ns, errors), zip(Ns[1:], errors[1:])):
        if e1 <= 0 or e2 <= 0:
            raise ValidationError("errors must be strictly positive")
        out.append(float(math.log2(e1 / e2) / math.log2(n2 / n1)))
    return out


def _check_increasing(Ns: Sequence[int]) -> None:
    """Errors are compared across consecutive N, so each must exceed the one
    before it: a repeated N compares a run with itself."""
    if any(n2 <= n1 for n1, n2 in zip(Ns, Ns[1:])):
        raise ValidationError(f"--N values must be strictly increasing, got {list(Ns)}")


# -- single trials ---------------------------------------------------------------

@dataclass(frozen=True)
class TrialResult:
    err_y: float
    err_z: float
    runtime_sec: float
    y0: float
    z0: np.ndarray


def batch_seed(base_seed: int, batch_index: int) -> int:
    """Derived batch seed; batches are independent and order-insensitive."""
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=(int(batch_index),))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def sample_and_solve(problem: FbsdeProblem, config: SolverConfig, M: int, seed: int):
    """solve on M paths sampled from seed; for a problem that declares
    sigma = 0, the sigma = 0 reduction, which reads neither M nor seed."""
    if problem.sigma_zero:
        return solve(problem, config)
    config.check_design_budget(problem.d, M)
    return solve(problem, config, sample_ensemble(problem, config.grid, M, seed))


def run_trial(problem: FbsdeProblem, scheme: MultistepScheme, N: int, M: int,
              seed: int, basis_degree: int = 2, allow_unstable: bool = False) -> TrialResult:
    """One simulate+solve, reporting absolute errors at (0, x0) against the
    closed form; the z error is the Euclidean norm over components."""
    if not problem.has_closed_form:
        raise ValidationError("run_trial needs a problem with a closed form")
    config = SolverConfig(scheme=scheme, grid=GridSpec(T=problem.T, N=N),
                          basis_degree=basis_degree, allow_unstable=allow_unstable)
    start = time.perf_counter()
    solution = sample_and_solve(problem, config, M, seed)
    runtime = time.perf_counter() - start
    y_ref, z_ref = closed_form_reference(problem, 0.0, problem.x0)
    err_y = abs(solution.y0 - y_ref)
    err_z = float(np.linalg.norm(np.asarray(solution.z0) - z_ref))
    return TrialResult(err_y=err_y, err_z=err_z, runtime_sec=runtime,
                       y0=solution.y0, z0=np.asarray(solution.z0))


# -- convergence ladders ---------------------------------------------------------

@dataclass(frozen=True)
class TrialLadder:
    problem: FbsdeProblem
    scheme: MultistepScheme
    pairs: tuple  # ((N, M), ...)
    batches: int = 21
    base_seed: int = 0
    basis_degree: int = 2
    allow_unstable: bool = False

    def __post_init__(self):
        # every (N, M) row shares the problem's horizon by construction
        if self.batches < 2:
            raise ValidationError("a ladder needs at least two batches")
        _check_increasing([N for N, _ in self.pairs])


@dataclass
class LadderRow:
    N: int
    M: int
    err_y: float
    ci_y: tuple[float, float]
    err_z: float
    ci_z: tuple[float, float]
    runtime_sec: float


@dataclass
class ConvergenceReport:
    rows: list[LadderRow]
    rate_y: Optional[float]
    rate_z: Optional[float]
    pairwise_y: list[float]
    pairwise_z: list[float]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        rows = [{
            "N": r.N, "M": r.M,
            "err_y": r.err_y, "ci_y_lo": r.ci_y[0], "ci_y_hi": r.ci_y[1],
            "err_z": r.err_z, "ci_z_lo": r.ci_z[0], "ci_z_hi": r.ci_z[1],
            "runtime_sec": r.runtime_sec,
        } for r in self.rows]
        return {
            "rows": rows,
            "rate_y": self.rate_y,
            "rate_z": self.rate_z,
            "pairwise_y": self.pairwise_y,
            "pairwise_z": self.pairwise_z,
            "metadata": self.metadata,
        }


def run_ladder(ladder: TrialLadder) -> ConvergenceReport:
    """Run every (N, M) pair over the batch set and aggregate batch-mean CIs.

    Batch seeds derive from (base seed, batch index) alone, so rows and
    sibling ladders with the same base seed see paired randomness.
    """
    rows = []
    for N, M in ladder.pairs:
        trials = [run_trial(ladder.problem, ladder.scheme, N, M, batch_seed(ladder.base_seed, j),
                            basis_degree=ladder.basis_degree, allow_unstable=ladder.allow_unstable)
                  for j in range(1 if ladder.problem.sigma_zero else ladder.batches)]
        # the sigma = 0 reduction reads no seed: its one trial stands for every batch
        repeat = ladder.batches // len(trials)
        mean_y, lo_y, hi_y = batch_ci([trial.err_y for trial in trials] * repeat)
        mean_z, lo_z, hi_z = batch_ci([trial.err_z for trial in trials] * repeat)
        rows.append(LadderRow(N=int(N), M=int(M), err_y=mean_y, ci_y=(lo_y, hi_y),
                              err_z=mean_z, ci_z=(lo_z, hi_z),
                              runtime_sec=sum(trial.runtime_sec for trial in trials)))
    Ns = [r.N for r in rows]

    def rates(errors: list[float]):
        """(fitted rate, pairwise rates), or (None, []) unless every error is positive."""
        if len(errors) >= 2 and all(e > 0 for e in errors):
            return convergence_rate(Ns, errors), pairwise_rates(Ns, errors)
        return None, []

    rate_y, pw_y = rates([r.err_y for r in rows])
    rate_z, pw_z = rates([r.err_z for r in rows])
    metadata = {
        "problem": ladder.problem.name,
        "scheme": ladder.scheme.name or f"{ladder.scheme.m}-step",
        "steps": ladder.scheme.m,
        "batches": ladder.batches,
        "base_seed": ladder.base_seed,
        "basis_degree": ladder.basis_degree,
        "level": CI_LEVEL,
        "deterministic": ladder.problem.sigma_zero,
    }
    return ConvergenceReport(rows=rows, rate_y=rate_y, rate_z=rate_z,
                             pairwise_y=pw_y, pairwise_z=pw_z, metadata=metadata)


# -- stability demonstrations ----------------------------------------------------

@dataclass
class StabilityDemoResult:
    Ns: list[int]
    errors: list[Optional[float]]  # None where the run broke down numerically
    classification: str  # "decreasing" or "irregular"


def stability_demo(problem: FbsdeProblem, scheme: MultistepScheme,
                   Ns: Sequence[int], M: int, seed: int,
                   basis_degree: int = 2) -> StabilityDemoResult:
    """Errors against N for one scheme, classified as "decreasing" when each
    error stays within 1.5x of its predecessor scaled by the expected
    order-driven ratio, "irregular" otherwise.  Unstable schemes run under an
    automatic override; instability shows up in the classification.  A run
    that breaks down numerically (NumericalError) records its error as None
    and makes the ladder "irregular"."""
    if len(Ns) < 2:
        raise ValidationError(
            f"stability demo compares errors across N: needs at least two --N values, "
            f"got {list(Ns)}")
    _check_increasing(Ns)
    errors = []
    order = max(scheme.corrector.order(), 1)
    for N in Ns:
        try:
            trial = run_trial(problem, scheme, N, M, seed, basis_degree=basis_degree,
                              allow_unstable=True)
        except NumericalError:
            errors.append(None)
        else:
            errors.append(trial.err_y)
    decreasing = None not in errors and all(
        np.isfinite(e2) and e2 <= 1.5 * e1 * (n1 / n2) ** order
        for (n1, e1), (n2, e2) in zip(zip(Ns, errors), zip(list(Ns)[1:], errors[1:])))
    return StabilityDemoResult(Ns=list(Ns), errors=errors,
                               classification="decreasing" if decreasing else "irregular")


# -- report emission -------------------------------------------------------------

CSV_COLUMNS = ["N", "M", "err_y", "ci_y_lo", "ci_y_hi",
               "err_z", "ci_z_lo", "ci_z_hi", "runtime_sec"]


def report_csv(report: ConvergenceReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in report.to_dict()["rows"]:
        writer.writerow([repr(row[c]) for c in CSV_COLUMNS])
    if report.rate_y is not None:
        buf.write(f"# rate_y={report.rate_y!r}\n")
    if report.rate_z is not None:
        buf.write(f"# rate_z={report.rate_z!r}\n")
    return buf.getvalue()


def plot_data(report: ConvergenceReport, which: str = "y") -> str:
    """(log2 N, log2 error) pairs, one per line, for external plotting."""
    lines = []
    for r in report.rows:
        err = r.err_y if which == "y" else r.err_z
        if err > 0:
            lines.append(f"{math.log2(r.N)!r} {math.log2(err)!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def emit_report(report: ConvergenceReport, basepath,
                formats: Sequence[str] = ("csv", "json")) -> list[Path]:
    """Write the report next to basepath: .csv / .json mirrors plus
    _y.dat/_z.dat plot-data files."""
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        path = base.with_suffix(".csv")
        path.write_text(report_csv(report), encoding="utf-8")
        written.append(path)
    if "json" in formats:
        path = base.with_suffix(".json")
        path.write_text(json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n",
                        encoding="utf-8")
        written.append(path)
    for which in ("y", "z"):
        path = base.parent / (base.stem + f"_{which}.dat")
        path.write_text(plot_data(report, which), encoding="utf-8")
        written.append(path)
    return written
