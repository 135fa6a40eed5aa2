"""Statistical infrastructure and the experiment harness."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, optimize

from fbsde_pc import (
    ValidationError,
    batch_ci,
    convergence_rate,
    emit_report,
    example1,
    experiments,
    run_trial,
    stability_demo,
    t_quantile,
)
from fbsde_pc.experiments import (
    PAPER_LADDER,
    ConvergenceReport,
    LadderRow,
    TrialLadder,
    batch_seed,
    pairwise_rates,
    plot_data,
    report_csv,
    run_ladder,
)
from fbsde_pc.problems import constant_problem, exponential_ode
from fbsde_pc.schemes import adams_pair, stable_preset, unstable_two_step


def t_quantile_oracle(p, df):
    """Invert the t CDF by numeric integration of the density (independent of
    the incomplete-beta route used by the implementation).  The density is
    integrated from 0 and symmetry supplies the other half, which keeps the
    quadrature accurate for heavy tails."""
    const = math.gamma((df + 1) / 2.0) / (math.sqrt(df * math.pi) * math.gamma(df / 2.0))
    density = lambda u: const * (1.0 + u * u / df) ** (-(df + 1) / 2.0)

    def cdf(x):
        half, _ = integrate.quad(density, 0.0, abs(x), limit=200)
        return 0.5 + math.copysign(half, x)

    hi = 10.0
    while cdf(hi) < p and hi < 1e8:
        hi *= 10.0
    return optimize.brentq(lambda x: cdf(x) - p, -hi, hi, xtol=1e-10)


class TestTQuantile:
    def test_median_is_zero(self):
        for df in (1, 5, 50):
            assert t_quantile(0.5, df) == 0.0

    def test_against_integration_oracle(self):
        for p, df in ((0.975, 20), (0.95, 5), (0.9, 1), (0.99, 7)):
            assert t_quantile(p, df) == pytest.approx(t_quantile_oracle(p, df), abs=1e-8)

    def test_classic_value(self):
        assert t_quantile(0.975, 20) == pytest.approx(2.0860, abs=1e-4)

    def test_df_one(self):
        assert t_quantile(0.975, 1) == pytest.approx(12.7062, abs=1e-3)

    def test_normal_limit(self):
        assert t_quantile(0.975, 10**6) == pytest.approx(1.9600, abs=1e-3)

    def test_symmetry(self):
        assert t_quantile(0.025, 20) == pytest.approx(-t_quantile(0.975, 20), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            t_quantile(0.0, 5)
        with pytest.raises(ValidationError):
            t_quantile(0.5, 0)


class TestBatchCi:
    def test_zero_variance(self):
        mean, lo, hi = batch_ci([0.25] * 8)
        assert (mean, lo, hi) == (0.25, 0.25, 0.25)

    def test_quantile_used_for_21_batches(self):
        rng = np.random.default_rng(0)
        errors = rng.uniform(0, 1, 21)
        mean, lo, hi = batch_ci(errors)
        half = t_quantile(0.975, 20) * math.sqrt(errors.var(ddof=1) / 21)
        assert hi - mean == pytest.approx(half, rel=1e-12)
        assert lo <= mean <= hi

    def test_two_batches_df_one(self):
        mean, lo, hi = batch_ci([0.0, 2.0])
        assert mean == 1.0
        # sample var 2, sqrt(2/2) = 1, t quantile at df = 1
        assert hi - mean == pytest.approx(12.7062, abs=1e-3)

    def test_too_few(self):
        with pytest.raises(ValidationError, match="at least two batches"):
            batch_ci([1.0])

    def test_coverage_on_synthetic_gaussian(self):
        rng = np.random.default_rng(123)
        mu, sigma, batches, reps = 0.5, 0.1, 21, 2000
        covered = 0
        for _ in range(reps):
            draws = rng.normal(mu, sigma, batches)
            _, lo, hi = batch_ci(draws)
            covered += lo <= mu <= hi
        assert covered / reps == pytest.approx(0.95, abs=0.03)


class TestConvergenceRate:
    def test_first_order_exact(self):
        Ns = [5, 10, 20, 40]
        errors = [1.0 / n for n in Ns]
        assert convergence_rate(Ns, errors) == pytest.approx(1.0, abs=1e-12)

    def test_third_order_exact(self):
        Ns = [4, 8, 16]
        errors = [n ** (-3.0) for n in Ns]
        assert convergence_rate(Ns, errors) == pytest.approx(3.0, abs=1e-12)

    def test_published_step2_errors_give_positive_rate(self):
        Ns = [5, 10, 15, 20]
        errors = [7.960e-3, 7.012e-4, 6.128e-4, 4.276e-4]
        rate = convergence_rate(Ns, errors)
        assert rate > 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive to fit a rate"):
            convergence_rate([5, 10], [1e-3, 0.0])

    def test_pairwise(self):
        rates = pairwise_rates([5, 10, 20], [4e-2, 1e-2, 2.5e-3])
        assert rates == pytest.approx([2.0, 2.0])


class TestBatchSeed:
    def test_deterministic_and_distinct(self):
        assert batch_seed(7, 0) == batch_seed(7, 0)
        seeds = {batch_seed(7, j) for j in range(50)}
        assert len(seeds) == 50
        assert batch_seed(8, 0) != batch_seed(7, 0)


class TestRunTrial:
    def test_constant_problem_zero_error(self):
        trial = run_trial(constant_problem(value=2.0, d=1), stable_preset(1),
                          N=5, M=500, seed=0)
        assert trial.err_y <= 1e-10
        assert trial.err_z <= 1e-8

    def test_deterministic_identical_runs(self):
        problem = exponential_ode()
        a = run_trial(problem, adams_pair(2), N=10, M=1, seed=3)
        b = run_trial(problem, adams_pair(2), N=10, M=1, seed=3)
        assert a.err_y == b.err_y
        assert a.y0 == b.y0

    def test_sigma_zero_problem_runs_the_reduction(self, monkeypatch):
        # exponential_ode declares sigma = 0: run_trial runs the reduction (the
        # pinned values are the ones it gave when a switch chose it), samples
        # nothing and reads neither M nor seed
        def no_simulation(*args, **kwargs):
            raise AssertionError("a sigma = 0 problem sampled paths")

        monkeypatch.setattr(experiments, "sample_ensemble", no_simulation)
        for M, seed in ((1, 3), (10000, 0)):
            trial = run_trial(exponential_ode(), adams_pair(2), N=10, M=M, seed=seed)
            assert repr(trial.y0) == "0.3675114292085898"
            assert repr(trial.err_y) == "0.00036801196285252136"
            assert trial.z0.tolist() == [0.0]

    def test_requires_closed_form(self):
        import dataclasses
        bare = dataclasses.replace(constant_problem(), closed_form_y=None,
                                   closed_form_z=None)
        with pytest.raises(ValidationError):
            run_trial(bare, stable_preset(1), N=4, M=10, seed=0)


def tiny_report():
    rows = [
        LadderRow(N=5, M=100, err_y=4e-2, ci_y=(3e-2, 5e-2),
                  err_z=2e-2, ci_z=(1e-2, 3e-2), runtime_sec=0.5),
        LadderRow(N=10, M=100, err_y=1e-2, ci_y=(0.8e-2, 1.2e-2),
                  err_z=1e-2, ci_z=(0.5e-2, 1.5e-2), runtime_sec=0.9),
    ]
    return ConvergenceReport(rows=rows, rate_y=2.0, rate_z=1.0,
                             pairwise_y=[2.0], pairwise_z=[1.0],
                             metadata={"problem": "toy"})


def without_runtime(path):
    """A report file's bytes with the runtime_sec column (the last CSV field)
    or key (one JSON line) dropped: the one part that two runs of a ladder do
    not share."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        return re.sub(rb",[^,\n]*$", b"", data, flags=re.M)
    return re.sub(rb'"runtime_sec": .*', b"", data)


class TestReports:
    def test_empty_report_header_only(self):
        report = ConvergenceReport(rows=[], rate_y=None, rate_z=None,
                                   pairwise_y=[], pairwise_z=[], metadata={})
        text = report_csv(report)
        assert text.splitlines() == [
            "N,M,err_y,ci_y_lo,ci_y_hi,err_z,ci_z_lo,ci_z_hi,runtime_sec"]

    def test_row_roundtrip_through_parse(self):
        text = report_csv(tiny_report())
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        header, row = lines[0].split(","), lines[1].split(",")
        parsed = dict(zip(header, row))
        assert int(parsed["N"]) == 5
        assert float(parsed["err_y"]) == 4e-2
        assert float(parsed["ci_z_hi"]) == 3e-2

    def test_rate_footer_present(self):
        text = report_csv(tiny_report())
        assert "# rate_y=2.0" in text
        assert "# rate_z=1.0" in text

    def test_plot_data_log2_pairs(self):
        lines = plot_data(tiny_report(), "y").splitlines()
        lg_n, lg_e = (float(v) for v in lines[0].split())
        assert lg_n == pytest.approx(math.log2(5))
        assert lg_e == pytest.approx(math.log2(4e-2))

    def test_emit_report_files(self, tmp_path):
        written = emit_report(tiny_report(), tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"out.csv", "out.json", "out_y.dat", "out_z.dat"}
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["rate_y"] == 2.0
        assert len(doc["rows"]) == 2


class TestLadder:
    def make_ladder(self, **kw):
        problem = exponential_ode()
        defaults = dict(problem=problem, scheme=adams_pair(2),
                        pairs=((10, 1), (20, 1)), batches=3, base_seed=1)
        defaults.update(kw)
        return TrialLadder(**defaults)

    def test_deterministic_ladder_rates(self):
        report = run_ladder(self.make_ladder(pairs=((10, 1), (20, 1), (40, 1))))
        assert report.rate_y == pytest.approx(2.0, abs=0.2)

    def test_regenerated_report_byte_identical(self, tmp_path):
        # a Monte Carlo ladder: two runs write the same files, and those are
        # the bytes recorded when the deterministic switches still existed
        ladder = self.make_ladder(problem=example1(d=1), pairs=((4, 60), (8, 60)))
        a = emit_report(run_ladder(ladder), tmp_path / "a")
        b = emit_report(run_ladder(ladder), tmp_path / "b")
        for pa, pb in zip(a, b):
            assert without_runtime(pa) == without_runtime(pb)
        assert {p.name: hashlib.sha256(without_runtime(p)).hexdigest() for p in a} == {
            "a.csv": "4728597d3ddff6aa284c5b3bed29c5bdf865f53771edbd783a5f398fe465ea64",
            "a.json": "8ef5eff6061fc31162a8dd7b094fa841f78acc77e659a48dc5755e99b53ffbf5",
            "a_y.dat": "7226abd0f925761cc96d7ab1d5d1df827316e95d3bd74229fe349f937317a505",
            "a_z.dat": "479f6cc3294d5f076bdca36e80d46e08940ddd0d2cebe926c01836cf0a55c94d",
        }

    def test_sigma_zero_ladder_solves_each_row_once(self, tmp_path, monkeypatch):
        # the sigma = 0 reduction reads no seed: one trial per row stands for
        # all 21 batches, the row's runtime is that trial's, and the files are
        # the bytes recorded when every batch ran the reduction again
        trials = []
        original = experiments.run_trial

        def recording(*args, **kwargs):
            trials.append(original(*args, **kwargs))
            return trials[-1]

        monkeypatch.setattr(experiments, "run_trial", recording)
        report = run_ladder(self.make_ladder(pairs=((10, 1), (20, 1), (40, 1)), batches=21))
        assert len(trials) == 3
        assert [row.runtime_sec for row in report.rows] == [t.runtime_sec for t in trials]
        written = emit_report(report, tmp_path / "a")
        assert {p.name: hashlib.sha256(without_runtime(p)).hexdigest() for p in written} == {
            "a.csv": "05c3be055a893e88d5fac272bd7e92ed37e5bdc905a2efbb6781cf04309e1c06",
            "a.json": "ddb9c5a18ad0c2e2121bfb66fca46a5ef86267f4f2954d241786ad81caae6632",
            "a_y.dat": "6c00aafd4aa51388c3d05a6cf4a0b1dd8a5ce08f4e3a9a9322d24bee729993a2",
            "a_z.dat": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        }

    def test_batch_count_guard(self):
        with pytest.raises(ValidationError, match="at least two batches"):
            self.make_ladder(batches=1)

    def test_paper_ladder_pairs(self):
        assert PAPER_LADDER == ((5, 2778), (10, 5996), (15, 8809), (20, 12018))

    def test_internal_consistency_of_rates(self):
        report = run_ladder(self.make_ladder(pairs=((10, 1), (20, 1), (40, 1))))
        Ns = [r.N for r in report.rows]
        errs = [r.err_y for r in report.rows]
        assert report.rate_y == pytest.approx(convergence_rate(Ns, errs))


class TestStabilityDemo:
    def test_stable_scheme_decreasing(self):
        result = stability_demo(exponential_ode(), adams_pair(2),
                                Ns=(10, 20, 40), M=1, seed=0)
        assert result.classification == "decreasing"

    def test_unstable_scheme_irregular(self):
        result = stability_demo(exponential_ode(), unstable_two_step(),
                                Ns=(10, 20, 40), M=1, seed=0)
        assert result.classification == "irregular"
        assert result.errors[-1] > result.errors[0]

    def test_numerical_breakdown_recorded_as_none(self):
        result = stability_demo(exponential_ode(), unstable_two_step(),
                                Ns=(10, 2000), M=1, seed=0)
        assert math.isfinite(result.errors[0])
        assert result.errors[1] is None
        assert result.classification == "irregular"

    def test_validation_error_propagates(self):
        # a Monte Carlo problem: the sigma = 0 reduction of exponential_ode
        # runs the constant basis and reads no basis_degree
        with pytest.raises(ValidationError, match="degree must be >= 0"):
            stability_demo(constant_problem(), adams_pair(2), Ns=(10, 20), M=50,
                           seed=0, basis_degree=-1)
