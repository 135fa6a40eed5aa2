"""Command-line interface: subcommands, config files, exit codes."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbsde_pc import SolverConfig, adams_pair, closed_form_reference, stable_preset
from fbsde_pc import cli, experiments
from fbsde_pc.cli import build_parser, main, read_config
from fbsde_pc.problems import PROBLEM_REGISTRY
from fbsde_pc.schemes import scheme_to_dict, scheme_to_json, unstable_two_step


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def scheme_json(key, value):
    """stable_preset(2) as scheme JSON with one field replaced (dropped when None)."""
    doc = scheme_to_dict(stable_preset(2))
    doc[key] = value
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def weights_json(key, value):
    """stable_preset(2)'s weights alone, with one field set, so that no derived
    field can disagree with a misread weight."""
    doc = {k: v for k, v in scheme_to_dict(stable_preset(2)).items()
           if k not in ("lambda_h", "C_pred", "C_corr")}
    return json.dumps({**doc, key: value})


def adams2_with_stable2_constants():
    """adams_pair(2)'s weights carrying stable_preset(2)'s error constants."""
    stable = scheme_to_dict(stable_preset(2))
    return json.dumps({**scheme_to_dict(adams_pair(2)),
                       "C_pred": stable["C_pred"], "C_corr": stable["C_corr"]})


def thirteen_step_json():
    """A 13-step scheme file (one past MAX_STEP_COUNT) carrying its own lambda_h."""
    nearest = ["1"] + ["0"] * 12
    return json.dumps({"m": 13, "alpha": nearest, "gamma0": "1", "gamma": ["0"] * 13,
                       "alpha_tilde": nearest, "gamma_tilde": nearest,
                       "lambda_h": ["-1", "1"] + ["0"] * 12})


# sha256 of `fbsde-pc coeffs --family F --steps m` for every preset, recorded
# when the predictor and corrector became one coefficient type: the scheme
# file format must not change under a refactor of the types behind it
COEFFS_SHA256 = {
    ("stable", 1): "6d578b4d7887c8399c9ffdd07d082bc7f3edb3945b0cd6178c8e2ca31619d1d1",
    ("stable", 2): "7257d5e49f9077ca80aa037c2d194ffcac37ce24d4c6cec9008d2302872d4338",
    ("stable", 3): "95eca1645e3057b16f6c36d1c27a52cf91857da2df6af4f03654e38c89970908",
    ("stable", 4): "d137ea4e5db08979e43be23efd62631d53db256ea36b3c273b06475eaecf6c0a",
    ("adams", 1): "be4873f47ca97b0bca3bb2f6c492896855513c15b127e43b017fb57c1f880ada",
    ("adams", 2): "0894353cd7379eaf05ede984032cad255825cd197e8ed3aaf0c87c7d9133e8c4",
    ("adams", 3): "19fcf24489432a8c2a69a03ae793d4e55eaf9f201dee0367c5236153c5b66bc9",
    ("adams", 4): "53b134ea174b818677c2267d73a5ede8fa1f45ae63f8ac131fcc8040651716e8",
    ("adams", 5): "bf6dccfdb0123b3c9fd7a985f2e1121de3825cf9f1ed2f88adba2ba995d3b00e",
    ("adams", 6): "4f794c2ccf8bcc6ff1ed4aff12d67a3f476a7be7636f0a5b069e488187366834",
    ("unstable", 2): "b7040c532388dae3698540cea7e6b33029419ef8a1da867494995daf4fe0e48a",
    ("unstable", 3): "2b2339b5eb1da188435421eac34a1f1f1f9957d3717866bae5147cf1446576e0",
}


class TestCoeffs:
    @pytest.mark.parametrize("family, m", sorted(COEFFS_SHA256))
    def test_output_bytes_are_pinned(self, capsys, family, m):
        code, out, _ = run_cli(capsys, "coeffs", "--family", family, "--steps", str(m))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == COEFFS_SHA256[(family, m)]

    def test_prints_adams_scheme(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--steps", "2", "--family", "adams")
        assert code == 0
        doc = json.loads(out)
        assert doc == scheme_to_dict(adams_pair(2))

    def test_default_family_is_stable(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--steps", "3")
        assert code == 0
        assert json.loads(out)["gamma0"] == "5/6"

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "scheme.json"
        code, _, _ = run_cli(capsys, "coeffs", "--steps", "1", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["m"] == 1

    def test_bad_steps_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--steps", "9", "--family", "adams")
        assert code == 2
        assert "error" in err


class TestStability:
    def test_verdict_from_scheme_file(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        path.write_text(scheme_to_json(unstable_two_step()) + "\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "stability", "--scheme", str(path),
                               "--tol", "1e-8")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "unstable"
        assert len(doc["offending"]) == 1
        assert doc["offending"][0]["re"] == pytest.approx(2.0, abs=1e-8)
        assert {"re", "im", "modulus", "multiplicity"} <= set(doc["roots"][0])

    def test_verdict_from_steps(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--steps", "3")
        assert code == 0
        assert json.loads(out)["status"] == "stable"

    @pytest.mark.parametrize("family, m", [("stable", m) for m in range(1, 5)]
                             + [("adams", k) for k in range(1, 7)]
                             + [("unstable", 2), ("unstable", 3)])
    def test_coeffs_file_gives_the_preset_verdict(self, tmp_path, capsys, family, m):
        # the custom-scheme workflow: a coeffs file loads back as the same scheme
        path = tmp_path / "scheme.json"
        preset = ["--family", family, "--steps", str(m)]
        assert run_cli(capsys, "coeffs", *preset, "--out", str(path))[0] == 0
        from_file = run_cli(capsys, "stability", "--scheme-file", str(path))
        from_flags = run_cli(capsys, "stability", *preset)
        assert from_file[0] == from_flags[0] == 0
        assert from_file[1] == from_flags[1]


class TestSolve:
    def test_deterministic_solve(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "exponential-ode",
            "--steps", "2", "--family", "adams", "--N", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["y0"] == pytest.approx(0.36788, abs=1e-3)
        # the y0 of this command with the former --deterministic
        assert repr(doc["y0"]) == "0.36774468697932833"
        assert doc["config"]["grid"]["N"] == 16
        # the config that ran: the sigma = 0 kernel uses the constant basis
        assert doc["config"]["basis_degree"] == 0
        assert "runtime_sec" in doc

    @pytest.mark.parametrize("argv, y0", [
        (["--steps", "3", "--N", "80"], "0.36787961170310535"),
        (["--steps", "2", "--family", "unstable", "--N", "12", "--allow-unstable"],
         "-0.34711829177793585"),
    ], ids=["readme-stable3", "unstable2"])
    def test_sigma_zero_problem_runs_the_reduction(self, capsys, monkeypatch, argv, y0):
        # exponential-ode declares sigma = 0, so it needs no flag: y0 is the
        # one these commands gave with the former --deterministic, and no
        # path is sampled
        def no_simulation(*args, **kwargs):
            raise AssertionError("a sigma = 0 problem sampled paths")

        monkeypatch.setattr(experiments, "sample_ensemble", no_simulation)
        code, out, _ = run_cli(capsys, "solve", "--problem", "exponential-ode", *argv)
        assert code == 0
        doc = strict_json(out)
        assert repr(doc["y0"]) == y0
        # as text: 0.0 == -0.0, but the document has to read 0.0
        assert repr(doc["z0"]) == "[0.0]"
        assert doc["config"]["deterministic"] is True

    def test_small_monte_carlo_solve(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "example2", "--steps", "1",
            "--N", "5", "--M", "2000", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["y0"] == pytest.approx(0.731, abs=0.05)
        assert len(doc["z0"]) == 1

    def test_overflowing_exponential_is_silent(self):
        # at T = 800 the example2 coefficients take e^w = inf, their intended
        # limit; the unstable sigma = 0 ladder overflows at N = 2000 and the
        # sigma = 0 solve at T = 1e308.  A fresh interpreter shows any
        # RuntimeWarning on stderr
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        cases = [
            (["solve", "--problem", "example2", "--T", "800", "--N", "4", "--M", "200"], 0),
            (["stability-demo", "--problem", "exponential-ode",
              "--steps", "2", "--family", "unstable", "--N", "10,2000", "--M", "1"], 0),
            (["solve", "--problem", "exponential-ode", "--T", "1e308"], 3),
        ]
        for argv, code in cases:
            done = subprocess.run([sys.executable, "-m", "fbsde_pc.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == code, argv
            if code == 0:
                assert done.stderr == ""
                doc = strict_json(done.stdout)
                assert "y0" in doc or doc["rows"][1]["err_y"] is None
            else:
                assert done.stdout == ""
                assert done.stderr.startswith("numerical failure: non-finite y0")
                assert done.stderr.count("\n") == 1

    def test_unstable_scheme_needs_override(self, capsys):
        args = ["solve", "--problem", "exponential-ode",
                "--steps", "2", "--family", "unstable", "--N", "12"]
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "allow_unstable" in err
        code, out, _ = run_cli(capsys, *args, "--allow-unstable")
        assert code == 0

    @pytest.mark.parametrize("name", sorted(PROBLEM_REGISTRY))
    def test_every_registry_problem(self, capsys, name):
        code, out, _ = run_cli(capsys, "solve", "--problem", name, "--steps", "2",
                               "--N", "4", "--M", "400", "--T", "0.5", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        problem = PROBLEM_REGISTRY[name](T=0.5)
        y_ref, _ = closed_form_reference(problem, 0.0, problem.x0)
        assert doc["config"]["grid"]["T"] == 0.5
        assert doc["y0"] == pytest.approx(y_ref, abs=0.05)
        assert len(doc["z0"]) == problem.d

    def test_config_document_lists_every_field(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--problem", "exponential-ode",
                               "--N", "8", "--tol", "1e-6")
        assert code == 0
        config = json.loads(out)["config"]
        assert set(config) == {f.name for f in dataclasses.fields(SolverConfig)} | {
            "deterministic"}
        assert config["deterministic"] is True
        assert config["stability_tol"] == 1e-6

    def test_undefined_milne_indicator_is_null(self, tmp_path, capsys):
        # stable-2's predictor reused as the corrector (gamma0 = 0) gives equal
        # predictor and corrector error constants, which leave the factor undefined
        doc = scheme_to_dict(stable_preset(2))
        doc.update(alpha=doc["alpha_tilde"], gamma0="0", gamma=doc["gamma_tilde"],
                   C_corr=doc["C_pred"])
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "solve", "--scheme-file", str(path),
                               "--N", "4", "--M", "50")
        assert code == 0
        doc = strict_json(out)
        assert doc["milne"] is None
        assert doc["config"]["scheme"]["C_pred"] == doc["config"]["scheme"]["C_corr"] == "-3/8"


class TestConvergence:
    def test_deterministic_ladder_csv(self, tmp_path, capsys):
        out_base = tmp_path / "report"
        code, out, _ = run_cli(
            capsys, "convergence", "--problem", "exponential-ode",
            "--steps", "2", "--family", "adams",
            "--N", "10,20", "--M", "1", "--batches", "2", "--out", str(out_base))
        assert code == 0
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.startswith("N,M,err_y")
        assert "# rate_y=" in csv_text
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["rate_y"] == pytest.approx(2.0, abs=0.3)
        assert (tmp_path / "report_y.dat").exists()

    def test_stdout_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--problem", "exponential-ode",
            "--steps", "1", "--N", "8,16", "--M", "1",
            "--batches", "2", "--format", "json")
        assert code == 0
        assert "rows" in json.loads(out)

    def test_stdout_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "convergence", "--problem", "exponential-ode",
            "--steps", "1", "--N", "8,16", "--M", "1",
            "--batches", "2")
        assert code == 0
        assert out.startswith("N,M,err_y")
        assert "# rate_y=" in out

    def test_paper_ladder(self):
        # the published (N, M) pairs take the place of any --N list
        args = build_parser().parse_args(["convergence", "--paper-ladder", "--N", "8"])
        assert cli._ladder_pairs(args) == experiments.PAPER_LADDER

    def test_unpaired_N_and_M_lists(self, capsys):
        code, out, err = run_cli(
            capsys, "convergence", "--problem", "exponential-ode",
            "--N", "8,16,32", "--M", "1,2", "--batches", "2")
        assert code == 2
        assert out == ""
        assert "--N and --M lists must pair up" in err


class TestStabilityDemo:
    def test_unstable_classification(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability-demo", "--problem", "exponential-ode",
            "--steps", "2", "--family", "unstable",
            "--N", "10,20,40", "--M", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["classification"] == "irregular"
        assert len(doc["rows"]) == 3

    def test_numerical_breakdown_reported_as_null(self, capsys):
        # the unstable scheme overflows at N = 2000: that row has no error
        code, out, _ = run_cli(
            capsys, "stability-demo", "--problem", "exponential-ode",
            "--steps", "2", "--family", "unstable",
            "--N", "10,2000", "--M", "1")
        assert code == 0
        doc = strict_json(out)
        errors = [row["err_y"] for row in doc["rows"]]
        assert isinstance(errors[0], float) and math.isfinite(errors[0])
        assert errors[1] is None
        assert doc["classification"] == "irregular"

    def test_default_N_list_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "stability-demo", "--problem", "exponential-ode")
        assert code == 0
        assert [row["N"] for row in json.loads(out)["rows"]] == [10, 20, 40]

    def test_default_N_leaves_solve_default(self):
        parser = build_parser()
        assert parser.parse_args(["stability-demo"]).N == [10, 20, 40]
        assert parser.parse_args(["solve"]).N == [20]


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# ladder setup\n"
            "problem = exponential-ode\n"
            "family = adams\n"
            "steps = 2\n"
            "N = 16\n"
            "M = 1\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["grid"]["N"] == 16
        # flag overrides the file value
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--N", "8")
        assert json.loads(out)["config"]["grid"]["N"] == 8

    def test_config_false_switch_runs_monte_carlo(self, tmp_path, capsys):
        # the problem, not a switch, chooses the sigma = 0 reduction: example2
        # runs the Monte Carlo solve, and the old switch is no key in either
        # setting
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("problem = example2\nsteps = 1\nN = 4\nM = 500\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["deterministic"] is False
        assert doc["z0"][0] != 0.0
        for value in ("false", "true"):
            cfg.write_text(f"problem = example2\ndeterministic = {value}\n")
            code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
            assert (code, out) == (2, "")
            assert err == f"error: {cfg}: solve has no flag for key 'deterministic'\n"

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps 2\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2

    def test_read_config_parsing(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("basis-degree = 3  # comment\n\nseed=9\n")
        values = read_config(cfg)
        assert values == {"basis_degree": "3", "seed": "9"}


class TestExitCodes:
    def test_missing_scheme_file(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--scheme-file", "/nope/missing.json")
        assert code == 2

    def test_validation_error_is_2(self, capsys):
        # N < m is a precondition violation
        code, _, err = run_cli(capsys, "solve", "--problem", "exponential-ode",
                               "--steps", "3", "--N", "2")
        assert code == 2
        assert "a scheme of m = 3 steps needs N >= 3 time steps, got N = 2" in err

    @pytest.mark.parametrize("flag, value", [
        ("--N", "0"), ("--M", "0"), ("--basis-degree", "-1"), ("--eta", "-1"),
    ])
    def test_bad_solve_input_is_one_line_error(self, capsys, flag, value):
        args = {"--N": "4", "--M": "50", "--basis-degree": "2", "--eta": "0.6", flag: value}
        argv = [token for pair in args.items() for token in pair]
        code, out, err = run_cli(capsys, "solve", "--problem", "example1", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_bridge_over_budget_is_one_line_error(self, capsys, monkeypatch):
        # N = 4 gives r = 4 substeps on each of the m - 1 = 2 start-up steps:
        # the coarse 500 * 4 * 2 = 4000 increments fit the budget, the
        # bridge's 500 * 2 * 4 * 2 = 8000 do not
        from fbsde_pc import simulation
        monkeypatch.setattr(simulation, "DEFAULT_MAX_ELEMENTS", 5000)
        streams = []
        draw = simulation.substream_normals

        def recording(*args):
            streams.append(args[3])
            return draw(*args)

        monkeypatch.setattr(simulation, "substream_normals", recording)
        code, out, err = run_cli(capsys, "solve", "--problem", "example1", "--steps", "3",
                                 "--N", "4", "--M", "500", "--dim", "2", "--seed", "1")
        assert streams == [simulation.MAIN_STREAM]
        assert code == 2
        assert out == ""
        assert err == "error: bridge refinement: 8000 elements exceed the budget of 5000\n"

    @pytest.mark.parametrize("argv", [["solve"], ["convergence", "--batches", "2"]],
                             ids=["solve", "convergence"])
    def test_design_over_budget_is_one_line_error(self, capsys, monkeypatch, argv):
        # the 500 * 4 * 2 = 4000 increments fit the budget, the 500 x 28
        # design of a degree-6 basis in d = 2 does not, and is refused before
        # any draw
        from fbsde_pc import simulation
        monkeypatch.setattr(simulation, "DEFAULT_MAX_ELEMENTS", 5000)
        streams = []
        draw = simulation.substream_normals

        def recording(*args):
            streams.append(args[3])
            return draw(*args)

        monkeypatch.setattr(simulation, "substream_normals", recording)
        code, out, err = run_cli(capsys, *argv, "--problem", "example1", "--steps", "1",
                                 "--N", "4", "--M", "500", "--dim", "2", "--basis-degree", "6")
        assert streams == []
        assert code == 2
        assert out == ""
        assert err == "error: regression design: 14000 elements exceed the budget of 5000\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--N", "4"],
        ["convergence", "--N", "4,8", "--batches", "2", "--format", "json"],
    ])
    def test_non_finite_result_is_numerical_failure(self, capsys, argv):
        # the sigma = 0 recursion overflows on this horizon
        code, out, err = run_cli(capsys, *argv, "--problem", "exponential-ode",
                                 "--T", "1e308")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, file, named", [
        (["solve"], ("--config", "N = abc\n"), "--N"),
        (["solve"], ("--config", "basis_degre = 3\n"), "basis_degre"),
        (["solve"], ("--config", "problem = bogus\n"), "--problem"),
        (["solve", "--N", "abc"], None, "--N"),
        (["solve", "--M", "abc"], None, "--M"),
        (["solve", "--tau", "abc"], None, "--tau"),
        (["solve", "--problem", "example2", "--eta", "1"], None, "--eta"),
        (["coeffs", "--M", "5"], None, "--M"),
        (["convergence", "--tol", "1e-8"], None, "--tol"),
        (["solve", "--problem", "example2", "--basis-degree", "-1"], None, "--basis-degree"),
        (["convergence", "--basis-degree", "-1"], None, "--basis-degree"),
        (["stability-demo", "--basis-degree", "-1"], None, "--basis-degree"),
        (["stability"], ("--scheme-file", scheme_json("gamma", ["1/2"])),
         "{file}: alpha and gamma"),
        (["stability"], ("--scheme-file", scheme_json("alpha", None)),
         "{file}: scheme has no 'alpha'"),
        (["stability"], ("--scheme-file", "m = 2\n"), "{file}: not JSON"),
        (["stability"], ("--scheme-file", scheme_json("gamma0", "abc")),
         "{file}: scheme field 'gamma0'"),
        (["stability"], ("--scheme-file", adams2_with_stable2_constants()),
         "{file}: scheme field 'C_pred' is \"-3/8\", but the weights give \"-5/12\""),
        (["solve", "--problem", "example2", "--N", "4", "--M", "50"],
         ("--scheme-file", scheme_json("lambda_h", ["-1", "1", "0"])),
         "{file}: scheme field 'lambda_h' is [\"-1\", \"1\", \"0\"], "
         "but the weights give [\"-3/2\", \"2\", \"-1/2\"]"),
        (["stability"], ("--scheme-file", thirteen_step_json()),
         "{file}: derivative weights unsupported past m = 12"),
        (["stability"], ("--scheme-file", weights_json("alpha", "12")),
         "{file}: scheme field 'alpha': \"12\" is not an array"),
        (["stability"], ("--scheme-file", weights_json("gamma", [True, "1/2"])),
         "{file}: scheme field 'gamma': cannot interpret True"),
        (["stability"], ("--scheme-file", weights_json("gamma0", True)),
         "{file}: scheme field 'gamma0': cannot interpret True"),
        (["stability"], ("--scheme-file", weights_json("aplha", ["1/2", "1/2"])),
         "{file}: scheme has unknown field 'aplha'"),
        (["stability"], ("--scheme-file", weights_json("gamma0_tilde", "0")),
         "{file}: scheme has unknown field 'gamma0_tilde'"),
        (["stability"], ("--scheme-file", weights_json("name", 5)),
         "{file}: scheme field 'name': 5 is not a string"),
        (["solve"], ("--config", b"N = 4\xff\n"), "{file}: not UTF-8"),
        (["solve", "--eta", "nan"], None, "finite eta"),
        (["solve", "--tau", "nan"], None, "finite tau"),
        (["solve", "--tau", "inf"], None, "finite tau"),
        (["solve", "--T", "inf"], None, "horizon T"),
        (["solve", "--N", "4,8"], None, "--N"),
        (["solve", "--M", "400,800"], None, "--M"),
        (["stability-demo", "--M", "400,800"], None, "--M"),
        (["solve", "--seed", "-1", "--N", "4", "--M", "10"], None, "--seed"),
        (["solve", "--seed", str(2**64), "--N", "4", "--M", "10"], None, "--seed"),
        (["convergence"], ("--config", "seed = -1\n"), "--seed"),
        (["stability", "--family", "unstable", "--steps", "2", "--tol", "nan"], None, "--tol"),
        (["stability", "--family", "unstable", "--steps", "2", "--tol", "-1"], None, "--tol"),
        (["stability", "--family", "unstable", "--steps", "2", "--tol", "inf"], None, "--tol"),
        (["solve", "--problem", "exponential-ode", "--family", "unstable",
          "--tol", "nan"], None, "--tol"),
        (["solve", "--problem", "constant", "--dim", "0"], None, "--dim"),
        (["solve", "--problem", "exponential-ode", "--deterministic"], None, "--deterministic"),
        (["solve", "--problem", "exponential-ode", "--N", "100000000000"],
         None, "sigma = 0 path: 100000000000 elements exceed the budget"),
        (["stability-demo", "--N", "4", "--M", "50"], None, "--N"),
        (["convergence", "--N", "4,4", "--M", "50,50", "--batches", "2"], None, "--N"),
        (["stability-demo", "--N", "10,10", "--M", "50"], None, "--N"),
        (["stability-demo", "--N", "20,10", "--M", "50"], None, "--N"),
        (["solve", "--tau", "1e200", "--N", "4", "--M", "200"], None,
         "tau = 1e+200 makes the decay rate"),
        (["coeffs"], ("--scheme-file", weights_json("gamma0", "1e5000")),
         "{file}: scheme field 'gamma0': decimal exponent beyond"),
        (["convergence", "--problem", "exponential-ode", "--M", "-3", "--N", "5,10"], None,
         "M = -3"),
        (["solve", "--problem", "exponential-ode", "--M", "-5"], None, "M = -5"),
        (["stability-demo", "--problem", "exponential-ode", "--N", "10,20", "--M", "-1"], None,
         "M = -1"),
    ], ids=["config-N", "config-unknown-key", "config-choice", "N", "M", "tau", "eta-example2",
            "coeffs-M", "convergence-tol", "solve-basis", "convergence-basis",
            "stability-demo-basis", "scheme-lengths", "scheme-missing-field",
            "scheme-not-json", "scheme-bad-coefficient", "scheme-C_pred-disagrees",
            "scheme-lambda_h-disagrees", "scheme-13-steps", "scheme-weights-string",
            "scheme-boolean-weight", "scheme-boolean-gamma0", "scheme-unknown-key",
            "scheme-made-up-key", "scheme-name-not-string", "config-not-utf8", "eta-nan",
            "tau-nan", "tau-inf", "T-inf", "solve-N-list", "solve-M-list",
            "stability-demo-M-list", "seed-negative", "seed-2^64", "config-seed-negative",
            "tol-nan", "tol-negative", "tol-inf", "solve-unstable-tol-nan", "dim-0",
            "deterministic-flag", "sigma-0-N-over-budget",
            "stability-demo-single-N", "convergence-repeated-N", "stability-demo-repeated-N",
            "stability-demo-decreasing-N", "tau-rate-overflow", "scheme-exponent-1e5000",
            "sigma-0-convergence-M-negative", "sigma-0-solve-M-negative",
            "sigma-0-stability-demo-M-negative"])
    def test_bad_flag_or_key_exits_2(self, tmp_path, capsys, monkeypatch,
                                     argv, file, named):
        def no_simulation(*args, **kwargs):
            raise AssertionError("input was validated only after simulating")

        monkeypatch.setattr(experiments, "sample_ensemble", no_simulation)
        path = tmp_path / "input"
        if file is not None:
            flag, content = file
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
            argv = [*argv, flag, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.count("error:") == 1
        assert named.format(file=path) in err


# -- generative contract ---------------------------------------------------------

EDGE_TOKENS = ("0", "-1", "1", "nan", "inf", "-inf", "1e308", "1e-300", "5e-324", "", "abc",
               "4,8", "1,2,3", str(2**64), "9" * 30)
# --N, --M and --batches come from small pools and always from the command
# line, which overrides a config file, so that no draw runs a large solve
CAPPED = {
    "--N": ("4", "8", "4,8", "2,4,8", "4,4", "8,4", "0", "-1", "", "abc"),
    "--M": ("20", "50", "20,50", "0", "-1", "", "abc"),
    "--batches": ("2", "3", "1", "abc"),
}


def _flag_pools() -> dict:
    """{subcommand: {flag: (dest, tokens)}} for every long flag build_parser()
    gives each subcommand: the key a config file uses for it, and the edge
    tokens plus the flag's choices and scalar default."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    pools = {}
    for name, sub in subparsers.choices.items():
        flags = {}
        for action in sub._actions:
            if not action.option_strings or action.dest == "help":
                continue
            flag = action.option_strings[0]
            valid = tuple(action.choices or ())
            if isinstance(action.default, (int, float, str)):
                valid += (str(action.default),)
            tokens = CAPPED.get(flag, EDGE_TOKENS + valid)
            if action.dest == "paper_ladder":
                # the published ladder is a full-size run; keep it off
                tokens = tuple(t for t in tokens if t != "1")
            flags[flag] = (action.dest, tokens)
        pools[name] = flags
    return pools


POOLS = _flag_pools()


# scheme-file weights: rational, subnormal, huge, beyond a float, and malformed
WEIGHTS = ("1", "0", "1/2", "-1/3", "5/12", 2.5, "1e-320", "5e-324", "1e300", "1e308",
           "1e400", "", "abc", True, None)


@st.composite
def scheme_files(draw):
    """Scheme-file text: stable_preset(m)'s weights with up to three fields
    redrawn from WEIGHTS, a list field at m - 1 to m + 1 entries."""
    m = draw(st.sampled_from([1, 2]))
    doc = {k: v for k, v in scheme_to_dict(stable_preset(m)).items()
           if k not in ("lambda_h", "C_pred", "C_corr")}
    fields = st.sampled_from(["alpha", "gamma0", "gamma", "alpha_tilde", "gamma_tilde"])
    for key in draw(st.lists(fields, unique=True, min_size=1, max_size=3)):
        weights = st.sampled_from(WEIGHTS)
        doc[key] = draw(weights if key == "gamma0"
                        else st.lists(weights, min_size=m - 1, max_size=m + 1))
    return json.dumps(doc)


@st.composite
def cli_cases(draw):
    """(argv, config lines, scheme file): a subcommand with drawn flag values,
    plus drawn config entries (or none) and a drawn scheme file (or None)."""
    name = draw(st.sampled_from(sorted(POOLS)))
    flags = POOLS[name]
    argv = [name] + [f"{flag}={draw(st.sampled_from(flags[flag][1]))}"
                     for flag in CAPPED if flag in flags]
    free = sorted(set(flags) - set(CAPPED) - {"--config"})
    for flag in draw(st.lists(st.sampled_from(free), unique=True, max_size=3)):
        argv.append(f"{flag}={draw(st.sampled_from(flags[flag][1]))}")
    keys = st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=2)
    config = [f"{flags[flag][0]} = {draw(st.sampled_from(flags[flag][1]))}"
              for flag in draw(st.one_of(st.just([]), keys))]
    return argv, config, draw(st.one_of(st.none(), scheme_files()))


# a scheme whose error constants nearly coincide: its Milne factor is a finite
# fraction too large for a float
HUGE_MILNE = json.dumps({"m": 1, "alpha": ["1"], "gamma0": 2.5, "gamma": ["0"],
                         "alpha_tilde": ["1"], "gamma_tilde": ["1e-320"]})


# a weight that no float holds: the root check and the solve cannot convert it
BEYOND_FLOAT = json.dumps({"m": 1, "alpha": ["1e400"], "gamma0": "1/2", "gamma": ["1/2"],
                           "alpha_tilde": ["1"], "gamma_tilde": ["1"]})


class TestContract:
    # any warning is an error (pyproject.toml), so an overflow that reaches
    # numpy's warning machinery fails here instead of writing to stderr
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cli_cases())
    @example((["convergence", "--N=4,4", "--M=50,50", "--batches=2"], [], None))
    @example((["stability-demo", "--N=10,10", "--M=50"], [], None))
    @example((["stability-demo", "--N=20,10", "--M=50"], [], None))
    @example((["solve", "--N=4", "--M=20"], [f"dim = {2**64}"], None))
    @example((["solve", "--N=4", "--M=20", "--T=1e308", "--problem=exponential-ode"], [], None))
    @example((["solve", "--T=1e-300", "--steps=4", "--M=40"], [], None))
    @example((["solve", "--T=5e-324", "--steps=4", "--M=40"], [], None))
    @example((["solve", "--T=1e-322", "--N=4", "--steps=4", "--M=40"], [], None))
    @example((["solve", "--problem=exponential-ode", "--M=-1"], [], None))
    @example((["convergence", "--problem=exponential-ode", "--M=-1", "--N=4,8"], [], None))
    @example((["stability-demo", "--T=1e-300", "--steps=4", "--M=40"], [], None))
    @example((["solve", "--problem=example2", "--T=1e300", "--M=40", "--N=5"], [], None))
    @example((["solve"], [], HUGE_MILNE))
    @example((["solve", "--N=4", "--M=20", "--allow-unstable"], [], BEYOND_FLOAT))
    def test_exit_code_and_output(self, case):
        argv, config, scheme = case
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # --out and --scheme-file values are relative paths
            os.chdir(tmp)
            try:
                if config:
                    Path("run.cfg").write_text("\n".join(config) + "\n", encoding="utf-8")
                    argv = [*argv, "--config=run.cfg"]
                if scheme is not None:
                    Path("scheme.json").write_text(scheme, encoding="utf-8")
                    argv = [*argv, "--scheme-file=scheme.json"]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejected the command line
                        code = exc.code
            finally:
                os.chdir(cwd)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3), (argv, config, err)
        if any(arg in ("--M=0", "--M=-1") for arg in argv):
            # no problem reads an M below 1, sampled or not
            assert code == 2, (argv, config, err)
        assert "Traceback" not in out + err
        if code != 0:
            # one line: the error alone, with no warning or usage block
            assert out == ""
            assert err.count("\n") == 1 and err.endswith("\n"), err
        if code == 2:
            assert err.startswith(("error:", "io error:")), err
        if code == 3:
            assert err.startswith("numerical failure:"), err
        if code == 0 and out.startswith("{"):
            strict_json(out)

    def test_step_underflowing_to_zero_is_refused(self, capsys):
        # T/N = 5e-324/20 rounds to 0, which no level can run on: the grid is
        # refused before the start-up runs its levels on h = 0
        code, out, err = run_cli(capsys, "solve", "--T=5e-324", "--steps=4", "--M=40")
        assert (code, out) == (2, "")
        assert err == "error: step h = T/N = 5e-324/20 underflows to 0\n"

    def test_startup_step_underflowing_to_zero_is_refused(self, capsys):
        # h = 1e-322/4 is a float, but the start-up's h/r with r = 64 rounds
        # to 0: it is refused before the start-up builds its fine grid
        code, out, err = run_cli(capsys, "solve", "--T=1e-322", "--N=4", "--steps=4", "--M=40")
        assert (code, out) == (2, "")
        assert err == "error: start-up step h/r = 2.5e-323/64 underflows to 0\n"
