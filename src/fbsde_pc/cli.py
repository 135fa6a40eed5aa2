"""Command-line interface.

Subcommands: coeffs (derive/print schemes), stability (root-condition
verdicts), solve (one backward solve), convergence (an (N, M) ladder with
batch CIs), stability-demo (error-vs-N classification).  Each subcommand takes
only the flags it reads.  A key=value config file can preload any of them:
its keys are that subcommand's flag names and its values are parsed by the
flags themselves, ahead of the command line, so explicit flags win.  Exit
codes: 0 success, 2 validation error, 3 numerical failure.  JSON output is
strict: a non-finite number bound for it is a numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from pathlib import Path

from .exceptions import NumericalError, ValidationError
from .experiments import (
    PAPER_LADDER,
    TrialLadder,
    emit_report,
    report_csv,
    run_ladder,
    stability_demo,
)
from .problems import PROBLEM_REGISTRY
from .regression import build_basis
from .schemes import load_scheme, preset_scheme, scheme_to_json
from .simulation import DEFAULT_MAX_ELEMENTS, GridSpec, sample_ensemble
from .solver import SolverConfig, result_to_dict, solve
from .stability import scheme_verdict, verdict_to_dict

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# stability-demo's default N ladder: it needs at least two values
STABILITY_DEMO_N = [10, 20, 40]

# problem flags and the factory parameter each one sets
_PROBLEM_PARAMS = {"eta": "eta", "tau": "tau", "dim": "d", "T": "T"}


def _int_list(text):
    """'5,10 20' -> [5, 10, 20]."""
    try:
        values = [int(v) for v in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}")
    return values


def _checked(kind, accept, expected):
    """A converter that parses with kind and rejects values accept refuses."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


# seeds key the Philox substreams, whose key words are unsigned 64-bit
_seed = _checked(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2**64)")
# every simulated array, the coarse M * N * d increments and the start-up's
# bridge-refined ones, is held to the allocation budget
_dim = _checked(int, lambda v: 1 <= v <= DEFAULT_MAX_ELEMENTS,
                f"an integer in [1, {DEFAULT_MAX_ELEMENTS}]")
_tol = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")


def _tau(text):
    """'auto' (tau = 1/sqrt(dim), the factory default) -> None."""
    return None if text == "auto" else float(text)


def _bool(text):
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return word in ("1", "true", "yes", "on")


def read_config(path) -> dict:
    """key=value lines; '#' starts a comment; keys match the long flag names."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = value
    return values


def _parse_args(parser, argv) -> argparse.Namespace:
    """Parse argv; with --config, parse again with the file's entries turned
    into --key=value flags ahead of the command line's own."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    values = read_config(args.config)
    flags = set(vars(args)) - {"command", "handler", "config"}
    unknown = sorted(set(values) - flags)
    if unknown:
        raise ValidationError(
            f"{args.config}: {args.command} has no flag for key {unknown[0]!r}")
    tokens = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _build_scheme(args):
    if args.scheme_file:
        return load_scheme(args.scheme_file)
    return preset_scheme(args.family, args.steps)


def _build_problem(args):
    """The registry's problem with the problem flags that were set (the others
    keep the factory defaults); its basis is checked before any simulation."""
    factory = PROBLEM_REGISTRY[args.problem]
    accepted = inspect.signature(factory).parameters
    kwargs = {}
    for flag, param in _PROBLEM_PARAMS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if param not in accepted:
            raise ValidationError(f"problem {args.problem!r} takes no --{flag}")
        kwargs[param] = value
    problem = factory(**kwargs)
    try:
        build_basis(problem.d, args.basis_degree)
    except ValidationError as exc:
        raise ValidationError(f"--basis-degree {args.basis_degree}: {exc}") from None
    return problem


def _single(args, flag: str) -> int:
    """The one value of a list flag that this subcommand reads as a scalar."""
    values = getattr(args, flag)
    if len(values) != 1:
        raise ValidationError(f"{args.command} takes a single --{flag}, got {values}")
    return values[0]


def _emit_text(text: str, out) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc, out) -> None:
    _emit_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", out)


def cmd_coeffs(args) -> int:
    _emit_text(scheme_to_json(_build_scheme(args)) + "\n", args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    verdict = scheme_verdict(_build_scheme(args), tol=args.tol)
    _emit_json(verdict_to_dict(verdict), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    N, M = _single(args, "N"), _single(args, "M")
    scheme = _build_scheme(args)
    problem = _build_problem(args)
    config = SolverConfig(
        scheme=scheme, grid=GridSpec(T=problem.T, N=N),
        basis_degree=args.basis_degree, deterministic=args.deterministic,
        allow_unstable=args.allow_unstable, stability_tol=args.tol,
    )
    start = time.perf_counter()
    ensemble = None if args.deterministic else sample_ensemble(problem, config.grid, M, args.seed)
    solution = solve(problem, config, ensemble)
    runtime = time.perf_counter() - start
    _emit_json(result_to_dict(solution, runtime), args.out)
    return EXIT_OK


def _ladder_pairs(args):
    if args.paper_ladder:
        return PAPER_LADDER
    Ns, Ms = args.N, args.M
    if len(Ms) == 1:
        Ms = Ms * len(Ns)
    if len(Ns) != len(Ms):
        raise ValidationError("--N and --M lists must pair up (or give one M)")
    return tuple(zip(Ns, Ms))


def cmd_convergence(args) -> int:
    scheme = _build_scheme(args)
    problem = _build_problem(args)
    ladder = TrialLadder(
        problem=problem, scheme=scheme, pairs=_ladder_pairs(args),
        batches=args.batches, base_seed=args.seed, basis_degree=args.basis_degree,
        deterministic=args.deterministic, allow_unstable=args.allow_unstable,
    )
    report = run_ladder(ladder)
    if args.out:
        formats = ("csv", "json") if args.format is None else (args.format,)
        written = emit_report(report, args.out, formats=formats)
        sys.stdout.write("".join(f"wrote {p}\n" for p in written))
    elif args.format == "json":
        _emit_json(report.to_dict(), None)
    else:
        sys.stdout.write(report_csv(report))
    return EXIT_OK


def cmd_stability_demo(args) -> int:
    M = _single(args, "M")
    scheme = _build_scheme(args)
    problem = _build_problem(args)
    result = stability_demo(problem, scheme, args.N, M, args.seed,
                            deterministic=args.deterministic,
                            basis_degree=args.basis_degree)
    doc = {
        "scheme": scheme.name or f"{scheme.m}-step",
        "rows": [{"N": n, "err_y": e} for n, e in zip(result.Ns, result.errors)],
        "classification": result.classification,
    }
    _emit_json(doc, args.out)
    return EXIT_OK


def _run_flags(n_default: list) -> argparse.ArgumentParser:
    """The problem and run flag group, with --N defaulting to n_default.

    Subcommands that share a group share its argument objects, whose defaults
    a subparser cannot override alone; stability-demo, which compares errors
    across N, therefore gets a group of its own.
    """
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--problem", choices=sorted(PROBLEM_REGISTRY),
                     default=next(iter(PROBLEM_REGISTRY)), help="default %(default)s")
    run.add_argument("--eta", type=float, help="problem parameter eta")
    run.add_argument("--tau", type=_tau,
                     help="problem parameter tau; 'auto' means 1/sqrt(dim)")
    run.add_argument("--dim", type=_dim, help="problem dimension d")
    run.add_argument("--T", type=float, help="horizon")
    run.add_argument("--N", type=_int_list, default=n_default,
                     help="time steps (a comma list for convergence and stability-demo)")
    run.add_argument("--M", type=_int_list, default=[10000],
                     help="trajectories (a comma list for convergence)")
    run.add_argument("--seed", type=_seed, default=0)
    run.add_argument("--basis-degree", type=int, default=2, dest="basis_degree")
    # a bare boolean flag means true; with a value (as from a config file) it
    # takes true or false
    run.add_argument("--deterministic", type=_bool, nargs="?", const=True, default=False,
                     help="sigma = 0 recursion, no simulation")
    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbsde-pc",
        description="Multi-step predictor-corrector solver for decoupled FBSDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # parent parsers, one per flag group; each subcommand takes the groups it reads
    scheme, unstable, tol, ladder = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    scheme.add_argument("--config", help="key=value config file; flags override it")
    scheme.add_argument("--steps", type=int, default=2, help="scheme step count m")
    scheme.add_argument("--family", choices=("stable", "adams", "unstable"),
                        default="stable", help="built-in scheme family")
    scheme.add_argument("--scheme-file", "--scheme", dest="scheme_file",
                        help="JSON scheme file; overrides --steps/--family")
    scheme.add_argument("--out", help="output path (default stdout)")

    unstable.add_argument("--allow-unstable", type=_bool, nargs="?", const=True,
                          default=False, help="run a scheme that fails the root condition")
    tol.add_argument("--tol", type=_tol, default=1e-8, help="stability tolerance")

    ladder.add_argument("--batches", type=int, default=21)
    ladder.add_argument("--paper-ladder", type=_bool, nargs="?", const=True, default=False,
                        help="use the published (N, M) pairs")
    ladder.add_argument("--format", choices=("csv", "json"))
    run = _run_flags([20])
    for name, handler, help_text, parents in (
        ("coeffs", cmd_coeffs, "derive and print scheme coefficients", [scheme]),
        ("stability", cmd_stability, "root-condition verdict for a scheme", [scheme, tol]),
        ("solve", cmd_solve, "single backward solve", [scheme, run, unstable, tol]),
        ("convergence", cmd_convergence, "run an (N, M) ladder with batch CIs",
         [scheme, run, unstable, ladder]),
        ("stability-demo", cmd_stability_demo, "errors vs N for a scheme",
         [scheme, _run_flags(STABILITY_DEMO_N)]),
    ):
        sub.add_parser(name, help=help_text, parents=parents).set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(parser, argv)
        return args.handler(args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except (NumericalError, ValueError) as exc:  # ValueError: NaN or inf bound for JSON
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
