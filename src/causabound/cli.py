"""Command line front end.

Subcommands: bound, audit, estimate, oracle-check, demo.  Scenario JSON
and counts CSV inputs are told apart by file extension.  Exit codes: 0
success, 1 a check failed, 2 input error, 3 the requested quantity is
undefined for the given distribution.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from .audit import AuditEntry, compute_intervals, run_audit
from .bounds import Method
from .contingency import estimate_from_counts, read_counts_csv
from .errors import InapplicableModeError, ScenarioFormatError, UndefinedConditionalError
from .report import digest_bytes, render_csv, render_json, report_document
from .scenario import AnalysisMode, Scenario, load_scenario, scenario_to_dict, validate_scenario

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDEFINED = 3

# each --method value and the methods it runs, in report order
_METHODS = {
    "closed": (Method.CLOSED_FORM,),
    "oracle": (Method.ORACLE,),
    "both": (Method.CLOSED_FORM, Method.ORACLE),
}


@functools.cache  # parsing leaves the parser as it was, so one per process serves every `main` call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causabound",
        description="Bounds on the probability of causation, and audits of structure-blind analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", choices=("json", "csv"), default="json", help="report rendering")

    def add_method_flag(p: argparse.ArgumentParser, text: str) -> None:
        p.add_argument("--method", choices=tuple(_METHODS), default="closed", help=text)

    p_bound = sub.add_parser("bound", help="compute a PC interval")
    p_bound.add_argument("input", help="scenario .json or counts .csv")
    p_bound.add_argument(
        "--mode",
        choices=[m.value for m in AnalysisMode],
        default=AnalysisMode.FULL.value,
        help="how much structure to use",
    )
    add_method_flag(p_bound, "closed-form bounds, brute-force oracle, or both")
    add_output_flag(p_bound)

    p_audit = sub.add_parser("audit", help="compare every applicable analysis mode")
    p_audit.add_argument("input", help="scenario .json or counts .csv")
    add_method_flag(p_audit, "methods to audit with")
    add_output_flag(p_audit)

    p_estimate = sub.add_parser("estimate", help="counts CSV to scenario JSON")
    p_estimate.add_argument("input", help="counts .csv")

    p_check = sub.add_parser("oracle-check", help="randomized closed-form vs oracle sweep")
    # None stands for the sweep's own default, so the parser needs no import of `checks`
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--trials", type=int, help="scenarios per structure")

    demo_p = sub.add_parser("demo", help="run the bundled reference analyses")
    demo_p.add_argument("--json", action="store_true", help="emit the results as JSON")
    return parser


def _load_input(path: str) -> tuple[Scenario, str]:
    """Load and validate a scenario from .json or .csv (estimated); return it with its digest."""
    # the file is read for the digest and again to parse: the second read of a pipe would wait forever
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ScenarioFormatError(f"input must be a regular file: {path!r}")
    with open(path, "rb") as fh:
        digest = digest_bytes(fh.read())
    if path.endswith(".json"):
        scenario = load_scenario(path)
    elif path.endswith(".csv"):
        scenario = estimate_from_counts(read_counts_csv(path))
    else:
        raise ScenarioFormatError(f"cannot tell scenario JSON from counts CSV: {path!r}")
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioFormatError("invalid scenario:\n  " + "\n  ".join(violations))
    return scenario, digest


def _emit(doc: dict, output: str) -> None:
    sys.stdout.write(render_json(doc) if output == "json" else render_csv(doc))


def _cmd_bound(args: argparse.Namespace) -> int:
    scenario, digest = _load_input(args.input)
    mode, methods = AnalysisMode(args.mode), _METHODS[args.method]
    intervals = compute_intervals(scenario, mode, methods)
    entries = tuple(AuditEntry(mode, method, iv) for method, iv in zip(methods, intervals))
    _emit(report_document(scenario, digest, entries), args.output)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    scenario, digest = _load_input(args.input)
    audit = run_audit(scenario, _METHODS[args.method])
    _emit(report_document(scenario, digest, (), audit), args.output)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    if not args.input.endswith(".csv"):
        raise ScenarioFormatError(f"estimate expects a counts .csv, got {args.input!r}")
    scenario = estimate_from_counts(read_counts_csv(args.input))
    sys.stdout.write(render_json(scenario_to_dict(scenario)))
    return EXIT_OK


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    # imported by the one command that sweeps: `checks` pulls in `random`
    from .checks import DEFAULT_SEED, DEFAULT_TRIALS, equivalence_sweep, render_sweep_report

    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    if trials < 1:
        raise ScenarioFormatError("--trials must be at least 1")
    report = equivalence_sweep(DEFAULT_SEED if args.seed is None else args.seed, trials)
    sys.stdout.write(render_sweep_report(report))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_demo(args: argparse.Namespace) -> int:
    from .demo import demo_document, run_demo  # imported by the one command that runs the reference cases

    if args.json:
        doc, ok = demo_document()
        sys.stdout.write(render_json(doc))
    else:
        text, ok = run_demo()
        sys.stdout.write(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_COMMANDS = {
    "bound": _cmd_bound,
    "audit": _cmd_audit,
    "estimate": _cmd_estimate,
    "oracle-check": _cmd_oracle_check,
    "demo": _cmd_demo,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except UndefinedConditionalError as exc:
        print(f"causabound: undefined: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ScenarioFormatError, InapplicableModeError, OSError) as exc:
        print(f"causabound: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
