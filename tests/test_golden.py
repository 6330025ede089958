"""Byte-for-byte pinned CLI outputs on the bundled inputs.

Each case runs one command in-process and compares stdout with a stored
file under tests/data/golden/.  The module needs only the standard library
outside pytest:

    PYTHONPATH=src python tests/test_golden.py --check   # replay every case, exit 1 on a difference
    PYTHONPATH=src python tests/test_golden.py           # rewrite the files

After a deliberate output change, rewrite the files and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

from causabound.cli import EXIT_OK, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
INPUTS = (
    "basic_trial.csv",
    "complete_mediation.json",
    "crossover_covariate.json",
    "mediated_confounding.json",
    "mediated_confounding_counts.csv",
)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name in INPUTS:
        for command in ("bound", "audit"):
            for output in ("json", "csv"):
                argv = [command, str(DATA / name), "--method", "both", "--output", output]
                cases[f"{command}-both-{name}.{output}"] = argv
    for name in INPUTS:
        if name.endswith(".csv"):
            cases[f"estimate-{name}.json"] = ["estimate", str(DATA / name)]
    cases["demo.txt"] = ["demo"]
    cases["demo.json"] = ["demo", "--json"]
    cases["oracle-check.txt"] = ["oracle-check"]
    return cases


CASES = _cases()


def _output(name: str) -> str:
    """Stdout of the case's command; a nonzero exit raises."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[name])
    if code != EXIT_OK:
        raise RuntimeError(f"{name}: exit {code}")
    return out.getvalue()


def _stored(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def pytest_generate_tests(metafunc):
    # parametrized by hook, so the module imports without pytest
    metafunc.parametrize("name", sorted(CASES))


def test_output_matches_golden(name):
    assert _output(name) == _stored(name)


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        differing = [name for name in sorted(CASES) if _output(name) != _stored(name)]
        for name in differing:
            print(f"differs: {name}")
        print(f"{len(CASES) - len(differing)} of {len(CASES)} golden files match")
        sys.exit(1 if differing else 0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN / name).write_text(_output(name), encoding="utf-8")
