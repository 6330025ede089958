"""Byte-for-byte pinned CLI outputs on the bundled inputs.

Each case runs one command in-process and compares stdout with a stored
file under tests/data/golden/.  After a deliberate output change, rewrite
the files with `PYTHONPATH=src python tests/test_golden.py` and review the
diff.
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    assert main(CASES[name]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == EXIT_OK, name
        (GOLDEN / name).write_text(out.getvalue(), encoding="utf-8")
