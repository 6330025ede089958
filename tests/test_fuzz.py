"""Structure-aware input fuzz: no mutated input gets a traceback.

Case i parses one bundled input in tests/data and changes 1 to 3 things in
it, drawing from `random.Random(i)`:

- in a scenario JSON document, a value, a key or a list entry;
- in a counts CSV, a cell; or a row, dropped, duplicated, extended or cut;
  or the line ending.

It then runs `bound` (any mode and method), `audit` or `estimate` on the
result through `cli.main`.  The exit code is 0, 2 or 3.  A nonzero exit
leaves stdout empty and writes a `causabound:` message without a traceback
to stderr.  Exit 0 writes a report that parses, with every endpoint in
[0, 1].  The library takes the same inputs: the mutated document through
`scenario_from_dict` and `validate_scenario`, and a mutated cell dict
through `ContingencyTable.from_cells`, raise ScenarioFormatError or nothing.

pytest runs the first 2,000 cases.  Needs only the standard library, so

    PYTHONPATH=src python tests/test_fuzz.py 20000

runs a larger batch and prints N, the count of each exit code and the sha256
of every case's exit code, stdout and stderr, in order; it exits 1 and names
the failing cases when any fails.  Two trees that should behave alike print
the same line.  The expected line for N = 20000 is kept in
tests/data/golden/fuzz-20000.txt, and CI diffs the output against it.
"""

import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import math
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from causabound import AnalysisMode, ContingencyTable, ScenarioFormatError, read_counts_csv, scenario_from_dict
from causabound import validate_scenario
from causabound.cli import main
from audit_hash import EDGE

DATA = Path(__file__).parent / "data"
INPUTS = sorted(DATA.glob("*.json")) + sorted(DATA.glob("*.csv"))
CASES = 2000

# overshoot past 1e-9, past the float range, past 32 bits, the wrong type, and numbers spelled as text
HOSTILE = (
    -1e-10, 1 + 1e-10, 10**400, int("9" * 30), 2147483648, math.inf, math.nan, 2, -1, True, None,
    "0.5", "x", "٣", "+1", "-0", "", [], {}, "basic", "mediator", "covariate", "mediator_covariate",
)
# integers the counts reader takes, past 32 bits and past the float range among them
INTEGER_TEXTS = ("0", "1", "2", "7", "-1", " 1", "01", "2147483648", "9" * 30, str(10**400))
CSV_TEXTS = (
    "E", "M", "R", "S", "count",
    *(v if isinstance(v, str) else json.dumps(v) for v in EDGE + HOSTILE if not isinstance(v, (list, dict))),
)
KEYS = (
    "E=0", "E=1", "M=1", "S=0", "S=2", "E=1,S=0", "S=1, E=0", "E=01,S=1", "E=2,S=0", "E=0,S=-1",
    "E=1,S=" + "9" * 30, "E=1,E=1", "E=+1", "S=٣", "E", "x", "",
    "structure", "exposure", "mediator", "response", "covariate_prior",
)
# what a cell dict's assignment may become: short, long, not a tuple, or with a level that is no int
LEVELS = ("1", True, False, 1.5, None, -1, 2, 10**30)
MODES = tuple(mode.value for mode in AnalysisMode)


def _value(rng):
    return copy.deepcopy(rng.choice(EDGE if rng.random() < 0.5 else HOSTILE))


def _text(rng):
    return rng.choice(INTEGER_TEXTS if rng.random() < 0.5 else CSV_TEXTS)


def _slots(node, out):
    """Every (container, key) at or below `node`, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in list(items):
        out.append((node, key))
        _slots(child, out)
    return out


def mutate_json(doc, rng):
    """Change one value, key or list entry of `doc` in place."""
    slots = _slots(doc, [])
    if not slots:
        return
    node, key = rng.choice(slots)
    op = rng.randrange(4)  # half the changes are a value, so more documents stay valid and reach the bounds
    if op >= 2:
        node[key] = _value(rng)
    elif isinstance(node, dict):
        if op == 1:
            # half the time the same condition respelled: reordered, spaced and zero-padded
            parts = str(key).split(",")[:: rng.choice((1, -1))]
            renamed = rng.choice((",".join(f" {part.replace('=', ' = 0')} " for part in parts), rng.choice(KEYS)))
            items = list(node.items())
            node.clear()
            node.update((renamed if k == key else k, v) for k, v in items)
        else:
            del node[key]
    elif op == 1:
        node.insert(key, copy.deepcopy(node[key]))
    else:
        del node[key]


def mutate_csv(rows, ending, rng):
    """Change one cell, row or the line ending of `rows` in place; return the line ending."""
    op = rng.randrange(6)
    if op == 5 or not rows:
        return rng.choice(("\r\n", "\r", "\n\n"))
    row = rng.choice(rows)
    if op == 0:
        if row:
            row[rng.randrange(len(row))] = _text(rng)
    elif op == 1:
        rows.remove(row)
    elif op == 2:
        rows.insert(rng.randrange(len(rows) + 1), list(row))
    elif op == 3:
        row.append(_text(rng))
    elif row:
        row.pop()
    return ending


def mutate_cells(variables, cells, rng):
    """`variables` and `cells` permuted alike, then 1 to 3 cells changed: the assignment, the count, or dropped."""
    perm = rng.sample(range(len(variables)), len(variables))
    variables, cells = tuple(variables[i] for i in perm), {tuple(a[i] for i in perm): c for a, c in cells.items()}
    assignments = list(cells)
    for _ in range(rng.randint(1, 3)):
        assignment = rng.choice(assignments)
        count = cells.pop(assignment, 1)
        op = rng.randrange(3)
        if op == 0:
            i = rng.randrange(len(assignment))
            changed = assignment[:i] + (rng.choice(LEVELS),) + assignment[i + 1 :]
            cells[rng.choice((assignment[:-1], assignment + (0,), assignment[0], str(assignment), changed))] = count
        elif op == 1:
            cells[assignment] = _value(rng)
    return variables, cells


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for child in node for x in _numbers(child)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def _endpoints(argv, out):
    """Every endpoint a report on stdout states; every probability for `estimate`."""
    if "csv" in argv:
        return [float(row[end]) for row in csv.DictReader(io.StringIO(out)) for end in ("lower", "upper") if row[end]]
    doc = json.loads(out)
    if argv[0] == "estimate":
        return _numbers(doc)
    rows = doc["intervals"] + (doc["audit"]["entries"] if "audit" in doc else [])
    return [row[end] for row in rows for end in ("lower", "upper") if row[end] is not None]


def _cli_faults(argv, code, out, err):
    """What is wrong with one CLI run's exit code and output, empty when nothing is."""
    if code not in (0, 2, 3):
        return [f"exit {code}"]
    if code:
        return [fault for fault, bad in (
            ("stdout not empty", out),
            ("stderr does not start with 'causabound:'", not err.startswith("causabound:")),
            ("traceback on stderr", "Traceback" in err),
        ) if bad]
    outside = [x for x in _endpoints(argv, out) if not 0.0 <= x <= 1.0]
    return [f"endpoints outside [0, 1]: {outside}"] if outside else []


def _library_faults(call, *args):
    """What `call(*args)` raised, when it is not a ScenarioFormatError."""
    try:
        call(*args)
    except ScenarioFormatError:
        pass
    except Exception as exc:  # the fault under test: anything but a format error
        return [f"{call.__qualname__} raised {exc!r}"]
    return []


def _check_document(doc):
    validate_scenario(scenario_from_dict(doc))


def run_case(i, workdir):
    """Case i: its CLI exit code, stdout and stderr, and the faults found in the CLI run and in the library."""
    rng = random.Random(i)
    source = rng.choice(INPUTS)
    path = workdir / f"case{source.suffix}"
    if source.suffix == ".json":
        doc = json.loads(source.read_text())
        for _ in range(rng.randint(1, 3)):
            mutate_json(doc, rng)
        path.write_text(json.dumps(doc))
        library = _library_faults(_check_document, doc)
        commands = ("bound", "audit")
    else:
        rows, ending = list(csv.reader(io.StringIO(source.read_text()))), "\n"
        for _ in range(rng.randint(1, 3)):
            ending = mutate_csv(rows, ending, rng)
        path.write_text("".join(",".join(row) + ending for row in rows), newline="")
        table = read_counts_csv(source)
        library = _library_faults(ContingencyTable.from_cells, *mutate_cells(table.variables, dict(table.cells), rng))
        commands = ("bound", "audit", "estimate")
    argv = [rng.choice(commands), str(path)]
    if argv[0] == "bound":
        argv += ["--mode", rng.choice(MODES)]
    if argv[0] != "estimate":
        argv += ["--method", rng.choice(("closed", "oracle", "both")), "--output", rng.choice(("json", "csv"))]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # the fault under test: a traceback
        return None, "", "", [f"{argv[0]} {argv[2:]} raised {exc!r}"], library
    out_text, err_text = out.getvalue(), err.getvalue().replace(str(workdir), "<dir>")
    cli = [f"{argv[0]} {argv[2:]}: {fault}" for fault in _cli_faults(argv, code, out_text, err_text)]
    return code, out_text, err_text, cli, library


def fuzz(n):
    """Cases 0 to n - 1: the count of each exit code, the sha256 of the outputs, and the CLI and library faults."""
    exits, digest, cli_faults, library_faults = Counter(), hashlib.sha256(), [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(n):
            code, out, err, cli, library = run_case(i, Path(tmp))
            exits[code] += 1
            digest.update(f"{code}\n{out}{err}".encode())
            cli_faults += [f"case {i}: {fault}" for fault in cli]
            library_faults += [f"case {i}: {fault}" for fault in library]
    return exits, digest.hexdigest(), cli_faults, library_faults


@functools.cache
def _tier1_run():
    return fuzz(CASES)


def test_every_mutated_input_exits_0_2_or_3_without_a_traceback():
    exits, _, cli_faults, _ = _tier1_run()
    assert not cli_faults, "\n".join(cli_faults[:20])
    assert exits[0] and exits[2], exits  # some cases reach the bounds, and some are refused


def test_the_library_raises_only_format_errors_on_mutated_inputs():
    _, _, _, library_faults = _tier1_run()
    assert not library_faults, "\n".join(library_faults[:20])


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        sys.exit(f"usage: {sys.argv[0]} N")
    exits, digest, cli_faults, library_faults = fuzz(int(sys.argv[1]))
    print(sys.argv[1], dict(sorted(exits.items(), key=str)), digest)
    if cli_faults or library_faults:
        sys.exit("\n".join(cli_faults + library_faults))
