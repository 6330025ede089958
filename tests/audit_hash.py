"""Hash of `causabound audit --method both` over seeded edge-region documents.

A refactor that should not change any report leaves this hash unchanged:

    PYTHONPATH=src python tests/audit_hash.py 16800 [DOC_PATH]

prints N and the sha256 of the exit code, stdout and stderr of each audit,
in order.  Document i has structure i mod 4 (basic, mediator, covariate,
mediator_covariate) and entries drawn half from the edge values below and
half uniformly, from one `random.Random(2026)` stream.  Each document is
written to DOC_PATH (default: a file in a temporary directory) and audited
in process.  Needs only the standard library; pytest does not collect it.
The expected line for N = 16800 is kept in
tests/data/golden/audit-hash-16800.txt, and CI diffs the output against it.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from causabound.cli import main
from causabound.scenario import ordered_sum

# exact ends, signed zero, subnormals, and overshoot inside the 1e-9 tolerance;
# conftest.py and test_fuzz.py import them from here
EDGE = (0.0, 1.0, -0.0, 1e-300, 5e-324, -5e-10, 1.0 + 5e-10, 1e-9, 1.0 - 1e-9)
STRUCTURES = ("basic", "mediator", "covariate", "mediator_covariate")


def documents(n: int):
    """The first `n` scenario documents of the seeded stream."""
    rng = random.Random(2026)

    def entry():
        return rng.choice(EDGE) if rng.random() < 0.5 else rng.random()

    for i in range(n):
        structure = STRUCTURES[i % 4]
        doc, suffixes = {"structure": structure}, [""]
        if "covariate" in structure:
            k = rng.randint(2, 4)
            suffixes = [f",S={s}" for s in range(k)]
            raw = [rng.choice((0.0, 0.25, 1.0, rng.uniform(0.05, 1.0))) for _ in range(k)]
            if not any(raw):
                raw[0] = 1.0
            doc["covariate_prior"] = [w / ordered_sum(raw) for w in raw]
            doc["exposure"] = {f"S={s}": entry() for s in range(k)}
        elif rng.random() < 0.5:
            doc["exposure"] = entry()
        if "mediator" in structure:
            doc["mediator"] = {f"E={e}{x}": entry() for e in (0, 1) for x in suffixes}
        cause = "M" if "mediator" in structure else "E"
        doc["response"] = {f"{cause}={v}{x}": entry() for v in (0, 1) for x in suffixes}
        yield doc


def audit_hash(n: int, path: Path) -> str:
    digest = hashlib.sha256()
    for doc in documents(n):
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["audit", str(path), "--method", "both"])
        digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}".encode())
    return digest.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3) or not sys.argv[1].isdigit():
        sys.exit(f"usage: {sys.argv[0]} N [DOC_PATH]")
    count = int(sys.argv[1])
    if len(sys.argv) == 3:
        print(count, audit_hash(count, Path(sys.argv[2])))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            print(count, audit_hash(count, Path(tmp) / "doc.json"))
