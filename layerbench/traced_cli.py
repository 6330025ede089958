"""Run one causabound CLI call in this fresh interpreter, traced.

    PYTHONPATH=src python3 layerbench/traced_cli.py SPANS.json ARGV...

Times `import causabound.cli`, installs the layer wrappers, calls
`cli.main(ARGV)` and writes the spans to SPANS.json.  Standard output is
the CLI's own, byte for byte; the exit code is `main`'s.
"""

from __future__ import annotations

import importlib
import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.cli"):
        cli = importlib.import_module("causabound.cli")
    tracer.install()
    code = cli.main(argv)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
