"""Every source and test file parses under the oldest supported grammar.

pyproject.toml declares requires-python >= 3.10.  `ast.parse` with
`feature_version=(3, 10)` rejects syntax newer than 3.10 (for example
`except*` or `type` aliases) whatever interpreter runs the suite.  It checks
grammar only: a standard-library name added after 3.10 still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
