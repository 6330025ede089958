"""The README's library example runs as written on the bundled inputs."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", library, flags=re.DOTALL)
    monkeypatch.chdir(ROOT)  # the example names the bundled inputs from the repository root
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    lower, upper = map(float, capsys.readouterr().out.split())
    assert (lower, upper) == (namespace["closed"].lower, namespace["closed"].upper)
    assert namespace["counted"].structure == namespace["scenario"].structure
