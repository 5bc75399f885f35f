"""The references that check the library share no code with it: the test
oracles and the benchmark's output checker import nothing from covmat.
Both files are read and parsed, never imported or changed."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


@pytest.mark.parametrize("path", ["tests/oracles.py", "perfbench/checker.py"])
def test_reference_imports_nothing_from_covmat(path):
    modules = imported_modules(ROOT / path)
    assert modules, "no imports found; the parse read the wrong file"
    library = sorted(m for m in modules if m.startswith(".") or m.split(".")[0] == "covmat")
    assert not library, f"{path} imports {library}"
