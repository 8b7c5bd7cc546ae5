"""No module of the package imports a top-level name it never reads.

`__init__.py` is exempt (its imports are the package's re-exports), and so
is any name imported on a line marked `# noqa: F401`.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hopfcoh"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each top-level import binding that nothing else in source reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if any("# noqa: F401" in lines[n - 1] for n in {node.lineno, alias.lineno}):
                continue
            bound.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from typing import Optional, Tuple  # keep\nimport os\nfrom x import y  # noqa: F401\n\nz: Tuple = ()\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
