"""Every module reads every name it imports.

An AST scan stands in for pyflakes: for each module of the package and of
the test suite, the names bound by its import statements must each appear
as a name somewhere in the module. `strukt/__init__.py` is exempt, because
its imports are the package's re-exports, and so is `from __future__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
MODULES = sorted(
    path
    for path in [*ROOT.glob("src/strukt/*.py"), *ROOT.glob("tests/*.py")]
    if path.relative_to(ROOT) != Path("src/strukt/__init__.py")
)


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, in sorted order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
    source += "from math import pi, tau\nprint(np, tau)\n"
    assert unused_imports(source) == ["os", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
