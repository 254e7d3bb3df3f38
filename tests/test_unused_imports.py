"""Every name a module under src/randaudit imports is used, listed in its
``__all__``, or re-exported on purpose on a ``# noqa: F401`` line.  The
package ``__init__`` is left out: it imports only to re-export.

Standard library only, so the check runs wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "randaudit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            noqa = any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno))
            if name not in used and not noqa:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from itertools import chain, islice\n"
        "import os.path\n"
        "from math import comb  # noqa: F401\n"
        "__all__ = ['os']\n"
        "print(chain)\n"
    )
    assert unused_imports(module) == ["m.py:1: islice"]
