"""Every name a module under src/randaudit imports is used, listed in its
``__all__``, or re-exported on purpose on a ``# noqa: F401`` line.  The
package ``__init__`` is left out: it imports only to re-export.

Every module-level private name (one leading underscore) in src/randaudit
is read somewhere in the package outside its own definition, so a helper
that a change stops calling is deleted with it.

Every ``__all__`` entry of a module in src/randaudit names a module-level
definition or import, so a rename cannot leave ``from module import *``
raising AttributeError.

The ``test`` extra in pyproject.toml names exactly the third-party modules
that tests/, perfbench/ and scripts/ import, so an oracle nothing uses any
more is not installed, and one that something uses is declared.

Standard library only, so the checks run wherever the tests do.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "randaudit"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
TEST_TREES = ("tests", "perfbench", "scripts")


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


def orphaned_private_names(paths) -> list[str]:
    """Module-level functions, classes and constants named with one leading
    underscore that no top-level statement of ``paths`` other than their own
    definition reads, as a Name or as an attribute."""
    defined, reads = [], []  # (where, name, statement index), names read per statement
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [target.id for target in node.targets if isinstance(target, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((f"{path.name}:{node.lineno}: {name}", name, len(reads)))
            reads.append(
                {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
                | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            )
    return [
        where for where, name, own in defined
        if not any(name in read for i, read in enumerate(reads) if i != own)
    ]


def stale_all_entries(path: Path) -> list[str]:
    """Entries of ``path``'s ``__all__`` that name no module-level function,
    class, assignment target or import."""
    defined, listed = set(), []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names = {sub.id for sub in ast.walk(target) if isinstance(sub, ast.Name)}
                defined |= names
                if names == {"__all__"}:
                    listed = ast.literal_eval(node.value)
    return [f"{path.name}: {name}" for name in listed if name not in defined]


def third_party_imports(root: Path) -> set[str]:
    """Top-level modules that the code under ``root``'s TEST_TREES imports
    or hands to ``pytest.importorskip``, less the standard library,
    randaudit and the trees' own modules."""
    paths = [path for tree in TEST_TREES for path in (root / tree).rglob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "importorskip":
                names.add(node.args[0].value)
    local = {path.stem for path in paths} | {"randaudit"}
    return {name.partition(".")[0] for name in names} - local - set(sys.stdlib_module_names)


def declared_test_extra(pyproject: Path) -> set[str]:
    """The names in pyproject.toml's ``test`` extra, without version pins."""
    import tomllib

    extra = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["optional-dependencies"]["test"]
    return {re.match(r"[\w.-]+", requirement).group() for requirement in extra}


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


def test_no_orphaned_private_names():
    assert orphaned_private_names(sorted(SRC.glob("*.py"))) == []


def test_the_check_sees_an_orphaned_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 3\n"
        "_unused = 4\n"
        "def _recurse(n):\n"
        "    return _recurse(n - 1) if n else 0\n"
        "class _Orphan:\n"
        "    pass\n"
        "def _helper():\n"
        "    return _LIMIT\n"
    )
    (tmp_path / "b.py").write_text("from . import a\nprint(a._helper())\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert orphaned_private_names(paths) == ["a.py:2: _unused", "a.py:3: _recurse", "a.py:5: _Orphan"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_stale_all_entries(path):
    assert stale_all_entries(path) == []


def test_the_check_sees_a_stale_all_entry(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\n"
        "from math import comb as choose\n"
        "LIMIT: int = 3\n"
        "LOW, HIGH = 1, 2\n"
        "def f():\n"
        "    g = 1\n"
        "class C:\n"
        "    pass\n"
        "__all__ = ['os', 'choose', 'LIMIT', 'LOW', 'HIGH', 'f', 'C', 'comb', 'g']\n"
    )
    assert stale_all_entries(module) == ["m.py: comb", "m.py: g"]


needs_tomllib = pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")


@needs_tomllib
def test_test_extra_is_what_the_tests_import():
    assert declared_test_extra(ROOT / "pyproject.toml") == third_party_imports(ROOT)


@needs_tomllib
def test_the_check_sees_an_undeclared_and_an_unused_module(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        '[project.optional-dependencies]\ntest = ["pytest>=7", "mpmath"]\n'
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "helper.py").write_text("")
    (tmp_path / "tests" / "test_a.py").write_text(
        "import os.path\n"
        "import pytest\n"
        "import helper\n"
        "from randaudit import bounds\n"
        "from numpy.random import default_rng\n"
        "stats = pytest.importorskip('scipy.stats')\n"
    )
    assert declared_test_extra(tmp_path / "pyproject.toml") == {"pytest", "mpmath"}
    assert third_party_imports(tmp_path) == {"pytest", "numpy", "scipy"}
