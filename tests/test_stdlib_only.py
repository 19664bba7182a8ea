"""Runtime code stays pure standard library: every absolute import in
src/termdep names a module that ships with Python.  The test oracles stay
independent of the code they check: tests/oracles.py never imports termdep."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "termdep").glob("*.py"))
ORACLES = pathlib.Path(__file__).with_name("oracles.py")


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib(path):
    outside = sorted(
        {name for name in absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names}
    )
    assert outside == [], f"{path.name} imports {outside}"


def imported_names(path):
    """Every module `path` imports: by statement (a relative one keeps its
    leading dots) or by a __import__ / importlib.import_module call on a literal."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("__import__", "import_module"):
                yield str(node.args[0].value)


def test_oracles_never_import_termdep():
    names = list(imported_names(ORACLES))
    assert "numpy" in names
    assert [n for n in names if n.split(".")[0] in ("termdep", "")] == []
