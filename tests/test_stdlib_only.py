"""Runtime code stays pure standard library: every absolute import in
src/termdep names a module that ships with Python."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "termdep").glob("*.py"))


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
