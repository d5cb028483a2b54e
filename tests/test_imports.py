"""Every name a transpin module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "transpin").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name that ``source`` never reads.

    A name read anywhere counts, annotations included, and so does a name
    that ``__all__`` lists, because the module re-exports it.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                               for t in node.targets] == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1])
            if name not in used]


def test_an_unused_import_is_found():
    source = "import os\nfrom math import pi, tau\nfrom x import y\n__all__ = ['y']\nos.sep, tau\n"
    assert unused_imports(source) == ["2: pi"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
