"""Every name a transpin module imports is used in that module, every name
its ``__all__`` lists is bound there, and a private name crosses from one
module to another only as the committed table lists."""

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


def unbound_exports(source: str) -> list[str]:
    """Each ``__all__`` entry that names nothing ``source`` binds at module level.

    A def, a class, an assignment and an import each bind a name, so an
    export left behind when its definition is deleted shows here.
    """
    bound, exports = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [getattr(target, "id", None) for target in targets]
            bound.update(names)
            if names == ["__all__"]:
                exports = ast.literal_eval(node.value)
    return [name for name in exports if name not in bound]


def test_an_unbound_export_is_found():
    source = "from x import y\nz: int = 1\ndef f(): pass\n__all__ = ['y', 'z', 'f', 'g']\n"
    assert unbound_exports(source) == ["g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_export_is_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


#: every private name that one transpin module imports from another, as
#: ``"importer <- module.name"``; a new entry has to be a deliberate edit here
_PRIVATE_IMPORTS = [
    "cli <- observables._check_quanta",
    "effective_mass <- modes._require_propagating",
    "observables <- modes._check_float_range",
    "observables <- modes._guided_factors",
    "observables <- modes._require_propagating",
    "observables <- modes._row_blocks",
    "spin <- modes._check_float_range",
    "spin <- modes._row_blocks",
    "verify <- observables._rel",
]


def private_imports(importer: str, source: str) -> list[str]:
    """``"importer <- module.name"`` for each private name imported from a transpin module."""
    entries = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").startswith("transpin.")):
            module = (node.module or "").removeprefix("transpin.")
            entries += [f"{importer} <- {module}.{alias.name}" for alias in node.names
                        if alias.name.startswith("_")]
    return entries


def test_a_private_import_is_found():
    source = ("from .modes import _a, b\nfrom transpin.spin import _c\n"
              "from math import _d\ndef f():\n    from .verify import _e\n")
    assert private_imports("x", source) == ["x <- modes._a", "x <- spin._c", "x <- verify._e"]


def test_private_names_cross_modules_only_as_listed():
    found = [entry for path in SOURCES
             for entry in private_imports(path.stem, path.read_text(encoding="utf-8"))]
    assert sorted(found) == _PRIVATE_IMPORTS
