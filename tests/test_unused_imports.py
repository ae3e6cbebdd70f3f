"""Every module-level import in ``src/modsym`` is used by its module.

A name counts as used when the module reads it anywhere as a plain name,
which includes the base of an attribute access such as ``_factor.factor``.
The one exception is a re-export that callers import from this module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modsym"

# ``from modsym.symcalc import MAX, SUM``: the product conventions of
# modpairs, re-exported with the symbol sums that carry them
ALLOWED = {("symcalc", "MAX")}


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name


def _read_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _read_names(tree)
    return sorted(
        name
        for name in _imported_names(tree)
        if name not in used and (path.stem, name) not in ALLOWED
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("import os\nfrom json import dumps, loads\n\nprint(loads)\n")
    assert unused_imports(mod) == ["dumps", "os"]
