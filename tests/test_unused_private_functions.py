"""Every module-level private function in ``src/modsym`` is referenced there.

A function ``_name`` defined at the top level of a module counts as used when
some code in ``src/modsym`` outside its own body reads it: as a plain name, as
an attribute (``_factor._factor_monic``) or in a ``from ... import``.  A helper
left behind by a fold, or one that only calls itself, fails this test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modsym"


def _private_functions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node


def _references(tree, skip):
    """Names read in ``tree``, outside the nodes in ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def unreferenced_private_functions(paths):
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    missing = []
    for stem, tree in sorted(trees.items()):
        for fn in _private_functions(tree):
            if not any(fn.name in _references(t, {fn}) for t in trees.values()):
                missing.append(f"{stem}.{fn.name}")
    return sorted(missing)


def test_every_private_function_is_referenced():
    assert unreferenced_private_functions(sorted(SRC.glob("*.py"))) == []


def test_scan_finds_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    pass\n\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n\n"
        "def _dead():\n    pass\n\n\n"
        "def public():\n    return _used()\n"
    )
    (tmp_path / "b.py").write_text("from a import _imported\n")
    (tmp_path / "c.py").write_text("def _imported():\n    pass\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert unreferenced_private_functions(paths) == ["a._dead", "a._recursive"]
