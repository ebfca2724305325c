"""No import in src/veechfib that its own module never loads.

An AST scan lists every name that an import statement under
src/veechfib binds (the alias, or the first part of a dotted
``import a.b``) and that its module never loads as a Name.  An import
whose source lines carry ``(kept bound)`` or ``(re-exported)`` binds on
purpose and is exempt, and so is ``from __future__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "veechfib"

MARKERS = ("(kept bound)", "(re-exported)")


def unused_imports(source):
    """(line, name) of each name an import in source binds and the
    module never loads, unless the import's lines carry a marker."""
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        if any(marker in text for marker in MARKERS):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in loaded:
                found.append((node.lineno, name))
    return found


def test_every_import_is_loaded_or_marked():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, found


def test_the_scan_sees_an_unused_import_and_honours_the_markers():
    assert unused_imports("import math\nimport os\nmath.pi\n") == [(2, "os")]
    assert unused_imports("from a import (\n    b,  # noqa: F401  (kept bound)\n)\n") == []
    assert unused_imports("from .tags import tag  # noqa: F401  (re-exported)\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("import a.b\nimport c.d as e\na.b.f(e)\n") == []
    assert unused_imports("def f():\n    from x import y\n") == [(2, "y")]
