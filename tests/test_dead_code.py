"""No definition in src/veechfib that the program never loads.

An AST scan lists every module-level function or class, and every
non-dunder method of a module-level class, whose name src/ never loads
outside the definition's own body, as a Name or as an attribute.  An
import, a name in an export table, a recursive call and a test do not
count.  Each name found must be on the allow-list below, with its
reason.

The scan matches names, not call graphs.  A load of a name outside a
definition counts for every definition of that name, wherever it
stands.  So a module-level function that calls the method it shares a
name with is not kept alive by that call, but a caller of either keeps
both.  And the scan cannot see a name that is loaded only from a dead
branch: root_bound was loaded once, by the search branch of the root
isolator that no program caller took, and it passed this scan.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "veechfib"

ALLOWED = {
    ("veechfib.exact.finitefield", "FiniteFieldSpec.elements"):
        "goes once the benchmark change of ROADMAP item 2(d) lands",
    ("veechfib.exact.linalg", "charpoly"):
        "a tracer span site; ROADMAP item 17 drops it",
    ("veechfib.exact.numberfield", "element_minimal_polynomial"):
        "a tracer span site; ROADMAP item 17 drops it",
    ("veechfib.exact.numberfield", "in_order"):
        "a tracer span site; ROADMAP item 17 drops it",
    ("veechfib.invariants", "kappa_bound_check"):
        "kept on purpose, ROADMAP item 7",
    ("veechfib.thurston_veech", "gluing_check"):
        "pins the even n-gon finding, evidence under ROADMAP item 1",
}


def _definitions(tree):
    """(qualified name, name, node) of each module-level function or
    class and each non-dunder method of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item


def _loads(tree):
    """How often tree loads each name, as a Name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unloaded_definitions():
    """(module, qualified name) of every definition in src/veechfib whose
    name src/ loads only inside that definition, or nowhere."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        modules[module] = ast.parse(path.read_text(encoding="utf-8"))
    loads = sum(map(_loads, modules.values()), Counter())
    return {
        (module, qualified)
        for module, tree in modules.items()
        for qualified, name, node in _definitions(tree)
        if loads[name] == _loads(node)[name]
    }


def test_every_unloaded_definition_is_allowed_with_a_reason():
    found = unloaded_definitions()
    assert found <= ALLOWED.keys(), sorted(found - ALLOWED.keys())
    # an entry the program loads again is stale
    assert found == ALLOWED.keys(), sorted(ALLOWED.keys() - found)
