"""The benchmark tracer still installs on the package and undoes itself.

perfbench/tracer.py rebinds module-level names of the package (some kept
bound only for it) to span-recording wrappers.  A refactor that drops
or renames one of those names breaks the benchmark's per-layer metrics;
this test catches it.  The tracer file is loaded, never modified.
"""

import ast
import functools
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_span_site_and_restores_it():
    tracer = _load_tracer()
    sites = [(importlib.import_module(mod), attr) for mod, attr, _ in tracer.SPAN_SITES]
    missing = [f"{mod.__name__}.{attr}" for mod, attr in sites if not hasattr(mod, attr)]
    assert not missing, f"span sites no longer bound: {missing}"
    methods = [
        (getattr(importlib.import_module(mod), cls), method)
        for mod, cls, names, _ in tracer.COUNTED_METHODS
        for method in names
    ]
    before = [getattr(mod, attr) for mod, attr in sites]
    before_methods = [cls.__dict__[method] for cls, method in methods]
    t = tracer.Tracer()
    t.install()
    try:
        for (mod, attr), original in zip(sites, before):
            assert getattr(mod, attr) is not original
    finally:
        t.uninstall()
    assert all(getattr(mod, attr) is original for (mod, attr), original in zip(sites, before))
    assert all(
        cls.__dict__[method] is original
        for (cls, method), original in zip(methods, before_methods)
    )


def test_tracer_records_no_enumeration_in_a_scatter():
    """The eigenform-scatter per-layer metrics read the weierstrass_family
    span: one returns for each row D of a scatter.  A scatter counts the
    prototypes per (w, h) class and builds none, so it records no
    enumerate_prototypes span; a direct enumeration still records one,
    and counts what it returns."""
    from veechfib import families

    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        rows, skipped = families.chern_scatter(5, 60, 5)
        scatter_spans = len(t.spans)
        protos = families.enumerate_prototypes(44)
    finally:
        t.uninstall()
    assert rows and skipped
    names = [span[1] for span in t.spans]
    assert "prototypes.enumerate_prototypes" not in names[:scatter_spans]
    assert t.counts["families.weierstrass_family.returned"] == len(rows)
    assert names[scatter_spans:] == ["prototypes.enumerate_prototypes"]
    assert t.counts["prototypes.enumerate_prototypes.yielded"] == len(protos) > 0


def test_tracer_sees_one_riemann_hurwitz_and_one_twisting_span_per_scatter_row():
    """families.evaluate calls riemann_hurwitz_cover and cover_twisting
    once each per family member, through the names the tracer rebinds,
    so covers.* spans count members, not cusps or cusp classes."""
    from veechfib import families

    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        rows, skipped = families.chern_scatter(5, 60, 5)
    finally:
        t.uninstall()
    assert rows and not [d for d, why in skipped if why == "inconsistent-cover"]
    names = [span[1] for span in t.spans]
    assert names.count("covers.riemann_hurwitz_cover") == len(rows)
    assert names.count("covers.cover_twisting") == len(rows)


def test_tracer_sees_one_root_isolation_and_no_charpoly_per_model_build():
    """The polygon-levels per-layer metrics read exact.isolate_largest_real_root
    and exact.charpoly: a model build isolates mu once, from its Coxeter
    number, inside perron_frobenius, and never expands a characteristic
    polynomial."""
    from veechfib import thurston_veech

    tracer = _load_tracer()
    thurston_veech.build_surface.cache_clear()
    t = tracer.Tracer()
    t.install()
    try:
        for tag in ("polygon-7", "polygon-16", "E8"):
            thurston_veech.build_surface(tag)
    finally:
        t.uninstall()
    names = [span[1] for span in t.spans]
    isolations = [span for span in t.spans if span[1] == "exact.isolate_largest_real_root"]
    assert len(isolations) == 3
    assert all(names[span[4]] == "thurston_veech.perron_frobenius" for span in isolations)
    assert len({span[4] for span in isolations}) == 3
    assert names.count("thurston_veech.perron_frobenius") == 3
    assert "exact.charpoly" not in names


def test_admissible_primes_builds_no_model():
    """The primes command reads m_alpha from the Coxeter number: no
    thurston_veech.build_surface span, and no model enters the cache."""
    from veechfib import families, thurston_veech

    tracer = _load_tracer()
    build_surface = thurston_veech.build_surface
    build_surface.cache_clear()
    t = tracer.Tracer()
    t.install()
    try:
        for tag in ("polygon-37", "polygon-64", "E7", "E8"):
            assert families.admissible_primes(tag, 50)
    finally:
        t.uninstall()
    names = [span[1] for span in t.spans]
    assert names.count("families.admissible_primes") == 4
    assert "thurston_veech.build_surface" not in names
    assert build_surface.cache_info().misses == 0


def test_tracer_sees_each_structural_check_once_per_model_under_its_family():
    """The polygon-levels per-layer metrics read the structural-check
    spans: a cold family run builds its model and runs each check once,
    inside the families.*_family span.  Rank Q is decided by the build
    alone, which refuses a genus that is not its rank: one exact.rank
    span under each build_surface, and no core_curve_span_check span."""
    from veechfib import families, thurston_veech

    tracer = _load_tracer()
    thurston_veech.build_surface.cache_clear()
    t = tracer.Tracer()
    t.install()
    try:
        families.polygon_family(5, 3)
        families.sporadic_family("E7", 5)
    finally:
        t.uninstall()
    names = [span[1] for span in t.spans]
    assert names.count("thurston_veech.build_surface") == 2
    for check in ("staircase_parity_check", "holonomy_basis_check"):
        spans = [span for span in t.spans if span[1] == f"thurston_veech.{check}"]
        assert [names[span[4]] for span in spans] == [
            "families.polygon_family",
            "families.sporadic_family",
        ], check
    assert "thurston_veech.core_curve_span_check" not in names
    builds = [t.spans[span[4]] for span in t.spans if span[1] == "exact.rank"]
    assert [build[1] for build in builds] == ["thurston_veech.build_surface"] * 2
    assert [names[build[4]] for build in builds] == [
        "families.polygon_family",
        "families.sporadic_family",
    ]


SRC = Path(__file__).resolve().parents[1] / "src" / "veechfib"
_CACHE_DECORATOR = re.compile(r"^\s*@(?:functools\.)?(lru_cache|cache|cached_property)\b", re.M)


def _package_caches():
    """(module, qualified name, maxsize) of every lru cache defined at
    module level or on a module-level class of veechfib, and (module,
    qualified name) of every cached_property."""
    import veechfib

    caches, properties = set(), set()
    for info in pkgutil.walk_packages(veechfib.__path__, "veechfib."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            members = [(name, obj)]
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                members += [(f"{name}.{key}", value) for key, value in vars(obj).items()]
            for qualified, value in members:
                if isinstance(value, functools.cached_property):
                    properties.add((module.__name__, qualified))
                elif hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                    caches.add((module.__name__, qualified, value.cache_info().maxsize))
    return caches, properties


def test_every_functools_cache_in_the_package_is_pinned():
    """A cache the benchmark does not clear would turn a cold pass warm.
    The three unbounded lru caches are the ones perfbench/tracer.py
    clears before each pass; divisor_scan keeps one discriminant; the
    cached property lives on a SurfaceModel, which build_surface's cache
    holds, so clearing it drops it."""
    caches, properties = _package_caches()
    assert caches == {
        ("veechfib.thurston_veech", "build_surface", None),
        ("veechfib.exact.polynomials", "cos_two_pi_minpoly", None),
        ("veechfib.exact.polynomials", "cyclotomic_polynomial", None),
        ("veechfib.prototypes", "divisor_scan", 1),
    }
    assert properties == {("veechfib.thurston_veech", "SurfaceModel.memo")}
    cleared = {(mod, attr) for mod, attr, _ in _load_tracer().CACHES}
    assert cleared == {(mod, name) for mod, name, size in caches if size is None}
    # no cache hides inside a function body or a nested class
    decorators = [
        match
        for path in SRC.rglob("*.py")
        for match in _CACHE_DECORATOR.findall(path.read_text(encoding="utf-8"))
    ]
    assert len(decorators) == len(caches) + len(properties)


def _kept_bound_names(source):
    """The names a module's source marks (kept bound): each name of a
    marked import line, and each name of a _lazy_exports entry whose own
    line or key line carries the marker, every entry when the comment
    above the call carries it; with the names the module loads anywhere
    else."""
    lines = source.splitlines()
    tree = ast.parse(source)

    def marked(first, last):
        return any("(kept bound)" in line for line in lines[first - 1 : last])

    dicts = {
        node.targets[0].id: node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and marked(node.lineno, node.end_lineno):
            names.update(alias.asname or alias.name for alias in node.names)
        call = getattr(node, "value", None)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_lazy_exports":
            above = node.lineno
            while above > 1 and lines[above - 2].lstrip().startswith("#"):
                above -= 1
            whole = marked(above, node.lineno)
            exports = call.args[1]
            exports = dicts[exports.id] if isinstance(exports, ast.Name) else exports
            for key, value in zip(exports.keys, exports.values):
                for elt in value.elts:
                    if whole or marked(key.lineno, key.lineno) or marked(elt.lineno, elt.lineno):
                        names.add(elt.value)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return names, loaded


def test_every_kept_bound_name_is_a_span_site():
    """A name bound only so that perfbench/tracer.py can rebind it is
    marked (kept bound); one the module never loads otherwise must be a
    span site of that module, so a stale marker fails here.  The pinned
    set is what a tracer that no longer binds these names frees."""
    sites = {(mod, attr) for mod, attr, _ in _load_tracer().SPAN_SITES}
    tracer_only = set()
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        names, loaded = _kept_bound_names(path.read_text(encoding="utf-8"))
        tracer_only |= {(module, name) for name in names - loaded}
    assert tracer_only <= sites, sorted(tracer_only - sites)
    assert tracer_only == {
        ("veechfib.thurston_veech", "is_irreducible_mod_p"),
        ("veechfib.thurston_veech", "charpoly"),
        ("veechfib.thurston_veech", "in_order"),
        ("veechfib.families", "is_irreducible_mod_p"),
        ("veechfib.families", "enumerate_prototypes"),
        ("veechfib.families", "core_curve_span_check"),
        ("veechfib.families", "element_minimal_polynomial"),
        ("veechfib.exact.numberfield", "isolate_largest_real_root"),
    } | {
        ("veechfib.cli", name)
        for name in (
            "admissible_primes", "chern_scatter", "polygon_family", "sporadic_family",
            "weierstrass_family", "enumerate_prototypes", "build_surface",
            "cover_twisting", "group_closure_order", "riemann_hurwitz_cover",
        )
    }
