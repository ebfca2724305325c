"""The benchmark tracer still installs on the package and undoes itself.

perfbench/tracer.py rebinds module-level names of the package (some kept
bound only for it) to span-recording wrappers.  A refactor that drops
or renames one of those names breaks the benchmark's per-layer metrics;
this test catches it.  The tracer file is loaded, never modified.
"""

import importlib
import importlib.util
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


def test_tracer_records_one_enumeration_per_scatter_row():
    """The eigenform-scatter per-layer metrics read the enumerate_prototypes
    span: it must fire once for each row D of a scatter, inside that D's
    weierstrass_family span, and count the prototypes of that D."""
    from veechfib import families
    from veechfib.prototypes import enumerate_prototypes

    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        rows, skipped = families.chern_scatter(5, 60, 5)
    finally:
        t.uninstall()
    assert rows and skipped
    names = [span[1] for span in t.spans]
    enumerations = [span for span in t.spans if span[1] == "prototypes.enumerate_prototypes"]
    assert len(enumerations) == len(rows)
    assert all(names[span[4]] == "families.weierstrass_family" for span in enumerations)
    assert t.counts["prototypes.enumerate_prototypes.yielded"] == sum(
        len(enumerate_prototypes(d)) for d, *_ in rows
    )
    stats = tracer.summarize(t.spans)
    assert stats["prototypes.enumerate_prototypes"][0] == len(rows)


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
    inside the families.*_family span."""
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
    for check in ("staircase_parity_check", "holonomy_basis_check", "core_curve_span_check"):
        spans = [span for span in t.spans if span[1] == f"thurston_veech.{check}"]
        assert [names[span[4]] for span in spans] == [
            "families.polygon_family",
            "families.sporadic_family",
        ], check
