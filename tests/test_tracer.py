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
