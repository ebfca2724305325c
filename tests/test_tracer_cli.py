"""Through the CLI, the benchmark tracer sees one family span per request.

The CLI calls each family through the families module, the site the
tracer wraps for it.  Its own names for those functions are only kept
bound for the tracer.  In a fresh interpreter they are first looked up
by the tracer's install, after the families site is wrapped, so a CLI
that called one of them would record its family span twice.
perfbench/tracer.py is loaded, never modified.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
REQUESTS = ("polygon --n 5 --p 3", "weierstrass --D 5 --p 3")
STRUCTURAL_CHECKS = (
    "thurston_veech.staircase_parity_check",
    "thurston_veech.holonomy_basis_check",
    "thurston_veech.core_curve_span_check",
)

# what perfbench/cli_child.py does: import the CLI, install, run, uninstall
_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
import veechfib.cli
t = tracer.Tracer()
t.install()
try:
    for item, request in enumerate(sys.argv[2:]):
        t.item = item
        assert veechfib.cli.main(request.split()) == 0
finally:
    t.uninstall()
print(json.dumps(t.spans))
"""


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_one_family_span_per_request(spans):
    family = [
        (index, item, name)
        for index, (item, name, *_) in enumerate(spans)
        if name.startswith("families.") and name.endswith("_family")
    ]
    assert [(item, name) for _, item, name in family] == [
        (0, "families.polygon_family"),
        (1, "families.weierstrass_family"),
    ]
    polygon_span = family[0][0]
    for check in STRUCTURAL_CHECKS:
        parents = [span[4] for span in spans if span[1] == check]
        assert parents == [polygon_span], check


def test_a_fresh_cli_process_records_one_family_span_per_request():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(TRACER_PATH), *REQUESTS],
        env=env, capture_output=True, text=True, check=True,
    )
    _assert_one_family_span_per_request(json.loads(out.stdout.splitlines()[-1]))


def test_cli_spans_in_process_and_every_site_restored(capsys):
    from veechfib import cli, thurston_veech

    tracer = _load_tracer()
    sites = [(importlib.import_module(mod), attr) for mod, attr, _ in tracer.SPAN_SITES]
    before = [getattr(mod, attr) for mod, attr in sites]
    thurston_veech.build_surface.cache_clear()  # the structural checks run again
    t = tracer.Tracer()
    t.install()
    try:
        for item, request in enumerate(REQUESTS):
            t.item = item
            assert cli.main(request.split()) == 0
    finally:
        t.uninstall()
    capsys.readouterr()
    _assert_one_family_span_per_request(t.spans)
    assert all(getattr(mod, attr) is original for (mod, attr), original in zip(sites, before))
