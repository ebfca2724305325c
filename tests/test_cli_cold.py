"""One request per request class of the CLI benchmark's golden record,
each in its own interpreter, run the way the console script runs.

test_cli.py::test_cli_matches_golden_bytes replays every request in one
process, where earlier requests have already imported every module; a
name that only resolves once some other request loaded its module
passes there and fails here.  perfbench/clicold.py is loaded, never
modified: its pool, its golden record and its child runner are used as
they are.
"""

import importlib.util
import sys
from pathlib import Path

CLICOLD_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "clicold.py"

# request class -> one light request from its pool; where a class has
# one, the request takes a lazily bound path (the model layer reached
# from primes, sporadic and a polygon refusal)
LIGHT_REQUESTS = {
    "verify": "verify",
    "weierstrass": "weierstrass --D 13 --p 5",
    "polygon": "polygon --n 5 --p 3",
    "sporadic": "sporadic --which E7 --p 7",
    "elliptic": "elliptic --m 5",
    "prototypes": "prototypes --D 8 --format csv",
    "primes": "primes --family polygon-7 --bound 40",
    "tv-build": "tv-build --family polygon-5",
    "cover": "cover --base-genus 0 --orbifold-orders 4 --cusp-image-orders 5,5 --degree 120 "
    "--base-twists 2,2 --roots 1,1",
    "scatter": "scatter --p 5 --min-D 5 --max-D 200",
    "group-order": "group-order --p 3 --modulus x^2-x-1 --alpha 1,1",
    "group-order-49": "group-order --p 7 --modulus x^2+1",
    "inadmissible": "sporadic --which E7 --p 3",
    "spin": "weierstrass --D 17 --p 3",
    "unsupported": "primes --family polygon-9 --bound 20",
    "usage": "frobnicate",
    "inconsistent": "polygon --n 8 --p 3",
    "inadmissible-37": "polygon --n 37 --p 3",
}


def _load_clicold():
    spec = importlib.util.spec_from_file_location("perfbench_clicold", CLICOLD_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_one_request_per_class_matches_golden_in_a_fresh_interpreter():
    clicold = _load_clicold()
    assert set(LIGHT_REQUESTS) == set(clicold.POOL)
    golden = clicold.load_golden()
    for cls, request in LIGHT_REQUESTS.items():
        argv = request.split()
        assert argv in clicold.POOL[cls][1], request
        record, _ = clicold.run_request(argv)
        assert record == golden[request], (cls, request)
