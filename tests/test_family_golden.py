"""Family JSON pinned byte for byte over a fixed (family, level) sweep.

Each entry of tests/family_golden.json is the SHA-256 of
json.dumps(result.to_json(), indent=2) for one family member at one
level, or the error type name when that level is refused.  The CLI
goldens cover only a handful of family requests; this sweep also pins
key order, null values and refusal types across every family.

The small Weierstrass discriminants have tiny prototype groups, so the
sweep also pins a few fundamental D from 10^3 to 10^6 (202684 has 4558
prototypes with gcd(w, h) > 1), the CSV that `veechfib scatter --p 7
--min-D 5 --max-D 20000` prints, and the skip list of
chern_scatter(5, 20000, 7).

The file is regenerated only when an output change is intended:

    PYTHONPATH=src python tests/test_family_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from veechfib import cli
from veechfib.errors import VeechFibError
from veechfib.exact.finitefield import is_prime
from veechfib.families import (
    chern_scatter,
    elliptic_family,
    polygon_family,
    sporadic_family,
    weierstrass_family,
)

GOLDEN = Path(__file__).with_name("family_golden.json")
POLYGONS = (5, 7, 8, 10, 11, 13, 14, 16, 17, 22, 26, 32)
ODD_PRIMES = tuple(p for p in range(3, 24, 2) if is_prime(p))
WEIERSTRASS_LEVELS = (3, 5, 7, 11)
# fundamental, not 1 mod 8, a nonresidue at the level
LARGE_WEIERSTRASS = (
    (1004, 3), (5021, 3), (20005, 7), (100005, 7), (202684, 7), (400008, 5), (1000005, 7),
)


def sweep():
    """(key, zero-argument call) for every member of the sweep."""
    for n in POLYGONS:
        for p in ODD_PRIMES:
            yield f"polygon-{n}@{p}", lambda n=n, p=p: polygon_family(n, p)
    for which in ("E7", "E8"):
        for p in ODD_PRIMES:
            yield f"{which}@{p}", lambda which=which, p=p: sporadic_family(which, p)
    for d in range(5, 101):
        if d % 4 in (0, 1) and math.isqrt(d) ** 2 != d and d % 8 != 1:
            for p in WEIERSTRASS_LEVELS:
                yield f"weierstrass-{d}@{p}", lambda d=d, p=p: weierstrass_family(d, p)
    for m in range(3, 13):
        yield f"elliptic-{m}", lambda m=m: elliptic_family(m)
    for d, p in LARGE_WEIERSTRASS:
        yield f"weierstrass-{d}@{p}", lambda d=d, p=p: weierstrass_family(d, p)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(call):
    try:
        result = call()
    except VeechFibError as exc:
        return type(exc).__name__
    return _sha256(json.dumps(result.to_json(), indent=2))


def replay():
    got = {key: digest(call) for key, call in sweep()}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["scatter", "--p", "7", "--min-D", "5", "--max-D", "20000"])
    got["scatter-5-20000@7.csv"] = _sha256(out.getvalue())
    got["scatter-5-20000@7.skipped"] = _sha256(json.dumps(chern_scatter(5, 20000, 7)[1]))
    return got


def test_family_json_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = replay()
    assert list(got) == list(golden)
    mismatched = [key for key in golden if got[key] != golden[key]]
    assert not mismatched, f"{len(mismatched)} entries differ: {mismatched[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_family_golden.py --record")
    GOLDEN.write_text(json.dumps(replay(), indent=1) + "\n")
