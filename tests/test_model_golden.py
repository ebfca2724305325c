"""Surface models pinned byte for byte over every supported tag up to n = 128
and three past it.

Each entry of tests/model_golden.json is the SHA-256 of
json.dumps(build_surface(tag).to_json()) for one supported tag: every
polygon-<n> with n <= 128 that surface_tag accepts, then the large tags
polygon-202, -251 and -256, then E7 and E8.  The family goldens hold no
heights or lifts, and the CLI goldens build only a few models, so this
file pins every mu, height, circumference and height lift the
construction emits.

The file is regenerated only when an output change is intended:

    PYTHONPATH=src python tests/test_model_golden.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

from veechfib.errors import UnsupportedFamilyError
from veechfib.tags import surface_tag
from veechfib.thurston_veech import build_surface

GOLDEN = Path(__file__).with_name("model_golden.json")
LARGE_TAGS = ("polygon-202", "polygon-251", "polygon-256")


def supported_tags(max_n=128, large=()):
    """Every polygon tag with n <= max_n that surface_tag accepts, then
    the large tags, then E7, E8."""
    tags = []
    for n in range(3, max_n + 1):
        try:
            tags.append(surface_tag(f"polygon-{n}")[0])
        except UnsupportedFamilyError:
            pass
    return tags + list(large) + ["E7", "E8"]


def digest(tag):
    return hashlib.sha256(json.dumps(build_surface(tag).to_json()).encode()).hexdigest()


def replay():
    return {tag: digest(tag) for tag in supported_tags(large=LARGE_TAGS)}


def test_model_json_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    got = replay()
    assert list(got) == list(golden)
    mismatched = [tag for tag in golden if got[tag] != golden[tag]]
    assert not mismatched, f"{len(mismatched)} models differ: {mismatched[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_model_golden.py --record")
    GOLDEN.write_text(json.dumps(replay(), indent=1) + "\n")
