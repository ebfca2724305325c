"""The cli-cold workload: one fresh `veechfib` interpreter per request.

Requests come from a fixed pool, so every request a seed can draw has a
golden record in golden_cli.json: exit code, stderr error type, and the
SHA-256 and length of the stdout bytes.  Each child runs under a wall
timeout and an address-space limit set on that child alone.

Record or re-check the goldens from the repository root:

    python3 perfbench/clicold.py --record   # rewrite golden_cli.json
    python3 perfbench/clicold.py --check    # capture again, diff bytes
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
TRACE_MARKER = "PERFBENCH-TRACE "
CHILD_TIMEOUT_S = 60
CHILD_ADDRESS_SPACE = 1 << 30
# exactly what the `veechfib` console script runs
CONSOLE = "import sys; from veechfib.cli import main; sys.exit(main())"


def _requests(*lines):
    return [line.split() for line in lines]


# request class -> (expected exit code, pool of argument lists)
POOL = {
    "verify": (0, _requests("verify")),
    "weierstrass": (0, _requests(
        "weierstrass --D 5 --p 3", "weierstrass --D 8 --p 5", "weierstrass --D 12 --p 5",
        "weierstrass --D 13 --p 5", "weierstrass --D 5 --p 7 --format csv",
        "weierstrass --D 8 --p 11 --format table",
    )),
    "polygon": (0, _requests(
        "polygon --n 5 --p 3", "polygon --n 7 --p 5", "polygon --n 13 --p 7", "polygon --n 16 --p 5",
        "polygon --n 10 --p 7", "polygon --n 11 --p 3", "polygon --n 14 --p 3",
        "polygon --n 8 --p 5 --format csv", "polygon --n 17 --p 3 --format table",
    )),
    "sporadic": (0, _requests(
        "sporadic --which E7 --p 5", "sporadic --which E7 --p 7", "sporadic --which E8 --p 7",
        "sporadic --which E8 --p 13 --format csv",
    )),
    "elliptic": (0, _requests(
        "elliptic --m 3", "elliptic --m 4", "elliptic --m 5", "elliptic --m 7",
        "elliptic --m 12 --format table",
    )),
    "prototypes": (0, _requests(
        "prototypes --D 5", "prototypes --D 8 --format csv", "prototypes --D 12", "prototypes --D 13",
        "prototypes --D 44 --format csv", "prototypes --D 1000", "prototypes --D 2021 --format csv",
    )),
    "primes": (0, _requests(
        "primes --family weierstrass-5 --bound 20", "primes --family weierstrass-13 --bound 60",
        "primes --family polygon-7 --bound 40", "primes --family polygon-8 --bound 60",
        "primes --family E7 --bound 40", "primes --family E8 --bound 40",
    )),
    "tv-build": (0, _requests(
        "tv-build --family polygon-5", "tv-build --family polygon-8", "tv-build --family polygon-13",
        "tv-build --family E7", "tv-build --family E8",
    )),
    "cover": (0, _requests(
        "cover --base-genus 0 --orbifold-orders 2,5 --cusp-image-orders 3 --degree 60 --base-twists 2",
        "cover --base-genus 0 --orbifold-orders 2,3 --cusp-image-orders 4 --degree 24 --base-twists 1",
        "cover --base-genus 0 --orbifold-orders 4 --cusp-image-orders 5,5 --degree 120 "
        "--base-twists 2,2 --roots 1,1",
    )),
    "scatter": (0, _requests(
        "scatter --p 5 --min-D 5 --max-D 200", "scatter --p 7 --min-D 5 --max-D 300",
        "scatter --p 5 --min-D 100 --max-D 400 --verbose-skips",
    )),
    "group-order": (0, _requests(
        "group-order --p 3 --modulus x^2-x-1 --alpha 1,1", "group-order --p 3 --modulus x^2+1",
        "group-order --p 5 --modulus x^2+2", "group-order --p 3 --modulus x^3-x+1",
    )),
    # the largest child (about 31 MB): in every pass, so peak memory does
    # not depend on the seed
    "group-order-49": (0, _requests("group-order --p 7 --modulus x^2+1")),
    "inadmissible": (2, _requests(
        "polygon --n 13 --p 3", "polygon --n 7 --p 7", "polygon --n 16 --p 7",
        "sporadic --which E7 --p 3", "sporadic --which E8 --p 5", "weierstrass --D 21 --p 5",
    )),
    "spin": (2, _requests("weierstrass --D 17 --p 3", "prototypes --D 33")),
    "unsupported": (2, _requests(
        "polygon --n 9 --p 3", "tv-build --family polygon-12", "primes --family polygon-9 --bound 20",
        "elliptic --m 2",
    )),
    "usage": (2, _requests("polygon --n x --p 3", "group-order --p 3", "frobnicate")),
    "inconsistent": (1, _requests(
        "polygon --n 8 --p 3", "weierstrass --D 8 --p 3",
        "cover --base-genus 0 --orbifold-orders 2,5 --cusp-image-orders 3 --degree 61",
        "group-order --p 5 --modulus x^3+x+1 --cap 1000",
    )),
    # the 37-gon at level 3: model construction and structural checks
    # run before the mod-p test refuses the level
    "inadmissible-37": (2, _requests("polygon --n 37 --p 3")),
}

# request class -> count per pass
COMPOSITION = (
    ("verify", 1), ("weierstrass", 2), ("polygon", 3), ("sporadic", 2), ("elliptic", 2),
    ("prototypes", 2), ("primes", 2), ("tv-build", 2), ("cover", 2), ("scatter", 2),
    ("group-order", 1), ("group-order-49", 1), ("inadmissible", 2), ("spin", 1), ("unsupported", 2), ("usage", 1),
    ("inconsistent", 2), ("inadmissible-37", 1),
)


@dataclass
class Request:
    cls: str
    expect: str  # "ok" or "exit <code>"
    argv: list


def key(argv):
    return " ".join(argv)


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_request(argv, trace=False, item=0):
    """Run one request in a fresh interpreter.

    Returns (record, trace payload or None); record is None on a
    timeout.  record holds the exit code, the stderr error type and the
    stdout digest.
    """
    if trace:
        cmd = [sys.executable, str(ROOT / "perfbench" / "cli_child.py"), *argv]
    else:
        cmd = [sys.executable, "-c", CONSOLE, *argv]
    env = dict(os.environ, PERFBENCH_ITEM=str(item))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
            preexec_fn=_limit_child,
        )
    except subprocess.TimeoutExpired:
        return None, None
    stderr, payload = done.stderr.decode(errors="replace"), None
    head, sep, tail = stderr.partition(TRACE_MARKER)
    if sep:
        stderr, payload = head, json.loads(tail)
    return (
        {
            "exit": done.returncode,
            "error": _error_type(stderr),
            "stdout_sha256": hashlib.sha256(done.stdout).hexdigest(),
            "stdout_bytes": len(done.stdout),
        },
        payload,
    )


def _error_type(stderr):
    if not stderr.strip():
        return None
    if stderr.startswith("usage:"):
        return "usage"
    try:
        return json.loads(stderr)["error"]
    except (ValueError, KeyError, TypeError):
        return "unparsed"


def load_golden():
    return json.loads(GOLDEN.read_text())["requests"]


class CliCold:
    """A seeded mix of requests in a seeded order."""

    name = "cli-cold"
    pass_s = 9.0

    def __init__(self):
        self.golden = load_golden()

    def generate(self, rng):
        batch = []
        for cls, count in COMPOSITION:
            code, pool = POOL[cls]
            expect = "ok" if code == 0 else f"exit {code}"
            batch += [Request(cls, expect, argv) for argv in rng.sample(pool, count)]
        rng.shuffle(batch)
        return batch

    def warm_up(self):
        run_request(["elliptic", "--m", "3"])

    def judge(self, request, status, record):
        if status == "timeout":
            return f"timeout after {CHILD_TIMEOUT_S} s"
        want = self.golden[key(request.argv)]
        if record != want:
            return f"differs from golden: {record} != {want}"
        return None

    def report(self):
        return {"golden_requests": len(self.golden)}


def capture():
    out = {}
    for cls, (code, pool) in POOL.items():
        for argv in pool:
            record, _ = run_request(argv)
            if record is None or record["exit"] != code:
                raise SystemExit(f"{key(argv)}: class {cls} expects exit {code}, got {record}")
            out[key(argv)] = record
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help="rewrite golden_cli.json")
    mode.add_argument("--check", action="store_true", help="capture again and compare")
    args = parser.parse_args()
    captured = capture()
    if args.record:
        GOLDEN.write_text(json.dumps({"requests": captured}, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(captured)} requests")
        return 0
    golden = load_golden()
    diffs = [k for k in sorted(set(golden) | set(captured)) if golden.get(k) != captured.get(k)]
    for k in diffs:
        print(f"DIFF {k}: golden {golden.get(k)} != captured {captured.get(k)}")
    print(f"{len(captured) - len(diffs)}/{len(captured)} requests byte-identical to golden")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
