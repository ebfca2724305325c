"""Benchmark of the veechfib pipeline: four workloads, one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; paths are resolved from this file.  Workloads:
polygon-levels, eigenform-scatter, closure-oracle and cli-cold (see
perfbench/README.md).  With --trace 0 the last stdout line is a JSON
object holding the end-to-end metrics listed in BENCHMARK.json; with
--trace 1 it holds the per-layer metrics, measured in a second worker
with the outside-in tracer installed.  Lines before it are a readable
report.  Exits 2 without a result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("polygon-levels", "eigenform-scatter", "closure-oracle", "cli-cold")
SETUP_SPAWNS = 2  # set-up-only spawns before and again after the timed worker
RUN_DEADLINE_S = 170
WORKER_ADDRESS_SPACE = 4 << 30


class WorkerError(RuntimeError):
    pass


def _limit_worker():
    resource.setrlimit(resource.RLIMIT_AS, (WORKER_ADDRESS_SPACE, WORKER_ADDRESS_SPACE))


def spawn(args, deadline, trace=0, setup_only=False, passes=None):
    """Start a worker; returns (seconds from spawn to ready, result)."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--setup-only"] if setup_only else []) + (["--passes", str(passes)] if passes else [])
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0, preexec_fn=_limit_worker
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line != b"ready\n":
            raise WorkerError(f"worker did not get ready: {line!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker overran the run deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(out.decode().splitlines()[-1]))


def tail(samples):
    """Value at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    i = len(ordered) - 11
    return (ordered[i], 100 * (i + 1) / len(ordered)) if i >= 0 else (None, None)


def rate(result, key="s"):
    """Items per second, each item at its median execution (scaled, or
    as measured with key="raw_s")."""
    records = result["records"]
    return len(records) / sum(r[key] for r in records)


def end_to_end(result, setups, setup_probe):
    records = result["records"]
    ok = [r["s"] for r in records if r["outcome"] == "ok"]
    refused = [r["s"] for r in records if r["outcome"] == "refused"]
    ok_raw = [r["raw_s"] for r in records if r["outcome"] == "ok"]
    refused_raw = [r["raw_s"] for r in records if r["outcome"] == "refused"]
    tail_s, tail_pct = tail(ok)
    attempted = sum(r["executions"] for r in records)
    failed = sum(r["failed"] for r in records)
    values = {
        "setup_s": (
            statistics.median(setups) * speed.REFERENCE_S[speed.child_probe] / setup_probe,
            f"median of {len(setups)} spawns; as measured {statistics.median(setups):.4g} s",
        ),
        "items_per_s": (
            rate(result),
            f"{len(records)} items, median of {result['passes']} passes, "
            f"{sum(r['s'] for r in records):.3f} s; as measured {rate(result, 'raw_s'):.4g}/s",
        ),
        "peak_rss_mb": (result["peak_rss_mb"], ""),
        "failed_ratio": (failed / attempted, f"{failed}/{attempted} executions"),
    }
    if ok:
        values["ok_p50_ms"] = (
            1000 * statistics.median(ok),
            f"{len(ok)} items; as measured {1000 * statistics.median(ok_raw):.4g} ms",
        )
    if tail_s is not None:
        values["ok_tail_ms"] = (
            1000 * tail_s,
            f"p{tail_pct:.1f} of {len(ok)} items, 10 beyond; "
            f"as measured {1000 * tail(ok_raw)[0]:.4g} ms",
        )
    if refused:
        values["refusal_p50_ms"] = (
            1000 * statistics.median(refused),
            f"{len(refused)} items; as measured {1000 * statistics.median(refused_raw):.4g} ms",
        )
    return values


def per_layer(traced, plain):
    trace = traced["trace"]
    values = {name: 0 for name in tracer.COUNTER_NAMES}
    values.update({f"cli.exit_code.{code}": 0 for code in (0, 1, 2)})
    values["cli.import_s"] = 0.0
    for name, (calls, self_s) in trace["spans"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    values.update(trace["counts"])
    bases = {}
    for name, (hits, misses) in trace["caches"].items():
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        bases[f"{name}.hit_ratio"] = f"{hits} hits of {hits + misses} lookups"
    calls = values["families.weierstrass_family.calls"]
    returned = values["families.weierstrass_family.returned"]
    values["families.weierstrass_family.useful_ratio"] = returned / calls if calls else 0.0
    bases["families.weierstrass_family.useful_ratio"] = f"{returned} results of {calls} calls"
    rates = [rate(traced), rate(plain)]
    values["trace_overhead"] = rates[0] - rates[1]
    bases["trace_overhead"] = f"traced {rates[0]:.4f} - untraced {rates[1]:.4f} items/s"
    return {name: (value, bases.get(name, "")) for name, value in values.items()}


def calibrate():
    """Seconds for a fixed pure-Python loop: shows machine drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description="veechfib benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "veechfib" / "__init__.py").is_file():
        print(f"no veechfib source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.perf_counter() + RUN_DEADLINE_S
    calibration_s = calibrate()
    try:
        if args.trace:
            # counts are the same in every pass, so one pass each will do
            plain = spawn(args, deadline, passes=1)[1]
            result = spawn(args, deadline, trace=1, passes=1)[1]
            runs = [plain, result]
            values = per_layer(result, plain)
            wanted = spec["per_layer"]
        else:
            # set-up is sampled before and after the timed worker, so its
            # median spans the run rather than one phase of the machine,
            # and scaled by the median child probe taken between spawns
            setups, probes = [], [speed.child_probe()]
            for k in range(2 * SETUP_SPAWNS + 1):
                timed = k == SETUP_SPAWNS
                setup_s, run = spawn(args, deadline, setup_only=not timed)
                setups.append(setup_s)
                probes.append(speed.child_probe())
                if timed:
                    result = run
            runs = [result]
            values = end_to_end(result, setups, statistics.median(probes))
            wanted = spec["end_to_end"]
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    records = [r for run in runs for r in run["records"]]
    attempted = sum(r["executions"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {result['passes']}")
    print(f"checks   {json.dumps(result['report'])}")
    print(f"drift    calibration loop {calibration_s:.4f} s")
    measured = sum(r["raw_s"] for r in result["records"])
    print(
        f"speed    item time as measured / at reference speed: "
        f"{measured / sum(r['s'] for r in result['records']):.3f}"
    )
    for r in [r for r in records if r["failed"]][:20]:
        print(f"FAILED   {r['cls']}: {r['why']}")
    for name in sorted(values) if args.trace else values:
        value, base = values[name]
        print(f"{name:48s} {value:>14.6g}  {base}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no samples for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
