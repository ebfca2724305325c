"""One workload process: set up, signal readiness, run the timed batch.

Spawned by run.py.  After `import veechfib`, input generation and any
warm-up it prints "ready" on stdout; run.py times the set-up from the
spawn to that line.  With --setup-only it exits there.  Otherwise it runs
every item once per pass, reads its peak memory, checks every execution
and prints one JSON line for run.py: per item, its median execution,
measured and scaled to the reference speed of speed.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import veechfib  # noqa: E402,F401  (part of the timed set-up)
from veechfib.errors import VeechFibError  # noqa: E402

import clicold  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ITEM_TIMEOUT_S = 120
CHILD_PROBE_GAP_S = 0.4  # a child probe costs about a third of a request
WORKLOADS = dict(workloads.IN_PROCESS, **{clicold.CliCold.name: clicold.CliCold})


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside an in-process item that overran."""


def _alarm(signum, frame):
    raise ItemTimeout


MIN_PASSES = 3


def passes_for(seconds, pass_s):
    """Passes over the same items; at least three, so each item's median
    execution outvotes a burst of the machine being faster or slower.
    pass_s is the nominal length of one pass, so a longer --seconds buys
    more."""
    return max(MIN_PASSES, int(seconds // pass_s))


def run_in_process(items, passes, recorder, probe):
    """Run every item once per pass; returns (executions, caches).

    executions[i] lists (status, value, seconds, scaled seconds) of item
    i per pass.  Each pass starts with every cache cleared and a full
    collection; the workload's speed probe runs before the pass, after
    each item and every few tenths of a second inside one.
    """
    caches = tracer.cache_objects()
    cache_totals = {name: [0, 0] for name in caches}
    executions = [[] for _ in items]
    signal.signal(signal.SIGALRM, _alarm)
    if recorder:
        recorder.install()
    for n in range(passes):
        for fn in caches.values():
            fn.cache_clear()
        gc.collect()
        outcomes, gauge = [], speed.Gauge(probe, sample_inside=True)
        for i, item in enumerate(items):
            if recorder:
                recorder.item = n * len(items) + i
            signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
            gauge.begin()
            try:
                status, value = "ok", item.call()
            except ItemTimeout:
                status, value = "timeout", None
            except VeechFibError as exc:
                status, value = "error", exc
            except Exception as exc:  # an untyped escape is a failed item
                status, value = "crash", exc
            gauge.end()
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcomes.append((status, value))
        for i, (outcome, seconds, scaled) in enumerate(
            zip(outcomes, gauge.spans, gauge.scaled())
        ):
            executions[i].append((*outcome, seconds, scaled))
        for name, (hits, misses) in tracer.cache_counts(caches).items():
            cache_totals[name][0] += hits
            cache_totals[name][1] += misses
    if recorder:
        recorder.uninstall()
    return executions, cache_totals


def run_cli(items, passes, recorder):
    """Run every request once per pass, each in its own interpreter.

    executions[i] lists ("ok" or "timeout", record, seconds, scaled
    seconds) per pass.  A child probe, a bare interpreter, runs before
    the pass and after every request that ends CHILD_PROBE_GAP_S or more
    after the last probe.
    """
    caches = {name: [0, 0] for name in tracer.cache_objects()}
    executions = [[] for _ in items]
    import_s = []
    for n in range(passes):
        outcomes, gauge = [], speed.Gauge(speed.child_probe, gap_s=CHILD_PROBE_GAP_S)
        for i, request in enumerate(items):
            gauge.begin()
            record, payload = clicold.run_request(
                request.argv, recorder is not None, n * len(items) + i
            )
            gauge.end()
            outcomes.append(("timeout" if record is None else "ok", record))
            if payload:
                offset = len(recorder.spans)
                for span in payload["spans"]:
                    span[4] = span[4] + offset if span[4] >= 0 else -1
                    recorder.spans.append(span)
                for name, value in payload["counts"].items():
                    recorder.counts[name] += value
                for name, (hits, misses) in payload["caches"].items():
                    caches[name][0] += hits
                    caches[name][1] += misses
                import_s.append(payload["import_s"])
            if recorder and record is not None:
                recorder.counts[f"cli.exit_code.{record['exit']}"] += 1
        for i, (outcome, seconds, scaled) in enumerate(
            zip(outcomes, gauge.spans, gauge.scaled())
        ):
            executions[i].append((*outcome, seconds, scaled))
    if recorder:
        recorder.counts["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    return executions, caches


def summarize_item(cls, expect, whys, seconds, scaled):
    """One record per item: its median execution, measured and scaled,
    and its failures."""
    failures = [why for why in whys if why]
    outcome = "failed" if failures else ("ok" if expect == "ok" else "refused")
    return {
        "cls": cls,
        "outcome": outcome,
        "s": statistics.median(scaled),
        "raw_s": statistics.median(seconds),
        "executions": len(whys),
        "failed": len(failures),
        "why": failures[0] if failures else None,
    }


def trace_summary(recorder, executions_refused, caches):
    checked = tracer.items_with_span(recorder.spans, "thurston_veech.holonomy_basis_check")
    return {
        "spans": tracer.summarize(recorder.spans),
        "counts": dict(
            recorder.counts, **{"families.refused_after_checks": len(executions_refused & checked)}
        ),
        "caches": caches,
    }


def write_spans(recorder, workload, seed):
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-seed{seed}.jsonl", "w") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span) + "\n")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--passes", type=int, help="override the number of passes")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    items = workload.generate(random.Random(args.seed))
    passes = args.passes or passes_for(args.seconds, workload.pass_s)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = tracer.Tracer() if args.trace else None
    if args.workload == clicold.CliCold.name:
        executions, caches = run_cli(items, passes, recorder)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        executions, caches = run_in_process(items, passes, recorder, workload.probe)
        usage = resource.getrusage(resource.RUSAGE_SELF)
    records, refused_ids = [], set()
    for i, (item, runs) in enumerate(zip(items, executions)):
        whys = [workload.judge(item, status, value) for status, value, *_ in runs]
        records.append(
            summarize_item(
                item.cls, item.expect, whys, [run[2] for run in runs], [run[3] for run in runs]
            )
        )
        if item.expect != "ok":
            refused_ids.update(n * len(items) + i for n, why in enumerate(whys) if not why)
    result = {
        "passes": passes,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "records": records,
        "report": workload.report(),
        "trace": trace_summary(recorder, refused_ids, caches) if recorder else None,
    }
    if recorder:
        write_spans(recorder, args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
