"""Traced stand-in for the `veechfib` console script.

Times `import veechfib`, installs the tracer, runs veechfib.cli.main on
the command-line arguments and exits with its code.  The spans, counts
and cache counters follow the CLI's own stderr as one line after
clicold.TRACE_MARKER.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import veechfib  # noqa: E402,F401

import_s = time.perf_counter() - start

import veechfib.cli  # noqa: E402

import tracer  # noqa: E402
from clicold import TRACE_MARKER  # noqa: E402

caches = tracer.cache_objects()
recorder = tracer.Tracer()
recorder.item = int(os.environ["PERFBENCH_ITEM"])
recorder.install()
try:
    code = veechfib.cli.main(sys.argv[1:])
finally:
    recorder.uninstall()
sys.stdout.flush()
payload = {
    "import_s": import_s,
    "spans": recorder.spans,
    "counts": dict(recorder.counts),
    "caches": tracer.cache_counts(caches),
}
sys.stderr.write(TRACE_MARKER + json.dumps(payload) + "\n")
sys.exit(code)
