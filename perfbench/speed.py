"""Machine-speed probes: scale measured times to a reference speed.

The shared VM this benchmark was written on runs the same code at
speeds up to 2x apart, switching every few seconds to minutes; a median
over the items of one run cannot remove a phase that lasts the whole
run.  So every timed span is bracketed by a fixed probe that uses none
of veechfib's code, and a span is reported at the speed the probes
around it saw:

    scaled = measured * reference / (median of the probes around it)

Three probes, matched to what a workload spends its time on:

- fraction_probe: an exact harmonic sum in the standard library's
  Fraction type, the bigint work of the number-field and scatter paths.
- mixed_probe: that sum, random reads from a 16 MB table and a loop of
  raised and caught errors: the breadth-first search over SL(2, q)
  also waits on memory, and its cap refusals are a call and a raise.
- child_probe: a fresh interpreter that runs nothing (`python -c pass`):
  process creation and start-up, for CLI requests and set-up times.

Each reference is a fixed constant near its probe's time in the VM's
faster phase, so scaled times read as seconds on that machine.  A change
to veechfib moves a scaled time exactly as it moves the measured one; a
change of machine speed moves the probe with it.  The report prints the
measured values beside the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction

SAMPLE_EVERY_S = 0.2  # process CPU seconds between probes inside a span
PROBE_GAP_S = 0.05  # default least time between probes after spans
WINDOW = 4  # probes on each side of a span that scale it
TABLE_SIZE = 1 << 21  # 8-byte entries: larger than the caches
_table = None


def _harmonic():
    total = Fraction(0)
    for k in range(1, 201):
        total += Fraction(1, k)


def fraction_probe():
    start = time.perf_counter()
    _harmonic()
    return time.perf_counter() - start


def _refuse(q, cap):
    if q * (q * q - 1) > cap:
        raise ValueError(f"|SL(2,{q})| exceeds cap = {cap}")


def mixed_probe():
    global _table
    if _table is None:
        _table = array("q", range(TABLE_SIZE))
    start = time.perf_counter()
    _harmonic()
    acc, j = 0, 1
    for _ in range(5000):
        j = (j * 1103515245 + 12345) & (TABLE_SIZE - 1)
        acc += _table[j]
    for q in range(200, 1200):
        try:
            _refuse(q, 10**7)
        except ValueError:
            pass
    return time.perf_counter() - start


def child_probe():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


REFERENCE_S = {fraction_probe: 0.0005, mixed_probe: 0.002, child_probe: 0.04}


class Gauge:
    """Times spans and scales them to the reference speed of one probe.

    The probe runs before the first span and after each span that ends
    gap_s or more after the last probe, so a run of short spans keeps
    its caches warm, as it would in a caller's loop.  With
    sample_inside, it also runs every SAMPLE_EVERY_S of process CPU time
    inside a span, from a SIGVTALRM handler, and its time there is taken
    out of the span; this follows the speed through a span of seconds.
    A span is scaled by the median of the probes inside it and the
    WINDOW on each side of it, so a probe a preemption slowed moves
    nothing.
    The collector is off during a probe, so a probe's allocations never
    start a collection of a span's live objects on the probe's clock.
    """

    def __init__(self, probe, sample_inside=False, gap_s=PROBE_GAP_S):
        self.probe = probe
        self.sample_inside = sample_inside
        self.gap_s = gap_s
        self.spans, self.inside, self.after = [], [], []  # after: last probe's index
        self.probes = [self._run_probe()]
        self._probed_at = time.perf_counter()
        if sample_inside:
            signal.signal(signal.SIGVTALRM, self._sample)

    def _run_probe(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self.probe()
        finally:
            if enabled:
                gc.enable()

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self._inside.append(self._run_probe())
        self._probe_s += time.perf_counter() - start

    def begin(self):
        self._inside, self._probe_s = [], 0.0
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()

    def end(self):
        """Close the span begun last; returns its measured seconds."""
        seconds = time.perf_counter() - self._start
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        seconds -= self._probe_s
        self.spans.append(seconds)
        self.inside.append(self._inside)
        self.after.append(len(self.probes) - 1)
        if time.perf_counter() - self._probed_at >= self.gap_s:
            self.probes.append(self._run_probe())
            self._probed_at = time.perf_counter()
        return seconds

    def scaled(self):
        """Every span so far at the reference speed."""
        reference = REFERENCE_S[self.probe]
        return [
            seconds
            * reference
            / statistics.median(self.probes[max(0, k + 1 - WINDOW) : k + 1 + WINDOW] + inside)
            for seconds, inside, k in zip(self.spans, self.inside, self.after)
        ]
