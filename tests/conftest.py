import re
from collections import defaultdict

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    del exitstatus, config
    buckets = defaultdict(lambda: {"passed": 0, "failed": 0})
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_acceptance\.py::test_(c\d+)", report.nodeid)
            if not match:
                continue
            key = match.group(1)
            buckets[key]["failed" if status != "passed" else "passed"] += 1
    if not buckets:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(buckets, key=lambda k: int(k[1:])):
        counts = buckets[key]
        verdict = "PASS" if counts["failed"] == 0 else "FAIL"
        terminalreporter.write_line(
            f"criterion {key[1:]:>2s}: {verdict}  "
            f"({counts['passed']} passed, {counts['failed']} failed)"
        )


class DivisorScanProbe:
    """prototypes.divisor_scan as both namespaces that call it,
    prototypes and families, see it.  requests lists the D asked for;
    misses() counts the scans run since the last cache_clear(), read off
    the cache's own statistics; after refuse(), a request raises Reached
    before anything is scanned."""

    class Reached(AssertionError):
        """A divisor scan was requested while the probe refused scans."""

    def __init__(self, scan):
        self.scan, self.requests, self.refusing = scan, [], False

    def __call__(self, d):
        if self.refusing:
            raise self.Reached(d)
        self.requests.append(d)
        return self.scan(d)

    def refuse(self, refusing=True):
        self.refusing = refusing

    def misses(self):
        return self.scan.cache_info().misses

    def cache_clear(self):
        self.scan.cache_clear()
        self.requests.clear()


@pytest.fixture
def divisor_scans(monkeypatch):
    """The one probe for "no divisor scan before a refusal" and "one scan
    per discriminant", starting from an empty cache."""
    from veechfib import families, prototypes

    probe = DivisorScanProbe(prototypes.divisor_scan)
    for module in (prototypes, families):
        monkeypatch.setattr(module, "divisor_scan", probe)
    probe.cache_clear()
    return probe
