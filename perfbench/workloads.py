"""The three in-process workloads: inputs, calls and independent checks.

Each workload turns a seeded random generator into one pass of items,
which the worker runs several times.  An item is one public call; its
expectation is either "ok" or the name of the typed error the call must
raise (a refusal).  The composition of item classes is fixed, so the
seed changes which levels, windows and shears are drawn but not how
much work of each kind a run does.  check() verifies a returned value
by an independent route: a number-theoretic criterion, a group-order
formula, or a closed form the recomputed value must match.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from veechfib import covers, families
from veechfib.exact.finitefield import FiniteFieldSpec

import speed


@dataclass
class Item:
    cls: str  # item class: every pass holds the same classes
    call: Callable  # zero-argument public call, names looked up when run
    expect: str  # "ok" or the name of the expected error type
    params: tuple


class InProcessWorkload:
    """Shared judging: an "ok" item must pass check(); a refusal must
    raise exactly the expected error type.  probe is the speed probe
    that scales the workload's times (speed.py)."""

    probe = staticmethod(speed.fraction_probe)

    def warm_up(self):
        pass

    def judge(self, item, status, value):
        if item.expect == "ok":
            return self.check(item, value) if status == "ok" else f"{status}: {value!r}"
        if status != "error" or type(value).__name__ != item.expect:
            return f"expected {item.expect}, got {status}: {value!r}"
        return None


def odd_primes(lo, hi):
    return [
        p
        for p in range(max(lo, 3), hi + 1)
        if p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
    ]


def euler_phi(h):
    return sum(1 for k in range(1, h + 1) if math.gcd(k, h) == 1)


# ---------------------------------------------------------------------------
# polygon-levels
# ---------------------------------------------------------------------------

# h is the order of the rotation whose cosine generates the trace field:
# n for the n-gon, 18 for E7 and 30 for E8.
def conductor(family):
    return {"E7": 18, "E8": 30}.get(family, family)


def galois_admissible(h, p):
    """p is an admissible level iff p does not divide h and p generates
    (Z/h)* / {+-1}, the Galois group of Q(cos 2 pi / h)."""
    if h % p == 0:
        return False
    k, x = 1, p % h
    while x not in (1, h - 1):
        x = x * p % h
        k += 1
    return k == euler_phi(h) // 2


def doubled_odd_gon(family):
    return isinstance(family, int) and family % 2 == 0 and family // 2 % 2 == 1


class PolygonLevels(InProcessWorkload):
    """polygon_family / sporadic_family over levels, n-major.

    The cheap families run at every odd prime up to their bound in
    SWEEP; the expensive ones at a seeded draw of admissible and refused
    levels, after the sweep.  Caches are cleared at the start of each
    pass, so each pass is a cold library sweep in which the model cache
    warms once per family.  The seed draws the heavy levels; the family
    order is fixed, so what runs after the heaviest items does not
    depend on the seed.
    """

    name = "polygon-levels"
    pass_s = 9.5
    # family -> level bound.  The bounds place the ok tail percentile
    # inside the n = 17 class and the ok median inside the n = 11, 22
    # classes, away from the edges where neighbouring classes differ.
    SWEEP = {5: 23, 7: 23, 8: 23, 10: 23, 11: 61, 13: 31, 14: 23, 16: 23, 17: 73,
             22: 61, 26: 31, 32: 31, "E7": 23, "E8": 23}
    HEAVY = ((37, 0, 1), (64, 1, 1))  # (n, admissible, refused) levels
    HEAVY_BOUND = 97

    def __init__(self):
        self._sigma_mismatch = {}  # doubled-odd-gon (n, p) -> table disagrees

    @staticmethod
    def _item(family, p):
        h = conductor(family)
        if not galois_admissible(h, p):
            expect = "InadmissiblePrimeError"
        elif (family, p) == (8, 3):
            # the octagon at level 3 has a non-integral cover genus
            expect = "InconsistentCoverError"
        else:
            expect = "ok"
        tag = family if isinstance(family, str) else f"polygon-{family}"
        cls = f"{tag}/{'ok' if expect == 'ok' else 'refused'}"
        if isinstance(family, str):
            call = lambda: families.sporadic_family(family, p)  # noqa: E731
        else:
            call = lambda: families.polygon_family(family, p)  # noqa: E731
        return Item(cls, call, expect, (family, p))

    @staticmethod
    def _refusal_first(items):
        """The first call of a family pays for its model; give that cost
        to a refusal, so it never lands in the ok tail."""
        i = next((k for k, item in enumerate(items) if item.expect != "ok"), 0)
        return [items[i]] + items[:i] + items[i + 1:]

    def generate(self, rng):
        groups = [
            [self._item(f, p) for p in odd_primes(3, bound)] for f, bound in self.SWEEP.items()
        ]
        levels = odd_primes(3, self.HEAVY_BOUND)
        for n, n_ok, n_refused in self.HEAVY:
            good = [p for p in levels if galois_admissible(n, p)]
            bad = [p for p in levels if not galois_admissible(n, p) and n % p]
            groups.append(
                [self._item(n, p) for p in rng.sample(good, n_ok) + rng.sample(bad, n_refused)]
            )
        return [item for group in groups for item in self._refusal_first(group)]

    def check(self, item, result):
        family, p = item.params
        h = conductor(family)
        genus = euler_phi(h) // 2
        if (p, genus) == (3, 2):
            order = 120
        else:
            q = p**genus
            order = q * (q * q - 1)
        degree = order if isinstance(family, str) else order // 2
        cover, inv, closed = result.cover, result.invariants, result.closed_forms
        if cover.degree != degree:
            return f"degree {cover.degree} != |image| formula {degree}"
        pipeline = {
            "degree": cover.degree,
            "genus": cover.base_genus,
            "cusps": cover.cusp_count,
            "twisting": cover.total_twisting,
            "euler": inv.euler,
        }
        for key, value in pipeline.items():
            if closed[key] != value:
                return f"{key}: pipeline {value} != closed form {closed[key]}"
        if 3 * inv.sigma != inv.c1_squared - 2 * inv.c2:
            return "3 sigma != c1^2 - 2 c2"
        if 12 * inv.chi_holomorphic != inv.c1_squared + inv.c2 or inv.c2 != inv.euler:
            return "Noether formula fails"
        if doubled_odd_gon(family):
            # documented: the doubled-odd-gon sigma table doubles kappa
            self._sigma_mismatch[item.params] = closed["sigma"] != inv.sigma
        elif closed["sigma"] != inv.sigma:
            return f"sigma: pipeline {inv.sigma} != closed form {closed['sigma']}"
        return None

    def report(self):
        mismatch = self._sigma_mismatch.values()
        return {"doubled_odd_gon_sigma_table_mismatch": f"{sum(mismatch)}/{len(mismatch)}"}


# ---------------------------------------------------------------------------
# eigenform-scatter
# ---------------------------------------------------------------------------


def squarefree(n):
    return all(n % (k * k) for k in range(2, math.isqrt(n) + 1))


def fundamental(d):
    if d % 4 == 1:
        return squarefree(d)
    return d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4)


def scatter_class(d, p):
    """What chern_scatter must do with discriminant d at level p: None
    for a non-discriminant, "row", or the skip reason."""
    if d < 5 or d % 4 not in (0, 1) or math.isqrt(d) ** 2 == d:
        return None
    if d % 8 == 1:
        return "spin-filter-required"
    if d % p == 0:
        return "ramified"
    if pow(d, (p - 1) // 2, p) == 1:  # Euler's criterion: a square mod p
        return "residue"
    if not fundamental(d):
        return "missing-curve-data"
    return "row"


class EigenformScatter(InProcessWorkload):
    """chern_scatter over consecutive discriminant windows up to D ~ 8000.

    A pass tiles WINDOWS windows of WINDOW discriminants from a seeded
    offset, the levels in PRIMES taking turns window by window, so each
    level sees the whole range of D.  After each window comes one
    refused single-discriminant request: weierstrass_family at a
    discriminant the window skipped, a quadratic residue or one with no
    curve data.
    """

    name = "eigenform-scatter"
    pass_s = 5.5
    PRIMES = (5, 7)
    WINDOW = 250
    WINDOWS = 32
    # the refusal after window k is REFUSAL[k % 3]: two in three have no
    # curve data, so the refusal median falls inside that class
    REFUSAL = (
        ("missing-curve-data", "MissingCurveDataError"),
        ("residue", "InadmissiblePrimeError"),
        ("missing-curve-data", "MissingCurveDataError"),
    )

    def __init__(self):
        self._skips = {}  # window -> Counter of skip reasons
        self._rows = {}

    def generate(self, rng):
        items = []
        start = 5 + rng.randrange(self.WINDOW)
        for k in range(self.WINDOWS):
            p = self.PRIMES[k % len(self.PRIMES)]
            lo, hi = start + k * self.WINDOW, start + (k + 1) * self.WINDOW - 1
            items.append(
                Item(
                    f"scatter/p{p}",
                    lambda lo=lo, hi=hi, p=p: families.chern_scatter(lo, hi, p),
                    "ok",
                    (lo, hi, p),
                )
            )
            reason, error = self.REFUSAL[k % len(self.REFUSAL)]
            d = rng.choice([d for d in range(lo, hi + 1) if scatter_class(d, p) == reason])
            items.append(
                Item(
                    f"weierstrass/{reason}",
                    lambda d=d, p=p: families.weierstrass_family(d, p),
                    error,
                    (d, p),
                )
            )
        return items

    def _expected_row(self, d, p):
        """(c2, c1^2) of the level-p fibration over discriminant d,
        recomputed and checked against the closed forms."""
        key = (d, p)
        if key not in self._rows:
            r = families.weierstrass_family(d, p)
            closed, inv = r.closed_forms, r.invariants
            if closed["euler"] != inv.c2 or 3 * closed["sigma"] + 2 * closed["euler"] != inv.c1_squared:
                self._rows[key] = f"D = {d}: pipeline (c2, c1^2) disagrees with closed forms"
            elif (inv.c1_squared + inv.c2) % 12 or (inv.c1_squared - 2 * inv.c2) % 3:
                self._rows[key] = f"D = {d}: Noether or signature integrality fails"
            else:
                self._rows[key] = (inv.c2, inv.c1_squared)
        return self._rows[key]

    def check(self, item, value):
        lo, hi, p = item.params
        rows, skipped = value
        want_rows, want_skips = [], []
        for d in range(lo, hi + 1):
            kind = scatter_class(d, p)
            if kind == "row":
                want_rows.append(d)
            elif kind is not None:
                want_skips.append((d, kind))
        if list(skipped) != want_skips:
            return f"skip list differs on [{lo}, {hi}] at p = {p}"
        if [d for d, *_ in rows] != want_rows:
            return f"row discriminants differ on [{lo}, {hi}] at p = {p}"
        for d, c2, c1sq in rows:
            want = self._expected_row(d, p)
            if isinstance(want, str):
                return want
            if (c2, c1sq) != want:
                return f"D = {d}, p = {p}: row {(c2, c1sq)} != recomputed {want}"
        self._skips[item.params] = Counter(reason for _, reason in want_skips)
        return None

    def report(self):
        skips = sum(self._skips.values(), Counter())
        return {"skips": dict(sorted(skips.items())), "rows_recomputed": len(self._rows)}


# ---------------------------------------------------------------------------
# closure-oracle
# ---------------------------------------------------------------------------

# q -> (p, modulus coefficients, constant term first)
FIELDS = {
    9: (3, (1, 0, 1)),
    25: (5, (2, 0, 1)),
    27: (3, (1, -1, 0, 1)),
    49: (7, (1, 0, 1)),
    81: (3, (2, 1, 0, 0, 1)),
    121: (11, (1, 0, 1)),
    125: (5, (1, 1, 0, 1)),
    243: (3, (1, -1, 0, 0, 0, 1)),
    343: (7, (2, 0, 0, 1)),
}
CLOSURE_CAP = 10**7  # the documented default cap of group_closure_order


def shear_subfield(abar):
    """Order r of F_p(abar) and whether abar^2 = -1 there."""
    spec = abar.spec
    k, x = 1, abar ** spec.p
    while x != abar:
        x = x**spec.p
        k += 1
    return spec.p**k, abar * abar == -spec.one


def expected_order(abar):
    """|<[[1, a], [0, 1]], [[1, 0], [1, 1]]>| = |SL(2, F_p(a))|, except
    the order-120 copy of SL(2, 5) when F_p(a) = F_9 and a^2 = -1."""
    r, square_is_minus_one = shear_subfield(abar)
    return 120 if (r, square_is_minus_one) == (9, True) else r * (r * r - 1)


class ClosureOracle(InProcessWorkload):
    """group_closure_order(theorem_generator_pair(F, a)) over seeded
    shears a, plus cap refusals for fields whose |SL(2, q)| exceeds the
    cap.

    The order is fixed, light searches first and the heavy ones (q = 81,
    125) last, so neither the peak memory nor what runs after the largest
    search depends on the seed; the seed draws the shears.
    """

    name = "closure-oracle"
    pass_s = 6.5
    probe = staticmethod(speed.mixed_probe)
    # (q, shear class, count per pass).  Seven ok items cost more than the
    # F_25 / F_27 searches, so the ok tail and median fall inside them.
    LIGHT = (
        (49, "generic", 2),
        (27, "generic", 10),
        (25, "generic", 10),
        (9, "generic", 4),
        (9, "exception", 3),
        (81, "exception", 1),
        (27, "prime-field", 1),
        (121, "prime-field", 1),
        (125, "prime-field", 1),
        (243, "cap", 8),
        (343, "cap", 8),
        (49, "low-cap", 3),
        (81, "low-cap", 3),
        (121, "low-cap", 3),
    )
    HEAVY = ((81, "generic", 1), (125, "generic", 1))

    def __init__(self):
        self.fields = {q: FiniteFieldSpec(p, m) for q, (p, m) in FIELDS.items()}
        self.shears = {}
        for q, field in self.fields.items():
            by_class = {"generic": [], "exception": [], "prime-field": []}
            for abar in list(field.elements())[1:]:
                r, minus_one = shear_subfield(abar)
                if (r, minus_one) == (9, True):
                    by_class["exception"].append(abar)
                elif r == q:
                    by_class["generic"].append(abar)
                elif r == field.p:
                    by_class["prime-field"].append(abar)
            self.shears[q] = by_class

    def _items(self, rng, composition):
        items = []
        for q, kind, count in composition:
            field = self.fields[q]
            pool = self.shears[q]["generic" if kind in ("cap", "low-cap") else kind]
            for abar in rng.choices(pool, k=count):
                ambient = q * (q * q - 1)
                cap = ambient - 1 if kind == "low-cap" else CLOSURE_CAP
                items.append(
                    Item(
                        f"F{q}/{kind}",
                        lambda field=field, abar=abar, cap=cap: covers.group_closure_order(
                            covers.theorem_generator_pair(field, abar), cap=cap
                        ),
                        "CapExceededError" if ambient > cap else "ok",
                        (abar,),
                    )
                )
        return items

    def generate(self, rng):
        return self._items(rng, self.LIGHT + self.HEAVY)

    def check(self, item, order):
        want = expected_order(item.params[0])
        return None if order == want else f"order {order} != |SL(2, F_p(a))| = {want}"

    def report(self):
        return {}


IN_PROCESS = {w.name: w for w in (PolygonLevels, EigenformScatter, ClosureOracle)}
