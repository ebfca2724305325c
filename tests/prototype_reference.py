"""The dataclass prototype enumerator: the reference for enumerate_prototypes.

This is the enumerator the library used before Prototype became a
NamedTuple: a frozen, ordered dataclass, a validate() call on every
prototype, gcd(w, h, t, e) recomputed for every t, and a sort through
the dataclass comparison.  It shares only the discriminant check with
veechfib.prototypes, keeps its own plain divisor list, and only serves
tests.

brute_force_count is a second, cruder oracle: it scans every quadruple
(w, h, t, e) in range and counts the prototypes without building any.

real_quadratic_zeta_minus_one is the zeta value as the library computed
it before the divisor lists were shared with the enumeration: its own
divisor list for every b in [-sqrt(d), sqrt(d)], +b and -b apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from veechfib.errors import InvalidArgumentError, SpinRequiredError
from veechfib.prototypes import _check_discriminant


def divisors(n):
    """Positive divisors of n >= 1 in ascending order, by a scan up to
    sqrt(n) and the cofactors of what it finds."""
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


@dataclass(frozen=True, order=True)
class Prototype:
    w: int
    h: int
    t: int
    e: int
    discriminant: int

    def validate(self):
        w, h, t, e, d = self.w, self.h, self.t, self.e, self.discriminant
        if d != e * e + 4 * w * h:
            raise InvalidArgumentError(f"{self}: discriminant mismatch")
        if w <= 0 or h <= 0:
            raise InvalidArgumentError(f"{self}: w and h must be positive")
        if not (0 <= t < math.gcd(w, h)):
            raise InvalidArgumentError(f"{self}: t out of range")
        if not h + e < w:
            raise InvalidArgumentError(f"{self}: requires h + e < w")
        if _gcd4(w, h, t, e) != 1:
            raise InvalidArgumentError(f"{self}: not primitive")
        return True

    def as_tuple(self):
        return (self.w, self.h, self.t, self.e)


def enumerate_prototypes(d, spin_filter=None):
    """All prototypes of discriminant D, sorted lexicographically.

    For D = 1 mod 8 a spin_filter predicate must be supplied; it
    receives each candidate Prototype and keeps the spin class of
    interest.
    """
    _check_discriminant(d)
    if d % 8 == 1 and spin_filter is None:
        raise SpinRequiredError(
            f"D = {d} = 1 mod 8: prototypes split into two spin classes; "
            "pass a spin_filter selecting one"
        )
    out = []
    for e in range(-math.isqrt(d), math.isqrt(d) + 1):
        if (d - e * e) % 4 != 0:
            continue
        wh = (d - e * e) // 4
        if wh <= 0:
            continue
        for w in divisors(wh):
            h = wh // w
            if not h + e < w:
                continue
            for t in range(math.gcd(w, h)):
                if _gcd4(w, h, t, e) != 1:
                    continue
                proto = Prototype(w, h, t, e, d)
                proto.validate()
                out.append(proto)
    if spin_filter is not None:
        out = [p for p in out if spin_filter(p)]
    return sorted(out)


def _gcd4(w, h, t, e):
    return math.gcd(math.gcd(w, h), math.gcd(t, abs(e)))


def brute_force_count(d):
    """Independent quadruple scan: the count enumerate_prototypes must match."""
    count = 0
    bound = math.isqrt(d) + 1
    for e in range(-bound, bound + 1):
        for w in range(1, d + 1):
            for h in range(1, d // (4 * w) + 2):
                if e * e + 4 * w * h != d or h + e >= w:
                    continue
                for t in range(0, math.gcd(w, h)):
                    g = 0
                    for v in (w, h, t, e):
                        g = math.gcd(g, abs(v))
                    if g == 1:
                        count += 1
    return count


def real_quadratic_zeta_minus_one(d):
    """zeta_K(-1) = (1/60) * sum over b = d mod 2, b^2 < d of
    sigma_1((d - b^2)/4), one divisor list per b; d must be fundamental."""
    total = 0
    for b in range(-math.isqrt(d), math.isqrt(d) + 1):
        if (d - b * b) % 4 == 0 and d - b * b > 0:
            total += sum(divisors((d - b * b) // 4))
    return Fraction(total, 60)
