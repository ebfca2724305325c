"""Integer prototypes classifying cusps of the genus-2 Weierstrass curves.

A prototype is an integer quadruple (w, h, t, e) with

    D = e^2 + 4wh,  w > 0,  h > 0,  0 <= t < gcd(w, h),
    h + e < w,      gcd(w, h, t, e) = 1,

for a positive nonsquare discriminant D = 0, 1 mod 4.  Each prototype
corresponds to a two-cylinder decomposition: a short cylinder of
inverse modulus 1 and a long one of inverse modulus w/h; the minimal
multitwist about that cusp does a twists in the short cylinder and b in
the long one, where w/h = a/b in lowest terms, for a total twist count
of a + b.

Prototype is a NamedTuple (w, h, t, e, discriminant): it sorts, hashes
and prints as that tuple.  enumerate_prototypes meets every condition
above by construction.

divisor_scan(D) is the one divisor scan of D: it reads each pair (a, n/a)
of divisors of n = (D - e^2)/4, e^2 < D, once, into the sigma_1 total of
families.real_quadratic_zeta_minus_one and the (w, h) class records that
enumerate_prototypes expands and prototype_classes counts.  It caches
the last D only: one families.weierstrass_family call scans once.

When D = 1 mod 8 the prototypes split into two spin classes and only
one class belongs to a given curve; enumeration then requires an
explicit spin filter, since no spin formula is built in.

families.weierstrass_family refuses before it counts the prototypes:
it checks the discriminant and the spin filter, builds m_alpha from
standard_parameters, runs the residue test, takes the congruence degree
and looks up chi(C_D), and only then calls prototype_classes.  So a user
spin filter runs only for D that pass the level and chi tests.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple

from .errors import (
    CapExceededError,
    InvalidArgumentError,
    InvalidDiscriminantError,
    SpinRequiredError,
    check_int,
)
from .exact.polynomials import IntPolynomial, euler_phi, small_divisors


class Prototype(NamedTuple):
    w: int
    h: int
    t: int
    e: int
    discriminant: int

    def as_tuple(self):
        return (self.w, self.h, self.t, self.e)


def _check_discriminant(d):
    check_int(d, "D")
    if d < 5 or d % 4 not in (0, 1):
        raise InvalidDiscriminantError(f"D = {d} is not a discriminant >= 5")
    r = math.isqrt(d)
    if r * r == d:
        raise InvalidDiscriminantError(f"D = {d} is a square")


# Largest enumerable D: divisor_scan makes D/10 to D/5 trial divisions; near
# 10**7 zeta takes 0.04 s, prototype_classes 0.07 s and a keep-all enumerate
# at D = 9999961 0.2 s, in process on a 2-core VM with CPython 3.11
MAX_DISCRIMINANT = 10**7


def check_size(d):
    """Raise CapExceededError for D > MAX_DISCRIMINANT."""
    if d > MAX_DISCRIMINANT:
        raise CapExceededError(f"D = {d} exceeds the size cap D <= {MAX_DISCRIMINANT}")


def check_enumerable(d, spin_filter):
    """Raise unless the prototypes of D can be enumerated: D must be a
    nonsquare discriminant with 5 <= D <= MAX_DISCRIMINANT, and
    D = 1 mod 8 needs a spin_filter."""
    check_int(d, "D")
    check_size(d)
    _check_discriminant(d)
    if d % 8 == 1 and spin_filter is None:
        raise SpinRequiredError(
            f"D = {d} = 1 mod 8: prototypes split into two spin classes; "
            "pass a spin_filter selecting one"
        )


@functools.lru_cache(maxsize=1)
def divisor_scan(d):
    """(sigma, records) for a discriminant d, from one small_divisors
    call per e >= 0, e = d mod 2, e^2 < d, in increasing e.

    sigma sums sigma_1((d - b^2)/4) over b = d mod 2, b^2 < d.  The sorted
    records (w, h, e, twist, m) are the (w, h) classes of prototypes: m
    of them, (w, h, t, s) for t in [0, gcd(w, h)) prime to gcd(w, h, e)
    and s in -e, then +e if h + e < w.  A pair a <= b = n/a gives (b, a)
    unless a = b and e = 0, and (a, b) if b - a < e.  No input check.
    """
    gcd, small = math.gcd, small_divisors
    sigma, records = 0, []
    append = records.append
    for e in range(d % 2, math.isqrt(d - 1) + 1, 2):
        n = (d - e * e) // 4
        row = 0
        for a in small(n):
            b = n // a
            g = gcd(a, b)
            if g == 1:
                twist, m = a + b, 1
            else:  # (g/ge) phi(ge) of the t in [0, g) are prime to ge
                ge = gcd(g, e)
                twist, m = (a + b) // g, g if ge == 1 else g // ge * euler_phi(ge)
            row += a + b if a < b else a
            if a < b or e:
                append((b, a, e, twist, 2 * m if 0 < e < b - a else m))
            if 0 < b - a < e:
                append((a, b, e, twist, m))
        sigma += 2 * row if e else row
    # e^2 = D - 4wh fixes |e|, so the records sort on (w, h) alone
    return sigma, tuple(sorted(records))


def enumerate_prototypes(d, spin_filter=None):
    """All prototypes of discriminant D, sorted lexicographically.

    For D = 1 mod 8 a spin_filter predicate must be supplied; it
    receives each candidate Prototype exactly once, in sorted order,
    and keeps the spin class of interest.
    """
    check_enumerable(d, spin_filter)
    # tuple.__new__ builds the same record without the generated __new__
    new, gcd = tuple.__new__, math.gcd
    out = []
    for w, h, e, _, _ in divisor_scan(d)[1]:
        g, ge = gcd(w, h), gcd(w, h, e)
        ts = range(g) if ge == 1 else [t for t in range(g) if gcd(ge, t) == 1]
        signs = (-e, e) if e and h + e < w else (-e,)
        # a class expanded t-major over its signs is in sorted (t, e) order
        out.extend([new(Prototype, (w, h, t, s, d)) for t in ts for s in signs])
    if spin_filter is not None:
        out = [p for p in out if spin_filter(p)]
    return out


def prototype_classes(d, spin_filter=None):
    """(twist, multiplicity) per (w, h) class of kept prototypes, in
    sorted order: written out, tuple(map(prototype_twisting,
    enumerate_prototypes(d, spin_filter))).  No Prototype is built but
    for a spin_filter, which sees each candidate once, in sorted order.
    """
    check_enumerable(d, spin_filter)
    records = divisor_scan(d)[1]
    if spin_filter is None:
        return tuple([(twist, m) for _, _, _, twist, m in records])
    kept = Counter((p.w, p.h) for p in enumerate_prototypes(d, spin_filter))
    return tuple([(twist, kept[w, h]) for w, h, _, twist, _ in records if kept[w, h]])


def prototype_twisting(proto):
    """Twist count of the minimal multitwist at this cusp.

    With w/h = a/b in lowest terms the two cylinders receive a and b
    twists; the total a + b is always a positive integer.
    """
    g = math.gcd(proto.w, proto.h)
    a, b = proto.w // g, proto.h // g
    return a + b


def weierstrass_alpha(w, e):
    """Quadratic minimal polynomial x^2 + (e - 2w)x + w(w - e - 1).

    This is the trace-field generator attached to the standard
    L-shaped parameters (w, e); its discriminant is e^2 + 4w = D.
    """
    if w <= 0:
        raise InvalidArgumentError("w must be positive")
    if e not in (-1, 0, 1):
        raise InvalidArgumentError("standard parameters have e in {0, 1, -1}")
    return IntPolynomial([w * (w - e - 1), e - 2 * w, 1])


def standard_parameters(d):
    """The standard (w, e): e = -1 for odd D, e = 0 for even D.

    With this sign choice (w, 1, 0, e) is itself a prototype of
    discriminant D, and the congruence parameter of the golden
    discriminant D = 5 reduces mod 3 to an element squaring to -1,
    matching the exceptional order-120 branch of the level-3 image.
    """
    _check_discriminant(d)
    e = -(d % 2)
    return ((d - e * e) // 4, e)
