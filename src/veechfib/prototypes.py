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

divisor_rows(D), the divisors of (D - e^2)/4 for each e >= 0 with
e^2 < D, is the one divisor scan of D: enumerate_prototypes reads each
row for +e and -e, and families.real_quadratic_zeta_minus_one sums
sigma_1 over the same rows.  It caches the last D only, so one
families.weierstrass_family call scans once and a sweep holds one D.

When D = 1 mod 8 the prototypes split into two spin classes and only
one class belongs to a given curve; enumeration then requires an
explicit spin filter, since no spin formula is built in.

families.weierstrass_family refuses before it enumerates: it checks the
discriminant and the spin filter, builds m_alpha from
standard_parameters, runs the residue test, takes the congruence degree
and looks up chi(C_D), and only then enumerates.  So a user spin filter
runs only for D that pass the level and chi tests.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import (
    CapExceededError,
    InvalidArgumentError,
    InvalidDiscriminantError,
    SpinRequiredError,
)
from .exact.polynomials import IntPolynomial, divisors


class Prototype(NamedTuple):
    w: int
    h: int
    t: int
    e: int
    discriminant: int

    def validate(self):
        w, h, t, e, d = self
        if d != e * e + 4 * w * h:
            raise InvalidArgumentError(f"{self}: discriminant mismatch")
        if w <= 0 or h <= 0:
            raise InvalidArgumentError(f"{self}: w and h must be positive")
        if not (0 <= t < math.gcd(w, h)):
            raise InvalidArgumentError(f"{self}: t out of range")
        if not h + e < w:
            raise InvalidArgumentError(f"{self}: requires h + e < w")
        if math.gcd(w, h, t, e) != 1:
            raise InvalidArgumentError(f"{self}: not primitive")
        return True

    def as_tuple(self):
        return (self.w, self.h, self.t, self.e)


def _check_discriminant(d):
    if d < 5 or d % 4 not in (0, 1):
        raise InvalidDiscriminantError(f"D = {d} is not a discriminant >= 5")
    r = math.isqrt(d)
    if r * r == d:
        raise InvalidDiscriminantError(f"D = {d} is a square")


# Largest enumerable D: the divisor scan makes about D/5 trial divisions;
# enumerate_prototypes(10**7) takes about 0.4 s
MAX_DISCRIMINANT = 10**7


def check_enumerable(d, spin_filter):
    """Raise unless the prototypes of D can be enumerated: D must be a
    nonsquare discriminant with 5 <= D <= MAX_DISCRIMINANT, and
    D = 1 mod 8 needs a spin_filter."""
    if d > MAX_DISCRIMINANT:
        raise CapExceededError(f"D = {d} exceeds the size cap D <= {MAX_DISCRIMINANT}")
    _check_discriminant(d)
    if d % 8 == 1 and spin_filter is None:
        raise SpinRequiredError(
            f"D = {d} = 1 mod 8: prototypes split into two spin classes; "
            "pass a spin_filter selecting one"
        )


@functools.lru_cache(maxsize=1)
def divisor_rows(d):
    """((e, divisors((d - e^2)/4)), ...) for e >= 0, e = d mod 2, e^2 < d,
    in increasing e: one divisor scan per e, for a discriminant d."""
    return tuple(
        (e, tuple(divisors((d - e * e) // 4)))
        for e in range(d % 2, math.isqrt(d - 1) + 1, 2)
    )


def enumerate_prototypes(d, spin_filter=None):
    """All prototypes of discriminant D, sorted lexicographically.

    For D = 1 mod 8 a spin_filter predicate must be supplied; it
    receives each candidate Prototype and keeps the spin class of
    interest.
    """
    check_enumerable(d, spin_filter)
    gcd = math.gcd
    # tuple.__new__ builds the same record without the generated __new__
    new = tuple.__new__
    out = []
    append = out.append
    for e, divs in divisor_rows(d):
        wh = (d - e * e) // 4
        for w in divs:
            h = wh // w
            if h - e >= w:  # then h + e >= w too
                continue
            g = gcd(w, h)
            signs = (-e, e) if e and h + e < w else (-e,)
            if g == 1:
                for s in signs:
                    append(new(Prototype, (w, h, 0, s, d)))
                continue
            ge = gcd(g, e)
            ts = range(g) if ge == 1 else [t for t in range(g) if gcd(ge, t) == 1]
            for s in signs:
                out.extend([new(Prototype, (w, h, t, s, d)) for t in ts])
    if spin_filter is not None:
        out = [p for p in out if spin_filter(p)]
    out.sort()
    return out


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


def prototypes_csv(protos):
    """CSV rows D,w,h,t,e,twisting for a prototype list."""
    lines = ["D,w,h,t,e,twisting"]
    for p in protos:
        lines.append(
            f"{p.discriminant},{p.w},{p.h},{p.t},{p.e},{prototype_twisting(p)}"
        )
    return "\n".join(lines) + "\n"

