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

import math
from typing import NamedTuple

from .errors import InvalidArgumentError, InvalidDiscriminantError, SpinRequiredError
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


def check_enumerable(d, spin_filter):
    """Raise unless the prototypes of D can be enumerated: D must be a
    nonsquare discriminant >= 5, and D = 1 mod 8 needs a spin_filter."""
    _check_discriminant(d)
    if d % 8 == 1 and spin_filter is None:
        raise SpinRequiredError(
            f"D = {d} = 1 mod 8: prototypes split into two spin classes; "
            "pass a spin_filter selecting one"
        )


def enumerate_prototypes(d, spin_filter=None):
    """All prototypes of discriminant D, sorted lexicographically.

    For D = 1 mod 8 a spin_filter predicate must be supplied; it
    receives each candidate Prototype and keeps the spin class of
    interest.
    """
    check_enumerable(d, spin_filter)
    gcd = math.gcd
    out = []
    r = math.isqrt(d)
    for e in range(-r, r + 1):
        wh, rem = divmod(d - e * e, 4)  # wh >= 1: D is not a square
        if rem:
            continue
        for w in divisors(wh):
            h = wh // w
            if not h + e < w:
                continue
            g = gcd(w, h)
            ge = gcd(g, e)
            for t in range(g):
                if gcd(ge, t) == 1:
                    out.append(Prototype(w, h, t, e, d))
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

