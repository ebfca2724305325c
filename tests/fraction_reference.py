"""Fraction routes of the real-algebraic kernels: the references for the
integer kernels in veechfib.exact.

These are the evaluations and products the library ran on ``Fraction``
before it moved them to integer numerators: Horner at a rational point,
interval Horner over a rational interval, and a field product as a
dense product followed by long division by the modulus.  Polynomials
are tuples of rationals in ascending degree; this only serves tests.
"""

from fractions import Fraction


def strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def qeval(f, x):
    """f(x) by Horner in Fraction arithmetic."""
    out = Fraction(0)
    for c in reversed(f):
        out = out * x + c
    return out


def qeval_interval(f, lo, hi):
    """(min, max) bounds of f over [lo, hi] by Horner with interval ops."""
    alo = ahi = Fraction(0)
    for c in reversed(f):
        products = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(products) + c, max(products) + c
    return alo, ahi


def remainder(f, g):
    """Remainder of f by a nonzero g, by long division over Q."""
    f = [Fraction(c) for c in strip(f)]
    g = strip(g)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, b in enumerate(g):
            f[shift + i] -= c * b
        f = list(strip(f))
    return tuple(f)


def field_product(a, b, modulus, degree):
    """Coordinates of a * b in Q[x]/(modulus), padded to degree."""
    a, b = strip(a), strip(b)
    prod = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    rem = remainder(prod, modulus)
    return rem + (Fraction(0),) * (degree - len(rem))
