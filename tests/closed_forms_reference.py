"""The literal closed forms of the family tables in Fraction arithmetic:
the reference for veechfib.families.closed_forms_*.

closed_forms_polygon (odd n, n twice an odd number, n a power of two),
closed_forms_sporadic (E7, E8) and closed_forms_weierstrass are kept
here exactly as the library evaluated them, term by term on Fraction,
before it moved each form to one integer numerator over a known
denominator.  This only serves tests.
"""

from fractions import Fraction


def closed_forms_polygon(n, p, degree):
    """Literal closed forms of the polygon tables, as exact rationals.

    For n = 2q the tabulated signature disagrees with the signature
    formula applied to the fiber's zero partition (the tabulated value
    corresponds to doubling kappa); it is reproduced here verbatim so
    the two code paths can be compared.
    """
    d = degree
    if n % 2 == 1:
        q = n
        g = (q - 1) // 2
        genus = 1 + Fraction(d, 2) * (Fraction(1, 2) - Fraction(1, q) - Fraction(1, p))
        cusps = Fraction(d, p)
        twisting = d * g
        e = d * (
            (q - 3) * (Fraction(1, 2) - Fraction(1, q) - Fraction(1, p))
            + Fraction(q - 1, 2)
        )
        sigma = -Fraction(d * (q * q - 1), 4 * q)
    elif (n // 2) % 2 == 1:
        q = n // 2
        g = (q - 1) // 2
        genus = 1 + d * (Fraction(1, 2) - Fraction(1, 2 * q) - Fraction(1, p))
        cusps = Fraction(2 * d, p)
        twisting = d * (2 * g + 1)
        e = d * (
            (2 * q - 6) * (Fraction(1, 2) - Fraction(1, 2 * q) - Fraction(1, p)) + q
        )
        sigma = -Fraction(d * (q * q + 2 * q + 3), 3 * q)
    else:
        k = n.bit_length() - 1
        g = 2 ** (k - 2)
        genus = 1 + d * (Fraction(1, 2) - Fraction(1, n) - Fraction(1, p))
        cusps = Fraction(2 * d, p)
        twisting = 2 * d * g
        e = d * (
            (2**k - 4) * (Fraction(1, 2) - Fraction(1, 2**k) - Fraction(1, p))
            + 2 ** (k - 1)
        )
        sigma = -d * (2 ** (k - 2) + Fraction(1, 3))
    return {
        "degree": d,
        "genus": genus,
        "cusps": cusps,
        "twisting": twisting,
        "euler": e,
        "sigma": sigma,
    }


def closed_forms_sporadic(which, p, degree):
    d = degree
    if which.upper() == "E7":
        genus = 1 + Fraction(d, 2) * (Fraction(8, 9) - Fraction(2, p))
        e = d * (Fraction(95, 9) - Fraction(8, p))
        sigma = -Fraction(35, 9) * d
        g = 3
    else:
        genus = 1 + Fraction(d, 2) * (Fraction(14, 15) - Fraction(2, p))
        e = d * (Fraction(68, 5) - Fraction(12, p))
        sigma = -Fraction(64, 15) * d
        g = 4
    return {
        "degree": d,
        "genus": genus,
        "cusps": Fraction(2 * d, p),
        "twisting": (g + 4) * d,
        "euler": e,
        "sigma": sigma,
    }


def closed_forms_weierstrass(p, degree, chi, base_twists):
    """Tabulated closed forms for the Weierstrass series, from the
    twist count of each prototype (the spec's to_json "base_twists", which
    expand prototypes.prototype_classes, the (w, h) classes: one
    (w + h)/gcd(w, h) per prototype, in sorted prototype order).

    The twist sum is the table's sum of (1 + h/w) * w/gcd(w, h), which
    equals (w + h)/gcd(w, h) = prototype_twisting term by term.
    """
    n = len(base_twists)
    total_t = degree * Fraction(sum(base_twists))
    cusps = Fraction(degree, p) * n
    e = -2 * (degree * chi + cusps) + total_t
    sigma = Fraction(-4 * degree, 9) * chi - Fraction(2, 3) * total_t
    return {
        "degree": degree,
        "cusps": cusps,
        "genus": 1 - Fraction(degree, 2 * p) * n - Fraction(degree, 2) * chi,
        "twisting": total_t,
        "euler": e,
        "sigma": sigma,
    }
