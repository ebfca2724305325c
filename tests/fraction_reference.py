"""Fraction routes of the real-algebraic kernels: the references for the
integer kernels in veechfib.exact.

These are the evaluations and products the library ran on ``Fraction``
before it moved them to integer numerators: Horner at a rational point,
interval Horner over a rational interval, a field product as a dense
product followed by long division by the modulus, Euclidean division,
the derivative and the monic gcd over Q, the field inverse by the extended Euclidean
algorithm over Q, and the matrix rank by Gauss-Jordan elimination over
Q.  Polynomials are tuples of rationals in ascending degree; this only
serves tests.
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


def divide(f, g):
    """(quotient, remainder) of f by a nonzero g, by long division over Q."""
    f = [Fraction(c) for c in strip(f)]
    g = strip(g)
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        c = f[-1] / g[-1]
        shift = len(f) - len(g)
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] -= c * b
        f = list(strip(f))
    return strip(q), tuple(f)


def remainder(f, g):
    """Remainder of f by a nonzero g, by long division over Q."""
    return divide(f, g)[1]


def derivative(f):
    """f' of a coefficient sequence."""
    return tuple(i * c for i, c in enumerate(f))[1:]


def subtract(f, g):
    n = max(len(f), len(g))
    return strip([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def multiply(f, g):
    out = [Fraction(0)] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return strip(out)


def gcd(f, g):
    """Monic gcd over Q by the Euclidean algorithm; () when both are 0."""
    f, g = strip(f), strip(g)
    while g:
        f, g = g, remainder(f, g)
    return tuple(Fraction(c) / f[-1] for c in f)


def inverse(coeffs, modulus):
    """Coordinates of the inverse of coeffs in Q[x]/(modulus), padded to
    its degree, by the extended Euclidean algorithm over Q; None when
    coeffs shares a factor with the modulus."""
    r0, r1 = strip(modulus), strip(coeffs)
    s0, s1 = (), (Fraction(1),)
    while r1:
        q, r = divide(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, subtract(s0, multiply(q, s1))
    if len(r0) != 1:
        return None
    inv = tuple(c / r0[0] for c in s0)
    return inv + (Fraction(0),) * (len(modulus) - 1 - len(inv))


def field_product(a, b, modulus, degree):
    """Coordinates of a * b in Q[x]/(modulus), padded to degree."""
    rem = remainder(multiply(strip(a), strip(b)), modulus)
    return rem + (Fraction(0),) * (degree - len(rem))


def rank(matrix):
    """Rank over Q of a matrix given as rows of ints or Fractions, by
    Gauss-Jordan elimination in Fraction arithmetic."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank_count = 0
    n_cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank_count += 1
        if r == len(rows):
            break
    return rank_count
