"""Dense Gauss-Jordan route: the reference for the power-basis kernel.

This is the elimination the library used before PowerBasis.  Every call
builds the full matrix of powers and row-reduces it from scratch, so it
shares no elimination code with veechfib.exact.numberfield.PowerBasis
beyond the field arithmetic that produces the powers.  ``power`` is
that arithmetic for tests that need elem^k.
"""

from fractions import Fraction

from veechfib.errors import MixedModulusError, NonIntegralElementError
from veechfib.exact.polynomials import IntPolynomial


def power(elem, k):
    """elem^k for k >= 0 by k - 1 field products."""
    out = elem.field.one
    for _ in range(k):
        out = out * elem
    return out


def _row_reduce(rows):
    """In-place Gaussian elimination over Q; returns pivot column list."""
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
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
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def element_minimal_polynomial(elem):
    """Monic integer minimal polynomial of a number-ring element.

    Found as the first linear dependence among the powers 1, elem,
    elem^2, ... in the ambient power basis; no factorization is needed.
    Raises NonIntegralElementError (carrying the exact rational
    coefficients) when the element is not an algebraic integer.
    """
    field = elem.field
    d = field.degree
    powers = [field.one]
    for _ in range(d):
        powers.append(powers[-1] * elem)
    for k in range(1, d + 1):
        # Solve elem^k = sum_{j<k} c_j elem^j exactly.
        matrix = [[powers[j].coeffs[i] for j in range(k)] for i in range(d)]
        target = [powers[k].coeffs[i] for i in range(d)]
        sol = _solve_exact(matrix, target)
        if sol is not None:
            coeffs = [-c for c in sol] + [Fraction(1)]
            if all(c.denominator == 1 for c in coeffs):
                return IntPolynomial([int(c) for c in coeffs])
            raise NonIntegralElementError(
                "element is not an algebraic integer; minimal polynomial has "
                "non-integer coefficients",
                coeffs,
            )
    raise ArithmeticError("no linear dependence found; corrupt field data")


def _solve_exact(matrix, target):
    """Solve matrix * x = target over Q; None when inconsistent.

    The solution is unique whenever the columns are independent, which
    holds for power-basis and suborder-basis systems used here.
    """
    rows = [list(row) + [t] for row, t in zip(matrix, target)]
    n_unknowns = len(matrix[0]) if matrix else 0
    pivots = _row_reduce(rows)
    if n_unknowns in pivots:
        return None  # inconsistent: pivot in the augmented column
    sol = [Fraction(0)] * n_unknowns
    for r, c in enumerate(pivots):
        sol[c] = rows[r][-1]
    # verify (guards against underdetermined systems)
    for row, t in zip(matrix, target):
        if sum(a * x for a, x in zip(row, sol)) != t:
            return None
    return sol


def coordinates_in_power_basis(elem, alpha, degree):
    """Coordinates of elem in the basis 1, alpha, ..., alpha^(degree-1).

    Returns a tuple of Fractions, or None when elem lies outside the
    Q-span (i.e. outside Q(alpha) viewed inside the ambient field).
    """
    field = elem.field
    if alpha.field != field:
        raise MixedModulusError("alpha and element live in different fields")
    powers = [field.one]
    for _ in range(degree - 1):
        powers.append(powers[-1] * alpha)
    matrix = [[powers[j].coeffs[i] for j in range(degree)] for i in range(field.degree)]
    target = list(elem.coeffs)
    sol = _solve_exact(matrix, target)
    return None if sol is None else tuple(sol)


def in_order(elem, alpha, degree):
    """Exact membership test for the subring Z[alpha]."""
    coords = coordinates_in_power_basis(elem, alpha, degree)
    if coords is None:
        return False
    return all(c.denominator == 1 for c in coords)
