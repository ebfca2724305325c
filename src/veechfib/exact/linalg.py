"""Exact integer matrix kernels: charpoly and fraction-free elimination.

Characteristic polynomials are computed by the division-free Berkowitz
algorithm alone, for any square integer matrix.  Everything that
eliminates (the rank here, the power bases of number-field elements in
``numberfield``) runs on ``FractionFreeEchelon``: integer rows kept in
reduced echelon form with one common pivot, where each update divides
exactly by the previous pivot (Bareiss 1968, Sylvester's identity), so
no rational number is ever formed.
"""

from __future__ import annotations

from .polynomials import IntPolynomial, scaled_integers


def charpoly(matrix):
    """det(x*I - M) for a square integer matrix M, as an IntPolynomial,
    by the division-free Berkowitz algorithm."""
    n = len(matrix)
    if n == 0:
        return IntPolynomial([1])
    # vector of coefficients of det(xI - M), highest degree first
    coeffs = [1, -matrix[0][0]]
    for i in range(1, n):
        # principal submatrix M[0..i][0..i]
        a = matrix[i][i]
        row = [matrix[i][j] for j in range(i)]
        col = [matrix[j][i] for j in range(i)]
        sub = [[matrix[r][c] for c in range(i)] for r in range(i)]
        # Toeplitz column: [1, -a, -row*col, -row*sub*col, ...]
        toep = [1, -a]
        vec = col
        for _ in range(i - 1):
            toep.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(sub[r][c] * vec[c] for c in range(i)) for r in range(i)]
        toep.append(-sum(x * y for x, y in zip(row, vec)))
        new = [0] * (i + 2)
        for k, c in enumerate(coeffs):
            for m, t in enumerate(toep):
                if k + m <= i + 1:
                    new[k + m] += c * t
        coeffs = new
    return IntPolynomial(list(reversed(coeffs)))


class FractionFreeEchelon:
    """Integer rows in reduced echelon form over Q, grown one row at a time.

    Pivots are taken from the first ``pivot_columns`` columns only; any
    further columns ride along (a caller can record there which
    combination of its inputs each row is).  Every kept row has the
    common entry ``pivot`` at its own pivot column and 0 at the other
    kept rows' pivot columns.  ``pivot`` is the determinant of the kept
    rows restricted to the pivot columns, and every kept entry is such a
    minor with one column swapped in (Cramer's rule), so entries stay
    integers of the size of minors.
    """

    def __init__(self, pivot_columns):
        self.pivot_columns = pivot_columns
        self.rows = []  # (pivot column, integer row)
        self.pivot = 1

    def reduce(self, vec):
        """pivot * vec less its parts along the kept rows: an integer row
        that is 0 at every pivot column, and 0 in all pivot-eligible
        columns exactly when vec lies in the span of the kept rows."""
        d = self.pivot
        out = list(vec) if d == 1 else [d * x for x in vec]
        for col, row in self.rows:
            f = vec[col]
            if f:
                out = [x - f * y for x, y in zip(out, row)]
        return out

    def insert(self, vec):
        """Keep vec when it is independent of the kept rows and return
        None; otherwise keep nothing and return its reduction, whose
        pivot-eligible part is 0."""
        w = self.reduce(vec)
        col = next((j for j in range(self.pivot_columns) if w[j]), None)
        if col is None:
            return w
        new, old = w[col], self.pivot
        for i, (c, row) in enumerate(self.rows):
            f = row[col]
            if f:
                self.rows[i] = (c, [(new * x - f * y) // old for x, y in zip(row, w)])
            elif new != old:
                self.rows[i] = (c, [new * x // old for x in row])
        self.rows.append((col, w))
        self.pivot = new
        return None


def rank(matrix):
    """Rank over Q of a matrix given as rows of ints or Fractions; each
    row is scaled to integers first, which keeps the rank."""
    rows = [scaled_integers(row)[0] for row in matrix]
    echelon = FractionFreeEchelon(len(rows[0]) if rows else 0)
    return sum(echelon.insert(row) is None for row in rows)
