"""Exact integer/rational matrix helpers: charpoly and rank.

Characteristic polynomials are computed by the division-free Berkowitz
algorithm alone, for any square integer matrix.  All arithmetic is
integer or Fraction; results are exact.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import IntPolynomial


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


def rank(matrix):
    """Rank over Q of a matrix given as rows of ints or Fractions."""
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
