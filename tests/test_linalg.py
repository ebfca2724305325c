"""The fraction-free elimination kernel against Fraction Gauss-Jordan."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference
from veechfib.exact.linalg import FractionFreeEchelon, rank
from veechfib.exact.polynomials import scaled_integers

_ENTRIES = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.integers(-10**12, 10**12),
    st.fractions(-6, 6, max_denominator=12),
)


@st.composite
def _matrices(draw):
    """Random matrices, often rank-deficient: some rows are rational
    combinations of earlier ones, some are zero."""
    cols = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("random", "random", "combination", "zero")))
        if kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_ENTRIES), draw(_ENTRIES)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            rows.append(draw(st.lists(_ENTRIES, min_size=cols, max_size=cols)))
    return rows


@settings(max_examples=200, deadline=None)
@given(matrix=_matrices())
@example(matrix=[])
@example(matrix=[[0, 0, 0], [0, 0, 0]])
@example(matrix=[[1, 2], [2, 4], [Fraction(1, 2), 1]])
@example(matrix=[[0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 0, 0]])
def test_rank_matches_fraction_gauss_jordan(matrix):
    assert rank(matrix) == fraction_reference.rank(matrix)


@settings(max_examples=100, deadline=None)
@given(matrix=_matrices())
def test_echelon_keeps_a_common_pivot_and_its_span(matrix):
    """Kept rows carry the common pivot at their own pivot column and 0 at
    the others; a trailing identity block records each row as an exact
    combination of the inputs, and every input reduces to zero."""
    rows = [scaled_integers(row)[0] for row in matrix]
    if not rows:
        return
    width = len(rows[0])
    echelon = FractionFreeEchelon(width)
    inputs = []
    for i, row in enumerate(rows):
        augmented = row + [0] * len(rows)
        augmented[width + i] = 1
        inputs.append(augmented)
        echelon.insert(augmented)
    assert len(echelon.rows) == fraction_reference.rank(rows)
    pivots = [col for col, _ in echelon.rows]
    for col, row in echelon.rows:
        assert [row[c] for c in pivots] == [echelon.pivot if c == col else 0 for c in pivots]
        # row = sum_i row[width + i] * rows[i], on every column
        combined = [
            sum(row[width + i] * rows[i][j] for i in range(len(rows))) for j in range(width)
        ]
        assert combined == row[:width]
    for vec in inputs:
        assert not any(echelon.reduce(vec)[:width])
