import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veechfib.covers import (
    DEFAULT_CLOSURE_CAP,
    MatrixGroupSpec,
    OrbifoldSignature,
    congruence_degree,
    cover_twisting,
    group_closure_order,
    riemann_hurwitz_cover,
    theorem_generator_pair,
)
from veechfib.errors import (
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    InvalidRootDataError,
)
from veechfib.exact.finitefield import FiniteFieldSpec
from veechfib.exact.polynomials import IntPolynomial

from bfs_oracle import bfs_closure_order

GOLDEN_SQUARED = IntPolynomial([1, -3, 1])  # congruence parameter of D = 5


def test_congruence_degree_exceptional_branch():
    result = congruence_degree(GOLDEN_SQUARED, 3, 2, True)
    assert result.degree == 60
    assert result.group_label == "PSL(2,5)"
    assert result.exceptional


def test_congruence_degree_generic_quadratic():
    result = congruence_degree(IntPolynomial([-1, -1, 1]), 7, 2, True)
    assert result.degree == 58800  # 49 * 2400 / 2
    assert not result.exceptional


def test_congruence_degree_sporadic_no_center():
    result = congruence_degree(IntPolynomial([-3, 9, -6, 1]), 5, 3, False)
    assert result.degree == 1953000  # 125 * 15624
    assert result.group_label == "SL(2,125)"


def test_congruence_degree_rejects_reducible():
    with pytest.raises(InadmissiblePrimeError):
        congruence_degree(IntPolynomial([-1, -1, 1]), 5, 2, True)
    with pytest.raises(InvalidArgumentError):
        congruence_degree(IntPolynomial([-1, -1, 1]), 3, 3, True)


def test_closure_f9_exceptional_and_generic():
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    # residue of the golden congruence parameter: 1 + x, squares to -1
    abar = field.element((1, 1))
    assert (abar * abar).coeffs == (2, 0)
    assert group_closure_order(theorem_generator_pair(field, abar)) == 120
    # a residue NOT squaring to -1 generates the full group of order 720
    assert group_closure_order(theorem_generator_pair(field)) == 720


def test_closure_prime_fields():
    f5 = FiniteFieldSpec(5, IntPolynomial([-2, 1]))
    pair = MatrixGroupSpec(
        f5, (((f5.one, f5.one), (f5.zero, f5.one)), ((f5.one, f5.zero), (f5.one, f5.one)))
    )
    assert group_closure_order(pair) == 120
    f7 = FiniteFieldSpec(7, IntPolynomial([-3, 1]))
    pair = MatrixGroupSpec(
        f7, (((f7.one, f7.one), (f7.zero, f7.one)), ((f7.one, f7.zero), (f7.one, f7.one)))
    )
    assert group_closure_order(pair) == 336


def test_closure_cap():
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    with pytest.raises(CapExceededError):
        group_closure_order(theorem_generator_pair(field), cap=100)
    assert DEFAULT_CLOSURE_CAP == 10**7


def test_closure_cap_is_the_ambient_order():
    # every generator has determinant 1, so |G| <= |SL(2, q)|: a cap of
    # exactly |SL(2, q)| admits the search and one less refuses it up front
    for p, modulus, abar in ((3, [1, 0, 1], (1, 1)), (5, [1, 1, 0, 1], (0, 1))):
        field = FiniteFieldSpec(p, IntPolynomial(modulus))
        pair = theorem_generator_pair(field, field.element(abar))
        q = field.order
        ambient = q * (q * q - 1)
        assert group_closure_order(pair, cap=ambient) == ambient
        message = (
            f"|SL(2,{q})| = {ambient} exceeds cap = {ambient - 1}; "
            "raise the cap to search this field"
        )
        with pytest.raises(CapExceededError, match=re.escape(message)):
            group_closure_order(pair, cap=ambient - 1)


def test_closure_characteristic_two():
    # over F_4 both shears are involutions and generate a dihedral group
    field = FiniteFieldSpec(2, IntPolynomial([1, 1, 1]))
    pair = theorem_generator_pair(field)
    assert group_closure_order(pair) == bfs_closure_order(pair) == 10


def test_generator_determinant_checked():
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    with pytest.raises(InvalidArgumentError):
        MatrixGroupSpec(
            field,
            (((field.one, field.zero), (field.zero, field.zero)),),
        )


def test_orbifold_signature_validation():
    sig = OrbifoldSignature(0, (2, 5), 1)
    assert sig.euler_characteristic == Fraction(-3, 10)
    with pytest.raises(InvalidArgumentError):
        OrbifoldSignature(0, (2,), 0)  # not hyperbolic
    with pytest.raises(InvalidArgumentError):
        OrbifoldSignature(0, (1,), 2)


def test_riemann_hurwitz_double_pentagon_cover():
    chi_orb = OrbifoldSignature(0, (2, 5), 1).euler_characteristic
    cover = riemann_hurwitz_cover(chi_orb, 60, (2, 5), (2, 5), (3,))
    assert cover.base_genus == 0
    assert cover.cusp_count == 20


def test_riemann_hurwitz_polygon7_cover():
    chi_orb = OrbifoldSignature(0, (2, 7), 1).euler_characteristic
    cover = riemann_hurwitz_cover(chi_orb, 9828, (2, 7), (2, 7), (3,))
    assert cover.base_genus == 118
    assert cover.cusp_count == 3276


def test_riemann_hurwitz_identity_cover():
    chi_orb = OrbifoldSignature(0, (), 3).euler_characteristic
    cover = riemann_hurwitz_cover(chi_orb, 1, (), (), (1, 1, 1))
    assert cover.base_genus == 0 and cover.cusp_count == 3


def test_riemann_hurwitz_round_trip():
    # recomputing chi_orb from (b, cusps)/degree recovers the input
    sig = OrbifoldSignature(0, (2, 11), 1)
    for degree, cusp_order in ((660, 3), (660, 5)):
        if degree % cusp_order:
            continue
        cover = riemann_hurwitz_cover(
            sig.euler_characteristic, degree, (2, 11), (2, 11), (cusp_order,)
        )
        chi_cover = Fraction(2 - 2 * cover.base_genus - cover.cusp_count)
        assert chi_cover / degree == sig.euler_characteristic


def test_riemann_hurwitz_rejects_partial_orbifold_image():
    sig = OrbifoldSignature(0, (2, 5), 1)
    with pytest.raises(InconsistentCoverError):
        riemann_hurwitz_cover(sig.euler_characteristic, 60, (2, 5), (2, 1), (3,))


def test_riemann_hurwitz_rejects_non_integral_genus():
    # degree 60 with 2 cusp orbits of order 3 over the octagon orbifold
    sig = OrbifoldSignature(0, (4,), 2)
    with pytest.raises(InconsistentCoverError):
        riemann_hurwitz_cover(sig.euler_characteristic, 60, (4,), (4,), (3, 3))


def test_cover_twisting_examples():
    total, per_cusp = cover_twisting((20,), (3,), (2,), (1,))
    assert total == 120 and per_cusp == (6,)
    total, _ = cover_twisting((3276,), (3,), (3,), (1,))
    assert total == 29484
    d = 1953000
    total, _ = cover_twisting((d // 5, d // 5), (5, 5), (4, 3), (1, 1))
    assert total == 7 * d


def test_cover_twisting_rejects_fractional():
    with pytest.raises(InvalidRootDataError):
        cover_twisting((10,), (3,), (2,), (4,))
    with pytest.raises(InvalidArgumentError):
        cover_twisting((10,), (3,), (2, 2), (1,))


@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_cover_data_is_invalid_input(value):
    # invalid input, not an inconsistency: no cover has such data
    sig = OrbifoldSignature(0, (2, 3), 1)
    with pytest.raises(InvalidArgumentError, match="^cusp image orders must be positive$"):
        riemann_hurwitz_cover(sig.euler_characteristic, 6, (2, 3), (2, 3), (value,))
    with pytest.raises(InvalidArgumentError, match="^cusp image orders must be positive$"):
        riemann_hurwitz_cover(sig.euler_characteristic, 6, (2, 3), (2, 3), (6, value))
    refusal = "^twists and root indices must be positive$"
    for twists, roots in (((value,), (1,)), ((2,), (value,)), ((2, value), (1, 1))):
        counts = (2,) * len(twists)
        with pytest.raises(InvalidArgumentError, match=refusal):
            cover_twisting(counts, (3,) * len(twists), twists, roots)
    # a non-positive entry is refused before a fractional one is judged
    with pytest.raises(InvalidArgumentError):
        cover_twisting((10, 10), (3, 3), (2, 2), (4, value))


def test_dickson_desk_scale_oracle():
    """Closure order equals the congruence-degree group order whenever the
    congruence parameter residue generates the field and avoids the F9
    exception; the one admissible exceptional instance is pinned too."""
    cases = [
        # (p, modulus, expected |image|): golden-squared at 3 is the exception
        (3, GOLDEN_SQUARED, 120),
        (3, IntPolynomial([-1, 6, -5, 1]), 27 * (27 * 27 - 1)),  # degree-3 parameter
        (7, IntPolynomial([-1, -1, 1]), 49 * (49 * 49 - 1) // 2 * 2),
        (5, IntPolynomial([2, -4, 1]), 25 * (25 * 25 - 1)),  # D = 8 parameter
    ]
    for p, modulus, expected in cases:
        field = FiniteFieldSpec(p, modulus)
        order = group_closure_order(theorem_generator_pair(field))
        assert order == expected, (p, modulus, order)


def test_congruence_degree_accepts_exactly_the_irreducible_levels():
    from veechfib.exact.finitefield import is_prime, is_quadratic_nonresidue

    for p in range(3, 51, 2):
        if not is_prime(p) or 5 % p == 0:
            continue
        if is_quadratic_nonresidue(5, p):
            assert congruence_degree(GOLDEN_SQUARED, p, 2, True).degree > 0
        else:
            with pytest.raises(InadmissiblePrimeError):
                congruence_degree(GOLDEN_SQUARED, p, 2, True)


def test_dickson_oracle_sl2_125_exhaustive():
    # the complete desk-scale verification of the degree-3 congruence
    # image at level 5: the reference BFS enumerates all 1953000 matrices
    # (about 5 s), and orbit-stabiliser must give the same order
    field = FiniteFieldSpec(5, IntPolynomial([-3, 9, -6, 1]))
    expected = congruence_degree(IntPolynomial([-3, 9, -6, 1]), 5, 3, False)
    pair = theorem_generator_pair(field)
    assert bfs_closure_order(pair) == expected.group_order
    assert group_closure_order(pair) == expected.group_order


# q -> (p, modulus coefficients, constant term first)
SMALL_FIELDS = {
    2: (2, [0, 1]),
    3: (3, [0, 1]),
    4: (2, [1, 1, 1]),
    5: (5, [0, 1]),
    7: (7, [0, 1]),
    9: (3, [1, 0, 1]),
    25: (5, [-2, 0, 1]),
    27: (3, [1, -1, 0, 1]),
}
GENERATOR_KINDS = ("identity", "minus-identity", "upper-shear", "lower-shear", "general")


def _generator(field, kind, i, j, k):
    """A determinant-1 matrix of the given kind; i, j, k pick entries."""
    one, zero = field.one, field.zero
    a, b, c = (field.element_from_index(n % field.order) for n in (i, j, k))
    if kind == "identity":
        return ((one, zero), (zero, one))
    if kind == "minus-identity":
        return ((-one, zero), (zero, -one))
    if kind == "upper-shear":
        return ((one, a), (zero, one))
    if kind == "lower-shear":
        return ((one, zero), (a, one))
    if not a.is_zero:
        return ((a, b), (c, (one + b * c) / a))
    if b.is_zero:
        b = one
    return ((zero, b), (-one / b, c))


@given(
    q=st.sampled_from(sorted(SMALL_FIELDS)),
    draws=st.lists(
        st.tuples(
            st.sampled_from(GENERATOR_KINDS),
            st.integers(0, 26),
            st.integers(0, 26),
            st.integers(0, 26),
        ),
        min_size=1,
        max_size=3,
    ),
)
@example(q=9, draws=[("identity", 0, 0, 0)])
@example(q=25, draws=[("minus-identity", 0, 0, 0)])
@example(q=27, draws=[("upper-shear", 4, 0, 0)])
@example(q=7, draws=[("general", 2, 3, 4), ("general", 0, 5, 1)])
@example(q=4, draws=[("lower-shear", 1, 0, 0), ("general", 2, 1, 3), ("minus-identity", 0, 0, 0)])
@settings(max_examples=100, deadline=None)
def test_orbit_stabiliser_matches_bfs(q, draws):
    p, modulus = SMALL_FIELDS[q]
    field = FiniteFieldSpec(p, IntPolynomial(modulus))
    spec = MatrixGroupSpec(field, tuple(_generator(field, *draw) for draw in draws))
    assert group_closure_order(spec) == bfs_closure_order(spec)


def test_f9_exception_depends_on_residue():
    """Over F9 the two-parabolic image is the order-120 group only when
    the shear residue squares to -1; the D = 8 parameter at level 3 does
    not, and generates all 720 elements."""
    octagon = FiniteFieldSpec(3, IntPolynomial([2, -4, 1]))  # x^2-4x+2 mod 3
    abar = octagon.generator
    assert (abar * abar).coeffs != (2, 0)
    assert group_closure_order(theorem_generator_pair(octagon, abar)) == 720
