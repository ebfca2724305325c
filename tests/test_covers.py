import itertools
import math
import re
from fractions import Fraction

import cover_reference
import pytest
from finitefield_reference import element_from_index, is_zero
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veechfib import cli, covers
from veechfib.covers import (
    DEFAULT_CLOSURE_CAP,
    CoverData,
    MatrixGroupSpec,
    OrbifoldSignature,
    check_closure_cap,
    congruence_degree,
    cover_twisting,
    expand_classes,
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
from veechfib.exact.polynomials import IntPolynomial, parse_polynomial

import bfs_oracle
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


@pytest.mark.parametrize("h", [0, 1, 2, -5, "18"])
def test_congruence_degree_refuses_a_bad_coxeter_number(h):
    # h = 0 divided by zero in p % h, and h = 1, 2 or -5 read as a
    # reducible m_alpha; D = 5 and p = 7 are admissible at h = 5
    assert congruence_degree(GOLDEN_SQUARED, 7, 2, True, coxeter_number=5).degree > 0
    with pytest.raises(InvalidArgumentError, match="the Coxeter number must be an integer >= 3"):
        congruence_degree(GOLDEN_SQUARED, 7, 2, True, coxeter_number=h)


def test_closure_f9_exceptional_and_generic():
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    # residue of the golden congruence parameter: 1 + x, squares to -1
    abar = field.element((1, 1))
    assert (abar * abar).coeffs == (2, 0)
    assert group_closure_order(theorem_generator_pair(field, abar)) == 120
    # a residue NOT squaring to -1 generates the full group of order 720
    assert group_closure_order(theorem_generator_pair(field)) == 720
    # a^2 = -1 puts a in the F_9 inside F_81: the same order-120 group
    f81 = FiniteFieldSpec(3, IntPolynomial([2, 1, 0, 0, 1]))
    a = next(a for a in f81.elements() if a * a == -f81.one)
    assert group_closure_order(theorem_generator_pair(f81, a)) == 120


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


def test_closure_cap_past_4096_bits_is_written_by_its_bit_length():
    # |SL(2, 2^5000)| = 2^15000 - 2^5000: the cap one below it has more
    # than Python's 4 300-digit int-to-str limit, and is still a typed refusal
    ambient = 2**15000 - 2**5000
    assert check_closure_cap(2, 5000, ambient) is None
    message = (
        "|SL(2,2^5000)| exceeds cap = a 15000-bit integer; raise the cap to search this field"
    )
    with pytest.raises(CapExceededError, match=re.escape(message)):
        check_closure_cap(2, 5000, ambient - 1)
    with pytest.raises(InvalidArgumentError, match="not a negative 15000-bit integer$"):
        check_closure_cap(2, 5000, -ambient)



@pytest.mark.parametrize("cap", [10.0, True, 10**7 + 0.5])
def test_closure_refuses_a_cap_that_is_not_an_int(cap):
    # a float cap used to end in an AttributeError (float.bit_length), and
    # cap=True in "exceeds cap = True"
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    message = f"cap must be an int, not {cap!r}"
    for refuse in (
        lambda: group_closure_order(theorem_generator_pair(field), cap=cap),
        lambda: check_closure_cap(3, 2, cap),
    ):
        with pytest.raises(InvalidArgumentError) as refusal:
            refuse()
        assert type(refusal.value) is InvalidArgumentError
        assert str(refusal.value) == message


@pytest.mark.parametrize("cap", [0, -5])
def test_closure_refuses_a_non_positive_cap_before_the_size_check(cap):
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    with pytest.raises(InvalidArgumentError, match=f"^cap must be a positive integer, not {cap}$"):
        group_closure_order(theorem_generator_pair(field), cap=cap)


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
    cover = riemann_hurwitz_cover(chi_orb, 60, (2, 5), [(3, 1)])
    assert cover.base_genus == 0
    assert cover.cusp_count == 20


def test_riemann_hurwitz_polygon7_cover():
    chi_orb = OrbifoldSignature(0, (2, 7), 1).euler_characteristic
    cover = riemann_hurwitz_cover(chi_orb, 9828, (2, 7), [(3, 1)])
    assert cover.base_genus == 118
    assert cover.cusp_count == 3276


def test_riemann_hurwitz_identity_cover():
    chi_orb = OrbifoldSignature(0, (), 3).euler_characteristic
    cover = riemann_hurwitz_cover(chi_orb, 1, (), [(1, 3)])
    assert cover.base_genus == 0 and cover.cusp_count == 3
    payload = cover.to_json()
    assert payload["cusps_per_orbit"] == payload["cusp_image_orders"] == [1, 1, 1]


def test_riemann_hurwitz_round_trip():
    # recomputing chi_orb from (b, cusps)/degree recovers the input
    sig = OrbifoldSignature(0, (2, 11), 1)
    for degree, cusp_order in ((660, 3), (660, 5)):
        if degree % cusp_order:
            continue
        cover = riemann_hurwitz_cover(sig.euler_characteristic, degree, (2, 11), [(cusp_order, 1)])
        chi_cover = Fraction(2 - 2 * cover.base_genus - cover.cusp_count)
        assert chi_cover / degree == sig.euler_characteristic


def test_riemann_hurwitz_refuses_a_degree_the_cone_orders_do_not_divide():
    # every cone point maps to an element of its full order
    sig = OrbifoldSignature(0, (2, 5), 1)
    with pytest.raises(InconsistentCoverError, match="^degree 15 not divisible by 2$"):
        riemann_hurwitz_cover(sig.euler_characteristic, 15, (2, 5), [(3, 1)])


def test_riemann_hurwitz_rejects_non_integral_genus():
    # degree 60 with 2 cusp orbits of order 3 over the octagon orbifold
    sig = OrbifoldSignature(0, (4,), 2)
    with pytest.raises(InconsistentCoverError):
        riemann_hurwitz_cover(sig.euler_characteristic, 60, (4,), [(3, 2)])


@pytest.mark.parametrize("orders", [(0,), (1,), (-2,), (2, 0), (0, 0), (3, 1)])
def test_riemann_hurwitz_refuses_a_cone_order_below_two(orders):
    # refused as OrbifoldSignature refuses it, before any division by the order
    with pytest.raises(InvalidArgumentError, match="^orbifold orders must be >= 2$"):
        riemann_hurwitz_cover(Fraction(-1, 6), 6, orders, [(3, 1)])
    with pytest.raises(InvalidArgumentError, match="^orbifold orders must be >= 2$"):
        OrbifoldSignature(0, orders, 1)


def _outcome(call, *args):
    """The value and the type of each of its fields, or the exception's
    type and message."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value, tuple(map(type, value))


def _signature(cls, genus, orders, cusps):
    sig = cls(genus, orders, cusps)
    return (*sig, sig.euler_characteristic)


@st.composite
def _rh_data(draw):
    """(chi_orb, degree, cone orders, cusp image orders), with at most one
    order or the degree out of range.  The degree is mostly a multiple of
    every order, and chi_orb mostly a multiple of 1/degree, so 2b comes
    out odd, even, negative and nonnegative as well as fractional."""
    cones = draw(st.lists(st.integers(2, 9), max_size=3))
    cusps = draw(st.lists(st.integers(1, 9), max_size=3))
    broken = draw(st.sampled_from((None,) * 6 + ("cone", "cusp", "degree")))
    if broken == "cone":
        cones.insert(draw(st.integers(0, len(cones))), draw(st.integers(-1, 1)))
    elif broken == "cusp":
        cusps.insert(draw(st.integers(0, len(cusps))), draw(st.integers(-1, 0)))
    if broken == "degree":
        degree = draw(st.integers(-2, 0))
    elif draw(st.integers(0, 3)):
        degree = math.lcm(1, *(abs(k) for k in cones + cusps if k)) * draw(st.integers(1, 40))
    else:
        degree = draw(st.integers(1, 400))
    if degree > 0 and draw(st.booleans()):
        chi_orb = Fraction(draw(st.integers(-4 * degree, 2 * degree)), degree)
    else:
        chi_orb = Fraction(draw(st.integers(-500, 100)), draw(st.integers(1, 500)))
    return chi_orb, degree, tuple(cones), tuple(cusps)


def _runs(per_cusp):
    """The (value, multiplicity) classes of the runs of equal entries."""
    return [(k, len(list(run))) for k, run in itertools.groupby(per_cusp)]


def _per_cusp_cover(chi_orb, degree, orbifold_orders, cusp_image_orders):
    """riemann_hurwitz_cover on the runs of the per-cusp orders, written
    back out per cusp by to_json: the fields of cover_reference.PerCuspCover."""
    cover = riemann_hurwitz_cover(chi_orb, degree, orbifold_orders, _runs(cusp_image_orders))
    payload = cover.to_json()
    return tuple(
        tuple(value) if isinstance(value, list) else value
        for value in map(payload.get, cover_reference.PerCuspCover._fields)
    )


@given(_rh_data())
@example((Fraction(-1, 6), 6, (0,), (3,)))  # a zero cone order
@example((Fraction(-3, 10), 60, (2, 5), (3,)))  # genus 0
@example((Fraction(-1, 4), 60, (4,), (3, 3)))  # 2b = -21
@example((Fraction(-1, 2), 12, (2,), (3,)))  # 2b = 4, genus 2
@example((Fraction(-1, 3), 6, (2, 3), (2,)))  # 2b = 1, odd
@example((Fraction(-1, 2), 12, (), (3, 3, 5, 3)))  # a run of two, 5 does not divide 12
@settings(max_examples=300, deadline=None)
def test_riemann_hurwitz_matches_the_fraction_reference(data):
    got = _outcome(_per_cusp_cover, *data)
    assert got == _outcome(cover_reference.riemann_hurwitz_cover, *data)


@given(
    st.integers(-1, 3),
    st.lists(st.integers(-1, 12), max_size=4).map(tuple),
    st.integers(-1, 4),
)
@example(0, (2, 5), 1)
@example(0, (2,), 0)  # not hyperbolic
@example(0, (3, 3, 4), 0)
@settings(max_examples=300, deadline=None)
def test_orbifold_euler_characteristic_matches_the_fraction_reference(genus, orders, cusps):
    got = _outcome(_signature, OrbifoldSignature, genus, orders, cusps)
    assert got == _outcome(_signature, cover_reference.OrbifoldSignature, genus, orders, cusps)
    # the property alone, on data __new__ would refuse (no zero order)
    fields = (genus, tuple(n for n in orders if n), cusps)
    chi = OrbifoldSignature._make(fields).euler_characteristic
    assert type(chi) is Fraction
    assert chi == cover_reference.OrbifoldSignature._make(fields).euler_characteristic


def test_cover_twisting_examples():
    assert cover_twisting(60, [(3, 2, 1, 1)]) == 120
    assert cover_twisting(9828, [(3, 3, 1, 1)]) == 29484
    d = 1953000
    assert cover_twisting(d, [(5, 4, 1, 1), (5, 3, 1, 1)]) == 7 * d
    # a class of m cusps counts as m cusps
    classes = ((3, 2, 1, 4), (5, 2, 2, 1))
    assert cover_twisting(60, classes) == 4 * 20 * 6 + 12 * 5
    payload = CoverData(60, 0, 92, ((3, 4), (5, 1)), classes, 540).to_json()
    assert payload["per_cusp_twists"] == [6, 6, 6, 6, 5]
    assert payload["cusps_per_orbit"] == [20, 20, 20, 20, 12]
    assert payload["cusp_image_orders"] == [3, 3, 3, 3, 5]


def test_cover_twisting_rejects_fractional():
    with pytest.raises(InvalidRootDataError):
        cover_twisting(30, [(3, 2, 4, 1)])
    with pytest.raises(InvalidArgumentError, match="^per-cusp sequences must have equal length$"):
        cli._cusp_classes((3,), (2, 2), (1,))


@pytest.mark.parametrize("value", [0, -1])
def test_cover_classes_refuse_a_non_positive_order_or_multiplicity(value):
    # no class form of a cover has them; the per-cusp form cannot write them
    chi_orb = OrbifoldSignature(0, (2, 3), 1).euler_characteristic
    refusal = "^cusp image orders and multiplicities must be positive$"
    with pytest.raises(InvalidArgumentError, match=refusal):
        riemann_hurwitz_cover(chi_orb, 6, (2, 3), [(6, 1), (3, value)])
    with pytest.raises(InvalidArgumentError, match=refusal):
        cover_twisting(6, [(6, 1, 1, 1), (value, 1, 1, 1)])
    with pytest.raises(InvalidArgumentError, match=refusal):
        cover_twisting(6, [(6, 1, 1, value)])


@st.composite
def _twisting_classes(draw):
    """(degree, classes) for cover_twisting: up to four classes (order,
    twists, root, multiplicity) with orders and multiplicities >= 1 and
    twists and roots from -1 up, so that zero and negative entries,
    roots that do not divide order * twists and, when the degree is
    drawn freely, orders that do not divide it all occur."""
    classes = draw(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-1, 12), st.integers(-1, 6), st.integers(1, 4)),
            max_size=4,
        )
    )
    if draw(st.booleans()):
        degree = math.lcm(1, *(c[0] for c in classes)) * draw(st.integers(1, 40))
    else:
        degree = draw(st.integers(1, 400))
    return degree, classes


def _class_twisting(degree, classes):
    """cover_twisting, and the twists per cusp its CoverData writes out."""
    total = cover_twisting(degree, classes)
    payload = CoverData(degree, 0, 0, (), tuple(classes), total).to_json()
    return total, tuple(payload["per_cusp_twists"])


def _expanded(degree, classes):
    """The per-cusp arguments of cover_reference.cover_twisting."""
    orders = expand_classes((c[0], c[3]) for c in classes)
    twists = expand_classes((c[1], c[3]) for c in classes)
    roots = expand_classes((c[2], c[3]) for c in classes)
    return tuple(degree // k for k in orders), orders, twists, roots


@given(_twisting_classes())
@example((60, [(3, 2, 1, 1)]))
@example((60, [(3, 2, 4, 2), (3, 0, 1, 1)]))  # a non-positive twist beats an earlier root
@example((60, [(3, 2, 1, 3), (3, 2, 4, 1), (5, 1, 3, 2)]))  # the first fractional class
@example((7, [(3, 2, 1, 2)]))  # 3 does not divide 7
@example((12, []))
@settings(max_examples=300, deadline=None)
def test_cover_twisting_classes_match_the_per_cusp_reference(data):
    degree, classes = data
    got = _outcome(_class_twisting, degree, classes)
    assert got == _outcome(cover_reference.cover_twisting, *_expanded(degree, classes))


@given(
    st.lists(st.integers(1, 9), max_size=4),
    st.lists(st.integers(-1, 12), max_size=4),
    st.none() | st.lists(st.integers(-1, 6), max_size=4),
    st.integers(1, 400),
)
@example([3, 3], [2, 2], [1], 60)
@example([3], [2, 2], None, 60)
@example([3, 5], [2, 0], [4, 1], 60)
@settings(max_examples=300, deadline=None)
def test_cover_command_lists_match_the_per_cusp_reference(orders, twists, roots, degree):
    """The cover command's lists, of any lengths, as multiplicity-1
    classes (roots default to 1 per twist, as the command does)."""
    roots = [1] * len(twists) if roots is None else roots
    got = _outcome(lambda: _class_twisting(degree, cli._cusp_classes(orders, twists, roots)))
    counts = tuple(degree // k for k in orders)
    assert got == _outcome(cover_reference.cover_twisting, counts, orders, twists, roots)


@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_cover_data_is_invalid_input(value):
    # invalid input, not an inconsistency: no cover has such data
    sig = OrbifoldSignature(0, (2, 3), 1)
    with pytest.raises(InvalidArgumentError, match="^cusp image orders must be positive$"):
        riemann_hurwitz_cover(sig.euler_characteristic, 6, (2, 3), [(value, 1)])
    with pytest.raises(InvalidArgumentError, match="^cusp image orders must be positive$"):
        riemann_hurwitz_cover(sig.euler_characteristic, 6, (2, 3), [(6, 1), (value, 1)])
    refusal = "^twists and root indices must be positive$"
    for twists, roots in (((value,), (1,)), ((2,), (value,)), ((2, value), (1, 1))):
        classes = [(3, t, k, 1) for t, k in zip(twists, roots)]
        with pytest.raises(InvalidArgumentError, match=refusal):
            cover_twisting(6, classes)
    # a non-positive entry is refused before a fractional one is judged
    with pytest.raises(InvalidArgumentError):
        cover_twisting(30, [(3, 2, 4, 1), (3, 2, value, 1)])


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
        # F_243 and F_343, the closure-oracle workload's moduli, past the default cap
        (3, IntPolynomial([1, -1, 0, 0, 0, 1]), 243 * (243 * 243 - 1)),
        (7, IntPolynomial([2, 0, 0, 1]), 343 * (343 * 343 - 1)),
    ]
    for p, modulus, expected in cases:
        field = FiniteFieldSpec(p, modulus)
        order = group_closure_order(theorem_generator_pair(field), cap=10**9)
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


KERNEL_MODULI = [
    (2, "x+1"),
    (2, "x^2+x+1"),
    (2, "x^3+x+1"),
    (2, "x^4+x+1"),
    (3, "x"),
    (3, "x^2+1"),
    (3, "2*x^2+x+1"),  # not monic
    (3, "x^3-x+1"),
    (3, "x^4+x+2"),
    (5, "x-2"),
    (5, "x^2+2"),
    (5, "3*x^2+1"),  # not monic
    (7, "x^2+1"),
    (11, "x^2+1"),
    (13, "x-3"),
    (3, "x^5-x+1"),  # F_243 and F_343, the closure-oracle workload's cap fields
    (7, "x^3+2"),
]


@pytest.mark.parametrize("p, modulus", KERNEL_MODULI)
def test_field_kernel_matches_ffelement_arithmetic(p, modulus):
    # the oracle's carry-free sums and log/antilog products, built from
    # multiplication by x, pair by pair against the reference's tables,
    # built from FFElement products and sums: a + b, a b and -(a b)
    field = FiniteFieldSpec(p, parse_polynomial(modulus))
    code, red, log, cexp, nexp = covers._field_kernel(field)
    mul, add = bfs_oracle._field_tables(field)
    neg = [row.index(0) for row in add]
    q = field.order
    assert [[red[code[a] + code[b]] for b in range(q)] for a in range(q)] == add
    assert [[red[cexp[log[a] + log[b]]] for b in range(q)] for a in range(q)] == mul
    assert [[red[nexp[log[a] + log[b]]] for b in range(q)] for a in range(q)] == [
        [neg[m] for m in row] for row in mul
    ]


def test_field_kernel_moduli_include_a_non_primitive_x():
    # x^2 + 1 makes x of order 4 over F_9, F_49 and F_121; x^2 = 3 (both
    # F_25 moduli) and x^3 = -2 (F_343) also keep x's order below q - 1:
    # on each of these the search for a primitive element must pass x by
    not_primitive = []
    for p, modulus in KERNEL_MODULI:
        field = FiniteFieldSpec(p, parse_polynomial(modulus))
        if field.degree == 1:  # x is a scalar there, possibly 0
            continue
        power, order = field.generator, 1
        while power != field.one:
            power, order = power * field.generator, order + 1
        if order < field.order - 1:
            not_primitive.append((p, modulus))
    assert not_primitive == [
        (3, "x^2+1"), (5, "x^2+2"), (5, "3*x^2+1"), (7, "x^2+1"), (11, "x^2+1"), (7, "x^3+2")
    ]


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
    one, zero, q = field.one, field.zero, field.order
    a, b, c = (element_from_index(field, n % q) for n in (i, j, k))
    if kind == "identity":
        return ((one, zero), (zero, one))
    if kind == "minus-identity":
        return ((-one, zero), (zero, -one))
    if kind == "upper-shear":
        return ((one, a), (zero, one))
    if kind == "lower-shear":
        return ((one, zero), (a, one))
    if not is_zero(a):
        return ((a, b), (c, (one + b * c) * a ** (q - 2)))
    if is_zero(b):
        b = one
    return ((zero, b), (-(b ** (q - 2)), c))


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
# two shears independent over F_5: the group is their span, of order 25
@example(q=25, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 5, 0, 0)])
@example(q=27, draws=[("upper-shear", 3, 0, 0), ("lower-shear", 1, 0, 0)])
@example(q=7, draws=[("general", 2, 3, 4), ("general", 0, 5, 1)])
@example(q=4, draws=[("lower-shear", 1, 0, 0), ("general", 2, 1, 3), ("minus-identity", 0, 0, 0)])
# Borel subgroups: shears by 1 and x with diag(x + 1, 1/(x + 1)).  Stab(e1)
# fills to all of F_q while the orbit {((x + 1)^k, 0)} is still partial
@example(q=9, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 3, 0, 0), ("general", 4, 0, 0)])
@example(q=25, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 5, 0, 0), ("general", 6, 0, 0)])
@example(q=27, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 3, 0, 0), ("general", 4, 0, 0)])
@example(q=4, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 2, 0, 0), ("general", 3, 0, 0)])
# Borel subgroups whose diagonal entries generate a proper subgroup of
# F_q^*, for a primitive g: <g^4, g^6> = <g^2> at q = 25 (indices 18 and
# 2), <g^2> = <x^2> at q = 27, <g^2, g^4> at q = 9 (indices 6 and 2), <-1>
# at q = 25 and <2>, of order 3, at q = 7; |G| = q |<a_1, ..., a_k>|
@example(q=25, draws=[
    ("upper-shear", 1, 0, 0), ("upper-shear", 5, 0, 0), ("general", 18, 0, 0), ("general", 2, 0, 0)
])
@example(q=25, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 5, 0, 0), ("minus-identity", 0, 0, 0)])
@example(q=27, draws=[
    ("upper-shear", 1, 0, 0), ("upper-shear", 3, 0, 0), ("upper-shear", 9, 0, 0), ("general", 9, 0, 0)
])
@example(q=9, draws=[
    ("upper-shear", 1, 0, 0), ("upper-shear", 3, 0, 0), ("general", 6, 0, 0), ("general", 2, 0, 0)
])
@example(q=7, draws=[("upper-shear", 1, 0, 0), ("general", 2, 0, 0)])
# shears by 1 and x fill Stab(e1) at e1, then a lower shear leaves the
# Borel subgroup: the orbit is every nonzero vector with no walk past e1
@example(q=25, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 5, 0, 0), ("lower-shear", 1, 0, 0)])
@example(q=4, draws=[("upper-shear", 1, 0, 0), ("upper-shear", 2, 0, 0), ("lower-shear", 1, 0, 0)])
@settings(max_examples=100, deadline=None)
def test_orbit_stabiliser_matches_bfs(q, draws):
    p, modulus = SMALL_FIELDS[q]
    field = FiniteFieldSpec(p, IntPolynomial(modulus))
    spec = MatrixGroupSpec(field, tuple(_generator(field, *draw) for draw in draws))
    assert group_closure_order(spec) == bfs_closure_order(spec)


@pytest.mark.parametrize(
    "p, modulus, expected", [(3, [1, 0, 1], 72), (5, [2, 0, 1], 600), (3, [1, -1, 0, 1], 702)]
)
def test_closure_borel_subgroup_is_q_times_q_minus_one(p, modulus, expected):
    # lam = x + 1 is primitive in each field.  The shears by 1 and x fix
    # e1, and conjugating by diag(lam, 1/lam) scales a shear's t by lam^2,
    # so Stab(e1) is all of F_q while the orbit is the q - 1 points
    # (lam^k, 0): the walk must finish a partial orbit without transversals
    field = FiniteFieldSpec(p, IntPolynomial(modulus))
    one, zero, lam = field.one, field.zero, field.generator + field.one
    q = field.order
    spec = MatrixGroupSpec(
        field,
        (
            ((one, one), (zero, one)),
            ((one, field.generator), (zero, one)),
            ((lam, zero), (zero, lam ** (q - 2))),
        ),
    )
    assert group_closure_order(spec) == q * (q - 1) == expected


def _count_reduction_reads(monkeypatch):
    """Wrap covers._field_kernel so that every read of its reduction
    table red adds one to the returned counter's "reads"."""
    counter = {"reads": 0}

    class CountedTable(list):
        def __getitem__(self, i):
            counter["reads"] += 1
            return list.__getitem__(self, i)

    field_kernel = covers._field_kernel

    def counted_kernel(field):
        code, red, *products = field_kernel(field)
        return (code, CountedTable(red), *products)

    monkeypatch.setattr(covers, "_field_kernel", counted_kernel)
    return counter


def test_closure_stops_once_the_stabiliser_fills_outside_the_borel_subgroup(monkeypatch):
    # once Stab(e1) is all of F_q and a generator has c != 0 the orbit is
    # every nonzero vector: the walk ends there, reading the reduction
    # table far fewer than q^2 times (a full orbit walk reads it 63 816)
    counter = _count_reduction_reads(monkeypatch)
    field = FiniteFieldSpec(5, IntPolynomial([-3, 9, -6, 1]))
    q = field.order
    assert group_closure_order(theorem_generator_pair(field)) == q * (q * q - 1)
    assert 0 < counter["reads"] < q * q


def test_closure_stops_once_the_stabiliser_fills_inside_the_borel_subgroup(monkeypatch):
    # over F_25 = F_5[x]/(x^2 + 2), where lam = x + 1 is primitive, the
    # shears by 1 and x fill Stab(e1) at e1.  With diag(lam, 1/lam) the
    # walk at e1 also reads red 4 times for the new point (lam, 0) and its
    # transversal column, and then ends: |G| = q |<lam>| is read off the
    # log of lam, and the other q - 2 orbit points (lam^k, 0) are not walked
    counter = _count_reduction_reads(monkeypatch)
    field = FiniteFieldSpec(5, IntPolynomial([2, 0, 1]))
    one, zero, lam = field.one, field.zero, field.generator + field.one
    q = field.order
    shears = (((one, one), (zero, one)), ((one, field.generator), (zero, one)))
    assert group_closure_order(MatrixGroupSpec(field, shears)) == q
    at_e1 = counter["reads"]
    counter["reads"] = 0
    diagonal = ((lam, zero), (zero, lam ** (q - 2)))
    assert group_closure_order(MatrixGroupSpec(field, (*shears, diagonal))) == q * (q - 1)
    assert counter["reads"] == at_e1 + 4


def test_field_kernel_tables_are_not_q_by_q():
    # over F_343 the largest table is the reduction of carry-free code
    # sums, (2p - 1)^n = 13^3 entries, where a q x q table has 117 649
    field = FiniteFieldSpec(7, IntPolynomial([2, 0, 0, 1]))
    tables = covers._field_kernel(field)
    assert max(len(table) for table in tables) == 13**3 == 2197


def test_f9_exception_depends_on_residue():
    """Over F9 the two-parabolic image is the order-120 group only when
    the shear residue squares to -1; the D = 8 parameter at level 3 does
    not, and generates all 720 elements."""
    octagon = FiniteFieldSpec(3, IntPolynomial([2, -4, 1]))  # x^2-4x+2 mod 3
    abar = octagon.generator
    assert (abar * abar).coeffs != (2, 0)
    assert group_closure_order(theorem_generator_pair(octagon, abar)) == 720
