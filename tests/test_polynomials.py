import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclotomic_reference
import enclosure_reference
import fraction_reference
import root_refine_reference as reference
from power_basis_reference import power
from veechfib.covers import congruence_degree
from veechfib.errors import (
    CapExceededError,
    DivisionByZeroError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    RootBracketError,
    UnsupportedFamilyError,
    VeechFibError,
)
from veechfib.exact import polynomials
from veechfib.exact.polynomials import (
    BRACKET_BITS,
    MAX_PARSED_DEGREE,
    IntPolynomial,
    _chebyshev_polys,
    cos_two_pi_minpoly,
    cyclotomic_polynomial,
    euler_phi,
    homogeneous_value,
    isolate_largest_real_root,
    jsonable,
    parse_polynomial,
    prime_factors,
    rational_to_str,
    scaled_integers,
    two_cos_bracket,
)
from veechfib.tags import surface_tag


@pytest.mark.parametrize("t", [0.3, 1.1, 2.9])
def test_chebyshev_polys_take_their_trigonometric_values(t):
    # P_0 = 1 gives U_k(2cos t) = sin((k+1)t)/sin(t); P_0 = 2 gives
    # C_k(2cos t) = 2cos(kt)
    u, c = _chebyshev_polys(30, 1), _chebyshev_polys(30, 2)
    assert len(u) == len(c) == 31
    # the float 2cos(t), summed exactly: no cancellation in the large coefficients
    y = Fraction(2 * math.cos(t))
    for k in range(31):
        u_value = float(sum(a * y**i for i, a in enumerate(u[k].coefficients)))
        c_value = float(sum(a * y**i for i, a in enumerate(c[k].coefficients)))
        assert u_value == pytest.approx(math.sin((k + 1) * t) / math.sin(t), abs=1e-9), k
        assert c_value == pytest.approx(2 * math.cos(k * t), abs=1e-9), k


def test_chebyshev_composed_with_y_squared_minus_two_doubles_the_index():
    # C_k(y^2 - 2) = C_(2k)(y), as polynomials: the identity the holonomy
    # check's Z[alpha] test checks mu = -C_((h-1)/2)(mu^2 - 2) by
    c = _chebyshev_polys(40, 2)
    y2_minus_2 = IntPolynomial([-2, 0, 1])
    for k in range(21):
        composed = IntPolynomial()
        for a in reversed(c[k].coefficients):
            composed = composed * y2_minus_2 + IntPolynomial([a])
        assert composed == c[2 * k], k


def test_minpoly_two_cos_pinned_values():
    assert cos_two_pi_minpoly(2 * 3) == IntPolynomial([-1, 1])
    assert cos_two_pi_minpoly(2 * 5) == IntPolynomial([-1, -1, 1])
    assert cos_two_pi_minpoly(2 * 18) == IntPolynomial([-3, 0, 9, 0, -6, 0, 1])
    assert cos_two_pi_minpoly(2 * 30) == IntPolynomial([1, 0, -8, 0, 14, 0, -7, 0, 1])


@pytest.mark.parametrize(
    "block", [range(1, 201), range(201, 401), range(401, 601), (1000, 1001, 1024, 1155, 2002, 2310)]
)
def test_cyclotomic_moebius_product_matches_recursive_division(block):
    # 1155 = 3 5 7 11 and 2310 = 2 3 5 7 11 have 16 and 32 squarefree
    # divisors; 1024 has two, and 1001 = 7 11 13 is odd
    for n in block:
        assert cyclotomic_polynomial(n) == cyclotomic_reference.cyclotomic_polynomial(n), n


def test_cos_two_pi_minpoly_refuses_a_descent_that_is_not_monic(monkeypatch):
    # a cyclotomic route that returned 2x^2 + x + 2 would descend to 2x + 1
    monkeypatch.setattr(polynomials, "cyclotomic_polynomial", lambda n: IntPolynomial([2, 1, 2]))
    cos_two_pi_minpoly.cache_clear()
    try:
        with pytest.raises(MathematicalInconsistencyError, match="not a monic polynomial of degree 1"):
            cos_two_pi_minpoly(7)
    finally:
        cos_two_pi_minpoly.cache_clear()


def test_minpoly_two_cos_derived_via_cyclotomic():
    # independent oracle: Phi_10(x) = x^4 - x^3 + x^2 - x + 1 descends to x^2-x-1
    assert cyclotomic_polynomial(10) == IntPolynomial([1, -1, 1, -1, 1])
    assert cos_two_pi_minpoly(10) == IntPolynomial([-1, -1, 1])


def test_minpoly_two_cos_rejects_small_n():
    with pytest.raises(InvalidArgumentError, match="index must be >= 1"):
        cos_two_pi_minpoly(0)


@pytest.mark.parametrize("n", range(3, 61))
def test_minpoly_two_cos_degree_monic_and_root(n):
    m = cos_two_pi_minpoly(2 * n)
    assert m.is_monic
    assert m.degree == euler_phi(2 * n) // 2
    lo, hi = isolate_largest_real_root(m, two_cos_bracket(n))
    value = 2 * math.cos(math.pi / n)
    assert float(lo) - 1e-12 <= value <= float(hi) + 1e-12


def test_isolate_largest_real_root_examples():
    # a certified bracket comes back as it was given, as Fractions; the
    # root may sit at its upper end, not at its lower one
    linear = IntPolynomial([-1, 1])
    certified = isolate_largest_real_root(linear, (0, 1))
    assert certified == (0, 1) and all(type(end) is Fraction for end in certified)
    golden = IntPolynomial([-1, -1, 1])
    bracket = (Fraction(3, 2), Fraction(17, 10))
    assert isolate_largest_real_root(golden, bracket) == bracket
    for f, start in ((linear, (1, 2)), (golden, (-1, 2)), (IntPolynomial([1, 0, 1]), (-9, 9))):
        with pytest.raises(RootBracketError):
            isolate_largest_real_root(f, start)
    with pytest.raises(InvalidArgumentError):
        isolate_largest_real_root(IntPolynomial(), (0, 1))


def test_isolate_picks_largest_root():
    # roots 1, 2, 3: only a bracket holding 3 alone is certified
    f = IntPolynomial([-1, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([-3, 1])
    lo, hi = reference.isolate_largest_real_root(f, Fraction(1, 100))
    assert Fraction(5, 2) < lo <= 3 <= hi
    assert isolate_largest_real_root(f, (Fraction(5, 2), 4)) == (Fraction(5, 2), 4)
    # two roots, the root 2 alone, the root 1 at the upper end, and a
    # reversed start: 3 alone lies above 5/2 and f(3/2) > 0
    starts = ((Fraction(3, 2), 4), (Fraction(3, 2), Fraction(5, 2)), (0, 1))
    for start in (*starts, (Fraction(5, 2), Fraction(3, 2))):
        with pytest.raises(RootBracketError):
            isolate_largest_real_root(f, start)


def test_squarefree_part():
    # the last Sturm member is a primitive gcd(f, f'), and f over it is
    # the squarefree part the reference finds by Fraction Euclid
    f = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([0, 1])
    quotient = reference.exact_divide(f, IntPolynomial(reference.sturm_chain(f)[-1]))
    expected = IntPolynomial([-1, 1]) * IntPolynomial([0, 1])
    assert reference.primitive_part(quotient) == expected == reference.squarefree_part(f)


def test_parse_and_str():
    assert parse_polynomial("x^2-x-1") == IntPolynomial([-1, -1, 1])
    assert parse_polynomial("x^2 - 4x + 2") == IntPolynomial([2, -4, 1])
    assert parse_polynomial("y^3-6y^2+9y-3") == IntPolynomial([-3, 9, -6, 1])
    assert parse_polynomial("-x^2 + 3*x") == IntPolynomial([0, 3, -1])
    assert str(IntPolynomial([-1, -1, 1])) == "x^2 - x - 1"
    # every term after the first carries a sign, and one variable letter
    # serves the whole polynomial
    for text in ("", "2 3", "x x", "x^2 1", "x^2 + y", "2^3", "x +"):
        with pytest.raises(InvalidArgumentError):
            parse_polynomial(text)


def test_parse_refuses_a_degree_past_its_cap_from_the_merged_terms():
    assert parse_polynomial(f"x^{MAX_PARSED_DEGREE}+1").degree == MAX_PARSED_DEGREE
    # terms that cancel leave no degree to refuse
    assert parse_polynomial("x^20000000 - x^20000000 + x") == IntPolynomial([0, 1])
    with pytest.raises(CapExceededError, match="^polynomial degree 100001 exceeds"):
        parse_polynomial(f"x^{MAX_PARSED_DEGREE + 1}+1")


def test_json_round_trip():
    f = IntPolynomial([-3, 0, 9, 0, -6, 0, 1])
    assert f.to_json() == ["-3", "0", "9", "0", "-6", "0", "1"]


def test_rational_serialization():
    assert rational_to_str(Fraction(-3, 10)) == "-3/10"


def test_jsonable_writes_rationals_as_num_over_den():
    assert jsonable(Fraction(-3, 10)) == "-3/10"
    assert jsonable(Fraction(4)) == "4/1"


@pytest.mark.parametrize("value", [0, -7, 10**30, True, False, None, "polygon-5"])
def test_jsonable_returns_scalars_as_they_are(value):
    assert jsonable(value) is value


def test_jsonable_converts_containers_item_by_item():
    nested = ((1, (Fraction(1, 2), ())), [Fraction(-2)])
    assert jsonable(nested) == [[1, ["1/2", []]], ["-2/1"]]
    payload = {"kappa": Fraction(2, 9), "partition": (2,), "inner": {"s": (Fraction(-3),)}}
    assert jsonable(payload) == {"kappa": "2/9", "partition": [2], "inner": {"s": ["-3/1"]}}
    assert list(jsonable(payload)) == ["kappa", "partition", "inner"]


def test_jsonable_dispatches_to_a_value_own_to_json():
    class Record(tuple):  # a tuple, but its own JSON form wins
        def to_json(self):
            return "own"

    f = IntPolynomial([-1, -1, 1])
    assert jsonable(f) == ["-1", "-1", "1"] == f.to_json()  # decimal strings, not ints
    assert jsonable(Record((1, 2))) == "own"
    assert jsonable({"r": [Record(())]}) == {"r": ["own"]}


def test_parity_helpers():
    assert IntPolynomial([0, 1, 0, 2]).odd_terms_only()
    assert IntPolynomial([3, 0, -1]).even_terms_only()
    assert not IntPolynomial([1, 1]).odd_terms_only()


def test_arithmetic_basics():
    f = IntPolynomial([1, 2])
    g = IntPolynomial([-1, 1])
    assert f * g == IntPolynomial([-1, -1, 2])
    assert f + g == IntPolynomial([0, 3])


def _brute_divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def test_divisors_match_brute_force():
    for n in (-8, -1, 0, 1):
        assert prime_factors(n) == []
    for n in range(1, 2001):
        brute = _brute_divisors(n)
        assert prime_factors(n) == [k for k in brute if len(_brute_divisors(k)) == 2]
    # 2 divided out once, then odd candidates only, up to sqrt of what is left
    for n, primes in (
        (2, [2]),
        (3, [3]),
        (4, [2]),
        (8, [2]),
        (9, [3]),
        (2**40, [2]),
        (3**25, [3]),
        (2 * 10007**2, [2, 10007]),
        (99991 * 99989, [99989, 99991]),
    ):
        assert prime_factors(n) == primes, n
    # d = 0, 1 mod 4 is fundamental when no square f^2 > 1 leaves a
    # discriminant d / f^2 = 0, 1 mod 4
    from veechfib.families import is_fundamental_discriminant

    for d in [*range(-2999, 0), *range(1, 3000)]:
        brute = d % 4 in (0, 1) and not any(
            d % (f * f) == 0 and (d // (f * f)) % 4 in (0, 1)
            for f in range(2, math.isqrt(abs(d)) + 1)
        )
        assert is_fundamental_discriminant(d) == brute, d


_WIDTHS = (Fraction(1, 2**30), Fraction(1, 10**25))


@pytest.mark.parametrize("h", range(3, 71))
def test_refinement_matches_sturm_reference_on_cos_minpolys(h):
    # the enclosures refine the certified bracket by signs; refined by
    # Sturm counts from the same bracket, it reaches the same rationals
    f = cos_two_pi_minpoly(2 * h)
    bracket = isolate_largest_real_root(f, two_cos_bracket(h))
    for width in _WIDTHS:
        expected = reference.refine(f, *bracket, width)
        assert reference.bisect_by_signs(f, *bracket, width) == expected


_POINTS = st.fractions(min_value=-20, max_value=20, max_denominator=4)
_ROOTS = st.lists(
    _POINTS,
    min_size=1,
    max_size=5,
    unique=True,
)
# x^2 + bx + c with a discriminant that is not a rational square
_QUADRATICS = st.one_of(
    st.none(),
    st.tuples(st.integers(-6, 6), st.integers(-9, 9)).filter(
        lambda bc: bc[0] ** 2 - 4 * bc[1] < 0
        or math.isqrt(bc[0] ** 2 - 4 * bc[1]) ** 2 != bc[0] ** 2 - 4 * bc[1]
    ),
)


@settings(max_examples=60, deadline=None)
@given(roots=_ROOTS, quadratic=_QUADRATICS)
def test_refinement_matches_sturm_reference_on_random_squarefree(roots, quadratic):
    # every interval the reference isolates around the largest root is
    # certified as it is when f has only real roots; with a complex pair
    # it may be refused, and what is certified the Sturm counts confirm.
    # From a coarse interval both refinements agree
    f = IntPolynomial([1])
    for r in roots:
        f = f * IntPolynomial([-r.numerator, r.denominator])
    real_rooted = quadratic is None or quadratic[0] ** 2 > 4 * quadratic[1]
    if quadratic is not None:
        f = f * IntPolynomial([quadratic[1], quadratic[0], 1])
    for width in _WIDTHS:
        interval = reference.isolate_largest_real_root(f, width)
        if interval[0] < interval[1]:
            if real_rooted:
                assert isolate_largest_real_root(f, interval) == interval
            else:
                assert _certified(f, interval) <= reference.sturm_certifies(f, *interval)
    start = reference.isolate_largest_real_root(f, Fraction(1, 4))
    for width in _WIDTHS:
        expected = reference.refine(f, *start, width)
        assert reference.bisect_by_signs(f, *start, width) == expected


@settings(max_examples=100, deadline=None)
@given(roots=_ROOTS, quadratic=_QUADRATICS)
# Fujiwara's bound is attained: 1 for x - 1, 16 for x + 16
@example(roots=[Fraction(1)], quadratic=None)
@example(roots=[Fraction(-16)], quadratic=None)
def test_root_bound_is_a_power_of_two_above_every_real_root(roots, quadratic):
    # the bound the reference isolation starts from
    f = IntPolynomial([1])
    for r in roots:
        f = f * IntPolynomial([-r.numerator, r.denominator])
    if quadratic is not None:
        f = f * IntPolynomial([quadratic[1], quadratic[0], 1])
    bound = reference.root_bound(f)
    assert isinstance(bound, int) and bound > 0 and bound & (bound - 1) == 0
    assert all(-bound < r < bound for r in roots)
    if quadratic is not None and quadratic[0] ** 2 - 4 * quadratic[1] > 0:
        # both real roots of x^2 + bx + c lie strictly inside (-B, B)
        # when it is positive at both ends and its vertex lies between
        b, c = quadratic
        assert bound**2 + b * bound + c > 0 and bound**2 - b * bound + c > 0
        assert -2 * bound < b < 2 * bound


_MULTIPLICITIES = st.lists(st.integers(1, 3), min_size=5, max_size=5)


def _certified(f, start):
    """Whether the library certifies start for f."""
    try:
        return isolate_largest_real_root(f, start) == start
    except RootBracketError:
        return False


def _starts(points):
    """Every (lo, hi) with lo < hi from the points and the points moved
    by 1/8 either way."""
    near = sorted({x + e for x in points for e in (-Fraction(1, 8), 0, Fraction(1, 8))})
    return [(lo, hi) for i, lo in enumerate(near) for hi in near[i + 1 :]]


@settings(max_examples=60, deadline=None)
@given(roots=_ROOTS, multiplicities=_MULTIPLICITIES, quadratic=_QUADRATICS)
# the squarefree part x(x - 5) has its double root 0 at the first midpoint
@example(roots=[Fraction(0), Fraction(5)], multiplicities=[2, 1, 1, 1, 1], quadratic=None)
def test_isolation_matches_sturm_reference_on_repeated_roots(roots, multiplicities, quadratic):
    # what the library certifies, the reference's Sturm counts confirm:
    # one distinct root in (lo, hi] and none above.  On a squarefree
    # product of rational linear factors the two agree on every start,
    # and a repeated largest root is refused from every start
    f = IntPolynomial([1])
    for r, k in zip(roots, multiplicities):
        for _ in range(k):
            f = f * IntPolynomial([-r.numerator, r.denominator])
    largest = max(roots)
    repeated = multiplicities[roots.index(largest)] > 1
    if quadratic is not None:
        b, c = quadratic
        q = IntPolynomial([c, b, 1])
        f = f * q * q
        # a real pair of q is doubled in f; its larger root is above the
        # largest rational root when q is negative there or both are
        if b * b > 4 * c and (c + b * largest + largest**2 < 0 or -b > 2 * largest):
            repeated = True
    squarefree = quadratic is None and max(multiplicities[: len(roots)]) == 1
    starts = _starts(roots)
    for width in _WIDTHS:
        lo, hi = reference.isolate_largest_real_root(f, width)
        starts += [(lo, hi), (hi, hi + 1)]
    for start in starts:
        certified, confirmed = _certified(f, start), reference.sturm_certifies(f, *start)
        assert certified <= confirmed, start
        if squarefree:
            assert certified == confirmed, start
        if repeated:
            assert not certified, start


_ANY_POLYS = st.lists(st.integers(-20, 20), min_size=2, max_size=9).map(IntPolynomial).filter(
    lambda f: f.degree > 0
)


@settings(max_examples=150, deadline=None)
@given(f=_ANY_POLYS, points=st.lists(_POINTS, min_size=1, max_size=3))
def test_isolation_certifies_nothing_the_sturm_counts_refuse(f, points):
    # an arbitrary integer polynomial may have complex roots, where
    # Descartes' count can exceed the real one; whatever it certifies,
    # from drawn starts and around the reference's largest root, is
    # still one distinct root in (lo, hi] with none above
    try:
        points = points + list(reference.isolate_largest_real_root(f, Fraction(1, 4)))
    except reference.NoRealRootError:
        pass
    for start in _starts(points):
        assert _certified(f, start) <= reference.sturm_certifies(f, *start), start


def test_a_repeated_root_at_the_upper_end_is_refused():
    # (x - 2)^3 (x^2 + 1)^2 (x + 1): the Sturm counts find the one
    # distinct root 2 in (0, 2], but Descartes' rule proves a simple
    # root, so no start around the triple root 2 is certified
    f = IntPolynomial([-2, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([-2, 1])
    f = f * IntPolynomial([1, 0, 1]) * IntPolynomial([1, 0, 1]) * IntPolynomial([1, 1])
    assert reference.sturm_certifies(f, 0, 2)
    for start in ((0, 2), (Fraction(3, 2), 3), (-2, 2), (2, 3), (0, 1)):
        with pytest.raises(RootBracketError):
            isolate_largest_real_root(f, start)


def test_refinement_midpoint_on_a_rational_root():
    # roots 0 and 3/4; (0, 1] isolates 3/4, and the second midpoint is
    # 3/4: both reference refinements collapse onto it
    f = IntPolynomial([0, 1]) * IntPolynomial([-3, 4])
    assert isolate_largest_real_root(f, (0, 1)) == (0, 1)
    width = Fraction(1, 2**30)
    refined = reference.bisect_by_signs(f, 0, 1, width)
    assert refined == reference.refine(f, 0, 1, width) == (Fraction(3, 4), Fraction(3, 4))


def test_refinement_of_an_interval_whose_upper_end_is_the_root():
    # roots -1, 1, 2; (3/2, 2] isolates 2 at its upper end.  The Sturm
    # count on (mid, 2] keeps finding it, so the Sturm refinement closes
    # in on 2 from below; refinement by signs returns it exactly.
    f = IntPolynomial([-2, 1]) * IntPolynomial([-1, 0, 1])
    assert isolate_largest_real_root(f, (Fraction(3, 2), 2)) == (Fraction(3, 2), 2)
    width = Fraction(1, 2**30)
    assert reference.bisect_by_signs(f, Fraction(3, 2), 2, width) == (2, 2)
    lo, hi = reference.refine(f, Fraction(3, 2), 2, width)
    assert hi == 2 and hi - lo <= width


def _count_calls(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to
    calls before calling through."""
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("h", (5, 18, 30, 37, 64))
def test_isolation_takes_one_remainder_sequence(monkeypatch, h):
    # certifying mu's bracket runs no remainder sequence: Descartes' rule
    # needs one Taylor shift.  Confirming the bracket by Sturm counts
    # takes exactly one, the chain's own, and m_mu is squarefree, so the
    # chain is not divided again
    f = cos_two_pi_minpoly(2 * h)
    bracket = two_cos_bracket(h)
    expected = len(reference.sturm_chain(f)) - 1
    calls = []
    _count_calls(monkeypatch, polynomials, "pseudo_divmod", calls)
    _count_calls(monkeypatch, reference, "pseudo_divmod", calls)
    assert isolate_largest_real_root(f, bracket) == bracket
    assert calls == []
    reference.divided_sturm_chain.cache_clear()
    assert reference.sturm_certifies(f, *bracket)
    assert len(calls) == expected


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    # the certificate evaluates m_mu once, at the upper end of the
    # bracket; the Sturm counts that confirm it evaluate the chain once
    # at each end, and nowhere else
    values, variations = [], []
    _count_calls(monkeypatch, polynomials, "homogeneous_value", values)
    _count_calls(monkeypatch, reference, "sign_variations", variations)
    for h in (64, 101):
        f, bracket = cos_two_pi_minpoly(2 * h), two_cos_bracket(h)
        values.clear()
        isolate_largest_real_root(f, bracket)
        assert [Fraction(a, d) for _, a, d in values] == [bracket[1]]
        variations.clear()
        assert reference.sturm_certifies(f, *bracket)
        assert sorted(Fraction(x) for _, x in variations) == list(bracket)


def test_no_sturm_chain_after_isolation(monkeypatch):
    # a cold build certifies mu's bracket by one Taylor shift and one
    # evaluation of m_mu, at the upper end; no pseudo-division runs.  The
    # enclosure route signs elements by refining that bracket by signs,
    # with no Sturm chain either
    from veechfib.thurston_veech import build_surface

    remainders, values, variations = [], [], []
    _count_calls(monkeypatch, polynomials, "pseudo_divmod", remainders)
    _count_calls(monkeypatch, reference, "pseudo_divmod", remainders)
    _count_calls(monkeypatch, polynomials, "homogeneous_value", values)
    _count_calls(monkeypatch, reference, "sign_variations", variations)
    build_surface.cache_clear()
    model = build_surface("polygon-59")
    bracket = two_cos_bracket(59)
    assert remainders == []
    [(coeffs, a, d)] = values
    assert coeffs == model.mu.field.modulus.coefficients and Fraction(a, d) == bracket[1]
    root = reference.bisect_by_signs(model.mu.field.modulus, *bracket, Fraction(1, 10**40))
    mu, rational = model.mu, model.mu.field.element
    elements = [power(mu, k) - rational([k + 1]) for k in range(1, 11)]
    elements += [rational([k]) - mu for k in range(1, 11)]
    assert len({enclosure_reference.sign(e, root) for e in elements}) == 2
    assert remainders == variations == []


def _machin_pi(bits):
    """floor(pi 2^bits) from pi = 16 arctan(1/5) - 4 arctan(1/239), in
    integers with 32 guard bits; each truncated series term is off by
    less than one guard unit."""

    def arctan_inverse(x, one):
        total, power, k = 0, one // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    one = 1 << (bits + 32)
    scaled = 16 * arctan_inverse(5, one) - 4 * arctan_inverse(239, one)
    # under 30 terms in all, each weighed at most 16, keep the error below
    # 2^10 guard units, so it cannot cross a multiple of 2^32
    assert 2**10 < scaled % 2**32 < 2**32 - 2**10
    return scaled >> 32


def test_pinned_pi_is_machins():
    assert polynomials._PI_64 == _machin_pi(64)


def _model_coxeter_numbers():
    """h of every supported n-gon tag with n <= 256, then E7 and E8."""
    numbers = []
    for n in range(3, 257):
        try:
            numbers.append(surface_tag(f"polygon-{n}")[1])
        except UnsupportedFamilyError:
            pass
    return numbers + [18, 30]


def test_two_cos_bracket_starts_every_model_isolation():
    # the bracket holds 2cos(pi/h) and its Sturm counts certify it; that
    # the reference's own isolation lies inside it is checked per model in
    # test_thurston_veech.test_enclosure_route_agrees_with_the_integer_proofs
    for h in _model_coxeter_numbers():
        m = cos_two_pi_minpoly(2 * h)
        lo, hi = two_cos_bracket(h)
        assert lo < Fraction(2 * math.cos(math.pi / h)) < hi and hi - lo < Fraction(1, 2**30)
        assert (lo * 2**BRACKET_BITS).denominator == (hi * 2**BRACKET_BITS).denominator == 1
        assert isolate_largest_real_root(m, (lo, hi)) == (lo, hi), h


def test_isolation_refuses_a_start_that_misses_the_largest_root():
    for h in (7, 11, 18, 30, 251):
        m = cos_two_pi_minpoly(2 * h)
        # around the conjugate 2cos(3pi/h) (a root when 3 does not divide h)
        third = Fraction(2 * math.cos(3 * math.pi / h))
        eps = Fraction(1, 10**9)
        with pytest.raises(RootBracketError, match="does not isolate the largest real root"):
            isolate_largest_real_root(m, start=(third - eps, third + eps))
        # above the largest root, and reversed
        lo, hi = two_cos_bracket(h)
        with pytest.raises(RootBracketError):
            isolate_largest_real_root(m, start=(hi, 3))
        with pytest.raises(RootBracketError):
            isolate_largest_real_root(m, start=(hi, lo))
        if h % 3:
            # a start that also holds the conjugate is refused, not shrunk
            with pytest.raises(RootBracketError):
                isolate_largest_real_root(m, start=(third - eps, hi))


def test_two_cos_bracket_refuses_h_below_three():
    for bad in (2, 0, -5, 3.0, Fraction(7)):
        with pytest.raises(InvalidArgumentError):
            two_cos_bracket(bad)


_RATIONALS = st.fractions(max_denominator=10**6).filter(lambda x: abs(x) < 10**4)
_COEFFS = st.lists(st.fractions(max_denominator=50).filter(lambda x: abs(x) < 10**3), max_size=12)


@settings(max_examples=200, deadline=None)
@given(coeffs=_COEFFS, x=_RATIONALS)
def test_integer_evaluation_matches_fraction_horner(coeffs, x):
    expected = fraction_reference.qeval(coeffs, x)
    nums, den = scaled_integers(coeffs)
    assert [Fraction(c, den) for c in nums] == coeffs
    value = homogeneous_value(nums, x.numerator, x.denominator)
    assert (value > 0) - (value < 0) == (expected > 0) - (expected < 0)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(2, 40), x=_RATIONALS)
def test_sturm_members_keep_their_signs(h, x):
    # each integer member is a positive multiple of the Fraction chain
    # f, f', -rem(f, f'), ...; compare signs at a rational point
    f = cos_two_pi_minpoly(2 * h)
    members = [f.coefficients, fraction_reference.derivative(f.coefficients)]
    while True:
        rem = fraction_reference.remainder(members[-2], members[-1])
        if not rem:
            break
        members.append(tuple(-c for c in rem))
    chain = reference.sturm_chain(f)
    assert len(chain) == len(members)
    for member, expected in zip(chain, members):
        value = homogeneous_value(member, x.numerator, x.denominator)
        ref = fraction_reference.qeval(expected, x)
        assert (value > 0) - (value < 0) == (ref > 0) - (ref < 0)


@pytest.mark.parametrize("coeff", [0.9, "3", None, math.nan, Fraction(-1, 2)], ids=repr)
def test_non_integer_coefficients_are_refused(coeff):
    # a coefficient is never truncated: x + 0.9 is not x, and the root of
    # x - 1/2 is not 0
    with pytest.raises(InvalidArgumentError, match="is not an integer"):
        IntPolynomial([coeff, 1])
    with pytest.raises(InvalidArgumentError):
        congruence_degree([coeff, 0, 1], 3, 2, True)
    assert IntPolynomial([Fraction(-4, 2), True]) == IntPolynomial([-2, 1])


def test_exact_divide_by_zero_polynomial_is_typed():
    with pytest.raises(DivisionByZeroError) as err:
        reference.exact_divide(IntPolynomial([1, 1]), IntPolynomial())
    assert isinstance(err.value, VeechFibError) and isinstance(err.value, ZeroDivisionError)


_INT_POLYS = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(IntPolynomial).filter(bool)


def _monic(coeffs):
    return tuple(Fraction(c) / coeffs[-1] for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(f=_INT_POLYS, g=_INT_POLYS)
def test_gcd_and_squarefree_part_match_fraction_euclid(f, g):
    # the last member of the Sturm chain of a = f^2 g is the Fraction
    # gcd(a, a') up to a rational factor; a over it is the squarefree part
    a = f * f * g
    reference_gcd = fraction_reference.gcd(
        a.coefficients, fraction_reference.derivative(a.coefficients)
    )
    chain = reference.sturm_chain(a)
    assert _monic(chain[-1]) == reference_gcd
    sf = reference.exact_divide(a, IntPolynomial(chain[-1]))
    quotient = fraction_reference.divide(a.coefficients, reference_gcd)[0]
    assert _monic(sf.coefficients) == _monic(quotient)


@settings(max_examples=150, deadline=None)
@given(
    f=_INT_POLYS,
    g=_INT_POLYS,
    k=st.integers(1, 4),
    extra=st.lists(st.integers(-3, 3), max_size=3),
)
# 2x^2 + 3x + 1 = (2x + 2)(x + 1/2): exact over Q, not over Z
@example(f=IntPolynomial([1, 2]), g=IntPolynomial([1, 1]), k=2, extra=[])
def test_exact_division_matches_fraction_division(f, g, k, extra):
    # (f g + extra) / (k g) is integral, rational but not integral, or
    # inexact; only the first has a quotient in Z[x]
    h, divisor = f * g + IntPolynomial(extra), g * k
    q, r = fraction_reference.divide(h.coefficients, divisor.coefficients)
    integral = not r and all(c.denominator == 1 for c in q)
    assert reference.exact_divide(h, divisor) == (IntPolynomial(q) if integral else None)
