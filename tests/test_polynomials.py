import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_reference
import root_refine_reference as reference
from veechfib.covers import congruence_degree
from veechfib.errors import (
    CapExceededError,
    DivisionByZeroError,
    InvalidArgumentError,
    NoRealRootError,
    VeechFibError,
)
from veechfib.exact import polynomials
from veechfib.exact.polynomials import (
    MAX_PARSED_DEGREE,
    IntPolynomial,
    RootInterval,
    cos_two_pi_minpoly,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    homogeneous_value,
    isolate_largest_real_root,
    minpoly_two_cos,
    parse_polynomial,
    prime_factors,
    rational_to_str,
    root_bound,
    scaled_integers,
    squarefree_part,
    sturm_chain,
)


def test_minpoly_two_cos_pinned_values():
    assert minpoly_two_cos(3) == IntPolynomial([-1, 1])
    assert minpoly_two_cos(5) == IntPolynomial([-1, -1, 1])
    assert minpoly_two_cos(18) == IntPolynomial([-3, 0, 9, 0, -6, 0, 1])
    assert minpoly_two_cos(30) == IntPolynomial([1, 0, -8, 0, 14, 0, -7, 0, 1])


def test_minpoly_two_cos_derived_via_cyclotomic():
    # independent oracle: Phi_10(x) = x^4 - x^3 + x^2 - x + 1 descends to x^2-x-1
    assert cyclotomic_polynomial(10) == IntPolynomial([1, -1, 1, -1, 1])
    assert cos_two_pi_minpoly(10) == IntPolynomial([-1, -1, 1])


def test_minpoly_two_cos_rejects_small_n():
    with pytest.raises(InvalidArgumentError):
        minpoly_two_cos(2)


@pytest.mark.parametrize("n", range(3, 61))
def test_minpoly_two_cos_degree_monic_and_root(n):
    m = minpoly_two_cos(n)
    assert m.is_monic
    assert m.degree == euler_phi(2 * n) // 2
    interval = isolate_largest_real_root(m, Fraction(1, 10**12))
    value = 2 * math.cos(math.pi / n)
    assert float(interval.lower) - 1e-12 <= value <= float(interval.upper) + 1e-12


def test_isolate_largest_real_root_examples():
    exact = isolate_largest_real_root(IntPolynomial([-1, 1]))
    assert exact.is_exact and exact.lower == 1

    golden = isolate_largest_real_root(IntPolynomial([-1, -1, 1]), Fraction(1, 10))
    assert Fraction(3, 2) <= golden.lower and golden.upper <= Fraction(17, 10)

    with pytest.raises(NoRealRootError):
        isolate_largest_real_root(IntPolynomial([1, 0, 1]))


def test_root_interval_refinement_default_width():
    interval = isolate_largest_real_root(IntPolynomial([-1, -1, 1]))
    assert interval.width <= Fraction(1, 10**20)
    narrower = interval.refine(Fraction(1, 10**40))
    assert narrower.width <= Fraction(1, 10**40)
    golden = (1 + 5**0.5) / 2
    assert float(narrower.lower) <= golden <= float(narrower.upper) + 1e-15


def test_isolate_picks_largest_root():
    # roots 1, 2, 3: the interval must contain only 3
    f = IntPolynomial([-1, 1]) * IntPolynomial([-2, 1]) * IntPolynomial([-3, 1])
    interval = isolate_largest_real_root(f, Fraction(1, 100))
    assert interval.lower > Fraction(5, 2)
    assert interval.lower <= 3 <= interval.upper


def test_squarefree_part():
    f = IntPolynomial([-1, 1]) * IntPolynomial([-1, 1]) * IntPolynomial([0, 1])
    assert squarefree_part(f) == IntPolynomial([-1, 1]) * IntPolynomial([0, 1])


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


def test_parity_helpers():
    assert IntPolynomial([0, 1, 0, 2]).odd_terms_only()
    assert IntPolynomial([3, 0, -1]).even_terms_only()
    assert not IntPolynomial([1, 1]).odd_terms_only()


def test_arithmetic_basics():
    f = IntPolynomial([1, 2])
    g = IntPolynomial([-1, 1])
    assert f * g == IntPolynomial([-1, -1, 2])
    assert f + g == IntPolynomial([0, 3])
    assert (f * g).try_exact_divide(f) == g
    assert IntPolynomial([1, 1]).try_exact_divide(IntPolynomial([0, 2])) is None


def test_divisors_match_brute_force():
    assert divisors(0) == []
    assert prime_factors(0) == prime_factors(1) == []
    for n in range(1, 2001):
        assert divisors(n) == [k for k in range(1, n + 1) if n % k == 0]
        assert prime_factors(n) == [k for k in divisors(n) if len(divisors(k)) == 2]
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


def _bounds(interval):
    return interval.lower, interval.upper


@pytest.mark.parametrize("h", range(3, 71))
def test_refinement_matches_sturm_reference_on_cos_minpolys(h):
    # the isolation at the coarser width is compared whole; the finer
    # width continues the same bisection from there
    f = cos_two_pi_minpoly(2 * h)
    coarse, fine = _WIDTHS
    interval = isolate_largest_real_root(f, coarse)
    assert _bounds(interval) == reference.isolate_largest_real_root(f, coarse)
    expected = reference.refine(f, interval.lower, interval.upper, fine)
    assert _bounds(interval.refine(fine)) == expected


_ROOTS = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=4),
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
    f = IntPolynomial([1])
    for r in roots:
        f = f * IntPolynomial([-r.numerator, r.denominator])
    if quadratic is not None:
        f = f * IntPolynomial([quadratic[1], quadratic[0], 1])
    for width in _WIDTHS:
        interval = isolate_largest_real_root(f, width)
        assert _bounds(interval) == reference.isolate_largest_real_root(f, width)
    start = isolate_largest_real_root(f, Fraction(1, 4))
    for width in _WIDTHS:
        expected = reference.refine(f, start.lower, start.upper, width)
        assert _bounds(start.refine(width)) == expected
        # built directly, the interval computes its squarefree part itself
        direct = RootInterval(f, start.lower, start.upper)
        assert _bounds(direct.refine(width)) == expected


@settings(max_examples=100, deadline=None)
@given(roots=_ROOTS, quadratic=_QUADRATICS)
# Fujiwara's bound is attained: 1 for x - 1, 16 for x + 16
@example(roots=[Fraction(1)], quadratic=None)
@example(roots=[Fraction(-16)], quadratic=None)
def test_root_bound_is_a_power_of_two_above_every_real_root(roots, quadratic):
    f = IntPolynomial([1])
    for r in roots:
        f = f * IntPolynomial([-r.numerator, r.denominator])
    if quadratic is not None:
        f = f * IntPolynomial([quadratic[1], quadratic[0], 1])
    bound = root_bound(f)
    assert isinstance(bound, int) and bound > 0 and bound & (bound - 1) == 0
    assert all(-bound < r < bound for r in roots)
    if quadratic is not None and quadratic[0] ** 2 - 4 * quadratic[1] > 0:
        # both real roots of x^2 + bx + c lie strictly inside (-B, B)
        # when it is positive at both ends and its vertex lies between
        b, c = quadratic
        assert bound**2 + b * bound + c > 0 and bound**2 - b * bound + c > 0
        assert -2 * bound < b < 2 * bound


def test_isolation_starts_from_the_power_of_two_bound(monkeypatch):
    # Psi_502 = minimal polynomial of 2cos(2pi/502): its roots lie in
    # (-2, 2), its coefficients reach 1.1 * 10^25, and the bound is 32, so the
    # shrink loop evaluates the chain 18 times (94 from Cauchy's bound)
    f = cos_two_pi_minpoly(502)
    assert root_bound(f) == 32
    calls = []
    original = polynomials.sign_variations

    def counted(chain, x):
        calls.append(x)
        return original(chain, x)

    monkeypatch.setattr(polynomials, "sign_variations", counted)
    isolate_largest_real_root(f, Fraction(1, 2**30))
    assert len(calls) <= 20


_MULTIPLICITIES = st.lists(st.integers(1, 3), min_size=5, max_size=5)


@settings(max_examples=60, deadline=None)
@given(roots=_ROOTS, multiplicities=_MULTIPLICITIES, quadratic=_QUADRATICS)
# the squarefree part x(x - 5) has its double root 0 at the first midpoint
@example(roots=[Fraction(0), Fraction(5)], multiplicities=[2, 1, 1, 1, 1], quadratic=None)
def test_isolation_matches_sturm_reference_on_repeated_roots(roots, multiplicities, quadratic):
    f = IntPolynomial([1])
    for r, k in zip(roots, multiplicities):
        for _ in range(k):
            f = f * IntPolynomial([-r.numerator, r.denominator])
    if quadratic is not None:
        q = IntPolynomial([quadratic[1], quadratic[0], 1])
        f = f * q * q
    for width in _WIDTHS:
        interval = isolate_largest_real_root(f, width)
        assert _bounds(interval) == reference.isolate_largest_real_root(f, width)


@pytest.mark.parametrize("h", (5, 18, 30, 37, 64))
def test_isolation_takes_one_remainder_sequence(monkeypatch, h):
    # gcd(f, f') is read off f's own Sturm chain, so isolating f runs no
    # remainder sequence besides that chain's
    f = minpoly_two_cos(h)
    expected = len(sturm_chain(f)) - 1
    calls = []
    original = polynomials.pseudo_divmod

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polynomials, "pseudo_divmod", counted)
    isolate_largest_real_root(f, Fraction(1, 2**30))
    assert len(calls) == expected


def test_refinement_midpoint_on_a_rational_root():
    # roots 0 and 3/4; (0, 1] isolates 3/4, and the second midpoint is 3/4
    f = IntPolynomial([0, 1]) * IntPolynomial([-3, 4])
    refined = RootInterval(f, 0, 1).refine(Fraction(1, 2**30))
    assert refined.is_exact and refined.lower == Fraction(3, 4)
    assert _bounds(refined) == reference.refine(f, 0, 1, Fraction(1, 2**30))


def test_refinement_of_an_interval_whose_upper_end_is_the_root():
    # roots -1, 1, 2; (3/2, 2] isolates 2 at its upper end.  The Sturm
    # count on (mid, 2] keeps finding it, so the reference closes in on 2
    # from below; refinement by signs returns it exactly.
    f = IntPolynomial([-2, 1]) * IntPolynomial([-1, 0, 1])
    refined = RootInterval(f, Fraction(3, 2), 2).refine(Fraction(1, 2**30))
    assert refined.is_exact and refined.lower == 2
    lo, hi = reference.refine(f, Fraction(3, 2), 2, Fraction(1, 2**30))
    assert hi == 2 and hi - lo <= Fraction(1, 2**30)


def test_no_sturm_chain_after_isolation(monkeypatch):
    from veechfib.thurston_veech import build_surface

    calls = []
    original = polynomials.sign_variations

    def counted(chain, x):
        calls.append(x)
        return original(chain, x)

    monkeypatch.setattr(polynomials, "sign_variations", counted)
    isolate_largest_real_root(cos_two_pi_minpoly(118))
    assert calls
    build_surface.cache_clear()
    model = build_surface("polygon-59")
    calls.clear()
    model.mu.field.root.refine(Fraction(1, 10**40))
    mu = model.mu
    elements = [mu**k - (k + 1) for k in range(1, 11)] + [k - mu for k in range(1, 11)]
    assert len({e.sign() for e in elements}) == 2
    assert calls == []


def test_isolation_evaluates_the_chain_once_per_point(monkeypatch):
    # the shrink loop keeps the counts at both ends of its interval, so
    # no point is evaluated twice
    calls = []
    original = polynomials.sign_variations

    def counted(chain, x):
        calls.append(Fraction(x))
        return original(chain, x)

    monkeypatch.setattr(polynomials, "sign_variations", counted)
    for n in (128, 202):
        calls.clear()
        isolate_largest_real_root(cos_two_pi_minpoly(n))
        assert len(calls) > 2
        assert len(set(calls)) == len(calls)


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
    members = [f.coefficients, f.derivative().coefficients]
    while True:
        rem = fraction_reference.remainder(members[-2], members[-1])
        if not rem:
            break
        members.append(tuple(-c for c in rem))
    chain = sturm_chain(f)
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
        isolate_largest_real_root([coeff, 1])
    with pytest.raises(InvalidArgumentError):
        congruence_degree([coeff, 0, 1], 3, 2, True)
    assert IntPolynomial([Fraction(-4, 2), True]) == IntPolynomial([-2, 1])


def test_exact_divide_by_zero_polynomial_is_typed():
    with pytest.raises(DivisionByZeroError) as err:
        IntPolynomial([1, 1]).try_exact_divide(IntPolynomial())
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
    reference_gcd = fraction_reference.gcd(a.coefficients, a.derivative().coefficients)
    assert _monic(sturm_chain(a)[-1]) == reference_gcd
    sf = squarefree_part(a)
    assert sf.content() == 1 and sf.leading_coefficient > 0
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
    assert h.try_exact_divide(divisor) == (IntPolynomial(q) if integral else None)
