import fractions
import inspect
import math
import re
import signal
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closed_forms_reference
import prototype_reference as reference
from alpha_reference import family_alpha_polynomial
from test_family_golden import sweep
from veechfib.errors import (
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    InvalidDiscriminantError,
    MathematicalInconsistencyError,
    MissingCurveDataError,
    SpinRequiredError,
    UnsupportedFamilyError,
    VeechFibError,
)
from veechfib import cli, covers, families, prototypes, thurston_veech
from veechfib.families import (
    MAX_ELLIPTIC_M,
    MAX_PRIME_BOUND,
    MAX_SCATTER_D,
    CurveDataTable,
    ExternalCurveData,
    admissible_primes,
    chern_scatter,
    elliptic_family,
    is_fundamental_discriminant,
    polygon_family,
    principal_congruence_index,
    real_quadratic_zeta_minus_one,
    sporadic_family,
    weierstrass_family,
)
from veechfib.invariants import kappa_mu
from veechfib.prototypes import standard_parameters, weierstrass_alpha
from veechfib.exact.finitefield import (
    check_odd_prime, is_irreducible_mod_p, is_prime, is_quadratic_nonresidue
)
from veechfib.exact.polynomials import IntPolynomial, cos_two_pi_minpoly, small_divisors
from veechfib.tags import capped_surface_tag, check_polygon_n
from veechfib.thurston_veech import build_surface, surface_tag


def test_weierstrass_double_pentagon_headline():
    result = weierstrass_family(5, 3)
    assert result.cover.degree == 60
    assert result.cover.base_genus == 0
    assert result.cover.cusp_count == 20
    assert result.cover.total_twisting == 120
    inv = result.invariants
    assert inv.euler == 116
    assert inv.sigma == -72
    assert inv.c1_squared == 16
    assert inv.chi_holomorphic == 11
    assert inv.geometric_genus == 10
    assert inv.noether_line
    assert inv.zero_section_self_intersections == (Fraction(-3),)
    assert inv.kodaira_tag == "minimal-general-type"
    assert result.cover.exceptional


def test_weierstrass_d8_matches_octagon_prototype_data():
    result = weierstrass_family(8, 5)
    d = result.cover.degree
    assert d == 25 * 624 // 2
    # prototypes (1,1,0,-2) and (2,1,0,0): twists 2 and 3
    assert result.cover.total_twisting == 5 * d
    assert result.cover.cusp_count == 2 * d // 5
    assert result.invariants.sigma == -3 * d


def test_weierstrass_closed_forms_agree_with_pipeline():
    for d_disc, p in ((5, 7), (8, 5), (12, 5), (13, 5), (13, 7), (13, 11)):
        result = weierstrass_family(d_disc, p)
        forms = result.closed_forms
        assert forms["genus"] == result.cover.base_genus
        assert forms["cusps"] == result.cover.cusp_count
        assert forms["twisting"] == result.cover.total_twisting
        assert forms["euler"] == result.invariants.euler
        assert forms["sigma"] == result.invariants.sigma


def test_weierstrass_sigma_over_degree_level_independent():
    ratios = set()
    for p in (5, 7, 11):
        result = weierstrass_family(13, p)
        ratios.add(Fraction(result.invariants.sigma, result.cover.degree))
    assert len(ratios) == 1


def test_weierstrass_inadmissible_prime():
    with pytest.raises(InadmissiblePrimeError):
        weierstrass_family(5, 11)  # 5 = 4^2 mod 11


def test_weierstrass_level3_octagon_surfaces_inconsistency():
    # the exceptional degree leaves a non-integral genus: flagged, not hidden
    with pytest.raises(InconsistentCoverError):
        weierstrass_family(8, 3)


def test_weierstrass_spin_discriminant_needs_filter():
    with pytest.raises(SpinRequiredError):
        weierstrass_family(17, 3)


@pytest.mark.parametrize(
    "d_disc, p, error",
    [
        # a residue (96 = 1 mod 5) or a ramified level (5 | 45) is refused
        # before the missing curve data of these non-fundamental D
        (96, 5, InadmissiblePrimeError),
        (45, 5, InadmissiblePrimeError),
        (45, 7, MissingCurveDataError),
        (32, 5, MissingCurveDataError),
        # the spin filter is asked for before the level is looked at
        (33, 3, SpinRequiredError),
        (41, 5, SpinRequiredError),
        (4, 3, InvalidDiscriminantError),
        # a level that is not an odd prime is refused before d % p,
        # after the discriminant and spin checks
        (5, 0, InvalidArgumentError),
        (5, 1, InvalidArgumentError),
        (5, 2, InvalidArgumentError),
        (5, -3, InvalidArgumentError),
        (5, 9, InvalidArgumentError),
        (4, 0, InvalidDiscriminantError),
        (41, 0, SpinRequiredError),
    ],
)
def test_weierstrass_error_precedence(d_disc, p, error):
    with pytest.raises(error):
        weierstrass_family(d_disc, p)


def test_weierstrass_tests_irreducibility_once(monkeypatch):
    # congruence_degree is the one irreducibility test on the level;
    # weierstrass_family adds only Euler's criterion
    calls = []

    def counting(f, p):
        calls.append(p)
        return is_irreducible_mod_p(f, p)

    monkeypatch.setattr(families, "is_irreducible_mod_p", counting)
    monkeypatch.setattr(covers, "is_irreducible_mod_p", counting)
    weierstrass_family(13, 5)
    assert calls == [5]
    with pytest.raises(InadmissiblePrimeError, match="D = 5 is a quadratic residue mod 11"):
        weierstrass_family(5, 11)
    assert calls == [5, 11]


def test_model_tags_decide_levels_without_rabin(monkeypatch):
    # a model tag's level is decided from its Coxeter number alone, at
    # admitted and refused levels alike; Rabin's test is never run
    calls = []

    def counting(f, p):
        calls.append(p)
        return is_irreducible_mod_p(f, p)

    for module in (families, covers, thurston_veech):
        monkeypatch.setattr(module, "is_irreducible_mod_p", counting)
    for n, p in ((5, 3), (5, 5), (7, 13), (8, 7), (16, 5), (22, 3)):
        try:
            polygon_family(n, p)
        except InadmissiblePrimeError:
            pass
    for which, p in (("E7", 5), ("E7", 3), ("E8", 7), ("E8", 3)):
        try:
            sporadic_family(which, p)
        except InadmissiblePrimeError:
            pass
    assert admissible_primes("polygon-64", 200)
    assert admissible_primes("E8", 100)
    assert calls == []


@pytest.mark.parametrize("d_disc, p", [(13, 5), (5, 11)])
def test_weierstrass_compares_the_residue_route(monkeypatch, d_disc, p):
    # an admitted (13 at 5) and a refused (5 at 11) level: Euler's
    # criterion answering the other way is reported, not trusted
    original = families.is_quadratic_nonresidue
    monkeypatch.setattr(families, "is_quadratic_nonresidue", lambda d, q: not original(d, q))
    with pytest.raises(InvalidArgumentError, match="^residue test disagrees with irreducibility$"):
        weierstrass_family(d_disc, p)


def test_chern_scatter_reports_a_disagreeing_irreducibility_test(monkeypatch):
    # past the Euler pre-check a wrong Rabin answer on an unramified D is
    # the disagreement weierstrass_family raises, not a residue to skip
    original = covers.is_irreducible_mod_p
    monkeypatch.setattr(covers, "is_irreducible_mod_p", lambda f, q: not original(f, q))
    with pytest.raises(InvalidArgumentError, match="^residue test disagrees with irreducibility$"):
        chern_scatter(5, 60, 5)


def test_admissible_primes_reads_exceptional_from_the_level_decision(monkeypatch):
    original = families.congruence_degree

    def exceptional_at_5(m_alpha, p, genus, contains_minus_i, coxeter_number=None):
        result = original(m_alpha, p, genus, contains_minus_i, coxeter_number=coxeter_number)
        return result._replace(exceptional=True) if p == 5 else result

    monkeypatch.setattr(families, "congruence_degree", exceptional_at_5)
    assert admissible_primes("polygon-7", 12) == [(3, False), (5, True), (11, False)]


def test_weierstrass_spin_filter_runs_only_after_level_and_chi():
    calls = []

    def keep_all(proto):
        calls.append(proto)
        return True

    with pytest.raises(InadmissiblePrimeError):
        weierstrass_family(17, 13, spin_filter=keep_all)  # 17 = 2^2 mod 13
    with pytest.raises(MissingCurveDataError):
        weierstrass_family(17, 5, spin_filter=keep_all)
    assert calls == []
    data = CurveDataTable([ExternalCurveData(17, Fraction(-3, 2))])
    result = weierstrass_family(17, 5, data=data, spin_filter=keep_all)
    assert len(calls) == result.checks["prototype_count"] == 6


def test_weierstrass_alpha_polynomial_needs_no_spin_filter():
    for d_disc in (5, 8, 13, 17, 33, 41, 1000):
        w, e = standard_parameters(d_disc)
        assert family_alpha_polynomial(f"weierstrass-{d_disc}") == (
            weierstrass_alpha(w, e),
            2,
        )
    with pytest.raises(InvalidDiscriminantError):
        family_alpha_polynomial("weierstrass-9")
    assert admissible_primes("weierstrass-17", 20) == [
        (3, True), (5, False), (7, False), (11, False)
    ]


def test_weierstrass_genus_positivity_check():
    for d_disc, p in ((12, 5), (13, 5), (21, 11), (24, 7)):
        result = weierstrass_family(d_disc, p)
        assert result.checks.get("genus_positivity") is True


def test_polygon_pentagon_level3():
    result = polygon_family(5, 3)
    assert result.cover.degree == 60
    assert result.invariants.euler == 116
    assert result.invariants.sigma == -72
    assert result.invariants.kodaira_tag == "minimal-general-type"


def test_polygon_heptagon_level3():
    result = polygon_family(7, 3)
    assert result.cover.degree == 9828
    assert result.cover.base_genus == 118
    assert result.cover.cusp_count == 3276
    assert result.invariants.euler == 30420
    assert result.invariants.sigma == -16848


def test_polygon_octagon_twisting_and_table():
    result = polygon_family(8, 5)
    d = result.cover.degree
    assert result.cover.total_twisting == 4 * d  # 2dg with g = 2
    forms = result.closed_forms
    assert forms["sigma"] == result.invariants.sigma == -d * 7 // 3
    assert forms["euler"] == result.invariants.euler


def _twisted_polygon(n, twists):
    """polygon-n's model rebuilt through _checked_model from its own rows,
    with the twist count of each cylinder named in twists."""
    model = build_surface(f"polygon-{n}")
    rows = [
        (c.name, c.direction, c.height, twists.get(c.name, c.twist_count), c.height_lift)
        for c in model.cylinders
    ]
    return thurston_veech._checked_model(
        model.family_tag, model.graph, model.mu, rows, model.coxeter_number,
        model.zero_partition, "c_1",
    )


# the levels whose tabulated sigma the pipeline misses (test_acceptance's
# failing test_c3_polygon_pipeline_matches_tables rows)
SIGMA_ROWS = [
    (10, 3), (10, 7), (10, 13), (14, 3), (14, 5), (14, 11),
    (22, 3), (22, 5), (22, 7), (22, 13), (26, 7), (26, 11),
]


@pytest.mark.parametrize("n,p", SIGMA_ROWS)
def test_a_second_twist_on_the_middle_cylinder_adds_d_to_t(n, p, monkeypatch):
    # the twist is stated once, on the build row: a twist count of 2 on
    # c_(n/2) halves its circumference, closes its gluing, and reaches T
    # through model_spec alone, T + d and the corrected sigma = -d(q + 1)^2/(2q)
    before = polygon_family(n, p)
    model = _twisted_polygon(n, {f"c_{n // 2}": 2})
    middle = next(c for c in model.cylinders if c.name == f"c_{n // 2}")
    assert middle.circumference + middle.circumference == middle.height.times_generator()
    assert thurston_veech.gluing_check(model) == []
    monkeypatch.setattr(families, "build_surface", lambda tag: model)
    after = polygon_family(n, p)
    d, q = after.cover.degree, n // 2
    assert d == before.cover.degree
    assert after.cover.total_twisting == before.cover.total_twisting + d
    assert after.invariants.sigma == Fraction(-d * (q + 1) ** 2, 2 * q)
    if (n, p) == (10, 3):
        assert (before.cover.total_twisting, before.invariants.sigma) == (300, -176)
        assert (after.cover.total_twisting, after.invariants.sigma) == (360, -216)
    if (n, p) == (14, 5):
        assert after.invariants.sigma == -4_464_000


def test_a_second_middle_twist_leaves_the_holonomy_lattice_at_n_2_to_the_k():
    # pinned as found: on n = 2^k the middle cylinder is horizontal, and
    # mu h / 2 leaves the Z[alpha] (alpha, 0) lattice, so the corrected
    # model fails the holonomy check there; on n = 2q it passes
    for n in (8, 16, 32):
        model = _twisted_polygon(n, {f"c_{n // 2}": 2})
        assert model.horizontal[-1].name == f"c_{n // 2}"
        assert thurston_veech.holonomy_basis_check(model) is False, n
        assert thurston_veech.gluing_check(model) == [], n
    for n in (10, 14, 22, 26):
        assert thurston_veech.holonomy_basis_check(_twisted_polygon(n, {f"c_{n // 2}": 2})), n


def test_model_spec_refuses_a_model_whose_checks_fail_and_checks_it_once(monkeypatch):
    # the octagon with a second middle twist fails the holonomy check:
    # model_spec refuses it on every call, from the one memo entry
    model = _twisted_polygon(8, {"c_4": 2})
    calls = []
    original = families.holonomy_basis_check
    monkeypatch.setattr(families, "build_surface", lambda tag: model)
    monkeypatch.setattr(
        families, "holonomy_basis_check", lambda m: calls.append(m) or original(m)
    )
    for _ in range(2):
        with pytest.raises(MathematicalInconsistencyError, match="'holonomy_basis': False"):
            polygon_family(8, 5)
    assert calls == [model] and model.memo.keys() == {"model_spec"}


def test_each_cusp_class_sums_the_twist_counts_of_its_direction():
    # model_spec reads each cusp's twist off the cylinders; every build row
    # states twist 1 today, so the sum is also the cylinder count
    for tag, h in _supported_tags(256):
        spec, model, _ = families.model_spec(tag)
        sides = (model.horizontal,) if h % 2 else (model.horizontal, model.vertical)
        assert spec.cusp_classes == tuple(
            (sum(c.twist_count for c in side), 1) for side in sides
        ), tag
        assert spec.cusp_classes == tuple((len(side), 1) for side in sides), tag


def test_polygon_8_3_inconsistency_is_surfaced():
    with pytest.raises(InconsistentCoverError):
        polygon_family(8, 3)


def test_polygon_rejects_unsupported_n():
    with pytest.raises(UnsupportedFamilyError):
        polygon_family(6, 5)


def test_polygon_doubled_pentagon_table_sigma_disagrees_with_formula():
    """The tabulated closed form for sigma in the n = 2q series is the
    value obtained by doubling kappa; the signature formula applied to
    the fiber's actual zero data gives a different number.  Both are
    computed; this pins the size of the gap so any change is noticed."""
    result = polygon_family(10, 7)
    forms = result.closed_forms
    d = result.cover.degree
    assert forms["genus"] == result.cover.base_genus
    assert forms["cusps"] == result.cover.cusp_count
    assert forms["twisting"] == result.cover.total_twisting
    assert forms["euler"] == result.invariants.euler
    # pipeline: -2 kappa chi(B) - (2/3) T with kappa((1,1)) = 1/4
    chi_base = 2 - 2 * result.cover.base_genus - result.cover.cusp_count
    expected = -2 * kappa_mu((1, 1)) * chi_base - Fraction(2, 3) * result.cover.total_twisting
    assert result.invariants.sigma == expected == -Fraction(44, 15) * d
    assert forms["sigma"] == -Fraction(38, 15) * d
    gap = result.invariants.sigma - forms["sigma"]
    assert gap == 2 * kappa_mu((1, 1)) * chi_base  # exactly one extra kappa term


def test_sporadic_constants():
    for which, ratio in (("E7", Fraction(-35, 9)), ("E8", Fraction(-64, 15))):
        primes = [p for p, _ in admissible_primes(which, 13)][:2]
        assert len(primes) >= 2
        for p in primes:
            result = sporadic_family(which, p)
            assert Fraction(result.invariants.sigma, result.cover.degree) == ratio
            forms = result.closed_forms
            assert forms["sigma"] == result.invariants.sigma
            assert forms["euler"] == result.invariants.euler
            assert forms["genus"] == result.cover.base_genus
            assert forms["cusps"] == result.cover.cusp_count
            assert forms["twisting"] == result.cover.total_twisting


_ODD_PRIMES = st.integers(3, 400).filter(is_prime) | st.sampled_from((10007, 1000003))
_DEGREES = st.integers(1, 10**6) | st.integers(1, 10**30)


def _same_forms(got, want):
    # key by key, each value with its type: an int stays an int
    assert list(got) == list(want)
    for key in want:
        assert (key, got[key], type(got[key])) == (key, want[key], type(want[key]))


@given(
    st.integers(5, 300).filter(is_prime).flatmap(lambda q: st.sampled_from((q, 2 * q)))
    | st.integers(3, 12).map(lambda k: 2**k),
    _ODD_PRIMES,
    _DEGREES,
)
@example(5, 3, 60)
@example(10, 7, 58800)
@example(8, 3, 12)
@settings(max_examples=300, deadline=None)
def test_polygon_closed_forms_match_the_fraction_reference(n, p, degree):
    _same_forms(
        families.closed_forms_polygon(n, p, degree),
        closed_forms_reference.closed_forms_polygon(n, p, degree),
    )


@given(st.sampled_from(("E7", "E8", "e7", "e8")), _ODD_PRIMES, _DEGREES)
@settings(max_examples=150, deadline=None)
def test_sporadic_closed_forms_match_the_fraction_reference(which, p, degree):
    _same_forms(
        families.closed_forms_sporadic(which, p, degree),
        closed_forms_reference.closed_forms_sporadic(which, p, degree),
    )


@given(
    _ODD_PRIMES,
    _DEGREES,
    st.fractions(max_denominator=10**6),
    st.lists(st.tuples(st.integers(1, 50), st.integers(1, 6)), max_size=20).map(tuple),
)
@example(3, 60, Fraction(-3, 10), ((2, 1),))
@settings(max_examples=300, deadline=None)
def test_weierstrass_closed_forms_match_the_fraction_reference(p, degree, chi, classes):
    # the library reads the (twist, multiplicity) classes, the reference
    # one twist per prototype
    _same_forms(
        families.closed_forms_weierstrass(p, degree, chi, classes),
        closed_forms_reference.closed_forms_weierstrass(
            p, degree, chi, covers.expand_classes(classes)
        ),
    )


def test_closed_forms_refuse_the_tags_the_pipeline_refuses():
    # E6 used to get E8's forms; n = 9 and n = 12 used to get numbers
    with pytest.raises(UnsupportedFamilyError, match="^unknown family tag: 'E6'$"):
        families.closed_forms_sporadic("E6", 7, 100)
    for n in (9, 12):
        with pytest.raises(UnsupportedFamilyError, match=f"regular {n}-gon is not in the supported"):
            families.closed_forms_polygon(n, 7, 100)
    # one rule: the closed forms refuse exactly the n that surface_tag
    # refuses; a negative n makes no tag, so polygon_family's gate decides it
    for n in range(-2, 300):
        try:
            surface_tag(f"polygon-{n}") if n >= 0 else polygon_family(n, 7)
        except UnsupportedFamilyError as exc:
            with pytest.raises(UnsupportedFamilyError, match=f"^{re.escape(str(exc))}$"):
                families.closed_forms_polygon(n, 7, 100)
        else:
            families.closed_forms_polygon(n, 7, 100)


_NOT_ODD_PRIMES = (0, 1, 2, 9, -3, 3.0, True)

# every entry that takes a level p, called with one that is not an odd prime
_LEVEL_CALLS = {
    "check_odd_prime": check_odd_prime,
    "is_quadratic_nonresidue": lambda p: is_quadratic_nonresidue(5, p),
    "congruence_degree": lambda p: covers.congruence_degree(
        family_alpha_polynomial("polygon-7")[0], p, 3, True
    ),
    "congruence_degree_with_h": lambda p: covers.congruence_degree(
        family_alpha_polynomial("polygon-7")[0], p, 3, True, coxeter_number=7
    ),
    "chern_scatter": lambda p: chern_scatter(5, 30, p),
    "polygon_family": lambda p: polygon_family(7, p),
    "sporadic_family": lambda p: sporadic_family("E7", p),
    "weierstrass_family": lambda p: weierstrass_family(5, p),
    "closed_forms_polygon": lambda p: families.closed_forms_polygon(5, p, 60),
    "closed_forms_sporadic": lambda p: families.closed_forms_sporadic("E7", p, 60),
    "closed_forms_weierstrass": lambda p: families.closed_forms_weierstrass(
        p, 60, Fraction(-3, 10), ((2, 1),)
    ),
}


@pytest.mark.parametrize("p", _NOT_ODD_PRIMES, ids=repr)
@pytest.mark.parametrize("name", sorted(_LEVEL_CALLS))
def test_a_level_that_is_not_an_odd_prime_is_refused_by_one_gate(name, p):
    # is_prime(3.0) is True, so 3.0 used to end in a TypeError; p = 0
    # made the closed forms divide by zero, and p = -3 gave the pentagon
    # -20 cusps
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(p))} is not an odd prime$"):
        _LEVEL_CALLS[name](p)


# every size argument that is not an int: each but the bool D window used
# to end in a TypeError, and chern_scatter(5, True, 5) returned ([], [])
_SIZE_CALLS = {
    "closed_forms_polygon n": lambda: families.closed_forms_polygon(5.0, 3, 60),
    "admissible_primes bound": lambda: admissible_primes("polygon-7", 30.0),
    "chern_scatter max D": lambda: chern_scatter(5, 30.0, 5),
    "chern_scatter min D": lambda: chern_scatter(5.0, 30, 5),
    "chern_scatter bool max D": lambda: chern_scatter(5, True, 5),
    "weierstrass_family D": lambda: weierstrass_family(8.0, 3),
    "elliptic_family m": lambda: elliptic_family(3.0),
}


@pytest.mark.parametrize("name", sorted(_SIZE_CALLS))
def test_a_size_argument_that_is_not_an_int_is_refused_by_one_gate(name):
    with pytest.raises(InvalidArgumentError, match=" must be an int, not "):
        _SIZE_CALLS[name]()


# the rest of the size arguments: zeta and chi on 5.0 and on a float past
# the pinned values ended in a TypeError from range, as did a float degree
# from Fraction, and principal_congruence_index(3.0) returned 12.0
_MORE_SIZE_REFUSALS = {
    "real_quadratic_zeta_minus_one D": (
        lambda: real_quadratic_zeta_minus_one(5.0), "D must be an int, not 5.0"
    ),
    "chi D": (lambda: CurveDataTable().chi(5.0), "D must be an int, not 5.0"),
    "chi D past the pinned values": (
        lambda: CurveDataTable().chi(12.0), "D must be an int, not 12.0"
    ),
    "closed_forms_polygon degree": (
        lambda: families.closed_forms_polygon(5, 3, 60.0), "degree must be an int, not 60.0"
    ),
    "principal_congruence_index m": (
        lambda: principal_congruence_index(3.0), "level m must be an int, not 3.0"
    ),
    "principal_congruence_index bool m": (
        lambda: principal_congruence_index(True), "level m must be an int, not True"
    ),
}


@pytest.mark.parametrize("name", sorted(_MORE_SIZE_REFUSALS))
def test_every_other_size_argument_passes_the_same_gate(name):
    call, message = _MORE_SIZE_REFUSALS[name]
    with pytest.raises(InvalidArgumentError) as refusal:
        call()
    assert type(refusal.value) is InvalidArgumentError
    assert str(refusal.value) == message


# a tag that is not a str, and an n or a D that is not an int: each used
# to end in an AttributeError or a TypeError, and polygon_family("5", 3)
# built the pentagon
_TYPED_REFUSALS = {
    "sporadic_family int tag": (
        lambda: sporadic_family(7, 5), UnsupportedFamilyError, "family tag must be a str, not 7"
    ),
    "sporadic_family bytes tag": (
        lambda: sporadic_family(b"E7", 5),
        UnsupportedFamilyError,
        "family tag must be a str, not b'E7'",
    ),
    "admissible_primes int tag": (
        lambda: admissible_primes(7, 10), UnsupportedFamilyError, "family tag must be a str, not 7"
    ),
    "build_surface int tag": (
        lambda: build_surface(8), UnsupportedFamilyError, "family tag must be a str, not 8"
    ),
    "model_spec tuple tag": (
        lambda: families.model_spec(("E7",)),
        UnsupportedFamilyError,
        "family tag must be a str, not ('E7',)",
    ),
    "capped_surface_tag None": (
        lambda: capped_surface_tag(None),
        UnsupportedFamilyError,
        "family tag must be a str, not None",
    ),
    "closed_forms_sporadic int tag": (
        lambda: families.closed_forms_sporadic(7, 5, 60),
        UnsupportedFamilyError,
        "family tag must be a str, not 7",
    ),
    "polygon_family float n": (
        lambda: polygon_family(5.0, 3), InvalidArgumentError, "n must be an int, not 5.0"
    ),
    "polygon_family bool n": (
        lambda: polygon_family(True, 3), InvalidArgumentError, "n must be an int, not True"
    ),
    "polygon_family str n": (
        lambda: polygon_family("5", 3), InvalidArgumentError, "n must be an int, not '5'"
    ),
    "enumerate_prototypes str D": (
        lambda: prototypes.enumerate_prototypes("5"),
        InvalidArgumentError,
        "D must be an int, not '5'",
    ),
}


@pytest.mark.parametrize("name", sorted(_TYPED_REFUSALS))
def test_a_tag_that_is_not_a_str_and_an_n_or_d_that_is_not_an_int_are_refused_typed(name):
    call, error, message = _TYPED_REFUSALS[name]
    with pytest.raises(VeechFibError) as refusal:
        call()
    assert type(refusal.value) is error
    assert str(refusal.value) == message


def test_m_alpha_is_read_off_the_coxeter_number_not_a_second_tag_parse(monkeypatch):
    # each model path parses its tag once per layer that needs it: the
    # pipeline's model_spec and build_surface, a sporadic request's check
    # that the tag is E7 or E8 when it is not already canonical, and
    # admissible_primes once
    parsed = []
    surface_tag = thurston_veech.surface_tag

    def counted(tag):
        parsed.append(tag)
        return surface_tag(tag)

    for module in ("veechfib.tags", "veechfib.thurston_veech"):
        monkeypatch.setattr(f"{module}.surface_tag", counted)

    def parses(call, *args):
        build_surface.cache_clear()
        parsed.clear()
        call(*args)
        return len(parsed)

    assert parses(polygon_family, 7, 3) == 2
    assert parses(sporadic_family, "E7", 5) == 2
    assert parses(sporadic_family, " e7 ", 5) == 3
    assert parses(admissible_primes, "polygon-7", 40) == 1


def _fractions_made(call, *args):
    """Fractions a call makes: calls of Fraction.__new__, and on Pythons
    whose Fraction arithmetic bypasses it, of Fraction._from_coprime_ints."""
    codes = {fractions.Fraction.__new__.__code__}
    bypass = getattr(fractions.Fraction, "_from_coprime_ints", None)
    if bypass is not None:
        codes.add(bypass.__func__.__code__)
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize(
    "call, args, made",
    [
        # chi_orb; kappa, the BMY slack, one section; genus, cusps, e, sigma
        (polygon_family, (17, 3), 8),
        (sporadic_family, ("E8", 7), 8),
        # zeta(-1) and chi = -9 zeta; kappa, slack, section; five closed forms
        (weierstrass_family, (4021, 7), 10),
    ],
)
def test_a_warm_level_builds_each_rational_once(call, args, made):
    call(*args)  # warm: the model, its spec and its structural checks
    assert _fractions_made(call, *args) == made


def test_sporadic_family_takes_only_e7_and_e8_in_any_case():
    assert sporadic_family(" e8 ", 7).to_json() == sporadic_family("E8", 7).to_json()
    forms = families.closed_forms_sporadic
    assert forms(" E7 ", 5, 60) == forms("E7", 5, 60)
    with pytest.raises(UnsupportedFamilyError, match="must be E7 or E8, not 'polygon-5'"):
        sporadic_family("polygon-5", 3)
    with pytest.raises(UnsupportedFamilyError, match="unknown family tag: 'E6'"):
        sporadic_family("E6", 3)


def test_evaluate_is_the_one_family_tail():
    # no options: the Kodaira inputs and the BMY rule are evaluate's own
    params = inspect.signature(families.evaluate).parameters.values()
    assert inspect.Parameter.VAR_KEYWORD not in {param.kind for param in params}
    spec, _, checks = families.model_spec("polygon-7")
    degree_data = covers.congruence_degree(
        spec.alpha_minimal_polynomial, 3, spec.fiber_genus, spec.contains_minus_identity
    )
    forms = {"degree": degree_data.degree}
    chi_orb = spec.signature_orbifold.euler_characteristic
    result = families.evaluate(spec, 3, degree_data, chi_orb, checks, forms)
    assert result.closed_forms is forms and result.checks is checks
    # over the golden sweep: the proven minimal members over a genus-0 base,
    # and bmy_sufficient set for genus >= 2 over a base of genus >= 1 only
    minimal = set()
    for key, call in sweep():
        try:
            row = call()
        except VeechFibError:
            continue
        genus_0 = row.cover.base_genus == 0
        if genus_0 and row.invariants.kodaira_tag == "minimal-general-type":
            minimal.add(key)
        if key.startswith("elliptic-"):
            assert "bmy_sufficient" not in row.checks, key
        elif key.startswith("weierstrass-") and genus_0:
            assert row.checks["bmy_sufficient"] is None, key
        elif genus_0:
            assert "bmy_sufficient" not in row.checks, key
        else:
            assert isinstance(row.checks["bmy_sufficient"], bool), key
    assert minimal == {"weierstrass-5@3", "polygon-5@3"}


def test_sporadic_e7_level5():
    result = sporadic_family("E7", 5)
    d = result.cover.degree
    assert d == 1953000
    assert result.cover.cusp_count == 2 * d // 5
    assert result.cover.total_twisting == 7 * d
    assert result.invariants.euler == d * Fraction(95, 9) - d * Fraction(8, 5)
    assert result.invariants.sigma == -d * 35 // 9


def test_elliptic_series():
    expected = {
        3: (12, -8, "elliptic-rational-beauville", "E(1)"),
        4: (24, -16, "elliptic-k3", "E(2)"),
        5: (60, -40, "elliptic-proper", "E(5)"),
    }
    for m, (e, sigma, tag, smooth) in expected.items():
        result = elliptic_family(m)
        assert result.invariants.euler == e
        assert result.invariants.sigma == sigma
        assert result.invariants.kodaira_tag == tag
        assert result.invariants.c1_squared == 0
        assert result.checks["smooth_4manifold"] == smooth


def test_elliptic_cusp_counts():
    assert principal_congruence_index(3) == 12
    assert principal_congruence_index(4) == 24
    assert principal_congruence_index(5) == 60
    assert elliptic_family(3).cover.cusp_count == 4
    assert elliptic_family(4).cover.cusp_count == 6
    assert elliptic_family(5).cover.cusp_count == 12
    assert elliptic_family(6).cover.base_genus == 1
    assert elliptic_family(7).cover.base_genus == 3


class _Factored(Exception):
    pass


def test_elliptic_level_past_the_size_cap_is_refused_before_factoring(monkeypatch):
    # a broken guard reaches prime_factors and fails at once instead of
    # trial-dividing up to sqrt(m)
    def refuse(n):
        raise _Factored(n)

    monkeypatch.setattr(families, "prime_factors", refuse)
    assert MAX_ELLIPTIC_M == 10**12
    for m in (10**12 + 1, 10**12 + 39, 1000000000000000003):
        with pytest.raises(CapExceededError, match="size cap"):
            elliptic_family(m)
    with pytest.raises(_Factored):
        elliptic_family(MAX_ELLIPTIC_M)


class _LevelTested(Exception):
    pass


def test_prime_bound_past_the_size_cap_is_refused_before_any_level(monkeypatch):
    # a broken guard reaches the m_alpha expansion or a level test and
    # fails at once instead of sweeping every odd prime up to the bound
    def refuse(*args):
        raise _LevelTested(args)

    monkeypatch.setattr(families, "coxeter_alpha_polynomial", refuse)
    monkeypatch.setattr(families, "weierstrass_alpha_polynomial", refuse)
    monkeypatch.setattr(families, "congruence_degree", refuse)
    assert MAX_PRIME_BOUND == 10**5
    for family in ("polygon-5", "weierstrass-5", "E8"):
        for bound in (10**5 + 1, 10**12):
            with pytest.raises(CapExceededError, match="size cap"):
                admissible_primes(family, bound)
        with pytest.raises(_LevelTested):
            admissible_primes(family, MAX_PRIME_BOUND)


class _Swept(Exception):
    pass


def test_scatter_past_the_size_cap_is_refused_before_the_sweep(monkeypatch):
    # a broken guard reaches the residue test of the first D and fails
    # at once instead of sweeping every discriminant up to max D
    def refuse(*args, **kwargs):
        raise _Swept(args)

    monkeypatch.setattr(families, "is_quadratic_nonresidue", refuse)
    monkeypatch.setattr(families, "weierstrass_family", refuse)
    assert MAX_SCATTER_D == 10**5
    for d_min, d_max in ((5, 10**5 + 1), (5, 10**11), (10**11, 10**11 + 8)):
        with pytest.raises(CapExceededError, match="size cap"):
            chern_scatter(d_min, d_max, 7)
    with pytest.raises(_Swept):
        chern_scatter(MAX_SCATTER_D - 20, MAX_SCATTER_D, 7)


def test_weierstrass_discriminant_past_the_size_cap_is_refused_first(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Divided(args)

    monkeypatch.setattr(families, "weierstrass_alpha_polynomial", refuse)
    for d in (10**7 + 12, 10**7 + 1, 10**12 + 5):
        with pytest.raises(CapExceededError, match="size cap"):
            weierstrass_family(d, 7)
    with pytest.raises(_Divided):
        weierstrass_family(10**7, 7)


def test_admissible_primes_examples():
    assert admissible_primes("weierstrass-5", 20) == [
        (3, True),
        (7, False),
        (13, False),
        (17, False),
    ]
    assert admissible_primes("polygon-7", 12) == [(3, False), (5, False), (11, False)]
    e8 = [p for p, _ in admissible_primes("E8", 13)]
    assert len(e8) >= 2



def _generates_units_mod_sign(p, h):
    """p is prime to h and its class generates (Z/h)* / {+-1}, the Galois
    group of Q(cos 2pi/h): the order of p there is phi(h)/2."""
    if h % p == 0:
        return False
    half_phi = sum(1 for k in range(1, h) if math.gcd(k, h) == 1) // 2
    order, x = 1, p % h
    while x not in (1, h - 1):
        x = x * p % h
        order += 1
    return order == half_phi


def _supported_tags(bound):
    for n in range(3, bound + 1):
        try:
            yield surface_tag(f"polygon-{n}")
        except UnsupportedFamilyError:
            pass
    yield from (("E7", 18), ("E8", 30))


def test_alpha_polynomial_matches_the_cyclotomic_shift_on_every_tag():
    # alpha = 2 + 2cos(2pi/h), so m_alpha is Psi_h(x - 2), shifted here by
    # Horner's rule: a second route to the parity rule on m_mu that
    # coxeter_alpha_polynomial applies, on every supported tag, with no model
    x_minus_2 = IntPolynomial([-2, 1])
    tags = list(_supported_tags(256))
    assert len(tags) == 89
    built = build_surface.cache_info()
    for tag, h in tags:
        psi = cos_two_pi_minpoly(h).coefficients
        shifted = IntPolynomial([psi[-1]])
        for c in reversed(psi[:-1]):
            shifted = shifted * x_minus_2 + IntPolynomial([c])
        assert family_alpha_polynomial(tag) == (shifted, shifted.degree), tag
    assert build_surface.cache_info() == built


def _assert_levels_match_the_galois_criterion(tags, bound):
    # m_alpha is irreducible mod p exactly when Frobenius at p generates
    # the Galois group of the trace field.  admissible_primes decides a
    # model tag's levels by that criterion; Rabin's test on m_alpha and
    # this test's own totient route check it
    odd_primes = [p for p in range(3, bound + 1, 2) if all(p % r for r in range(3, p, 2))]
    for tag, h in tags:
        m_alpha, genus = family_alpha_polynomial(tag)
        expected = [p for p in odd_primes if _generates_units_mod_sign(p, h)]
        assert [p for p in odd_primes if is_irreducible_mod_p(m_alpha, p)] == expected, tag
        assert admissible_primes(tag, bound) == [
            (p, (p, genus) == (3, 2)) for p in expected
        ], tag


def test_admissibility_matches_the_galois_criterion():
    tags = list(_supported_tags(128))
    assert len(tags) == 52
    _assert_levels_match_the_galois_criterion(tags, 97)


def test_admissibility_matches_the_galois_criterion_past_n_128():
    tags = [(tag, h) for tag, h in _supported_tags(256) if h > 128]
    assert len(tags) == 37
    _assert_levels_match_the_galois_criterion(tags, 31)


def _level_outcome(*args, **kwargs):
    try:
        return covers.congruence_degree(*args, **kwargs)
    except VeechFibError as exc:
        return type(exc), str(exc)


def test_congruence_degree_is_the_same_with_and_without_the_coxeter_number():
    # the criterion on h and Rabin's test on m_alpha give the same degree,
    # or the same error with the same message, at admitted and refused
    # levels, levels dividing h, the F_9 level and non-prime levels alike
    tags = ["polygon-5", "polygon-7", "polygon-8", "polygon-10", "polygon-14", "polygon-16",
            "polygon-22", "polygon-37", "polygon-64", "polygon-251", "E7", "E8"]
    levels = [-3, 1, 2, 9, 15] + [p for p in range(3, 62, 2) if all(p % r for r in range(3, p, 2))]
    outcomes, dividing_h = set(), set()
    for tag in tags:
        m_alpha, genus = family_alpha_polynomial(tag)
        _, h = surface_tag(tag)
        for p in levels:
            for minus_i in (True, False):
                by_rabin = _level_outcome(m_alpha, p, genus, minus_i)
                by_h = _level_outcome(m_alpha, p, genus, minus_i, coxeter_number=h)
                assert by_h == by_rabin, (tag, p, minus_i)
                admitted = isinstance(by_h, covers.CongruenceDegree)
                outcomes.add("admitted" if admitted else by_h[0])
                if p > 2 and h % p == 0 and by_h[0] is InadmissiblePrimeError:
                    dividing_h.add((tag, p))
        # a genus the polynomial does not have is refused before either test
        assert _level_outcome(m_alpha, 3, genus + 1, True, coxeter_number=h) == _level_outcome(
            m_alpha, 3, genus + 1, True
        )
    assert outcomes == {"admitted", InadmissiblePrimeError, InvalidArgumentError}
    assert dividing_h == {
        ("polygon-5", 5), ("polygon-7", 7), ("polygon-10", 5), ("polygon-14", 7),
        ("polygon-22", 11), ("polygon-37", 37), ("E7", 3), ("E8", 3), ("E8", 5),
    }


def test_zeta_values():
    assert real_quadratic_zeta_minus_one(5) == Fraction(1, 30)
    assert real_quadratic_zeta_minus_one(8) == Fraction(1, 12)
    assert real_quadratic_zeta_minus_one(13) == Fraction(1, 6)
    assert is_fundamental_discriminant(12)
    assert not is_fundamental_discriminant(20)
    # negative d: -4 and -3 are fundamental, -36 = -4 * 9 is not
    assert is_fundamental_discriminant(-4) and is_fundamental_discriminant(-3)
    assert not is_fundamental_discriminant(-36)
    for d in (-36, -4, -3, 0, 1):
        with pytest.raises(InvalidArgumentError, match="real quadratic field"):
            real_quadratic_zeta_minus_one(d)


def test_zeta_value_matches_the_per_b_reference():
    for d in range(5, 3000):
        if is_fundamental_discriminant(d):
            assert real_quadratic_zeta_minus_one(d) == reference.real_quadratic_zeta_minus_one(d), d


@given(st.integers(5, 10**5).filter(is_fundamental_discriminant))
@settings(max_examples=60, deadline=None)
def test_zeta_value_matches_the_per_b_reference_to_1e5(d):
    assert real_quadratic_zeta_minus_one(d) == reference.real_quadratic_zeta_minus_one(d)


class _Divided(Exception):
    pass


def test_refusals_scan_no_divisors_and_a_row_scans_each_e_once(monkeypatch):
    # a scatter row at p = 7 with D = 0 mod 4, found before any patching
    rows, _ = chern_scatter(1000, 1100, 7)
    row_d = next(d for d, *_ in rows if d % 2 == 0)

    def refuse(n):
        raise _Divided(n)

    monkeypatch.setattr(prototypes, "small_divisors", refuse)
    prototypes.divisor_scan.cache_clear()
    # 20 and 1000: not fundamental, nonresidues mod 7; 8 and 1012: residues mod 7
    for d in (20, 1000):
        with pytest.raises(MissingCurveDataError):
            weierstrass_family(d, 7)
    for d in (8, 1012):
        with pytest.raises(InadmissiblePrimeError):
            weierstrass_family(d, 7)

    calls = []

    def counted(n):
        calls.append(n)
        return small_divisors(n)

    monkeypatch.setattr(prototypes, "small_divisors", counted)
    result = weierstrass_family(row_d, 7)
    assert result.checks["chi_source"] == "zeta-formula"
    assert calls == [(row_d - e * e) // 4 for e in range(0, math.isqrt(row_d - 1) + 1, 2)]


def test_zeta_and_the_classes_share_one_scan_in_either_order(monkeypatch):
    # 1005 = 3 5 67 and 1048 = 4 262 are fundamental and not 1 mod 8
    cold = {}
    for d in (1005, 1048):
        prototypes.divisor_scan.cache_clear()
        zeta = real_quadratic_zeta_minus_one(d)
        prototypes.divisor_scan.cache_clear()
        cold[d] = (zeta, prototypes.prototype_classes(d))
        assert zeta == reference.real_quadratic_zeta_minus_one(d)
        want = [p.as_tuple() for p in reference.enumerate_prototypes(d)]
        assert [p.as_tuple() for p in prototypes.enumerate_prototypes(d)] == want

    calls = []

    def counted(n):
        calls.append(n)
        return small_divisors(n)

    monkeypatch.setattr(prototypes, "small_divisors", counted)
    routes = (
        lambda d: real_quadratic_zeta_minus_one(d) == cold[d][0],
        lambda d: prototypes.prototype_classes(d) == cold[d][1],
    )
    rows = [(1005 - e * e) // 4 for e in range(1, math.isqrt(1004) + 1, 2)]
    for first, second in (routes, routes[::-1]):
        prototypes.divisor_scan.cache_clear()
        calls.clear()
        assert first(1005) and calls == rows
        assert second(1005) and calls == rows
    # with one discriminant cached, alternating two answers as cold calls do
    for i, d in enumerate((1005, 1048, 1005, 1048, 1048, 1005, 1005, 1048)):
        assert routes[i % 2](d) and routes[1 - i % 2](d)


@pytest.mark.parametrize("d", [153, 800, 864, 1440, 1584, 2016])
def test_class_multiplicity_counts_the_reference_prototypes_past_gcd_1(d):
    spin_filter = (lambda _p: True) if d % 8 == 1 else None
    classes = prototypes.prototype_classes(d, spin_filter)
    records = prototypes.divisor_scan(d)[1]
    # classes whose t are cut by gcd(w, h, e) > 1, with e = 0 among them
    # unless d is odd
    assert any(math.gcd(w, h, e) > 1 for w, h, e, _, _ in records)
    assert d % 2 or any(e == 0 and math.gcd(w, h) > 1 for w, h, e, _, _ in records)
    count = Counter((p.w, p.h) for p in reference.enumerate_prototypes(d, spin_filter))
    assert {(w, h): m for w, h, _, _, m in records} == count
    assert classes == tuple((twist, m) for *_, twist, m in records)


def test_chi_and_zeta_past_the_size_cap_are_refused_before_any_divisor(monkeypatch):
    # a broken guard runs the squarefree test or the divisor scan, which
    # fail at once instead of trial-dividing up to sqrt(D)
    def refuse(n):
        raise _Divided(n)

    monkeypatch.setattr(prototypes, "small_divisors", refuse)
    prototypes.divisor_scan.cache_clear()
    with pytest.raises(_Divided):  # at the cap the scan is reached
        CurveDataTable().chi(9_999_973)
    monkeypatch.setattr(families, "is_fundamental_discriminant", refuse)
    for d in (10**7 + 5, 10**7 + 12, 100_000_005, 10_000_019 * 10_000_079):
        with pytest.raises(CapExceededError, match="size cap"):
            CurveDataTable().chi(d)
        with pytest.raises(CapExceededError, match="size cap"):
            real_quadratic_zeta_minus_one(d)
    # a user row answers ahead of the refusal
    table = CurveDataTable([ExternalCurveData(100_000_005, Fraction(-7, 2))])
    assert table.chi(100_000_005) == (Fraction(-7, 2), "table")


def _chi_with_two_checks(d):
    """CurveDataTable().chi as written when chi ran the size cap and the
    squarefree test, and zeta ran both again: the reference for the
    route's answers and refusals."""
    if d in families._BUILTIN_CHI:
        return families._BUILTIN_CHI[d], "builtin"
    prototypes.check_size(d)
    if is_fundamental_discriminant(d) and d % 8 != 1:
        return -9 * real_quadratic_zeta_minus_one(d), "zeta-formula"
    raise MissingCurveDataError(
        f"no Euler characteristic available for D = {d}; supply a data CSV"
    )


def _outcome(f, d):
    try:
        return f(d)
    except VeechFibError as exc:
        return type(exc), str(exc)


def test_chi_runs_one_squarefree_test_per_zeta_lookup(monkeypatch):
    tests = []

    def counted(n):
        tests.append(n)
        return squarefree(n)

    squarefree = families._squarefree
    monkeypatch.setattr(families, "_squarefree", counted)
    table = CurveDataTable()
    past_the_cap = [10**7 + k for k in (1, 4, 5, 12, 13)] + [100_000_005]
    sources = Counter()
    for d in [*range(-50, 6001), 9_999_973, *past_the_cap]:
        tests.clear()
        got = _outcome(table.chi, d)
        count = len(tests)
        assert got == _outcome(_chi_with_two_checks, d), d
        if isinstance(got[0], Fraction):
            sources[got[1]] += 1
            assert count == (got[1] == "zeta-formula"), d
        else:
            assert count <= 1, d
            sources[got[0]] += 1
    assert sources["zeta-formula"] > 1000 and sources["builtin"] == 2
    assert {InvalidArgumentError, MissingCurveDataError, CapExceededError} < set(sources)
    assert _outcome(table.chi, -3) == (
        InvalidArgumentError, "-3 is not the discriminant of a real quadratic field"
    )


def test_chi_refuses_a_large_negative_d_before_its_squarefree_test(monkeypatch):
    # below 5 the route can only refuse, but telling a fundamental D from
    # another trial-divides |D|: past the cap it is refused by size first
    def unreachable(n):
        raise AssertionError(f"squarefree test of {n} past the size cap")

    monkeypatch.setattr(families, "_squarefree", unreachable)
    table = CurveDataTable()
    for d in (-4 * 1000000000061, -(10**7) - 3, -(10**7) - 4):
        assert _outcome(table.chi, d) == (
            CapExceededError, f"D = {-d} exceeds the size cap D <= 10000000"
        ), d


def test_curve_data_table_sources():
    table = CurveDataTable()
    assert table.chi(5) == (Fraction(-3, 10), "builtin")
    assert table.chi(8) == (Fraction(-3, 4), "builtin")
    chi12, source = table.chi(12)
    assert chi12 == Fraction(-3, 2) and source == "zeta-formula"
    with pytest.raises(MissingCurveDataError):
        table.chi(20)  # non-fundamental, no row
    custom = CurveDataTable([ExternalCurveData(20, Fraction(-3, 2))])
    assert custom.chi(20) == (Fraction(-3, 2), "table")


def test_curve_data_table_csv(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("D,chi_num,chi_den,e2\n20,-3,2,1\n")
    table = CurveDataTable.from_csv(path)
    assert table.chi(20) == (Fraction(-3, 2), "table")
    assert table.e2(20, 4) == 1


def test_external_curve_data_rejects_negative_e2(tmp_path):
    with pytest.raises(InvalidArgumentError, match="e2 must be a nonnegative integer"):
        ExternalCurveData(13, Fraction(-3, 2), e2=-40)
    path = tmp_path / "curves.csv"
    path.write_text("D,chi_num,chi_den,e2\n13,-3,2,-40\n")
    with pytest.raises(InvalidArgumentError, match="bad curve data file"):
        CurveDataTable.from_csv(path)


def test_derived_e2_values_are_integral():
    table = CurveDataTable()
    # genus-0 discriminants with only order-2 orbifold points
    expected = {12: 1, 13: 1, 21: 2, 24: 1, 28: 2, 29: 3, 37: 1}
    from veechfib.prototypes import enumerate_prototypes

    for d_disc, e2 in expected.items():
        cusp_count = len(enumerate_prototypes(d_disc))
        assert table.e2(d_disc, cusp_count) == e2


def test_chern_scatter_rows_satisfy_strict_bmy(capsys):
    rows, skipped = chern_scatter(5, 60, 5)
    assert [r[0] for r in rows] == [8, 12, 13, 28, 37, 53]
    for _, c2, c1sq in rows:
        assert c1sq < 3 * c2
    assert (17, "spin-filter-required") in skipped
    assert cli.main(["scatter", "--p", "5", "--min-D", "5", "--max-D", "60"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("# bmy-line: c1sq = 3*c2\n")
    assert "D,c2,c1sq,c1sq_over_c2" in csv_text


def _count_expansions(monkeypatch):
    """Count each read of a per-cusp form: CoverData's cusps_per_orbit,
    cusp_image_orders and per_cusp_twists, FamilySpec's base_twists and
    roots."""
    counts = {}
    for cls, names in (
        (covers.CoverData, ("cusps_per_orbit", "cusp_image_orders", "per_cusp_twists")),
        (families.FamilySpec, ("base_twists", "roots")),
    ):
        for name in names:
            counts[name] = 0
            prop = vars(cls)[name]

            def counted(self, name=name, fget=prop.fget):
                counts[name] += 1
                return fget(self)

            monkeypatch.setattr(cls, name, property(counted))
    return counts


def test_scatter_writes_out_no_cusp_and_to_json_each_form_once(monkeypatch):
    counts = _count_expansions(monkeypatch)
    rows, _ = chern_scatter(5, 2000, 7)
    assert len(rows) > 100
    assert set(counts.values()) == {0}, counts
    result = weierstrass_family(4021, 7)
    assert set(counts.values()) == {0}, counts
    payload = result.to_json()
    assert counts == dict.fromkeys(counts, 1)
    cover, spec = payload["cover"], payload["spec"]
    assert len(cover["cusps_per_orbit"]) == len(spec["base_twists"]) == 299


@pytest.mark.parametrize("keep", ["all", "some", "none"])
def test_weierstrass_spin_filter_classes_write_out_the_prototype_twists(keep):
    data = CurveDataTable([ExternalCurveData(41, Fraction(-3))])  # an even genus term
    spin_filter = {
        "all": lambda _p: True,
        "some": lambda proto: proto.e % 3 != 0,
        "none": lambda _p: False,
    }[keep]
    result = weierstrass_family(41, 7, data=data, spin_filter=spin_filter)
    twists = tuple(map(prototypes.prototype_twisting, prototypes.enumerate_prototypes(41, spin_filter)))
    assert result.spec.base_twists == twists
    assert result.spec.roots == (1,) * len(twists)
    cover, d = result.cover, result.cover.degree
    assert cover.cusp_image_orders == (7,) * len(twists)
    assert cover.cusps_per_orbit == (d // 7,) * len(twists)
    assert cover.per_cusp_twists == tuple(7 * t for t in twists)
    assert cover.total_twisting == d * sum(twists) == result.closed_forms["twisting"]
    assert result.checks["prototype_count"] == len(twists)


def test_scatter_sweep_starts_at_the_first_discriminant():
    # every D < 5 is skipped unseen, so a far-off min D costs nothing;
    # the alarm turns a sweep over 10^13 integers into a failure
    def interrupt(signum, frame):
        raise AssertionError("the scatter walked the integers below D = 5")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.alarm(20)
    try:
        expected = chern_scatter(5, 60, 7)
        for d_min in (-(10**13), -1, 0, 4):
            assert chern_scatter(d_min, 60, 7) == expected
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_scatter_level3_has_noether_point():
    rows, _ = chern_scatter(5, 6, 3)
    assert rows == [(5, 116, 16)]


def test_betti_numbers_track_base_genus():
    result = polygon_family(7, 5)
    assert result.invariants.b1 == 2 * result.cover.base_genus
    assert result.invariants.pi1_isomorphic_to_base


_ODD_PRIMES_BELOW_60 = [p for p in range(3, 60, 2) if all(p % r for r in range(3, p, 2))]


def test_double_pentagon_routes_agree_at_every_level():
    # the discriminant-5 eigenform and the 5-gon staircase generate the
    # same curve; both pipelines must agree field by field at every
    # admissible level, and refuse the same levels.  The Weierstrass side
    # decides its levels by Rabin's test and Euler's criterion, the
    # staircase side by the order of p mod h = 5 up to sign.
    admitted, refused = [], []
    for p in _ODD_PRIMES_BELOW_60:
        try:
            via_prototypes = weierstrass_family(5, p)
        except InadmissiblePrimeError:
            with pytest.raises(InadmissiblePrimeError):
                polygon_family(5, p)
            refused.append(p)
            continue
        via_staircase = polygon_family(5, p)
        assert via_prototypes.cover == via_staircase.cover, p
        assert via_prototypes.invariants == via_staircase.invariants, p
        admitted.append(p)
    assert admitted == [3, 7, 13, 17, 23, 37, 43, 47, 53]
    assert refused == [5, 11, 19, 29, 31, 41, 59]


def test_octagon_and_w8_routes_agree_except_the_twisting():
    # the regular octagon generates W_8 (McMullen 2003).  Degree, base
    # genus and cusps agree at every admissible level, and both refuse
    # the same levels; the total twisting does not: T_W - T_oct = d at
    # every level, the doubled middle twist that the octagon's base
    # twists lack.  That difference is pinned as found, not endorsed.
    twistings = {}
    for p in _ODD_PRIMES_BELOW_60:
        if p == 3:
            # the non-integral cover genus at level 3, on both routes
            for route in (lambda: weierstrass_family(8, 3), lambda: polygon_family(8, 3)):
                with pytest.raises(InconsistentCoverError):
                    route()
            continue
        try:
            via_w8 = weierstrass_family(8, p).cover
        except InadmissiblePrimeError:
            with pytest.raises(InadmissiblePrimeError):
                polygon_family(8, p)
            continue
        via_octagon = polygon_family(8, p).cover
        assert via_w8.degree == via_octagon.degree, p
        assert via_w8.base_genus == via_octagon.base_genus, p
        assert via_w8.cusp_count == via_octagon.cusp_count, p
        twistings[p] = (via_w8.total_twisting, via_octagon.total_twisting, via_w8.degree)
    assert sorted(twistings) == [5, 11, 13, 19, 29, 37, 43, 53, 59]
    assert all(t_w - t_oct == degree for t_w, t_oct, degree in twistings.values())
    assert twistings[5] == (39000, 31200, 7800)


def test_positive_base_genus_members_are_general_type_with_strict_bmy():
    e8_level = admissible_primes("E8", 13)[0][0]
    results = [
        weierstrass_family(8, 5),
        weierstrass_family(13, 5),
        polygon_family(7, 3),
        polygon_family(16, 5),
        sporadic_family("E7", 5),
        sporadic_family("E8", e8_level),
    ]
    for result in results:
        assert result.cover.base_genus >= 1
        assert result.invariants.bmy_strict
        assert result.invariants.kodaira_tag == "minimal-general-type"


def test_structural_checks_memo_returns_fresh_dicts():
    # p = 7 has base genus >= 1 and gains bmy_sufficient; p = 3 has base
    # genus 0, and the memoised checks must not carry that key over
    high = polygon_family(5, 7)
    low = polygon_family(5, 3)
    assert high.cover.base_genus >= 1 and "bmy_sufficient" in high.checks
    assert low.cover.base_genus == 0 and "bmy_sufficient" not in low.checks
    assert high.checks is not low.checks
    low.checks["staircase_parity"] = "mutated"
    del low.checks["core_curve_span"]
    again = polygon_family(5, 3).checks
    assert again == {
        "staircase_parity": True,
        "holonomy_basis": True,
        "cylinder_bounds": True,
        "core_curve_span": True,
    }


def test_structural_checks_run_once_per_model(monkeypatch):
    calls = []
    original = families.holonomy_basis_check

    def counting(model):
        calls.append(model.family_tag)
        return original(model)

    monkeypatch.setattr(families, "holonomy_basis_check", counting)
    build_surface.cache_clear()
    outcomes = []
    for call, levels in (
        (lambda p: polygon_family(5, p), (3, 7, 11, 13, 17, 19, 23)),
        (lambda p: sporadic_family("E7", p), (5, 7, 11, 13)),
    ):
        for p in levels:
            try:
                outcomes.append(call(p).level)
            except InadmissiblePrimeError:
                outcomes.append(None)
    assert None in outcomes and any(outcomes)  # refusals and results both
    assert calls == ["polygon-5", "E7"]
    build_surface.cache_clear()
    polygon_family(5, 3)
    assert calls == ["polygon-5", "E7", "polygon-5"]


def test_rank_runs_once_per_cold_model(monkeypatch):
    # the build refuses a genus that is not rank Q, so model_spec states
    # core_curve_span without ranking Q a second time; a warm model ranks
    # nothing
    calls = []
    rank = thurston_veech.rank

    def counting(matrix):
        calls.append(matrix)
        return rank(matrix)

    monkeypatch.setattr(thurston_veech, "rank", counting)
    for run in (lambda: polygon_family(5, 3), lambda: sporadic_family("E7", 5)):
        build_surface.cache_clear()
        calls.clear()
        assert run().checks["core_curve_span"] is True
        assert len(calls) == 1
        run()
        assert len(calls) == 1


# -- Lyapunov sums -------------------------------------------------------------


def lyapunov_sum(inv):
    """L = kappa + T/(6|chi(B)|) with chi(B) = 2 - 2b - |cusps|: the sum of
    the fiber's positive Lyapunov exponents that an invariant record
    implies (Eskin-Kontsevich-Zorich), read here from its fields only."""
    chi_base = 2 - 2 * inv.base_genus - inv.cusp_count
    return inv.kappa + Fraction(inv.twisting, 6 * abs(chi_base))


def _family(tag, p):
    kind, _, number = tag.partition("-")
    if kind == "polygon":
        return polygon_family(int(number), p)
    if kind == "weierstrass":
        return weierstrass_family(int(number), p)
    return sporadic_family(tag, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lyapunov_sum_is_four_thirds_on_every_scatter_row(p):
    # every scatter row is a genus-2 Weierstrass curve in H(2), where
    # Bainbridge's theorem fixes L = 4/3
    rows, _ = chern_scatter(5, 2000, p)
    assert len(rows) > 100
    for d, c2, c1sq in rows:
        inv = weierstrass_family(d, p).invariants
        assert (inv.c2, inv.c1_squared) == (c2, c1sq), d
        assert lyapunov_sum(inv) == Fraction(4, 3), d


def _supported_polygon(n):
    try:
        check_polygon_n(n)
    except UnsupportedFamilyError:
        return False
    return True


LYAPUNOV_POLYGONS = [n for n in range(5, 65) if _supported_polygon(n)]

# (emitted L, Eskin-Kontsevich-Zorich value) on every even polygon up to
# 64: the emitted sum misses the doubled middle twist of ROADMAP item 1(c)
EVEN_LYAPUNOV = {
    8: (Fraction(10, 9), Fraction(4, 3)),
    10: (Fraction(31, 24), Fraction(3, 2)),
    14: (Fraction(65, 36), Fraction(2)),
    16: (Fraction(44, 21), Fraction(16, 7)),
    22: (Fraction(169, 60), Fraction(3)),
    26: (Fraction(239, 72), Fraction(7, 2)),
    32: (Fraction(184, 45), Fraction(64, 15)),
    34: (Fraction(415, 96), Fraction(9, 2)),
    38: (Fraction(521, 108), Fraction(5)),
    46: (Fraction(769, 132), Fraction(6)),
    58: (Fraction(1231, 168), Fraction(15, 2)),
    62: (Fraction(1409, 180), Fraction(8)),
    64: (Fraction(752, 93), Fraction(256, 31)),
}


@pytest.mark.parametrize(
    "tag",
    [f"polygon-{n}" for n in LYAPUNOV_POLYGONS]
    + ["E7", "E8"]
    + [f"weierstrass-{d}" for d in (5, 8, 12, 13, 21)],
)
def test_lyapunov_sum_is_the_same_at_every_admissible_level(tag):
    # L belongs to the Teichmueller curve, not to the level of its cover
    sums, corrected, refused = set(), set(), []
    for p, _ in admissible_primes(tag, 60):
        try:
            result = _family(tag, p)
        except InconsistentCoverError:
            refused.append(p)
            continue
        inv = result.invariants
        sums.add(lyapunov_sum(inv))
        # with the second twist of c_(n/2): T + d
        corrected.add(lyapunov_sum(inv._replace(twisting=inv.twisting + result.cover.degree)))
    # the pinned refusal of D = 8 at level 3, which is the octagon
    assert refused == ([3] if tag in ("polygon-8", "weierstrass-8") else [])
    assert len(sums) == 1, sums
    kind, _, number = tag.partition("-")
    if kind != "polygon":
        return
    # Eskin-Kontsevich-Zorich: g^2/(2g - 1) on H^hyp(2g - 2), home of the
    # odd n and n = 2^k, and (g + 1)/2 on H^hyp(g - 1, g - 1), of n = 2q
    n, g = int(number), result.spec.fiber_genus
    theorem = Fraction(g * g, 2 * g - 1) if n % 2 or n & (n - 1) == 0 else Fraction(g + 1, 2)
    if n % 2:
        assert sums == {theorem}, n
    else:
        assert (sums.pop(), theorem) == EVEN_LYAPUNOV[n]
        assert corrected == {theorem}, n


def test_the_lyapunov_sweep_covers_every_even_polygon_up_to_64():
    assert sorted(EVEN_LYAPUNOV) == [n for n in LYAPUNOV_POLYGONS if n % 2 == 0]


def test_lyapunov_sums_pinned():
    assert lyapunov_sum(polygon_family(5, 3).invariants) == Fraction(4, 3)
    assert lyapunov_sum(polygon_family(7, 3).invariants) == Fraction(9, 5)
    assert lyapunov_sum(sporadic_family("E7", 5).invariants) == Fraction(7, 4)
    assert lyapunov_sum(sporadic_family("E8", 7).invariants) == 2
    # genus 2, where Bainbridge's theorem gives 4/3 for H(2) and 3/2 for
    # H(1,1): the octagon (H(2)) and the decagon (H(1,1)) read below it.
    # (emitted value, theorem value)
    octagon = lyapunov_sum(polygon_family(8, 5).invariants)
    decagon = lyapunov_sum(polygon_family(10, 3).invariants)
    assert (octagon, Fraction(4, 3)) == (Fraction(10, 9), Fraction(4, 3))
    assert (decagon, Fraction(3, 2)) == (Fraction(31, 24), Fraction(3, 2))
