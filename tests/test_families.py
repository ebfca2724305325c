import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prototype_reference as reference
from veechfib.errors import (
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    InvalidDiscriminantError,
    MissingCurveDataError,
    SpinRequiredError,
    UnsupportedFamilyError,
)
from veechfib import covers, families, prototypes
from veechfib.families import (
    MAX_ELLIPTIC_M,
    MAX_PRIME_BOUND,
    MAX_SCATTER_D,
    CurveDataTable,
    ExternalCurveData,
    admissible_primes,
    chern_scatter,
    chern_scatter_csv,
    elliptic_family,
    family_alpha_polynomial,
    is_fundamental_discriminant,
    polygon_family,
    principal_congruence_index,
    real_quadratic_zeta_minus_one,
    sporadic_family,
    weierstrass_family,
)
from veechfib.invariants import kappa_mu
from veechfib.prototypes import standard_parameters, weierstrass_alpha
from veechfib.exact.finitefield import is_irreducible_mod_p
from veechfib.exact.polynomials import divisors
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


@pytest.mark.parametrize("d_disc, p", [(13, 5), (5, 11)])
def test_weierstrass_compares_the_residue_route(monkeypatch, d_disc, p):
    # an admitted (13 at 5) and a refused (5 at 11) level: Euler's
    # criterion answering the other way is reported, not trusted
    original = families.is_quadratic_nonresidue
    monkeypatch.setattr(families, "is_quadratic_nonresidue", lambda d, q: not original(d, q))
    with pytest.raises(InvalidArgumentError, match="^residue test disagrees with irreducibility$"):
        weierstrass_family(d_disc, p)


def test_admissible_primes_reads_exceptional_from_the_level_decision(monkeypatch):
    original = families.congruence_degree

    def exceptional_at_5(m_alpha, p, genus, contains_minus_i):
        result = original(m_alpha, p, genus, contains_minus_i)
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


def test_sporadic_family_takes_only_e7_and_e8_in_any_case():
    assert sporadic_family(" e8 ", 7).to_json() == sporadic_family("E8", 7).to_json()
    with pytest.raises(UnsupportedFamilyError, match="must be E7 or E8, not 'polygon-5'"):
        sporadic_family("polygon-5", 3)
    with pytest.raises(UnsupportedFamilyError, match="unknown family tag: 'E6'"):
        sporadic_family("E6", 3)


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

    monkeypatch.setattr(families, "family_alpha_polynomial", refuse)
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


def test_admissibility_matches_the_galois_criterion():
    # m_alpha is irreducible mod p exactly when Frobenius at p generates
    # the Galois group of the trace field; a route through no polynomial
    odd_primes = [p for p in range(3, 98, 2) if all(p % r for r in range(3, p, 2))]
    tags = list(_supported_tags(128))
    assert len(tags) == 52
    for tag, h in tags:
        m_alpha, genus = family_alpha_polynomial(tag)
        expected = [p for p in odd_primes if _generates_units_mod_sign(p, h)]
        assert [p for p in odd_primes if is_irreducible_mod_p(m_alpha, p)] == expected, tag
        assert admissible_primes(tag, 97) == [(p, (p, genus) == (3, 2)) for p in expected], tag

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

    monkeypatch.setattr(prototypes, "divisors", refuse)
    prototypes.divisor_rows.cache_clear()
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
        return divisors(n)

    monkeypatch.setattr(prototypes, "divisors", counted)
    result = weierstrass_family(row_d, 7)
    assert result.checks["chi_source"] == "zeta-formula"
    assert calls == [(row_d - e * e) // 4 for e in range(0, math.isqrt(row_d - 1) + 1, 2)]


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


def test_chern_scatter_rows_satisfy_strict_bmy():
    rows, skipped = chern_scatter(5, 60, 5)
    assert [r[0] for r in rows] == [8, 12, 13, 28, 37, 53]
    for _, c2, c1sq in rows:
        assert c1sq < 3 * c2
    assert (17, "spin-filter-required") in skipped
    csv_text = chern_scatter_csv(rows)
    assert csv_text.startswith("# bmy-line: c1sq = 3*c2\n")
    assert "D,c2,c1sq,c1sq_over_c2" in csv_text


def test_scatter_level3_has_noether_point():
    rows, _ = chern_scatter(5, 6, 3)
    assert rows == [(5, 116, 16)]


def test_betti_numbers_track_base_genus():
    result = polygon_family(7, 5)
    assert result.invariants.b1 == 2 * result.cover.base_genus
    assert result.invariants.pi1_isomorphic_to_base


def test_double_pentagon_routes_agree_at_every_level():
    # the discriminant-5 eigenform and the 5-gon staircase generate the
    # same curve; both pipelines must agree field by field at all levels
    for p in (3, 7, 13):
        via_prototypes = weierstrass_family(5, p)
        via_staircase = polygon_family(5, p)
        assert via_prototypes.cover.degree == via_staircase.cover.degree
        assert via_prototypes.cover.base_genus == via_staircase.cover.base_genus
        assert via_prototypes.cover.cusp_count == via_staircase.cover.cusp_count
        assert (
            via_prototypes.cover.total_twisting == via_staircase.cover.total_twisting
        )
        assert via_prototypes.invariants == via_staircase.invariants


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
