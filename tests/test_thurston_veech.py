import re
from fractions import Fraction

import pytest

import enclosure_reference
import power_basis_reference
import root_refine_reference
from alpha_reference import family_alpha_polynomial
from enclosure_reference import Embedded, less
from root_refine_reference import bisect_by_signs, count_roots_in, exact_divide, sturm_chain
from veechfib import thurston_veech
from veechfib.errors import (
    CapExceededError,
    InapplicableModelError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MixedModulusError,
    RootBracketError,
    UnsupportedFamilyError,
)
from veechfib.exact.linalg import charpoly, rank
from veechfib.exact.numberfield import NumberFieldElement, PowerBasis, RealAlgebraicField
from veechfib.exact.polynomials import (
    IntPolynomial,
    _chebyshev_polys,
    cos_two_pi_minpoly,
    euler_phi,
    two_cos_bracket,
)
from veechfib.families import admissible_primes
from veechfib.thurston_veech import (
    HORIZONTAL,
    MAX_POLYGON_N,
    VERTICAL,
    BipartiteIntersectionGraph,
    CylinderDatum,
    SurfaceModel,
    _checked_model,
    _path,
    _two_coloured,
    build_surface,
    core_curve_span_check,
    cylinder_bound_check,
    gluing_check,
    holonomy_basis_check,
    perron_frobenius,
    staircase_parity_check,
    surface_tag,
)

SUPPORTED_N = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 10, 14, 22, 26, 34, 38, 8, 16, 32)

# the enclosure route on a model starts from a root interval of width
# 2^-NARROW_BITS: there the first enclosure signs every height of the
# 251-gon, where the field's 2^-30 takes up to 60 refinements
NARROW_BITS = 200


def adjacency(graph):
    """The full symmetric adjacency matrix of a bipartite graph, blacks
    first, then whites: the charpoly oracles' input."""
    b, w = graph.black_count, graph.white_count
    top = [[0] * b + list(row) for row in graph.intersections]
    bottom = [[row[j] for row in graph.intersections] + [0] * w for j in range(w)]
    return top + bottom


def certify(h, star):
    """perron_frobenius on a Coxeter diagram's star: mu and the heights
    in adjacency order."""
    _, blacks, whites, mu, heights, _ = perron_frobenius(*star, h)
    return mu, tuple(heights[v] for v in blacks + whites)


def _supported_tags(max_n):
    tags = []
    for n in range(5, max_n + 1):
        try:
            tags.append(surface_tag(f"polygon-{n}")[0])
        except UnsupportedFamilyError:
            pass
    return tags + ["E7", "E8"]


def _lifts_replaced(monkeypatch, lifts):
    """Make perron_frobenius read these lifts for every star."""
    monkeypatch.setattr(thurston_veech, "_star_lifts", lambda center, arms: lifts)


def test_coxeter_graph_examples():
    assert _two_coloured(*_path(2))[0].intersections == ((1,),)
    assert _two_coloured(*_path(4))[0].intersections == ((1, 0), (1, 1))
    e7 = _two_coloured(*thurston_veech._SPORADIC["E7"][:2])[0]
    assert sorted((e7.black_count, e7.white_count)) == [3, 4]
    e8 = _two_coloured(*thurston_veech._SPORADIC["E8"][:2])[0]
    assert (e8.black_count, e8.white_count) == (4, 4)


def test_path_graph_matches_its_closed_form():
    # black vertex i is path position 2i + 1, white vertex j is 2j + 2;
    # they meet when adjacent on the path
    for m in range(2, 256):
        blacks, whites = range((m + 1) // 2), range(m // 2)
        expected = tuple(
            tuple(int(abs((2 * i + 1) - (2 * j + 2)) == 1) for j in whites) for i in blacks
        )
        assert _two_coloured(*_path(m))[0].intersections == expected, m


def test_graph_validation():
    with pytest.raises(InvalidArgumentError):
        BipartiteIntersectionGraph(((1, 0), (0, 0)))  # zero row
    with pytest.raises(InvalidArgumentError):
        BipartiteIntersectionGraph(((1, 0), (0, 1)))  # disconnected
    with pytest.raises(InvalidArgumentError):
        BipartiteIntersectionGraph(((-1,),))


def test_graph_refuses_non_integer_counts():
    # int() would read this as ((1, 0), (1, 2)), another surface
    with pytest.raises(InvalidArgumentError, match="intersection count 1.7 is not an integer"):
        BipartiteIntersectionGraph([[1.7, 0.5], [1, "2"]])
    for bad in (0.5, "2", None, Fraction(1, 2)):
        with pytest.raises(InvalidArgumentError, match=re.escape(f"intersection count {bad!r}")):
            BipartiteIntersectionGraph([[1, bad], [1, 1]])
    # an integral Fraction is the integer it equals
    graph = BipartiteIntersectionGraph([[Fraction(2), 1]])
    assert graph == BipartiteIntersectionGraph([[2, 1]])
    assert [type(x) for x in graph.intersections[0]] == [int, int]


def test_perron_frobenius_refuses_a_wrong_coxeter_number():
    # mu = 2cos(pi/3) = 1 is an eigenvalue of A5, but not the dominant
    # one: its arm of 4 needs mu > 2cos(pi/5), so the certificate fails
    with pytest.raises(MathematicalInconsistencyError, match="not proved strictly positive"):
        certify(3, _path(5))
    # mu = 2cos(pi/6) = sqrt(3) is no eigenvalue of A4 at all
    with pytest.raises(MathematicalInconsistencyError, match="Q h = mu h fails exactly"):
        certify(6, _path(4))
    # a graph with an edge has spectral radius >= 1, so h >= 3
    with pytest.raises(InvalidArgumentError):
        certify(2, _path(2))
    # a star with no arm, an empty arm or no vertex 1 has no colouring
    for arms in ((), ((),), ((2, 3),)):
        with pytest.raises(InvalidArgumentError, match="a star needs"):
            perron_frobenius(5, arms, 5)


def test_perron_frobenius_refuses_a_wrong_candidate(monkeypatch):
    # a star with an index j + 1 >= h: U_j(mu) <= 0 is a factor of some
    # height, and the brackets of 2cos(pi/h) and 2cos(pi/(L + 1)) cannot
    # separate; E7 at h = 4 and A(5) at h = 5 have U_3(mu) = 0 and
    # U_4(mu) = 0 at the center, A(9) at h = 6 has U_5(mu) = 0 and
    # U_6(mu) < 0 on its arm
    for star, h in (
        (thurston_veech._SPORADIC["E7"][:2], 4),
        (_path(9), 6),
        (_path(5), 5),
    ):
        with pytest.raises(MathematicalInconsistencyError, match="not proved strictly positive"):
            perron_frobenius(*star, h)
    # the right h with one lift changed: a positive vector, not an eigenvector
    star = thurston_veech._SPORADIC["E7"][:2]
    lifts = thurston_veech._star_lifts(*star)
    _lifts_replaced(monkeypatch, {**lifts, 1: lifts[1] + IntPolynomial([1])})
    with pytest.raises(MathematicalInconsistencyError, match="Q h = mu h fails exactly"):
        perron_frobenius(*star, 18)


@pytest.mark.parametrize("family, size, h", [("E8", None, 30), ("A", 6, 7), ("A", 15, 16)])
def test_perron_frobenius_reads_each_residual_modulo_the_minimal_polynomial(
    monkeypatch, family, size, h
):
    star = _path(size) if size else thurston_veech._SPORADIC[family][:2]
    _, blacks, whites, mu, heights, lifts = perron_frobenius(*star, h)
    modulus = mu.field.modulus
    # a lift moved by a multiple of m_mu leaves nonzero residuals in Z[x]
    # on its row and its neighbours', each divisible by m_mu: it passes,
    # with the same heights
    for v in (blacks[0], whites[-1]):
        moved = dict(lifts)
        moved[v] = lifts[v] + modulus * IntPolynomial([3, 0, -1])
        _lifts_replaced(monkeypatch, moved)
        assert perron_frobenius(*star, h)[3:5] == (mu, heights)
        # the same lift moved by one more unit fails
        moved[v] = moved[v] + IntPolynomial([1])
        with pytest.raises(MathematicalInconsistencyError, match="Q h = mu h fails exactly"):
            perron_frobenius(*star, h)


def test_perron_frobenius_reduces_only_the_center_residual(monkeypatch):
    # every row of a star but the center's has a zero residual in Z[x];
    # the field reads the center's residual and no lift, since the
    # heights come from the U_j recurrence in the field
    reads = []
    element = RealAlgebraicField.element

    def counted(field, coeffs):
        reads.append(tuple(coeffs))
        return element(field, coeffs)

    monkeypatch.setattr(RealAlgebraicField, "element", counted)
    perron_frobenius(*_path(12), 13)
    # the center 12 has the one neighbour 11: U_10 - x U_11 = -U_12; then
    # the generator and the one that start the recurrence
    assert reads == [(-_chebyshev_polys(12, 1)[12]).coefficients, (0, 1), (1,)]


@pytest.mark.parametrize(
    "family, size, h",
    [("E7", None, 18), ("E8", None, 30)] + [("A", m, m + 1) for m in range(2, 40)],
)
def test_star_lifts_fail_only_the_center_equation_in_z_x(family, size, h):
    # x U_j = U_(j-1) + U_(j+1) makes every arm vertex's equation of
    # Q h = x h hold as polynomials; the center's residual vanishes at
    # mu = 2cos(pi/h), so the minimal polynomial of mu divides it
    center, arms = _path(size) if size else thurston_veech._SPORADIC[family][:2]
    graph, blacks, whites = thurston_veech._two_coloured(center, arms)
    lifts = thurston_veech._star_lifts(center, arms)
    order = blacks + whites
    x = IntPolynomial([0, 1])
    for v, row in zip(order, adjacency(graph)):
        residual = x * lifts[v]
        for u, a in zip(order, row):
            residual = residual - lifts[u] * a
        if v == center:
            assert residual and exact_divide(residual, cos_two_pi_minpoly(2 * h)) is not None
        else:
            assert residual.is_zero, v
    if family == "A":
        # the path's vertex k lifts to U_(k-1)
        assert [lifts[k] for k in range(1, size + 1)] == _chebyshev_polys(size, 1)[:size]


def test_star_heights_are_the_lifts_embedded_at_mu():
    # the U_j recurrence run in the field gives each lift reduced modulo
    # m_mu, on every supported tag up to n = 256 (the n-gon's diagram is
    # A(n - 1))
    for tag in _supported_tags(256):
        h = surface_tag(tag)[1]
        star = _path(h - 1) if tag.startswith("polygon") else thurston_veech._SPORADIC[tag][:2]
        lifts = thurston_veech._star_lifts(*star)
        modulus = cos_two_pi_minpoly(2 * h)
        field = RealAlgebraicField(modulus)
        heights = thurston_veech._star_heights(*star, field.generator)
        assert heights == {v: field.element(lift.coefficients) for v, lift in lifts.items()}, tag


@pytest.mark.parametrize("tag", [f"polygon-{n}" for n in SUPPORTED_N] + ["E7", "E8"])
def test_model_mu_is_the_largest_root_of_the_charpoly(tag):
    # independent of the Perron-Frobenius certificate: the field modulus
    # divides the characteristic polynomial of the construction graph
    # (the whole star, also where an even n-gon's model keeps its
    # quotient), and above the lower end of the bracket the build
    # certifies, the charpoly has one distinct real root, so mu is the
    # largest eigenvalue
    model = build_surface(tag)
    h = surface_tag(tag)[1]
    star = _path(h - 1) if tag.startswith("polygon") else thurston_veech._SPORADIC[tag][:2]
    cp = charpoly(adjacency(_two_coloured(*star)[0]))
    assert exact_divide(cp, model.mu.field.modulus) is not None
    sf = root_refine_reference.squarefree_part(cp)
    lower = two_cos_bracket(h)[0]
    assert count_roots_in(sturm_chain(sf), lower, root_refine_reference.root_bound(sf)) == 1


def test_perron_frobenius_path_two():
    mu, heights = certify(3, _path(2))
    assert mu.field.modulus == IntPolynomial([-1, 1])
    assert mu == mu.field.one
    assert [h == mu.field.one for h in heights] == [True, True]


def test_perron_frobenius_path_four():
    mu, heights = certify(5, _path(4))
    assert mu.field.modulus == IntPolynomial([-1, -1, 1])
    one = mu.field.one
    # construction order is blacks {1,3} then whites {2,4}: heights (1, mu, mu, 1)
    assert heights == (one, mu, mu, one)


def test_perron_frobenius_e7_eigenvalue():
    mu, _ = certify(18, thurston_veech._SPORADIC["E7"][:2])
    assert mu.field.modulus == cos_two_pi_minpoly(2 * 18)


@pytest.mark.parametrize("n", range(3, 41))
def test_path_minimal_polynomial_matches_two_cos(n):
    graph, _, _, mu, heights, _ = perron_frobenius(*_path(n - 1), n)
    assert mu.field.modulus == cos_two_pi_minpoly(2 * n)
    assert exact_divide(charpoly(adjacency(graph)), mu.field.modulus) is not None
    assert all(enclosure_reference.sign(h) > 0 for h in heights.values())


def test_build_surface_polygon5():
    model = build_surface("polygon-5")
    assert model.genus == 2
    assert model.zero_partition == (2,)
    assert len(model.horizontal) == 2 and len(model.vertical) == 2


def test_build_surface_e8():
    model = build_surface("E8")
    assert model.genus == 4
    assert model.zero_partition == (6,)
    assert len(model.horizontal) == 4 and len(model.vertical) == 4


def test_build_surface_polygon8():
    model = build_surface("polygon-8")
    assert model.genus == 2
    assert model.zero_partition == (2,)
    assert len(model.horizontal) == 2 and len(model.vertical) == 2


def test_build_surface_polygon10_partition():
    model = build_surface("polygon-10")
    assert model.genus == 2
    assert model.zero_partition == (1, 1)
    assert {len(model.horizontal), len(model.vertical)} == {2, 3}


def test_build_surface_e7():
    model = build_surface("E7")
    assert model.genus == 3
    assert model.zero_partition == (1, 3)
    assert {len(model.horizontal), len(model.vertical)} == {3, 4}


@pytest.mark.parametrize("bad_n", [4, 6, 9, 12, 15, 18, 21])
def test_unsupported_polygon_rejected(bad_n):
    with pytest.raises(UnsupportedFamilyError):
        build_surface(f"polygon-{bad_n}")


class _GraphAllocated(Exception):
    pass


def _refuse_graphs(monkeypatch):
    def refuse(*args, **kwargs):
        raise _GraphAllocated(args)

    monkeypatch.setattr(thurston_veech, "_two_coloured", refuse)


def test_polygon_past_the_size_cap_is_refused_before_its_graph(monkeypatch):
    # a broken guard reaches _two_coloured, the first graph a polygon
    # build makes, and fails at once instead of allocating an n x n matrix
    _refuse_graphs(monkeypatch)
    assert MAX_POLYGON_N == 256
    for n in (257, 262, 512, 1000003):
        with pytest.raises(CapExceededError, match=f"{n}-gon"):
            build_surface(f"polygon-{n}")
    # the largest supported n under the cap gets past the guard; a model
    # another test cached would never reach the graph
    build_surface.cache_clear()
    with pytest.raises(_GraphAllocated):
        build_surface("polygon-256")
    assert surface_tag("polygon-1000003") == ("polygon-1000003", 1000003)


def test_surface_tag_is_canonical_with_the_coxeter_number():
    assert surface_tag(" e7 ") == ("E7", 18)
    assert surface_tag("E8") == ("E8", 30)
    assert surface_tag("Polygon-05") == ("polygon-5", 5)
    assert surface_tag("POLYGON-07") == ("polygon-7", 7)
    assert surface_tag("polygon-64") == ("polygon-64", 64)
    assert admissible_primes("Weierstrass-13", 20) == admissible_primes("weierstrass-13", 20)
    for tag in ("polygon-x", "polygon-1.5", "polygon-", "polygon5", "E9", "weierstrass-5",
                "polygon--5"):
        with pytest.raises(UnsupportedFamilyError, match="unknown family tag"):
            surface_tag(tag)
    # a tag's number is plain ASCII digits: int() read each of these
    for tag in ("weierstrass-+5", "weierstrass- 5", "weierstrass-1_000", "weierstrass-\uff15",
                "polygon-\u0667", "polygon- 7", "polygon-+7"):
        message = f"^unknown family tag: {re.escape(repr(tag))}$"
        for call in (surface_tag, build_surface, lambda tag: admissible_primes(tag, 20)):
            with pytest.raises(UnsupportedFamilyError, match=message):
                call(tag)
    for n in (0, 3, 6, 9, 12, 4):
        with pytest.raises(UnsupportedFamilyError, match="not in the supported series"):
            surface_tag(f"polygon-{n}")


def test_model_invariants_exact():
    # every spelling of a tag gets the canonical tag's one model
    assert build_surface("POLYGON-07") is build_surface(" polygon-7") is build_surface("polygon-7")
    assert build_surface(" e7 ") is build_surface("E7")
    for tag in ("polygon-5", "polygon-8", "polygon-10", "E7", "E8"):
        model = build_surface(tag)
        mu = model.mu
        for cyl in model.cylinders:
            assert cyl.circumference == mu * cyl.height
        assert sum(model.zero_partition) == 2 * model.genus - 2
        assert rank(model.graph.intersections) == model.genus


@pytest.mark.parametrize("tag", [f"polygon-{n}" for n in SUPPORTED_N] + ["E7", "E8"])
def test_structural_checks_all_supported_families(tag):
    model = build_surface(tag)
    assert staircase_parity_check(model)
    assert holonomy_basis_check(model) is True
    assert cylinder_bound_check(model)
    assert core_curve_span_check(model)
    # the parity check reads the lifts; the build proves each embeds
    for cyl in model.cylinders:
        assert model.mu.field.element(cyl.height_lift.coefficients) == cyl.height, cyl.name


def _with_horizontal_lifts(model, lifts):
    """The model with the named horizontal cylinders' lifts replaced;
    heights are left alone, so a tampered lift no longer embeds."""
    horizontal = tuple(
        c._replace(height_lift=lifts[c.name]) if c.name in lifts else c
        for c in model.horizontal
    )
    return model._replace(horizontal=horizontal)


def test_parity_check_refuses_tampered_lifts():
    # polygon-5: horizontal lifts c_2 = mu (the anchor), c_4 = mu^3 - 2mu
    model = build_surface("polygon-5")
    assert staircase_parity_check(model)
    even = _with_horizontal_lifts(model, {"c_4": IntPolynomial([0, 0, 1])})
    assert staircase_parity_check(even) is False
    # every horizontal lift stays odd, but none is mu itself
    no_anchor = _with_horizontal_lifts(model, {"c_2": IntPolynomial([0, 0, 0, 1])})
    assert all(c.height_lift.odd_terms_only() for c in no_anchor.horizontal)
    assert staircase_parity_check(no_anchor) is False


def test_parity_check_passes_a_staircase_scaled_at_the_wrong_anchor():
    # the check asks for some horizontal lift equal to mu, not for mu to be
    # the lowest horizontal height: E7 scaled at its center passes every
    # structural check while two horizontal cylinders lie below mu
    diagram = thurston_veech._SPORADIC["E7"]
    graph, blacks, whites, mu, by_vertex, _ = perron_frobenius(diagram.center, diagram.arms, 18)
    assert diagram.center == 4
    scaled, lifts, horizontal = thurston_veech._staircase_normalize(
        mu, by_vertex, blacks, whites, 4
    )
    rows = [
        (f"c_{v}", HORIZONTAL if v in horizontal else VERTICAL, scaled[v], 1, lifts[v])
        for v in sorted(by_vertex)
    ]
    # c_7, the lowest of the vertical class this scaling makes
    model = _checked_model("E7", graph, mu, rows, 18, diagram.zero_partition, "c_7")
    lowest = min(model.vertical, key=lambda c: Embedded(c.height))
    assert model.vertical[model.lowest_vertical] is lowest
    assert staircase_parity_check(model)
    assert holonomy_basis_check(model)
    assert cylinder_bound_check(model)
    assert [c.name for c in model.horizontal] == ["c_1", "c_4", "c_6"]
    assert [c.name for c in model.horizontal if less(c.height, mu)] == ["c_1", "c_6"]


def test_parity_check_is_inapplicable_without_both_directions():
    model = build_surface("polygon-5")
    for direction in ("horizontal", "vertical"):
        with pytest.raises(InapplicableModelError, match="horizontal/vertical decomposition"):
            staircase_parity_check(model._replace(**{direction: ()}))


def test_staircase_normalization_needs_an_even_modulus():
    # mu = golden ratio: x^2 - x - 1 has an odd term, so residues are
    # not parity-faithful lifts
    mu = RealAlgebraicField(IntPolynomial([-1, -1, 1])).generator
    with pytest.raises(InapplicableModelError, match="modulus is not even"):
        thurston_veech._staircase_normalize(mu, {0: mu, 1: mu}, {0}, {1}, 0)


@pytest.mark.parametrize("which", ["E7", "E8"])
def test_staircase_anchor_is_the_lowest_height(which):
    # the leaf of the longest arm has the lowest height of the star, by
    # exact comparison against every vertex
    diagram = thurston_veech._SPORADIC[which]
    _, blacks, whites, mu, by_vertex, _ = perron_frobenius(
        diagram.center, diagram.arms, surface_tag(which)[1]
    )
    anchor = max(diagram.arms, key=len)[0]
    assert anchor == {"E7": 7, "E8": 8}[which]
    assert all(less(by_vertex[anchor], h) for v, h in by_vertex.items() if v != anchor)
    model = build_surface(which)
    assert [c.name for c in model.cylinders if c.height == mu] == [f"c_{anchor}"]
    # the integrality and parity refusals do not locate the anchor: the
    # center passes both and puts mu on a cylinder that is not the lowest
    scaled, _, horizontal = thurston_veech._staircase_normalize(
        mu, by_vertex, blacks, whites, diagram.center
    )
    assert scaled[diagram.center] == mu and diagram.center in horizontal
    assert less(scaled[anchor], mu)


def test_staircase_normalization_refuses_a_bad_anchor():
    # E7's vertex 3 has height U_1 U_1 U_3 (mu), no unit: scaling by it
    # leaves denominators of 3
    diagram = thurston_veech._SPORADIC["E7"]
    _, blacks, whites, mu, by_vertex, _ = perron_frobenius(diagram.center, diagram.arms, 18)
    with pytest.raises(MathematicalInconsistencyError, match="no staircase normalization found"):
        thurston_veech._staircase_normalize(mu, by_vertex, blacks, whites, 3)
    # integral, but both classes are odd
    mu = RealAlgebraicField(IntPolynomial([-3, 0, 1])).generator
    with pytest.raises(MathematicalInconsistencyError, match="no staircase normalization found"):
        thurston_veech._staircase_normalize(mu, {0: mu, 1: mu}, [0], [1], 0)


@pytest.mark.parametrize(
    "tag, signs",
    [("E7", 7), ("E8", 8)] + [(f"polygon-{n}", n // 2) for n in (5, 8, 10, 17, 64, 251)],
)
def test_a_cold_build_signs_each_distinct_height_once_and_compares_none(monkeypatch, tag, signs):
    # the build itself signs nothing: field elements have no sign and no
    # order, and its heights are proved positive in integers.  The
    # enclosure route run on the cold build's heights signs each distinct
    # one once (an n-gon's n - 1 heights come in equal mirror pairs,
    # floor(n/2) distinct) and compares none
    assert not hasattr(NumberFieldElement, "sign")
    assert NumberFieldElement.__lt__ is object.__lt__
    counts = {"sign": 0, "less": 0}
    for name in counts:

        def counted(*args, name=name, original=getattr(enclosure_reference, name)):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(enclosure_reference, name, counted)
    build_surface.cache_clear()
    model = build_surface(tag)
    bracket = two_cos_bracket(surface_tag(tag)[1])
    root = bisect_by_signs(model.mu.field.modulus, *bracket, Fraction(1, 2**NARROW_BITS))
    assert all(enclosure_reference.sign(h, root) == 1 for h in dict.fromkeys(model.heights))
    assert counts == {"sign": signs, "less": 0}


def test_a_bracket_that_misses_mu_fails_the_build(monkeypatch):
    # the build certifies two_cos_bracket(h) before it makes mu's field:
    # with the 7-gon's bracket moved above mu, the certificate refuses
    # it, and no model enters the cache
    original = thurston_veech.two_cos_bracket

    def shifted(n):
        lo, hi = original(n)
        return (lo + Fraction(1, 100), hi + Fraction(1, 100)) if n == 7 else (lo, hi)

    monkeypatch.setattr(thurston_veech, "two_cos_bracket", shifted)
    build_surface.cache_clear()
    with pytest.raises(RootBracketError, match="does not isolate the largest real root"):
        build_surface("polygon-7")
    assert build_surface.cache_info().currsize == 0


def test_span_check_refuses_a_genus_above_the_rank():
    model = build_surface("E7")
    assert core_curve_span_check(model)
    genus = model.genus + 1
    assert core_curve_span_check(model._replace(genus=genus)) is False
    rows = [(c.name, c.direction, c.height, c.twist_count, c.height_lift) for c in model.cylinders]
    # the genus is phi(h)/2: E7's graph stated at h = 30 has genus 4 > rank Q = 3
    assert euler_phi(30) // 2 == genus
    with pytest.raises(MathematicalInconsistencyError, match="rank of the intersection matrix"):
        _checked_model("E7", model.graph, model.mu, rows, 30, model.zero_partition, "c_1")


def test_cylinder_bound_examples():
    m7 = build_surface("polygon-7")
    assert cylinder_bound_check(m7)
    e7 = build_surface("E7")
    assert cylinder_bound_check(e7)
    # synthetic model with g-1 cylinders on one side must fail
    broken = SurfaceModel(
        family_tag=m7.family_tag,
        graph=m7.graph,
        mu=m7.mu,
        heights=m7.heights,
        horizontal=m7.horizontal[:-1],
        vertical=m7.vertical,
        genus=m7.genus,
        zero_partition=m7.zero_partition,
    )
    assert not cylinder_bound_check(broken)


def _hand_built_model(vertical_heights, modulus=(-3, 0, 1), coxeter_number=0):
    """Minimal hand-built model, over Q(sqrt(3)) unless another modulus
    is given, with prescribed verticals and the stated Coxeter number."""
    field = RealAlgebraicField(IntPolynomial(modulus))
    mu = field.generator
    graph = BipartiteIntersectionGraph(((1, 1),))
    horizontal = (
        CylinderDatum("c_h", HORIZONTAL, mu, mu * mu, 1, IntPolynomial([0, 1])),
    )
    vertical = tuple(
        CylinderDatum(
            f"c_v{i}",
            VERTICAL,
            field.element([v]),
            mu * field.element([v]),
            1,
            IntPolynomial([v]),
        )
        for i, v in enumerate(vertical_heights)
    )
    return SurfaceModel(
        family_tag="hand-built",
        graph=graph,
        mu=mu,
        heights=tuple(c.height for c in horizontal + vertical),
        horizontal=horizontal,
        vertical=vertical,
        genus=1,
        zero_partition=(),
        coxeter_number=coxeter_number,
    )


def test_holonomy_fails_on_incommensurable_hand_built_model():
    # alpha = mu^2 = 3, Z[alpha] = Z: vertical heights 2 and 3 are
    # incommensurable against the lattice spanned by the lowest one.
    assert holonomy_basis_check(_hand_built_model([2, 3])) is False


def test_holonomy_passes_on_commensurable_hand_built_model():
    assert holonomy_basis_check(_hand_built_model([1, 2])) is True


def test_holonomy_is_inapplicable_without_a_vertical_cylinder():
    # the lattice basis needs the lowest vertical cylinder: a model with
    # none, or an index past its verticals, is refused, not a bare error
    model = build_surface("polygon-7")
    for broken in (model._replace(vertical=()), model._replace(lowest_vertical=3)):
        with pytest.raises(InapplicableModelError, match="no lowest vertical cylinder"):
            holonomy_basis_check(broken)


def test_bracket_separation_covers_every_polygon_under_the_cap():
    # the build's positivity proof needs two_cos_bracket(h) and that of
    # the longest arm, L + 1 = h - 1 on the n-gon, to separate; a cap
    # raised past the proof's range fails here
    for h in range(5, MAX_POLYGON_N + 1):
        assert two_cos_bracket(h)[0] > two_cos_bracket(h - 1)[1], h
    # E7 and E8: L = 3 and 4
    for h, top in ((18, 4), (30, 5)):
        assert two_cos_bracket(h)[0] > two_cos_bracket(top)[1]


@pytest.mark.parametrize(
    "tag", _supported_tags(128) + ["polygon-202", "polygon-251", "polygon-256"]
)
def test_enclosure_route_agrees_with_the_integer_proofs(tag):
    # the second route: the enclosure sign of every distinct height, and
    # the enclosure minimum over the vertical cylinders, against the
    # build's integer positivity proof and closed-form lowest vertical
    model = build_surface(tag)
    # the field holds no root; the interval the reference isolates from
    # Fujiwara's bound lies inside the bracket the build certifies
    modulus, h = model.mu.field.modulus, surface_tag(tag)[1]
    lo, hi = two_cos_bracket(h)
    lower, upper = root_refine_reference.isolate_largest_real_root(modulus, Fraction(1, 2**34))
    assert lo <= lower <= upper <= hi
    # the enclosures start from it, refined by signs
    root = bisect_by_signs(modulus, lower, upper, Fraction(1, 2**NARROW_BITS))
    assert all(enclosure_reference.sign(x, root) == 1 for x in dict.fromkeys(model.heights))
    lowest = model.vertical[model.lowest_vertical]
    assert all(
        less(lowest.height, c.height, root) for c in model.vertical if c is not lowest
    ), tag
    assert lowest.name == {"E7": "c_1", "E8": "c_7"}.get(tag, "c_1")


def test_gluing_check_pins_the_even_middle_cylinder():
    # every cylinder of an odd n-gon, E7 and E8 closes up; on an even
    # n-gon exactly c_(n/2) fails, its circumference twice the sum of the
    # heights crossing it (the quotient keeps one of its two neighbours)
    for tag in ("polygon-5", "polygon-7", "polygon-11", "E7", "E8"):
        assert gluing_check(build_surface(tag)) == [], tag
    for n in (8, 10, 14, 16, 22, 64, 128, 256):
        model = build_surface(f"polygon-{n}")
        assert gluing_check(model) == [f"c_{n // 2}"], n
        by_name = {c.name: c for c in model.cylinders}
        below = by_name[f"c_{n // 2 - 1}"].height
        assert by_name[f"c_{n // 2}"].circumference == below + below


def _with_cylinder(model, name, **fields):
    """The model with these fields of the cylinder called name replaced."""

    def side(cylinders):
        return tuple(c._replace(**fields) if c.name == name else c for c in cylinders)

    return model._replace(horizontal=side(model.horizontal), vertical=side(model.vertical))


def test_gluing_check_fails_a_scaled_circumference_and_a_swapped_height():
    model = build_surface("polygon-7")
    c_1, c_2, c_3 = (next(c for c in model.cylinders if c.name == f"c_{k}") for k in (1, 2, 3))
    doubled = c_3.circumference + c_3.circumference
    assert gluing_check(_with_cylinder(model, "c_3", circumference=doubled)) == ["c_3"]
    # c_1 and c_2 swap heights, no circumference changes: the sums of
    # c_1, c_2 and c_3, each crossed by one of the two, move
    swapped = _with_cylinder(
        _with_cylinder(model, "c_1", height=c_2.height), "c_2", height=c_1.height
    )
    assert gluing_check(swapped) == ["c_1", "c_3", "c_2"]
    with pytest.raises(InapplicableModelError, match="do not match its graph"):
        gluing_check(model._replace(vertical=()))


def test_model_graph_is_the_star_gluing_check_reads():
    # gluing_check labels model.graph by the E7 / E8 star of _SPORADIC,
    # else by the path on the graph's vertices; the build wires A(n - 1)
    # for odd n and the quotient A(n/2) for even n
    for tag in _supported_tags(256):
        n = surface_tag(tag)[1]
        if tag in thurston_veech._SPORADIC:
            star = thurston_veech._SPORADIC[tag][:2]
        else:
            star = _path(n - 1 if n % 2 else n // 2)
        assert build_surface(tag).graph == _two_coloured(*star)[0], tag


def _assert_alpha_order_matches_eliminations(model, dense):
    """The closed-form Z[alpha] test of the holonomy check against the
    fraction-free PowerBasis on every holonomy quotient the check forms
    and on mu and mu/2, and, when dense, against the dense Gauss-Jordan
    reference on one quotient per direction and on mu and mu/2.
    Returns PowerBasis's m_alpha."""
    in_z_alpha = thurston_veech._z_alpha_test(model)
    alpha = model.mu * model.mu
    elimination = PowerBasis(alpha)
    m_alpha = elimination.minimal_polynomial()
    y = model.vertical[model.lowest_vertical].height
    quotients = [
        [c.circumference * basis.inverse() for c in cylinders]
        for cylinders, basis in ((model.horizontal, alpha), (model.vertical, y * model.mu))
    ]
    half_mu = model.mu / model.mu.field.element([2])
    others = [model.mu, half_mu]
    for elem in quotients[0] + quotients[1]:
        assert in_z_alpha(elem) and elimination.in_order(elem)
    for elem in others:
        assert in_z_alpha(elem) == elimination.in_order(elem)
    assert not in_z_alpha(half_mu)
    if dense:
        assert m_alpha == power_basis_reference.element_minimal_polynomial(alpha)
        for elem in [quotients[0][-1], quotients[1][-1]] + others:
            assert in_z_alpha(elem) == power_basis_reference.in_order(
                elem, alpha, m_alpha.degree
            )
    return m_alpha


@pytest.mark.parametrize("tag", _supported_tags(128))
def test_closed_form_alpha_order_matches_the_eliminations(tag):
    # the dense Fraction reference takes about 18 s over the odd n in
    # 65..128, so past h = 64 the fraction-free PowerBasis is the only
    # second route
    model = build_surface(tag)
    h = surface_tag(tag)[1]
    # even h: an even modulus, so Z[alpha] has no odd coordinates and
    # misses mu; odd h: Z[alpha] = Z[mu]
    assert model.mu.field.modulus.even_terms_only() is (h % 2 == 0)
    assert thurston_veech._z_alpha_test(model)(model.mu) is (h % 2 == 1)
    m_alpha = _assert_alpha_order_matches_eliminations(model, dense=h <= 64)
    assert family_alpha_polynomial(tag) == (m_alpha, model.genus)


def test_closed_form_alpha_order_on_the_hand_built_model():
    model = _hand_built_model([1, 2])
    _assert_alpha_order_matches_eliminations(model, dense=True)
    with pytest.raises(MixedModulusError):
        thurston_veech._z_alpha_test(model)(build_surface("polygon-8").mu)


@pytest.mark.parametrize("h", [0, 5, 18])
def test_odd_modulus_without_certificate_is_refused(h):
    # x^3 - 2 is not even, and mu = cbrt(2) is not -C_k(mu^2 - 2) for
    # any stated h (none, odd or even): no closed form, and no
    # elimination to fall back on
    model = _hand_built_model([1, 2], modulus=(-2, 0, 0, 1), coxeter_number=h)
    with pytest.raises(InapplicableModelError, match="no closed form for Z\\[mu\\^2\\]"):
        thurston_veech._z_alpha_test(model)
    with pytest.raises(InapplicableModelError):
        holonomy_basis_check(model)


@pytest.mark.parametrize("label", ["hand-built", "E7", "polygon-7"])
def test_the_holonomy_check_reads_h_off_the_model_not_its_label(label):
    # the pentagon's modulus x^2 - x - 1 is odd, so the check needs h = 5;
    # the same model under any family tag gets the same answer
    model = build_surface("polygon-5")
    assert model.coxeter_number == 5 and not model.mu.field.modulus.even_terms_only()
    relabelled = model._replace(family_tag=label)
    assert holonomy_basis_check(relabelled) is holonomy_basis_check(model) is True
    # with h dropped, the odd modulus has no closed form whatever the label
    with pytest.raises(InapplicableModelError, match="no closed form"):
        holonomy_basis_check(model._replace(family_tag=label, coxeter_number=0))


def test_holonomy_basis_check_parses_no_tag(monkeypatch):
    models = [build_surface(tag) for tag in ("polygon-5", "polygon-7", "polygon-8", "E7", "E8")]

    def refuse(tag):
        raise AssertionError(f"tag {tag!r} parsed")

    monkeypatch.setattr(thurston_veech, "surface_tag", refuse)
    monkeypatch.setattr(thurston_veech, "capped_surface_tag", refuse)
    monkeypatch.setattr("veechfib.tags.surface_tag", refuse)
    assert all(holonomy_basis_check(model) is True for model in models)


def test_every_model_states_its_coxeter_number_and_genus_phi_h_over_2():
    for tag in _supported_tags(256):
        model = build_surface(tag)
        h = model.coxeter_number
        assert h == surface_tag(tag)[1], tag
        assert model.genus == euler_phi(h) // 2 == rank(model.graph.intersections), tag
        assert "coxeter_number" not in model.to_json(), tag


def test_parity_check_uses_unreduced_lifts():
    # In the golden field the height mu^3 - 2mu reduces to 1; the lift
    # must stay odd for the parity statement to hold.
    model = build_surface("polygon-5")
    lifts = {c.name: c.height_lift for c in model.cylinders}
    assert lifts["c_4"] == IntPolynomial([0, -2, 0, 1])
    assert lifts["c_4"].odd_terms_only()
    heights = {c.name: c.height for c in model.cylinders}
    assert heights["c_4"] == model.mu.field.one


def _charpoly_permanent_oracle(matrix):
    # det(xI - M) by brute-force permutation expansion over Z[x]
    import itertools

    n = len(matrix)
    total = IntPolynomial([])
    x = IntPolynomial([0, 1])
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = IntPolynomial([sign])
        for i in range(n):
            entry = x - IntPolynomial([matrix[i][perm[i]]]) if i == perm[i] else IntPolynomial(
                [-matrix[i][perm[i]]]
            )
            term = term * entry
        total = total + term
    return total


def test_charpoly_against_permutation_expansion():
    import random

    rng = random.Random(11)
    matrices = []
    for _ in range(12):
        n = rng.randrange(2, 6)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.randrange(0, 3)
                m[i][j] = m[j][i] = w
        matrices.append(m)
    # trees: the paths A2-A6 and E7, a 7-vertex tree with a branch point
    matrices += [adjacency(_two_coloured(*_path(n))[0]) for n in range(2, 7)]
    matrices.append(adjacency(_two_coloured(*thurston_veech._SPORADIC["E7"][:2])[0]))
    for m in matrices:
        assert charpoly(m) == _charpoly_permanent_oracle(m), m


def test_path_heights_are_symmetric():
    # the even n-gons' A(n - 1) included: c_k stands for c_(n-k) there
    for n in (5, 9, 12) + tuple(n - 1 for n in SUPPORTED_N if n % 2 == 0):
        _, heights = certify(n + 1, _path(n))
        # adjacency order: odd vertices ascending, then even vertices
        order = list(range(1, n + 1, 2)) + list(range(2, n + 1, 2))
        by_vertex = {v: h for v, h in zip(order, heights)}
        for k in range(1, n + 1):
            assert by_vertex[k] == by_vertex[n + 1 - k]


def test_quotient_graph_rank_is_genus():
    model = build_surface("polygon-16")
    assert rank(model.graph.intersections) == model.genus == 4


def test_e7_heights_exact_values():
    # solving the diagram equations from the leaf with height 1 gives
    # (1, mu^2-2, mu^4-4mu^2+3, mu^3-2mu, mu^2-1, mu, mu^5-5mu^3+5mu) for
    # vertices 7..1; the model stores those rescaled by mu so the anchor
    # cylinder has height exactly mu, and the class containing it gets the
    # odd-parity (horizontal) label
    model = build_surface("E7")
    lifts = {c.name: c.height_lift for c in model.cylinders}
    assert lifts["c_7"] == IntPolynomial([0, 1])
    assert lifts["c_2"] == IntPolynomial([0, -2, 0, 1])
    assert lifts["c_5"] == IntPolynomial([0, -1, 0, 1])
    assert lifts["c_3"] == IntPolynomial([0, 3, 0, -4, 0, 1])
    assert lifts["c_6"] == IntPolynomial([0, 0, 1])
    assert lifts["c_4"] == IntPolynomial([0, 0, -2, 0, 1])
    # mu * (mu^5 - 5mu^3 + 5mu) reduces to mu^4 - 4mu^2 + 3 (even modulus)
    assert lifts["c_1"] == IntPolynomial([3, 0, -4, 0, 1])
    directions = {c.name: c.direction for c in model.cylinders}
    assert [directions[f"c_{v}"] for v in (2, 3, 5, 7)] == [HORIZONTAL] * 4
    assert [directions[f"c_{v}"] for v in (1, 4, 6)] == [VERTICAL] * 3


def test_alpha_minpoly_matches_cyclotomic_shift_oracle():
    # alpha = 4cos(pi/n)^2 = 2 + 2cos(2pi/n), so its minimal polynomial is
    # the minimal polynomial of 2cos(2pi/n) composed with x - 2: an
    # independent route to the same polynomial.
    from veechfib.covers import OrbifoldSignature
    from veechfib.exact.numberfield import element_minimal_polynomial
    from veechfib.families import model_spec

    def shift_by_minus_two(poly):
        out = IntPolynomial([poly.coefficients[-1]])
        x_minus_2 = IntPolynomial([-2, 1])
        for c in reversed(poly.coefficients[:-1]):
            out = out * x_minus_2 + IntPolynomial([c])
        return out

    # literal base signatures, independent of model_spec's Coxeter-number rule
    signatures = {"E7": OrbifoldSignature(0, (9,), 2), "E8": OrbifoldSignature(0, (15,), 2)}
    for n in SUPPORTED_N:
        signatures[f"polygon-{n}"] = (
            OrbifoldSignature(0, (2, n), 1) if n % 2 else OrbifoldSignature(0, (n // 2,), 2)
        )
    for tag, h in [(f"polygon-{n}", n) for n in SUPPORTED_N] + [("E7", 18), ("E8", 30)]:
        spec, model, _ = model_spec(tag)
        mu = model.mu
        via_matrix = element_minimal_polynomial(mu * mu)
        via_cyclotomic = shift_by_minus_two(cos_two_pi_minpoly(h))
        assert via_matrix == via_cyclotomic, tag
        assert spec.alpha_minimal_polynomial == via_cyclotomic, tag
        assert family_alpha_polynomial(tag) == (via_matrix, model.genus), tag
        assert spec.signature_orbifold == signatures[tag], tag
        # one spec per model, kept in its memo
        assert model_spec(tag)[0] is spec is model.memo["model_spec"][0], tag
