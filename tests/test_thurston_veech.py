import math
import re
from fractions import Fraction

import pytest

import power_basis_reference
from root_refine_reference import count_roots_in
from veechfib import thurston_veech
from veechfib.errors import (
    CapExceededError,
    InapplicableModelError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MixedModulusError,
    UnsupportedFamilyError,
    UnsupportedGraphError,
)
from veechfib.exact.linalg import charpoly, rank
from veechfib.exact.numberfield import PowerBasis, RealAlgebraicField
from veechfib.exact.polynomials import (
    IntPolynomial,
    minpoly_two_cos,
    root_bound,
    squarefree_part,
    sturm_chain,
)
from veechfib.thurston_veech import (
    HORIZONTAL,
    MAX_POLYGON_N,
    VERTICAL,
    BipartiteIntersectionGraph,
    CylinderDatum,
    SurfaceModel,
    _checked_model,
    build_surface,
    core_curve_span_check,
    coxeter_graph,
    cylinder_bound_check,
    holonomy_basis_check,
    perron_frobenius,
    staircase_parity_check,
    surface_tag,
)

SUPPORTED_N = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 10, 14, 22, 26, 34, 38, 8, 16, 32)


def test_coxeter_graph_examples():
    assert coxeter_graph("A", 2).intersections == ((1,),)
    assert coxeter_graph("A", 4).intersections == ((1, 0), (1, 1))
    e7 = coxeter_graph("E7")
    assert sorted((e7.black_count, e7.white_count)) == [3, 4]
    e8 = coxeter_graph("E8")
    assert (e8.black_count, e8.white_count) == (4, 4)
    with pytest.raises(UnsupportedFamilyError):
        coxeter_graph("F4")


def test_path_graph_matches_its_closed_form():
    # black vertex i is path position 2i + 1, white vertex j is 2j + 2;
    # they meet when adjacent on the path
    for m in range(2, 256):
        blacks, whites = range((m + 1) // 2), range(m // 2)
        expected = tuple(
            tuple(int(abs((2 * i + 1) - (2 * j + 2)) == 1) for j in whites) for i in blacks
        )
        assert coxeter_graph("A", m).intersections == expected, m


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


def test_perron_frobenius_refuses_graph_leaf_propagation_cannot_solve():
    # the 4-cycle: two black curves each meeting both white curves once
    # (dominant eigenvalue 2); no vertex equation ever has one unknown
    with pytest.raises(UnsupportedGraphError, match="leaf propagation"):
        perron_frobenius(BipartiteIntersectionGraph(((1, 1), (1, 1))), 4)


def test_perron_frobenius_refuses_a_wrong_coxeter_number():
    # mu = 2cos(pi/3) = 1 is an eigenvalue of A5, but not the dominant
    # one: its eigenvector changes sign, so the certificate fails
    with pytest.raises(MathematicalInconsistencyError, match="not strictly positive"):
        perron_frobenius(coxeter_graph("A", 5), 3)
    # mu = 2cos(pi/6) = sqrt(3) is no eigenvalue of A4 at all
    with pytest.raises(MathematicalInconsistencyError, match="Q h = mu h fails exactly"):
        perron_frobenius(coxeter_graph("A", 4), 6)
    # a graph with an edge has spectral radius >= 1, so h >= 3
    with pytest.raises(InvalidArgumentError):
        perron_frobenius(coxeter_graph("A", 2), 2)


@pytest.mark.parametrize("tag", [f"polygon-{n}" for n in SUPPORTED_N] + ["E7", "E8"])
def test_model_mu_is_the_largest_root_of_the_charpoly(tag):
    # independent of the Perron-Frobenius certificate: the field modulus
    # divides the characteristic polynomial of the construction graph,
    # and above the field's root interval the charpoly has one distinct
    # real root, so mu is the largest eigenvalue
    model = build_surface(tag)
    cp = charpoly(model.construction_graph.adjacency_matrix())
    assert cp.try_exact_divide(model.mu.field.modulus) is not None
    sf = squarefree_part(cp)
    root = model.mu.field.root
    assert count_roots_in(sturm_chain(sf), root.lower, root_bound(sf)) == 1


def test_perron_frobenius_path_two():
    mu, heights = perron_frobenius(coxeter_graph("A", 2), 3)
    assert mu.field.modulus == IntPolynomial([-1, 1])
    assert mu == 1
    assert [h == mu.field.one for h in heights] == [True, True]


def test_perron_frobenius_path_four():
    mu, heights = perron_frobenius(coxeter_graph("A", 4), 5)
    assert mu.field.modulus == IntPolynomial([-1, -1, 1])
    one = mu.field.one
    # construction order is blacks {1,3} then whites {2,4}: heights (1, mu, mu, 1)
    assert heights == (one, mu, mu, one)


def test_perron_frobenius_e7_eigenvalue():
    mu, _ = perron_frobenius(coxeter_graph("E7"), 18)
    assert mu.field.modulus == minpoly_two_cos(18)


@pytest.mark.parametrize("n", range(3, 41))
def test_path_minimal_polynomial_matches_two_cos(n):
    graph = coxeter_graph("A", n - 1)
    mu, heights = perron_frobenius(graph, n)
    assert mu.field.modulus == minpoly_two_cos(n)
    assert charpoly(graph.adjacency_matrix()).try_exact_divide(mu.field.modulus) is not None
    assert all(h.sign() > 0 for h in heights)


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

    monkeypatch.setattr(thurston_veech, "coxeter_graph", refuse)


def test_polygon_past_the_size_cap_is_refused_before_its_graph(monkeypatch):
    # a broken guard reaches coxeter_graph and fails at once instead of
    # allocating an n x n matrix
    _refuse_graphs(monkeypatch)
    assert MAX_POLYGON_N == 256
    for n in (257, 262, 512, 1000003):
        with pytest.raises(CapExceededError, match=f"{n}-gon"):
            build_surface(f"polygon-{n}")
    # the largest supported n under the cap gets past the guard
    with pytest.raises(_GraphAllocated):
        build_surface("polygon-256")
    assert surface_tag("polygon-1000003") == ("polygon-1000003", 1000003)


def test_surface_tag_is_canonical_with_the_coxeter_number():
    assert surface_tag(" e7 ") == ("E7", 18)
    assert surface_tag("E8") == ("E8", 30)
    assert surface_tag("Polygon-05") == ("polygon-5", 5)
    assert surface_tag("polygon-64") == ("polygon-64", 64)
    for tag in ("polygon-x", "polygon-1.5", "polygon-", "polygon5", "E9", "weierstrass-5"):
        with pytest.raises(UnsupportedFamilyError, match="unknown family tag"):
            surface_tag(tag)
    for n in (-5, 0, 3, 6, 9, 12, 4):
        with pytest.raises(UnsupportedFamilyError, match="not in the supported series"):
            surface_tag(f"polygon-{n}")


def test_model_invariants_exact():
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
        thurston_veech._staircase_normalize(mu, {0: mu, 1: mu}, {0}, {1})


def test_span_check_refuses_a_genus_above_the_rank():
    model = build_surface("E7")
    assert core_curve_span_check(model)
    genus = model.genus + 1
    assert core_curve_span_check(model._replace(genus=genus)) is False
    rows = [(c.name, c.direction, c.height, c.height_lift) for c in model.cylinders]
    with pytest.raises(MathematicalInconsistencyError, match="rank of the intersection matrix"):
        _checked_model("E7", model.graph, model.graph, model.mu, rows, genus, model.zero_partition)


def test_cylinder_bound_examples():
    m7 = build_surface("polygon-7")
    assert cylinder_bound_check(m7)
    e7 = build_surface("E7")
    assert cylinder_bound_check(e7)
    # synthetic model with g-1 cylinders on one side must fail
    broken = SurfaceModel(
        family_tag=m7.family_tag,
        graph=m7.graph,
        construction_graph=m7.construction_graph,
        mu=m7.mu,
        heights=m7.heights,
        horizontal=m7.horizontal[:-1],
        vertical=m7.vertical,
        genus=m7.genus,
        zero_partition=m7.zero_partition,
    )
    assert not cylinder_bound_check(broken)


def _hand_built_model(vertical_heights, modulus=(-3, 0, 1), family_tag="hand-built"):
    """Minimal hand-built model, over Q(sqrt(3)) unless another modulus
    is given, with prescribed verticals."""
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
            field.from_rational(v),
            mu * field.from_rational(v),
            1,
            IntPolynomial([v]),
        )
        for i, v in enumerate(vertical_heights)
    )
    return SurfaceModel(
        family_tag=family_tag,
        graph=graph,
        construction_graph=graph,
        mu=mu,
        heights=tuple(c.height for c in horizontal + vertical),
        horizontal=horizontal,
        vertical=vertical,
        genus=1,
        zero_partition=(),
    )


def test_holonomy_fails_on_incommensurable_hand_built_model():
    # alpha = mu^2 = 3, Z[alpha] = Z: vertical heights 2 and 3 are
    # incommensurable against the lattice spanned by the lowest one.
    assert holonomy_basis_check(_hand_built_model([2, 3])) is False


def test_holonomy_passes_on_commensurable_hand_built_model():
    assert holonomy_basis_check(_hand_built_model([1, 2])) is True


def _supported_tags(max_n):
    tags = []
    for n in range(5, max_n + 1):
        try:
            tags.append(surface_tag(f"polygon-{n}")[0])
        except UnsupportedFamilyError:
            pass
    return tags + ["E7", "E8"]


def _assert_alpha_order_matches_eliminations(model, dense):
    """The closed-form Z[alpha] of the model against the fraction-free
    PowerBasis on every holonomy quotient the check forms and on mu and
    mu/2, and, when dense, against the dense Gauss-Jordan reference on
    one quotient per direction and on mu and mu/2."""
    order = model.alpha_basis
    alpha = order.alpha
    assert alpha == model.mu * model.mu
    m_alpha = order.minimal_polynomial()
    elimination = PowerBasis(alpha)
    assert m_alpha == elimination.minimal_polynomial()
    y = min(model.vertical, key=lambda c: c.height).height
    quotients = [
        [c.circumference * basis.inverse() for c in cylinders]
        for cylinders, basis in ((model.horizontal, alpha), (model.vertical, y * model.mu))
    ]
    others = [model.mu, model.mu / 2]
    for elem in quotients[0] + quotients[1]:
        assert order.in_order(elem) and elimination.in_order(elem)
    for elem in others:
        assert order.in_order(elem) == elimination.in_order(elem)
    assert not order.in_order(model.mu / 2)
    if dense:
        assert m_alpha == power_basis_reference.element_minimal_polynomial(alpha)
        for elem in [quotients[0][-1], quotients[1][-1]] + others:
            assert order.in_order(elem) == power_basis_reference.in_order(
                elem, alpha, m_alpha.degree
            )


@pytest.mark.parametrize("tag", _supported_tags(128))
def test_closed_form_alpha_order_matches_the_eliminations(tag):
    # the dense Fraction reference takes about 18 s over the odd n in
    # 65..128, so past h = 64 the fraction-free PowerBasis is the only
    # second route
    model = build_surface(tag)
    h = surface_tag(tag)[1]
    # even h: an even modulus, so Z[alpha] has no odd coordinates
    assert model.alpha_basis.odd_coordinates_vanish is (h % 2 == 0)
    _assert_alpha_order_matches_eliminations(model, dense=h <= 64)


def test_closed_form_alpha_order_on_the_hand_built_model():
    model = _hand_built_model([1, 2])
    assert model.alpha_basis.minimal_polynomial() == IntPolynomial([-3, 1])
    _assert_alpha_order_matches_eliminations(model, dense=True)
    with pytest.raises(MixedModulusError):
        model.alpha_basis.in_order(build_surface("polygon-8").mu)


@pytest.mark.parametrize("tag", ["hand-built", "polygon-5", "E7"])
def test_odd_modulus_without_certificate_is_refused(tag):
    # x^3 - 2 is not even, and mu = cbrt(2) is not -C_k(mu^2 - 2) for
    # any tag: no closed form, and no elimination to fall back on
    model = _hand_built_model([1, 2], modulus=(-2, 0, 0, 1), family_tag=tag)
    with pytest.raises(InapplicableModelError, match="no closed form for Z\\[mu\\^2\\]"):
        model.alpha_basis
    with pytest.raises(InapplicableModelError):
        holonomy_basis_check(model)


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
    matrices += [coxeter_graph("A", n).adjacency_matrix() for n in range(2, 7)]
    matrices.append(coxeter_graph("E7").adjacency_matrix())
    for m in matrices:
        assert charpoly(m) == _charpoly_permanent_oracle(m), m


def test_path_heights_are_symmetric():
    # the even n-gons' A(n - 1) included: c_k stands for c_(n-k) there
    for n in (5, 9, 12) + tuple(n - 1 for n in SUPPORTED_N if n % 2 == 0):
        _, heights = perron_frobenius(coxeter_graph("A", n), n + 1)
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
    from veechfib.exact.polynomials import cos_two_pi_minpoly
    from veechfib.families import family_alpha_polynomial, model_spec

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
        spec, model = model_spec(tag)
        mu = model.mu
        via_matrix = element_minimal_polynomial(mu * mu)
        via_cyclotomic = shift_by_minus_two(cos_two_pi_minpoly(h))
        assert via_matrix == via_cyclotomic, tag
        assert spec.alpha_minimal_polynomial == via_cyclotomic, tag
        assert family_alpha_polynomial(tag) == (via_matrix, model.genus), tag
        assert spec.signature_orbifold == signatures[tag], tag


def test_chebyshev_table_survives_a_nested_extension(monkeypatch):
    """An extension of the Chebyshev table that runs while another one is
    under way (here from inside IntPolynomial.__mul__) leaves every entry
    right: P_k(2cos t) = sin((k+1)t)/sin(t)."""
    thurston_veech._chebyshev_like.cache_clear()
    product = IntPolynomial.__mul__
    nested = []

    def mul(self, other):
        if not nested:
            nested.append(7)
            thurston_veech._chebyshev_like(7)
        return product(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", mul)
    thurston_veech._chebyshev_like(6)
    monkeypatch.setattr(IntPolynomial, "__mul__", product)
    t = 0.3
    for k in range(12):
        coefficients = thurston_veech._chebyshev_like(k).coefficients
        value = sum(c * (2 * math.cos(t)) ** i for i, c in enumerate(coefficients))
        assert value == pytest.approx(math.sin((k + 1) * t) / math.sin(t)), k
