"""Flat-surface models built from bipartite intersection graphs.

The construction takes a pair of transverse multicurves encoded as a
bipartite graph (black = horizontal core curves, white = vertical ones,
entries of Q count intersections), certifies a solution of the
eigenvector system Q h = mu h exactly in the number field of the
dominant eigenvalue, and produces a cylinder list.  Each build row states a
cylinder's twist count k, and its circumference is mu * height / k.

Neither the dominant eigenvalue nor its eigenvector is searched for.
mu = 2cos(pi/h) comes from the cyclotomic formula for the diagram's
Coxeter number h (n for the n-gon, 18 for E7, 30 for E8), and
Descartes' rule of signs on the modulus certifies that a fixed-point
bracket of 2cos(pi/h) (two_cos_bracket) isolates its largest root.
Every diagram is a star (the path A(m) has one arm), and the eigenvector
has a closed form along its arms in the Chebyshev polynomials U_j
(_star_values): as lifts in Z[x] (_star_lifts) and as heights in the
field, from the same recurrence U_j = mu U_(j-1) - U_(j-2) run on field
elements (_star_heights).
perron_frobenius certifies that candidate as a strictly positive exact
eigenvector, which proves mu dominant.  The build walks each graph
through its neighbour lists, never a dense adjacency matrix.

Supported families are the path diagrams A(m) and the exceptional E7 /
E8 diagrams.  This module parses no tag: veechfib.tags gives
build_surface the canonical tag and Coxeter number h; the model keeps
h and has genus phi(h)/2.  The n-gon has zero partition (g - 1, g - 1)
for n = 2 mod 4, else (2g - 2,); E7 and E8 carry theirs in one table.
For even n the order-2 rotation of the path diagram is quotiented
combinatorially on the cylinder list (one cylinder kept per swapped
pair, the middle one as is), with quotient graph A(n/2).

Each model fact is proved once, by the build step that makes it:
perron_frobenius proves Q h = mu h for the lifts, one residual in Z[x]
per row, and reduces only the residuals that are not zero there (on a
star, the center's); it proves every height positive at once, by one
comparison of two integer brackets read off the longest arm (stored
heights are a multiple of the vector); the heights are the lifts
evaluated at mu.  No lift is reduced: evaluation at mu is a ring
homomorphism, so the recurrence in the field gives each lift's residue.
n-gon heights are their lifts, and _build_polygon checks c_k against
c_(n-k) for even n; E7/E8 lifts come from integer_lift() after the
staircase rescaling, by mu over the height of the longest arm's leaf,
which the closed form proves lowest (_staircase_normalize).  The lowest
vertical cylinder, the holonomy check's lattice basis, is a closed form
too (c_1 on an n-gon, _Diagram on E7 / E8).  So no height is signed or
compared, and no root is refined; _checked_model refuses
a model whose genus is not rank Q (core_curve_span_check).  There is no
separate verify step.

Cylinder heights are stored twice: as exact number-field elements and
as the integer polynomial lifts in mu used by the staircase parity
check (the lifts are NOT reduced modulo the minimal polynomial, which
matters when the minimal polynomial is not an even polynomial).

Level-independent work runs once per model and stays on it: the family
pipelines keep the spec and the structural checks in
``SurfaceModel.memo``.  holonomy_basis_check decides membership in
Z[mu^2] in closed form (_z_alpha_test).  gluing_check, which is not a
structural check, tests that every cylinder closes up.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

from .errors import (
    InapplicableModelError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MixedModulusError,
)
from .exact.finitefield import is_irreducible_mod_p  # noqa: F401  (kept bound)
from .exact.linalg import charpoly, rank  # noqa: F401  (kept bound)
from .exact.numberfield import RealAlgebraicField, in_order  # noqa: F401  (kept bound)
from .exact.polynomials import (
    IntPolynomial, _chebyshev_lists, _chebyshev_polys, cos_two_pi_minpoly, euler_phi,
    exact_integer, isolate_largest_real_root, two_cos_bracket,
)
from .tags import MAX_POLYGON_N, capped_surface_tag, surface_tag  # noqa: F401  (re-exported)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


class BipartiteIntersectionGraph:
    """Intersection pattern of two filling multicurves.

    Rows index the black curves, columns the white curves; entry (i, j)
    counts intersection points.  The graph must be connected with no
    zero row or column (the pair fills the surface).  Entries are ints
    or integral Fractions; anything else is refused, not truncated.
    ``neighbours[v]`` lists the (vertex, count) pairs of the nonzero
    entries at v, in adjacency order: blacks first, then whites.
    """

    def __init__(self, intersections):
        q = tuple(
            tuple(x if type(x) is int else exact_integer(x, "intersection count") for x in row)
            for row in intersections
        )
        if not q or not q[0]:
            raise InvalidArgumentError("intersection matrix must be nonempty")
        if any(len(row) != len(q[0]) for row in q):
            raise InvalidArgumentError("ragged intersection matrix")
        if any(x < 0 for row in q for x in row):
            raise InvalidArgumentError("intersection counts must be nonnegative")
        self.intersections = q
        self.black_count = b = len(q)
        self.white_count = len(q[0])
        neighbours = [[] for _ in range(b + self.white_count)]
        for i, row in enumerate(q):
            for j in [j for j, x in enumerate(row) if x]:
                neighbours[i].append((b + j, row[j]))
                neighbours[b + j].append((i, row[j]))
        self.neighbours = tuple(map(tuple, neighbours))
        if not all(neighbours[:b]):
            raise InvalidArgumentError("a black curve meets no white curve")
        if not all(neighbours[b:]):
            raise InvalidArgumentError("a white curve meets no black curve")
        if not self._connected():
            raise InvalidArgumentError("intersection graph is not connected")

    def _connected(self):
        seen = {0}
        stack = [0]
        while stack:
            for u, _ in self.neighbours[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.neighbours)

    def __eq__(self, other):
        return (
            isinstance(other, BipartiteIntersectionGraph)
            and self.intersections == other.intersections
        )

    def __repr__(self):
        return f"BipartiteIntersectionGraph({self.intersections})"

    def to_json(self):
        return [list(row) for row in self.intersections]


class _Diagram(NamedTuple):
    """An exceptional diagram's star, zero partition and lowest vertical.

    lowest_vertical is the vertex of least height in the class without
    the staircase anchor, the vertical cylinders.  Proof from the arm
    lengths: with U_j = U_j(mu) = sin((j+1)pi/h) / sin(pi/h), positive
    and strictly increasing in j while j + 1 <= h/2, U_1 U_j = U_(j-1) +
    U_(j+1) and U_(j+1) - U_(j-1) = 2cos((j+1)pi/h), the heights of
    _star_values (all scaled by one positive factor) are, on E7 (h = 18,
    vertical 1, 4, 6), c_1 = U_1 U_3 below c_4 = U_2 c_1 and c_6 = U_1^2
    U_2 = c_1 + U_1^2; on E8 (h = 30, vertical 2, 3, 5, 7), c_7 = U_1^2
    U_2 below c_3 = U_1^2 U_4, c_5 = U_1 U_2 U_3 and c_2 = U_2 U_4 = c_7
    + U_2 (U_4 - U_2 - 1), as U_4 - U_2 = 2cos(4pi/30) > 1.
    """

    center: int
    arms: tuple  # each from its leaf inward; Bourbaki numbering
    zero_partition: tuple
    lowest_vertical: int


_SPORADIC = {
    "E7": _Diagram(4, ((1, 3), (2,), (7, 6, 5)), (1, 3), 1),
    "E8": _Diagram(4, ((1, 3), (2,), (8, 7, 6, 5)), (6,), 7),
}


def _path(m):
    """The path A(m) as a star: center m, one arm 1 ... m - 1."""
    return m, (tuple(range(1, m)),)


def _two_coloured(center, arms):
    """Bipartite graph of the star with this center and these arms, each
    listed from its leaf inward, with its black and white vertex lists:
    vertex 1 is black."""
    depth = {center: 0}
    for arm in arms:
        depth.update((v, len(arm) - j) for j, v in enumerate(arm))
    color = {v: (d - depth[1]) % 2 for v, d in depth.items()}
    blacks = sorted(v for v in color if color[v] == 0)
    whites = sorted(v for v in color if color[v] == 1)
    position = {v: i for side in (blacks, whites) for i, v in enumerate(side)}
    q = [[0] * len(whites) for _ in blacks]
    for arm in arms:
        for a, b in zip(arm, arm[1:] + (center,)):
            if color[a] == 1:
                a, b = b, a
            q[position[a]][position[b]] = 1
    return BipartiteIntersectionGraph(q), blacks, whites


def _star_values(center, arms, u):
    """Closed-form height of each vertex of the star, in the ring of
    u[j] = U_j(x), where U_j(2cos t) = sin((j+1)t)/sin(t).

    The j-th vertex of an arm, j = 0 at the leaf, is U_j times U_a over
    every other arm of length a, and the center is U_a over all arms;
    on the path A(m), vertex k is U_(k-1), no product at all.  Since
    x U_j = U_(j-1) + U_(j+1), every vertex equation of Q h = x h holds
    in Z[x] except the center's, which holds at mu = 2cos(pi/h);
    perron_frobenius certifies it.
    """
    ends = [u[len(arm)] for arm in arms]
    values = {center: reduce(operator.mul, ends)}
    for i, arm in enumerate(arms):
        rest = ends[:i] + ends[i + 1 :]
        values.update((v, reduce(operator.mul, rest, u[j])) for j, v in enumerate(arm))
    return values


def _star_lifts(center, arms):
    """Height lift in mu of each vertex of the star: _star_values over
    Z[x], with U_j = _chebyshev_polys(k, 1)[j]."""
    return _star_values(center, arms, _chebyshev_polys(max(map(len, arms)), 1))


def _star_heights(center, arms, mu):
    """Height of each vertex of the star in mu's field: _star_values on
    U_j(mu) from the lifts' recurrence U_0 = 1, U_1 = mu, U_j = mu
    U_(j-1) - U_(j-2), a product by mu costing O(n) (times_generator).
    Evaluation at mu is a ring homomorphism from Z[x], so these are the
    lifts of _star_lifts embedded at mu."""
    u = [mu.field.one, mu]
    for _ in range(max(map(len, arms)) - 1):
        u.append(u[-1].times_generator() - u[-2])
    return _star_values(center, arms, u)


# ---------------------------------------------------------------------------
# Perron-Frobenius data
# ---------------------------------------------------------------------------


def perron_frobenius(center, arms, coxeter_number):
    """Certified dominant eigendata of a star's bipartite graph: the
    graph, its black and white vertex lists (_two_coloured), mu, and by
    vertex the heights and their lifts.

    mu = 2cos(pi/h) for the Coxeter number h is taken from the cyclotomic
    formula.  Descartes' rule of signs on m_mu = cos_two_pi_minpoly(2h)
    first certifies that two_cos_bracket(h) isolates its largest root
    (RootBracketError otherwise); then mu is the generator of the field
    Q[x]/(m_mu), which holds no root of its own.  The candidate
    eigenvector is the star's closed form, given twice: one integer
    polynomial lift in mu per vertex (_star_lifts), and the same
    polynomials evaluated at mu in the field (_star_heights), so no lift
    is reduced.  Each row of adjacency * lifts = x * lifts, in adjacency
    order (blacks, then whites), is checked as one residual in Z[x], sum
    a L_other - x L_row, over the row's neighbours: a zero residual holds
    at every x, and any other is reduced modulo m_mu and must vanish.
    Evaluation at mu is a ring homomorphism, so this is exactly
    adjacency * heights = mu * heights.

    Every height is proved positive at once, in integers.  A height is a
    product of U_j(mu) with j <= L, the longest arm's length
    (_star_values).  U_j is monic with roots 2cos(k pi/(j+1)), k = 1 ...
    j, so U_j(mu) > 0 once mu exceeds 2cos(pi/(j+1)), which grows with j
    (U_0 = 1; the root of U_1 is 0).  As mu lies in two_cos_bracket(h),
    two_cos_bracket(h)[0] > two_cos_bracket(L + 1)[1] (> 0 for L = 1)
    proves every height positive; otherwise the star is refused, with no
    other route.  The brackets separate for every n-gon under the size
    cap (veechfib.tags.MAX_POLYGON_N), where L + 1 = h - 1.  They cannot
    when L + 1 >= h, and then U_(h-1)(mu) = 0 is a factor of some height.

    That identity with a strictly positive vector is the certificate:
    the graph is connected, so its adjacency matrix is irreducible and
    nonnegative, and by Perron-Frobenius a strictly positive eigenvector
    belongs only to the spectral radius.  A wrong h fails with
    MathematicalInconsistencyError.  h must be an integer >= 3, as every
    graph with an edge has spectral radius >= 1.
    """
    if not isinstance(coxeter_number, int) or coxeter_number < 3:
        raise InvalidArgumentError("the Coxeter number must be an integer >= 3")
    if not arms or not all(arms) or 1 not in (center, *(v for arm in arms for v in arm)):
        raise InvalidArgumentError("a star needs nonempty arms and a vertex 1")
    graph, blacks, whites = _two_coloured(center, arms)
    longest = max(map(len, arms))
    start = two_cos_bracket(coxeter_number)
    if not start[0] > (two_cos_bracket(longest + 1)[1] if longest > 1 else 0):
        raise MathematicalInconsistencyError(
            f"eigenvector not proved strictly positive: the brackets of 2cos(pi/{coxeter_number})"
            f" and of 2cos(pi/{longest + 1}), the longest arm's, do not separate"
        )
    lifts = _star_lifts(center, arms)
    modulus = cos_two_pi_minpoly(2 * coxeter_number)
    isolate_largest_real_root(modulus, start)
    fld = RealAlgebraicField(modulus)
    coefficients = [lifts[v].coefficients for v in blacks + whites]
    for row, own in zip(graph.neighbours, coefficients):
        residual = [0] + [-c for c in own]
        for v, a in row:
            other = coefficients[v]
            residual += [0] * (len(other) - len(residual))
            for i, c in enumerate(other):
                residual[i] += a * c
        if any(residual) and not fld.element(residual).is_zero:
            raise MathematicalInconsistencyError("Q h = mu h fails exactly")
    mu = fld.generator
    return graph, blacks, whites, mu, _star_heights(center, arms, mu), lifts


# ---------------------------------------------------------------------------
# Surface models
# ---------------------------------------------------------------------------


class CylinderDatum(NamedTuple):
    """One cylinder: direction, height, twist count k, circumference mu*height/k.

    ``height_lift`` is the integer polynomial in mu representing the
    height in the staircase normalization, kept unreduced for the
    parity check; the build proves that it embeds to ``height``.
    """

    name: str
    direction: str
    height: object
    circumference: object
    twist_count: int
    height_lift: IntPolynomial

    def to_json(self):
        return {
            "name": self.name,
            "direction": self.direction,
            "height": self.height.to_json(),
            "circumference": self.circumference.to_json(),
            "twist_count": self.twist_count,
            "height_lift": self.height_lift.to_json(),
        }


class _SurfaceFields(NamedTuple):
    family_tag: str
    graph: BipartiteIntersectionGraph
    mu: object
    heights: tuple
    horizontal: tuple
    vertical: tuple
    genus: int
    zero_partition: tuple
    lowest_vertical: int = 0
    coxeter_number: int = 0


class SurfaceModel(_SurfaceFields):
    """Output of the construction for one family member.

    ``lowest_vertical`` indexes the vertical cylinder of least height, in
    ``vertical``: the build reads it off the closed form, and a hand-built
    model lists that cylinder first.  ``coxeter_number`` is the build's h
    (0 on a hand-built model that states none).  Neither is in to_json.
    Instances carry a __dict__ for the per-model caches below; _replace
    gives a model that starts with none of them."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: SurfaceModel is immutable")

    @cached_property
    def memo(self):
        """Level-independent results of the family pipelines, keyed by name."""
        return {}

    @property
    def cylinders(self):
        return self.horizontal + self.vertical

    def to_json(self):
        return {
            "family": self.family_tag,
            "graph": self.graph.to_json(),
            "mu_minimal_polynomial": self.mu.field.modulus.to_json(),
            "heights": [h.to_json() for h in self.heights],
            "horizontal": [c.to_json() for c in self.horizontal],
            "vertical": [c.to_json() for c in self.vertical],
            "genus": self.genus,
            "zero_partition": list(self.zero_partition),
            "core_curves_cross_boundary_once": True,
        }


@lru_cache(maxsize=None)
def build_surface(family_tag):
    """Build the exact surface model for polygon-n, E7 or E8.

    Heights are normalized so the lowest horizontal cylinder has height
    mu (the staircase normalization); horizontal cylinders are the ones
    whose height lifts are odd polynomials in mu.  Any spelling of a tag
    gets the canonical tag's model; an n-gon past the cap is refused first.
    """
    tag, h = capped_surface_tag(family_tag)
    if tag != family_tag:
        return build_surface(tag)
    if tag in _SPORADIC:
        return _build_sporadic(tag, h)
    return _build_polygon(h)


def _build_polygon(n):
    """The n-gon's model.  Vertex k, 1-based along the path, lifts to
    U_(k-1), and U_(k-1)(mu) = sin(k pi/n) / sin(pi/n) > 1 for 1 < k < n -
    1, so c_1 = U_0 = 1 is the lowest vertical cylinder (odd k)."""
    construction, _, _, mu, by_vertex, lifts = perron_frobenius(*_path(n - 1), n)
    if n % 2 == 0 and any(by_vertex[k] != by_vertex[n - k] for k in range(1, n // 2)):
        raise MathematicalInconsistencyError("c_k and c_(n-k) differ in height")
    kept = range(1, n) if n % 2 == 1 else range(1, n // 2 + 1)
    rows = [
        (f"c_{k}", HORIZONTAL if k % 2 == 0 else VERTICAL, by_vertex[k], 1, lifts[k])
        for k in kept
    ]
    zeros = euler_phi(n) - 2  # 2g - 2
    partition = (zeros // 2, zeros // 2) if n % 4 == 2 else (zeros,)
    graph = construction if n % 2 == 1 else _two_coloured(*_path(n // 2))[0]
    return _checked_model(f"polygon-{n}", graph, mu, rows, n, partition, "c_1")


def _build_sporadic(which, h):
    diagram = _SPORADIC[which]
    graph, blacks, whites, mu, by_vertex, _ = perron_frobenius(diagram.center, diagram.arms, h)
    anchor = max(diagram.arms, key=len)[0]
    scaled, lifts, horizontal_set = _staircase_normalize(mu, by_vertex, blacks, whites, anchor)
    rows = [
        (f"c_{v}", HORIZONTAL if v in horizontal_set else VERTICAL, scaled[v], 1, lifts[v])
        for v in sorted(by_vertex)
    ]
    lowest = f"c_{diagram.lowest_vertical}"
    return _checked_model(which, graph, mu, rows, h, diagram.zero_partition, lowest)


def _checked_model(family_tag, graph, mu, rows, coxeter_number, partition, lowest):
    """Model with one cylinder per (name, direction, height, twist count k,
    height lift) row, of circumference mu * height / k, and lowest the
    name of its lowest vertical cylinder, of genus phi(h) / 2 for its
    Coxeter number h; refused unless that is the rank of Q."""
    genus = euler_phi(coxeter_number) // 2
    cylinders = []
    for name, d, h, k, lift in rows:
        c = h.times_generator() if k == 1 else h.times_generator() / mu.field.element([k])
        cylinders.append(CylinderDatum(name, d, h, c, k, lift))
    vertical = tuple(c for c in cylinders if c.direction == VERTICAL)
    model = SurfaceModel(
        family_tag=family_tag,
        graph=graph,
        mu=mu,
        heights=tuple(c.height for c in cylinders),
        horizontal=tuple(c for c in cylinders if c.direction == HORIZONTAL),
        vertical=vertical,
        genus=genus,
        zero_partition=partition,
        lowest_vertical=[c.name for c in vertical].index(lowest),
        coxeter_number=coxeter_number,
    )
    if not core_curve_span_check(model):
        raise MathematicalInconsistencyError(f"genus {genus} != rank of the intersection matrix")
    return model


def _staircase_normalize(mu, by_vertex, blacks, whites, anchor):
    """Rescale by mu / height(anchor), so the anchor's class has odd
    integer lifts and the other class even ones, or refuse.

    The anchor is the leaf of the star's longest arm, which has the
    lowest height, so the anchor becomes the lowest horizontal cylinder
    with height mu.  Proof: a vertex j places from its arm's leaf has
    height U_j(mu) times U_a(mu) over each other arm of length a, and
    the center U_a(mu) over all arms.  U_j(mu) = sin((j+1)pi/h) /
    sin(pi/h) is positive and strictly increasing in j while j + 1 <=
    h/2, and the arms of E7 / E8 are 2, 1, 3 / 2, 1, 4 long against
    h = 18 / 30.  So against the leaf of the longest arm, of length l,
    a vertex of that arm is U_j(mu) >= 1 times as high, the center
    U_l(mu) > 1 times, and a vertex of an arm of length a < l at least
    U_l(mu) / U_a(mu) > 1 times.  Requires the minimal polynomial of mu
    to be an even polynomial so canonical residues are parity-faithful
    lifts.
    """
    if not mu.field.modulus.even_terms_only():
        raise InapplicableModelError("modulus is not even; no canonical parity lift")
    scale = mu / by_vertex[anchor]
    scaled = {v: h * scale for v, h in by_vertex.items()}
    lifts = {v: h.integer_lift() for v, h in scaled.items() if h.is_integral_residue}
    horizontal, vertical = (blacks, whites) if anchor in blacks else (whites, blacks)
    if len(lifts) < len(scaled) or not (
        all(lifts[v].odd_terms_only() for v in horizontal)
        and all(lifts[v].even_terms_only() for v in vertical)
    ):
        raise MathematicalInconsistencyError("no staircase normalization found")
    return scaled, lifts, set(horizontal)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def staircase_parity_check(model):
    """Horizontal height lifts are odd integer polynomials in mu,
    vertical lifts are even, and some horizontal lift is mu itself.  No
    height is compared: that mu is the lowest horizontal height is proved
    by the build's anchor (_staircase_normalize), not checked here.

    The check runs on the stored polynomial lifts, never on residues
    reduced modulo the minimal polynomial; the build proves each embeds.
    """
    if not model.horizontal or not model.vertical:
        raise InapplicableModelError("model lacks a horizontal/vertical decomposition")
    anchor = IntPolynomial([0, 1])
    if not any(c.height_lift == anchor for c in model.horizontal):
        return False
    return all(c.height_lift.odd_terms_only() for c in model.horizontal) and all(
        c.height_lift.even_terms_only() for c in model.vertical
    )


def _z_alpha_test(model):
    """Exact membership test for Z[alpha], alpha = mu^2, in the model field.

    Even modulus f = g(x^2): Z[alpha] holds the elements with denominator
    1 and every odd coordinate 0.  Odd modulus: mu = -C_k(alpha - 2) for
    k = (h - 1)/2, h odd and the model's coxeter_number, C_k(2cos t) =
    2cos(kt) in Z[x].  That identity, checked once here as mu =
    -C_(h-1)(mu) (C_k(x^2 - 2) = C_(2k)(x)), gives Z[alpha] = Z[mu], the
    elements with denominator 1.  Any other model is refused
    (InapplicableModelError).
    """
    mu, modulus = model.mu, model.mu.field.modulus
    odd_coordinates_vanish = modulus.even_terms_only()
    if not odd_coordinates_vanish:
        h = model.coxeter_number
        if h % 2 == 0:
            raise InapplicableModelError(
                f"modulus {modulus} is not even and the model states no odd h (h = {h}): "
                "no closed form for Z[mu^2]"
            )
        if mu.field.element(_chebyshev_lists(h - 1, 2)[h - 1]) != -mu:
            raise InapplicableModelError(
                f"mu != -C_{(h - 1) // 2}(mu^2 - 2) for h = {h}: no closed form for Z[mu^2]"
            )

    def in_z_alpha(elem):
        if elem.field != mu.field:
            raise MixedModulusError("alpha and element live in different fields")
        return elem.den == 1 and not (odd_coordinates_vanish and any(elem.nums[1::2]))

    return in_z_alpha


def holonomy_basis_check(model):
    """Check core-curve holonomy lies in the rank-2 Z[mu^2]-lattice.

    Horizontal core curves have holonomy (mu*height, 0) and vertical
    ones (0, mu*height); membership in Z[alpha]*(mu^2, 0) + Z[alpha]*
    (0, y*mu) with alpha = mu^2 and y the lowest vertical height is
    decided exactly for each coordinate divided by its basis vector, by
    the closed form of Z[alpha] (_z_alpha_test: integer coordinates,
    and for an even modulus no odd ones).  y is read off the model
    (lowest_vertical, the build's closed form), not found by comparing
    heights; a model without that cylinder is refused.  A division by mu
    takes O(n) (over_generator): c / alpha is (c / mu) / mu, and c / (y
    mu) is (c / mu) times y^-1, the one inverse of the call.
    """
    vertical, lowest = model.vertical, model.lowest_vertical
    if not 0 <= lowest < len(vertical):
        raise InapplicableModelError("model has no lowest vertical cylinder to span the lattice")
    in_z_alpha = _z_alpha_test(model)
    y_inverse = vertical[lowest].height.inverse()
    # the lattice basis: holonomy (mu^2, 0) = (alpha, 0) and (0, y*mu)
    return all(
        in_z_alpha(cyl.circumference.over_generator().over_generator())
        for cyl in model.horizontal
    ) and all(
        in_z_alpha(cyl.circumference.over_generator() * y_inverse) for cyl in vertical
    )


def cylinder_bound_check(model):
    """Each direction has between g and g + s - 1 cylinders, for s zeros."""
    g, s = model.genus, len(model.zero_partition)
    return all(g <= len(side) <= g + s - 1 for side in (model.horizontal, model.vertical))


def core_curve_span_check(model):
    """Core curves span homology: the block skew intersection matrix
    [[0, Q], [-Q^T, 0]] has rank 2*genus, that is, Q has rank genus."""
    return rank(model.graph.intersections) == model.genus


def gluing_check(model):
    """Names of the cylinders that do not close up, in graph order.

    In Thurston's construction each cylinder's circumference is the sum,
    over the cylinders crossing it, of intersection count times height.
    It is read on model.graph's neighbour lists, vertex v being c_v as
    _two_coloured labels the graph's star (E7 / E8 by tag, else the path
    on its vertices), by exact field equality.  Not a structural check:
    every even n-gon fails at c_(n/2), whose stored circumference is
    twice its sum, as the quotient A(n/2) keeps one of the two cylinders
    crossing it.
    """
    tag = model.family_tag
    star = _SPORADIC[tag][:2] if tag in _SPORADIC else _path(len(model.graph.neighbours))
    _, blacks, whites = _two_coloured(*star)
    by_name = {c.name: c for c in model.cylinders}
    cylinders = [by_name.get(f"c_{v}") for v in blacks + whites]
    if None in cylinders:
        raise InapplicableModelError(f"the cylinders of {tag} do not match its graph")
    field = model.mu.field
    failed = []
    for cylinder, row in zip(cylinders, model.graph.neighbours):
        crossing = field.zero
        for u, count in row:
            crossing = crossing + field.element([count]) * cylinders[u].height
        if cylinder.circumference != crossing:
            failed.append(cylinder.name)
    return failed
