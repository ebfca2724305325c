"""Flat-surface models built from bipartite intersection graphs.

The construction takes a pair of transverse multicurves encoded as a
bipartite graph (black = horizontal core curves, white = vertical ones,
entries of Q count intersections), solves the eigenvector system
Q h = mu h exactly in the number field of the dominant eigenvalue, and
produces a cylinder list in which every cylinder has inverse modulus mu
(circumference = mu * height).

The dominant eigenvalue is never searched for: mu = 2cos(pi/h) comes
from the cyclotomic formula for the diagram's Coxeter number h (n for
the n-gon, 18 for E7, 30 for E8), and a strictly positive exact
eigenvector certifies it (see perron_frobenius).  The eigenvector is
found by leaf propagation, which resolves every tree; a graph it leaves
unresolved raises UnsupportedGraphError, the only refusal of a graph.

Supported families are the path diagrams A(m) and the exceptional E7 /
E8 diagrams.  veechfib.tags.surface_tag parses a family tag once, into
its canonical form and Coxeter number h.  The n-gon has genus phi(n)/2
and zero partition (g - 1, g - 1) for n = 2 mod 4, else (2g - 2,); E7
and E8 carry theirs in one table.  For even n the order-2 rotation of
the path diagram is quotiented combinatorially on the cylinder list (one
cylinder kept per swapped pair, the middle one as is), with quotient
graph A(n/2).

Each model fact is proved once, by the build step that makes it:
perron_frobenius proves Q h = mu h (stored heights are a multiple of
its vector); _build_polygon checks each n-gon height against its
Chebyshev lift and, for even n, c_k against c_(n-k); E7/E8 lifts come
from integer_lift(); _checked_model refuses a model whose genus is not
rank Q (core_curve_span_check).  There is no separate verify step.

Cylinder heights are stored twice: as exact number-field elements and
as the integer polynomial lifts in mu used by the staircase parity
check (the lifts are NOT reduced modulo the minimal polynomial, which
matters when the minimal polynomial is not an even polynomial).

Level-independent work runs once per model and stays on it: the order
Z[alpha] of alpha = mu^2 in closed form (``SurfaceModel.alpha_basis``,
see AlphaOrder) and the structural checks the family pipelines keep in
``SurfaceModel.memo``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import (
    InapplicableModelError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MixedModulusError,
    UnsupportedFamilyError,
    UnsupportedGraphError,
)
from .exact.finitefield import is_irreducible_mod_p  # noqa: F401  (kept bound)
from .exact.linalg import charpoly, rank  # noqa: F401  (kept bound)
from .exact.numberfield import RealAlgebraicField, in_order  # noqa: F401  (kept bound)
from .exact.polynomials import (
    IntPolynomial, _two_cos_power_polys, cos_two_pi_minpoly, euler_phi, exact_integer,
    isolate_largest_real_root, translate,
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
        self.black_count = len(q)
        self.white_count = len(q[0])
        if any(all(x == 0 for x in row) for row in q):
            raise InvalidArgumentError("a black curve meets no white curve")
        for j in range(self.white_count):
            if all(q[i][j] == 0 for i in range(self.black_count)):
                raise InvalidArgumentError("a white curve meets no black curve")
        if not self._connected():
            raise InvalidArgumentError("intersection graph is not connected")

    def _connected(self):
        n = self.black_count + self.white_count
        adj = self.adjacency_matrix()
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u in range(n):
                if adj[v][u] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    def adjacency_matrix(self):
        """Full symmetric adjacency: blacks first, then whites."""
        b, w = self.black_count, self.white_count
        n = b + w
        adj = [[0] * n for _ in range(n)]
        for i in range(b):
            for j in range(w):
                adj[i][b + j] = adj[b + j][i] = self.intersections[i][j]
        return adj

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
    """An exceptional diagram and the surface it builds."""

    vertices: int
    edges: tuple  # Bourbaki numbering
    genus: int
    zero_partition: tuple


_SPORADIC = {
    "E7": _Diagram(7, ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)), 3, (1, 3)),
    "E8": _Diagram(8, ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)), 4, (6,)),
}


def _two_coloured(vertices, edges):
    """Bipartite graph of the tree on 1..vertices with these edges, with
    its black and white vertex lists: vertex 1 is black."""
    color = {1: 0}
    adj = {v: [] for v in range(1, vertices + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    stack = [1]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in color:
                color[u] = 1 - color[v]
                stack.append(u)
    blacks = sorted(v for v in color if color[v] == 0)
    whites = sorted(v for v in color if color[v] == 1)
    q = [[0] * len(whites) for _ in blacks]
    for a, b in edges:
        if color[a] == 1:
            a, b = b, a
        q[blacks.index(a)][whites.index(b)] = 1
    graph = BipartiteIntersectionGraph(q)
    return graph, blacks, whites


def coxeter_graph(family, size=None):
    """Bipartite graph of a Coxeter diagram: 'A' with a size, or E7 / E8.

    For type A the vertices are the path 1..size; odd positions are
    black, even positions white (path order).  E7 and E8 use the
    standard Bourbaki numbering.
    """
    if family == "A":
        if size is None or size < 2:
            raise InvalidArgumentError("type A needs a path length >= 2")
        return _two_coloured(size, [(k, k + 1) for k in range(1, size)])[0]
    if family in _SPORADIC:
        diagram = _SPORADIC[family]
        return _two_coloured(diagram.vertices, diagram.edges)[0]
    raise UnsupportedFamilyError(f"unknown Coxeter family: {family!r}")


# ---------------------------------------------------------------------------
# Perron-Frobenius data
# ---------------------------------------------------------------------------


def perron_frobenius(graph, coxeter_number):
    """Exact dominant eigendata of the full bipartite adjacency matrix.

    mu = 2cos(pi/h) for the Coxeter number h is taken from the cyclotomic
    formula: its field is that of cos_two_pi_minpoly(2h), at the root
    isolated as the largest.  The eigenvector is then solved by leaf
    propagation in that field from first entry 1, and the identity
    adjacency * heights = mu * heights is verified exactly.

    That identity with every height strictly positive is the
    certificate: the graph is connected, so its adjacency matrix is
    irreducible and nonnegative, and by Perron-Frobenius a strictly
    positive eigenvector belongs only to the spectral radius.  A wrong
    h fails with MathematicalInconsistencyError; only leaf propagation
    can refuse a graph (UnsupportedGraphError).  h must be an integer
    >= 3, as every graph with an edge has spectral radius >= 1.
    """
    if not isinstance(coxeter_number, int) or coxeter_number < 3:
        raise InvalidArgumentError("the Coxeter number must be an integer >= 3")
    modulus = cos_two_pi_minpoly(2 * coxeter_number)
    fld = RealAlgebraicField(modulus, isolate_largest_real_root(modulus, Fraction(1, 2**30)))
    mu = fld.generator
    adj = graph.adjacency_matrix()
    edges = [[(u, a) for u, a in enumerate(row) if a] for row in adj]
    heights = _solve_eigenvector(edges, fld, mu)
    _verify_eigenvector(edges, mu, heights)
    for h in heights:
        if h.sign() <= 0:
            raise MathematicalInconsistencyError("eigenvector is not strictly positive")
    return mu, heights


def _solve_eigenvector(edges, fld, mu):
    """Heights from first entry 1 by leaf propagation; edges[v] lists
    (neighbour, multiplicity) of vertex v."""
    n = len(edges)
    heights = [None] * n
    heights[0] = fld.one
    # Propagate: a vertex equation with exactly one unknown pins it down.
    # This resolves any tree in <= n rounds.
    for _ in range(n):
        progress = False
        for v in range(n):
            unknown = [(u, a) for u, a in edges[v] if heights[u] is None]
            if heights[v] is not None and len(unknown) == 1:
                u, a = unknown[0]
                acc = mu * heights[v]
                for w, b in edges[v]:
                    if w != u:
                        acc = acc - b * heights[w]
                if a != 1:
                    acc = acc / a
                heights[u] = acc
                progress = True
            elif heights[v] is None and not unknown:
                acc = fld.zero
                for w, b in edges[v]:
                    acc = acc + b * heights[w]
                heights[v] = acc / mu
                progress = True
        if all(h is not None for h in heights):
            return tuple(heights)
        if not progress:
            break
    raise UnsupportedGraphError(
        "leaf propagation cannot solve the eigenvector system; "
        "only tree diagrams are supported"
    )


def _verify_eigenvector(edges, mu, heights):
    for v, nbrs in enumerate(edges):
        acc = mu.field.zero
        for u, a in nbrs:
            acc = acc + a * heights[u]
        if acc != mu * heights[v]:
            raise MathematicalInconsistencyError("Q h = mu h fails exactly")


# ---------------------------------------------------------------------------
# Surface models
# ---------------------------------------------------------------------------


class CylinderDatum(NamedTuple):
    """One cylinder: direction, exact height/circumference, twist count.

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
    construction_graph: BipartiteIntersectionGraph
    mu: object
    heights: tuple
    horizontal: tuple
    vertical: tuple
    genus: int
    zero_partition: tuple


class SurfaceModel(_SurfaceFields):
    """Output of the construction for one family member.

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

    @cached_property
    def alpha_basis(self):
        """Z[alpha] for alpha = mu^2 in closed form (AlphaOrder), built and
        certified once per model."""
        return AlphaOrder.of_model(self)

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


class AlphaOrder(NamedTuple):
    """Z[alpha] for alpha = mu^2 in a model field, in closed form.

    Even modulus f = g(x^2): m_alpha = g, and Z[alpha] holds the elements
    with denominator 1 and every odd coordinate 0.  Odd modulus: mu =
    -C_k(alpha - 2) for k = (h - 1)/2, h odd and read from the family
    tag, C_k(2cos t) = 2cos(kt) in Z[x].  That identity, checked once,
    gives Z[alpha] = Z[mu], the elements with denominator 1, and
    m_alpha(x^2) = (-1)^n f(x) f(-x) for n = deg f.  Any other model is
    refused (InapplicableModelError).
    """

    alpha: object
    m_alpha: IntPolynomial
    odd_coordinates_vanish: bool

    @classmethod
    def of_model(cls, model):
        mu, modulus = model.mu, model.mu.field.modulus
        if modulus.even_terms_only():
            return cls(mu * mu, IntPolynomial(modulus.coefficients[::2]), True)
        try:
            h = surface_tag(model.family_tag)[1]
        except UnsupportedFamilyError:
            h = 0
        if h % 2 == 0:
            raise InapplicableModelError(
                f"modulus {modulus} is not even and {model.family_tag!r} gives no odd h: "
                "no closed form for Z[mu^2]"
            )
        k = (h - 1) // 2
        witness = translate(_two_cos_power_polys(k)[k], -2).coefficients  # C_k(y - 2)
        in_mu = [0] * (2 * len(witness) - 1)
        in_mu[::2] = witness
        if mu.field.element(in_mu) != -mu:
            raise InapplicableModelError(
                f"mu != -C_{k}(mu^2 - 2) for h = {h}: no closed form for Z[mu^2]"
            )
        mirrored = IntPolynomial([-c if i % 2 else c for i, c in enumerate(modulus.coefficients)])
        even = (modulus * mirrored * (-1) ** modulus.degree).coefficients
        return cls(mu * mu, IntPolynomial(even[::2]), False)

    def minimal_polynomial(self):
        return self.m_alpha

    def in_order(self, elem):
        """Exact membership of elem in Z[alpha]."""
        if elem.field != self.alpha.field:
            raise MixedModulusError("alpha and element live in different fields")
        return elem.den == 1 and not (self.odd_coordinates_vanish and any(elem.nums[1::2]))


@lru_cache(maxsize=None)
def _chebyshev_like(k):
    """P_k with P_k(2cos t) = sin((k+1)t)/sin(t); parity of P_k = parity of k."""
    if k < 2:
        return IntPolynomial([0, 1] if k else [1])
    return IntPolynomial([0, 1]) * _chebyshev_like(k - 1) - _chebyshev_like(k - 2)


@lru_cache(maxsize=None)
def build_surface(family_tag):
    """Build the exact surface model for polygon-n, E7 or E8.

    Heights are normalized so the lowest horizontal cylinder has height
    mu (the staircase normalization); horizontal cylinders are the ones
    whose height lifts are odd polynomials in mu.  An n-gon past the cap
    is refused first (capped_surface_tag).
    """
    tag, h = capped_surface_tag(family_tag)
    if tag in _SPORADIC:
        return _build_sporadic(tag, h)
    return _build_polygon(h)


def _build_polygon(n):
    construction = coxeter_graph("A", n - 1)
    mu, pf_heights = perron_frobenius(construction, n)
    fld = mu.field
    # vertex k (1-based along the path) has height P_{k-1}(mu);
    # construction-graph order is odd vertices then even vertices.
    order = list(range(1, n, 2)) + list(range(2, n, 2))
    by_vertex = {}
    for idx, k in enumerate(order):
        by_vertex[k] = pf_heights[idx]
        expected = fld.element(_chebyshev_like(k - 1).coefficients)
        if by_vertex[k] != expected:
            raise MathematicalInconsistencyError("path eigenvector is not Chebyshev")
    if n % 2 == 0 and any(by_vertex[k] != by_vertex[n - k] for k in range(1, n // 2)):
        raise MathematicalInconsistencyError("c_k and c_(n-k) differ in height")
    kept = range(1, n) if n % 2 == 1 else range(1, n // 2 + 1)
    rows = [
        (f"c_{k}", HORIZONTAL if k % 2 == 0 else VERTICAL, by_vertex[k], _chebyshev_like(k - 1))
        for k in kept
    ]
    genus = euler_phi(n) // 2
    partition = (genus - 1, genus - 1) if n % 4 == 2 else (2 * genus - 2,)
    graph = construction if n % 2 == 1 else coxeter_graph("A", n // 2)
    return _checked_model(f"polygon-{n}", graph, construction, mu, rows, genus, partition)


def _build_sporadic(which, coxeter_number):
    diagram = _SPORADIC[which]
    graph, blacks, whites = _two_coloured(diagram.vertices, diagram.edges)
    mu, pf_heights = perron_frobenius(graph, coxeter_number)
    order = blacks + whites
    by_vertex = {v: pf_heights[i] for i, v in enumerate(order)}
    scaled, lifts, horizontal_set = _staircase_normalize(mu, by_vertex, blacks, whites)
    rows = [
        (f"c_{v}", HORIZONTAL if v in horizontal_set else VERTICAL, scaled[v], lifts[v])
        for v in sorted(by_vertex)
    ]
    return _checked_model(which, graph, graph, mu, rows, diagram.genus, diagram.zero_partition)


def _checked_model(family_tag, graph, construction, mu, rows, genus, partition):
    """Model with one unit-twist cylinder per (name, direction, height,
    height lift) row, circumference mu * height; refused unless the
    genus is the rank of the intersection matrix."""
    cylinders = [CylinderDatum(name, d, h, mu * h, 1, lift) for name, d, h, lift in rows]
    model = SurfaceModel(
        family_tag=family_tag,
        graph=graph,
        construction_graph=construction,
        mu=mu,
        heights=tuple(c.height for c in cylinders),
        horizontal=tuple(c for c in cylinders if c.direction == HORIZONTAL),
        vertical=tuple(c for c in cylinders if c.direction == VERTICAL),
        genus=genus,
        zero_partition=partition,
    )
    if not core_curve_span_check(model):
        raise MathematicalInconsistencyError(f"genus {genus} != rank of the intersection matrix")
    return model


def _staircase_normalize(mu, by_vertex, blacks, whites):
    """Rescale so one class has odd integer lifts, the other even.

    Tries scalings mu / h over candidate lowest-horizontal cylinders;
    requires the minimal polynomial of mu to be an even polynomial so
    canonical residues are parity-faithful lifts.
    """
    if not mu.field.modulus.even_terms_only():
        raise InapplicableModelError("modulus is not even; no canonical parity lift")
    # smallest height first (exact comparisons); the stable sort keeps
    # vertex order among equal heights
    candidates = sorted(by_vertex)
    candidates.sort(key=by_vertex.__getitem__)
    for v0 in candidates:
        scale = mu / by_vertex[v0]
        scaled = {v: h * scale for v, h in by_vertex.items()}
        if not all(h.is_integral_residue for h in scaled.values()):
            continue
        lifts = {v: h.integer_lift() for v, h in scaled.items()}
        side_of_v0 = blacks if v0 in blacks else whites
        other = whites if v0 in blacks else blacks
        if all(lifts[v].odd_terms_only() for v in side_of_v0) and all(
            lifts[v].even_terms_only() for v in other
        ):
            return scaled, lifts, set(side_of_v0)
    raise MathematicalInconsistencyError("no staircase normalization found")


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def staircase_parity_check(model):
    """Horizontal height lifts are odd integer polynomials in mu and
    vertical lifts are even, in the normalization with the lowest
    horizontal height equal to mu.

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


def holonomy_basis_check(model):
    """Check core-curve holonomy lies in the rank-2 Z[mu^2]-lattice.

    Horizontal core curves have holonomy (mu*height, 0) and vertical
    ones (0, mu*height); membership in Z[alpha]*(mu^2, 0) + Z[alpha]*
    (0, y*mu) with alpha = mu^2 and y the lowest vertical height is
    decided exactly for each coordinate divided by its basis vector, by
    the closed form of Z[alpha] (AlphaOrder: integer coordinates, and
    for an even modulus no odd ones).  Each basis vector is inverted
    once per call.
    """
    order = model.alpha_basis
    y = min(model.vertical, key=lambda c: c.height).height
    # the lattice basis: holonomy (mu^2, 0) = (alpha, 0) and (0, y*mu)
    bases = ((model.horizontal, order.alpha), (model.vertical, y * model.mu))
    for cylinders, basis in bases:
        inverse = basis.inverse()
        if not all(order.in_order(cyl.circumference * inverse) for cyl in cylinders):
            return False
    return True


def cylinder_bound_check(model):
    """Each direction has between g and g + s - 1 cylinders, for s zeros."""
    g, s = model.genus, len(model.zero_partition)
    return all(g <= len(side) <= g + s - 1 for side in (model.horizontal, model.vertical))


def core_curve_span_check(model):
    """Core curves span homology: the block skew intersection matrix
    [[0, Q], [-Q^T, 0]] has rank 2*genus, that is, Q has rank genus."""
    return rank(model.graph.intersections) == model.genus
