"""Complete invariant tables for the congruence fibration families.

Four series are orchestrated end to end:

  * weierstrass(D): the genus-2 eigenform curves, cusps enumerated by
    integer prototypes, curve Euler characteristics ingested (or, for
    fundamental discriminants, computed from the real-quadratic zeta
    value at -1 via the classical divisor-sum formula);
  * polygon(n): regular n-gon surfaces for n an odd prime > 3, twice
    such a prime, or a power of two >= 8, built exactly through the
    staircase model;
  * sporadic E7 / E8, built from the exceptional diagrams;
  * elliptic(m): the genus-one series over principal congruence covers
    of the modular curve.

Each family builds its spec, checks the level, and finds the cover
degree and the base's orbifold Euler characteristic; one shared step,
evaluate, then runs Riemann-Hurwitz, twisting and the characteristic
numbers for all of them, and the family adds its own checks.  One
builder, model_spec, gives the polygon and E7 / E8 specs: each Veech
group is fixed by the Coxeter number h (Veech 1989; Leininger 2004),
Delta(2, h, oo) for odd h and Delta(h/2, oo, oo) for even h.  The
level test needs only alpha = 2 + 2cos(2pi/h), so admissible_primes
builds no model.  All but the elliptic family are also evaluated
through literal closed-form tables (genus, cusps, e, sigma as
functions of d, n, p) so the two code paths can be diffed; see
closed_forms_* below.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from importlib import import_module
from typing import NamedTuple

from .covers import (
    CongruenceDegree,
    CoverData,
    OrbifoldSignature,
    congruence_degree,
    cover_twisting,
    riemann_hurwitz_cover,
)
from .errors import (
    CapExceededError,
    InadmissiblePrimeError,
    InconsistentCoverError,
    InvalidArgumentError,
    MathematicalInconsistencyError,
    MissingCurveDataError,
    UnsupportedFamilyError,
)
from .exact.finitefield import is_prime, is_quadratic_nonresidue
from .exact.finitefield import is_irreducible_mod_p  # noqa: F401  (kept bound)
from .exact.polynomials import (
    IntPolynomial, cos_two_pi_minpoly, prime_factors, rational_to_str, translate
)
from .invariants import FibrationInvariants, assemble_invariants, bmy_sufficient
from .prototypes import (
    check_enumerable,
    divisor_rows,
    enumerate_prototypes,
    prototype_twisting,
    standard_parameters,
    weierstrass_alpha,
)

# The model layer (thurston_veech, and numberfield and linalg under it)
# is loaded on the model path's first use, not at import: these names
# are then bound as this module's globals, and the model path calls
# through them.  A name already bound here is kept, so a rebinding made
# before that first use stays in force.
_MODEL_LAYER = {
    "HolonomyBasis": "veechfib.thurston_veech",
    "build_surface": "veechfib.thurston_veech",
    "capped_surface_tag": "veechfib.thurston_veech",
    "core_curve_span_check": "veechfib.thurston_veech",
    "cylinder_bound_check": "veechfib.thurston_veech",
    "holonomy_basis_check": "veechfib.thurston_veech",
    "staircase_parity_check": "veechfib.thurston_veech",
    "surface_tag": "veechfib.thurston_veech",
    "element_minimal_polynomial": "veechfib.exact.numberfield",  # (kept bound)
}
_model_layer_bound = False


def _bind_model_layer():
    global _model_layer_bound
    namespace = globals()
    for name, module in _MODEL_LAYER.items():
        namespace.setdefault(name, getattr(import_module(module), name))
    _model_layer_bound = True


def __getattr__(name):
    if name not in _MODEL_LAYER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_model_layer()
    return globals()[name]


# ---------------------------------------------------------------------------
# External curve data for the Weierstrass series
# ---------------------------------------------------------------------------


class _CurveDataFields(NamedTuple):
    discriminant: int
    chi: Fraction
    e2: int = None


class ExternalCurveData(_CurveDataFields):
    __slots__ = ()

    def __new__(cls, discriminant, chi, e2=None):
        if chi >= 0:
            raise InvalidArgumentError("curve Euler characteristic must be negative")
        if e2 is not None and e2 < 0:
            raise InvalidArgumentError("e2 must be a nonnegative integer")
        return super().__new__(cls, discriminant, chi, e2)


def is_fundamental_discriminant(d):
    if d % 4 == 1:
        return _squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(m)
    return False


def _squarefree(n):
    n = abs(n)
    return all(n % (p * p) for p in prime_factors(n))


def real_quadratic_zeta_minus_one(d):
    """zeta_K(-1) for K real quadratic of fundamental discriminant d >= 5,
    as a Fraction.

    Classical divisor-sum evaluation:
        zeta_K(-1) = (1/60) * sum over b = d mod 2, b^2 < d
                     of sigma_1((d - b^2)/4),
    with b and -b read from one row of prototypes.divisor_rows.
    """
    if d < 5:
        raise InvalidArgumentError(f"{d} is not the discriminant of a real quadratic field")
    if not is_fundamental_discriminant(d):
        raise InvalidArgumentError(f"{d} is not a fundamental discriminant")
    total = sum((2 if e else 1) * sum(divs) for e, divs in divisor_rows(d))
    return Fraction(total, 60)


# chi values pinned independently of the zeta formula
_BUILTIN_CHI = {5: Fraction(-3, 10), 8: Fraction(-3, 4)}


class CurveDataTable:
    """chi(C_D) and order-2 point counts, from a CSV and/or formulas.

    Lookup order: user CSV rows, the pinned values for D in {5, 8},
    then the zeta formula chi = -(9/2) * 2 * zeta_K(-1) for fundamental
    D not 1 mod 8 (for D = 1 mod 8 the formula only gives the total
    over both spin components, so it is not used).  e2 is taken from
    the CSV when present; for 8 < D <= 41 with D != 1 mod 8 it can be
    derived from chi and the cusp count because the curve has genus 0
    and only order-2 orbifold points there.
    """

    def __init__(self, rows=()):
        self._rows = {r.discriminant: r for r in rows}

    @classmethod
    def from_csv(cls, path):
        """Rows of a CSV with columns D, chi_num, chi_den and optional e2;
        a file that cannot be read or parsed raises InvalidArgumentError."""
        rows = []
        try:
            with open(path, newline="") as fh:
                for rec in csv.DictReader(fh):
                    rows.append(
                        ExternalCurveData(
                            discriminant=int(rec["D"]),
                            chi=Fraction(int(rec["chi_num"]), int(rec["chi_den"])),
                            e2=int(rec["e2"]) if rec.get("e2") not in (None, "", "-") else None,
                        )
                    )
        except (OSError, csv.Error, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InvalidArgumentError(f"bad curve data file {str(path)!r}: {exc!r}") from None
        return cls(rows)

    def chi(self, d):
        if d in self._rows:
            return self._rows[d].chi, "table"
        if d in _BUILTIN_CHI:
            return _BUILTIN_CHI[d], "builtin"
        if is_fundamental_discriminant(d) and d % 8 != 1:
            return -9 * real_quadratic_zeta_minus_one(d), "zeta-formula"
        raise MissingCurveDataError(
            f"no Euler characteristic available for D = {d}; supply a data CSV"
        )

    def e2(self, d, cusp_count):
        row = self._rows.get(d)
        if row is not None and row.e2 is not None:
            return row.e2
        if 8 < d <= 41 and d % 8 != 1:
            chi, _ = self.chi(d)
            # genus 0, only order-2 points: chi = 2 - |cusps| - e2/2
            e2 = 2 * (2 - cusp_count - chi)
            if e2.denominator != 1 or e2 < 0:
                raise MissingCurveDataError(f"derived e2 for D = {d} is not admissible")
            return int(e2)
        return None


# ---------------------------------------------------------------------------
# Family data and results
# ---------------------------------------------------------------------------


class FamilySpec(NamedTuple):
    """Static data of one family member, before choosing a level."""

    tag: str
    fiber_genus: int
    zero_partition: tuple
    alpha_minimal_polynomial: object
    contains_minus_identity: bool
    signature_orbifold: object  # OrbifoldSignature or None (Weierstrass)
    base_twists: tuple  # twist count of the minimal multitwist per base cusp

    @property
    def roots(self):
        """Root index k_c per base cusp: 1 in every family."""
        return (1,) * len(self.base_twists)

    def to_json(self):
        return {
            "tag": self.tag,
            "fiber_genus": self.fiber_genus,
            "zero_partition": list(self.zero_partition),
            "alpha_minimal_polynomial": self.alpha_minimal_polynomial.to_json(),
            "contains_minus_identity": self.contains_minus_identity,
            "base_twists": list(self.base_twists),
            "roots": list(self.roots),
            "pi1_criterion": True,  # core curves cross the polygon boundary once
        }


class FamilyResult(NamedTuple):
    spec: FamilySpec
    level: int
    cover: CoverData
    invariants: FibrationInvariants
    checks: dict
    closed_forms: dict = None

    def to_json(self):
        out = {
            "family": self.spec.tag,
            "level": self.level,
            "spec": self.spec.to_json(),
            "cover": self.cover.to_json(),
            "invariants": self.invariants.to_json(),
            "checks": {k: _jsonable(v) for k, v in self.checks.items()},
        }
        if self.closed_forms is not None:
            out["closed_forms"] = {k: _jsonable(v) for k, v in self.closed_forms.items()}
        return out


def _jsonable(v):
    if isinstance(v, Fraction):
        return rational_to_str(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def evaluate(spec, level, degree_data, chi_orb, checks, **options):
    """Cover, twisting and invariants: the one pipeline every family runs.

    The base has orbifold Euler characteristic chi_orb, the cone points
    of spec.signature_orbifold (the Weierstrass chi_orb carries its own)
    and one cusp per entry of spec.base_twists, whose image order is
    the level: a cusp generator is unipotent and nontrivial mod the
    level, of order p at a prime level p and m in SL(2, Z/m).  options
    go to assemble_invariants; the result has no closed forms.
    """
    sig = spec.signature_orbifold
    orbifold_orders = sig.orbifold_orders if sig is not None else ()
    try:
        cover = riemann_hurwitz_cover(
            chi_orb,
            degree_data.degree,
            orbifold_orders,
            orbifold_orders,
            (level,) * len(spec.base_twists),
        )
    except InconsistentCoverError as exc:
        branch = ", exceptional branch" if degree_data.exceptional else ""
        raise InconsistentCoverError(
            f"{spec.tag} at level {level} (degree {degree_data.degree}{branch}): {exc}"
        ) from None
    total_t, per_cusp = cover_twisting(
        cover.cusps_per_orbit, cover.cusp_image_orders, spec.base_twists, spec.roots
    )
    cover = cover._replace(
        group_label=degree_data.group_label, exceptional=degree_data.exceptional
    ).with_twisting(per_cusp, total_t)
    invariants = assemble_invariants(
        fiber_genus=spec.fiber_genus,
        base_genus=cover.base_genus,
        cusp_count=cover.cusp_count,
        twisting=total_t,
        zero_partition=spec.zero_partition,
        **options,
    )
    return FamilyResult(
        spec=spec, level=level, cover=cover, invariants=invariants, checks=checks
    )


# ---------------------------------------------------------------------------
# Weierstrass series
# ---------------------------------------------------------------------------


def weierstrass_alpha_polynomial(d):
    """m_alpha of discriminant D from its standard parameters."""
    w, e = standard_parameters(d)
    m_alpha = weierstrass_alpha(w, e)
    # discriminant identity: disc(m_alpha) = e^2 + 4w = D
    b, c = m_alpha.coefficients[1], m_alpha.coefficients[0]
    if b * b - 4 * c != d:
        raise InvalidArgumentError("trace-field polynomial discriminant mismatch")
    return m_alpha


def weierstrass_family(d, p, data=None, spin_filter=None):
    """Full pipeline for the discriminant-D eigenform at level p; every
    refusal comes before the prototypes are enumerated (order of the
    checks: see veechfib.prototypes)."""
    data = data if data is not None else CurveDataTable()
    check_enumerable(d, spin_filter)
    m_alpha = weierstrass_alpha_polynomial(d)
    try:
        degree_data = congruence_degree(m_alpha, p, 2, True)
    except InadmissiblePrimeError:
        if d % p == 0:  # ramified: m_alpha has a double root mod p
            raise
        degree_data = None
    # Euler's criterion, an independent second route to an unramified level
    if d % p and is_quadratic_nonresidue(d, p) != (degree_data is not None):
        raise InvalidArgumentError("residue test disagrees with irreducibility")
    if degree_data is None:
        raise InadmissiblePrimeError(f"D = {d} is a quadratic residue mod {p}; level inadmissible")
    chi, chi_source = data.chi(d)
    protos = enumerate_prototypes(d, spin_filter)
    n_orbits = len(protos)
    spec = FamilySpec(
        tag=f"weierstrass-{d}",
        fiber_genus=2,
        zero_partition=(2,),
        alpha_minimal_polynomial=m_alpha,
        contains_minus_identity=True,
        signature_orbifold=None,
        base_twists=tuple(map(prototype_twisting, protos)),
    )
    checks = {"chi_source": chi_source, "chi": chi, "prototype_count": n_orbits}
    result = evaluate(
        spec,
        p,
        degree_data,
        chi,
        checks,
        # the one base-genus-0 member with a proof
        minimality_proven=d == 5 and p == 3,
    )
    cover = result.cover
    bmy = bmy_sufficient(2, cover.cusp_count, cover.total_twisting)
    checks["bmy_sufficient"] = bmy if cover.base_genus >= 1 else None
    e2 = data.e2(d, n_orbits)
    if 8 < d <= 41 and e2 is not None:
        # genus positivity of the cover for every p >= 3:
        # |P|/2 + e2/4 - |P|/(2p) >= 1
        lhs = Fraction(n_orbits, 2) + Fraction(e2, 4) - Fraction(n_orbits, 2 * p)
        checks["genus_positivity"] = lhs >= 1
        checks["e2"] = e2
    return result._replace(
        closed_forms=closed_forms_weierstrass(d, p, degree_data.degree, chi, spec.base_twists),
    )


def closed_forms_weierstrass(d, p, degree, chi, base_twists):
    """Tabulated closed forms for the Weierstrass series, from the
    prototype_twisting of each prototype (spec.base_twists).

    The twist sum is the table's sum of (1 + h/w) * w/gcd(w, h), which
    equals (w + h)/gcd(w, h) = prototype_twisting term by term.
    """
    n = len(base_twists)
    total_t = degree * Fraction(sum(base_twists))
    cusps = Fraction(degree, p) * n
    e = -2 * (degree * chi + cusps) + total_t
    sigma = Fraction(-4 * degree, 9) * chi - Fraction(2, 3) * total_t
    return {
        "degree": degree,
        "cusps": cusps,
        "genus": 1 - Fraction(degree, 2 * p) * n - Fraction(degree, 2) * chi,
        "twisting": total_t,
        "euler": e,
        "sigma": sigma,
    }


# ---------------------------------------------------------------------------
# Polygon series
# ---------------------------------------------------------------------------


def model_spec(tag):
    """Spec and cached model of the polygon-n, E7 or E8 surface: the base
    and its cusps follow from the Coxeter number h (see the module
    docstring), m_alpha is read from the model."""
    if not _model_layer_bound:
        _bind_model_layer()
    tag, h = surface_tag(tag)
    model = build_surface(tag)
    m_alpha = model.alpha_basis.minimal_polynomial()
    if h % 2:
        signature, base_twists = OrbifoldSignature(0, (2, h), 1), (len(model.horizontal),)
    else:
        signature = OrbifoldSignature(0, (h // 2,), 2)
        base_twists = (len(model.horizontal), len(model.vertical))
    spec = FamilySpec(
        tag=tag,
        fiber_genus=model.genus,
        zero_partition=model.zero_partition,
        alpha_minimal_polynomial=m_alpha,
        contains_minus_identity=tag.startswith("polygon-"),
        signature_orbifold=signature,
        base_twists=base_twists,
    )
    return spec, model


def run_structural_checks(model):
    """Level-independent checks, run once per model and kept in its memo;
    each call returns a fresh dict the caller may extend."""
    if not _model_layer_bound:
        _bind_model_layer()
    checks = model.memo.get("structural_checks")
    if checks is None:
        basis = holonomy_basis_check(model)
        checks = model.memo["structural_checks"] = {
            "staircase_parity": staircase_parity_check(model),
            "holonomy_basis": isinstance(basis, HolonomyBasis),
            "cylinder_bounds": cylinder_bound_check(model, len(model.zero_partition)),
            "core_curve_span": core_curve_span_check(model),
        }
    return dict(checks)


def polygon_family(n, p):
    """Full pipeline for the regular n-gon surface at level p."""
    return _model_family(
        f"polygon-{n}",
        p,
        lambda degree: closed_forms_polygon(n, p, degree),
        minimality_proven=n == 5 and p == 3,
    )


def _model_family(tag, p, closed_forms, minimality_proven=False):
    """The polygon and sporadic pipeline over the tag's surface model."""
    spec, model = model_spec(tag)
    checks = run_structural_checks(model)
    if not all(checks.values()):
        raise MathematicalInconsistencyError(f"structural checks failed: {checks}")
    degree_data = congruence_degree(
        spec.alpha_minimal_polynomial, p, spec.fiber_genus, spec.contains_minus_identity
    )
    result = evaluate(
        spec,
        p,
        degree_data,
        spec.signature_orbifold.euler_characteristic,
        checks,
        minimality_proven=minimality_proven,
    )
    cover = result.cover
    if cover.base_genus >= 1:
        checks["bmy_sufficient"] = bmy_sufficient(
            spec.fiber_genus, cover.cusp_count, cover.total_twisting
        )
    return result._replace(closed_forms=closed_forms(degree_data.degree))


def closed_forms_polygon(n, p, degree):
    """Literal closed forms of the polygon tables, as exact rationals.

    For n = 2q the tabulated signature disagrees with the signature
    formula applied to the fiber's zero partition (the tabulated value
    corresponds to doubling kappa); it is reproduced here verbatim so
    the two code paths can be compared.
    """
    d = degree
    if n % 2 == 1:
        q = n
        g = (q - 1) // 2
        genus = 1 + Fraction(d, 2) * (Fraction(1, 2) - Fraction(1, q) - Fraction(1, p))
        cusps = Fraction(d, p)
        twisting = d * g
        e = d * (
            (q - 3) * (Fraction(1, 2) - Fraction(1, q) - Fraction(1, p))
            + Fraction(q - 1, 2)
        )
        sigma = -Fraction(d * (q * q - 1), 4 * q)
    elif (n // 2) % 2 == 1:
        q = n // 2
        g = (q - 1) // 2
        genus = 1 + d * (Fraction(1, 2) - Fraction(1, 2 * q) - Fraction(1, p))
        cusps = Fraction(2 * d, p)
        twisting = d * (2 * g + 1)
        e = d * (
            (2 * q - 6) * (Fraction(1, 2) - Fraction(1, 2 * q) - Fraction(1, p)) + q
        )
        sigma = -Fraction(d * (q * q + 2 * q + 3), 3 * q)
    else:
        k = n.bit_length() - 1
        g = 2 ** (k - 2)
        genus = 1 + d * (Fraction(1, 2) - Fraction(1, n) - Fraction(1, p))
        cusps = Fraction(2 * d, p)
        twisting = 2 * d * g
        e = d * (
            (2**k - 4) * (Fraction(1, 2) - Fraction(1, 2**k) - Fraction(1, p))
            + 2 ** (k - 1)
        )
        sigma = -d * (2 ** (k - 2) + Fraction(1, 3))
    return {
        "degree": d,
        "genus": genus,
        "cusps": cusps,
        "twisting": twisting,
        "euler": e,
        "sigma": sigma,
    }


# ---------------------------------------------------------------------------
# Sporadic series
# ---------------------------------------------------------------------------


def sporadic_family(which, p):
    """Full pipeline for the E7 or E8 surface at level p."""
    if not _model_layer_bound:
        _bind_model_layer()
    tag, _ = surface_tag(which)
    if tag.startswith("polygon-"):
        raise UnsupportedFamilyError(f"sporadic family must be E7 or E8, not {which!r}")
    return _model_family(tag, p, lambda degree: closed_forms_sporadic(tag, p, degree))


def closed_forms_sporadic(which, p, degree):
    d = degree
    if which.upper() == "E7":
        genus = 1 + Fraction(d, 2) * (Fraction(8, 9) - Fraction(2, p))
        e = d * (Fraction(95, 9) - Fraction(8, p))
        sigma = -Fraction(35, 9) * d
        g = 3
    else:
        genus = 1 + Fraction(d, 2) * (Fraction(14, 15) - Fraction(2, p))
        e = d * (Fraction(68, 5) - Fraction(12, p))
        sigma = -Fraction(64, 15) * d
        g = 4
    return {
        "degree": d,
        "genus": genus,
        "cusps": Fraction(2 * d, p),
        "twisting": (g + 4) * d,
        "euler": e,
        "sigma": sigma,
    }


# ---------------------------------------------------------------------------
# Elliptic series
# ---------------------------------------------------------------------------


def principal_congruence_index(m):
    """Index of the level-m principal congruence subgroup in PSL(2, Z)."""
    if m < 3:
        raise InvalidArgumentError("level must be >= 3")
    idx = m**3
    for p in prime_factors(m):
        idx = idx // (p * p) * (p * p - 1)
    return idx // 2


# Largest elliptic level: the index factors m by trial division to sqrt(m)
MAX_ELLIPTIC_M = 10**12
# Largest primes --bound: admissible_primes runs the level test per odd prime
MAX_PRIME_BOUND = 10**5
# Largest scatter D: chern_scatter(5, 10**5, 7) takes about 30 s
MAX_SCATTER_D = 10**5


def elliptic_family(m):
    """Genus-one fibration over the level-m principal congruence cover."""
    if m > MAX_ELLIPTIC_M:
        raise CapExceededError(f"level m = {m} exceeds the size cap m <= {MAX_ELLIPTIC_M}")
    degree = principal_congruence_index(m)
    sig = OrbifoldSignature(0, (2, 3), 1)
    spec = FamilySpec(
        tag=f"elliptic-{m}",
        fiber_genus=1,
        zero_partition=(),
        alpha_minimal_polynomial=_X_MINUS_ONE,
        contains_minus_identity=True,
        signature_orbifold=sig,
        base_twists=(1,),
    )
    smooth_tag = {3: "E(1)", 4: "E(2)", 5: "E(5)"}.get(m)
    checks = {"smooth_4manifold": smooth_tag} if smooth_tag else {}
    return evaluate(
        spec,
        m,
        CongruenceDegree(degree, 2 * degree, f"PSL(2,Z/{m})", False),
        sig.euler_characteristic,
        checks,
        elliptic_level=m,
    )


_X_MINUS_ONE = IntPolynomial([-1, 1])


# ---------------------------------------------------------------------------
# Level admissibility and the Chern scatter
# ---------------------------------------------------------------------------


def family_alpha_polynomial(family_tag):
    """Minimal polynomial of the congruence parameter, plus its genus.

    A surface of Coxeter number h has alpha = 2 + 2cos(2pi/h): m_alpha
    is that of 2cos(2pi/h) at x - 2, of degree the genus, with no model.
    """
    prefix, _, number = family_tag.strip().partition("-")
    if prefix.lower() == "weierstrass":
        try:
            d = int(number)
        except ValueError:
            raise UnsupportedFamilyError(f"unknown family tag: {family_tag!r}") from None
        return weierstrass_alpha_polynomial(d), 2
    if not _model_layer_bound:
        _bind_model_layer()
    _, h = capped_surface_tag(family_tag)
    m_alpha = translate(cos_two_pi_minpoly(h), -2)
    return m_alpha, m_alpha.degree


def admissible_primes(family_tag, bound):
    """(p, exceptional) for each odd prime p <= bound that congruence_degree
    admits, with exceptional as congruence_degree reports it."""
    if bound < 3:
        raise InvalidArgumentError("bound must be >= 3")
    if bound > MAX_PRIME_BOUND:
        raise CapExceededError(f"bound {bound} exceeds the size cap bound <= {MAX_PRIME_BOUND}")
    m_alpha, genus = family_alpha_polynomial(family_tag)
    out = []
    for p in filter(is_prime, range(3, bound + 1, 2)):
        try:
            out.append((p, congruence_degree(m_alpha, p, genus, True).exceptional))
        except InadmissiblePrimeError:
            pass
    return out


def chern_scatter(d_min, d_max, p, data=None, spin_filter=None):
    """(c2, c1^2) per admissible nonsquare discriminant in [d_min, d_max].

    Discriminants that are squares, residues mod p, spin-split without
    a filter, missing curve data, or whose cover genus is not an integer
    (inconsistent-cover, D = 8 at p = 3) are skipped (and reported).
    A d_max above MAX_SCATTER_D is refused before the sweep.
    """
    if p == 2 or not is_prime(p):
        raise InvalidArgumentError(f"{p} is not an odd prime")
    if d_max > MAX_SCATTER_D:
        raise CapExceededError(f"max D = {d_max} exceeds the size cap D <= {MAX_SCATTER_D}")
    data = data if data is not None else CurveDataTable()
    rows = []
    skipped = []
    for d in range(d_min, d_max + 1):
        if d % 4 not in (0, 1) or d < 5:
            continue
        if math.isqrt(d) ** 2 == d:
            continue
        if d % 8 == 1 and spin_filter is None:
            skipped.append((d, "spin-filter-required"))
            continue
        if d % p == 0:
            skipped.append((d, "ramified"))
            continue
        try:
            if not is_quadratic_nonresidue(d, p):
                skipped.append((d, "residue"))
                continue
            result = weierstrass_family(d, p, data=data, spin_filter=spin_filter)
        except MissingCurveDataError:
            skipped.append((d, "missing-curve-data"))
            continue
        except InconsistentCoverError:
            skipped.append((d, "inconsistent-cover"))
            continue
        except InadmissiblePrimeError:
            skipped.append((d, "residue"))
            continue
        rows.append((d, result.invariants.c2, result.invariants.c1_squared))
    return rows, skipped


def chern_scatter_csv(rows):
    """Scatter CSV: exact integers plus a 12-digit decimal ratio."""
    buf = io.StringIO()
    buf.write("# bmy-line: c1sq = 3*c2\n")
    buf.write("# noether-line: c1sq = (c2 - 36)/5\n")
    buf.write("D,c2,c1sq,c1sq_over_c2\n")
    for d, c2, c1sq in rows:
        ratio = _decimal_string(Fraction(c1sq, c2), 12) if c2 else "0"
        buf.write(f"{d},{c2},{c1sq},{ratio}\n")
    return buf.getvalue()


def _decimal_string(x, digits):
    sign = "-" if x < 0 else ""
    x = abs(Fraction(x))
    scaled = (x * 10**digits).numerator // (x * 10**digits).denominator
    s = str(scaled).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"
