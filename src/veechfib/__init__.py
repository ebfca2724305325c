"""veechfib: exact invariants of congruence Veech fibrations.

An exact-arithmetic library and CLI computing the topological and
complex-geometric invariants (Euler characteristic, signature, Chern
numbers, Betti numbers, Kodaira type) of the complex surfaces fibered
over level-p congruence covers of the Teichmueller curves generated by
the known algebraically primitive flat surfaces, together with the
genus-one elliptic series.  No floating point enters any result: all
arithmetic runs over the rationals, number rings and finite fields.
"""


def _lazy_exports(namespace, exports):
    """Module __getattr__ and __dir__ (PEP 562) for the package whose
    globals are namespace and whose exports, a map from submodule to the
    names it exports, are imported on first use and then stay bound.  A
    submodule name resolves to the submodule."""
    from importlib import import_module

    package = namespace["__name__"]
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name in exports:
            return import_module(f"{package}.{name}")
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{package}.{home[name]}"), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | exports.keys() | home.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "covers": (
            "CongruenceDegree",
            "CoverData",
            "MatrixGroupSpec",
            "OrbifoldSignature",
            "congruence_degree",
            "cover_twisting",
            "group_closure_order",
            "riemann_hurwitz_cover",
            "theorem_generator_pair",
        ),
        "errors": ("VeechFibError",),
        "exact": (
            "FFElement",
            "FiniteFieldSpec",
            "IntPolynomial",
            "NumberFieldElement",
            "RealAlgebraicField",
            "RootInterval",
            "element_minimal_polynomial",
            "is_irreducible_mod_p",
            "is_quadratic_nonresidue",
            "isolate_largest_real_root",
            "minpoly_two_cos",
            "parse_polynomial",
        ),
        "families": (
            "CurveDataTable",
            "ExternalCurveData",
            "FamilyResult",
            "FamilySpec",
            "admissible_primes",
            "chern_scatter",
            "elliptic_family",
            "polygon_family",
            "sporadic_family",
            "weierstrass_family",
        ),
        "invariants": (
            "FibrationInvariants",
            "assemble_invariants",
            "bmy_sufficient",
            "kappa_bound_check",
            "kappa_mu",
            "kodaira_classify",
        ),
        "prototypes": (
            "Prototype",
            "enumerate_prototypes",
            "prototype_twisting",
            "weierstrass_alpha",
        ),
        "thurston_veech": (
            "BipartiteIntersectionGraph",
            "CylinderDatum",
            "SurfaceModel",
            "build_surface",
            "core_curve_span_check",
            "coxeter_graph",
            "cylinder_bound_check",
            "holonomy_basis_check",
            "perron_frobenius",
            "staircase_parity_check",
        ),
    },
)

__version__ = "0.1.0"
