"""The result records are NamedTuples: immutable, validated where they
were validated before, and cheap to import."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from veechfib.covers import (
    CoverData,
    MatrixGroupSpec,
    OrbifoldSignature,
    congruence_degree,
    theorem_generator_pair,
)
from veechfib.errors import InvalidArgumentError
from veechfib.exact.finitefield import FiniteFieldSpec
from veechfib.exact.polynomials import IntPolynomial
from veechfib.families import ExternalCurveData, polygon_family
from veechfib.thurston_veech import (
    HolonomySpanFailure,
    build_surface,
    holonomy_basis_check,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps .pth hooks of the environment from preloading either module
    code = (
        "import sys, veechfib.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def _modules_after(code, *argv):
    """The veechfib modules loaded once code has run, with argv as
    sys.argv[1:], in a fresh -S interpreter."""
    code += "; import json; print(json.dumps([m for m in sys.modules if m.startswith('veechfib')]))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(out.stdout.splitlines()[-1]))


# the CLI run as the console script does, its output discarded
_RUN_CLI = (
    "import io, sys; from veechfib.cli import main; "
    "sys.stdout = sys.stderr = io.StringIO(); main(sys.argv[1:]); "
    "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__"
)
_ARITHMETIC = {
    "veechfib.covers",
    "veechfib.exact.finitefield",
    "veechfib.exact.linalg",
    "veechfib.exact.numberfield",
    "veechfib.exact.polynomials",
    "veechfib.families",
    "veechfib.invariants",
    "veechfib.prototypes",
    "veechfib.thurston_veech",
}
_MODEL_LAYER = {"veechfib.thurston_veech", "veechfib.exact.numberfield", "veechfib.exact.linalg"}


def test_package_import_loads_no_submodule():
    assert _modules_after("import sys, veechfib") == {"veechfib"}


def test_submodules_resolve_as_package_attributes_on_first_use():
    code = (
        "import sys, veechfib; "
        "assert {'covers', 'exact'} <= set(dir(veechfib)); "
        "assert veechfib.covers.congruence_degree and 'linalg' in dir(veechfib.exact); "
        "assert veechfib.exact.linalg.charpoly"
    )
    assert "veechfib.exact.linalg" in _modules_after(code)


@pytest.mark.parametrize("argv", ["polygon --n x --p 3", "frobnicate", "group-order --p 3"])
def test_usage_error_loads_no_arithmetic(argv):
    assert not _modules_after(_RUN_CLI, *argv.split()) & _ARITHMETIC


@pytest.mark.parametrize(
    "argv",
    [
        "prototypes --D 5",
        "cover --orbifold-orders 2,5 --cusp-image-orders 3 --degree 60 --base-twists 2",
        "group-order --p 3 --modulus x^2-x-1 --alpha 1,1",
        "elliptic --m 3",
        "weierstrass --D 5 --p 3",
        "primes --family weierstrass-5 --bound 20",
    ],
)
def test_commands_without_a_surface_skip_the_model_layer(argv):
    loaded = _modules_after(_RUN_CLI, *argv.split())
    assert "veechfib.cli" in loaded
    assert not loaded & _MODEL_LAYER


def test_a_polygon_request_loads_the_model_layer():
    assert _modules_after(_RUN_CLI, "polygon", "--n", "5", "--p", "3") >= _MODEL_LAYER


def test_a_rebinding_before_the_model_layer_loads_stays_in_force():
    # assigned before the first model-path call, with no lookup first
    code = (
        "import sys; from veechfib import families; "
        "from veechfib.thurston_veech import holonomy_basis_check as check; "
        "assert 'build_surface' not in vars(families); calls = []; "
        "families.holonomy_basis_check = lambda m: calls.append(m.family_tag) or check(m); "
        "families.polygon_family(5, 3); assert calls == ['polygon-5'], calls"
    )
    assert _modules_after(code) >= _MODEL_LAYER


# every name the package exported when it imported its submodules eagerly
_PACKAGE_EXPORTS = {
    "covers": (
        "CongruenceDegree", "CoverData", "MatrixGroupSpec", "OrbifoldSignature",
        "congruence_degree", "cover_twisting", "group_closure_order",
        "riemann_hurwitz_cover", "theorem_generator_pair",
    ),
    "errors": ("VeechFibError",),
    "exact": (
        "FFElement", "FiniteFieldSpec", "IntPolynomial", "NumberFieldElement",
        "RealAlgebraicField", "RootInterval", "element_minimal_polynomial",
        "is_irreducible_mod_p", "is_quadratic_nonresidue", "isolate_largest_real_root",
        "minpoly_two_cos", "parse_polynomial",
    ),
    "families": (
        "CurveDataTable", "ExternalCurveData", "FamilyResult", "FamilySpec",
        "admissible_primes", "chern_scatter", "elliptic_family", "polygon_family",
        "sporadic_family", "weierstrass_family",
    ),
    "invariants": (
        "FibrationInvariants", "assemble_invariants", "bmy_sufficient",
        "kappa_bound_check", "kappa_mu", "kodaira_classify",
    ),
    "prototypes": (
        "Prototype", "enumerate_prototypes", "prototype_twisting", "weierstrass_alpha",
    ),
    "thurston_veech": (
        "BipartiteIntersectionGraph", "CylinderDatum", "SurfaceModel", "build_surface",
        "core_curve_span_check", "coxeter_graph", "cylinder_bound_check",
        "holonomy_basis_check", "perron_frobenius", "staircase_parity_check",
    ),
}


def test_lazy_package_exports_resolve_as_before():
    import importlib

    import veechfib
    import veechfib.exact

    listed = set(dir(veechfib))
    for module_name, names in _PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"veechfib.{module_name}")
        assert module_name in listed
        assert getattr(veechfib, module_name) is module
        for name in names:
            assert name in listed, name
            assert getattr(veechfib, name) is getattr(module, name), name
    assert set(veechfib.exact.__all__) <= set(dir(veechfib.exact))
    assert all(hasattr(veechfib.exact, name) for name in veechfib.exact.__all__)
    for package in (veechfib, veechfib.exact):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")


def _records():
    """One instance of each of the twelve record classes."""
    field = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    model = build_surface("polygon-5")
    result = polygon_family(5, 3)
    return [
        OrbifoldSignature(0, (2, 5), 1),
        CoverData(1, 0, 3, (3,), (1,)),
        congruence_degree(IntPolynomial([1, -3, 1]), 3, 2, True),
        theorem_generator_pair(field),
        ExternalCurveData(17, Fraction(-3, 2)),
        result.spec,
        result,
        result.invariants,
        model.horizontal[0],
        model,
        holonomy_basis_check(model),
        HolonomySpanFailure("c_1"),
    ]


def test_every_record_refuses_attribute_assignment():
    records = _records()
    assert len({type(r).__name__ for r in records}) == 12
    for record in records:
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            record.extra = 1


def test_records_are_tuples():
    sig = OrbifoldSignature(0, (2, 5), 1)
    assert sig == (0, (2, 5), 1)
    _, orders, _ = sig
    assert orders == sig[1] == (2, 5)
    assert sig._asdict() == {"base_genus": 0, "orbifold_orders": (2, 5), "cusp_count": 1}
    assert sig._replace(cusp_count=2).euler_characteristic == Fraction(-13, 10)


def test_replaced_surface_model_starts_with_empty_caches():
    model = build_surface("polygon-5")
    polygon_family(5, 3)  # fills the cached model's memo and alpha basis
    assert "structural_checks" in model.memo
    copy = model._replace()
    assert copy == model and copy is not model
    assert copy.memo == {} and copy.memo is not model.memo
    assert copy.alpha_basis is not model.alpha_basis
    assert copy.alpha_basis.minimal_polynomial() == model.alpha_basis.minimal_polynomial()
    copy.memo["mark"] = True
    assert "mark" not in model.memo


def test_orbifold_signature_messages_in_order():
    for args, message in (
        ((-1, (1,), 0), "negative orbifold data"),
        ((0, (2,), -1), "negative orbifold data"),
        ((0, (1,), 0), "orbifold orders must be >= 2"),
        ((0, (2,), 0), "orbifold is not hyperbolic"),
    ):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            OrbifoldSignature(*args)
    with pytest.raises(InvalidArgumentError, match="^negative orbifold data$"):
        OrbifoldSignature(base_genus=-1, orbifold_orders=(), cusp_count=3)


def test_matrix_group_spec_messages_in_order():
    f3 = FiniteFieldSpec(3, IntPolynomial([-1, -1, 1]))
    f5 = FiniteFieldSpec(5, IntPolynomial([-2, 1]))
    singular = ((f3.one, f3.zero), (f3.zero, f3.zero))
    foreign = ((f5.one, f5.zero), (f5.zero, f5.zero))  # also singular
    with pytest.raises(InvalidArgumentError, match="^generator entries live in the wrong field$"):
        MatrixGroupSpec(f3, (foreign,))
    with pytest.raises(InvalidArgumentError, match="^generator determinant is not 1$"):
        MatrixGroupSpec(f3, (singular,))
    with pytest.raises(InvalidArgumentError, match="^generator determinant is not 1$"):
        MatrixGroupSpec(field=f3, generators=(theorem_generator_pair(f3).generators[0], singular))


def test_external_curve_data_messages_in_order():
    with pytest.raises(InvalidArgumentError, match="^curve Euler characteristic must be negative$"):
        ExternalCurveData(13, Fraction(0), e2=-1)
    with pytest.raises(InvalidArgumentError, match="^e2 must be a nonnegative integer$"):
        ExternalCurveData(13, Fraction(-3, 2), -40)
    assert ExternalCurveData(13, Fraction(-3, 2)).e2 is None
