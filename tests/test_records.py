"""The result records are NamedTuples: immutable, validated where they
were validated before, and cheap to import."""

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
