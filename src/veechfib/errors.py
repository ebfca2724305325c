"""Exception hierarchy for the veechfib package.

Input-validation failures (bad discriminants, unsupported families,
inadmissible primes) are distinguished from mathematical inconsistencies
discovered mid-computation (non-integral cover genus, identity
violations).  The CLI maps the former to exit code 2 and the latter to
exit code 1.  check_int is the one type gate for a size argument.
"""


class VeechFibError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(VeechFibError, ValueError):
    """An argument fails a precondition (wrong range, wrong type, ...)."""


def check_int(value, name):
    """Refuse by InvalidArgumentError a size argument that is not an int
    (a bool or a float such as 5.0 included), as check_odd_prime does."""
    if type(value) is not int:
        raise InvalidArgumentError(f"{name} must be an int, not {value!r}")


class DivisionByZeroError(VeechFibError, ZeroDivisionError):
    """Exact division by zero: by the zero polynomial, or the inverse of
    zero in a number ring."""


class ZeroDivisorError(DivisionByZeroError):
    """A nonzero element shares a factor with a reducible modulus, so it
    has no inverse."""


class UnsupportedFamilyError(InvalidArgumentError):
    """A family tag outside the supported series was requested."""


class InvalidDiscriminantError(InvalidArgumentError):
    """Discriminant is square or not congruent to 0, 1 mod 4."""


class SpinRequiredError(InvalidArgumentError):
    """Prototype enumeration for D = 1 mod 8 needs an explicit spin filter."""


class InadmissiblePrimeError(InvalidArgumentError):
    """The residue criterion rejects this prime for the given family."""


class MixedModulusError(InvalidArgumentError):
    """Arithmetic was attempted between elements of different number rings."""


class NonIntegralElementError(VeechFibError):
    """Minimal polynomial of a non-integral element was requested as integer.

    Carries the exact rational coefficients in ``rational_coefficients``.
    """

    def __init__(self, message, rational_coefficients):
        super().__init__(message)
        self.rational_coefficients = tuple(rational_coefficients)


class MathematicalInconsistencyError(VeechFibError):
    """A derived quantity violates an exact identity it must satisfy."""


class RootBracketError(MathematicalInconsistencyError):
    """A start interval given to root isolation is not certified to hold
    exactly one real root, a simple one, with none above it."""


class InconsistentCoverError(MathematicalInconsistencyError):
    """Riemann-Hurwitz data does not produce a nonnegative integer genus."""


class InvalidRootDataError(MathematicalInconsistencyError):
    """A cusp twist count fails integrality against its root index."""


class CapExceededError(VeechFibError):
    """A request was refused by a size cap: a group-order search whose
    |SL(2, q)| exceeds the configured cap, a parsed polynomial past the
    largest degree expanded, or an n-gon model past the largest n that
    is built."""


class InapplicableModelError(InvalidArgumentError):
    """A structural check was invoked on a model it does not apply to."""


class MissingCurveDataError(InvalidArgumentError):
    """No Euler characteristic data is available for this discriminant."""
