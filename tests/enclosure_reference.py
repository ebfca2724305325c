"""Signs and order of number-field elements by interval enclosure: the
reference route for the surface build's integer proofs.

This is the real embedding the library used before the build proved its
heights positive in integers and read its lowest vertical height off a
closed form: an element's residue is evaluated by interval Horner over a
root interval (lower, upper) of its field's modulus, refined by width/4
(root_refine_reference.bisect_by_signs) until the bounds decide.  A
field holds no root: the interval is the one the caller passes, or else
the one root_refine_reference isolates around the modulus's largest
root from Fujiwara's bound.  ``Embedded`` orders elements by that
embedding, for ``min`` and the comparison operators; this only serves
tests.
"""

import functools

import root_refine_reference
from veechfib.errors import InvalidArgumentError, VeechFibError
from veechfib.exact.numberfield import NumberFieldElement
from veechfib.exact.polynomials import scaled_integers


class EnclosureDivergenceError(VeechFibError, ArithmeticError):
    """Interval evaluation of a number-ring element never separated its
    value from zero, as for a zero divisor of a reducible modulus."""


@functools.lru_cache(maxsize=None)
def largest_root(modulus):
    """The reference's interval (lower, upper) around the largest real
    root of modulus, at its default width."""
    return root_refine_reference.isolate_largest_real_root(modulus)


def enclosures(elem, root=None):
    """Rational bounds lo / den <= value <= hi / den, as the integers
    (lo, hi, den) with den > 0, and the root interval they were read on:
    first over root (largest_root of the modulus by default), then over
    each refinement of it by width/4, up to 400; at an exact root
    lo == hi and the sequence ends.

    Horner runs on the integer numerators over the common denominator D
    of the element and e of the interval: after k steps the bounds are
    integers over D e^(k-1), one positive denominator, so every min and
    max is the one Fraction Horner takes, and the bounds are the same
    rationals.  Over a nonnegative root interval [p, q] the sign of each
    bound picks its product (lo * p or lo * q, hi * q or hi * p), so two
    products replace the four.
    """
    nums = list(elem.nums)
    while nums and not nums[-1]:
        nums.pop()
    modulus = elem.field.modulus
    root = root or largest_root(modulus)
    if not nums:
        yield 0, 0, 1, root
        return
    for _ in range(400):
        (p, q), e = scaled_integers(root)
        alo = ahi = 0
        scale = 1
        if p >= 0:
            for c in reversed(nums):
                t = c * scale
                alo, ahi = alo * (p if alo >= 0 else q) + t, ahi * (q if ahi >= 0 else p) + t
                scale *= e
        else:
            for c in reversed(nums):
                products = (alo * p, alo * q, ahi * p, ahi * q)
                alo, ahi = min(products) + c * scale, max(products) + c * scale
                scale *= e
        yield alo, ahi, elem.den * scale // e, root
        lower, upper = root
        if lower == upper:
            return
        root = root_refine_reference.bisect_by_signs(modulus, lower, upper, (upper - lower) / 4)
    raise EnclosureDivergenceError("root enclosure did not converge")


def sign(elem, root=None):
    """Sign of the element under the embedding at root, refining from
    root (largest_root of the modulus by default)."""
    if not any(elem.nums[1:]):
        c = elem.nums[0]
        return (c > 0) - (c < 0)
    for lo, hi, _, root in enclosures(elem, root):
        if lo > 0 or hi < 0 or root[0] == root[1]:
            return 1 if lo > 0 else (-1 if hi < 0 else 0)


def less(a, b, root=None):
    """a < b under the embedding, for elements of one field only."""
    if not isinstance(a, NumberFieldElement):
        raise InvalidArgumentError(f"cannot compare {type(a).__name__} with a field element")
    a._check(b)
    return sign(a - b, root) < 0


@functools.total_ordering
class Embedded:
    """A field element ordered by its real embedding."""

    def __init__(self, elem):
        self.elem = elem

    def __eq__(self, other):
        return self.elem == other.elem

    def __lt__(self, other):
        return less(self.elem, other.elem)
