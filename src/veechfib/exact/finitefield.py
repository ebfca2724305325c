"""Finite field arithmetic F_p[x]/(f) and residue tests mod p.

Polynomials over F_p are tuples of ints in [0, p), ascending degree.
Products in F_p[x]/(f) run on one kernel (_QuotientRing): one integer
product of the packed coefficients, whose top slots are then folded
down by x^n mod f, each coefficient reduced mod p once.

Irreducibility is Rabin's test (Rabin 1980): f of degree n is
irreducible iff x^(p^n) = x mod f and gcd(f, x^(p^(n/r)) - x) = 1 for
each prime r | n; the gcds are taken only when n has two distinct
prime factors or more.  As g(x)^p = sum g_i x^(ip) over F_p, each
packed x^(p^k) is one product by the Frobenius (Berlekamp) matrix,
whose row i is x^(ip) mod f.  Only the boolean is needed; nothing is
factored.
"""

from __future__ import annotations

from ..errors import InvalidArgumentError
from .polynomials import IntPolynomial, prime_factors

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n):
    """Deterministic Miller-Rabin on the prime bases 2 ... 41, exact for
    all n below 3.3 * 10^24 (psi_13, the least composite they pass)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # a composite this small has a prime factor <= 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p):
    """Refuse by InvalidArgumentError a level that is not an odd prime int
    (a bool or a float such as 3.0 included)."""
    if type(p) is not int or p == 2 or not is_prime(p):
        raise InvalidArgumentError(f"{p} is not an odd prime")


# -- dense polynomial arithmetic over F_p -----------------------------------


def pstrip(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def preduce(f, p):
    return pstrip([c % p for c in f])


class _QuotientRing:
    """F_p[x]/(f), f of degree n made monic.  A residue is packed: its n
    coefficients in [0, p) lie s bits apart in one integer, s wide
    enough for a convolution plus a fold."""

    def __init__(self, fbar, p):
        n, inv = len(fbar) - 1, pow(fbar[-1], -1, p)
        self.n, self.p, self.s = n, p, (2 * n * (p - 1) ** 2).bit_length()
        self.low = self.pack([-c * inv % p for c in fbar[:-1]])  # x^n mod f

    def pack(self, coeffs):
        out, s = 0, self.s
        for c in reversed(coeffs):
            out = out << s | c
        return out

    def reduce(self, c, degree):
        """The packed residue of a packed polynomial of the given degree:
        each slot from the top down to x^n is reduced mod p once and
        folded down by x^n = low, then each of the n low slots is reduced."""
        n, p, s, low = self.n, self.p, self.s, self.low
        for k in range(degree, n - 1, -1):
            top = c >> s * k
            c = (c ^ top << s * k) + (top % p * low << s * (k - n))
        out, mask = 0, (1 << s) - 1
        for i in range(n):
            out |= (c & mask) % p << s * i
            c >>= s
        return out

    def fold(self, c, degree):
        """reduce, unpacked to its n coefficients."""
        c, s = self.reduce(c, degree), self.s
        return [c >> s * i & (1 << s) - 1 for i in range(self.n)]

    def mul(self, a, b):
        return self.fold(self.pack(a) * self.pack(b), 2 * self.n - 2)

    def pow(self, a, e):
        """a^e, packed, for a packed a and e >= 0 by square-and-multiply."""
        out, top = a if e else 1, 2 * self.n - 2
        for bit in bin(e)[3:]:
            out = self.reduce(out * out, top)
            if bit == "1":
                out = self.reduce(out * a, top)
        return out


def _coprime(f, g, p):
    """True when gcd(f, g) over F_p is a nonzero constant, by Euclid with
    one modular inverse a step; f and g must be stripped and reduced mod p."""
    f, g = list(f), list(g)
    while len(g) > 1:
        inv, m = pow(g[-1], -1, p), len(g) - 1
        while len(f) > m:
            c, k = f.pop() * inv % p, len(f) - m
            for i in range(m):
                f[k + i] = (f[k + i] - c * g[i]) % p
        f, g = g, list(pstrip(f))
    return bool(g)


def is_irreducible_mod_p(f, p):
    """Rabin's irreducibility test for f over F_p.

    Requires p prime, f nonconstant, and the leading coefficient of f
    nonzero mod p (a degree drop would silently change the question).

    x^(p^k) = x at some k < n proves f reducible (x would have fewer than
    n conjugates in F_(p^n)).  For n = r^a, r prime, that test at k = n/r
    replaces the gcd: if x^(p^n) = x mod f, f divides x^(p^n) - x, so it
    is squarefree and each irreducible factor has degree dividing n; if f
    is also reducible, each degree is a proper divisor of r^a, so divides
    n/r, hence x^(p^(n/r)) = x mod f and the loop has returned False.
    """
    if not isinstance(f, IntPolynomial):
        f = IntPolynomial(f)
    if not is_prime(p):
        raise InvalidArgumentError(f"{p} is not prime")
    if f.degree < 1:
        raise InvalidArgumentError("polynomial must be nonconstant")
    if f.leading_coefficient % p == 0:
        raise InvalidArgumentError(
            f"leading coefficient of {f} vanishes mod {p} (degree drop)"
        )
    fbar = preduce(f.coefficients, p)
    n = len(fbar) - 1
    if n == 1:
        return True
    ring = _QuotientRing(fbar, p)
    s, x = ring.s, 1 << ring.s
    frob = ring.pow(x, p)  # x^(p^k) mod f, from k = 1
    rows = [1, frob]  # row i = x^(ip) mod f
    while len(rows) < n:
        rows.append(ring.reduce(rows[-1] * frob, 2 * n - 2))
    gcd_steps = {n // r for r in prime_factors(n)}
    for k in range(1, n):
        if frob == x:
            return False  # every factor has degree dividing k < n
        if len(gcd_steps) > 1 and k in gcd_steps and not _coprime(
            fbar, pstrip(ring.fold(frob + (p - 1) * x, n - 1)), p
        ):
            return False
        frob = ring.reduce(sum((frob >> s * i & x - 1) * row for i, row in enumerate(rows)), n - 1)
    return frob == x


def is_quadratic_nonresidue(d, p):
    """True when d is not a square mod p; Euler's criterion.

    Agrees with is_irreducible_mod_p on x^2 - d by construction; p must
    be an odd prime not dividing d.
    """
    check_odd_prime(p)
    if d % p == 0:
        raise InvalidArgumentError(f"{p} divides {d}")
    return pow(d % p, (p - 1) // 2, p) == p - 1


# -- field extensions --------------------------------------------------------


class FiniteFieldSpec:
    """F_p[x]/(modulus): characteristic p and a verified-irreducible modulus."""

    def __init__(self, p, modulus):
        if not isinstance(modulus, IntPolynomial):
            modulus = IntPolynomial(modulus)
        if not is_prime(p):
            raise InvalidArgumentError(f"{p} is not prime")
        if not is_irreducible_mod_p(modulus, p):
            raise InvalidArgumentError(f"{modulus} is reducible mod {p}")
        self.p = p
        self.modulus = modulus
        self.degree = modulus.degree
        self.order = p**modulus.degree
        self._ring = _QuotientRing(preduce(modulus.coefficients, p), p)
        self.zero, self.one = self.element(0), self.element(1)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteFieldSpec)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"FiniteFieldSpec(GF({self.p})[x]/({self.modulus}))"

    def element(self, coeffs):
        coeffs = [c % self.p for c in ([coeffs] if isinstance(coeffs, int) else coeffs)]
        return FFElement(self, self._ring.fold(self._ring.pack(coeffs), len(coeffs) - 1))

    @property
    def generator(self):
        """The residue of x (a root of the modulus, not always primitive)."""
        return self.element((0, 1))

    def elements(self):
        """All p^degree field elements, lexicographic by coefficient vector."""
        from itertools import product

        for tup in product(range(self.p), repeat=self.degree):
            yield FFElement(self, tup)

    def element_index(self, elem):
        """The integer in [0, order) whose base-p digits are the coefficients."""
        index = 0
        for c in reversed(elem.coeffs):  # Horner, from the top digit
            index = index * self.p + c
        return index


class FFElement:
    """Element of a FiniteFieldSpec; coefficient tuple reduced mod p."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        self.spec = spec
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if not isinstance(other, FFElement) or other.spec != self.spec:
            raise InvalidArgumentError("elements belong to different finite fields")

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FFElement(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FFElement(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.spec.p
        return FFElement(self.spec, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        return FFElement(spec, spec._ring.mul(self.coeffs, other.coeffs))

    def __pow__(self, e):
        if e < 0:
            raise InvalidArgumentError(f"exponent {e} is negative")
        ring = self.spec._ring
        return FFElement(self.spec, ring.fold(ring.pow(ring.pack(self.coeffs), e), ring.n - 1))

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and other.spec == self.spec
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.modulus, self.coeffs))

    def __repr__(self):
        return f"FFElement({list(self.coeffs)} over GF({self.spec.p})^{self.spec.degree})"
