"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a polynomial in zeta_n of degree below phi(n), reduced modulo
the n-th cyclotomic polynomial Phi_n (the power-basis canonical form).  It
is stored as a tuple ``num`` of phi(n) integer numerators over one positive
integer denominator ``den``, in lowest terms: ``gcd(den, *num) == 1``, so
zero is stored with ``den == 1``.  Every value therefore has exactly one
representation, and equality compares ``(conductor, num, den)``.

All arithmetic is on Python ints.  Addition adds numerators over a common
denominator and needs no polynomial reduction; multiplication convolves the
numerators and reduces modulo the monic integer Phi_n; both then divide out
the gcd.  At phi(n) == 1 (conductors 1 and 2) an element is one rational
and multiplication is a single product.  Fractions appear only at the
edge: parsing input coefficients, the read-only ``coeffs`` view used for
printing and JSON, and ``from_rational``.  A value compares equal to an int
or a Fraction when it is that rational number.
There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence, Union

Rational = Union[int, Fraction]


class ConductorMismatch(Exception):
    """Raised when combining cyclotomic values with different conductors."""


def _polymul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _polydiv_exact(num: Sequence[int], den: Sequence[int]) -> tuple[int, ...]:
    """Exact quotient of integer polynomials (monic divisor, zero remainder)."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd]
        q[i] = c
        if c:
            for j, cd in enumerate(den):
                num[i + j] -= c * cd
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return tuple(q)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the product of the lower cyclotomic
    polynomials at the divisors of n.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (n - 1) + [1])
    den = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _polymul(den, cyclotomic_polynomial(d))
    return _polydiv_exact(num, den)


@lru_cache(maxsize=None)
def _reduction_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (degree, coefficient) terms of Phi_n below its
    leading one, so that x^phi = -sum(c * x^j) modulo Phi_n."""
    mod = cyclotomic_polynomial(n)
    phi = len(mod) - 1
    return phi, tuple((j, c) for j, c in enumerate(mod[:phi]) if c)


def _reduce(num: list[int], n: int) -> list[int]:
    """Reduce an integer polynomial modulo the monic Phi_n to length phi(n)."""
    phi, terms = _reduction_terms(n)
    for i in range(len(num) - 1, phi - 1, -1):
        c = num[i]
        if c:
            base = i - phi
            for j, cm in terms:
                num[base + j] -= c * cm
    del num[phi:]
    num += [0] * (phi - len(num))
    return num


def _row_product(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The product of two numerator rows in Z[zeta_n], reduced modulo Phi_n,
    for Cyclotomic values and PPElement rows alike; a one-entry row is an
    integer."""
    if len(b) == 1:
        k = b[0]
        return [c * k for c in a]
    nonzero = [(j, c) for j, c in enumerate(b) if c]
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in nonzero:
                out[i + j] += c * d
    return _reduce(out, n)


def _lowest(num, den: int) -> tuple[tuple[int, ...], int]:
    """Numerators and denominator num/den with their common factor removed;
    a zero numerator vector gets denominator 1."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def _operand(n: int, other) -> tuple[tuple[int, ...], int] | None:
    """Numerators and denominator of a Cyclotomic or rational operand; a
    rational has a single numerator, its constant term."""
    if isinstance(other, Cyclotomic):
        if other.conductor != n:
            raise ConductorMismatch(f"conductors differ: {n} vs {other.conductor}")
        return other.num, other.den
    if isinstance(other, int):
        return (other,), 1
    if isinstance(other, Fraction):
        return (other.numerator,), other.denominator
    return None


class Cyclotomic:
    """An element of Q(zeta_n) in reduced canonical form: integer
    numerators ``num`` over the positive denominator ``den``, in lowest
    terms."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Sequence[Rational]):
        values = [Fraction(c) for c in coeffs]
        den = lcm(*(v.denominator for v in values))
        num = _reduce([v.numerator * (den // v.denominator) for v in values],
                      conductor)
        self.conductor = conductor
        self.num, self.den = _lowest(num, den)

    @classmethod
    def _new(cls, n: int, num: tuple[int, ...], den: int) -> Cyclotomic:
        """An element from numerators and denominator already in canonical
        form, without the parsing of ``__init__``."""
        self = object.__new__(cls)
        self.conductor = n
        self.num = num
        self.den = den
        return self

    @classmethod
    def zero(cls, n: int) -> Cyclotomic:
        return _zero(n)

    @classmethod
    def one(cls, n: int) -> Cyclotomic:
        return zeta_power(n, 0)

    @classmethod
    def from_rational(cls, n: int, value: Rational) -> Cyclotomic:
        value = Fraction(value)
        phi = _reduction_terms(n)[0]
        return cls._new(n, (value.numerator,) + (0,) * (phi - 1), value.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, zeta, ..., zeta^(phi-1) as rationals."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other):
        n = self.conductor
        operand = _operand(n, other)
        if operand is None:
            return NotImplemented
        onum, oden = operand
        num, den = self.num, self.den
        if oden != den:
            num = [c * oden for c in num]
            onum = [c * den for c in onum]
            den *= oden
        if len(onum) == 1:
            out = list(num)
            out[0] += onum[0]
        else:
            out = [a + b for a, b in zip(num, onum)]
        return Cyclotomic._new(n, *_lowest(out, den))

    def __mul__(self, other):
        n = self.conductor
        operand = _operand(n, other)
        if operand is None:
            return NotImplemented
        onum, oden = operand
        return Cyclotomic._new(n, *_lowest(_row_product(self.num, onum, n), self.den * oden))

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return (self.conductor == other.conductor and self.den == other.den
                    and self.num == other.num)
        operand = _operand(self.conductor, other)
        if operand is None:
            return NotImplemented
        (value,), den = operand
        return self.den == den and self.num[0] == value and not any(self.num[1:])

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {self})"

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}z^{i}" if i > 1 else f"{mag}z"
                if not parts:
                    parts.append(("-" if c < 0 else "") + term)
                else:
                    parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"conductor": self.conductor,
                "coeffs": [str(c) for c in self.coeffs]}


@lru_cache(maxsize=None)
def _zero(n: int) -> Cyclotomic:
    return Cyclotomic._new(n, (0,) * _reduction_terms(n)[0], 1)


@lru_cache(maxsize=None)
def zeta_power(n: int, k: int) -> Cyclotomic:
    """The canonical representative of zeta_n^k."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return Cyclotomic._new(n, tuple(_reduce([0] * (k % n) + [1], n)), 1)
