"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored as rational coefficient vectors of length phi(n),
reduced modulo the n-th cyclotomic polynomial, so equality is plain
coefficient equality.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

Rational = Union[int, Fraction]


class ConductorMismatch(Exception):
    """Raised when combining cyclotomic values with different conductors."""


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


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


def _reduce(coeffs: list[Fraction], n: int) -> tuple[Fraction, ...]:
    """Reduce a rational polynomial modulo Phi_n to length phi(n)."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            for j, cm in enumerate(mod):
                coeffs[i - phi + j] -= c * cm
    coeffs = coeffs[:phi]
    coeffs += [Fraction(0)] * (phi - len(coeffs))
    return tuple(coeffs)


class Cyclotomic:
    """An element of Q(zeta_n) in reduced canonical form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs: Sequence[Rational]):
        self.conductor = conductor
        self.coeffs = _reduce([Fraction(c) for c in coeffs], conductor)
        self._hash = hash((conductor, self.coeffs))

    @classmethod
    def zero(cls, n: int) -> Cyclotomic:
        return cls(n, [])

    @classmethod
    def one(cls, n: int) -> Cyclotomic:
        return cls(n, [1])

    @classmethod
    def from_rational(cls, n: int, value: Rational) -> Cyclotomic:
        return cls(n, [Fraction(value)])

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductors differ: {self.conductor} vs {other.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.conductor, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.conductor,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Cyclotomic(self.conductor, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction | None:
        """The value as a rational number, or None if it is irrational."""
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.conductor, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

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

    @classmethod
    def from_json(cls, data: dict) -> Cyclotomic:
        return cls(data["conductor"], [Fraction(c) for c in data["coeffs"]])


def zeta_power(n: int, k: int) -> Cyclotomic:
    """The canonical representative of zeta_n^k."""
    k %= n
    return Cyclotomic(n, [0] * k + [1])
