from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppring.cyclo import Cyclotomic, ConductorMismatch, cyclotomic_polynomial, zeta_power


@lru_cache(maxsize=None)
def euler_phi(n):
    """Euler's totient, computed by sympy."""
    return int(pytest.importorskip("sympy").totient(n))


class FractionCyclotomic:
    """The earlier implementation of Cyclotomic on a tuple of Fractions,
    reduced modulo Phi_n after every operation: a test-only reference for
    the integer-numerator form."""

    def __init__(self, n, coeffs):
        phi = euler_phi(n)
        mod = cyclotomic_polynomial(n)
        coeffs = [Fraction(c) for c in coeffs]
        for i in range(len(coeffs) - 1, phi - 1, -1):
            c = coeffs[i]
            if c:
                for j, cm in enumerate(mod):
                    coeffs[i - phi + j] -= c * cm
        coeffs = coeffs[:phi]
        self.conductor = n
        self.coeffs = tuple(coeffs + [Fraction(0)] * (phi - len(coeffs)))

    def _coerce(self, other):
        if isinstance(other, FractionCyclotomic):
            return other
        return FractionCyclotomic(self.conductor, [other])

    def __add__(self, other):
        other = self._coerce(other)
        return FractionCyclotomic(self.conductor,
                                  [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FractionCyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionCyclotomic(self.conductor, out)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def as_rational(self):
        if any(c != 0 for c in self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __str__(self):
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

    def to_json(self):
        return {"conductor": self.conductor, "coeffs": [str(c) for c in self.coeffs]}


class TestCyclotomicPolynomial:
    def test_n1(self):
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_n6(self):
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_n4(self):
        assert cyclotomic_polynomial(4) == (1, 0, 1)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.symbols("x")
        for n in range(1, 31):
            ours = cyclotomic_polynomial(n)
            theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
            assert list(ours) == [int(c) for c in theirs]
            assert len(ours) - 1 == euler_phi(n)


class TestZetaPower:
    def test_zeroth_power(self):
        assert zeta_power(5, 0) == Cyclotomic.one(5)

    def test_phi3_relation(self):
        assert zeta_power(3, 1) + zeta_power(3, 2) == Cyclotomic.from_rational(3, -1)

    def test_zeta6_cubed(self):
        assert zeta_power(6, 3) == Cyclotomic.from_rational(6, -1)

    def test_full_power_is_one(self):
        for n in (1, 2, 3, 4, 6, 8, 12):
            assert zeta_power(n, n) == Cyclotomic.one(n)

    def test_phi_n_vanishes_at_zeta(self):
        for n in (2, 3, 4, 6, 12):
            phi = cyclotomic_polynomial(n)
            total = Cyclotomic.zero(n)
            for k, c in enumerate(phi):
                total = total + zeta_power(n, k) * c
            assert total.is_zero()

    def test_powers_compose(self):
        for n in (6, 12):
            for a in range(n):
                for b in range(n):
                    assert zeta_power(n, a) * zeta_power(n, b) == zeta_power(n, a + b)

    def test_embedding_of_smaller_order_roots(self):
        # the r-th root of unity sits at exponent n/r; its r-th power is 1
        n = 12
        for r in (1, 2, 3, 4, 6, 12):
            z = zeta_power(n, n // r)
            acc = Cyclotomic.one(n)
            for _ in range(r):
                acc = acc * z
            assert acc == 1


class TestArithmetic:
    def test_mul_identity(self):
        a = Cyclotomic(6, [1, 2])
        assert a * Cyclotomic.one(6) == a

    def test_zeta3_times_zeta3_squared(self):
        assert zeta_power(3, 1) * zeta_power(3, 2) == Cyclotomic.one(3)

    def test_one_plus_zeta3_product(self):
        a = Cyclotomic.one(3) + zeta_power(3, 1)
        b = Cyclotomic.one(3) + zeta_power(3, 2)
        assert a * b == Cyclotomic.one(3)

    def test_conductor_mismatch(self):
        with pytest.raises(ConductorMismatch):
            zeta_power(3, 1) + zeta_power(4, 1)

    def test_rational_coercion(self):
        a = zeta_power(4, 1)
        assert a * 2 == a + a
        assert a * Fraction(1, 2) + a * Fraction(1, 2) == a

    def test_rational_equality(self):
        assert Cyclotomic.from_rational(6, Fraction(3, 7)) == Fraction(3, 7)
        z = zeta_power(4, 1)
        assert z != z.coeffs[0] and z != 0 and z != 1

    def test_canonical_length(self):
        for n in (1, 4, 6, 9):
            assert len(Cyclotomic.one(n).coeffs) == euler_phi(n)

    def test_json_roundtrip(self):
        a = zeta_power(6, 1) * Fraction(2, 3) + (-5)
        data = a.to_json()
        assert Cyclotomic(data["conductor"], data["coeffs"]) == a
        assert a.to_json() == {"conductor": 6, "coeffs": ["-5", "2/3"]}


coeff = st.integers(min_value=-9, max_value=9).map(Fraction)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.lists(coeff, min_size=1, max_size=4),
       st.lists(coeff, min_size=1, max_size=4),
       st.lists(coeff, min_size=1, max_size=4))
def test_ring_axioms(n, ca, cb, cc):
    a, b, c = Cyclotomic(n, ca), Cyclotomic(n, cb), Cyclotomic(n, cc)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def assert_matches_reference(value, ref):
    """``value`` agrees with the Fraction reference at every edge, and its
    numerators and denominator are in the canonical lowest-terms form."""
    n = ref.conductor
    assert value.conductor == n
    assert len(value.num) == euler_phi(n) and value.den > 0
    assert gcd(value.den, *value.num) == 1
    assert value.coeffs == ref.coeffs
    assert str(value) == str(ref)
    assert value.to_json() == ref.to_json()
    assert value.is_zero() == ref.is_zero()
    assert (value == 1) == ref.is_one()
    # a value equals its constant term exactly when it is rational
    assert (value == ref.coeffs[0]) == (ref.as_rational() is not None)
    parsed = Cyclotomic(n, ref.coeffs)
    assert value == parsed


rational = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_matches_fraction_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=30), label="n")
    coeffs = st.lists(rational, max_size=min(2 * euler_phi(n), 12))
    ca = data.draw(coeffs, label="a")
    cb = data.draw(coeffs, label="b")
    q = data.draw(rational, label="q")
    a, b = Cyclotomic(n, ca), Cyclotomic(n, cb)
    ra, rb = FractionCyclotomic(n, ca), FractionCyclotomic(n, cb)
    cases = [
        (a, ra), (b, rb), (a * -1, -ra),
        (a + b, ra + rb), (a + b * -1, ra - rb), (a * b, ra * rb),
        (a + q, ra + q), (a + -q, ra - q), (a * q, ra * q),
        (a * b + b * a * -1, ra * rb - rb * ra), ((a + q) * (b + -q), (ra + q) * (rb - q)),
    ]
    for value, ref in cases:
        assert_matches_reference(value, ref)
    assert (a == b) == (ra.coeffs == rb.coeffs)
    assert (a == q) == (ra.coeffs == FractionCyclotomic(n, [q]).coeffs)
    assert (a + b * -1 == Cyclotomic.zero(n)) == (a == b)


class TestEqualValuesHashEqual:
    """Equal values reach one canonical form, however they were built:
    ``==`` compares that form, numerators and denominator."""

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20])
    def test_unreduced_input_and_from_rational(self, n):
        a = Cyclotomic(n, [Fraction(2, 4)])
        b = Cyclotomic.from_rational(n, Fraction(1, 2))
        assert a == b
        assert (a.num[0], a.den) == (1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20])
    def test_zero_by_cancellation(self, n):
        x = zeta_power(n, 1) * Fraction(2, 3) + Fraction(5, 7)
        z = x + x * -1
        zero = Cyclotomic.zero(n)
        assert z == zero
        assert z.den == 1 and z.is_zero()

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 20])
    def test_halves_sum_to_one(self, n):
        half = Cyclotomic.from_rational(n, Fraction(1, 2))
        one = Cyclotomic.one(n)
        assert half + half == one
        assert half + half == 1 and half * 2 == 1
