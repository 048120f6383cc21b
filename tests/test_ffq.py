import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppring import clear_caches, ffq
from ppring.cli import RunConfig, run
from ppring.cyclo import ConductorMismatch, Cyclotomic
from ppring.ffq import (TABLE_MAX_Q, CapExceeded, FqField, _is_irreducible,
                       _mat_mul, _nullspace, _pmod, _pmul, _prime_factors,
                       _ptrim, _rref, build_field, oracle_tau, realize_generator)
from ppring.grp import alternating, cyclic, dihedral, symmetric, sylow
from ppring.lattice import subgroup_lattice
from ppring.ppelem import default_conductor, linear_characters, make_generator
from ppring.species import enumerate_pairs, standard_generators, tau_generator
from test_grp import inverse


class TupleField:
    """The earlier implementation of FqField on coefficient tuples, with every
    product reduced modulo the polynomial: a test-only reference for the int
    codes and their exp/log/Zech tables."""

    def __init__(self, p, n, m, modulus, zeta):
        self.p = p
        self.n = n
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.zeta = zeta
        self.theta = {}
        x = self.one()
        for j in range(n):
            assert x not in self.theta
            self.theta[x] = j
            x = self.mul(x, zeta)
        assert x == self.one()

    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = _pmod(_pmul(_ptrim(a), _ptrim(b), self.p), self.modulus, self.p)
        return prod + (0,) * (self.m - len(prod))

    def inv(self, a):
        return self.pow(a, self.q - 2)

    def pow(self, a, e):
        result = self.one()
        base = a
        e %= self.q - 1
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def element(self, code):
        """The coefficient tuple whose base-p code is ``code``."""
        return coefficients(code, self.p, self.m)

    def code(self, a):
        return sum(d * self.p ** i for i, d in enumerate(a))


def coefficients(code, p, m):
    digits = []
    for _ in range(m):
        code, d = divmod(code, p)
        digits.append(d)
    return tuple(digits)


def tuple_field(p, n, generator_index=0):
    """The earlier build_field (n > 1) on TupleField; returns the field and
    the code of the multiplicative generator it chose."""
    m = 1
    while pow(p, m, n) != 1:
        m += 1
    modulus = next(cand for cand in (coefficients(c, p, m) + (1,) for c in range(p ** m))
                   if _is_irreducible(cand, p, None))
    F = TupleField(p, 1, m, modulus, (1,) + (0,) * (m - 1))
    q = p ** m
    factors = _prime_factors(q - 1)
    found = 0
    for code in range(1, q):
        x = F.element(code)
        if all(F.pow(x, (q - 1) // ell) != F.one() for ell in factors):
            if found == generator_index:
                return TupleField(p, n, m, modulus, F.pow(x, (q - 1) // n)), code
            found += 1
    raise ValueError("too few generators")


# (p, n) for F_4, F_8, F_9, F_16, F_25, F_27 and F_81
TABLE_FIELDS = [(2, 3), (2, 7), (3, 4), (2, 15), (5, 3), (3, 13), (3, 5)]
# F_(2^18) and F_(7^10), above TABLE_MAX_Q
POLYNOMIAL_FIELDS = [(2, 19), (7, 11)]


class TestAgainstTupleReference:
    @pytest.mark.parametrize("p,n", TABLE_FIELDS + POLYNOMIAL_FIELDS)
    @pytest.mark.parametrize("generator_index", [0, 1])
    def test_same_field_elements(self, p, n, generator_index):
        R, generator = tuple_field(p, n, generator_index)
        F = build_field(p, n)
        if generator_index:  # the field on a later generator of the reference's search
            F = FqField(p, n, F.m, F.modulus, generator)
        assert (F.m, F.q, F.modulus) == (R.m, R.q, R.modulus)
        assert F.generator == generator
        assert F.zeta == R.code(R.zeta)
        assert F.theta == {R.code(x): j for x, j in R.theta.items()}
        assert (F.q <= TABLE_MAX_Q) == ((p, n) in TABLE_FIELDS)

    @pytest.mark.parametrize("p,n", TABLE_FIELDS)
    def test_arithmetic_on_every_pair(self, p, n):
        F = build_field(p, n)
        R, _ = tuple_field(p, n)
        q = F.q
        elems = [R.element(c) for c in range(q)]
        assert [R.code(x) for x in elems] == list(range(q))
        for a, x in enumerate(elems):
            assert F.neg(a) == R.code(R.neg(x))
            if a:
                assert F.inv(a) == R.code(R.inv(x))
            for b, y in enumerate(elems):
                assert F.add(a, b) == R.code(R.add(x, y))
                assert F.add(a, F.neg(b)) == R.code(R.sub(x, y))
                assert F.mul(a, b) == R.code(R.mul(x, y))
                if a:
                    e = b - q // 2  # negative exponents too
                    assert F.pow(a, e) == R.code(R.pow(x, e))

    @pytest.mark.parametrize("p,n", POLYNOMIAL_FIELDS)
    def test_arithmetic_on_random_samples(self, p, n):
        F = build_field(p, n)
        R, _ = tuple_field(p, n)
        rng = random.Random(p * 100 + n)
        for _ in range(40):
            a, b = rng.randrange(1, F.q), rng.randrange(F.q)
            x, y = R.element(a), R.element(b)
            e = rng.randrange(-F.q, F.q)
            assert F.add(a, b) == R.code(R.add(x, y))
            assert F.add(a, F.neg(b)) == R.code(R.sub(x, y))
            assert F.neg(a) == R.code(R.neg(x))
            assert F.mul(a, b) == R.code(R.mul(x, y))
            assert F.inv(a) == R.code(R.inv(x))
            assert F.pow(a, e) == R.code(R.pow(x, e))

    def test_table_field_rejects_a_non_generator(self):
        F = build_field(3, 4)
        with pytest.raises(ValueError, match="does not generate"):
            FqField(3, 4, F.m, F.modulus, F.pow(F.generator, 2))

    def test_polynomial_field_checks_only_the_order_of_zeta(self):
        # the polynomial path never checks the generator, only that zeta has
        # exact order n; build_field is what picks a true generator there
        F = build_field(2, 19)
        with pytest.raises(ValueError, match="order smaller than n"):
            FqField(2, 19, F.m, F.modulus, 1)
        # g^3 does not generate F_(2^18)^*, whose order 3^3 * 7 * 19 * 73
        # is divisible by 3, yet its zeta g^(3(q-1)/19) still has order 19
        G = FqField(2, 19, F.m, F.modulus, F.pow(F.generator, 3))
        assert G.zeta == F.pow(F.zeta, 3)
        assert sorted(G.theta) == sorted(F.theta)

    @pytest.mark.parametrize("p,n", [(3, 4), (2, 19)])
    def test_zero(self, p, n):
        F = build_field(p, n)
        assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0 and F.pow(0, F.q - 1) == 0
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


class TestBuildField:
    def test_p2_n3(self):
        F = build_field(2, 3)
        assert F.m == 2 and F.q == 4
        assert len(F.theta) == 3

    def test_p3_n2(self):
        F = build_field(3, 2)
        assert F.m == 1 and F.q == 3
        assert F.zeta == 2  # -1 is the only element of order 2

    def test_p2_n1(self):
        F = build_field(2, 1)
        assert F.q == 2
        assert F.theta == {1: 0}

    def test_generator_search_skips_the_constants(self):
        """For m >= 2 no constant generates the multiplicative group, so the
        search starts at code p; it still picks the first generator in
        counter order."""
        F = build_field(1000000007, 6)
        assert F.m == 2 and F.generator >= F.p

        def order(F, x):
            k, y = 1, x
            while y != 1:
                k, y = k + 1, F.mul(y, x)
            return k

        for p, n in [(2, 3), (3, 4), (5, 8), (2, 7)]:
            F = build_field(p, n)
            assert F.m >= 2
            assert F.generator == next(x for x in range(1, F.q) if order(F, x) == F.q - 1)

    def test_zeta_has_exact_order(self):
        for p, n in [(2, 3), (3, 4), (2, 7), (5, 6)]:
            F = build_field(p, n)
            x = 1
            for _ in range(n - 1):
                x = F.mul(x, F.zeta)
                assert x != 1
            assert F.mul(x, F.zeta) == 1

    def test_modulus_irreducible_brute_force(self):
        # no roots and no low-degree factors, checked by exhaustive division
        F = build_field(2, 7)  # m = 3
        assert F.m == 3
        from ppring.ffq import _pmod
        for code in range(2, 2 ** 3):
            cand = []
            c = code
            while c:
                cand.append(c % 2)
                c //= 2
            if len(cand) - 1 >= 1 and len(cand) - 1 <= F.m // 2 + 1:
                if len(cand) - 1 < len(F.modulus) - 1:
                    rem = _pmod(F.modulus, tuple(cand), 2)
                    assert rem != ()

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_field(2, 33)

    def test_trial_division_stops_at_its_cap(self, monkeypatch):
        """Past the cap a cofactor is kept only if it is prime."""
        monkeypatch.setattr(ffq, "FACTOR_TRIAL_CAP", 100)
        assert _prime_factors(2 * 3 * 10007) == [2, 3, 10007]
        assert _prime_factors(2 * 3 * 1000003) == [2, 3, 1000003]
        with pytest.raises(CapExceeded, match="trial division cap 100$"):
            _prime_factors(101 * 103)

    def test_field_search_stops_at_its_work_cap(self, monkeypatch):
        """The modulus search for F_(2^18) counts 21,728 coefficient
        products; under a cap of 1,000 it stops and names the field."""
        monkeypatch.setattr(ffq, "FIELD_WORK_CAP", 1000)
        with pytest.raises(CapExceeded, match=r"F_\(2\^18\) exceeds the field work cap 1000$"):
            ffq._field.__wrapped__(2, 19)

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 6), (2, 8), (3, 4), (3, 5), (5, 3), (7, 2)])
    def test_irreducible_count_is_gauss_formula(self, p, m):
        """The monic irreducibles of degree m over F_p number
        (1/m) sum_{d | m} mu(d) p^(m/d) (Gauss)."""
        def mu(d):
            sign, k = 1, 2
            while d > 1:
                if d % k == 0:
                    d //= k
                    if d % k == 0:
                        return 0
                    sign = -sign
                k += 1
            return sign
        want = sum(mu(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
        got = sum(_is_irreducible(coefficients(c, p, m) + (1,), p, None) for c in range(p ** m))
        assert got == want

    def test_field_search_keeps_the_counter_order_modulus_within_its_cap(self):
        """F_(31^16) for C17 at p = 31: the Ben-Or search reaches the first
        irreducible of counter order, x^16 + 7x + 1, after 576,587 of the
        work cap's products, and the generator is the first in counter
        order, code 38 (x + 7)."""
        F = build_field(31, 17)
        assert (F.m, F.modulus, F.generator) == (16, (1, 7) + (0,) * 14 + (1,), 38)

    def test_fields_are_interned_and_the_cap_still_holds(self):
        F = build_field(3, 8)
        assert build_field(3, 8) is F
        with pytest.raises(CapExceeded):
            build_field(3, 8, n_cap=7)

    def test_repeated_runs_reuse_the_oracle_memos(self):
        """The oracle memos are keyed on the field, so a second and a third
        identical run hit the first run's entries instead of adding their
        own."""
        memos = (ffq.realize_generator, ffq._brauer_quotient, ffq.oracle_tau)
        config = RunConfig(command="oracle-check", group="S3", p=3, fmt="json",
                           samples=40, seed=0)
        clear_caches()
        try:
            run(config)
            sizes = [memo.cache_info().currsize for memo in memos]
            run(config)
            run(config)
            assert [memo.cache_info().currsize for memo in memos] == sizes
        finally:
            clear_caches()
        assert all(sizes)

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            build_field(2, 4)

    def test_field_axioms_sample(self):
        F = build_field(2, 3)
        elems = list(range(F.q))
        for a in elems:
            for b in elems:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                if a:
                    assert F.mul(a, F.inv(a)) == 1


    def test_mat_mul_matches_entrywise_definition(self):
        F = build_field(2, 3)
        elems = list(range(F.q))
        rng = random.Random(0)
        # half the entries zero, as in the sparse action matrices
        a = [[rng.choice(elems[:1] * 3 + elems[1:]) for _ in range(5)] for _ in range(4)]
        b = [[rng.choice(elems[:1] * 3 + elems[1:]) for _ in range(3)] for _ in range(5)]
        expected = []
        for i in range(4):
            row = []
            for j in range(3):
                acc = 0
                for t in range(5):
                    acc = F.add(acc, F.mul(a[i][t], b[t][j]))
                row.append(acc)
            expected.append(tuple(row))
        assert dense(_mat_mul(F, columns(a), columns(b)), 4) == tuple(expected)


def columns(rows):
    """The sparse column form {row: nonzero entry} of a dense matrix given by
    its rows."""
    return tuple({i: row[j] for i, row in enumerate(rows) if row[j]}
                 for j in range(len(rows[0])))


def dense(cols, nrows):
    """The dense rows of a matrix given by its sparse columns."""
    return tuple(tuple(col.get(i, 0) for col in cols) for i in range(nrows))


# F_16 (where -1 = 1) and F_27 (where -1 != 1) on tables, F_(2^18) on polynomials
KERNEL_FIELDS = [(2, 15), (3, 13), (2, 19)]


@lru_cache(maxsize=None)
def kernel_field(p, n):
    return build_field(p, n)


@pytest.mark.parametrize("p,n", KERNEL_FIELDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_row_operations_match_the_elementwise_reference(p, n, data):
    """add_scaled equals mul and add applied entry by entry, on rows with
    zeros, at f = 0, 1 and -1, and on rows that cancel to zero; the sparse
    result stores no zero."""
    F = kernel_field(p, n)
    assert (F.q > TABLE_MAX_Q) == ((p, n) == (2, 19))
    element = st.one_of(st.sampled_from([0, 1, F.neg(1)]), st.integers(0, F.q - 1))
    length = data.draw(st.integers(0, 8))
    row = data.draw(st.lists(element, min_size=length, max_size=length))
    pivot = tuple(data.draw(st.lists(element, min_size=length, max_size=length)))
    f = data.draw(element)
    cancels = data.draw(st.booleans())
    if cancels:
        row = [F.neg(F.mul(f, y)) for y in pivot]
    expected = [F.add(x, F.mul(f, y)) for x, y in zip(row, pivot)]
    sparse_row = {k: x for k, x in enumerate(row) if x}
    sparse_pivot = {k: y for k, y in enumerate(pivot) if y}
    F.add_scaled(sparse_row, f, sparse_pivot)
    assert sparse_row == {k: x for k, x in enumerate(expected) if x}
    scaled = {}  # f times a row is f times it added to zero
    F.add_scaled(scaled, f, sparse_pivot)
    assert scaled == {k: F.mul(f, y) for k, y in enumerate(pivot) if F.mul(f, y)}
    assert not cancels or not any(expected)


def reference_rref(F, rows, ncols):
    """Dense Gauss-Jordan elimination, column by column: (rref rows, pivots)."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.add(x, F.neg(F.mul(f, y))) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(row) for row in rows[:len(pivots)]], pivots


def random_matrices(F, rng):
    """Dense and sparse matrices, with zero rows, repeated rows and of full
    rank, as dense rows with their column counts."""
    def entry(density):
        return rng.randrange(1, F.q) if rng.random() < density else 0

    out = []
    for density in (1.0, 0.6, 0.15):
        for _ in range(6):
            nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 8)
            rows = [[entry(density) for _ in range(ncols)] for _ in range(nrows)]
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)
            rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
            if rng.random() < 0.5:  # a sum of two rows
                a, b = rng.choice(rows), rng.choice(rows)
                rows.append([F.add(x, y) for x, y in zip(a, b)])
            out.append((rows, ncols))
        d = rng.randrange(1, 8)  # unitriangular, rows shuffled: full rank
        rows = [[0] * i + [1] + [entry(density) for _ in range(d - i - 1)] for i in range(d)]
        rng.shuffle(rows)
        out.append((rows, d))
    return out


@pytest.mark.parametrize("p,n", KERNEL_FIELDS, ids=["F16", "F27", "F2^18"])
def test_elimination_matches_dense_gauss_jordan(p, n):
    """_rref and _nullspace are generic elimination: on dense and sparse
    matrices they give the reference's pivots and rows, and a null space
    basis of ncols - rank vectors, each killed by the matrix and each 1 at
    its own free column and 0 at the others.  F_27, where -1 != 1, catches a
    lost sign."""
    F = kernel_field(p, n)
    rng = random.Random(p * 1000 + n)
    ranks = set()
    for rows, ncols in random_matrices(F, rng):
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        want_rows, want_pivots = reference_rref(F, rows, ncols)
        got_rows, got_pivots = _rref(F, sparse)
        assert got_pivots == want_pivots
        assert [tuple(r.get(c, 0) for c in range(ncols)) for r in got_rows] == want_rows
        assert all(all(r.values()) for r in got_rows)  # no stored zeros
        basis, free = _nullspace(F, sparse, ncols)
        assert free == [c for c in range(ncols) if c not in want_pivots]
        assert len(basis) == ncols - len(want_pivots)
        for fc, v in zip(free, basis):
            assert {c: v.get(c, 0) for c in free} == {c: int(c == fc) for c in free}
            for row in rows:
                acc = 0
                for c, y in v.items():
                    acc = F.add(acc, F.mul(row[c], y))
                assert acc == 0
        ranks.add((len(want_pivots), min(len(rows), ncols)))
    assert any(r == full for r, full in ranks) and any(r < full for r, full in ranks)


def reference_action(F, gen, g):
    """Permutation-level matrix of g on Ind_L^G: the coset of c_i goes to that
    of c_j with scalar chi(c_j^-1 g c_i), over minimal coset representatives."""
    L = gen.subgroup
    value = dict(zip(L.elements, gen.exps))
    transversal, rep_of = [], {}
    for x in gen.group.elements:
        if x not in rep_of:  # the first element met is minimal in its coset
            transversal.append(x)
            for h in L.elements:
                rep_of[x * h] = x
    d = len(transversal)
    rows = [[0] * d for _ in range(d)]
    for i, ci in enumerate(transversal):
        cj = rep_of[g * ci]
        rows[transversal.index(cj)][i] = F.pow(F.zeta, value[inverse(cj) * g * ci])
    return tuple(tuple(r) for r in rows)


class TestRealizeGenerator:
    @pytest.mark.parametrize("build,p,n", [(lambda: symmetric(4), 2, 3),
                                           (lambda: dihedral(20), 2, 5)],
                             ids=["S4-n3", "D20-n5"])
    def test_action_matches_permutation_reference(self, build, p, n):
        G = build()
        F = build_field(p, n)
        checked = 0
        for L in subgroup_lattice(G).class_reps():
            for chi in linear_characters(L, n):
                if not any(chi):
                    continue
                gen = make_generator(G, L, chi, n)
                module = realize_generator(gen, F)
                for i, g in enumerate(G.elements):
                    assert dense(module.action(i), module.dimension) == reference_action(F, gen, g)
                checked += 1
        assert checked >= 4

    def test_trivial_generator(self):
        G = symmetric(3)
        n = default_conductor(G, 3)
        F = build_field(3, n)
        L = G
        gen = make_generator(G, L, (0,) * L.order, n)
        mod = realize_generator(gen, F)
        assert mod.dimension == 1
        for g in G.generators:
            assert dense(mod.action(g), 1) == ((1,),)

    def test_regular_c2(self):
        G = cyclic(2)
        F = build_field(2, 1)
        T = G.trivial_subgroup()
        gen = make_generator(G, T, (0,) * T.order, 1)
        mod = realize_generator(gen, F)
        assert mod.dimension == 2
        flip = next(i for i, x in enumerate(G.elements) if not x.is_identity())
        m = dense(mod.action(flip), 2)
        assert m == ((0, 1), (1, 0))

    def test_faithful_c3_character_at_p2(self):
        G = cyclic(3)
        F = build_field(2, 3)
        s = G.elements[G.orders.index(3)]
        chi = next(c for c in linear_characters(G, 3)
                   if dict(zip(G.elements, c))[s] == 1)
        gen = make_generator(G, G, chi, 3)
        mod = realize_generator(gen, F)
        assert mod.dimension == 1
        assert dense(mod.action(G.elements.index(s)), 1)[0][0] in (F.zeta, F.mul(F.zeta, F.zeta))


class TestOracleTau:
    def test_dimension_at_trivial_pair(self):
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        F = build_field(p, n)
        pair = enumerate_pairs(G, p)[0]
        L = sylow(G, 3)
        gen = make_generator(G, L, (0,) * L.order, n)
        assert oracle_tau(pair, gen, F) == Cyclotomic.from_rational(n, 2)

    def test_c2_regular_dies(self):
        # fixed space has dimension 1 and the trace image fills it
        G = cyclic(2)
        F = build_field(2, 1)
        pair = enumerate_pairs(G, 2)[1]
        T = G.trivial_subgroup()
        gen = make_generator(G, T, (0,) * T.order, 1)
        assert oracle_tau(pair, gen, F).is_zero()

    def test_refuses_a_field_of_another_characteristic(self):
        G = alternating(4)
        n = default_conductor(G, 3)
        F = build_field(5, n)
        for pair in enumerate_pairs(G, 3):
            for gen in standard_generators(G, 3, n):
                with pytest.raises(ValueError, match="characteristic 5"):
                    oracle_tau(pair, gen, F)

    def test_refuses_a_conductor_the_order_of_s_does_not_divide(self):
        # the fixed-line formula refuses the same input with the same error
        C = cyclic(3)
        pair = next(q for q in enumerate_pairs(C, 2) if q.s_order == 3)
        gen = make_generator(C, C, (0,) * C.order, 1)
        with pytest.raises(ConductorMismatch):
            oracle_tau(pair, gen, build_field(2, 1))
        with pytest.raises(ConductorMismatch):
            tau_generator(pair, gen)

    def test_dim_cap(self, monkeypatch):
        def refuse(field, gen):
            raise AssertionError("the module was built before the cap was checked")

        G = symmetric(3)
        n = default_conductor(G, 3)
        F = build_field(3, n)
        pair = enumerate_pairs(G, 3)[0]
        T = G.trivial_subgroup()
        gen = make_generator(G, T, (0,) * T.order, n)
        ffq.realize_generator.cache_clear()
        monkeypatch.setattr(ffq, "FqModule", refuse)
        with pytest.raises(CapExceeded, match="dimension 6 exceeds the oracle cap 5"):
            oracle_tau(pair, gen, F, dim_cap=5)

    def test_one_module_per_generator_and_field(self, monkeypatch):
        built = []

        class Counted(ffq.FqModule):
            def __init__(self, field, gen):
                built.append((gen, field))
                super().__init__(field, gen)

        ffq.realize_generator.cache_clear()
        monkeypatch.setattr(ffq, "FqModule", Counted)
        try:
            code, _ = run(RunConfig(command="oracle-check", group="S3", p=3,
                                    fmt="json", samples=40, seed=0))
        finally:
            ffq.realize_generator.cache_clear()
        assert code == 0
        assert 1 < len(built) == len(set(built)) < 40

    def test_one_quotient_per_generator_field_and_subgroup(self, monkeypatch):
        """Each Brauer quotient is built once: the builds are exactly the
        distinct (generator, P) among the samples, and fewer than them."""
        asked, built = [], []
        ask, maximal = ffq.oracle_tau, ffq._maximal_proper_subgroups

        def asking(pair, gen, F, dim_cap):
            asked.append((gen, pair.P))
            return ask(pair, gen, F, dim_cap)

        def building(P):  # called once by each quotient build
            built.append(P)
            return maximal(P)

        clear_caches()
        try:
            with monkeypatch.context() as m:
                m.setattr(ffq, "oracle_tau", asking)
                m.setattr(ffq, "_maximal_proper_subgroups", building)
                code, _ = run(RunConfig(command="oracle-check", group="S3", p=3,
                                        fmt="json", samples=40, seed=0))
        finally:
            clear_caches()
        assert code == 0 and len(asked) == 40
        assert Counter(built) == Counter(P for _, P in set(asked))
        assert 1 < len(built) < 40

    @pytest.mark.parametrize("build,p", [
        (lambda: cyclic(6), 2), (lambda: symmetric(3), 3),
        (lambda: dihedral(8), 2), (lambda: symmetric(3), 2),
    ])
    def test_full_agreement_on_small_groups(self, build, p):
        G = build()
        n = default_conductor(G, p)
        F = build_field(p, n)
        for pair in enumerate_pairs(G, p):
            for gen in standard_generators(G, p, n):
                assert oracle_tau(pair, gen, F) == tau_generator(pair, gen)

    def test_brauer_quotient_dimension_equals_fixed_line_count(self):
        from ppring.grp import coset_indices
        G = dihedral(8)
        p = 2
        n = default_conductor(G, p)
        F = build_field(p, n)
        lat = subgroup_lattice(G)
        for pair in enumerate_pairs(G, p):
            for L in lat.class_reps():
                gen = make_generator(G, L, (0,) * L.order, n)
                # combinatorial count of P-fixed lines
                lines = sum(
                    1 for g in coset_indices(G, gen.subgroup)[0]
                    if all(G.conj[g][u] in gen.subgroup for u in pair.P.indices))
                # oracle dimension: evaluate at s = 1 by summing multiplicities
                value = oracle_tau(
                    build_pair_dim(G, p, pair), gen, F)
                assert value == Cyclotomic.from_rational(n, lines)

    def test_theta_independence(self):
        # a different multiplicative generator gives a different theta but
        # identical species values
        G = cyclic(6)
        p = 2
        n = default_conductor(G, p)
        F0 = build_field(p, n)
        F1 = FqField(p, n, F0.m, F0.modulus, tuple_field(p, n, 1)[1])
        assert F0.zeta != F1.zeta
        for pair in enumerate_pairs(G, p):
            for gen in standard_generators(G, p, n):
                assert oracle_tau(pair, gen, F0) == oracle_tau(pair, gen, F1)


def build_pair_dim(G, p, pair):
    """The pair (P, 1) over the same P, probing plain Brauer-quotient dimension."""
    from ppring.species import build_pair
    return build_pair(G, p, pair.P, 0)  # index 0 is the identity


class ChangedBasis:
    """A module seen in another basis: every action matrix conjugated by the
    upper unitriangular all-ones matrix J, whose inverse is I minus the
    superdiagonal.  Its fixed spaces are no longer spanned by orbit sums of
    coordinate lines, so the trace image is no longer spanned by rows of the
    fixed space's basis."""

    def __init__(self, F, module):
        d = module.dimension
        self.field, self.dimension, self.zeta_powers = F, d, module.zeta_powers
        self._module = module
        # column j of J is 1 on rows 0..j, of J^-1 is 1 on row j, -1 on row j - 1
        self._J = tuple({i: 1 for i in range(j + 1)} for j in range(d))
        self._J_inv = tuple({j: 1, j - 1: F.neg(1)} if j else {0: 1} for j in range(d))

    def action(self, g):
        F = self.field
        return _mat_mul(F, _mat_mul(F, self._J, self._module.action(g)), self._J_inv)


@pytest.mark.parametrize("build,p", [(lambda: symmetric(4), 3), (lambda: alternating(5), 2)],
                         ids=["S4-p3", "A5-p2"])
def test_agreement_in_another_basis(build, p, monkeypatch):
    """The oracle reads values off literal linear algebra, so a change of
    basis of the module changes none.  In this basis the lift's action must
    be reduced modulo the trace image to come out right (at A5, p = 2, on
    P = V4 with s of order 3).  The conjugated matrices are dense, so the
    elimination is run on full rows and columns, up to dimension 60 at A5."""
    G = build()
    n = default_conductor(G, p)
    F = build_field(p, n)
    realize = ffq.realize_generator
    clear_caches()
    try:
        with monkeypatch.context() as m:
            m.setattr(ffq, "realize_generator", lambda gen, F: ChangedBasis(F, realize(gen, F)))
            for pair in enumerate_pairs(G, p):
                for gen in standard_generators(G, p, n):
                    assert oracle_tau(pair, gen, F) == tau_generator(pair, gen)
    finally:
        clear_caches()
