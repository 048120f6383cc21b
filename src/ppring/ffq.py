"""Independent finite-field oracle for species values.

This module realizes a monomial generator as literal matrices over a small
finite field F_q containing the needed roots of unity, computes the fixed
space of P, quotients by the images of the relative traces from the maximal
proper subgroups of P, and reads the species value off the eigenvalue
multiplicities of the lift's action on the quotient, transported to complex
roots of unity through a tabulated discrete logarithm.

It shares no code with the combinatorial fixed-line formula in
:mod:`ppring.species`; agreement between the two is one of the central
checks of the test suite.
"""

from __future__ import annotations

import math

from .cyclo import Cyclotomic, zeta_power
from .grp import Permutation, Subgroup, coset_indices, mult_table, promote
from .lattice import subgroup_lattice
from .ppelem import Generator
from .species import SpeciesPair

DEFAULT_N_CAP = 32
DEFAULT_DIM_CAP = 200


class CapExceeded(Exception):
    """Raised when an oracle size cap is exceeded."""


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (tuples of coefficients, low to high, no
# trailing zeros)


def _ptrim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _padd(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _ptrim(tuple(out))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _ptrim(tuple(out))


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) > dm:
        c = a[-1] % p
        if c:
            c = (c * inv_lead) % p
            shift = len(a) - 1 - dm
            for j, cm in enumerate(m):
                a[shift + j] = (a[shift + j] - c * cm) % p
        a.pop()
    return _ptrim(tuple(a))


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base, e, m, p):
    result = (1,)
    base = _pmod(base, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Rabin test: x^(p^m) = x mod f, and gcd(x^(p^(m/l)) - x, f) = 1."""
    m = len(f) - 1
    x = (0, 1)
    if _ppowmod(x, p ** m, f, p) != _pmod(x, f, p):
        return False
    for ell in _prime_factors(m):
        g = _padd(_ppowmod(x, p ** (m // ell), f, p),
                  tuple((-c) % p for c in x), p)
        gcd = _pgcd(f, g, p)
        if len(gcd) - 1 > 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FqField:
    """The field F_(p^m) with a distinguished root of unity of exact order n.

    ``theta`` tabulates the discrete logarithm base that root: it maps each
    n-th root of unity in the field to the exponent of the corresponding
    complex root zeta_n.  Elements are coefficient tuples of length m over
    F_p with respect to the chosen irreducible modulus.
    """

    __slots__ = ("p", "n", "m", "q", "modulus", "zeta", "theta")

    def __init__(self, p: int, n: int, m: int, modulus: tuple[int, ...],
                 zeta: tuple[int, ...]):
        self.p = p
        self.n = n
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self.zeta = zeta
        self.theta = {}
        x = self.one()
        for j in range(n):
            if x in self.theta:
                raise ValueError("root of unity has order smaller than n")
            self.theta[x] = j
            x = self.mul(x, zeta)
        if x != self.one():
            raise ValueError("root of unity does not have order n")

    def zero(self):
        return (0,) * self.m

    def one(self):
        return (1,) + (0,) * (self.m - 1)

    def from_int(self, c: int):
        return (c % self.p,) + (0,) * (self.m - 1)

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

    def elements(self):
        """All field elements in deterministic (base-p counter) order."""
        for code in range(self.q):
            digits = []
            c = code
            for _ in range(self.m):
                digits.append(c % self.p)
                c //= self.p
            yield tuple(digits)

    def __repr__(self) -> str:
        return f"FqField(p={self.p}, m={self.m}, n={self.n})"


def build_field(p: int, n: int, n_cap: int = DEFAULT_N_CAP,
                generator_index: int = 0) -> FqField:
    """The smallest field F_(p^m) whose multiplicative group contains mu_n.

    m is the multiplicative order of p mod n; the modulus is the first
    irreducible monic polynomial of degree m in counter order, and the
    distinguished n-th root of unity is g^((q-1)/n) for the
    ``generator_index``-th generator g of the multiplicative group.
    """
    if math.gcd(p, n) != 1:
        raise ValueError("n must be prime to p")
    if n > n_cap:
        raise CapExceeded(f"conductor {n} exceeds the oracle cap {n_cap}")
    if n == 1:
        field = FqField(p, 1, 1, (0, 1), (1,))
        return field
    m = 1
    while pow(p, m, n) != 1:
        m += 1
    modulus = None
    for code in range(p ** m):
        digits = []
        c = code
        for _ in range(m):
            digits.append(c % p)
            c //= p
        cand = tuple(digits) + (1,)
        if _is_irreducible(cand, p):
            modulus = cand
            break
    if modulus is None:
        raise RuntimeError(f"no monic irreducible polynomial of degree {m} over F_{p}")
    field = FqField(p, 1, m, modulus, (1,) + (0,) * (m - 1))  # temporary, for arithmetic
    q = p ** m
    factors = _prime_factors(q - 1)
    found = 0
    gen = None
    for x in field.elements():
        if x == field.zero():
            continue
        if all(field.pow(x, (q - 1) // ell) != field.one() for ell in factors):
            if found == generator_index:
                gen = x
                break
            found += 1
    if gen is None:
        raise ValueError(f"fewer than {generator_index + 1} generators found")
    zeta = field.pow(gen, (q - 1) // n)
    return FqField(p, n, m, modulus, zeta)


class FqModule:
    """A monomial matrix realization of a generator over a finite field."""

    __slots__ = ("field", "group", "dimension", "_reps", "_rep_of", "_exp_of", "_cache")

    def __init__(self, field: FqField, gen: Generator):
        self.field = field
        self.group = gen.group
        self._reps, self._rep_of = coset_indices(gen.group, gen.subgroup)
        self._exp_of = dict(zip(gen.subgroup.indices(), gen.character.table()))
        self.dimension = len(self._reps)
        self._cache: dict[Permutation, tuple] = {}
        # spot-check the homomorphism property on generator pairs
        for a in self.group.generators:
            for b in self.group.generators:
                if _mat_mul(field, self.action(a), self.action(b)) != self.action(a * b):
                    raise ValueError("matrix action fails the homomorphism check")

    def action(self, g: Permutation) -> tuple:
        """The matrix of g: coset c_i goes to c_j with scalar chi(c_j^-1 g c_i)."""
        if g not in self._cache:
            F = self.field
            d = self.dimension
            index, table, inv = mult_table(self.group)[:3]
            row = table[index[g]]
            position = {c: i for i, c in enumerate(self._reps)}
            rows = [[F.zero()] * d for _ in range(d)]
            for i, ci in enumerate(self._reps):
                gc = row[ci]
                cj = self._rep_of[gc]
                e = self._exp_of[table[inv[cj]][gc]]  # chi(c_j^-1 g c_i)
                rows[position[cj]][i] = F.pow(F.zeta, e) if F.n > 1 else F.one()
            self._cache[g] = tuple(tuple(r) for r in rows)
        return self._cache[g]


# ---------------------------------------------------------------------------
# dense linear algebra over FqField


def _mat_mul(F: FqField, a, b):
    """Row times matrix: each row of the product accumulates x * b[t] over the
    nonzero entries x = a[i][t] of the row of a."""
    zero = F.zero()
    m = len(b[0]) if b else 0
    out = []
    for a_row in a:
        acc = [zero] * m
        for x, b_row in zip(a_row, b):
            if x != zero:
                for j, y in enumerate(b_row):
                    if y != zero:
                        acc[j] = F.add(acc[j], F.mul(x, y))
        out.append(tuple(acc))
    return tuple(out)


def _mat_add(F: FqField, a, b):
    return tuple(tuple(F.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_vec(F: FqField, a, v):
    return tuple(
        _dot(F, row, v)
        for row in a
    )


def _dot(F: FqField, row, v):
    zero = F.zero()
    acc = zero
    for x, y in zip(row, v):
        if x != zero and y != zero:
            acc = F.add(acc, F.mul(x, y))
    return acc


def _identity(F: FqField, d):
    return tuple(tuple(F.one() if i == j else F.zero() for j in range(d))
                 for i in range(d))


def _rref(F: FqField, rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != F.zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != F.zero():
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def _nullspace(F: FqField, mat, ncols):
    """Basis of the right null space of a matrix (rows of length ncols)."""
    if not mat:
        return [tuple(F.one() if i == j else F.zero() for j in range(ncols))
                for i in range(ncols)]
    rows, pivots = _rref(F, mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero()] * ncols
        v[fc] = F.one()
        for r, pc in zip(rows, pivots):
            v[pc] = F.neg(r[fc])
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# the oracle


def realize_generator(gen: Generator, F: FqField) -> FqModule:
    if gen.character.conductor != F.n:
        raise ValueError("realize the generator at the field's own conductor")
    return FqModule(F, gen)


def _maximal_proper_subgroups(P: Subgroup) -> list[Subgroup]:
    lat = subgroup_lattice(promote(P))
    proper = [H for H in lat.subgroups if H.order < lat.top.order]
    out = []
    for H in proper:
        if not any(H is not K and lat.leq(H, K) for K in proper):
            out.append(H)
    return out


def oracle_tau(pair: SpeciesPair, gen: Generator, F: FqField,
               dim_cap: int = DEFAULT_DIM_CAP) -> Cyclotomic:
    """Species value computed by literal linear algebra over F_q.

    Steps: solve for the P-fixed space, sum the images of the relative
    traces from the maximal proper subgroups of P, form the quotient, act by
    the pair's lift, and add up eigenvalue multiplicities weighted by the
    theta-transported roots of unity.
    """
    if gen.group != pair.group:
        raise ValueError("pair and generator over different groups")
    module = realize_generator(gen, F)
    d = module.dimension
    if d > dim_cap:
        raise CapExceeded(f"dimension {d} exceeds the oracle cap {dim_cap}")
    n = gen.character.conductor
    ident = _identity(F, d)
    neg_ident = tuple(tuple(F.neg(x) for x in row) for row in ident)

    def fixed_space(S: Subgroup):
        rows = []
        for u in S.generators():
            diff = _mat_add(F, module.action(u), neg_ident)
            rows.extend(diff)
        return _nullspace(F, rows, d)

    fixed_p = fixed_space(pair.P)
    # image of the relative traces inside the fixed space
    trace_vectors = []
    PP = promote(pair.P)
    for Qsub in _maximal_proper_subgroups(pair.P):
        QP = Qsub.reparent(PP)
        tr = None
        for x in coset_indices(PP, QP)[0]:
            mat = module.action(PP.elements[x])
            tr = mat if tr is None else _mat_add(F, tr, mat)
        for v in fixed_space(Qsub):
            trace_vectors.append(_mat_vec(F, tr, v))

    # coordinates of the fixed space: its rref basis rows have unit pivots
    basis_rows, basis_pivots = _rref(F, fixed_p) if fixed_p else ([], [])
    k = len(basis_rows)

    def coords(w):
        return tuple(w[c] for c in basis_pivots)

    t_rows, t_pivots = _rref(F, [coords(v) for v in trace_vectors]) \
        if trace_vectors else ([], [])

    def reduce_mod_traces(cw):
        cw = list(cw)
        for row, pc in zip(t_rows, t_pivots):
            factor = cw[pc]
            if factor != F.zero():
                cw = [F.sub(x, F.mul(factor, y)) for x, y in zip(cw, row)]
        return cw

    quot_idx = [i for i in range(k) if i not in t_pivots]
    dim_quot = len(quot_idx)
    if dim_quot == 0:
        return Cyclotomic.zero(n)

    t_action = module.action(pair.lift)
    cols = []
    for i in quot_idx:
        w = _mat_vec(F, t_action, basis_rows[i])
        cw = reduce_mod_traces(coords(w))
        cols.append([cw[j] for j in quot_idx])
    A = tuple(tuple(cols[c][r] for c in range(dim_quot)) for r in range(dim_quot))

    r = pair.s_order
    total = Cyclotomic.zero(n)
    seen_dim = 0
    for j in range(r):
        lam = F.pow(F.zeta, j * (n // r)) if n > 1 else F.one()
        shifted = tuple(
            tuple(F.sub(A[a][b], lam) if a == b else A[a][b] for b in range(dim_quot))
            for a in range(dim_quot)
        )
        mult = len(_nullspace(F, list(shifted), dim_quot))
        if mult:
            exponent = F.theta[lam] if n > 1 else 0
            total = total + zeta_power(n, exponent) * mult
            seen_dim += mult
    if seen_dim != dim_quot:
        raise RuntimeError("lift action is not semisimple with mu_r eigenvalues")
    return total
