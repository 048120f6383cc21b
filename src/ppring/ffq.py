"""Independent finite-field oracle for species values.

This module realizes a monomial generator as literal matrices over a small
finite field F_q containing the needed roots of unity and reads a species
value off them in two stages:

1. ``_brauer_quotient(gen, F, P)``: the Brauer quotient at P (Broue, Proc.
   AMS 93, 1985), the P-fixed space modulo the images of the relative traces
   from the maximal proper subgroups of P, as a null space basis of the
   fixed space and an rref of the trace image in its coordinates;
2. ``oracle_tau``: the action of the pair's lift on that quotient, and the
   multiplicities of its eigenvalues, transported to complex roots of unity
   through a tabulated discrete logarithm.

Three memos keep each stage from repeating: the module per (generator,
field), the quotient per (generator, field, P) and the value per (pair,
generator, field, dimension cap).  ``build_field`` interns its fields, so
repeated runs in one process hit the same entries.

Field elements are ints 0..q-1, the base-p codes of their coefficient
tuples.  The linear algebra is sparse: a vector is a dict {index: nonzero
code} and a matrix a tuple of such columns, so the action of an element
holds d entries, and the elimination reduces each row once against the
pivots found so far.  Fields with q <= TABLE_MAX_Q multiply, invert and add
through exp/log/Zech tables built once per field, and run the one row
operation, ``FqField.add_scaled`` (row += f * other), in one pass over them;
larger fields, such as F_(2^28), multiply and reduce coefficient
polynomials on the same codes, element by element.

It shares no code with the combinatorial fixed-line formula in
:mod:`ppring.species`; agreement between the two is one of the central
checks of the test suite.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .cyclo import ConductorMismatch, Cyclotomic, zeta_power
from .grp import FiniteGroup, check_prime, coset_indices
from .lattice import subgroup_lattice
from .ppelem import Generator
from .species import SpeciesPair

DEFAULT_N_CAP = 32
DEFAULT_DIM_CAP = 200
# Fields up to this size run on exp/log/Zech tables, larger ones on polynomials.
# The build takes q polynomial products: 38 ms for F_4096 (m = 12), 95 ms for
# F_6561 and 210 ms for F_28561 on a 2-core Xeon VM (Python 3.11), so above
# 4096 elements a default 50-sample oracle-check can spend longer building the
# tables than the polynomial path spends on the whole run (C5 at p = 13:
# 0.17 s on polynomials, 0.32 s with tables).
TABLE_MAX_Q = 1 << 12
# The search for a field stops with CapExceeded past these bounds, so that no
# conductor under the n cap runs unbounded.  The modulus search counts its work
# in the coefficient products of its powers and gcds (:func:`_ppowmod`, with
# STEP_WORK products charged for the calls of each powering step): F_(2^18)
# takes 21,728, F_(13^20) 883,042 and F_(929^12) 3,804,459, the most of the
# sampled fields (conductor up to 32, characteristic below 1000) that a search
# without bounds builds in under 2 s.  C29 at p = 31, whose counter-order
# search for a degree-28 modulus meets 973 reducible candidates before an
# irreducible one, stops at the cap and exits in about 0.8 s on a 2-core Xeon
# VM (Python 3.11).  The search for a generator, once q - 1 is factored, is
# not charged: it ends, since the group is cyclic, but in counter order it can
# pass thousands of codes (the first generator of F_(61^10) is code 3,782,
# about 9 s in).
FIELD_WORK_CAP = 6_000_000
STEP_WORK = 64
# The largest trial divisor of q - 1, reached in about 1 s; a cofactor with
# no divisor below it is accepted only if it is prime.  Among the fields of
# characteristic below 100 and conductor up to 32, 71^14 - 1 (C29 at p = 71)
# needs the largest divisor, 21,020,917.
FACTOR_TRIAL_CAP = 1 << 25


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


def _ppowmod(base, e, m, p, charge=None):
    """base^e modulo m; ``charge``, when given, is called before each step
    with its work in coefficient products: the length of the base times
    itself, and times the length of the result when the step multiplies into
    it, plus STEP_WORK for the calls of the step, which dominate when m has a
    small degree."""
    result = (1,)
    base = _pmod(base, m, p)
    while e:
        if charge is not None:
            charge(STEP_WORK + len(base) * (len(base) + (len(result) if e & 1 else 0)))
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


def _is_irreducible(f: tuple[int, ...], p: int, charge) -> bool:
    """Ben-Or test: a monic f of degree m is irreducible when gcd(x^(p^k) - x,
    f) = 1 for k = 1 .. m/2, since a reducible f has a factor of degree k <=
    m/2, which divides x^(p^k) - x.  Most reducible candidates have a small
    factor and stop at a small k.  The powers and the gcds report their
    coefficient products to ``charge`` (see :func:`_ppowmod`), or to nothing
    when it is None."""
    m = len(f) - 1
    minus_x = (0, p - 1)
    h = (0, 1)  # x^(p^k) mod f
    for _ in range(m // 2):
        h = _ppowmod(h, p, f, p, charge)
        if charge is not None:
            charge(m * m)
        if len(_pgcd(f, _padd(h, minus_x, p), p)) > 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n in increasing order, by trial division
    by 2 and the odd numbers up to FACTOR_TRIAL_CAP.  It stops early once the
    cofactor left is prime; past the cap the cofactor must be prime, or
    CapExceeded is raised."""
    out = []
    limit = min(math.isqrt(n), FACTOR_TRIAL_CAP)
    for d in itertools.chain((2,), range(3, FACTOR_TRIAL_CAP + 1, 2)):
        if d > limit:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            if _is_prime(n):
                break
            limit = min(math.isqrt(n), FACTOR_TRIAL_CAP)
    if n > 1:
        if math.isqrt(n) > FACTOR_TRIAL_CAP and not _is_prime(n):
            raise CapExceeded(f"factoring exceeds the trial division cap {FACTOR_TRIAL_CAP}")
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    """Whether n is prime, decided by :func:`~ppring.grp.check_prime`; a
    cofactor too large for it to decide counts as not prime."""
    try:
        check_prime(n)
    except ValueError:
        return False
    return True


def _digits(code: int, p: int) -> tuple[int, ...]:
    """The coefficient tuple (low to high, no trailing zeros) of a field code."""
    out = []
    while code:
        code, d = divmod(code, p)
        out.append(d)
    return tuple(out)


def _code(digits, p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


class FqField:
    """The field F_(p^m) with a distinguished root of unity zeta of exact order n.

    An element is an int in 0..q-1: the base-p code sum c_i p^i of its
    coefficients c_0, ..., c_(m-1) over F_p with respect to the irreducible
    ``modulus``, so 0 and 1 are the field's zero and one.  ``generator`` is
    the generator g of the multiplicative group that ``build_field`` chose,
    zeta = g^((q-1)/n), and ``theta`` maps each n-th root of unity zeta^j to
    j, the exponent of the corresponding complex root zeta_n.

    For q <= TABLE_MAX_Q the arithmetic reads tables built once from g: exp
    and log, and the Zech logarithms zech[k] = log(1 + g^k) (Huber, IEEE
    Trans. Inf. Theory 36, 1990), so that a product adds logs mod q-1 and
    g^a + g^b = g^(a + zech[b - a]).  Larger fields, whose tables would cost
    more to build than an oracle run takes, multiply and reduce the
    coefficient polynomials.
    """

    __slots__ = ("p", "n", "m", "q", "modulus", "generator", "zeta", "theta",
                 "_exp", "_log", "_zech", "_neg")

    def __init__(self, p: int, n: int, m: int, modulus: tuple[int, ...],
                 generator: int):
        self.p = p
        self.n = n
        self.m = m
        self.q = q = p ** m
        self.modulus = modulus
        self.generator = generator
        if (q - 1) % n:
            raise ValueError(f"F_{q} has no root of unity of order {n}")
        step = (q - 1) // n
        self._exp = self._log = self._zech = self._neg = None
        if q <= TABLE_MAX_Q:
            self._build_tables()
        self.zeta = self.pow(generator, step)
        self.theta = {}
        x = 1
        for j in range(n):
            if x in self.theta:
                raise ValueError("root of unity has order smaller than n")
            self.theta[x] = j
            x = self.mul(x, self.zeta)
        if x != 1:
            raise ValueError("root of unity does not have order n")

    def _build_tables(self) -> None:
        p, q = self.p, self.q
        # exp has 2(q-1) entries, so a sum of two logs indexes it unreduced
        exp = [0] * (2 * q - 2)
        log = [0] * q
        g = _digits(self.generator, p)
        power = (1,)
        for k in range(q - 1):
            x = _code(power, p)
            exp[k] = exp[k + q - 1] = x
            log[x] = k
            power = _pmod(_pmul(power, g, p), self.modulus, p)
        if sorted(exp[:q - 1]) != list(range(1, q)):
            raise ValueError("the generator does not generate the multiplicative group")
        # 1 + x adds 1 to the constant digit mod p; None marks 1 + x = 0
        zech = []
        for x in exp[:q - 1]:
            y = x + 1 if x % p < p - 1 else x + 1 - p
            zech.append(log[y] if y else None)
        half = 0 if p == 2 else (q - 1) // 2  # -1 = g^half
        neg = [0] + [exp[log[x] + half] for x in range(1, q)]
        self._exp, self._log, self._zech, self._neg = exp, log, zech, neg

    def add(self, a: int, b: int) -> int:
        if not (a and b):
            return a or b
        log = self._log
        if log is None:
            p = self.p
            return _code(_padd(_digits(a, p), _digits(b, p), p), p)
        la = log[a]
        # a + b = g^la (1 + g^(lb - la)); a negative index wraps mod q-1
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        p = self.p
        return _code(tuple(-d % p for d in _digits(a, p)), p)

    def add_scaled(self, row: dict, f: int, other: dict) -> None:
        """row += f * other, in place, on sparse vectors {index: nonzero code}:
        an entry that cancels is deleted, so a vector never stores a zero."""
        if not f:
            return
        log = self._log
        if log is None:
            add, mul = self.add, self.mul
            for k, y in other.items():
                x = add(row.get(k, 0), mul(f, y))
                if x:
                    row[k] = x
                else:
                    del row[k]
            return
        exp, zech, q1 = self._exp, self._zech, self.q - 1
        lf = log[f]  # x + f y = g^lx (1 + g^(lf + log y - lx))
        for k, y in other.items():
            t = lf + log[y]
            x = row.get(k)
            if x:
                lx = log[x]
                z = zech[(t - lx) % q1]
                if z is None:
                    del row[k]
                else:
                    row[k] = exp[lx + z]
            else:
                row[k] = exp[t]

    def mul(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        log = self._log
        if log is None:
            p = self.p
            return _code(_pmod(_pmul(_digits(a, p), _digits(b, p), p), self.modulus, p), p)
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        """a^e for any integer e, where 0^0 = 1 and 0^e = 0 for e > 0."""
        if not a:
            if e < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0 if e else 1
        e %= self.q - 1
        if self._log is None:
            p = self.p
            return _code(_ppowmod(_digits(a, p), e, self.modulus, p), p)
        return self._exp[self._log[a] * e % (self.q - 1)]

    def __repr__(self) -> str:
        return f"FqField(p={self.p}, m={self.m}, n={self.n})"


def build_field(p: int, n: int, n_cap: int = DEFAULT_N_CAP) -> FqField:
    """The smallest field F_(p^m) whose multiplicative group contains mu_n.

    m is the multiplicative order of p mod n; the modulus is the first
    irreducible monic polynomial of degree m in counter order, and the
    distinguished n-th root of unity is g^((q-1)/n) for the first generator
    g of the multiplicative group in counter order.  Fields are interned per
    (p, n), so the memos keyed on a field are shared by every run that asks
    for it; the cap is checked before the lookup.
    """
    if math.gcd(p, n) != 1:
        raise ValueError("n must be prime to p")
    if n > n_cap:
        raise CapExceeded(f"conductor {n} exceeds the oracle cap {n_cap}")
    return _field(p, n)


@lru_cache(maxsize=None)
def _field(p: int, n: int) -> FqField:
    m = 1
    while (p ** m - 1) % n:
        m += 1
    q = p ** m
    work = 0

    def charge(products: int) -> None:
        nonlocal work
        work += products
        if work > FIELD_WORK_CAP:
            raise CapExceeded(f"the modulus search for F_({p}^{m}) exceeds the field work cap "
                              f"{FIELD_WORK_CAP}")

    modulus = None
    for code in range(q):
        digits = _digits(code, p)
        cand = digits + (0,) * (m - len(digits)) + (1,)
        if _is_irreducible(cand, p, charge):
            modulus = cand
            break
    if modulus is None:
        raise RuntimeError(f"no monic irreducible polynomial of degree {m} over F_{p}")
    factors = _prime_factors(q - 1)
    # when m >= 2 the codes below p are the constants, of order dividing p - 1;
    # the multiplicative group is cyclic, so the search finds a generator
    gen = next(x for x in range(p if m > 1 else 1, q)
               if all(_ppowmod(_digits(x, p), (q - 1) // ell, modulus, p) != (1,)
                      for ell in factors))
    return FqField(p, n, m, modulus, gen)


class FqModule:
    """A monomial matrix realization of a generator over a finite field: the
    matrix of an element is a tuple of d sparse columns of one entry each,
    and the homomorphism property is spot-checked on pairs of generators."""

    __slots__ = ("group", "dimension", "zeta_powers", "_reps", "_rep_of",
                 "_position", "_exp_of", "_cache")

    def __init__(self, field: FqField, gen: Generator):
        self.group = gen.group
        self._reps, self._rep_of = coset_indices(gen.group, gen.subgroup)
        self._position = {c: i for i, c in enumerate(self._reps)}
        self._exp_of = dict(zip(gen.subgroup.indices, gen.exps))
        self.zeta_powers = sorted(field.theta, key=field.theta.get)  # zeta^0, zeta^1, ...
        self.dimension = len(self._reps)
        self._cache: dict[int, tuple] = {}
        # spot-check the homomorphism property on generator pairs
        table = self.group.table
        gens = self.group.generators
        for a in gens:
            for b in gens:
                if _mat_mul(field, self.action(a), self.action(b)) != self.action(table[a][b]):
                    raise ValueError("matrix action fails the homomorphism check")

    def action(self, g: int) -> tuple:
        """The matrix of the element with index g: coset c_i goes to c_j with
        scalar chi(c_j^-1 g c_i)."""
        if g not in self._cache:
            table, inv = self.group.table, self.group.inv
            row, position = table[g], self._position
            cols = []
            for ci in self._reps:
                gc = row[ci]
                cj = self._rep_of[gc]
                e = self._exp_of[table[inv[cj]][gc]]  # chi(c_j^-1 g c_i)
                cols.append({position[cj]: self.zeta_powers[e]})
            self._cache[g] = tuple(cols)
        return self._cache[g]


# ---------------------------------------------------------------------------
# sparse linear algebra over FqField: a vector is a dict {index: nonzero
# code}, a matrix a tuple of column vectors, and _rref and _nullspace take
# the rows of a matrix as vectors


def _mat_vec(F: FqField, a, v) -> dict:
    """a v: the sum of v[t] times column t of a."""
    out: dict = {}
    add_scaled = F.add_scaled
    for t, y in v.items():
        add_scaled(out, y, a[t])
    return out


def _mat_mul(F: FqField, a, b) -> tuple:
    """a b, column by column."""
    return tuple(_mat_vec(F, a, col) for col in b)


def _mat_add(F: FqField, a, b) -> tuple:
    out = tuple(dict(col) for col in a)
    for col, other in zip(out, b):
        F.add_scaled(col, 1, other)
    return out


def _minus_scalar(F: FqField, vecs, lam: int) -> list[dict]:
    """The rows (or columns) of mat - lam I, copied from those of mat."""
    add, minus_lam = F.add, F.neg(lam)
    out = []
    for i, v in enumerate(vecs):
        v = dict(v)
        x = add(v.pop(i, 0), minus_lam)
        if x:
            v[i] = x
        out.append(v)
    return out


def _rref(F: FqField, rows):
    """The reduced row echelon form of a matrix given by its rows, as (rows,
    pivot column list) in pivot order.  Each row is reduced once against the
    pivot rows found so far; if it is not zero then, its smallest column
    becomes a pivot, cleared from the earlier rows.  Every pivot row stays 1
    at its pivot and 0 at the others and left of it: the unique rref."""
    add_scaled, neg = F.add_scaled, F.neg
    pivot_rows: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in pivot_rows]:
            add_scaled(row, neg(row[c]), pivot_rows[c])
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            pivot: dict = {}
            add_scaled(pivot, F.inv(row[c]), row)
            row = pivot
        for other in pivot_rows.values():
            factor = other.get(c)
            if factor:
                add_scaled(other, neg(factor), row)
        pivot_rows[c] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def _nullspace(F: FqField, mat, ncols):
    """Basis of the right null space of a matrix (rows of length ncols) and
    its free columns.  Basis vector i is 1 at free column i and 0 at the
    other free columns, so the entries of a null vector at the free columns
    are its coordinates in the basis."""
    rows, pivots = _rref(F, mat)
    free = sorted(set(range(ncols)).difference(pivots))
    neg = F.neg
    basis = []
    for fc in free:
        v = {fc: 1}
        for r, pc in zip(rows, pivots):
            x = r.get(fc)
            if x:
                v[pc] = neg(x)
        basis.append(v)
    return basis, free


# ---------------------------------------------------------------------------
# the oracle


@lru_cache(maxsize=None)
def realize_generator(gen: Generator, F: FqField) -> FqModule:
    """The module of a generator over F, built once per (generator, field)."""
    if gen.conductor != F.n:
        raise ValueError("realize the generator at the field's own conductor")
    return FqModule(F, gen)


def _maximal_proper_subgroups(P: FiniteGroup) -> list[FiniteGroup]:
    """The maximal subgroups of the p-group P: in a p-group they are the
    proper subgroups of the largest order."""
    proper = subgroup_lattice(P).subgroups[:-1]  # sorted by order
    return [H for H in proper if H.order == proper[-1].order]


@lru_cache(maxsize=None)
def _brauer_quotient(gen: Generator, F: FqField, P: FiniteGroup) -> tuple:
    """The Brauer quotient at P of the module of gen over F, built once per
    (generator, field, P).

    Returns ``(basis, free, trace_rows, trace_pivots, quotient)``: the null
    space basis of the P-fixed space and its free columns, which give
    coordinates ``w[c] for c in free`` to every fixed vector w; the rref of
    the images of the relative traces from the maximal proper subgroups of
    P, in those coordinates; and the indices of the basis rows at no trace
    pivot, whose classes form a basis of the quotient.  Vectors are sparse.
    """
    module = realize_generator(gen, F)
    d = module.dimension

    def fixed_space(gens):
        """The common fixed space of the elements of G with indices gens."""
        rows = []
        for u in gens:
            a_rows = [{} for _ in range(d)]  # the rows of A_u, from its columns
            for j, col in enumerate(module.action(u)):
                for i, x in col.items():
                    a_rows[i][j] = x
            rows.extend(_minus_scalar(F, a_rows, 1))
        return _nullspace(F, rows, d)

    basis, free = fixed_space(P.generators)
    coordinate = {c: i for i, c in enumerate(free)}
    trace_vectors = []
    for Qsub in _maximal_proper_subgroups(P):
        tr = None
        for x in coset_indices(P, Qsub)[0]:
            mat = module.action(x)
            tr = mat if tr is None else _mat_add(F, tr, mat)
        for v in fixed_space(Qsub.generators)[0]:
            w = _mat_vec(F, tr, v)
            trace_vectors.append({coordinate[c]: y for c, y in w.items() if c in coordinate})

    trace_rows, trace_pivots = _rref(F, trace_vectors)
    quotient = tuple(i for i in range(len(basis)) if i not in trace_pivots)
    return tuple(basis), tuple(free), tuple(trace_rows), tuple(trace_pivots), quotient


@lru_cache(maxsize=None)
def oracle_tau(pair: SpeciesPair, gen: Generator, F: FqField,
               dim_cap: int = DEFAULT_DIM_CAP) -> Cyclotomic:
    """Species value computed by literal linear algebra over F_q, once per
    (pair, generator, field, dimension cap).

    Reads the Brauer quotient at P from ``_brauer_quotient``, acts on it by
    the pair's lift, and adds up the multiplicities of the eigenvalues
    lambda = zeta^j of that action A, each the dimension of the quotient
    less the rank of A - lambda I, read as the rank of its transpose, whose
    rows are the columns of A, for every r-th root of unity (r the order of
    s), weighted by the theta-transported roots of unity.  The
    multiplicities must fill the quotient, or the action is not semisimple
    and a RuntimeError is raised.
    """
    if gen.group != pair.group:
        raise ValueError("pair and generator over different groups")
    if F.p != pair.p:
        raise ValueError(f"field of characteristic {F.p} for a pair at p = {pair.p}")
    if gen.conductor % pair.s_order != 0:
        raise ConductorMismatch("conductor incompatible with the pair")
    d = gen.dimension
    if d > dim_cap:
        raise CapExceeded(f"dimension {d} exceeds the oracle cap {dim_cap}")
    module = realize_generator(gen, F)
    n = gen.conductor
    basis, free, trace_rows, trace_pivots, quotient = _brauer_quotient(gen, F, pair.P)
    dim_quot = len(quotient)
    if dim_quot == 0:
        return Cyclotomic.zero(n)

    add_scaled, neg = F.add_scaled, F.neg
    t_action = module.action(pair.lift)
    coordinate = {c: k for k, c in enumerate(free)}
    position = {j: k for k, j in enumerate(quotient)}
    cols = []
    for i in quotient:
        w = _mat_vec(F, t_action, basis[i])
        cw = {coordinate[c]: x for c, x in w.items() if c in coordinate}
        for row, pc in zip(trace_rows, trace_pivots):  # reduce modulo the traces
            factor = cw.get(pc)
            if factor:
                add_scaled(cw, neg(factor), row)
        cols.append({position[j]: x for j, x in cw.items()})

    r = pair.s_order
    total = Cyclotomic.zero(n)
    seen_dim = 0
    for j in range(r):
        lam = module.zeta_powers[j * (n // r)]
        mult = dim_quot - len(_rref(F, _minus_scalar(F, cols, lam))[1])
        if mult:
            total = total + zeta_power(n, F.theta[lam]) * mult
            seen_dim += mult
    if seen_dim != dim_quot:
        raise RuntimeError("lift action is not semisimple with mu_r eigenvalues")
    return total
