"""Species of the p-permutation ring: pair enumeration and exact evaluation.

A species is indexed by a pair (P, s): a p-subgroup P together with a
p'-element s of N_G(P)/P, taken up to conjugation.  Its value on a monomial
generator Ind_L^G k_chi is computed by the fixed-line formula

    sum over cosets gL fixed by both P and the lift t of s
    of  zeta_n^chi(g^-1 t g),

which is the Brauer character of the Brauer quotient at P evaluated at s:
restricted to any p-subgroup the module is a genuine permutation module (the
character has p'-order, hence is trivial on p-elements), so the P-fixed
lines are a basis of the Brauer quotient, the lift permutes them monomially,
and cycles of length greater than one have root-of-unity eigenvalue packets
summing to zero.  The finite-field oracle in :mod:`ppring.ffq` checks this
formula by literal linear algebra.

A pair is canonical when :func:`enumerate_pairs` lists it.  Canonical pairs,
like canonical generators, are read from the subgroup lattice's class
representative and recorded conjugator: :func:`canonical_pair` carries P to
its representative J and names s by the minimal member of its class in
N_G(J)/J, whose lift is the one :func:`enumerate_pairs` takes.

The fixed-line sum of a generator is kept as (exponent, count) terms, one
per root of unity it meets: :func:`_tau_counts`, the one memo of species
values.  A value is accumulated late (after Breuer, AAECC 1997), in the
one routine :func:`_tau_sum` that both :func:`tau_generator` and
:func:`tau_element` call: each numerator row of the element adds its
numerators times the count, rotated by the exponent, into one integer
vector in Z[x]/(x^n - 1) over the element's one denominator.  Since Phi_n
divides x^n - 1, one reduction modulo Phi_n at the end gives the same
canonical value as reducing after every term.

The species vectors separate elements, which is what makes
:func:`equal_elements` a sound equality oracle for the spanning-set
representation.  It decides equality coefficients first, then by the species
of the difference: identical rows over the same denominator are formal
equality, and only a nonzero difference is evaluated, pair by pair, until a
species fails to vanish.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclo import Cyclotomic, ConductorMismatch, _lowest, _reduce
from .grp import (FiniteGroup, QuotientGroup, centralizer, conjugacy_classes,
                  conjugate_masks, from_indices, is_p_power, normalizer_quotient,
                  p_prime_part, subgroup_closure)
from .lattice import subgroup_lattice
from .ppelem import (Generator, GroupMismatch, PPElement, collect, linear_characters,
                     make_generator)


class SpeciesPair:
    """A pair (P, s), with s stored as a p'-order lift in N_G(P).

    ``lift`` is the root index of that lift in ``group``; it determines
    s (its image in N_G(P)/P) and makes every species value a concrete sum
    of character values, with no coset choices left.
    Derived data is precomputed: the subgroup generated by P and the lift,
    the order of s, the pair stabilizer and the centralizer order of s in
    N_G(P)/P.  These satisfy |stabilizer| = |P| * |centralizer|.
    Its label is formatted once, when it is built.  Build pairs with
    :func:`build_pair`: equality is identity.
    """

    __slots__ = ("group", "p", "P", "lift", "ps", "s_order", "stabilizer",
                 "centralizer_order", "_label")

    def __init__(self, group: FiniteGroup, p: int, P: FiniteGroup, lift: int,
                 ps: FiniteGroup, s_order: int, stabilizer: FiniteGroup,
                 centralizer_order: int):
        self.group = group
        self.p = p
        self.P = P
        self.lift = lift
        self.ps = ps
        self.s_order = s_order
        self.stabilizer = stabilizer
        self.centralizer_order = centralizer_order
        self._label = f"(|P|={P.order}, s={group.root.elements[lift]!r})"

    def sort_key(self):
        return (self.P.order, self.P.indices, self.s_order, self.lift)

    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:
        return f"SpeciesPair{self.label()}"


@lru_cache(maxsize=None)
def build_pair(G: FiniteGroup, p: int, P: FiniteGroup, lift: int) -> SpeciesPair:
    """Assemble a species pair from a p-subgroup and the index of a p'-order
    lift."""
    if not G.contains_group(P):
        raise GroupMismatch("subgroup does not live in the group")
    if lift not in G:
        raise ValueError("lift is not an element of the group")
    if not is_p_power(P.order, p):
        raise ValueError(f"subgroup order {P.order} is not a power of {p}")
    table, inv, conj, orders = G.table, G.inv, G.conj, G.orders
    if math.gcd(orders[lift], p) != 1:
        raise ValueError("lift does not have p'-order")
    Q = normalizer_quotient(G, P)
    N = Q.parent
    if lift not in N:
        raise ValueError("lift does not normalize the subgroup")
    ps = subgroup_closure(G, P.generators + (lift,))
    sbar = Q.proj[lift]
    s_order = Q.group.orders[sbar]
    if orders[lift] != s_order:
        raise RuntimeError("a p'-lift must have exactly the order of its image")
    centralizer_order = centralizer(Q.group, sbar).order
    lift_inv = inv[lift]
    mask = P.mask
    # g stabilizes the pair when g^-1 lift g lies in the coset P lift
    stab = from_indices(G, [
        g for g in N.indices if mask >> table[conj[g][lift]][lift_inv] & 1])
    if stab.order != P.order * centralizer_order:
        raise RuntimeError("pair stabilizer order differs from |P| * |centralizer|")
    return SpeciesPair(G, p, P, lift, ps, s_order, stab, centralizer_order)


@lru_cache(maxsize=None)
def enumerate_pairs(G: FiniteGroup, p: int) -> tuple[SpeciesPair, ...]:
    """Canonical representatives of the conjugation orbits of pairs (P, s).

    P runs over class representatives of p-subgroups; for each P, s runs
    over conjugacy class representatives of p'-elements of N_G(P)/P (which
    is exactly the fusion induced by N_G(P), hence by G).
    """
    lat = subgroup_lattice(G)
    pairs = []
    for P in lat.class_reps():
        if not is_p_power(P.order, p):
            continue
        Q = normalizer_quotient(G, P)  # Q.parent is N_G(P)
        orders = Q.group.orders
        for cls in conjugacy_classes(Q.group):
            s = cls[0]
            if math.gcd(orders[s], p) != 1:
                continue
            pairs.append(build_pair(G, p, P, _canonical_lift(Q, s, p)))
    return tuple(sorted(pairs, key=SpeciesPair.sort_key))


def _canonical_lift(Q: QuotientGroup, s: int, p: int) -> int:
    """The lift that a canonical pair takes for the element s of
    Q = N_G(P)/P: the p'-part of the minimal representative of its coset."""
    return p_prime_part(Q.parent, Q.lifts[s], p)


@lru_cache(maxsize=None)
def canonical_pair(G: FiniteGroup, p: int, P: FiniteGroup, lift: int) -> SpeciesPair:
    """The pair of :func:`enumerate_pairs` that is G-conjugate to (P, s),
    for s the image of the p'-element ``lift`` of N_G(P).  The lattice's
    recorded conjugator y carries P to J = ``rep_of(P)`` and the lift to
    y^-1 lift y in N_G(J); pairs at J are conjugate exactly when their
    images in N_G(J)/J are, so the minimal member of that image's class
    names the canonical pair."""
    lat = subgroup_lattice(G)
    J = lat.rep_of(P)
    t = G.conj[lat.conjugator(P)][lift]
    Q = normalizer_quotient(G, J)
    if t not in Q.parent or math.gcd(G.orders[lift], p) != 1:
        raise ValueError("lift is not a p'-element normalizing the subgroup")
    conj, sbar = Q.group.conj, Q.proj[t]
    s = min([conj[g][sbar] for g in Q.group.indices])
    return build_pair(G, p, J, _canonical_lift(Q, s, p))


@lru_cache(maxsize=None)
def _tau_counts(pair: SpeciesPair, gen: Generator) -> tuple[tuple[int, int], ...]:
    """The fixed-line sum of a generator at a pair as (exponent, count)
    terms: the value is the sum of count * zeta_n^exponent.  The line of
    the coset gL is P-fixed when P <= gLg^-1, one mask test against
    :func:`~ppring.grp.conjugate_masks`, and the lift t fixes it when
    g^-1 t g lies in L."""
    L = gen.subgroup
    conj = pair.group.conj
    exp_of = dict(zip(L.indices, gen.exps))
    pmask = pair.P.mask
    t = pair.lift
    counts: dict[int, int] = {}
    for g, m in conjugate_masks(pair.group, L).items():
        if m & pmask != pmask:
            continue  # coset line not P-fixed
        e = exp_of.get(conj[g][t])
        if e is None:
            continue  # line moved by the lift: no trace contribution
        counts[e] = counts.get(e, 0) + 1
    return tuple(sorted(counts.items()))


def _tau_sum(pair: SpeciesPair, group: FiniteGroup, n: int, rows, den: int) -> Cyclotomic:
    """The value at the pair of the sum of (row / den) * gen over the (gen, row)
    items, reduced modulo Phi_n once; raises unless the pair takes values over
    ``group`` at conductor n: same group, n divisible by |s| and prime to p."""
    if group != pair.group:
        raise GroupMismatch("value taken over a different group than the pair")
    if n % pair.s_order != 0 or n % pair.p == 0:
        raise ConductorMismatch("conductor incompatible with the pair")
    acc = [0] * n
    for gen, row in rows:
        for e, count in _tau_counts(pair, gen):
            for i, c in enumerate(row, e):
                if c:
                    acc[i % n] += c * count
    return Cyclotomic._new(n, *_lowest(_reduce(acc, n), den))


def tau_generator(pair: SpeciesPair, gen: Generator) -> Cyclotomic:
    """Species value of a monomial generator at a pair: its fixed-line sum
    read as roots of unity."""
    return _tau_sum(pair, gen.group, gen.conductor, ((gen, (1,)),), 1)


def tau_element(pair: SpeciesPair, x: PPElement) -> Cyclotomic:
    """Linear extension of :func:`tau_generator` over the rows of x."""
    return _tau_sum(pair, x.group, x.conductor, x.rows.items(), x.den)


class SpeciesVector:
    """The values of an element at every canonical pair, in canonical order."""

    __slots__ = ("pairs", "values")

    def __init__(self, pairs: tuple[SpeciesPair, ...], values: tuple[Cyclotomic, ...]):
        self.pairs = pairs
        self.values = values

    def __iter__(self):
        return iter(zip(self.pairs, self.values))

    def __repr__(self) -> str:
        body = ", ".join(f"{q.label()}: {v}" for q, v in self)
        return f"SpeciesVector({body})"

    def to_json(self) -> list[dict]:
        return [{"pair": q.label(), "value": v.to_json()} for q, v in self]


def species_vector(x: PPElement) -> SpeciesVector:
    pairs = enumerate_pairs(x.group, x.p)
    return SpeciesVector(pairs, tuple(tau_element(q, x) for q in pairs))


def equal_elements(x: PPElement, y: PPElement) -> bool:
    """Equality in the ring: coefficients first, then the species of the
    difference.  Equal rows over equal denominators are formal equality;
    otherwise x = y exactly when every species of x - y vanishes."""
    x._compatible(y)
    if x.den == y.den and x.rows == y.rows:
        return True
    d = collect(x.group, x.p, x.conductor,
                [(gen, row, x.den, 1) for gen, row in x.rows.items()]
                + [(gen, row, y.den, -1) for gen, row in y.rows.items()])
    return all(tau_element(q, d).is_zero() for q in enumerate_pairs(x.group, x.p))


def standard_generators(G: FiniteGroup, p: int, conductor: int) -> tuple[Generator, ...]:
    """The canonical monomial spanning set: one generator per conjugacy class
    of (subgroup, linear character) pairs at the given conductor."""
    lat = subgroup_lattice(G)
    seen: dict[Generator, None] = {}
    for L in lat.class_reps():
        for chi in linear_characters(L, conductor):
            seen[make_generator(G, L, chi, conductor)] = None
    return tuple(sorted(seen, key=Generator.sort_key))
