"""Elements of the (scalar-extended) p-permutation ring.

An element is a formal cyclotomic-linear combination of monomial generators:
classes of modules induced from one-dimensional characters of subgroups,
``Ind_L^G k_{L,chi}`` with chi a linear character of p'-order.  A character
of L is its exponent tuple: the e(x) with chi(x) = zeta_n^e(x) for each
element x of L, aligned with ``L.indices`` and reduced mod the conductor n.
When n is prime to p, the homomorphism property forces every p-element to
exponent 0, which keeps the characters closed under the calculus.  The spanning
set is closed under restriction, induction, inflation, tensor product and
the Brauer morphism.  Restriction is the one double-coset (Mackey)
expansion, memoized per (generator, subgroup) in :func:`_res_gen`, which
reads the Mackey skeleton of :func:`_mackey`: one per (G, H, L), shared by
every character of L, holding each double coset's meet with the positions
in L of its conjugated members, so that a term costs one tuple and one memo
lookup.  The tensor product reads the expansion through the projection
formula, the Brauer morphism restricts to N_G(P) first (unless P is already
normal), and induction and inflation move each generator on its own.

Generators are kept in canonical form, one object per form: the pair
(subgroup, character) is normalized to its minimal conjugate, so a generator
is its own identity, for equality and for hashing, and collecting terms is a
dictionary merge.  The canonical form is memoized in :func:`_canonical`,
keyed on the group, the subgroup, the exponent tuple and the conductor,
which the calculus calls directly; :func:`make_generator` is its checked
entry.  It reads the minimal conjugate subgroup and a conjugator to it from
the lattice of the group, and aligns the character over the normalizer of
that subgroup alone.  Equal terms imply equal
elements but not conversely (the generators only span);
:func:`ppring.species.equal_elements` decides equality, coefficients first,
then by the species of the difference.

Sums and the expansions accumulate late in :func:`collect`, as
:func:`ppring.species.tau_element` does: the integer numerators of each
output coefficient are summed over the least common denominator of the
inputs, and each :class:`Cyclotomic` is built once, in lowest terms, rather
than once per Mackey term.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, Union

from .cyclo import Cyclotomic, ConductorMismatch, _lowest
from .grp import (FiniteGroup, NotNormal, NotSubgroup, QuotientGroup, double_coset_reps,
                  is_p_power, normalizer, normalizer_quotient, quotient)
from .lattice import subgroup_lattice

Scalar = Union[int, Fraction, Cyclotomic]


class GroupMismatch(Exception):
    """Raised when combining elements over different groups."""


class QuotientMismatch(Exception):
    """Raised when inflating an element that does not live over the quotient."""


class NotPGroup(Exception):
    """Raised when the Brauer morphism is taken at a non-p-subgroup."""


@lru_cache(maxsize=None)
def default_conductor(G: FiniteGroup, p: int) -> int:
    """The p'-part of the exponent of G: all character values live in Q(zeta_n)."""
    n = G.exponent()
    while n % p == 0:
        n //= p
    return n


def _aligned(L: FiniteGroup, exps: Iterable[int], n: int) -> tuple[int, ...]:
    """The exponents reduced mod n, checked to give one per element of L."""
    exps = tuple(e % n for e in exps)
    if len(exps) != L.order:
        raise ValueError(f"{len(exps)} exponents for a domain of order {L.order}")
    return exps


def check_homomorphism(L: FiniteGroup, exps: Iterable[int], n: int) -> None:
    """Raise ValueError unless the exponents, aligned with ``L.indices``,
    are a homomorphism from L to Z/n, one per element of L."""
    table = L.table
    exp_of = dict(zip(L.indices, _aligned(L, exps, n)))
    if any((ea + eb) % n != exp_of[table[a][b]]
           for a, ea in exp_of.items() for b, eb in exp_of.items()):
        raise ValueError("table is not a homomorphism")


def linear_characters(L: FiniteGroup, conductor: int) -> tuple[tuple[int, ...], ...]:
    """All linear characters of L with values in mu_conductor, as sorted
    exponent tuples aligned with ``L.indices``.

    Characters are built by assigning admissible exponents to a generating
    set and propagating them along the multiplication table; inconsistent
    assignments are discarded.  A consistent propagation is a homomorphism,
    which :func:`check_homomorphism` confirms for every result.
    """
    n = conductor
    gens = L.generators
    if not gens:
        return ((0,) * L.order,)
    table, orders = L.table, L.orders
    choices = []
    for g in gens:
        d = math.gcd(n, orders[g])
        choices.append([(n // d) * k for k in range(d)])
    out = []
    for assignment in product(*choices):
        exp_of = {0: 0}
        reached = [0]
        consistent = True
        for x in reached:  # breadth first: the loop also visits what it appends
            row, ex = table[x], exp_of[x]
            for g, e in zip(gens, assignment):
                y, ey = row[g], (ex + e) % n
                if y not in exp_of:
                    exp_of[y] = ey
                    reached.append(y)
                elif exp_of[y] != ey:
                    consistent = False
            if not consistent:
                break
        if consistent:
            chi = tuple([exp_of[x] for x in L.indices])
            check_homomorphism(L, chi, n)
            out.append(chi)
    return tuple(sorted(out))


class Generator:
    """The class of the module induced from a linear character of a subgroup.

    The character is ``exps``, the exponent e(x) of each element x of the
    subgroup, chi(x) = zeta_n^e(x) for n the ``conductor``, aligned with
    ``subgroup.indices`` and reduced mod n.  Instances are in canonical
    form, one object per form, so a generator is equal only to itself;
    :func:`make_generator` builds them, conjugating (subgroup, character) to
    the minimal representative.
    """

    __slots__ = ("group", "subgroup", "exps", "conductor")

    def __init__(self, group: FiniteGroup, subgroup: FiniteGroup, exps: tuple[int, ...],
                 conductor: int):
        self.group = group
        self.subgroup = subgroup
        self.exps = exps
        self.conductor = conductor

    @property
    def dimension(self) -> int:
        return self.group.order // self.subgroup.order

    def sort_key(self):
        return (self.subgroup.order, self.subgroup.indices, self.exps)

    def __repr__(self) -> str:
        tag = self.exps if any(self.exps) else "triv"
        return f"gen(|L|={self.subgroup.order}, chi={tag})"


def make_generator(group: FiniteGroup, subgroup: FiniteGroup, exps: Iterable[int],
                   conductor: int) -> Generator:
    """Canonical generator of a subgroup of the group and a character of it,
    given by its exponents mod the conductor aligned with
    ``subgroup.indices``: the checked entry of :func:`_canonical`.

    The exponents are reduced mod the conductor but not checked to be a
    homomorphism (:func:`check_homomorphism` does that).
    """
    if not group.contains_group(subgroup):
        raise GroupMismatch("subgroup does not live in the given group")
    return _canonical(group, subgroup, _aligned(subgroup, exps, conductor), conductor)


@lru_cache(maxsize=None)
def _canonical(group: FiniteGroup, subgroup: FiniteGroup, exps: tuple[int, ...],
               n: int) -> Generator:
    """The generator of a subgroup of the group and its exponents mod n,
    aligned with ``subgroup.indices``, unchecked: (subgroup, exponents)
    minimized over conjugation.

    The key of a conjugate is its sorted index tuple, then its exponents
    aligned to those indices, compared as two tuples.  The least index
    tuple is the class representative J = ``rep_of(subgroup)`` of the
    lattice of the group, and the elements x with x^-1 L x = J are y m,
    for y the lattice's recorded conjugator of L and m in N(J); the
    exponents are aligned over those alone, and a trivial character needs
    none.  The minimal form is interned by calling this memo on it, and
    only that call builds the :class:`Generator`, so every input of one
    form returns the same object.
    """
    lat = subgroup_lattice(group)
    J = lat.rep_of(subgroup)
    best = exps
    if any(exps):
        conj, row_y = group.conj, group.table[lat.conjugator(subgroup)]
        members, target = subgroup.indices, J.indices
        best = None
        for m in normalizer(group, J).indices:
            row = conj[row_y[m]]
            exp_of = {row[x]: e for x, e in zip(members, exps)}
            aligned = [exp_of[x] for x in target]
            if best is None or aligned < best:
                best = aligned
        best = tuple(best)
    if J is subgroup and best == exps:
        return Generator(group, subgroup, exps, n)
    return _canonical(group, J, best, n)


class PPElement:
    """A formal cyclotomic-linear combination of canonical generators;
    ``PPElement(G, p, n)``, with no terms, is zero."""

    __slots__ = ("group", "p", "conductor", "terms")

    def __init__(self, group: FiniteGroup, p: int, conductor: int,
                 terms: Mapping[Generator, Cyclotomic] | None = None):
        if conductor % p == 0:
            raise ValueError("conductor must be prime to p")
        self.group = group
        self.p = p
        self.conductor = conductor
        clean: dict[Generator, Cyclotomic] = {}
        for gen, coeff in (terms or {}).items():
            if gen.group != group:
                raise GroupMismatch("term over a different group")
            if gen.conductor != conductor or coeff.conductor != conductor:
                raise ConductorMismatch("term at a different conductor")
            if not coeff.is_zero():
                clean[gen] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, group: FiniteGroup, p: int, conductor: int,
                 terms: dict[Generator, Cyclotomic]) -> PPElement:
        """Nonzero coefficients at the conductor on canonical generators over
        the group, taken without the checks of ``__init__``."""
        x = object.__new__(cls)
        x.group, x.p, x.conductor, x.terms = group, p, conductor, terms
        return x

    @classmethod
    def one(cls, group: FiniteGroup, p: int, conductor: int) -> PPElement:
        """The class of the trivial module."""
        gen = _canonical(group, group, (0,) * group.order, conductor)
        return cls(group, p, conductor, {gen: Cyclotomic.one(conductor)})

    @classmethod
    def from_generator(cls, p: int, gen: Generator) -> PPElement:
        n = gen.conductor
        return cls(gen.group, p, n, {gen: Cyclotomic.one(n)})

    def _compatible(self, other: PPElement) -> None:
        if self.group != other.group or self.p != other.p:
            raise GroupMismatch("elements live over different groups")
        if self.conductor != other.conductor:
            raise ConductorMismatch("elements at different conductors")

    def scale(self, c: Scalar) -> PPElement:
        c = _as_cyclo(c, self.conductor)
        return PPElement(self.group, self.p, self.conductor,
                         {gen: coeff * c for gen, coeff in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Generator, Cyclotomic]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self) -> str:
        if not self.terms:
            return "PPElement(0)"
        body = " + ".join(f"({coeff})*{gen!r}" for gen, coeff in self.sorted_terms())
        return f"PPElement({body})"

    def to_json(self) -> list[dict]:
        out = []
        elements = self.group.root.elements
        for gen, coeff in self.sorted_terms():
            out.append({
                "subgroup": [list(elements[g].images) for g in gen.subgroup.generators],
                "character": {str(i): e for i, e in enumerate(gen.exps)},
                "coeff": coeff.to_json(),
            })
        return out


def collect(group: FiniteGroup, p: int, n: int,
            parts: list[tuple[Generator, Cyclotomic, int]]) -> PPElement:
    """The element sum of m * coeff * gen over the (gen, coeff, m) parts.

    The numerators of each generator's coefficient are accumulated over the
    least common denominator of the parts, and each nonzero coefficient is
    then built once, in lowest terms.  Numerators are added in the power
    basis, so no reduction modulo Phi_n is needed.
    """
    den = math.lcm(*(coeff.den for _, coeff, _ in parts))
    acc: dict[Generator, list[int]] = {}
    for gen, coeff, m in parts:
        k = m * (den // coeff.den)
        row = acc.get(gen)
        if row is None:
            acc[gen] = [c * k for c in coeff.num]
        else:
            for i, c in enumerate(coeff.num):
                if c:
                    row[i] += c * k
    return PPElement._trusted(group, p, n, {
        gen: Cyclotomic._new(n, *_lowest(num, den)) for gen, num in acc.items() if any(num)})


def _as_cyclo(c: Scalar, n: int) -> Cyclotomic:
    if isinstance(c, Cyclotomic):
        if c.conductor != n:
            raise ConductorMismatch("scalar at a different conductor")
        return c
    return Cyclotomic.from_rational(n, c)


# ---------------------------------------------------------------------------
# the calculus on generators


def _pullback_log(H: FiniteGroup, P: FiniteGroup, s_lift: int) -> tuple[dict[int, int], int]:
    """The exponent a(x) of each x of H, whose image in H/P is the a(x)-th
    power of the image s of the element with index ``s_lift``, and the order
    r of s; raises NotNormal unless s generates H/P.  The j-th character of
    H/P pulled back to x is then zeta_r^(j a(x))."""
    Q = quotient(H, P)
    s = Q.proj[s_lift]
    table = Q.group.table
    r = Q.group.orders[s]
    if r != Q.group.order:
        raise NotNormal("quotient is not cyclic generated by the image of the lift")
    dlog = {}
    power = 0
    for a in range(r):
        dlog[power] = a
        power = table[power][s]
    proj = Q.proj
    return {x: dlog[proj[x]] for x in H.indices}, r


@lru_cache(maxsize=None)
def _mackey(G: FiniteGroup, H: FiniteGroup,
            L: FiniteGroup) -> tuple[tuple[FiniteGroup, tuple[int, ...]], ...]:
    """The Mackey skeleton of (G, H, L), shared by every character of L: one
    entry per double coset H g L of ``double_coset_reps``, holding the meet
    H cap gLg^-1 and, for each member x of the meet in order, the position
    in ``L.indices`` of g^-1 x g."""
    at = {x: i for i, x in enumerate(L.indices)}
    conj = G.conj
    return tuple([(meet, tuple([at[conj[g][x]] for x in meet.indices]))
                  for g, meet in double_coset_reps(G, H, L)])


@lru_cache(maxsize=None)
def _res_gen(gen: Generator, H: FiniteGroup) -> tuple[tuple[Generator, int], ...]:
    """Restriction of one generator to H, by the Mackey double-coset
    expansion, as (generator over H, multiplicity) pairs: one term per double
    coset H g L, over its meet in the skeleton :func:`_mackey`, whose
    character sends x to chi(g^-1 x g)."""
    n = gen.conductor
    exps = gen.exps
    counts: dict[Generator, int] = {}
    for meet, at in _mackey(gen.group, H, gen.subgroup):
        new = _canonical(H, meet, tuple([exps[i] for i in at]), n)
        counts[new] = counts.get(new, 0) + 1
    return tuple(counts.items())


def res_elt(x: PPElement, H: FiniteGroup) -> PPElement:
    """Restriction to H, linear over the Mackey expansion of each generator."""
    if not x.group.contains_group(H):
        raise GroupMismatch("subgroup does not live in the element's group")
    return collect(H, x.p, x.conductor,
                   [(new, coeff, m) for gen, coeff in x.terms.items()
                    for new, m in _res_gen(gen, H)])


def ind_elt(x: PPElement, G: FiniteGroup) -> PPElement:
    """Induction to G: by transitivity a generator just changes ambient group."""
    if not G.contains_group(x.group):
        raise NotSubgroup("the element's group is not a subgroup of the target")
    return collect(G, x.p, x.conductor,
                   [(_canonical(G, gen.subgroup, gen.exps, x.conductor), coeff, 1)
                    for gen, coeff in x.terms.items()])


def inf_elt(x: PPElement, Q: QuotientGroup) -> PPElement:
    """Inflation along the quotient map Q.parent -> Q.group."""
    if x.group != Q.group:
        raise QuotientMismatch("element does not live over the quotient group")
    G = Q.parent
    proj = Q.proj
    parts = []
    for gen, coeff in x.terms.items():
        pre = Q.preimage(gen.subgroup)
        exp_of = dict(zip(gen.subgroup.indices, gen.exps))
        exps = tuple([exp_of[proj[g]] for g in pre.indices])
        parts.append((_canonical(G, pre, exps, x.conductor), coeff, 1))
    return collect(G, x.p, x.conductor, parts)


def tensor_elt(x: PPElement, y: PPElement) -> PPElement:
    """Tensor product, bilinear over generator pairs, by the projection
    formula Ind_A alpha (x) Y = Ind_A(alpha . Res_A Y): each term Ind_K beta
    of the restriction of Y to A gives Ind_K^G(alpha|_K . beta)."""
    x._compatible(y)
    G = x.group
    n = x.conductor
    parts = []
    for genx, cx in x.terms.items():
        alpha = dict(zip(genx.subgroup.indices, genx.exps))
        for geny, cy in y.terms.items():
            c = cx * cy
            for h, m in _res_gen(geny, genx.subgroup):
                K = h.subgroup
                exps = tuple([(alpha[k] + e) % n for k, e in zip(K.indices, h.exps)])
                parts.append((_canonical(G, K, exps, n), c, m))
    return collect(G, x.p, n, parts)


def brauer_elt(x: PPElement, P: FiniteGroup) -> PPElement:
    """The Brauer morphism at a p-subgroup P, landing over N_G(P)/P.

    First restrict to N_G(P) so that P is normal (nothing to do when P is
    already normal in the element's group); then a generator (L, chi)
    survives exactly when P <= L, in which case it maps to (L/P, chi
    transported), since chi is automatically trivial on the p-group P.
    For the trivial P the element is returned unchanged.
    """
    if not x.group.contains_group(P):
        raise GroupMismatch("subgroup does not live in the element's group")
    if not is_p_power(P.order, x.p):
        raise NotPGroup(f"subgroup order {P.order} is not a power of {x.p}")
    if P.order == 1:
        return x
    Q = normalizer_quotient(x.group, P)
    y = x if Q.parent is x.group else res_elt(x, Q.parent)
    n = x.conductor
    proj = Q.proj
    parts = []
    for gen, coeff in y.terms.items():
        L = gen.subgroup
        if not L.contains_group(P):
            continue
        Lbar = Q.project_subgroup(L)
        exp_of = {proj[l]: e for l, e in zip(L.indices, gen.exps)}
        parts.append((_canonical(Q.group, Lbar, tuple([exp_of[q] for q in Lbar.indices]), n),
                      coeff, 1))
    return collect(Q.group, x.p, n, parts)
