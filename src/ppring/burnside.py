"""The rational Burnside ring: marks, Gluck-Yoshida idempotents, fixed points.

Elements are rational combinations of transitive G-sets [G/L], stored on
canonical conjugacy-class representatives of subgroups, which *is* a basis,
so equality here is plain coefficient equality.  Restriction and induction
are implemented by explicit orbit algorithms on coset spaces (not through
mark vectors), so the commutation tests against the module-theoretic side
exercise genuinely independent code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

from .cyclo import Cyclotomic
from .grp import (FiniteGroup, Subgroup, conjugate_meet, coset_indices,
                  double_coset_reps, normalizer, normalizer_quotient, promote,
                  translate)
from .lattice import subgroup_lattice
from .ppelem import (GroupMismatch, LinChar, PPElement, default_conductor,
                     make_generator)


class BurnsideElement:
    """A rational combination of transitive G-sets, on canonical class reps."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup,
                 coeffs: Mapping[Subgroup, Union[int, Fraction]] | None = None):
        self.group = group
        lat = subgroup_lattice(group)
        clean: dict[Subgroup, Fraction] = {}
        for L, c in (coeffs or {}).items():
            rep = lat.rep_of(L)
            c = Fraction(c)
            if c:
                clean[rep] = clean.get(rep, Fraction(0)) + c
        self.coeffs = {L: c for L, c in clean.items() if c}

    @classmethod
    def _trusted(cls, group: FiniteGroup, coeffs: Mapping[Subgroup, Fraction]):
        """Fraction coefficients already on class representatives, taken
        without the lattice lookup of ``__init__``."""
        x = object.__new__(cls)
        x.group, x.coeffs = group, {L: c for L, c in coeffs.items() if c}
        return x

    @classmethod
    def zero(cls, group: FiniteGroup) -> BurnsideElement:
        return cls(group)

    def __add__(self, other: BurnsideElement) -> BurnsideElement:
        if other.group != self.group:
            raise GroupMismatch("elements over different groups")
        coeffs = dict(self.coeffs)
        for L, c in other.coeffs.items():
            coeffs[L] = coeffs.get(L, Fraction(0)) + c
        return BurnsideElement._trusted(self.group, coeffs)

    def __neg__(self) -> BurnsideElement:
        return self.scale(-1)

    def __sub__(self, other: BurnsideElement) -> BurnsideElement:
        return self + (-other)

    def scale(self, c: Union[int, Fraction]) -> BurnsideElement:
        c = Fraction(c)
        return BurnsideElement._trusted(self.group, {L: c * v for L, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    def sorted_terms(self) -> list[tuple[Subgroup, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "BurnsideElement(0)"
        body = " + ".join(f"({c})*[G/|{L.order}|]" for L, c in self.sorted_terms())
        return f"BurnsideElement({body})"


def transitive(G: FiniteGroup, L: Subgroup) -> BurnsideElement:
    """The class of the transitive G-set [G/L]."""
    return BurnsideElement(G, {L: 1})


@lru_cache(maxsize=None)
def mark(G: FiniteGroup, L: Subgroup, H: Subgroup) -> int:
    """The number of H-fixed points of [G/L]: cosets gL with g^-1 H g <= L."""
    return len(_fixed_cosets(G, L, H))


def _fixed_cosets(G: FiniteGroup, L: Subgroup, H: Subgroup) -> list[int]:
    """Indices of the minimal representatives g of the cosets gL fixed by H."""
    conj = G.conj
    mask = L.mask
    hgens = H.generators()
    return [g for g in coset_indices(G, L)[0]
            if all(mask >> conj[g][h] & 1 for h in hgens)]


def mark_element(x: BurnsideElement, H: Subgroup) -> Fraction:
    """Linear extension of the mark at H."""
    total = Fraction(0)
    for L, c in x.coeffs.items():
        total += c * mark(x.group, L, H)
    return total


@lru_cache(maxsize=None)
def _transitive_product(G: FiniteGroup, A: Subgroup,
                        B: Subgroup) -> tuple[tuple[Subgroup, int], ...]:
    """[G/A].[G/B] = sum over A\\G/B of [G/(A cap gBg^-1)], as (class
    representative, multiplicity) pairs."""
    lat = subgroup_lattice(G)
    counts: dict[Subgroup, int] = {}
    for g in double_coset_reps(G, A, B):
        rep = lat.rep_of(Subgroup.from_indices(G, conjugate_meet(G, A, B, g)))
        counts[rep] = counts.get(rep, 0) + 1
    return tuple(counts.items())


def burnside_product(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the product of transitive G-sets."""
    if a.group != b.group:
        raise GroupMismatch("elements over different groups")
    G = a.group
    terms: dict[Subgroup, Fraction] = {}
    for A, ca in a.coeffs.items():
        for B, cb in b.coeffs.items():
            c = ca * cb
            for rep, m in _transitive_product(G, A, B):
                terms[rep] = terms.get(rep, Fraction(0)) + c * m
    return BurnsideElement._trusted(G, terms)


def gluck_yoshida(G: FiniteGroup, H: Subgroup) -> BurnsideElement:
    """The primitive idempotent of the rational Burnside ring attached to H:

        e_H = (1/|N_G(H)|) * sum over L <= H of |L| mu(L, H) [G/L],

    with the Moebius function taken in the subgroup poset of H.
    """
    if H.parent != G:
        raise GroupMismatch("subgroup over a different group")
    lat = subgroup_lattice(promote(H))
    nrm = normalizer(G, H).order
    coeffs: dict[Subgroup, Fraction] = {}
    for L in lat.subgroups:
        mu = lat.moebius(L, lat.top)
        if mu == 0:
            continue
        LG = L.reparent(G)
        coeffs[LG] = coeffs.get(LG, Fraction(0)) + Fraction(L.order * mu, nrm)
    return BurnsideElement(G, coeffs)


def _orbit_stabilizers(H: Subgroup, G: FiniteGroup, L: Subgroup,
                       fixed: list[int]) -> list[list[int]]:
    """Orbits of H acting by left multiplication on a set of cosets of L.

    ``fixed`` lists coset representatives as indices of G; returns, as
    indices of G, the stabilizer in H of each orbit's minimal coset.
    """
    table, conj = G.table, G.conj
    rep_of = coset_indices(G, L)[1]
    hgens = H.generators()
    remaining = set(fixed)
    out = []
    mask = L.mask
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for c in frontier:
                for h in hgens:
                    d = rep_of[table[h][c]]
                    if d not in orbit:
                        orbit.add(d)
                        new.append(d)
            frontier = new
        remaining -= orbit
        row = conj[start]
        out.append([h for h in H.indices if mask >> row[h] & 1])
    return out


def burnside_res(x: BurnsideElement, H: Subgroup) -> BurnsideElement:
    """Restriction to H by orbit decomposition of each coset space."""
    if H.parent != x.group:
        raise GroupMismatch("subgroup over a different group")
    G = x.group
    HH = promote(H)
    terms: dict[Subgroup, Fraction] = {}
    for L, c in x.coeffs.items():
        reps = coset_indices(G, L)[0]
        for stab in _orbit_stabilizers(H, G, L, reps):
            S = Subgroup.from_indices(HH, translate(G, HH, stab))
            terms[S] = terms.get(S, Fraction(0)) + c
    return BurnsideElement(HH, terms)


def burnside_ind(x: BurnsideElement, G: FiniteGroup) -> BurnsideElement:
    """Induction to G: the induced transitive set [H/S] becomes [G/S]."""
    if not G.contains_group(x.group):
        raise GroupMismatch("the element's group is not a subgroup of the target")
    coeffs = {S.reparent(G): c for S, c in x.coeffs.items()}
    return BurnsideElement(G, coeffs)


def fixed_point_functor(P: Subgroup, x: BurnsideElement) -> BurnsideElement:
    """The functor induced by taking P-fixed points, landing over N_G(P)/P.

    Each [G/L] is sent to the orbit decomposition of its P-fixed cosets as a
    set for the quotient group.
    """
    if P.parent != x.group:
        raise GroupMismatch("subgroup over a different group")
    G = x.group
    N = normalizer(G, P)
    Q = normalizer_quotient(G, P)
    terms: dict[Subgroup, Fraction] = {}
    for L, c in x.coeffs.items():
        for stab in _orbit_stabilizers(N, G, L, _fixed_cosets(G, L, P)):
            Sbar = Q.project_subgroup(
                Subgroup.from_indices(Q.parent, translate(G, Q.parent, stab)))
            terms[Sbar] = terms.get(Sbar, Fraction(0)) + c
    return BurnsideElement(Q.group, terms)


def linearize(x: BurnsideElement, p: int, conductor: int | None = None) -> PPElement:
    """The image in the p-permutation ring: [G/L] becomes the monomial
    generator with trivial character."""
    G = x.group
    n = default_conductor(G, p) if conductor is None else conductor
    terms = {}
    for L, c in x.coeffs.items():
        gen = make_generator(G, L, LinChar.trivial(L, n))
        terms[gen] = terms.get(gen, Cyclotomic.zero(n)) + Cyclotomic.from_rational(n, c)
    return PPElement(G, p, n, terms)
