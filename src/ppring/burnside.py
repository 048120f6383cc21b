"""The rational Burnside ring: marks, Gluck-Yoshida idempotents, fixed points.

Elements are rational combinations of transitive G-sets [G/L], stored on
canonical conjugacy-class representatives of subgroups, which *is* a basis,
so equality here is plain coefficient equality.  As in
:class:`~ppring.cyclo.Cyclotomic` and :class:`~ppring.ppelem.PPElement`,
the coefficients are integer numerators ``nums`` over one positive
denominator ``den``, in lowest terms:
``gcd(den, *nums.values()) == 1``, zero coefficients are absent, and zero
is stored with ``den == 1``.  Products, restriction, induction, fixed
points, marks and linearization therefore run on ints; ``Fraction``s appear
only where coefficients are parsed (``__init__``) or read (``coeffs``,
:func:`mark_element`).

Restriction and induction are implemented by explicit orbit algorithms on
coset spaces (not through mark vectors), so the commutation tests against
the module-theoretic side exercise genuinely independent code.  Marks and
the orbit algorithms read the conjugate masks of
:func:`~ppring.grp.conjugate_masks`: H fixes the coset gL when H <= gLg^-1,
and stabilizes it in H cap gLg^-1.  The Mackey expansions never read those
masks; their meets are tested element by element in
:func:`~ppring.grp.double_coset_reps`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Mapping, Union

from .cyclo import _reduction_terms
from .grp import (FiniteGroup, conjugate_masks, coset_indices, from_mask, normalizer,
                  normalizer_quotient)
from .lattice import subgroup_lattice
from .ppelem import GroupMismatch, PPElement, _canonical, _mackey, default_conductor


class BurnsideElement:
    """A rational combination of transitive G-sets, on canonical class reps,
    as integer numerators over one positive denominator in lowest terms;
    ``BurnsideElement(G)``, with no coefficients, is zero."""

    __slots__ = ("group", "nums", "den")

    def __init__(self, group: FiniteGroup,
                 coeffs: Mapping[FiniteGroup, Union[int, Fraction]] | None = None):
        values = [(L, Fraction(c)) for L, c in (coeffs or {}).items()]
        den = lcm(*(c.denominator for _, c in values))
        self.group = group
        self.nums, self.den = _lowest(_on_reps(
            group, [(L, c.numerator * (den // c.denominator)) for L, c in values]), den)

    @classmethod
    def _trusted(cls, group: FiniteGroup, nums: Mapping[FiniteGroup, int],
                 den: int) -> BurnsideElement:
        """Integer numerators already on class representatives over a
        positive denominator, put in lowest terms without the lattice lookup
        of ``__init__``."""
        x = object.__new__(cls)
        x.group = group
        x.nums, x.den = _lowest(nums, den)
        return x

    @property
    def coeffs(self) -> dict[FiniteGroup, Fraction]:
        """The coefficients as rationals, a fresh read-only view."""
        den = self.den
        return {L: Fraction(c, den) for L, c in self.nums.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return (self.group == other.group and self.den == other.den
                and self.nums == other.nums)

    def sorted_terms(self) -> list[tuple[FiniteGroup, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __repr__(self) -> str:
        if not self.nums:
            return "BurnsideElement(0)"
        body = " + ".join(f"({c})*[G/|{L.order}|]" for L, c in self.sorted_terms())
        return f"BurnsideElement({body})"


def _lowest(nums: Mapping[FiniteGroup, int], den: int) -> tuple[dict[FiniteGroup, int], int]:
    """Nonzero numerators and denominator with their common factor removed;
    no numerators give denominator 1."""
    nums = {L: c for L, c in nums.items() if c}
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {L: c // g for L, c in nums.items()}
    return nums, den // g


def _on_reps(G: FiniteGroup, terms) -> dict[FiniteGroup, int]:
    """Integer numerators on subgroups of G, summed on their class
    representatives."""
    rep_of = subgroup_lattice(G).rep_of
    nums: dict[FiniteGroup, int] = {}
    for L, c in terms:
        rep = rep_of(L)
        nums[rep] = nums.get(rep, 0) + c
    return nums


def transitive(G: FiniteGroup, L: FiniteGroup) -> BurnsideElement:
    """The class of the transitive G-set [G/L]."""
    return BurnsideElement(G, {L: 1})


@lru_cache(maxsize=None)
def mark(G: FiniteGroup, L: FiniteGroup, H: FiniteGroup) -> int:
    """The number of H-fixed points of [G/L]: cosets gL with g^-1 H g <= L."""
    if not G.contains_group(H):
        raise GroupMismatch("subgroup over a different group")
    return len(_fixed_cosets(G, L, H))


def _fixed_cosets(G: FiniteGroup, L: FiniteGroup, H: FiniteGroup) -> list[int]:
    """Indices of the minimal representatives g of the cosets gL fixed by H:
    those with H <= gLg^-1, one mask test each."""
    hmask = H.mask
    return [g for g, m in conjugate_masks(G, L).items() if m & hmask == hmask]


def mark_element(x: BurnsideElement, H: FiniteGroup) -> Fraction:
    """Linear extension of the mark at H."""
    G = x.group
    if not G.contains_group(H):
        raise GroupMismatch("subgroup over a different group")
    return Fraction(sum(c * mark(G, L, H) for L, c in x.nums.items()), x.den)


@lru_cache(maxsize=None)
def _transitive_product(G: FiniteGroup, A: FiniteGroup,
                        B: FiniteGroup) -> tuple[tuple[FiniteGroup, int], ...]:
    """[G/A].[G/B] = sum over A\\G/B of [G/(A cap gBg^-1)], as (class
    representative, multiplicity) pairs, read off the meets of the Mackey
    skeleton that restriction in :mod:`ppring.ppelem` shares."""
    rep_of = subgroup_lattice(G).rep_of
    counts: dict[FiniteGroup, int] = {}
    for meet, _ in _mackey(G, A, B):
        rep = rep_of(meet)
        counts[rep] = counts.get(rep, 0) + 1
    return tuple(counts.items())


def burnside_product(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the product of transitive G-sets."""
    if a.group != b.group:
        raise GroupMismatch("elements over different groups")
    G = a.group
    nums: dict[FiniteGroup, int] = {}
    for A, ca in a.nums.items():
        for B, cb in b.nums.items():
            c = ca * cb
            for rep, m in _transitive_product(G, A, B):
                nums[rep] = nums.get(rep, 0) + c * m
    return BurnsideElement._trusted(G, nums, a.den * b.den)


def gluck_yoshida(G: FiniteGroup, H: FiniteGroup) -> BurnsideElement:
    """The primitive idempotent of the rational Burnside ring attached to H:

        e_H = (1/|N_G(H)|) * sum over L <= H of |L| mu(L, H) [G/L],

    with the Moebius function taken in the subgroup poset of H.
    """
    if not G.contains_group(H):
        raise GroupMismatch("subgroup over a different group")
    lat = subgroup_lattice(H)
    terms = [(L, L.order * mu) for L, mu in zip(lat.subgroups, lat.mu_top) if mu]
    return BurnsideElement._trusted(G, _on_reps(G, terms), normalizer(G, H).order)


def _orbit_stabilizers(H: FiniteGroup, G: FiniteGroup, L: FiniteGroup,
                       fixed: list[int]) -> list[FiniteGroup]:
    """Orbits of H acting by left multiplication on a set of cosets of L.

    ``fixed`` lists coset representatives, in increasing order, as indices
    of G, and must be a union of H-orbits; returns the stabilizer in H of
    each orbit's minimal coset gL, H cap gLg^-1.  The orbit of gL is read
    as the cosets of hg = g (g^-1 h g) over the members h of H.
    """
    table, conj = G.table, G.conj
    masks = conjugate_masks(G, L)
    rep_of = coset_indices(G, L)[1]
    members, hmask = H.indices, H.mask
    seen: set[int] = set()
    out = []
    for start in fixed:
        if start in seen:
            continue
        out.append(from_mask(G.root, hmask & masks[start]))
        row, by_start = table[start], conj[start]
        seen.update([rep_of[row[by_start[h]]] for h in members])
    return out


def burnside_res(x: BurnsideElement, H: FiniteGroup) -> BurnsideElement:
    """Restriction to H by orbit decomposition of each coset space."""
    G = x.group
    if not G.contains_group(H):
        raise GroupMismatch("subgroup over a different group")
    nums = _on_reps(H, ((stab, c)
                        for L, c in x.nums.items()
                        for stab in _orbit_stabilizers(H, G, L, coset_indices(G, L)[0])))
    return BurnsideElement._trusted(H, nums, x.den)


def burnside_ind(x: BurnsideElement, G: FiniteGroup) -> BurnsideElement:
    """Induction to G: the induced transitive set [H/S] becomes [G/S]."""
    if not G.contains_group(x.group):
        raise GroupMismatch("the element's group is not a subgroup of the target")
    nums = _on_reps(G, x.nums.items())
    return BurnsideElement._trusted(G, nums, x.den)


def fixed_point_functor(P: FiniteGroup, x: BurnsideElement) -> BurnsideElement:
    """The functor induced by taking P-fixed points, landing over N_G(P)/P.

    Each [G/L] is sent to the orbit decomposition of its P-fixed cosets as a
    set for the quotient group.
    """
    G = x.group
    if not G.contains_group(P):
        raise GroupMismatch("subgroup over a different group")
    Q = normalizer_quotient(G, P)
    N = Q.parent
    nums = _on_reps(Q.group, (
        (Q.project_subgroup(stab), c)
        for L, c in x.nums.items()
        for stab in _orbit_stabilizers(N, G, L, _fixed_cosets(G, L, P))))
    return BurnsideElement._trusted(Q.group, nums, x.den)


def linearize(x: BurnsideElement, p: int, conductor: int | None = None) -> PPElement:
    """The image in the p-permutation ring: [G/L] becomes the monomial
    generator with trivial character.  Distinct class representatives give
    distinct generators, so the numerators and denominator pass through,
    each numerator as the constant term of its row."""
    G = x.group
    n = default_conductor(G, p) if conductor is None else conductor
    if n % p == 0:
        raise ValueError("conductor must be prime to p")
    pad = (0,) * (_reduction_terms(n)[0] - 1)
    return PPElement._trusted(G, p, n, {_canonical(G, L, (0,) * L.order, n): (c,) + pad
                                        for L, c in x.nums.items()}, x.den)
