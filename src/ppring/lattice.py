"""Subgroup lattices and the Moebius function of the subgroup poset."""

from __future__ import annotations

from functools import lru_cache

from .grp import FiniteGroup, Subgroup, close_indices, mult_table


class NotComparable(Exception):
    """Raised when a Moebius value is requested for an incomparable pair."""


class SubgroupLattice:
    """All subgroups of a finite group, with containment and Moebius data.

    Subgroups are listed in a deterministic order (by order, then canonical
    form).  ``moebius(A, B)`` is the Moebius function of the subgroup poset,
    computed by the defining recursion mu(A, B) = -sum_{A <= M < B} mu(A, M)
    and memoized.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.subgroups = _all_subgroups(group)
        self.top = self.subgroups[-1]
        self.bottom = self.subgroups[0]
        self._index = {H: i for i, H in enumerate(self.subgroups)}
        # below[i] = bitmask of the subgroups contained in subgroup i
        masks = [H.mask for H in self.subgroups]
        self._below = [sum(1 << j for j, K in enumerate(masks) if not K & ~H)
                       for H in masks]
        self._mu: dict[tuple[int, int], int] = {}
        self._classes, self._rep_of = _conjugacy_classes(group, self.subgroups)

    def index(self, H: Subgroup) -> int:
        try:
            return self._index[H]
        except KeyError:
            raise NotComparable(f"{H!r} is not a subgroup of {self.group!r}") from None

    def leq(self, A: Subgroup, B: Subgroup) -> bool:
        return bool(self._below[self.index(B)] >> self.index(A) & 1)

    def interval(self, A: Subgroup, B: Subgroup) -> list[Subgroup]:
        """All M with A <= M <= B."""
        ia, ib = self.index(A), self.index(B)
        out = []
        for j in range(len(self.subgroups)):
            if self._below[ib] >> j & 1 and self._below[j] >> ia & 1:
                out.append(self.subgroups[j])
        return out

    def moebius(self, A: Subgroup, B: Subgroup) -> int:
        ia, ib = self.index(A), self.index(B)
        if not (self._below[ib] >> ia & 1):
            raise NotComparable("first argument is not contained in the second")
        return self._moebius_idx(ia, ib)

    def _moebius_idx(self, ia: int, ib: int) -> int:
        if ia == ib:
            return 1
        key = (ia, ib)
        if key not in self._mu:
            total = 0
            for j in range(len(self.subgroups)):
                if j != ib and self._below[ib] >> j & 1 and self._below[j] >> ia & 1:
                    total += self._moebius_idx(ia, j)
            self._mu[key] = -total
        return self._mu[key]

    def conjugacy_classes(self) -> tuple[tuple[Subgroup, ...], ...]:
        return self._classes

    def class_reps(self) -> tuple[Subgroup, ...]:
        return tuple(cls[0] for cls in self._classes)

    def rep_of(self, H: Subgroup) -> Subgroup:
        """Canonical representative of the conjugacy class of H."""
        return self._rep_of[self.index(H)]


def _all_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every subgroup: seed with cyclic subgroups, close under pairwise join.

    Runs on element indices against the group's multiplication table; the
    permutation-level Subgroup objects are only materialized at the end.
    """
    table = mult_table(group)[1]
    cyclics = {close_indices(table, [i]) for i in range(group.order)}
    known: set[frozenset] = set(cyclics)
    frontier = list(cyclics)
    while frontier:
        new = []
        for H in frontier:
            for C in cyclics:
                if C <= H:
                    continue
                J = close_indices(table, H | C)
                if J not in known:
                    known.add(J)
                    new.append(J)
        frontier = new
    # the (order, indices) order of Subgroup.__lt__
    return tuple(Subgroup.from_indices(group, members)
                 for members in sorted((sorted(H) for H in known),
                                       key=lambda m: (len(m), m)))


def _conjugacy_classes(group, subgroups):
    """Conjugacy classes of the (sorted) subgroups, each sorted, ordered by
    their minimal member, plus the class representative of each position."""
    conj = mult_table(group)[3]
    position = {H.mask: i for i, H in enumerate(subgroups)}
    seen: set[int] = set()
    classes = []
    rep_of: dict[int, Subgroup] = {}
    for i, H in enumerate(subgroups):
        if i in seen:
            continue
        members = H.indices
        conjugates = {position[sum(1 << row[x] for x in members)] for row in conj}
        seen.update(conjugates)
        cls = tuple(subgroups[j] for j in sorted(conjugates))
        classes.append(cls)
        for j in conjugates:
            rep_of[j] = cls[0]
    return tuple(classes), rep_of


@lru_cache(maxsize=None)
def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """The lattice of all subgroups of G, cached per group."""
    return SubgroupLattice(G)
