"""Subgroup lattices and the Moebius function of the subgroup poset.

A lattice is built once per group (:func:`subgroup_lattice`) by a search
over conjugacy classes rather than over subgroups: every cyclic subgroup is
found once, and only one representative H of each class is extended, by its
join with one cyclic subgroup per N_G(H)-orbit of those it does not contain.
Each join is closed coset by coset, adding right cosets of H (Dimino's
algorithm, in :func:`~ppring.grp.close_indices`).  A new join enters with
all of its conjugates, read off the group's conjugation table, so the same
pass yields the conjugacy classes of subgroups.  :func:`_all_subgroups`
says why the search finds every subgroup.

The Moebius values mu(L, G) that the idempotent formulas sum over are one
vector per lattice, ``mu_top``, filled once from the top down in index order
(after Pfeiffer, Experiment. Math. 6, 1997).  mu(A, B) for any other B is
read from the lattice of B: the subgroups of B are the same interned objects
in both lattices, so it is ``subgroup_lattice(B).mu_top`` at A.
"""

from __future__ import annotations

from functools import lru_cache

from .grp import FiniteGroup, close_indices, from_indices


class NotComparable(Exception):
    """Raised when a subgroup of another group is looked up in a lattice."""


class SubgroupLattice:
    """All subgroups of a finite group, with Moebius data and classes.

    Subgroups are listed in a deterministic order (by order, then canonical
    form), so a subgroup comes after every subgroup it contains; containment
    is read from their masks, and the group itself comes last.
    ``mu_top[i]`` is mu(subgroups[i], G) for the group G, filled top down:
    mu(G, G) = 1 and mu(L, G) = -sum of mu(M, G) over the M strictly above
    L, which all come later in the list.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.subgroups, self._classes = _all_subgroups(group)
        self._reps = tuple(cls[0] for cls in self._classes)
        self._rep_of = {H: cls[0] for cls in self._classes for H in cls}
        masks = [H.mask for H in self.subgroups]
        mu = [0] * len(masks)
        mu[-1] = 1
        for j in reversed(range(len(masks))):  # mu[j] is final once every M above it is done
            m = mu[j]
            if not m:
                continue
            M = masks[j]
            for i in range(j):  # subtract mu(M, G) at each L strictly below M
                if not masks[i] & ~M:
                    mu[i] -= m
        self.mu_top = tuple(mu)

    def conjugacy_classes(self) -> tuple[tuple[FiniteGroup, ...], ...]:
        return self._classes

    def class_reps(self) -> tuple[FiniteGroup, ...]:
        return self._reps

    def rep_of(self, H: FiniteGroup) -> FiniteGroup:
        """Canonical representative of the conjugacy class of H."""
        try:
            return self._rep_of[H]
        except KeyError:
            raise NotComparable(f"{H!r} is not a subgroup of {self.group!r}") from None


def _all_subgroups(group: FiniteGroup) -> tuple[tuple[FiniteGroup, ...],
                                                tuple[tuple[FiniteGroup, ...], ...]]:
    """Every subgroup, sorted by ``(order, indices)``, and the conjugacy
    classes of the subgroups, each sorted and ordered by its minimal member.

    The search extends one representative per conjugacy class (after
    Neubueser's cyclic extension).  Each cyclic subgroup is found once, with
    one generator.  A representative H with generators h is joined with one
    cyclic subgroup <c> outside H per N_G(H)-orbit, the first in index order;
    :func:`~ppring.grp.close_indices` closes h + (c,) by adding whole cosets
    of H.  A join not yet known is a new class: it and all of its conjugates
    are entered at once, and the join becomes the representative that is
    extended in turn.

    The search is complete.  First, one <c> per N_G(H)-orbit is enough: for
    n in N_G(H), <H, c^n> = <H^n, c^n> = <H, c>^n, a conjugate of <H, c>,
    which enters with <H, c>.  A subgroup K is a chain of joins
    <c_1> v ... v <c_k>, each step strictly larger.  The class of <c_1> is
    entered with the cyclic subgroups.  If the class of
    K_i = <c_1, ..., c_i> has representative R = K_i^g, then
    K_(i+1)^g = <R, c_(i+1)^g>.  The search joins R with one member of the
    N_G(R)-orbit of <c_(i+1)^g>, and by the first remark that join is a
    conjugate of K_(i+1)^g; so the class of K_(i+1) is entered, and by
    induction that of K.
    """
    table = group.table
    conj = [group.conj[g] for g in group.indices]  # the conjugation rows of the group
    # the cyclic subgroups, each with its position and its minimal generator,
    # and the position of <x> for every element x
    cyclics: dict[frozenset, int] = {}
    firsts: list[int] = []
    cyclic_of = [-1] * len(table)
    for i in group.indices:
        k = cyclics.setdefault(close_indices(table, (i,)), len(firsts))
        if k == len(firsts):
            firsts.append(i)
        cyclic_of[i] = k
    known: set[frozenset] = set()
    classes: list[set[frozenset]] = []
    reps: list[tuple[frozenset, tuple[int, ...]]] = []

    def enter(J: frozenset, gens: tuple[int, ...]) -> None:
        cls = {frozenset([row[x] for x in J]) for row in conj}
        known.update(cls)
        classes.append(cls)
        reps.append((J, gens))

    for C, k in cyclics.items():
        if C not in known:
            enter(C, (firsts[k],))
    for H, gens in reps:  # reps grows while it is walked
        norm = [row for row in conj if all(row[h] in H for h in gens)]  # N_G(H)
        done = bytearray(len(firsts))
        for k, c in enumerate(firsts):
            if done[k] or c in H:
                continue
            for row in norm:
                done[cyclic_of[row[c]]] = 1
            J = close_indices(table, gens + (c,), H)
            if J not in known:
                enter(J, gens + (c,))
    # the (order, indices) order of FiniteGroup.__lt__
    ordered = sorted(known, key=lambda H: (len(H), sorted(H)))
    position = {H: k for k, H in enumerate(ordered)}
    subgroups = tuple(from_indices(group, sorted(H)) for H in ordered)
    members = sorted(sorted(position[H] for H in cls) for cls in classes)
    return subgroups, tuple(tuple(subgroups[k] for k in cls) for cls in members)


@lru_cache(maxsize=None)
def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """The lattice of all subgroups of G, cached per group."""
    return SubgroupLattice(G)
