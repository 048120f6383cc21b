"""Subgroup lattices and the Moebius function of the subgroup poset.

A lattice is built once per group (:func:`subgroup_lattice`) by a search
over conjugacy classes rather than over subgroups: every cyclic subgroup is
found once, and only one representative H of each class is extended, by its
join with one cyclic subgroup per N_G(H)-orbit of those it does not contain.
Each join is closed coset by coset, adding right cosets of H (Dimino's
algorithm, in :func:`~ppring.grp.close_indices`).  A new join enters with
all of its conjugates, found breadth first over the group's generators, so
that a class costs its size, not the order of the group, and the same pass
yields the conjugacy classes of subgroups.  :func:`_all_subgroups` says why
the search finds every subgroup.  Each subgroup keeps one conjugator to the
representative of its class, which :func:`ppring.ppelem._canonical` reads
in place of conjugating by the whole group.  Only roots (groups closed from
generators, and quotient groups) run the search: the lattice of a proper
subgroup H lists the subgroups of its root's lattice that lie in H, classed
by H-conjugation (:func:`_sub_lattice`).

The Moebius values mu(L, G) that the idempotent formulas sum over are one
vector per lattice, ``mu_top``, filled once from the top down in index order
(after Pfeiffer, Experiment. Math. 6, 1997).  mu(A, B) for any other B is
read from the lattice of B: the subgroups of B are the same interned objects
in both lattices, so it is ``subgroup_lattice(B).mu_top`` at A.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

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
    L, which all come later in the list.  Each subgroup H has a recorded
    conjugator, an element y of G with y^-1 H y = ``rep_of(H)``.  A root (a
    group closed from generators, or a quotient group) runs the search of
    :func:`_all_subgroups`; a proper subgroup reads its subgroups off the
    lattice of its root (:func:`_sub_lattice`).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        found = _all_subgroups(group) if group.root is group else _sub_lattice(group)
        self.subgroups, self._classes, conjugators = found
        self._reps = tuple(cls[0] for cls in self._classes)
        self._rep_of = {H: cls[0] for cls in self._classes for H in cls}
        self._conjugator = dict(zip(self.subgroups, conjugators))
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

    def conjugator(self, H: FiniteGroup) -> int:
        """The recorded conjugator of H: the root index of an element y of
        the group with y^-1 H y = ``rep_of(H)``."""
        try:
            return self._conjugator[H]
        except KeyError:
            raise NotComparable(f"{H!r} is not a subgroup of {self.group!r}") from None


# every subgroup in order, the classes, and each subgroup's conjugator
Lattice = tuple[tuple[FiniteGroup, ...], tuple[tuple[FiniteGroup, ...], ...], tuple[int, ...]]


def _conjugates(J: frozenset, group: FiniteGroup) -> dict[frozenset, int]:
    """Every conjugate X of J in the group, each with an element c,
    X = c^-1 J c, found breadth first over the group's generators:
    X = c^-1 J c gives s^-1 X s = (cs)^-1 J (cs) for a generator s.  The
    elements c are a right transversal of N(J), one per conjugate, so the
    class costs its size times the number of generators, not the order of
    the group."""
    conj, table = group.conj, group.table
    gens = group.generators
    found = {J: 0}
    walk = [(J, 0)]
    for X, c in walk:  # walk grows while it is read
        row = table[c]
        for s in gens:
            by_s = conj[s]
            Y = frozenset([by_s[x] for x in X])
            if Y not in found:
                found[Y] = row[s]
                walk.append((Y, row[s]))
    return found


def _order_key(H: FiniteGroup) -> tuple:
    """The ``(order, indices)`` order of ``FiniteGroup.__lt__``."""
    return H.order, H.indices


def _lattice(group: FiniteGroup, classes: list[dict[frozenset, int]],
             as_group: Callable[[frozenset], FiniteGroup]) -> Lattice:
    """The lattice data from classes as :func:`_conjugates` returns them:
    every subgroup sorted, the classes, each sorted and ordered by its
    minimal member, and each subgroup's conjugator to that minimum M.  For
    X = c_X^-1 J c_X and M = c_M^-1 J c_M, the conjugator of X is
    c_X^-1 c_M."""
    inv, table = group.inv, group.table
    conjugator: dict[FiniteGroup, int] = {}
    ordered = []
    for cls in classes:
        members = sorted(((as_group(X), c) for X, c in cls.items()),
                         key=lambda entry: _order_key(entry[0]))
        c_M = members[0][1]
        for H, c in members:
            conjugator[H] = table[inv[c]][c_M]
        ordered.append(tuple(H for H, _ in members))
    ordered.sort(key=lambda cls: _order_key(cls[0]))
    subgroups = tuple(sorted(conjugator, key=_order_key))
    return subgroups, tuple(ordered), tuple(conjugator[H] for H in subgroups)


def _all_subgroups(group: FiniteGroup) -> Lattice:
    """Every subgroup, sorted by ``(order, indices)``, the conjugacy
    classes of the subgroups, each sorted and ordered by its minimal
    member, and the conjugator of each subgroup to the minimal member of
    its class.

    The search extends one representative per conjugacy class (after
    Neubueser's cyclic extension).  Each cyclic subgroup is found once, with
    one generator.  A representative H with generators h is joined with one
    cyclic subgroup <c> outside H per N_G(H)-orbit, the first in index order;
    :func:`~ppring.grp.close_indices` closes h + (c,) by adding whole cosets
    of H.  A join not yet known is a new class: it and all of its conjugates
    are entered at once (:func:`_conjugates`), and the join becomes the
    representative that is extended in turn.

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
    classes: list[dict[frozenset, int]] = []
    reps: list[tuple[frozenset, tuple[int, ...]]] = []

    def enter(J: frozenset, gens: tuple[int, ...]) -> None:
        cls = _conjugates(J, group)
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
    return _lattice(group, classes, lambda X: from_indices(group, sorted(X)))


def _sub_lattice(H: FiniteGroup) -> Lattice:
    """The lattice data of a proper subgroup H, read off the lattice of its
    root: the root's subgroups whose masks lie in H, classed by
    H-conjugation (:func:`_conjugates` over the generators of H)."""
    mask = H.mask
    members = {frozenset(K.indices): K
               for K in subgroup_lattice(H.root).subgroups if not K.mask & ~mask}
    classes: list[dict[frozenset, int]] = []
    seen: set[frozenset] = set()
    for X in members:
        if X not in seen:
            cls = _conjugates(X, H)
            seen.update(cls)
            classes.append(cls)
    return _lattice(H, classes, members.__getitem__)


@lru_cache(maxsize=None)
def subgroup_lattice(G: FiniteGroup) -> SubgroupLattice:
    """The lattice of all subgroups of G, cached per group."""
    return SubgroupLattice(G)
