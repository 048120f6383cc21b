"""Finite permutation-group engine.

Groups are fully enumerated permutation groups on ``{0..degree-1}``.  At
the scale this library targets (orders up to a few hundred) exhaustive
loops over the elements are fast, exactly reproducible and easy to audit;
where a question is asked of many subgroups, the answer is read from masks
instead.  :func:`conjugate_masks` keeps, per (G, L), the mask of gLg^-1 for
each left coset gL, so a subgroup H fixes gL exactly when its mask lies in
that one int, and its stabilizer is the meet of the two masks
(:func:`from_mask` interns it).  A root, a group closed from generators or
a quotient group, is its index tables (multiplication, inverse, conjugation,
orders) over the positions of its sorted elements, set when it is built.
A subgroup is a group in its own right, the group made of its members: it
shares its root's tables and numbering and adds the sorted ``indices`` and
the ``mask`` of its members.  So an element has one index, its index in
``G.root.elements``, in every group that contains it.  Roots are interned
per element set and subgroups per root and member set (:func:`from_indices`),
so a group is its own identity, for equality and for hashing, a group is a
subgroup of another when :meth:`FiniteGroup.contains_group` says so, and a
subgroup of H found in the lattice of H is the very object found in the
lattice of any group that contains H.  A subgroup is built from member
indices only, by :func:`subgroup_closure` or :func:`from_indices`; no
function takes its members as permutations.  :class:`Permutation` objects
appear only where a group is parsed and where a report is written;
:func:`close_generators` is the one place that composes them.  This module
builds the tables and defines the conjugation convention, g^-1 x g read from
``conj[g][x]``, which other modules read from the tables directly; it also
forms G/N and N_G(P)/P (:class:`QuotientGroup`, :func:`normalizer_quotient`):
G/1 is G itself, so N_G(1)/1 is G and shares its tables and its lattice.
The canonical element order is lexicographic on image tuples, and every
"choose a representative" step picks the minimum in that order, so all
outputs are deterministic; index order is element order in every group.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

DEFAULT_ORDER_CAP = 384
# Points a permutation may move.  An element costs memory in its degree, so a
# larger degree is refused before any image list is built.
MAX_DEGREE = 4096


class GroupError(Exception):
    """Base class for errors raised by the group engine."""


class InvalidPermutation(GroupError):
    """Raised when an image array is not a bijection of {0..d-1}."""


class OrderCapExceeded(GroupError):
    """Raised when a closure grows past the configured order cap."""


class NotNormal(GroupError):
    """Raised when a quotient is requested by a non-normal subgroup."""


class NotSubgroup(GroupError):
    """Raised when an expected subgroup relationship does not hold."""


class Permutation:
    """A bijection of {0..d-1} stored as its tuple of images.

    ``(a * b).images[i] == a.images[b.images[i]]``: the right factor acts
    first.  A permutation is only parsed, multiplied during a closure and
    printed; a group conjugates, inverts and takes orders on its tables.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise InvalidPermutation(f"not a bijection of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs
        self._hash = hash(imgs)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> Permutation:
        """Wrap an image tuple already known to be a bijection (a product or
        inverse of valid permutations), skipping the check in ``__init__``."""
        perm = object.__new__(cls)
        perm.images = images
        perm._hash = hash(images)
        return perm

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        return cls._trusted(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> Permutation:
        _check_degree(degree)
        images = list(range(degree))
        seen: set[int] = set()
        for cycle in cycles:
            for point in cycle:
                if not (0 <= point < degree):
                    raise InvalidPermutation(f"point {point} outside 0..{degree - 1}")
                if point in seen:
                    raise InvalidPermutation(f"point {point} appears twice in the cycles")
                seen.add(point)
            for i, point in enumerate(cycle):
                images[point] = cycle[(i + 1) % len(cycle)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise InvalidPermutation("degree mismatch in product")
        imgs = self.images
        return Permutation._trusted(tuple(imgs[j] for j in other.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each rotated minimum-first, sorted."""
        seen = set()
        out = []
        for start in range(len(self.images)):
            if start in seen or self.images[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            point = self.images[start]
            while point != start:
                cycle.append(point)
                seen.add(point)
                point = self.images[point]
            out.append(tuple(cycle))
        return tuple(sorted(out))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __lt__(self, other: Permutation) -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def _check_degree(degree: int) -> None:
    if not 1 <= degree <= MAX_DEGREE:
        raise InvalidPermutation(f"degree {degree} is outside 1..{MAX_DEGREE}")


def _close(degree: int, gens: Sequence[Permutation],
           max_order: int) -> tuple[tuple[Permutation, ...], tuple[tuple[int, ...], ...]]:
    """Breadth-first closure of a generating set: the sorted elements and
    their multiplication table.  Each element b but the identity is found as
    a * g (a found earlier, g a generator), so x * b = (x * a) * g fills each
    row of the table from the products the search forms."""
    identity = Permutation.identity(degree)
    found = {identity: 0}  # element -> its number in the order found
    walk = [identity]
    steps: list[tuple[int, int]] = []  # walk[k + 1] = walk[a] * gens[j], (a, j) = steps[k]
    times: list[list[int]] = []  # times[i][j] is the number of walk[i] * gens[j]
    gens = [g for g in gens if not g.is_identity()]
    for i, a in enumerate(walk):  # walk grows while it is read
        row = []
        for j, g in enumerate(gens):
            b = a * g
            k = found.get(b)
            if k is None:
                k = found[b] = len(walk)
                if k >= max_order:
                    raise OrderCapExceeded(f"closure exceeds the order cap {max_order}")
                walk.append(b)
                steps.append((i, j))
            row.append(k)
        times.append(row)
    order = sorted(range(len(walk)), key=walk.__getitem__)  # index -> number
    rank = sorted(range(len(walk)), key=order.__getitem__)  # number -> index
    table = []
    for x in order:
        row = [x]  # row[k] is the number of walk[x] * walk[k]
        for a, j in steps:
            row.append(times[row[a]][j])
        table.append(tuple([rank[row[k]] for k in order]))
    return tuple(walk[k] for k in order), tuple(table)


class FiniteGroup:
    """A fully enumerated permutation group on {0..degree-1}: a set of
    members of a root group, read through the root's index tables.

    A root (a group closed from generators, or a quotient group) is its own
    ``root``, and every subgroup of it is the group made of its members.
    ``table[a][b]`` is the root index of the product of the elements with
    root indices a and b, ``inv[a]`` that of the inverse, ``conj[g][x]``
    that of the conjugate g^-1 x g, so ``conj[inv[g]]`` conjugates the other
    way (g x g^-1), and ``orders[a]`` is the order of element a; the
    identity is index 0.  The members are the sorted root indices
    ``indices``, with ``mask`` their bitmask and ``order`` their number:
    every root index reads the tables, but only a member lies in the group
    (``x in G``).  ``elements`` are the members as permutations, in index
    order, so ``G.root.elements[i]`` is the element with root index i.
    ``generators`` are member indices, found greedily in index order on
    first read.  Build groups through :func:`close_generators`, the named
    constructors, :class:`QuotientGroup`, :func:`subgroup_closure` and
    :func:`from_indices`, which intern them; the constructor trusts its
    arguments and derives a root's other tables from ``table``.  Groups sort
    by ``(order, indices)``.
    """

    __slots__ = ("degree", "elements", "order", "table", "inv", "conj", "orders",
                 "root", "indices", "mask", "_generators")

    def __init__(self, degree: int, elements: tuple[Permutation, ...],
                 table: tuple[tuple[int, ...], ...], root: FiniteGroup | None = None,
                 indices: tuple[int, ...] | None = None):
        self.degree = degree
        self.table = table
        if root is None:
            n = len(elements)
            self.root = self
            self.elements = elements
            self.indices = tuple(range(n))
            self.mask = (1 << n) - 1
            self.inv = inv = tuple(row.index(0) for row in table)
            self.conj = tuple(tuple(table[y][g] for y in table[inv[g]]) for g in range(n))
            self.orders = tuple(len(close_indices(table, (a,))) for a in range(n))
        else:
            self.root = root
            self.elements = tuple(elements[i] for i in indices)
            self.indices = indices
            self.mask = sum(1 << i for i in indices)
            self.inv, self.conj, self.orders = root.inv, root.conj, root.orders
        self.order = len(self.indices)
        self._generators = None

    @property
    def generators(self) -> tuple[int, ...]:
        """A small generating set as indices, found greedily in index
        order."""
        if self._generators is None:
            gens: list[int] = []
            closed: frozenset = frozenset((0,))
            for i in self.indices:
                if i not in closed:
                    gens.append(i)
                    closed = close_indices(self.table, gens)
                    if len(closed) == self.order:
                        break
            self._generators = tuple(gens)
        return self._generators

    def __contains__(self, x: int) -> bool:
        return x >= 0 and self.mask >> x & 1 == 1

    def exponent(self) -> int:
        return math.lcm(*map(self.orders.__getitem__, self.indices))

    def contains_group(self, other: FiniteGroup) -> bool:
        """True iff ``other`` lies in this group: same root, and every member
        of it a member of this one."""
        return other.root is self.root and not other.mask & ~self.mask

    def is_normal_in(self, G: FiniteGroup) -> bool:
        """True iff this group is a normal subgroup of G; raises
        :class:`NotSubgroup` unless G contains it."""
        if not G.contains_group(self):
            raise NotSubgroup("the group does not contain the subgroup")
        conj, mask = self.conj, self.mask
        return all(mask >> conj[g][x] & 1 for g in G.generators for x in self.generators)

    def trivial_subgroup(self) -> FiniteGroup:
        return from_indices(self, (0,))

    def __lt__(self, other: FiniteGroup) -> bool:
        return (self.order, self.indices) < (other.order, other.indices)

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def close_generators(degree: int, gens: Sequence[Permutation],
                     max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by ``gens``, with deterministic element ordering; the
    same element set gives the same group object."""
    _check_degree(degree)
    for g in gens:
        if not isinstance(g, Permutation):
            raise InvalidPermutation(f"not a permutation: {g!r}")
        if g.degree != degree:
            raise InvalidPermutation(f"generator degree {g.degree} != {degree}")
    return _root(degree, *_close(degree, gens, max_order))


@lru_cache(maxsize=None)
def _root(degree: int, elements: tuple[Permutation, ...],
          table: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """The one root group with these elements.  The elements determine the
    table, so keying on the table as well still interns per element set."""
    return FiniteGroup(degree, elements, table)


def from_indices(G: FiniteGroup, indices: Iterable[int]) -> FiniteGroup:
    """The subgroup of the root of G with the given member indices, which
    must be sorted, distinct and closed (no check is made): the root itself
    when they are all of its elements, and one object per member set
    otherwise."""
    root = G.root
    indices = tuple(indices)
    if len(indices) == root.order:
        return root
    return _proper_subgroup(root, indices)


@lru_cache(maxsize=None)
def from_mask(root: FiniteGroup, mask: int) -> FiniteGroup:
    """The subgroup of a root whose members are the set bits of ``mask``,
    which must be closed (no check is made): :func:`from_indices` keyed on
    the mask."""
    bits = bin(mask)[:1:-1]  # bit i of the mask is bits[i]
    return from_indices(root, [i for i, b in enumerate(bits) if b == "1"])


@lru_cache(maxsize=None)
def _proper_subgroup(root: FiniteGroup, indices: tuple[int, ...]) -> FiniteGroup:
    """The one group of a root with these members, fewer than all."""
    return FiniteGroup(root.degree, root.elements, root.table, root, indices)


def close_indices(table: tuple[tuple[int, ...], ...], seed: Iterable[int],
                  closed: Iterable[int] = (0,)) -> frozenset:
    """Subgroup closure inside a parent group, on element indices: the
    subgroup generated by the seed, built coset by coset over ``closed``, a
    subgroup of the result known in advance (by default the trivial one).

    The elements found so far are a union of right cosets Hg of H =
    ``closed``, and Hg times a generator s is the coset H(gs), so each coset
    representative is multiplied by each generator once and a new product
    enters with its whole coset (Dimino's algorithm; Butler, LNCS 559,
    1991).  With H trivial this is a breadth-first search over elements."""
    gens = [i for i in seed if i != 0]
    members = [h for h in closed if h != 0]  # H without the identity
    rows = [table[h] for h in members]
    found = {0, *members}
    cosets = [0]
    for g in cosets:  # cosets grows while it is walked
        row = table[g]
        for s in gens:
            x = row[s]
            if x not in found:
                found.add(x)
                cosets.append(x)
                for hrow in rows:
                    found.add(hrow[x])
    return frozenset(found)


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> FiniteGroup:
    """The subgroup of G generated by the elements with the given indices."""
    return from_indices(G, sorted(close_indices(G.table, seed)))


def is_p_power(m: int, p: int) -> bool:
    """True iff m is a power of p (including p^0 = 1)."""
    while m % p == 0:
        m //= p
    return m == 1


# The first 13 primes.  As Miller-Rabin bases they decide primality exactly
# below PRIME_TEST_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def check_prime(p: int) -> None:
    """Raise ValueError unless p is prime: deterministic Miller-Rabin on the
    first 13 primes as bases.  A p at or above PRIME_TEST_BOUND that none of
    the bases divides is refused, since the test is not exact there."""
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES if a < p):
        raise ValueError(f"{p} is not prime")
    if p in _PRIME_BASES:
        return
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"{p} is too large: primality is decided only below "
                         f"{PRIME_TEST_BOUND}")
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")


def sylow(G: FiniteGroup, p: int) -> FiniteGroup:
    """A Sylow p-subgroup of G.

    Grows a p-subgroup P by locating a p-element of N_G(P) outside P until
    none exists.  This terminates at full p-part: if P is smaller than a
    Sylow subgroup S containing it, then N_S(P) > P supplies the next
    element.
    """
    check_prime(p)
    orders = G.orders
    P = G.trivial_subgroup()
    while True:
        N = normalizer(G, P)
        x = next((y for y in N.indices
                  if not P.mask >> y & 1 and is_p_power(orders[y], p)), None)
        if x is None:
            return P
        P = subgroup_closure(G, P.generators + (x,))


def p_prime_part(G: FiniteGroup, x: int, p: int) -> int:
    """The p'-part of x: the power of x of order the p'-part of |x|."""
    check_prime(p)
    if x not in G:
        raise NotSubgroup("element not in the group")
    table = G.table
    n = G.orders[x]
    q = math.gcd(n, p ** n)  # the p-part of n; x^e has e = 0 mod q, 1 mod n/q
    y = 0
    for _ in range(q * pow(q, -1, n // q) % n):
        y = table[y][x]
    return y


@lru_cache(maxsize=None)
def normalizer(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """N_G(H), a union of left cosets gH.  gHg^-1 is the same for every
    element of gH, so the generators of H are conjugated by one minimal
    representative per coset."""
    if not G.contains_group(H):
        raise NotSubgroup("the group does not contain the subgroup")
    conj, inv = G.conj, G.inv
    mask, hgens = H.mask, H.generators
    reps, rep_of = _left_cosets(G, H)
    # conj[inv[g]][h] = g h g^-1
    kept = {g for g in reps if all(mask >> conj[inv[g]][h] & 1 for h in hgens)}
    return from_indices(G, [x for x in G.indices if rep_of[x] in kept])


@lru_cache(maxsize=None)
def centralizer(G: FiniteGroup, x: int) -> FiniteGroup:
    if x not in G:
        raise NotSubgroup("element not in the group")
    table = G.table
    row = table[x]
    return from_indices(
        G, [g for g in G.indices if table[g][x] == row[g]])


class QuotientGroup:
    """G/N realized as a permutation group on the left cosets of N, except
    that G/1 is G itself.

    The group is an interned root whose elements are the coset-action image
    tuples and whose table is read off the coset representatives on the
    parent's table.  The quotient keeps its own numbering, and the quotient
    map is two index tuples: ``proj[g]`` is the index in ``group.elements``
    of the image of the parent element with root index g (read only at the
    parent's members), and ``lifts[q]`` the root index of the minimal
    representative of the coset that quotient element q stands for; both are
    ``tuple(range(|root|))`` for the trivial kernel.
    """

    __slots__ = ("parent", "group", "proj", "lifts")

    def __init__(self, parent: FiniteGroup, kernel: FiniteGroup):
        if not kernel.is_normal_in(parent):
            raise NotNormal("kernel is not normal")
        self.parent = parent
        if kernel.order == 1:
            self.group = parent
            self.proj = self.lifts = tuple(range(len(parent.table)))
            return

        reps, rep_of = coset_indices(parent, kernel)
        table = parent.table
        coset_of = {r: i for i, r in enumerate(reps)}
        coset = [coset_of.get(r, -1) for r in rep_of]  # root index -> coset, -1 outside
        # g and gk (k in the kernel) permute the cosets alike: one image tuple
        # per coset, that of its representative
        images = [tuple([coset[table[g][r]] for r in reps]) for g in reps]
        if len(set(images)) != len(reps):
            raise RuntimeError("two cosets of the kernel permute the cosets alike")
        order = sorted(range(len(reps)), key=images.__getitem__)  # quotient index -> coset
        at = sorted(range(len(reps)), key=order.__getitem__)  # coset -> quotient index
        self.proj = proj = tuple(at[c] if c >= 0 else -1 for c in coset)
        self.lifts = lifts = tuple(reps[c] for c in order)
        qtable = tuple(tuple([proj[table[a][b]] for b in lifts]) for a in lifts)
        self.group = _root(len(reps), tuple(Permutation._trusted(images[c]) for c in order),
                           qtable)

    def project_subgroup(self, H: FiniteGroup) -> FiniteGroup:
        """Image in the quotient of a subgroup of the parent."""
        if not self.parent.contains_group(H):
            raise NotSubgroup("subgroup does not live in the parent group")
        return from_indices(self.group, sorted({self.proj[h] for h in H.indices}))

    def preimage(self, S: FiniteGroup) -> FiniteGroup:
        """Full preimage in the parent of a subgroup of the quotient."""
        if not self.group.contains_group(S):
            raise NotSubgroup("subgroup does not live in the quotient group")
        mask, proj = S.mask, self.proj
        return from_indices(
            self.parent, [g for g in self.parent.indices if mask >> proj[g] & 1])


@lru_cache(maxsize=None)
def quotient(G: FiniteGroup, N: FiniteGroup) -> QuotientGroup:
    return QuotientGroup(G, N)


@lru_cache(maxsize=None)
def normalizer_quotient(G: FiniteGroup, P: FiniteGroup) -> QuotientGroup:
    """N_G(P)/P; its ``parent`` is the normalizer N_G(P)."""
    return quotient(normalizer(G, P), P)


@lru_cache(maxsize=None)
def coset_indices(G: FiniteGroup, H: FiniteGroup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left cosets of H in G on element indices: the minimal representative
    of each coset, in order, and the representative of every element of G,
    by root index (-1 outside G).  Built once per (G, H) and shared by every
    caller."""
    if not G.contains_group(H):
        raise NotSubgroup("the group does not contain the subgroup")
    reps, rep_of = _left_cosets(G, H)
    return tuple(reps), tuple(rep_of)


def _left_cosets(G: FiniteGroup, H: FiniteGroup) -> tuple[list[int], list[int]]:
    """The cosets of :func:`coset_indices`, as lists and not memoized, for a
    caller that reads them once."""
    table = G.table
    members = H.indices
    rep_of = [-1] * len(table)
    reps = []
    for g in G.indices:
        if rep_of[g] < 0:
            reps.append(g)  # minimal in its coset: all smaller elements are assigned
            row = table[g]
            for h in members:
                rep_of[row[h]] = g
    return reps, rep_of


@lru_cache(maxsize=None)
def conjugate_masks(G: FiniteGroup, L: FiniteGroup) -> dict[int, int]:
    """For each minimal representative g of a left coset gL of L in G, in
    order, the mask of gLg^-1, which is the same for every element of gL.
    A subgroup H fixes the coset gL exactly when H <= gLg^-1, and the
    stabilizer of gL in H is H cap gLg^-1.  Built once per (G, L) and read
    by the Burnside orbit algorithms and the species; the returned mapping
    is shared and must not be changed."""
    conj, inv = G.conj, G.inv
    members = L.indices
    masks = {}
    for g in coset_indices(G, L)[0]:
        row = conj[inv[g]]  # row[x] = g x g^-1
        masks[g] = sum([1 << row[x] for x in members])
    return masks


def double_coset_reps(G: FiniteGroup, A: FiniteGroup,
                      B: FiniteGroup) -> list[tuple[int, FiniteGroup]]:
    """One minimal representative g per double coset A g B, in canonical
    order, each with the subgroup A cap gBg^-1 of its Mackey term.

    The minimal element of A g B is minimal in its left coset of B, so only
    the minimal coset representatives of :func:`coset_indices` are
    candidates.  A g B is the union of the left cosets a g B, each marked
    covered by its representative, and ag = g (g^-1 a g) is read from the
    tables.  The meet holds the a in A with g^-1 a g in B.
    """
    if not (G.contains_group(A) and G.contains_group(B)):
        raise NotSubgroup("the group does not contain the subgroup")
    table, conj = G.table, G.conj
    a_members, b_mask = A.indices, B.mask
    b_reps, rep_of = coset_indices(G, B)
    covered: set[int] = set()
    reps = []
    for g in b_reps:
        if g in covered:
            continue
        by_g = conj[g]  # by_g[a] = g^-1 a g
        reps.append((g, from_indices(G, [a for a in a_members if b_mask >> by_g[a] & 1])))
        row = table[g]
        covered.update([rep_of[row[by_g[a]]] for a in a_members])
    return reps


@lru_cache(maxsize=None)
def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Element conjugacy classes as index tuples, each sorted, ordered by
    minimal member."""
    conj = G.conj
    rows = [conj[g] for g in G.indices]
    seen = bytearray(len(conj))
    classes = []
    for x in G.indices:
        if seen[x]:
            continue
        cls = sorted({row[x] for row in rows})
        for y in cls:
            seen[y] = 1
        classes.append(tuple(cls))
    return tuple(classes)


# ---------------------------------------------------------------------------
# named constructors


def _check_order(order: int, max_order: int, shown: str | None = None) -> None:
    """Refuse a named group from its known order, before building anything;
    ``shown`` names an order too long to print in digits, such as n!."""
    if order > max_order:
        raise OrderCapExceeded(f"group order {shown or order} exceeds the order cap {max_order}")


def cyclic(n: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    _check_order(n, max_order)
    _check_degree(n)
    gen = Permutation(tuple((i + 1) % n for i in range(n)))
    return close_generators(n, [gen] if n > 1 else [], max_order)


def symmetric(n: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    _check_degree(n)
    _check_order(math.factorial(n), max_order, f"{n}!")
    gens = [Permutation.from_cycles(n, [(0, 1)]),
            Permutation.from_cycles(n, [tuple(range(n))])] if n > 1 else []
    return close_generators(n, gens, max_order)


def alternating(n: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    _check_degree(n)
    _check_order(math.factorial(n) // 2, max_order, f"{n}!/2")
    if n <= 2:
        return close_generators(n, [], max_order)
    # (0 1 2) and an odd-length cycle through n or n - 1 points
    gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
            Permutation.from_cycles(n, [tuple(range(1 - n % 2, n))])]
    return close_generators(n, gens, max_order)


def dihedral(order: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of the given (even) order."""
    if order < 2 or order % 2 != 0:
        raise ValueError("dihedral order must be even and at least 2")
    _check_order(order, max_order)
    n = order // 2
    _check_degree(n)
    if n == 1:
        return cyclic(2, max_order)
    if n == 2:
        return direct_product(cyclic(2), cyclic(2), max_order)
    rot = Permutation(tuple((i + 1) % n for i in range(n)))
    flip = Permutation(tuple(n - 1 - i for i in range(n)))
    return close_generators(n, [rot, flip], max_order)


def quaternion8(max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    # regular action on {1, i, -1, -i, j, k, -j, -k}
    i = Permutation.from_cycles(8, [(0, 1, 2, 3), (4, 5, 6, 7)])
    j = Permutation.from_cycles(8, [(0, 4, 2, 6), (1, 7, 3, 5)])
    return close_generators(8, [i, j], max_order)


def klein_four(max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2), max_order)


def direct_product(G: FiniteGroup, H: FiniteGroup,
                   max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Direct product acting on the disjoint union of the two point sets."""
    _check_order(G.order * H.order, max_order)
    d = G.degree + H.degree
    gens = [Permutation(G.root.elements[g].images + tuple(range(G.degree, d)))
            for g in G.generators]
    gens += [Permutation(tuple(range(G.degree)) + tuple(G.degree + i for i in x.images))
             for x in (H.root.elements[h] for h in H.generators)]
    return close_generators(d, gens, max_order)
