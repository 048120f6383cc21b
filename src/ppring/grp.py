"""Finite permutation-group engine.

Groups are fully enumerated permutation groups on ``{0..degree-1}``.  Every
operation is brute force over the whole group: at the scale this library
targets (orders up to a few hundred) exhaustive loops are fast, exactly
reproducible and easy to audit.  The loops run on element indices against
per-group multiplication, inverse, conjugation and order tables
(:func:`mult_table`).  An element is an int, its index in ``G.elements``, in
every function that takes or returns one.  A subgroup is an index set: the
sorted indices of its elements in ``parent.elements`` plus the same set as an
int bitmask.  :class:`Permutation` objects appear only where a group is
parsed or constructed (:func:`close_generators`, the named constructors,
:meth:`FiniteGroup.subgroup` and :meth:`FiniteGroup.closure`, :func:`promote`,
the coset action in :class:`QuotientGroup`) and where a report is written.
An index means something only in its own group, and index order is element
order under every parent, so element k of ``promote(H)`` is element
``H.indices[k]`` of ``H.parent``, and a parent index i in H is element
``H.indices.index(i)`` of ``promote(H)``: the two ways an element moves.
This module is the only one that knows the conjugation convention (g^-1 x g,
read from ``conj[g][x]``) and how G/N and N_G(P)/P are formed
(:class:`QuotientGroup`, :func:`normalizer_quotient`): G/1 is G itself, so
N_G(1)/1 is G and shares its tables and its lattice.
The canonical element order is lexicographic on image tuples, and every
"choose a representative" step picks the minimum in that order, so all
outputs are deterministic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

DEFAULT_ORDER_CAP = 384


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

    ``(a * b)(i) == a(b(i))`` (apply the right factor first), and the
    conjugate ``x.conj(g)`` is ``g^-1 * x * g``.
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

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: Permutation) -> Permutation:
        if self.degree != other.degree:
            raise InvalidPermutation("degree mismatch in product")
        imgs = self.images
        return Permutation._trusted(tuple(imgs[j] for j in other.images))

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def __pow__(self, n: int) -> Permutation:
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = Permutation.identity(self.degree)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, g: Permutation) -> Permutation:
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

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

    def __le__(self, other: Permutation) -> bool:
        return self.images <= other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def _close(degree: int, gens: Sequence[Permutation], max_order: int) -> tuple[Permutation, ...]:
    """Breadth-first closure of a generating set under products."""
    identity = Permutation.identity(degree)
    elements = {identity}
    frontier = [identity]
    gens = [g for g in gens if not g.is_identity()]
    if gens:
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    b = a * g
                    if b not in elements:
                        elements.add(b)
                        if len(elements) > max_order:
                            raise OrderCapExceeded(
                                f"closure exceeds the order cap {max_order}"
                            )
                        new.append(b)
            frontier = new
    return tuple(sorted(elements))


class FiniteGroup:
    """A fully enumerated permutation group on {0..degree-1}.

    Instances are immutable value objects: two groups compare equal iff they
    have the same degree and element set.  Build them through
    :func:`close_generators` or the named constructors; the constructor
    itself trusts that ``elements`` is closed.
    """

    __slots__ = ("degree", "generators", "elements", "_index", "order", "_hash")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self._index = {x: i for i, x in enumerate(self.elements)}
        self.order = len(self.elements)
        self._hash = hash((degree, self.elements))

    @property
    def identity(self) -> Permutation:
        return self.elements[0]  # the identity is lexicographically minimal

    def __contains__(self, x: Permutation) -> bool:
        return x in self._index

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def exponent(self) -> int:
        return math.lcm(*mult_table(self)[4])

    def contains_group(self, other: FiniteGroup) -> bool:
        """True iff every element of ``other`` lies in this group."""
        return other.degree == self.degree and all(g in self for g in other.generators)

    def subgroup(self, elements: Iterable[Permutation]) -> Subgroup:
        """The subgroup with exactly the given elements, checked against the
        multiplication table; raises :class:`NotSubgroup` if they are not one."""
        index = self._index
        try:
            members = sorted({index[x] for x in elements})
        except KeyError:
            raise NotSubgroup("elements not contained in the parent group") from None
        if not members:
            raise NotSubgroup("a subgroup cannot be empty")
        if members[0] != 0:
            raise NotSubgroup("identity missing")
        if len(close_indices(mult_table(self)[1], members)) != len(members):
            raise NotSubgroup("not closed under product")
        return Subgroup.from_indices(self, members)

    def closure(self, elements: Iterable[Permutation]) -> Subgroup:
        """The subgroup generated by the given elements of this group."""
        return subgroup_closure(self, [self._index[x] for x in elements])

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup.from_indices(self, (0,))

    def full_subgroup(self) -> Subgroup:
        return Subgroup.from_indices(self, range(self.order))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


def close_generators(degree: int, gens: Sequence[Permutation],
                     max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Group generated by ``gens``, with deterministic element ordering."""
    if degree < 1:
        raise InvalidPermutation("degree must be at least 1")
    for g in gens:
        if not isinstance(g, Permutation):
            raise InvalidPermutation(f"not a permutation: {g!r}")
        if g.degree != degree:
            raise InvalidPermutation(f"generator degree {g.degree} != {degree}")
    return FiniteGroup(degree, gens, _close(degree, gens, max_order))


class Subgroup:
    """A subgroup of a :class:`FiniteGroup`, stored as an index set.

    ``indices`` is the sorted tuple of the positions of its elements in
    ``parent.elements`` and ``mask`` the same set as an int bitmask (bit i is
    set iff element i belongs), the one membership form.  Index order is
    element order under every parent, so sorting subgroups of one parent by
    ``(order, indices)`` sorts them by their element lists, and ``reparent``
    keeps the order of the indices.  :meth:`from_indices` is the constructor
    and trusts its input; :meth:`FiniteGroup.subgroup` is the checked edge
    from permutations.
    """

    __slots__ = ("parent", "indices", "mask", "_hash", "_generators")

    @classmethod
    def from_indices(cls, parent: FiniteGroup, indices: Iterable[int]) -> Subgroup:
        """The subgroup with the given parent indices, which must be sorted,
        distinct and closed (no check is made)."""
        H = object.__new__(cls)
        H.parent = parent
        H.indices = indices = tuple(indices)
        mask = 0
        for i in indices:
            mask |= 1 << i
        H.mask = mask
        H._generators = None
        H._hash = hash((parent, indices))
        return H

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def elements(self) -> tuple[Permutation, ...]:
        """The elements as permutations, in index order (a derived view)."""
        elements = self.parent.elements
        return tuple(elements[i] for i in self.indices)

    def __contains__(self, x: int) -> bool:
        return self.mask >> x & 1 == 1

    def generators(self) -> tuple[int, ...]:
        """A small generating set as parent indices, found greedily in index
        order."""
        if self._generators is None:
            table = mult_table(self.parent)[1]
            gens: list[int] = []
            closed: frozenset = frozenset((0,))
            for i in self.indices:
                if i not in closed:
                    gens.append(i)
                    closed = close_indices(table, gens)
                    if len(closed) == self.order:
                        break
            self._generators = tuple(gens)
        return self._generators

    def is_normal(self) -> bool:
        index, _, _, conj = mult_table(self.parent)[:4]
        return all(self.mask >> conj[index[g]][x] & 1
                   for g in self.parent.generators for x in self.indices)

    def reparent(self, group: FiniteGroup) -> Subgroup:
        """The same element set viewed inside another group that contains it."""
        index = group._index
        try:
            return Subgroup.from_indices(group, [index[x] for x in self.elements])
        except KeyError:
            raise NotSubgroup("element set does not embed in the target group") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.mask == other.mask and self.parent == other.parent

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: Subgroup) -> bool:
        return (self.order, self.indices) < (other.order, other.indices)

    def __repr__(self) -> str:
        elements = self.parent.elements
        gens = [elements[i] for i in self.generators()]
        return f"Subgroup(order={self.order}, gens={gens!r})"


@lru_cache(maxsize=None)
def promote(H: Subgroup) -> FiniteGroup:
    """View a subgroup as a finite group in its own right (same degree)."""
    elements = H.parent.elements
    return FiniteGroup(H.parent.degree, [elements[i] for i in H.generators()], H.elements)


@lru_cache(maxsize=None)
def mult_table(G: FiniteGroup) -> tuple[dict, tuple[tuple[int, ...], ...],
                                          tuple[int, ...], tuple[tuple[int, ...], ...],
                                          tuple[int, ...]]:
    """Index map, integer multiplication, inverse, conjugation and order tables.

    ``index[x]`` is the position of the permutation x in ``G.elements``;
    ``table[a][b]`` is the index of ``elements[a] * elements[b]``, ``inv[a]``
    that of the inverse of ``elements[a]``, ``conj[g][x]`` that of the
    conjugate g^-1 x g, so ``conj[inv[g]]`` conjugates the other way
    (g x g^-1), and ``orders[a]`` is the order of ``elements[a]``.  The
    identity sits at index 0 because it is lexicographically minimal.
    """
    elements = G.elements
    index = G._index
    by_images = {x.images: i for i, x in enumerate(elements)}
    table = tuple(
        tuple(by_images[tuple([a.images[j] for j in b.images])] for b in elements)
        for a in elements
    )
    inv = tuple(row.index(0) for row in table)
    conj = tuple(tuple(table[y][g] for y in table[inv[g]]) for g in range(len(elements)))
    orders = []
    for a, row in enumerate(table):
        x, k = a, 1
        while x:
            x, k = row[x], k + 1
        orders.append(k)
    return index, table, inv, conj, tuple(orders)


def close_indices(table: tuple[tuple[int, ...], ...], seed: Iterable[int]) -> frozenset:
    """Subgroup closure inside a parent group, on element indices."""
    gens = [i for i in seed if i != 0]
    closed = {0}
    frontier = [0]
    while frontier and gens:
        new = []
        for a in frontier:
            row = table[a]
            for g in gens:
                b = row[g]
                if b not in closed:
                    closed.add(b)
                    new.append(b)
        frontier = new
    return frozenset(closed)


def subgroup_closure(G: FiniteGroup, seed: Iterable[int]) -> Subgroup:
    """The subgroup of G generated by the elements with the given indices."""
    return Subgroup.from_indices(G, sorted(close_indices(mult_table(G)[1], seed)))


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


@lru_cache(maxsize=None)
def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup of G.

    Grows a p-subgroup P by locating a p-element of N_G(P) outside P until
    none exists.  This terminates at full p-part: if P is smaller than a
    Sylow subgroup S containing it, then N_S(P) > P supplies the next
    element.
    """
    check_prime(p)
    orders = mult_table(G)[4]
    P = G.trivial_subgroup()
    while True:
        N = normalizer(G, P)
        x = next((y for y in N.indices
                  if not P.mask >> y & 1 and is_p_power(orders[y], p)), None)
        if x is None:
            return P
        P = subgroup_closure(G, P.generators() + (x,))


def p_prime_part(G: FiniteGroup, x: int, p: int) -> int:
    """The p'-part of x: the power of x of order the p'-part of |x|."""
    check_prime(p)
    if not 0 <= x < G.order:
        raise NotSubgroup("element not in the group")
    table, _, _, orders = mult_table(G)[1:]
    n = orders[x]
    q = math.gcd(n, p ** n)  # the p-part of n; x^e has e = 0 mod q, 1 mod n/q
    y = 0
    for _ in range(q * pow(q, -1, n // q) % n):
        y = table[y][x]
    return y


@lru_cache(maxsize=None)
def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    if H.parent != G:
        raise NotSubgroup("subgroup belongs to a different group")
    conj = mult_table(G)[3]
    mask = H.mask
    hgens = H.generators()
    return Subgroup.from_indices(
        G, [g for g in range(G.order) if all(mask >> conj[g][h] & 1 for h in hgens)])


@lru_cache(maxsize=None)
def centralizer(G: FiniteGroup, x: int) -> Subgroup:
    if not 0 <= x < G.order:
        raise NotSubgroup("element not in the group")
    table = mult_table(G)[1]
    row = table[x]
    return Subgroup.from_indices(
        G, [g for g in range(G.order) if table[g][x] == row[g]])


class QuotientGroup:
    """G/N realized as a permutation group on the left cosets of N, except
    that G/1 is G itself.

    The quotient map is held as two index tuples: ``proj[g]`` is the index in
    ``group.elements`` of the image of the parent element with index g, and
    ``lifts[q]`` is the parent index of the minimal representative of the
    coset that quotient element q stands for.  For the trivial kernel both
    are the identity ``tuple(range(|G|))``.
    """

    __slots__ = ("parent", "kernel", "group", "proj", "lifts", "_hash")

    def __init__(self, parent: FiniteGroup, kernel: Subgroup):
        if kernel.parent != parent:
            raise NotSubgroup("kernel belongs to a different group")
        if not kernel.is_normal():
            raise NotNormal("kernel is not normal")
        self.parent = parent
        self.kernel = kernel
        self._hash = hash((parent, kernel))
        if kernel.order == 1:
            self.group = parent
            self.proj = self.lifts = tuple(range(parent.order))
            return

        reps, rep_of = coset_indices(parent, kernel)
        index, table = mult_table(parent)[:2]
        coset_of = {r: i for i, r in enumerate(reps)}
        # g and gk (k in the kernel) permute the cosets alike: one permutation
        # per coset, that of its representative
        perms = [Permutation(tuple(coset_of[rep_of[table[g][r]]] for r in reps))
                 for g in reps]
        gens = tuple(dict.fromkeys(perms[coset_of[rep_of[index[g]]]]
                                   for g in parent.generators))
        self.group = FiniteGroup(len(reps), gens, perms)
        if self.group.order * kernel.order != parent.order:
            raise RuntimeError("quotient order times kernel order differs from the group order")
        position = {pi: q for q, pi in enumerate(self.group.elements)}
        at = [position[pi] for pi in perms]  # coset number -> quotient index
        self.proj = tuple(at[coset_of[r]] for r in rep_of)
        self.lifts = tuple(r for _, r in sorted(zip(at, reps)))

    def project_subgroup(self, H: Subgroup) -> Subgroup:
        """Image in the quotient of a subgroup of the parent."""
        if H.parent != self.parent:
            raise NotSubgroup("subgroup does not live in the parent group")
        return Subgroup.from_indices(self.group, sorted({self.proj[h] for h in H.indices}))

    def preimage(self, S: Subgroup) -> Subgroup:
        """Full preimage in the parent of a subgroup of the quotient."""
        if S.parent != self.group:
            raise NotSubgroup("subgroup does not live in the quotient group")
        mask = S.mask
        return Subgroup.from_indices(
            self.parent, [g for g, q in enumerate(self.proj) if mask >> q & 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuotientGroup):
            return NotImplemented
        return self.parent == other.parent and self.kernel == other.kernel

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None)
def quotient(G: FiniteGroup, N: Subgroup) -> QuotientGroup:
    return QuotientGroup(G, N)


@lru_cache(maxsize=None)
def normalizer_quotient(G: FiniteGroup, P: Subgroup) -> QuotientGroup:
    """N_G(P)/P; its ``parent`` is the normalizer promoted to a group."""
    H = promote(normalizer(G, P))
    return quotient(H, P.reparent(H))


def coset_indices(G: FiniteGroup, H: Subgroup) -> tuple[list[int], list[int]]:
    """Left cosets of H in G on element indices: the minimal representative
    of each coset, in order, and the representative of every element."""
    if H.parent != G:
        raise NotSubgroup("subgroup belongs to a different group")
    table = mult_table(G)[1]
    members = H.indices
    rep_of = [-1] * G.order
    reps = []
    for g in range(G.order):
        if rep_of[g] < 0:
            reps.append(g)  # minimal in its coset: all smaller elements are assigned
            row = table[g]
            for h in members:
                rep_of[row[h]] = g
    return reps, rep_of


def double_coset_reps(G: FiniteGroup, A: Subgroup, B: Subgroup) -> list[int]:
    """The index of one minimal representative per double coset A g B, in
    canonical order.

    A g B is the union of the left cosets a g B, and the cosets covered so
    far are whole left cosets of B, so a coset whose first element is
    already covered is skipped without walking it.
    """
    if A.parent != G or B.parent != G:
        raise NotSubgroup("subgroup belongs to a different group")
    table = mult_table(G)[1]
    a_members, b_members = A.indices, B.indices
    covered = bytearray(G.order)
    reps = []
    for g in range(G.order):
        if covered[g]:
            continue
        reps.append(g)
        for a in a_members:
            ag = table[a][g]
            if covered[ag]:
                continue
            row = table[ag]
            for b in b_members:
                covered[row[b]] = 1
    return reps


def conjugate_meet(G: FiniteGroup, A: Subgroup, B: Subgroup, g: int) -> list[int]:
    """Sorted indices of A cap g B g^-1, the subgroup of a Mackey term."""
    inv, conj = mult_table(G)[2:4]
    row = conj[inv[g]]
    conjugate = {row[b] for b in B.indices}
    return [a for a in A.indices if a in conjugate]


@lru_cache(maxsize=None)
def conjugacy_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Element conjugacy classes as index tuples, each sorted, ordered by
    minimal member."""
    conj = mult_table(G)[3]
    seen = bytearray(G.order)
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        cls = sorted({row[x] for row in conj})
        for y in cls:
            seen[y] = 1
        classes.append(tuple(cls))
    return tuple(classes)


# ---------------------------------------------------------------------------
# named constructors


def _check_order(order: int, max_order: int) -> None:
    """Refuse a named group from its known order, before building anything."""
    if order > max_order:
        raise OrderCapExceeded(f"group order {order} exceeds the order cap {max_order}")


def cyclic(n: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise ValueError("order must be positive")
    _check_order(n, max_order)
    gen = Permutation(tuple((i + 1) % n for i in range(n)))
    return close_generators(n, [gen] if n > 1 else [], max_order)


def symmetric(n: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise ValueError("symmetric groups supported for 1 <= n <= 5")
    if n == 1:
        return close_generators(1, [], max_order)
    gens = [Permutation.from_cycles(n, [(0, 1)]),
            Permutation.from_cycles(n, [tuple(range(n))])]
    return close_generators(n, gens, max_order)


def alternating(n: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise ValueError("alternating groups supported for 1 <= n <= 5")
    if n <= 2:
        return close_generators(n, [], max_order)
    if n == 3:
        gens = [Permutation.from_cycles(3, [(0, 1, 2)])]
    elif n % 2 == 1:
        gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
                Permutation.from_cycles(n, [tuple(range(n))])]
    else:
        gens = [Permutation.from_cycles(n, [(0, 1, 2)]),
                Permutation.from_cycles(n, [tuple(range(1, n))])]
    return close_generators(n, gens, max_order)


def dihedral(order: int, max_order: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Dihedral group of the given (even) order."""
    if order < 2 or order % 2 != 0:
        raise ValueError("dihedral order must be even and at least 2")
    _check_order(order, max_order)
    n = order // 2
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
    gens = [Permutation(g.images + tuple(range(G.degree, d))) for g in G.generators]
    gens += [Permutation(tuple(range(G.degree)) + tuple(G.degree + i for i in h.images))
             for h in H.generators]
    return close_generators(d, gens, max_order)
