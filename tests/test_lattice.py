from itertools import combinations

import pytest
from hypothesis import given, settings

from ppring.cli import parse_group_spec
from ppring.cyclo import Cyclotomic
from ppring.grp import (alternating, close_indices, cyclic, dihedral,
                        direct_product, quaternion8, symmetric)
from ppring.lattice import NotComparable, _all_subgroups, subgroup_lattice
from ppring.ppelem import (PPElement, default_conductor, ind_elt, linear_characters,
                           make_generator)
from test_grp import KERNEL_GROUPS, conj, generated_groups, inverse


def brute_force_subgroups(G):
    """Oracle: filter every subset containing the identity for closure.

    Only feasible for |G| <= 12 or so.
    """
    elems = list(G.elements)
    ident = G.elements[0]
    rest = [x for x in elems if x != ident]
    found = set()
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            subset = frozenset(combo) | {ident}
            if G.order % len(subset) != 0:
                continue
            if all(a * b in subset for a in subset for b in subset):
                found.add(subset)
    return found


def reference_subgroups(G):
    """The earlier search, a test-only reference: join every new subgroup
    with every cyclic subgroup, closing the union of both element sets, until
    nothing new appears.  Returns sorted index lists in (order, indices)
    order."""
    table = G.table
    cyclics = {close_indices(table, [i]) for i in range(G.order)}
    known = set(cyclics)
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
    return sorted((sorted(H) for H in known), key=lambda m: (len(m), m))


def reference_classes(G, subgroups):
    """Conjugacy classes as sorted position lists, ordered by their minimal
    member, found by conjugating each subgroup by every element."""
    conj = G.conj
    position = {frozenset(m): i for i, m in enumerate(subgroups)}
    classes, seen = [], set()
    for i, m in enumerate(subgroups):
        if i not in seen:
            cls = sorted({position[frozenset(row[x] for x in m)] for row in conj})
            seen.update(cls)
            classes.append(cls)
    return classes


def reference_moebius_to_top(subgroups):
    """mu(H, G) at each position: mu(G, G) = 1 and mu(H, G) is minus the sum
    of mu(K, G) over the K strictly above H, which all sit later in the
    list."""
    sets = [frozenset(m) for m in subgroups]
    mu = [1] * len(sets)
    for i in reversed(range(len(sets) - 1)):
        mu[i] = -sum(mu[j] for j in range(i + 1, len(sets)) if sets[i] < sets[j])
    return mu


def mu(A, B):
    """mu(A, B), read from the top vector of the lattice of B, which lists
    the very subgroup objects of the lattice of any group containing B."""
    lat = subgroup_lattice(B)
    return lat.mu_top[lat.subgroups.index(A)]


def assert_matches_reference(G):
    lat = subgroup_lattice(G)
    ref = reference_subgroups(G)
    assert [list(H.indices) for H in lat.subgroups] == ref
    assert all(G.contains_group(H) for H in lat.subgroups)
    classes = reference_classes(G, ref)
    index = lat.subgroups.index
    assert [[index(H) for H in cls] for cls in lat.conjugacy_classes()] == classes
    assert [index(H) for H in lat.class_reps()] == [cls[0] for cls in classes]
    for cls in classes:
        for i in cls:
            assert index(lat.rep_of(lat.subgroups[i])) == cls[0]
    assert list(lat.mu_top) == reference_moebius_to_top(ref)


class TestAgainstReferenceSearch:
    @pytest.mark.parametrize("name", ["S4", "A5", "S5", "D8xC2", "Q8xC2", "S4xC2",
                                      "C2xC2xC2xC2"])
    def test_named(self, name):
        assert_matches_reference(parse_group_spec(name))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(generated_groups(max_order=120))
    def test_generated(self, G):
        assert_matches_reference(G)


def assert_conjugators(lat):
    """Each recorded conjugator y lies in the group and carries its subgroup
    H to its class representative, y^-1 H y = rep_of(H), checked on the
    permutations."""
    G = lat.group
    elements = G.root.elements
    for H in lat.subgroups:
        y = lat.conjugator(H)
        assert y in G
        x = elements[y]
        moved = {inverse(x) * h * x for h in H.elements}
        assert moved == set(lat.rep_of(H).elements)


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_sub_lattices_match_the_search_run_directly(name):
    """The lattice of every subgroup H, read off the lattice of its root, is
    the one the cyclic-extension search finds on H itself: the same
    subgroups, classes, representatives and Moebius vector, and every
    conjugator of either carries its subgroup to the representative."""
    G = parse_group_spec(name)
    root_lattice = subgroup_lattice(G)
    assert_conjugators(root_lattice)
    for H in root_lattice.subgroups[:-1]:
        lat = subgroup_lattice(H)
        subgroups, classes, conjugators = _all_subgroups(H)
        assert lat.subgroups == subgroups
        assert lat.conjugacy_classes() == classes
        assert lat.class_reps() == tuple(cls[0] for cls in classes)
        assert list(lat.mu_top) == reference_moebius_to_top(
            [list(K.indices) for K in subgroups])
        assert_conjugators(lat)
        searched = {K: y for K, y in zip(subgroups, conjugators)}
        for K in subgroups:
            x = H.root.elements[searched[K]]
            assert {inverse(x) * k * x for k in K.elements} == set(lat.rep_of(K).elements)


@pytest.mark.parametrize("name", ["S4", "A5", "S4xC2"])
def test_one_object_per_member_set(name):
    """A subgroup K of a subgroup H of G, found in the lattice of H, is the
    very object the lattice of G lists, so a character of K built on the
    H side serves G unchanged, and inducing its generator from H to G gives
    the generator built over G."""
    G = parse_group_spec(name)
    lat = subgroup_lattice(G)
    listed = set(lat.subgroups)  # groups hash and compare by identity
    for H in lat.subgroups:
        for K in subgroup_lattice(H).subgroups:
            assert K in listed
    n = default_conductor(G, 2)
    for H in lat.class_reps():
        for K in subgroup_lattice(H).class_reps():
            chi = linear_characters(K, n)[-1]
            gen = make_generator(G, K, chi, n)
            x = PPElement.from_generator(2, make_generator(H, K, chi, n))
            assert ind_elt(x, G).terms == {gen: Cyclotomic.one(n)}


class TestAllSubgroups:
    def test_c2(self):
        assert len(subgroup_lattice(cyclic(2)).subgroups) == 2

    def test_s3(self):
        lat = subgroup_lattice(symmetric(3))
        assert len(lat.subgroups) == 6
        assert sorted(H.order for H in lat.subgroups) == [1, 2, 2, 2, 3, 6]

    def test_c6(self):
        assert len(subgroup_lattice(cyclic(6)).subgroups) == 4

    @pytest.mark.parametrize("build", [
        lambda: cyclic(6), lambda: symmetric(3), lambda: dihedral(8),
        lambda: quaternion8(), lambda: alternating(4), lambda: dihedral(12),
    ])
    def test_matches_brute_force(self, build):
        G = build()
        lat = subgroup_lattice(G)
        assert {frozenset(H.elements) for H in lat.subgroups} == brute_force_subgroups(G)

    def test_s4_classical_count(self):
        lat = subgroup_lattice(symmetric(4))
        assert len(lat.subgroups) == 30
        assert len(lat.conjugacy_classes()) == 11

    @pytest.mark.parametrize("build,subgroups,classes", [
        (lambda: alternating(5), 59, 9),
        (lambda: symmetric(5), 156, 19),
        # abelian: every subgroup is its own class
        (lambda: direct_product(direct_product(cyclic(2), cyclic(2)),
                                direct_product(cyclic(2), cyclic(2))), 67, 67),
        (lambda: direct_product(symmetric(4), symmetric(3)), 372, 70),
    ])
    def test_classical_counts(self, build, subgroups, classes):
        lat = subgroup_lattice(build())
        assert len(lat.subgroups) == subgroups
        assert len(lat.conjugacy_classes()) == classes

    def test_contains_extremes_and_conjugates(self):
        G = alternating(4)
        lat = subgroup_lattice(G)
        sets = {frozenset(H.elements) for H in lat.subgroups}
        assert frozenset(G.elements[:1]) in sets
        assert frozenset(G.elements) in sets
        for H in lat.subgroups:
            for g in G.elements:
                assert frozenset(conj(x, g) for x in H.elements) in sets

    def test_deterministic_order(self):
        lat = subgroup_lattice(symmetric(3))
        orders = [H.order for H in lat.subgroups]
        assert orders == sorted(orders)


class TestMoebius:
    def test_reflexive(self):
        G = symmetric(3)
        lat = subgroup_lattice(G)
        for H in lat.subgroups:
            assert mu(H, H) == 1

    def test_two_element_chain(self):
        G = cyclic(2)
        lat = subgroup_lattice(G)
        assert mu(lat.subgroups[0], lat.subgroups[-1]) == -1

    def test_s3_bottom_to_top(self):
        lat = subgroup_lattice(symmetric(3))
        assert mu(lat.subgroups[0], lat.subgroups[-1]) == 3

    @pytest.mark.parametrize("build", [
        lambda: symmetric(3), lambda: dihedral(8), lambda: alternating(4),
    ])
    def test_defining_recursion(self, build):
        """sum over A <= M <= B of mu(A, M) is 1 if A = B and 0 otherwise:
        the recursion in the upper argument, where each mu_top fixes it."""
        G = build()
        lat = subgroup_lattice(G)
        for A in lat.subgroups:
            for B in lat.subgroups:
                if not B.contains_group(A):
                    continue
                total = sum(mu(A, M) for M in lat.subgroups
                            if M.contains_group(A) and B.contains_group(M))
                assert total == (1 if A is B else 0)

    @pytest.mark.parametrize("name", ["C2", "C3", "C4", "C6", "S3", "D8", "Q8", "A4",
                                      "D12", "S4", "S5", "S4xC2", "C2xC2xC2xC2"])
    def test_top_vector_matches_the_recursion(self, name):
        """mu_top, filled from the top down, equals the defining recursion
        mu(A, top) = -sum over A <= M < top of mu(A, M), which recurses from
        A upwards, so the two directions check each other."""
        lat = subgroup_lattice(parse_group_spec(name))
        below = lat.subgroups[:-1]
        assert lat.mu_top[-1] == 1
        for A, value in zip(below, lat.mu_top):
            assert value == -sum(mu(A, M) for M in below if M.contains_group(A))

    def test_conjugation_invariance(self):
        G = symmetric(4)
        lat = subgroup_lattice(G)
        index = {frozenset(H.indices): H for H in lat.subgroups}
        for A in lat.subgroups:
            for B in lat.subgroups:
                if not B.contains_group(A) or B.order > 8:
                    continue
                for row in (G.conj[g] for g in G.generators):
                    Ag = index[frozenset(row[x] for x in A.indices)]
                    Bg = index[frozenset(row[x] for x in B.indices)]
                    assert mu(Ag, Bg) == mu(A, B)

    def test_rep_of_maps_to_class_minimum(self):
        G = symmetric(3)
        lat = subgroup_lattice(G)
        for cls in lat.conjugacy_classes():
            for H in cls:
                assert lat.rep_of(H) == cls[0]
        with pytest.raises(NotComparable):
            lat.rep_of(cyclic(2))  # a group of another root
