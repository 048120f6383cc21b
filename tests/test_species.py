import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppring import clear_caches, species
from ppring.cyclo import ConductorMismatch, Cyclotomic, zeta_power
from ppring.grp import (Permutation, alternating, cyclic, dihedral, is_p_power,
                        normalizer, p_prime_part, symmetric, sylow)
from ppring.idem import idempotent_theorem
from ppring.lattice import subgroup_lattice
from ppring.ppelem import (GroupMismatch, PPElement, collect, default_conductor,
                           linear_characters, make_generator, tensor_elt)
from ppring.species import (_tau_counts, build_pair, canonical_pair, enumerate_pairs,
                            equal_elements, species_vector, standard_generators,
                            tau_element, tau_generator)
from test_idem import conjugate_pair


class TestEnumeratePairs:
    def test_c2_p2(self):
        pairs = enumerate_pairs(cyclic(2), 2)
        assert [(q.P.order, q.s_order) for q in pairs] == [(1, 1), (2, 1)]

    def test_s3_p3(self):
        pairs = enumerate_pairs(symmetric(3), 3)
        assert [(q.P.order, q.s_order) for q in pairs] == \
            [(1, 1), (1, 2), (3, 1), (3, 2)]

    def test_c3_p3(self):
        assert len(enumerate_pairs(cyclic(3), 3)) == 2

    def test_lifts_are_p_prime_normalizing(self):
        for G, p in [(symmetric(4), 2), (dihedral(12), 2), (dihedral(12), 3)]:
            for q in enumerate_pairs(G, p):
                assert math.gcd(G.orders[q.lift], p) == 1
                assert {G.conj[q.lift][x] for x in q.P.indices} == set(q.P.indices)

    def test_ses_invariant(self):
        for G, p in [(symmetric(4), 2), (quotient_testcase(), 2)]:
            for q in enumerate_pairs(G, p):
                assert q.stabilizer.order == q.P.order * q.centralizer_order

    def test_deterministic(self):
        a = enumerate_pairs(symmetric(4), 2)
        b = enumerate_pairs(symmetric(4), 2)
        assert a == b
        keys = [q.sort_key() for q in a]
        assert keys == sorted(keys)


def quotient_testcase():
    return dihedral(8)


def pairs_conjugate(a, b):
    """Brute-force reference: True iff some g in the group of the pairs
    carries (P_a, s_a) to (P_b, s_b)."""
    if a.P.order != b.P.order or a.s_order != b.s_order:
        return False
    table, inv, conj = a.group.table, a.group.inv, a.group.conj
    target = b.P.mask
    b_inv = inv[b.lift]
    for g in a.group.indices:
        row = conj[g]
        if any(not target >> row[x] & 1 for x in a.P.indices):
            continue
        if target >> table[row[a.lift]][b_inv] & 1:
            return True
    return False


def canonical(pair):
    return canonical_pair(pair.group, pair.p, pair.P, pair.lift)


CANONICAL_PAIR_CASES = {"S3-p3": (symmetric(3), 3), "S4-p2": (symmetric(4), 2),
                        "S4-p3": (symmetric(4), 3), "D8-p2": (dihedral(8), 2),
                        "A5-p2": (alternating(5), 2)}


class TestPairsConjugate:
    """Pairs are conjugate exactly when :func:`canonical_pair` sends them to
    the same canonical pair, checked against the brute-force reference."""

    def test_reflexive(self):
        for q in enumerate_pairs(symmetric(3), 3):
            assert pairs_conjugate(q, q)
            assert canonical(q) is q

    def test_transpositions_conjugate(self):
        G = symmetric(3)
        index = {x: i for i, x in enumerate(G.elements)}
        t1 = index[Permutation.from_cycles(3, [(0, 1)])]
        t2 = index[Permutation.from_cycles(3, [(1, 2)])]
        a = build_pair(G, 3, G.trivial_subgroup(), t1)
        b = build_pair(G, 3, G.trivial_subgroup(), t2)
        assert pairs_conjugate(a, b)
        assert canonical(a) is canonical(b) is enumerate_pairs(G, 3)[1]

    def test_different_p_order(self):
        G = cyclic(2)
        pairs = enumerate_pairs(G, 2)
        assert not pairs_conjugate(pairs[0], pairs[1])
        assert canonical(pairs[0]) is not canonical(pairs[1])

    def test_only_the_group_s_own_elements_conjugate(self):
        """Over V4 in S4 the tables are those of S4, but two
        involutions of the abelian V4 are conjugate only in S4."""
        G = symmetric(4)
        V = next(H for H in subgroup_lattice(G).subgroups
                 if H.order == 4 and H.is_normal_in(G))
        a, b = V.indices[1:3]
        in_g = [build_pair(G, 3, G.trivial_subgroup(), x) for x in (a, b)]
        in_v = [build_pair(V, 3, V.trivial_subgroup(), x) for x in (a, b)]
        assert pairs_conjugate(*in_g) and not pairs_conjugate(*in_v)
        assert canonical(in_g[0]) is canonical(in_g[1])
        assert [canonical(q) for q in in_v] == in_v  # V4 is abelian: every pair is canonical

    def test_refuses_a_lift_that_is_not_a_normalizing_p_prime_element(self):
        G = symmetric(3)
        C2 = next(H for H in subgroup_lattice(G).subgroups if H.order == 2)
        t = next(x for x in G.indices if G.orders[x] == 3)
        for p, P in ((3, G.trivial_subgroup()), (2, C2)):
            with pytest.raises(ValueError, match="p'-element normalizing"):
                canonical_pair(G, p, P, t)


@pytest.mark.parametrize("case", sorted(CANONICAL_PAIR_CASES))
def test_canonical_pair_fixes_every_conjugate_of_a_canonical_pair(case):
    """Every G-conjugate of a canonical pair is sent back to the very object
    that :func:`enumerate_pairs` lists."""
    G, p = CANONICAL_PAIR_CASES[case]
    for q in enumerate_pairs(G, p):
        for g in G.indices:
            assert canonical(conjugate_pair(q, g)) is q


@pytest.mark.parametrize("case", sorted(CANONICAL_PAIR_CASES))
def test_canonical_pairs_agree_with_the_reference(case):
    """Two pairs share a canonical pair exactly when the reference finds them
    conjugate, over one pair per (P, lift) with P a p-subgroup and the lift
    a p'-element of N_G(P)."""
    G, p = CANONICAL_PAIR_CASES[case]
    pairs = []
    for P in subgroup_lattice(G).subgroups:
        if not is_p_power(P.order, p):
            continue
        pairs.extend(build_pair(G, p, P, t) for t in normalizer(G, P).indices
                     if math.gcd(G.orders[t], p) == 1)
    for a, b in combinations(pairs, 2):
        assert (canonical(a) is canonical(b)) == pairs_conjugate(a, b)


class TestTauGenerator:
    def test_dimension_at_trivial_pair(self):
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        dim_pair = enumerate_pairs(G, p)[0]
        L = sylow(G, 3)
        gen = make_generator(G, L, (0,) * L.order, n)
        assert tau_generator(dim_pair, gen) == Cyclotomic.from_rational(n, 2)

    def test_regular_c2_vector(self):
        G = cyclic(2)
        n = 1
        T = G.trivial_subgroup()
        gen = make_generator(G, T, (0,), n)
        x = PPElement.from_generator(2, gen)
        vec = species_vector(x)
        assert list(vec.values) == [2, 0]

    def test_transposition_swaps_c3_cosets(self):
        # the transposition swaps the two cosets of C3, so every character
        # of C3 admissible at this conductor gives species value zero
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        pair = enumerate_pairs(G, p)[1]  # (1, transposition)
        L = sylow(G, 3)
        for chi in linear_characters(L, n):
            gen = make_generator(G, L, chi, n)
            assert tau_generator(pair, gen).is_zero()

    def test_trivial_module_all_ones(self):
        for G, p in [(symmetric(3), 2), (dihedral(8), 2)]:
            one = PPElement.one(G, p, default_conductor(G, p))
            vec = species_vector(one)
            assert all(v == 1 for v in vec.values)

    def test_zero_vector(self):
        G = symmetric(3)
        vec = species_vector(PPElement(G, 2, default_conductor(G, 2)))
        assert all(v.is_zero() for v in vec.values)


class TestTauElementChecks:
    """The element is checked against the pair before any term is read, so
    an element without terms is checked too."""

    def test_group_mismatch(self):
        pair = enumerate_pairs(symmetric(3), 2)[0]
        C5 = cyclic(5)
        with pytest.raises(GroupMismatch):
            tau_element(pair, PPElement(C5, 2, 5))
        with pytest.raises(GroupMismatch):
            tau_element(pair, PPElement.one(C5, 2, 5))

    def test_conductor_not_divisible_by_the_order_of_s(self):
        G = symmetric(3)
        pair = enumerate_pairs(G, 3)[1]  # (1, transposition): s has order 2
        for x in (PPElement(G, 3, 1), PPElement.one(G, 3, 1)):
            with pytest.raises(ConductorMismatch):
                tau_element(pair, x)

    def test_conductor_divisible_by_p(self):
        G = symmetric(3)
        pair = enumerate_pairs(G, 3)[0]
        for x in (PPElement(G, 2, 3), PPElement.one(G, 2, 3)):
            with pytest.raises(ConductorMismatch):
                tau_element(pair, x)


# conductors 1, 3, 4 and 15
REDUCE_LATE_CASES = {"D8-p2": (dihedral(8), 2), "S4-p2": (symmetric(4), 2),
                     "S4-p3": (symmetric(4), 3), "A5-p2": (alternating(5), 2)}


@pytest.mark.parametrize("case", sorted(REDUCE_LATE_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_tau_element_matches_the_term_by_term_sum(case, data):
    """The reduce-late sum equals the sum of coeff * zeta^e * count over the
    fixed-line counts, in Cyclotomic arithmetic, term by term."""
    G, p = REDUCE_LATE_CASES[case]
    n = default_conductor(G, p)
    gens = standard_generators(G, p, n)
    term = st.tuples(st.integers(0, len(gens) - 1), st.integers(-6, 6),
                     st.integers(1, 12), st.integers(0, n - 1))
    parts = [(gens[i], zeta_power(n, k) * Fraction(a, b), 1)
             for i, a, b, k in data.draw(st.lists(term, max_size=6))]
    if data.draw(st.booleans()):  # cancel the first half of the terms
        parts += [(gen, c, -1) for gen, c, _ in parts[:len(parts) // 2]]
    x = collect(G, p, n, parts)
    for pair in enumerate_pairs(G, p):
        expected = Cyclotomic.zero(n)
        for gen, coeff in x.terms.items():
            for e, count in _tau_counts(pair, gen):
                expected = expected + coeff * zeta_power(n, e) * count
        assert tau_element(pair, x) == expected


class TestSpeciesProperties:
    def test_multiplicativity_on_random_generator_pairs(self):
        rng = random.Random(7)
        for G, p in [(symmetric(3), 3), (dihedral(8), 2), (cyclic(6), 2)]:
            n = default_conductor(G, p)
            gens = standard_generators(G, p, n)
            pairs = enumerate_pairs(G, p)
            for _ in range(8):
                a = PPElement.from_generator(p, rng.choice(gens))
                b = PPElement.from_generator(p, rng.choice(gens))
                prod = tensor_elt(a, b)
                for q in pairs:
                    assert tau_element(q, prod) == \
                        tau_element(q, a) * tau_element(q, b)

    def test_conjugation_invariance(self):
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        index = {x: i for i, x in enumerate(G.elements)}
        t1 = index[Permutation.from_cycles(3, [(0, 1)])]
        t2 = index[Permutation.from_cycles(3, [(1, 2)])]
        a = build_pair(G, p, G.trivial_subgroup(), t1)
        b = build_pair(G, p, G.trivial_subgroup(), t2)
        for gen in standard_generators(G, p, n):
            assert tau_generator(a, gen) == tau_generator(b, gen)

    def test_lift_independence(self):
        G = dihedral(12)
        p = 2
        n = default_conductor(G, p)
        gens = standard_generators(G, p, n)
        table = G.table
        for q in enumerate_pairs(G, p):
            for u in q.P.indices:
                alt = p_prime_part(G, table[q.lift][u], p)
                if alt == q.lift:
                    continue
                other = build_pair(G, p, q.P, alt)
                for gen in gens[:4]:
                    assert tau_generator(q, gen) == tau_generator(other, gen)

    def test_equal_elements_separates(self):
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        one = PPElement.one(G, p, n)
        L = sylow(G, 3)
        other = PPElement.from_generator(
            p, make_generator(G, L, (0,) * L.order, n))
        assert not equal_elements(one, other)
        assert equal_elements(one, one)


# conductors 1, 3 and 15; on D8 at p=2 the spanning set is a basis (the
# Burnside ring), so there the sum of the idempotents is 1 term for term
EQUALITY_CASES = {"D8-p2": (dihedral(8), 2), "S4-p2": (symmetric(4), 2),
                  "A5-p2": (alternating(5), 2)}


def combine(*signed):
    """The sum of m * x over the (m, x) pairs, all over one group, as one
    ``collect`` of their terms."""
    x = signed[0][1]
    return collect(x.group, x.p, x.conductor,
                   [(gen, c, m) for m, y in signed for gen, c in y.terms.items()])


def idempotent_relation(G, p):
    """The sum of the primitive idempotents minus 1: zero in the ring, though
    its coefficients on the spanning set need not vanish."""
    n = default_conductor(G, p)
    return combine(*[(1, idempotent_theorem(G, p, pair, n)) for pair in enumerate_pairs(G, p)],
                   (-1, PPElement.one(G, p, n)))


def random_elements(G, p):
    n = default_conductor(G, p)
    gens = standard_generators(G, p, n)
    term = st.tuples(st.integers(0, len(gens) - 1), st.integers(-3, 3),
                     st.integers(1, 4), st.integers(0, n - 1))

    def build(terms):
        return collect(G, p, n, [(gens[i], zeta_power(n, k) * Fraction(a, b), 1)
                                 for i, a, b, k in terms])

    return st.lists(term, max_size=4).map(build)


@pytest.mark.parametrize("case", sorted(EQUALITY_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_equal_elements_agrees_with_the_species_vectors(case, data):
    """Coefficients first, then the species of the difference, decides what
    comparing the two whole species vectors decides; y is drawn at random,
    or as x plus a multiple of a relation of the spanning set."""
    G, p = EQUALITY_CASES[case]
    n = default_conductor(G, p)
    x = data.draw(random_elements(G, p))
    if data.draw(st.booleans()):
        y = data.draw(random_elements(G, p))
    else:
        c = zeta_power(n, data.draw(st.integers(0, n - 1))) * data.draw(
            st.sampled_from([Fraction(1), Fraction(-2), Fraction(1, 3)]))
        y = combine((1, x), (1, idempotent_relation(G, p).scale(c)))
        assert equal_elements(x, y)
    assert equal_elements(x, y) == (species_vector(x).values == species_vector(y).values)
    assert equal_elements(y, x) == equal_elements(x, y)


def test_relation_differs_in_coefficients():
    """The relation above is formally nonzero where the spanning set is not a
    basis, so the differential test reaches the species of a difference."""
    for case, nonzero in [("D8-p2", False), ("S4-p2", True), ("A5-p2", True)]:
        rel = idempotent_relation(*EQUALITY_CASES[case])
        assert bool(rel.terms) == nonzero
        assert equal_elements(rel, rel.scale(0))


@pytest.mark.parametrize("case", sorted(EQUALITY_CASES))
def test_a_difference_at_one_species_is_seen(case):
    """x and x + e_(P,s) differ at the species (P,s) alone, so every pair's
    species of the difference is read."""
    G, p = EQUALITY_CASES[case]
    n = default_conductor(G, p)
    one = PPElement.one(G, p, n)
    rel = idempotent_relation(G, p)
    for pair in enumerate_pairs(G, p):
        e = idempotent_theorem(G, p, pair, n)
        assert not equal_elements(one, combine((1, one), (1, e)))
        assert not equal_elements(combine((1, one), (1, rel)), combine((1, one), (1, e)))
        assert equal_elements(e, combine((1, e), (1, rel.scale(zeta_power(n, 1)))))


def test_formally_equal_elements_skip_the_species(monkeypatch):
    def refuse(pair, x):
        raise RuntimeError("species evaluated")

    G, p = symmetric(4), 2
    n = default_conductor(G, p)
    gens = standard_generators(G, p, n)
    x = PPElement(G, p, n, {gens[3]: Cyclotomic.from_rational(n, Fraction(2, 3)),
                            gens[7]: zeta_power(n, 1)})
    y = collect(G, p, n, [(gens[7], zeta_power(n, 1), 1),
                          (gens[3], Cyclotomic.from_rational(n, Fraction(1, 3)), 2)])
    rel = idempotent_relation(G, p)
    monkeypatch.setattr(species, "tau_element", refuse)
    assert equal_elements(x, y)
    assert equal_elements(combine((1, x), (1, rel), (-1, rel)), x)
    assert equal_elements(PPElement(G, p, n), combine((1, x), (-1, y)))
    with pytest.raises(RuntimeError, match="species evaluated"):
        equal_elements(x, combine((1, x), (1, rel)))


def test_build_pair_refuses_a_lift_outside_the_group():
    """A lift index outside the group is refused as such, before its order is
    read: -1 and |S4| lie outside the root, a transposition outside C3."""
    G = symmetric(4)
    C3 = sylow(G, 3)
    t = G.elements.index(Permutation.from_cycles(4, [(0, 1)]))
    for H, lift in ((G, -1), (G, G.order), (C3, t)):
        with pytest.raises(ValueError, match="lift is not an element of the group"):
            build_pair(H, 2, H.trivial_subgroup(), lift)
    P = sylow(G, 2)
    assert -1 not in P and G.order not in P and -1 not in G


@pytest.mark.parametrize("build,p", [(lambda: symmetric(4), 2), (lambda: symmetric(4), 3),
                                     (lambda: alternating(5), 2)],
                         ids=["S4-p2", "S4-p3", "A5-p2"])
def test_pairs_over_promoted_ps_keep_their_lift_index(build, p):
    """An element has one index in G and in H = <Ps>: the pair
    (P, s) built over H keeps the lift index it has in G, and the pairs
    enumerated over H name their lifts by the same indices."""
    G = build()
    for q in enumerate_pairs(G, p):
        H = q.ps
        sub = build_pair(H, p, q.P, q.lift)
        assert sub.lift == q.lift and sub.label() == q.label()
        assert (sub.s_order, sub.ps.indices) == (q.s_order, q.ps.indices)
        for hq in enumerate_pairs(H, p):
            assert hq.lift in H and H.root.elements[hq.lift] is G.elements[hq.lift]


@pytest.mark.parametrize("build, p", [(lambda: symmetric(4), 2),
                                      (lambda: alternating(5), 2)],
                         ids=["S4-p2", "A5-p2"])
def test_tau_generator_builds_no_ring_element(build, p, monkeypatch):
    """A species value is read from the fixed-line counts alone: with every
    way of building a ring element closed and the memos empty, each value
    is still the one recorded before."""
    G = build()
    pairs = enumerate_pairs(G, p)
    gens = standard_generators(G, p, default_conductor(G, p))
    before = [[tau_generator(q, gen) for gen in gens] for q in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("a species value built a ring element")

    clear_caches()
    monkeypatch.setattr(PPElement, "from_generator", refuse)
    monkeypatch.setattr(PPElement, "__init__", refuse)
    assert [[tau_generator(q, gen) for gen in gens] for q in pairs] == before


class TestStandardGenerators:
    def test_counts_match_pair_counts(self):
        # the spanning set has at least as many classes as there are species
        for G, p in [(symmetric(3), 3), (dihedral(8), 2), (cyclic(6), 2)]:
            n = default_conductor(G, p)
            gens = standard_generators(G, p, n)
            assert len(gens) >= len(enumerate_pairs(G, p))

    def test_species_matrix_separates_pairs(self):
        # the species are pairwise distinct as linear functionals
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        gens = standard_generators(G, p, n)
        rows = [tuple(tau_generator(q, g) for g in gens)
                for q in enumerate_pairs(G, p)]
        assert all(a != b for a, b in combinations(rows, 2))
