import math
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ppring import grp
from ppring.cli import parse_group_spec
from ppring.grp import (PRIME_TEST_BOUND, InvalidPermutation, NotSubgroup,
                        OrderCapExceeded, Permutation, alternating,
                        centralizer, check_prime, close_generators,
                        close_indices, conjugacy_classes, conjugate_masks, coset_indices,
                        cyclic, dihedral, direct_product, double_coset_reps, is_p_power,
                        klein_four, normalizer,
                        from_indices, from_mask, normalizer_quotient, p_prime_part,
                        quaternion8, quotient, subgroup_closure,
                        symmetric, sylow)
from ppring.lattice import subgroup_lattice


def brute_closure(degree, gens):
    """Independent closure oracle: iterate the full product table to a fixpoint."""
    elems = {Permutation.identity(degree), *gens}
    while True:
        new = {a * b for a in elems for b in elems}
        if new <= elems:
            return elems
        elems |= new


def inverse(x):
    """The inverse permutation, read off the images: the points sorted by
    their images."""
    return Permutation(sorted(range(x.degree), key=x.images.__getitem__))


def conj(x, g):
    """The conjugate g^-1 x g of a permutation."""
    return inverse(g) * x * g


def members(H):
    """The members of H as permutations: the elements of its root at its
    indices, since only a root holds its elements."""
    return tuple(H.root.elements[i] for i in H.indices)


def closure(G, elements):
    """The subgroup of G generated by the given elements of its root."""
    index = {x: i for i, x in enumerate(G.root.elements)}
    return subgroup_closure(G, [index[x] for x in elements])


@lru_cache(maxsize=None)
def sympy_order(x):
    """The order of a permutation, computed by sympy (about 0.2 ms a call,
    so each permutation is asked once)."""
    comb = pytest.importorskip("sympy.combinatorics")
    return int(comb.Permutation(list(x.images)).order())


class TestPermutation:
    def test_identity_and_call(self):
        e = Permutation.identity(4)
        assert e.images[2] == 2
        assert close_generators(4, [e]).order == 1
        assert e.is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            Permutation((0, 0, 1))

    def test_product_convention(self):
        # (a*b)(i) = a(b(i))
        a = Permutation.from_cycles(3, [(0, 1)])
        b = Permutation.from_cycles(3, [(1, 2)])
        assert (a * b).images[1] == a.images[b.images[1]] == a.images[2] == 2

    def test_inverse_and_pow(self):
        g = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        C = close_generators(5, [g])
        table, x = C.table, C.elements.index(g)
        assert C.elements[C.inv[x]] == inverse(g)
        assert table[x][C.inv[x]] == 0
        assert C.orders[x] == 5
        square = table[x][x]
        assert C.inv[square] == table[x][square]  # g^-2 == g^3

    def test_conj(self):
        g = Permutation.from_cycles(3, [(0, 1, 2)])
        t = Permutation.from_cycles(3, [(0, 1)])
        G = symmetric(3)
        row = G.conj[G.elements.index(t)]
        assert G.elements[row[G.elements.index(g)]] == inverse(t) * g * t

    def test_cycles_roundtrip(self):
        g = Permutation.from_cycles(6, [(0, 3), (1, 4, 5)])
        assert g == Permutation.from_cycles(6, g.cycles())
        assert close_generators(6, [g]).order == 6

    @pytest.mark.parametrize("cycles", [
        [(0, 1), (0, 1)],      # two cycles share both points
        [(0, 1), (1, 2)],      # two cycles share one point
        [(0, 0, 1)],           # one cycle repeats a point
        [(2,), (2,)],          # a fixed point given twice
    ])
    def test_from_cycles_rejects_repeated_points(self, cycles):
        with pytest.raises(InvalidPermutation, match="appears twice"):
            Permutation.from_cycles(3, cycles)

    def test_from_cycles_accepts_disjoint_cycles_and_fixed_points(self):
        g = Permutation.from_cycles(5, [(0, 1), (2,), (3, 4)])
        assert g.images == (1, 0, 2, 4, 3)


class TestCloseGenerators:
    def test_empty_generating_set(self):
        G = close_generators(1, [])
        assert G.order == 1

    def test_single_three_cycle(self):
        G = close_generators(3, [Permutation.from_cycles(3, [(0, 1, 2)])])
        assert G.order == 3

    def test_s3_by_brute_force(self):
        gens = [Permutation.from_cycles(3, [(0, 1)]),
                Permutation.from_cycles(3, [(0, 1, 2)])]
        G = close_generators(3, gens)
        assert set(G.elements) == brute_closure(3, gens)
        assert G.order == 6

    def test_closure_idempotence(self):
        G = symmetric(3)
        again = close_generators(3, list(G.elements))
        assert again.elements == G.elements

    def test_order_cap(self, monkeypatch):
        with pytest.raises(OrderCapExceeded):
            S5 = symmetric(5)
            close_generators(5, [S5.elements[g] for g in S5.generators], max_order=100)
        # named groups are refused from their known order, before anything is built
        C300 = cyclic(300)

        def refuse(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(grp, "close_generators", refuse)
        # the small cases come first: without the check they fail here, before
        # cyclic(10 ** 9) could build a degree-10^9 permutation
        for build in (lambda: cyclic(1000), lambda: cyclic(12, max_order=10),
                      lambda: dihedral(1000), lambda: direct_product(C300, C300),
                      lambda: cyclic(10 ** 9), lambda: dihedral(2 * 10 ** 9)):
            with pytest.raises(OrderCapExceeded, match="exceeds the order cap"):
                build()

    def test_symmetric_and_alternating_capped_by_order(self, monkeypatch):
        assert alternating(6).order == 360
        assert symmetric(6, max_order=720).order == 720

        def refuse(*args, **kwargs):
            raise AssertionError("built before the cap was checked")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(grp, "close_generators", refuse)
        for build, order in ((lambda: symmetric(6), "6!"), (lambda: alternating(7), "7!/2"),
                             (lambda: symmetric(5, max_order=100), "5!"),
                             (lambda: alternating(4096), "4096!/2")):
            with pytest.raises(OrderCapExceeded, match=f"group order {order} exceeds"):
                build()

    def test_degree_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an image list was built before the degree was checked")

        monkeypatch.setattr(Permutation, "__init__", refuse)
        monkeypatch.setattr(Permutation, "_trusted", refuse)
        # the small degree comes first: without the check it fails here, before
        # a degree-10^9 image list could be built
        message = f"is outside 1..{grp.MAX_DEGREE}"
        for degree in (grp.MAX_DEGREE + 1, 10 ** 9):
            for build in (lambda: Permutation.from_cycles(degree, [(0, 1)]),
                          lambda: close_generators(degree, []),
                          lambda: cyclic(degree, max_order=degree),
                          lambda: dihedral(2 * degree, max_order=2 * degree)):
                with pytest.raises(InvalidPermutation, match=message):
                    build()

    def test_deterministic_element_order(self):
        G = symmetric(3)
        assert list(G.elements) == sorted(G.elements)
        assert G.elements[0].is_identity()


class TestNamedConstructors:
    @pytest.mark.parametrize("build,order", [
        (lambda: cyclic(6), 6),
        (lambda: symmetric(4), 24),
        (lambda: symmetric(5), 120),
        (lambda: alternating(4), 12),
        (lambda: alternating(5), 60),
        (lambda: dihedral(8), 8),
        (lambda: dihedral(12), 12),
        (lambda: quaternion8(), 8),
        (lambda: klein_four(), 4),
        (lambda: direct_product(cyclic(2), cyclic(3)), 6),
    ])
    def test_orders(self, build, order):
        assert build().order == order

    def test_quaternion_is_not_dihedral(self):
        # Q8 has a unique involution, D8 has five
        Q = quaternion8()
        D = dihedral(8)
        assert Q.orders.count(2) == 1
        assert D.orders.count(2) == 5

    def test_exponent(self):
        assert symmetric(4).exponent() == 12
        assert quaternion8().exponent() == 4


class TestSubgroup:
    def test_lagrange(self):
        G = symmetric(3)
        H = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        assert H.order == 2 and G.order % H.order == 0

    def test_generators_regenerate(self):
        G = symmetric(4)
        H = sylow(G, 2)
        K = subgroup_closure(G, H.generators)
        assert frozenset(members(K)) == frozenset(members(H))

    def test_promote_keeps_elements(self):
        G = symmetric(3)
        H = sylow(G, 3)
        assert not hasattr(H, "elements")  # read from the root, never copied
        assert {x.images for x in members(H)} == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        assert H.order == 3


class TestSylow:
    def test_s3_p3(self):
        assert sylow(symmetric(3), 3).order == 3

    def test_s3_p5_trivial(self):
        assert sylow(symmetric(3), 5).order == 1

    def test_s4_p2_order_eight(self):
        S = sylow(symmetric(4), 2)
        assert S.order == 8
        # independent check through sympy
        sympy_group = pytest.importorskip("sympy.combinatorics").PermutationGroup
        from sympy.combinatorics import Permutation as SPerm
        G = sympy_group([SPerm([1, 0, 2, 3]), SPerm([1, 2, 3, 0])])
        assert G.sylow_subgroup(2).order() == 8

    @pytest.mark.parametrize("build,p", [
        (lambda: symmetric(4), 2), (lambda: symmetric(4), 3),
        (lambda: alternating(4), 2), (lambda: dihedral(12), 2),
        (lambda: quaternion8(), 2), (lambda: cyclic(6), 3),
    ])
    def test_order_is_exact_p_part(self, build, p):
        G = build()
        part = 1
        order = G.order
        while order % p == 0:
            part *= p
            order //= p
        S = sylow(G, p)
        assert S.order == part
        assert all(G.conj[g][x] in G for x in S.indices for g in S.indices)


class TestPPrimePart:
    def test_already_p_prime(self):
        G = symmetric(3)
        x = Permutation.from_cycles(3, [(0, 1, 2)])
        assert G.elements[p_prime_part(G, G.elements.index(x), 2)] == x

    def test_c6_generator(self):
        G = cyclic(6)
        gen6 = G.orders.index(6)
        part = p_prime_part(G, gen6, 2)
        g = G.elements[gen6]
        assert G.elements[part] == g * g * g * g
        assert G.orders[part] == 3

    def test_pure_p_element(self):
        G = cyclic(4)
        assert p_prime_part(G, G.orders.index(4), 2) == 0

    @pytest.mark.parametrize("p", [2, 3])
    def test_factorization_properties(self, p):
        G = symmetric(4)
        table = G.table
        for x in G.indices:
            xp_prime = p_prime_part(G, x, p)
            xp = table[x][G.inv[xp_prime]]
            assert table[xp][xp_prime] == x
            assert table[xp][xp_prime] == table[xp_prime][xp]
            assert math.gcd(G.orders[xp_prime], p) == 1
            n = G.orders[xp]
            while n % p == 0:
                n //= p
            assert n == 1


class TestNormalizerCentralizer:
    def test_normal_sylow(self):
        G = symmetric(3)
        assert normalizer(G, sylow(G, 3)).order == 6

    def test_self_normalizing_transposition(self):
        G = symmetric(3)
        H = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        N = normalizer(G, H)
        assert frozenset(members(N)) == frozenset(members(H))
        # oracle: conjugate the subgroup by every element
        expected = {g for g in G.elements
                    if {conj(x, g) for x in members(H)} == set(members(H))}
        assert frozenset(members(N)) == expected

    def test_centralizer_three_cycle(self):
        G = symmetric(3)
        x = Permutation.from_cycles(3, [(0, 1, 2)])
        C = centralizer(G, G.elements.index(x))
        assert C.order == 3
        assert all(g * x == x * g for g in members(C))


class TestConjugationTable:
    @pytest.mark.parametrize("build", [lambda: symmetric(4),
                                       lambda: direct_product(dihedral(8), cyclic(2))],
                             ids=["S4", "D8xC2"])
    def test_matches_permutation_conj(self, build):
        G = build()
        for row, g in zip(G.conj, G.elements):
            assert [G.elements[i] for i in row] == [conj(x, g) for x in G.elements]

    @pytest.mark.parametrize("p", [2, 3])
    def test_normalizer_quotient_order(self, p):
        G = symmetric(4)
        for P in subgroup_lattice(G).class_reps():
            if not is_p_power(P.order, p):
                continue
            N = normalizer(G, P)
            Q = normalizer_quotient(G, P)
            assert Q.parent == N
            assert Q.group.order == N.order // P.order


class TestQuotient:
    def test_full_quotient_is_trivial(self):
        G = cyclic(2)
        Q = quotient(G, G)
        assert Q.group.order == 1

    def test_s3_mod_sylow3(self):
        G = symmetric(3)
        Q = quotient(G, sylow(G, 3))
        assert Q.group.order == 2

    def test_c6_mod_c2(self):
        G = cyclic(6)
        C2 = sylow(G, 2)
        Q = quotient(G, C2)
        assert Q.group.order == 3
        assert Q.group.orders[Q.proj[G.orders.index(6)]] == 3

    def test_project_is_homomorphism_everywhere(self):
        G = symmetric(3)
        Q = quotient(G, sylow(G, 3))
        index = {x: i for i, x in enumerate(G.elements)}

        def project(x):
            return Q.group.elements[Q.proj[index[x]]]

        for a in G.elements:
            for b in G.elements:
                assert project(a * b) == project(a) * project(b)

    @pytest.mark.parametrize("build,order", [(lambda: symmetric(4), 4),
                                             (lambda: symmetric(4), 12),
                                             (lambda: dihedral(8), 2)],
                             ids=["S4/V4", "S4/A4", "D8/Z"])
    def test_index_tables(self, build, order):
        G = build()
        normal = [H for H in subgroup_lattice(G).subgroups
                  if H.order == order and H.is_normal_in(G)]
        assert len(normal) == 1  # V4 and A4 in S4, the centre of D8
        N = normal[0]
        Q = quotient(G, N)
        table, qtable = G.table, Q.group.table
        for a in range(G.order):
            for b in range(G.order):
                assert Q.proj[table[a][b]] == qtable[Q.proj[a]][Q.proj[b]]
        fibers = {}
        for g, q in enumerate(Q.proj):
            fibers.setdefault(q, []).append(g)
        assert sorted(fibers) == list(range(Q.group.order))
        assert tuple(fibers[0]) == N.indices
        assert Q.lifts == tuple(min(fibers[q]) for q in range(Q.group.order))

    def test_trivial_kernel_is_the_group(self):
        G = symmetric(4)
        Q = quotient(G, G.trivial_subgroup())
        assert Q.group == G
        assert Q.proj == Q.lifts == tuple(range(G.order))
        assert normalizer_quotient(G, G.trivial_subgroup()).group == G

    def test_lift_section(self):
        G = cyclic(6)
        Q = quotient(G, sylow(G, 2))
        for q in range(Q.group.order):
            assert Q.proj[Q.lifts[q]] == q

    def test_not_normal_rejected(self):
        from ppring.grp import NotNormal
        G = symmetric(3)
        H = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        with pytest.raises(NotNormal):
            quotient(G, H)


class TestDoubleCosets:
    def test_full_group(self):
        G = symmetric(3)
        reps = double_coset_reps(G, G, G)
        assert reps == [(0, G)]

    def test_s3_sylow3_two_reps(self):
        G = symmetric(3)
        P = sylow(G, 3)
        assert len(double_coset_reps(G, P, P)) == 2

    def test_trivial_subgroups_give_singletons(self):
        G = symmetric(3)
        T = G.trivial_subgroup()
        assert len(double_coset_reps(G, T, T)) == G.order

    def test_partition_property(self):
        G = symmetric(4)
        A = sylow(G, 2)
        B = sylow(G, 3)
        reps = double_coset_reps(G, A, B)
        seen = set()
        for g in (G.elements[i] for i, _ in reps):
            coset = {a * g * b for a in members(A) for b in members(B)}
            assert not (coset & seen)
            seen |= coset
        assert seen == set(G.elements)


class TestCosetIndices:
    def test_tuples_built_once(self):
        G = symmetric(4)
        H = sylow(G, 2)
        first = coset_indices(G, H)
        assert isinstance(first, tuple) and all(isinstance(part, tuple) for part in first)
        assert coset_indices(G, H) is first


# the groups whose every subgroup the conjugacy tables are checked on
KERNEL_GROUPS = ["S4", "A5", "D8xC2", "S3xC3"]


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_conjugate_masks_match_the_elementwise_conjugates(name):
    """For each minimal coset representative g of L, in order, the mask of
    gLg^-1, formed from the permutations; every element of the coset gL
    conjugates L the same way."""
    G = parse_group_spec(name)
    elements = G.root.elements
    index = {x: i for i, x in enumerate(elements)}
    for L in subgroup_lattice(G).subgroups:
        reps, rep_of = coset_indices(G, L)
        masks = conjugate_masks(G, L)
        assert list(masks) == list(reps)
        for g, mask in masks.items():
            x = elements[g]
            assert mask == sum(1 << index[x * y * inverse(x)] for y in members(L))
            assert from_mask(G.root, mask).order == L.order
        for g in G.indices:
            x = elements[g]
            assert masks[rep_of[g]] == sum(1 << index[x * y * inverse(x)] for y in members(L))


def test_from_mask_is_the_interned_subgroup():
    G = symmetric(4)
    for H in subgroup_lattice(G).subgroups:
        assert from_mask(G, H.mask) is H
        assert from_mask(G, H.mask) is from_indices(G, H.indices)


class TestCloseIndices:
    def test_coset_closure_over_a_known_subgroup(self):
        """Closing the generators of H and one more element, coset by coset
        over H, gives the subgroup an index-level fixpoint gives."""
        G = symmetric(4)
        table = G.table
        for H in subgroup_lattice(G).subgroups:
            for c in range(G.order):
                seed = H.generators + (c,)
                elems = {0, *seed}
                while True:
                    new = {table[a][b] for a in elems for b in elems}
                    if new <= elems:
                        break
                    elems |= new
                assert close_indices(table, seed, frozenset(H.indices)) == elems
                assert close_indices(table, seed) == elems


class TestConjugacyClasses:
    def test_s3_classes(self):
        G = symmetric(3)
        sizes = sorted(len(c) for c in conjugacy_classes(G))
        assert sizes == [1, 2, 3]


class TestCheckPrime:
    def test_agrees_with_trial_division_below_10_4(self):
        for n in range(10 ** 4):
            prime = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
            try:
                check_prime(n)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == prime, n

    @pytest.mark.parametrize("p", [10 ** 9 + 7, 2 ** 31 - 1, 2 ** 61 - 1])
    def test_large_primes_accepted(self, p):
        check_prime(p)

    @pytest.mark.parametrize("n", [561, 3215031751])
    def test_pseudoprimes_rejected(self, n):
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
        # the bases 2, 3, 5 and 7.
        with pytest.raises(ValueError, match=f"^{n} is not prime$"):
            check_prime(n)

    @pytest.mark.parametrize("n", [PRIME_TEST_BOUND, 2 ** 89 - 1])
    def test_at_or_above_the_bound_refused(self, n):
        # the bound itself is a strong pseudoprime to all 13 bases
        with pytest.raises(ValueError, match=f"^{n} is too large: primality is "
                                             f"decided only below {PRIME_TEST_BOUND}$"):
            check_prime(n)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_generated_groups_satisfy_lagrange(imga, imgb):
    G = close_generators(5, [Permutation(imga), Permutation(imgb)], max_order=384)
    H = closure(G, [Permutation(imga)])
    assert G.order % H.order == 0


# ---------------------------------------------------------------------------
# differential tests against sympy.combinatorics on generated groups

def sympy_group(G):
    comb = pytest.importorskip("sympy.combinatorics")
    gens = [comb.Permutation(list(G.elements[g].images)) for g in G.generators]
    return comb.PermutationGroup(gens or [comb.Permutation(list(range(G.degree)))])


@st.composite
def generated_groups(draw, max_order=384):
    """A permutation group of degree <= 6 and order <= max_order, from 1 to 3
    generators; a larger closure is refused before its tables are built."""
    degree = draw(st.integers(min_value=1, max_value=6))
    gens = draw(st.lists(st.permutations(list(range(degree))), min_size=1, max_size=3))
    try:
        return close_generators(degree, [Permutation(g) for g in gens], max_order=max_order)
    except OrderCapExceeded:
        reject()


def prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(generated_groups())
def test_order_classes_and_sylow_agree_with_sympy(G):
    theirs = sympy_group(G)
    comb = pytest.importorskip("sympy.combinatorics")
    assert G.order == theirs.order()
    assert len(conjugacy_classes(G)) == len(theirs.conjugacy_classes())
    ours = {frozenset(G.elements[i].images for i in cls) for cls in conjugacy_classes(G)}
    assert ours == {frozenset(tuple(x.array_form) for x in cls)
                    for cls in theirs.conjugacy_classes()}
    as_sympy = [comb.Permutation(list(x.images)) for x in G.elements]
    theirs_orders = [int(x.order()) for x in as_sympy]
    assert list(G.orders) == theirs_orders
    assert G.exponent() == math.lcm(*(x.order() for x in theirs.elements))
    for p in prime_divisors(G.order):
        assert sylow(G, p).order == theirs.sylow_subgroup(p).order()
        for i, (x, n) in enumerate(zip(as_sympy, theirs_orders)):
            q = math.gcd(n, p ** n)  # the p-part of n
            # x = x_p x_p' with x_p' = x^e, e = 1 mod n/q and e = 0 mod q
            e = q * pow(q, -1, n // q)
            assert G.elements[p_prime_part(G, i, p)].images == tuple((x ** e).array_form)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(generated_groups(), st.data())
def test_normalizer_and_centralizer_orders_agree_with_sympy(G, data):
    elements = st.sampled_from(G.elements)
    x = data.draw(elements)
    H = closure(G, data.draw(st.lists(elements, min_size=1, max_size=2)))
    theirs = sympy_group(G)
    comb = pytest.importorskip("sympy.combinatorics")
    as_sympy = {g: comb.Permutation(list(g.images)) for g in G.elements}
    cyclic_x = comb.PermutationGroup([as_sympy[x]])
    assert centralizer(G, G.elements.index(x)).order == theirs.centralizer(cyclic_x).order()
    # |N_G(H)| = |G| / (number of conjugates of H), conjugating in sympy
    in_sympy = frozenset(as_sympy[h] for h in members(H))
    conjugates = {frozenset(h ^ g for h in in_sympy) for g in theirs.elements}
    assert normalizer(G, H).order * len(conjugates) == G.order


@settings(max_examples=30, deadline=None)
@given(generated_groups(), st.data())
def test_double_cosets_partition_generated_groups(G, data):
    elements = st.sampled_from(G.elements)
    A = closure(G, data.draw(st.lists(elements, max_size=2)))
    B = closure(G, data.draw(st.lists(elements, max_size=2)))
    covered = set()
    total = 0
    for gi, meet in double_coset_reps(G, A, B):
        g = G.elements[gi]
        double_coset = {a * g * b for a in members(A) for b in members(B)}
        assert not double_coset & covered
        assert list(members(meet)) == [a for a in members(A) if conj(a, g) in members(B)]
        covered |= double_coset
        total += len(double_coset)
    assert total == G.order
    assert covered == frozenset(G.elements)


@pytest.mark.parametrize("build", [
    lambda: symmetric(4),
    lambda: direct_product(dihedral(8), cyclic(2)),
    lambda: alternating(5),
], ids=["S4", "D8xC2", "A5"])
def test_index_order_is_element_order(build):
    """Sorting subgroups by (order, indices) sorts them by (order, image
    tuples), in G and in the lattice of every N_G(P), which lists the very
    subgroups of G that N_G(P) contains."""
    G = build()
    lat = subgroup_lattice(G)

    def check(subgroups):
        by_indices = sorted(subgroups, key=lambda H: (H.order, H.indices))
        by_images = sorted(subgroups,
                           key=lambda H: (H.order, [x.images for x in members(H)]))
        assert by_indices == by_images == sorted(subgroups)

    check(lat.subgroups)
    for P in lat.subgroups:
        N = normalizer(G, P)
        inside = [H for H in lat.subgroups if not H.mask & ~N.mask]
        copies = subgroup_lattice(N).subgroups
        assert len(copies) == len(inside)
        assert all(H is K for H, K in zip(copies, inside))
        assert all(list(H.indices) == sorted(H.indices) for H in copies)
        check(copies)


# ---------------------------------------------------------------------------
# groups as index tables: subgroups and quotient groups against composition

def composed_tables(G):
    """The reference path: multiplication, inverse, conjugation and order
    tables of G by composing its permutations."""
    index = {x: i for i, x in enumerate(G.elements)}
    table = tuple(tuple(index[a * b] for b in G.elements) for a in G.elements)
    inv = tuple(index[inverse(x)] for x in G.elements)
    conjugates = tuple(tuple(index[conj(x, g)] for x in G.elements) for g in G.elements)
    return table, inv, conjugates, tuple(map(sympy_order, G.elements))


def assert_tables_compose(G):
    assert (G.table, G.inv, G.conj, G.orders) == composed_tables(G)


def assert_promoted_and_quotient_tables_compose(G):
    assert_tables_compose(G)
    for H in subgroup_lattice(G).subgroups:
        assert H.root is G and (H is G or not hasattr(H, "elements"))
        assert H.table is G.table
        if H.is_normal_in(G):
            assert_tables_compose(quotient(G, H).group)


@pytest.mark.parametrize("build", [
    lambda: symmetric(4),
    lambda: direct_product(dihedral(8), cyclic(2)),
    lambda: alternating(5),
], ids=["S4", "D8xC2", "A5"])
def test_promoted_and_quotient_tables_match_composition(build):
    assert_promoted_and_quotient_tables_compose(build())


@settings(max_examples=20, deadline=None)
@given(generated_groups())
def test_generated_promoted_and_quotient_tables_match_composition(G):
    if G.order > 48:
        reject()
    assert_promoted_and_quotient_tables_compose(G)


# ---------------------------------------------------------------------------
# one numbering per root


@pytest.mark.parametrize("build", [
    lambda: symmetric(4),
    lambda: direct_product(dihedral(8), cyclic(2)),
    lambda: alternating(5),
], ids=["S4", "D8xC2", "A5"])
def test_promoted_groups_number_elements_as_their_root(build):
    G = build()
    for H in subgroup_lattice(G).subgroups:
        assert H.table is G.table and H.conj is G.conj and H.orders is G.orders
        assert H.mask == sum(1 << i for i in H.indices)
        assert H is G or not hasattr(H, "elements")
        assert H.exponent() == math.lcm(*map(sympy_order, members(H)))
        assert all(x in H for x in H.indices)
        assert not any(x in H for x in G.indices if x not in H.indices)


class TestPromotedGroupMembers:
    """A subgroup reads every root index off the root's tables, so it
    refuses, by membership, a root element it does not contain."""

    def setup_method(self):
        G = symmetric(4)
        self.G, self.H = G, sylow(G, 3)
        self.outside = Permutation.from_cycles(4, [(0, 1)])

    def test_element_checks_refuse_a_root_index_outside(self):
        G, H = self.G, self.H
        x = G.elements.index(self.outside)
        assert x in G and x not in H and -1 not in H
        for bad in (x, -1):
            with pytest.raises(NotSubgroup):
                p_prime_part(H, bad, 2)
            with pytest.raises(NotSubgroup):
                centralizer(H, bad)


class TestIdentity:
    def test_roots_are_interned(self):
        assert symmetric(4) is symmetric(4)
        G = symmetric(3)
        assert close_generators(3, list(reversed(G.elements))) is G
        # a quotient with the elements of a named group is that group
        assert quotient(symmetric(3), sylow(symmetric(3), 3)).group is cyclic(2)

    @pytest.mark.parametrize("build", [lambda: symmetric(4), lambda: alternating(5)],
                             ids=["S4", "A5"])
    def test_promote_is_memoized_per_embedding(self, build):
        G = build()
        assert from_indices(G, G.indices) is G
        for P in subgroup_lattice(G).subgroups:
            N = normalizer(G, P)
            assert normalizer_quotient(G, P).parent is N
            # the same elements reached through the normalizer are one group
            assert from_indices(N, P.indices) is P
            assert any(H is P for H in subgroup_lattice(N).subgroups)

    def test_equality_is_identity(self):
        G = symmetric(4)
        V = next(H for H in subgroup_lattice(G).subgroups
                 if H.order == 4 and H.is_normal_in(G))
        K = klein_four()
        assert V != K and V is not K
        assert not G.contains_group(K) and G.contains_group(V)
        with pytest.raises(NotSubgroup, match="does not contain"):
            normalizer(G, K)

    def test_quotient_subgroup_does_not_reparent_into_the_parent(self):
        G = symmetric(4)
        V = next(H for H in subgroup_lattice(G).subgroups
                 if H.order == 4 and H.is_normal_in(G))
        Q = quotient(G, V)
        for S in subgroup_lattice(Q.group).subgroups:
            with pytest.raises(NotSubgroup):
                normalizer(G, S)
        assert Q.group.root is Q.group

    def test_reparent_refuses_a_missing_element(self):
        G = symmetric(4)
        A, B = [H for H in subgroup_lattice(G).subgroups if H.order == 3][:2]
        with pytest.raises(NotSubgroup, match="does not contain"):
            normalizer(B, A)
