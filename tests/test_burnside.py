from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppring import burnside, clear_caches, grp, ppelem, species
from ppring.burnside import (BurnsideElement, burnside_ind, burnside_product,
                             burnside_res, fixed_point_functor, gluck_yoshida,
                             linearize, mark, mark_element, transitive)
from ppring.cli import parse_group_spec
from ppring.cyclo import Cyclotomic
from ppring.grp import (Permutation, alternating, coset_indices, cyclic,
                        dihedral, direct_product, double_coset_reps, from_indices, klein_four,
                        normalizer, normalizer_quotient, quotient, symmetric,
                        sylow)
from ppring.lattice import subgroup_lattice
from ppring.ppelem import (GroupMismatch, default_conductor, ind_elt, linear_characters,
                           make_generator, res_elt)
from ppring.species import equal_elements
from test_grp import KERNEL_GROUPS, closure


class TestMark:
    def test_point_has_one_fixed_point(self):
        G = symmetric(3)
        lat = subgroup_lattice(G)
        for H in lat.class_reps():
            assert mark(G, G, H) == 1

    def test_s3_c2_on_c2(self):
        G = symmetric(3)
        C2 = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        assert mark(G, C2, C2) == 1

    def test_s3_c3_sees_no_transposition(self):
        G = symmetric(3)
        C2 = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        assert mark(G, sylow(G, 3), C2) == 0

    def test_regular_set_marks(self):
        G = symmetric(3)
        T = G.trivial_subgroup()
        assert mark(G, T, T) == 6
        assert mark(G, T, G) == 0

    def test_refuses_a_subgroup_of_another_group(self):
        G = symmetric(4)
        L = subgroup_lattice(G).class_reps()[1]
        H = subgroup_lattice(klein_four()).subgroups[1]  # a C2 of another root
        assert not G.contains_group(H)
        with pytest.raises(GroupMismatch):
            mark(G, L, H)
        for x in (transitive(G, L), BurnsideElement(G)):
            with pytest.raises(GroupMismatch):
                mark_element(x, H)


class TestProduct:
    def test_point_is_identity(self):
        G = symmetric(3)
        one = transitive(G, G)
        x = BurnsideElement(G, {sylow(G, 3): 1, G.trivial_subgroup(): 2})
        assert burnside_product(one, x) == x

    def test_regular_c2_squared(self):
        G = cyclic(2)
        x = transitive(G, G.trivial_subgroup())
        assert burnside_product(x, x) == BurnsideElement(G, {G.trivial_subgroup(): 2})

    def test_s3_mod_c3_squared(self):
        G = symmetric(3)
        x = transitive(G, sylow(G, 3))
        assert burnside_product(x, x) == BurnsideElement(G, {sylow(G, 3): 2})

    def test_product_with_regular_set_is_index_times_regular(self):
        for G in (symmetric(4), alternating(5)):
            T = G.trivial_subgroup()
            regular = transitive(G, T)
            for A in subgroup_lattice(G).class_reps():
                for clear in (False, True):
                    if clear:
                        burnside._transitive_product.cache_clear()
                    assert burnside_product(transitive(G, A), regular) == \
                        BurnsideElement(G, {T: G.order // A.order})


    @pytest.mark.parametrize("build", [lambda: symmetric(4), lambda: alternating(5)],
                             ids=["S4", "A5"])
    def test_products_stay_on_class_reps(self, build):
        # products build their results without a lattice lookup
        G = build()
        lat = subgroup_lattice(G)
        reps = lat.class_reps()
        x = BurnsideElement(G, {H: Fraction(k + 1, 3) for k, H in enumerate(lat.subgroups)})
        y = gluck_yoshida(G, reps[-2])
        y = BurnsideElement(G, {**y.coeffs, reps[1]: y.coeffs.get(reps[1], 0) - 4})
        results = [burnside_product(x, y), burnside_product(y, y),
                   burnside_product(x, BurnsideElement(G, {G: Fraction(-2, 5)})),
                   burnside_product(y, BurnsideElement(G))]
        for result in results:
            assert result == BurnsideElement(G, result.coeffs)
            assert all(lat.rep_of(L) is L and c != 0 for L, c in result.coeffs.items())
        assert results[3].coeffs == {}


class TestGluckYoshida:
    def test_c2_top(self):
        G = cyclic(2)
        e = gluck_yoshida(G, G)
        expected = BurnsideElement(G, {G: 1, G.trivial_subgroup(): Fraction(-1, 2)})
        assert e == expected

    def test_trivial_subgroup(self):
        G = symmetric(3)
        e = gluck_yoshida(G, G.trivial_subgroup())
        assert e == BurnsideElement(G, {G.trivial_subgroup(): Fraction(1, 6)})

    def test_c3_top(self):
        G = cyclic(3)
        e = gluck_yoshida(G, G)
        expected = BurnsideElement(G, {G: 1, G.trivial_subgroup(): Fraction(-1, 3)})
        assert e == expected

    @pytest.mark.parametrize("build", [lambda: symmetric(3), lambda: symmetric(4)])
    def test_marks_delta_and_idempotency(self, build):
        G = build()
        lat = subgroup_lattice(G)
        reps = lat.class_reps()
        for H in reps:
            e = gluck_yoshida(G, H)
            for K in reps:
                expected = 1 if lat.rep_of(K) == lat.rep_of(H) else 0
                assert mark_element(e, K) == expected
            assert burnside_product(e, e) == e


class TestFixedPointFunctor:
    def test_trivial_subgroup_preserves_marks(self):
        # at P = 1 the functor is transport along G = G/1
        G = symmetric(3)
        x = BurnsideElement(G, {sylow(G, 3): 1, G.trivial_subgroup(): 1})
        y = fixed_point_functor(G.trivial_subgroup(), x)
        assert sorted(c for c in y.coeffs.values()) == \
            sorted(c for c in x.coeffs.values())
        assert sorted(L.order for L in y.coeffs) == sorted(L.order for L in x.coeffs)
        assert y == x

    def test_s3_mod_c3_transitive_set(self):
        G = symmetric(3)
        P = sylow(G, 3)
        y = fixed_point_functor(P, transitive(G, P))
        (S, c), = y.coeffs.items()
        assert c == 1
        assert S.order == 1  # the regular set of the order-2 quotient
        assert y.group.order == 2

    def test_no_fixed_cosets_gives_zero(self):
        G = cyclic(2)
        y = fixed_point_functor(G, transitive(G, G.trivial_subgroup()))
        assert y == BurnsideElement(y.group)


class TestLinearize:
    def test_point_maps_to_trivial_generator(self):
        G = symmetric(3)
        x = linearize(transitive(G, G), 2)
        (gen, coeff), = x.terms.items()
        assert gen.subgroup.order == 6
        assert not any(gen.exps)
        assert coeff == 1

    def test_gluck_yoshida_image(self):
        G = cyclic(2)
        x = linearize(gluck_yoshida(G, G), 2)
        coeffs = {gen.subgroup.order: coeff for gen, coeff in x.terms.items()}
        assert coeffs[2] == 1
        assert coeffs[1] == Fraction(-1, 2)

    def test_transitive_set_maps_to_trivial_character_generator(self):
        G = symmetric(3)
        x = linearize(transitive(G, sylow(G, 3)), 3)
        (gen, coeff), = x.terms.items()
        assert gen.subgroup.order == 3
        assert not any(gen.exps)
        assert coeff == 1


class TestCommutationSquares:
    @pytest.mark.parametrize("p", [2, 3])
    def test_res_square_s3(self, p):
        G = symmetric(3)
        n = default_conductor(G, p)
        lat = subgroup_lattice(G)
        for H in lat.class_reps():
            for L in lat.class_reps():
                x = transitive(G, L)
                lhs = linearize(burnside_res(x, H), p, n)
                rhs = res_elt(linearize(x, p, n), H)
                assert equal_elements(lhs, rhs)

    @pytest.mark.parametrize("p", [2, 3])
    def test_ind_square_s3(self, p):
        G = symmetric(3)
        n = default_conductor(G, p)
        for H in subgroup_lattice(G).class_reps():
            for S in subgroup_lattice(H).class_reps():
                y = transitive(H, S)
                lhs = linearize(burnside_ind(y, G), p, n)
                rhs = ind_elt(linearize(y, p, n), G)
                assert equal_elements(lhs, rhs)

    def test_brauer_square_s3(self):
        from ppring.ppelem import brauer_elt
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        P = sylow(G, p)
        for L in subgroup_lattice(G).class_reps():
            x = transitive(G, L)
            lhs = linearize(fixed_point_functor(P, x), p, n)
            rhs = brauer_elt(linearize(x, p, n), P)
            assert equal_elements(lhs, rhs)

    def test_top_idempotent_fixed_points_every_normal_subgroup(self):
        for G in (symmetric(3), cyclic(6), symmetric(4)):
            lat = subgroup_lattice(G)
            ex = gluck_yoshida(G, G)
            for N in lat.subgroups:
                if not N.is_normal_in(G):
                    continue
                lhs = fixed_point_functor(N, ex)
                NN = normalizer(G, N)
                Q = quotient(NN, N)
                rhs = gluck_yoshida(Q.group, Q.group)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# integer numerators against the Fraction arithmetic they replaced
#
# The reference keeps the coefficients as {class representative: Fraction}
# dicts and runs the same orbit algorithms term by term in Fraction
# arithmetic, as the Burnside ring did before it moved to one denominator.


def ref_collect(G, terms):
    """Fraction coefficients on any subgroups, summed on class
    representatives, zeros dropped."""
    rep_of = subgroup_lattice(G).rep_of
    out = {}
    for L, c in terms:
        rep = rep_of(L)
        out[rep] = out.get(rep, Fraction(0)) + c
    return {L: c for L, c in out.items() if c}


def ref_product(G, a, b):
    return ref_collect(G, [(rep, ca * cb * m) for A, ca in a.items() for B, cb in b.items()
                           for rep, m in burnside._transitive_product(G, A, B)])


def ref_res(G, a, H):
    return ref_collect(H, [
        (stab, c) for L, c in a.items()
        for stab in burnside._orbit_stabilizers(H, G, L, coset_indices(G, L)[0])])


def ref_ind(a, G):
    return ref_collect(G, list(a.items()))


def ref_fixed_points(G, a, P):
    N, Q = normalizer(G, P), normalizer_quotient(G, P)
    return ref_collect(Q.group, [
        (Q.project_subgroup(stab), c)
        for L, c in a.items()
        for stab in burnside._orbit_stabilizers(N, G, L, burnside._fixed_cosets(G, L, P))])


def ref_mark(G, a, H):
    total = Fraction(0)
    for L, c in a.items():
        total += c * mark(G, L, H)
    return total


def ref_linearize(G, a, n):
    return {make_generator(G, L, (0,) * L.order, n): Cyclotomic.from_rational(n, c)
            for L, c in a.items()}


def assert_canonical(x):
    """Integer numerators on class representatives over a positive
    denominator, in lowest terms, with zero stored as no terms over 1."""
    rep_of = subgroup_lattice(x.group).rep_of
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.nums.values()) == 1
    assert all(type(c) is int and c != 0 for c in x.nums.values())
    assert all(rep_of(L) is L for L in x.nums)
    if not x.nums:
        assert x.den == 1


def matches(x, ref):
    assert_canonical(x)
    return x.coeffs == ref


INTEGER_CASES = {"S4": lambda: symmetric(4), "A5": lambda: alternating(5),
                 "D8xC2": lambda: direct_product(dihedral(8), cyclic(2))}


@st.composite
def rational_elements(draw, G):
    """An element drawn as terms on any subgroups, with mixed denominators,
    negative values and, at times, the first half cancelled on conjugates;
    returned with its reference coefficients."""
    subgroups = subgroup_lattice(G).subgroups
    term = st.tuples(st.sampled_from(subgroups), st.integers(-6, 6), st.integers(1, 12))
    terms = [(L, Fraction(a, b)) for L, a, b in draw(st.lists(term, max_size=6))]
    if draw(st.booleans()):
        for L, c in terms[:len(terms) // 2]:
            row = G.conj[draw(st.integers(0, G.order - 1))]
            terms.append((from_indices(G, sorted(row[h] for h in L.indices)), -c))
    coeffs = {}
    for L, c in terms:
        coeffs[L] = coeffs.get(L, 0) + c
    return BurnsideElement(G, coeffs), ref_collect(G, terms)


@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_ring_arithmetic_matches_the_fraction_reference(case, data):
    G = INTEGER_CASES[case]()
    x, rx = data.draw(rational_elements(G))
    y, ry = data.draw(rational_elements(G))
    assert matches(x, rx) and matches(y, ry)
    assert matches(burnside_product(x, y), ref_product(G, rx, ry))
    for K in subgroup_lattice(G).class_reps():
        assert mark_element(x, K) == ref_mark(G, rx, K)
    n = default_conductor(G, 2)
    assert linearize(x, 2, n).terms == ref_linearize(G, rx, n)


@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_orbit_functors_match_the_fraction_reference(case, data):
    G = INTEGER_CASES[case]()
    reps = subgroup_lattice(G).class_reps()
    x, rx = data.draw(rational_elements(G))
    H = data.draw(st.sampled_from(reps))
    restricted = burnside_res(x, H)
    assert matches(restricted, ref_res(G, rx, H))
    assert matches(burnside_ind(restricted, G), ref_ind(ref_res(G, rx, H), G))
    P = data.draw(st.sampled_from(reps))
    assert matches(fixed_point_functor(P, x), ref_fixed_points(G, rx, P))


def test_zero_is_no_terms_over_one():
    G = symmetric(4)
    reps = subgroup_lattice(G).class_reps()
    x = BurnsideElement(G, {L: Fraction(k + 1, 6) for k, L in enumerate(reps)})
    # a conjugate of reps[1] other than itself, to cancel against it
    row = next(G.conj[g] for g in G.indices
               if sorted(G.conj[g][h] for h in reps[1].indices) != list(reps[1].indices))
    other = from_indices(G, sorted(row[h] for h in reps[1].indices))
    for zero in (BurnsideElement(G), burnside_product(x, BurnsideElement(G)),
                 BurnsideElement(G, {reps[1]: Fraction(1, 3), reps[2]: 0,
                                     other: Fraction(-2, 6)})):
        assert zero.nums == {} and zero.den == 1
        assert_canonical(zero)
    assert x.den == 6 and x.nums[reps[0]] == 1


def test_linearize_refuses_a_conductor_divisible_by_p():
    G = symmetric(4)
    with pytest.raises(ValueError, match="prime to p"):
        linearize(transitive(G, G), 2, 6)


class MackeyCalled(Exception):
    pass


def test_orbit_algorithms_do_not_read_the_double_cosets(monkeypatch):
    """The orbit algorithms are checked against the Mackey expansions, so
    they must not compute anything through ``double_coset_reps``."""
    def refuse(G, A, B):
        raise MackeyCalled

    clear_caches()
    # every name through which burnside reaches the double cosets: its own
    # binding, if it ever gets one again, and the Mackey skeleton it reads
    monkeypatch.setattr(burnside, "double_coset_reps", refuse, raising=False)
    monkeypatch.setattr(burnside, "_mackey", refuse)
    monkeypatch.setattr(ppelem, "double_coset_reps", refuse)
    G = symmetric(4)
    reps = subgroup_lattice(G).class_reps()
    for L in reps:
        x = transitive(G, L)
        for H in reps:
            burnside_res(x, H)
            fixed_point_functor(H, x)
            mark(G, L, H)
    x = transitive(G, reps[1])
    with pytest.raises(MackeyCalled):
        burnside_product(x, x)
    with pytest.raises(MackeyCalled):
        res_elt(linearize(x, 2), reps[1])


class MasksRead(Exception):
    pass


def test_mackey_side_does_not_read_the_conjugate_masks(monkeypatch):
    """The Mackey expansions are checked against the orbit algorithms,
    which read the conjugate masks, so the double cosets, their meets and
    the restrictions must not compute anything through them."""
    def refuse(G, L):
        raise MasksRead

    clear_caches()
    # every name through which the package reaches the masks
    for module in (grp, burnside, species):
        monkeypatch.setattr(module, "conjugate_masks", refuse)
    for name in KERNEL_GROUPS:
        G = parse_group_spec(name)
        n = default_conductor(G, 2)
        reps = subgroup_lattice(G).class_reps()
        for H in reps:
            for L in reps:
                assert double_coset_reps(G, H, L)
                assert ppelem._mackey(G, H, L)
                for chi in linear_characters(L, n):
                    assert ppelem._res_gen(make_generator(G, L, chi, n), H)
    with pytest.raises(MasksRead):
        mark(G, reps[1], reps[0])


def orbit_walk_stabilizers(H, G, L, fixed):
    """The stabilizer in H of the least coset of each H-orbit on the cosets
    ``fixed``, from the permutations: orbits walked element by element."""
    elements = G.root.elements
    index = {x: i for i, x in enumerate(elements)}
    rep_of = coset_indices(G, L)[1]
    left, out = set(fixed), []
    while left:
        start = min(left)
        g = elements[start]
        left -= {rep_of[index[elements[h] * g]] for h in H.indices}
        out.append(sorted(h for h in H.indices
                          if rep_of[index[elements[h] * g]] == start))
    return out


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_orbit_stabilizers_match_an_orbit_walk(name):
    """As restriction runs them (H on every coset) and as the fixed-point
    functor does (N_G(P) on the P-fixed cosets)."""
    G = parse_group_spec(name)
    reps = subgroup_lattice(G).class_reps()
    for H in reps:
        N = normalizer(G, H)
        for L in reps:
            for acting, fixed in ((H, coset_indices(G, L)[0]),
                                  (N, burnside._fixed_cosets(G, L, H))):
                got = burnside._orbit_stabilizers(acting, G, L, fixed)
                assert [list(S.indices) for S in got] == \
                    orbit_walk_stabilizers(acting, G, L, fixed)
