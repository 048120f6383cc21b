from fractions import Fraction

import pytest

from ppring import burnside
from ppring.burnside import (BurnsideElement, burnside_ind, burnside_product,
                             burnside_res, fixed_point_functor, gluck_yoshida,
                             linearize, mark, mark_element, transitive)
from ppring.grp import (Permutation, alternating, cyclic, normalizer, promote,
                        quotient, symmetric, sylow)
from ppring.lattice import subgroup_lattice
from ppring.ppelem import default_conductor, ind_elt, res_elt
from ppring.species import equal_elements


class TestMark:
    def test_point_has_one_fixed_point(self):
        G = symmetric(3)
        lat = subgroup_lattice(G)
        for H in lat.class_reps():
            assert mark(G, G.full_subgroup(), H) == 1

    def test_s3_c2_on_c2(self):
        G = symmetric(3)
        C2 = G.closure([Permutation.from_cycles(3, [(0, 1)])])
        assert mark(G, C2, C2) == 1

    def test_s3_c3_sees_no_transposition(self):
        G = symmetric(3)
        C2 = G.closure([Permutation.from_cycles(3, [(0, 1)])])
        assert mark(G, sylow(G, 3), C2) == 0

    def test_regular_set_marks(self):
        G = symmetric(3)
        T = G.trivial_subgroup()
        assert mark(G, T, T) == 6
        assert mark(G, T, G.full_subgroup()) == 0


class TestProduct:
    def test_point_is_identity(self):
        G = symmetric(3)
        one = transitive(G, G.full_subgroup())
        x = transitive(G, sylow(G, 3)) + transitive(G, G.trivial_subgroup()).scale(2)
        assert burnside_product(one, x) == x

    def test_regular_c2_squared(self):
        G = cyclic(2)
        x = transitive(G, G.trivial_subgroup())
        assert burnside_product(x, x) == x.scale(2)

    def test_s3_mod_c3_squared(self):
        G = symmetric(3)
        x = transitive(G, sylow(G, 3))
        assert burnside_product(x, x) == x.scale(2)

    def test_product_with_regular_set_is_index_times_regular(self):
        for G in (symmetric(4), alternating(5)):
            regular = transitive(G, G.trivial_subgroup())
            for A in subgroup_lattice(G).class_reps():
                for clear in (False, True):
                    if clear:
                        burnside._transitive_product.cache_clear()
                    assert burnside_product(transitive(G, A), regular) == \
                        regular.scale(G.order // A.order)


    @pytest.mark.parametrize("build", [lambda: symmetric(4), lambda: alternating(5)],
                             ids=["S4", "A5"])
    def test_sums_scales_and_products_stay_on_class_reps(self, build):
        # these three build their results without a lattice lookup
        G = build()
        lat = subgroup_lattice(G)
        reps = lat.class_reps()
        x = BurnsideElement(G, {H: Fraction(k + 1, 3) for k, H in enumerate(lat.subgroups)})
        y = gluck_yoshida(G, reps[-2]) - transitive(G, reps[1]).scale(4)
        results = [x + y, y + x.scale(-1), x.scale(Fraction(-2, 5)), y.scale(0),
                   burnside_product(x, y), burnside_product(y, y)]
        for result in results:
            assert result == BurnsideElement(G, result.coeffs)
            assert all(lat.rep_of(L) is L and c != 0 for L, c in result.coeffs.items())
        assert results[3].coeffs == {}


class TestGluckYoshida:
    def test_c2_top(self):
        G = cyclic(2)
        e = gluck_yoshida(G, G.full_subgroup())
        expected = transitive(G, G.full_subgroup()) \
            - transitive(G, G.trivial_subgroup()).scale(Fraction(1, 2))
        assert e == expected

    def test_trivial_subgroup(self):
        G = symmetric(3)
        e = gluck_yoshida(G, G.trivial_subgroup())
        assert e == transitive(G, G.trivial_subgroup()).scale(Fraction(1, 6))

    def test_c3_top(self):
        G = cyclic(3)
        e = gluck_yoshida(G, G.full_subgroup())
        expected = transitive(G, G.full_subgroup()) \
            - transitive(G, G.trivial_subgroup()).scale(Fraction(1, 3))
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
        x = transitive(G, sylow(G, 3)) + transitive(G, G.trivial_subgroup())
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
        y = fixed_point_functor(G.full_subgroup(), transitive(G, G.trivial_subgroup()))
        assert y == BurnsideElement.zero(y.group)


class TestLinearize:
    def test_point_maps_to_trivial_generator(self):
        G = symmetric(3)
        x = linearize(transitive(G, G.full_subgroup()), 2)
        (gen, coeff), = x.terms.items()
        assert gen.subgroup.order == 6
        assert gen.character.is_trivial()
        assert coeff.is_one()

    def test_gluck_yoshida_image(self):
        G = cyclic(2)
        x = linearize(gluck_yoshida(G, G.full_subgroup()), 2)
        coeffs = {gen.subgroup.order: coeff for gen, coeff in x.terms.items()}
        assert coeffs[2].is_one()
        assert coeffs[1].as_rational() == Fraction(-1, 2)

    def test_transitive_set_maps_to_trivial_character_generator(self):
        G = symmetric(3)
        x = linearize(transitive(G, sylow(G, 3)), 3)
        (gen, coeff), = x.terms.items()
        assert gen.subgroup.order == 3
        assert gen.character.is_trivial()
        assert coeff.is_one()


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
            HH = promote(H)
            for S in subgroup_lattice(HH).class_reps():
                y = transitive(HH, S)
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
            ex = gluck_yoshida(G, G.full_subgroup())
            for N in lat.subgroups:
                if not N.is_normal():
                    continue
                lhs = fixed_point_functor(N, ex)
                NN = promote(normalizer(G, N))
                Q = quotient(NN, N.reparent(NN))
                rhs = gluck_yoshida(Q.group, Q.group.full_subgroup())
                assert lhs == rhs
