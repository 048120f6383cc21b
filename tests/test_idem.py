from fractions import Fraction

import pytest

from ppring.cyclo import Cyclotomic, zeta_power
from ppring.grp import (Permutation, cyclic, dihedral, from_indices, symmetric,
                        sylow)
from ppring.idem import (NotCyclic, NotPPrime, ShapeMismatch, _fused_terms,
                         _is_orbit_indicator, _restriction_law,
                         cyclic_idempotent, idempotent_normal_case,
                         idempotent_report, idempotent_theorem,
                         idempotent_via_reduction, partition_of_unity, top_E,
                         verify_E_decomposition, verify_induction)
from ppring.lattice import subgroup_lattice
from ppring.ppelem import PPElement, default_conductor, tensor_elt
from ppring.species import (build_pair, canonical_pair, enumerate_pairs,
                            equal_elements, species_vector, tau_element)
from test_grp import closure, members


def restriction_law(G, p, H, pair):
    """The restriction law that identity_suite checks, for one subgroup H
    and one pair."""
    n = default_conductor(G, p)
    return _restriction_law(G, p, H, pair, _fused_terms(G, p, H, n), n)


class TestCyclicIdempotent:
    def test_trivial_group(self):
        C = cyclic(1)
        x = cyclic_idempotent(C, 0, 2, 1)  # index 0 is the identity
        (gen, coeff), = x.terms.items()
        assert coeff == 1 and gen.subgroup.order == 1

    def test_c2_at_p3(self):
        C = cyclic(2)
        sigma = C.orders.index(2)
        x = cyclic_idempotent(C, sigma, 3, 2)
        by_char = {gen.exps: coeff for gen, coeff in x.terms.items()}
        assert by_char[(0, 0)] == Fraction(1, 2)
        assert by_char[(0, 1)] == Fraction(-1, 2)

    def test_c3_at_p2(self):
        C = cyclic(3)
        s = C.orders.index(3)
        x = cyclic_idempotent(C, s, 2, 3)
        # each character lives on the whole of C, so its table is indexed by element
        gen_exp = {gen.exps[s]: coeff for gen, coeff in x.terms.items()}
        third = Fraction(1, 3)
        assert gen_exp[0] == Cyclotomic.from_rational(3, third)
        assert gen_exp[1] == zeta_power(3, 2) * third
        assert gen_exp[2] == zeta_power(3, 1) * third

    def test_rejects_p_divisible_order(self):
        C = cyclic(2)
        with pytest.raises(NotPPrime):
            cyclic_idempotent(C, 0, 2, 1)

    def test_rejects_non_cyclic(self):
        from ppring.grp import klein_four
        V = klein_four()
        with pytest.raises(NotCyclic):
            cyclic_idempotent(V, 0, 3, 2)

    def test_rejects_conductor_divisible_by_p(self):
        C = cyclic(3)
        with pytest.raises(ValueError):
            cyclic_idempotent(C, 0, 2, 6)
        with pytest.raises(ValueError):
            idempotent_theorem(C, 2, enumerate_pairs(C, 2)[0], 6)


class TestTopE:
    def test_c2(self):
        G = cyclic(2)
        E = top_E(G, 2)
        coeffs = {gen.subgroup.order: coeff for gen, coeff in E.terms.items()}
        assert coeffs[2] == 1
        assert coeffs[1] == Fraction(-1, 2)

    def test_trivial_group(self):
        G = cyclic(1)
        E = top_E(G, 2)
        assert equal_elements(E, PPElement.one(G, 2, 1))

    def test_c3(self):
        G = cyclic(3)
        E = top_E(G, 2)
        coeffs = {gen.subgroup.order: coeff for gen, coeff in E.terms.items()}
        assert coeffs[3] == 1
        assert coeffs[1] == Fraction(-1, 3)


class TestNormalCase:
    def test_c2_is_top_e(self):
        G = cyclic(2)
        x = idempotent_normal_case(G, 0, 2)
        assert equal_elements(x, top_E(G, 2))

    def test_c3_is_cyclic_idempotent(self):
        G = cyclic(3)
        s = G.orders.index(3)
        x = idempotent_normal_case(G, s, 2)
        assert equal_elements(x, cyclic_idempotent(G, s, 2, 3))

    def test_trivial_group(self):
        G = cyclic(1)
        assert equal_elements(idempotent_normal_case(G, 0, 2),
                              PPElement.one(G, 2, 1))

    def test_rejects_non_normal_sylow(self):
        G = symmetric(3)
        with pytest.raises(ShapeMismatch):
            idempotent_normal_case(G, 0, 2)


class TestTheoremFormula:
    def test_c2_sylow_pair(self):
        G = cyclic(2)
        pair = enumerate_pairs(G, 2)[1]
        F = idempotent_theorem(G, 2, pair)
        coeffs = {gen.subgroup.order: coeff for gen, coeff in F.terms.items()}
        assert coeffs[2] == 1
        assert coeffs[1] == Fraction(-1, 2)
        assert list(species_vector(F).values) == [0, 1]

    def test_c2_trivial_pair(self):
        G = cyclic(2)
        pair = enumerate_pairs(G, 2)[0]
        F = idempotent_theorem(G, 2, pair)
        (gen, coeff), = F.terms.items()
        assert gen.subgroup.order == 1
        assert coeff == Fraction(1, 2)
        assert list(species_vector(F).values) == [1, 0]

    @pytest.mark.parametrize("build,p", [
        (lambda: symmetric(3), 3), (lambda: dihedral(8), 2), (lambda: cyclic(6), 2),
    ])
    def test_value_one_at_trivial_pair_for_trivial_species(self, build, p):
        # the trivial pair (1, 1) always carries species value 1 on its idempotent
        G = build()
        pair = enumerate_pairs(G, p)[0]
        assert pair.P.order == 1 and pair.s_order == 1
        F = idempotent_theorem(G, p, pair)
        assert tau_element(pair, F) == 1


class TestReductionRoute:
    def test_coefficient_for_s3_sylow_pair(self):
        G = symmetric(3)
        p = 3
        pair = next(q for q in enumerate_pairs(G, p)
                    if q.P.order == 3 and q.s_order == 1)
        # |s| = 1 and the centralizer of 1 in the order-2 quotient has order 2
        assert Fraction(pair.s_order, pair.centralizer_order) == Fraction(1, 2)
        assert equal_elements(idempotent_via_reduction(G, p, pair),
                              idempotent_theorem(G, p, pair))

    def test_routes_agree_on_varied_groups(self):
        for G, p in [(dihedral(12), 2), (symmetric(3), 2), (cyclic(6), 3)]:
            for pair in enumerate_pairs(G, p):
                assert equal_elements(idempotent_theorem(G, p, pair),
                                      idempotent_via_reduction(G, p, pair))


class TestDeltaAndPartition:
    @pytest.mark.parametrize("build,p", [
        (lambda: symmetric(3), 2), (lambda: symmetric(3), 3),
        (lambda: dihedral(8), 2), (lambda: cyclic(6), 2),
    ])
    def test_delta_property(self, build, p):
        G = build()
        for pair in enumerate_pairs(G, p):
            assert idempotent_report(G, p, pair).delta_ok

    def test_partition_of_unity(self):
        assert partition_of_unity(symmetric(3), 3)
        assert partition_of_unity(dihedral(8), 2)

    def test_orthogonality(self):
        G = symmetric(3)
        p = 3
        pairs = enumerate_pairs(G, p)
        idems = [idempotent_theorem(G, p, q) for q in pairs]
        for i, a in enumerate(idems):
            for j, b in enumerate(idems):
                prod = tensor_elt(a, b)
                vec = species_vector(prod)
                for q, v in vec:
                    expected = 1 if (q == pairs[i] and i == j) else 0
                    assert v == Cyclotomic.from_rational(a.conductor, expected)

    def test_triangularity(self):
        # species vanish unless the pair's p-part is subconjugate to the
        # idempotent's p-part
        G = dihedral(8)
        p = 2
        pairs = enumerate_pairs(G, p)
        for q in pairs:
            F = idempotent_theorem(G, p, q)
            for r, v in species_vector(F):
                subconj = any(all(G.conj[g][x] in q.P for x in r.P.indices)
                              for g in G.indices)
                if not subconj:
                    assert v.is_zero()


class TestRestrictionLaw:
    def test_h_equals_g(self):
        G = symmetric(3)
        p = 3
        for q in enumerate_pairs(G, p):
            assert restriction_law(G, p, G, q)

    def test_transposition_pair_restricts_to_zero_on_c3(self):
        G = symmetric(3)
        p = 3
        pair = enumerate_pairs(G, p)[1]  # (1, transposition)
        H = sylow(G, 3)
        from ppring.ppelem import res_elt
        F = idempotent_theorem(G, p, pair)
        restricted = res_elt(F, H)
        assert all(v.is_zero() for v in species_vector(restricted).values)
        assert restriction_law(G, p, H, pair)

    def test_c2_to_trivial(self):
        G = cyclic(2)
        pair = enumerate_pairs(G, 2)[1]
        from ppring.ppelem import res_elt
        F = idempotent_theorem(G, 2, pair)
        restricted = res_elt(F, G.trivial_subgroup())
        assert all(v.is_zero() for v in species_vector(restricted).values)
        assert restriction_law(G, 2, G.trivial_subgroup(), pair)


class TestInductionLaw:
    def test_h_equals_g_coefficient_one(self):
        G = symmetric(3)
        p = 3
        H = G
        for q in enumerate_pairs(G, p):
            assert verify_induction(G, p, H, q)

    def test_s3_from_c3_coefficient_two(self):
        G = symmetric(3)
        p = 3
        H = sylow(G, 3)
        hpair = next(q for q in enumerate_pairs(H, p) if q.P.order == 3)
        as_g = build_pair(G, p, hpair.P, hpair.lift)
        assert as_g.stabilizer.order == 6
        assert len(frozenset(members(as_g.stabilizer)) & frozenset(members(H))) == 3
        assert verify_induction(G, p, H, hpair)

    def test_s3_from_transposition_subgroup(self):
        G = symmetric(3)
        p = 3
        H = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        hpair = next(q for q in enumerate_pairs(H, p) if q.s_order == 2)
        as_g = build_pair(G, p, hpair.P, hpair.lift)
        assert Fraction(as_g.stabilizer.order,
                        len(frozenset(members(as_g.stabilizer)) & frozenset(members(H)))) == 1
        assert verify_induction(G, p, H, hpair)


def conjugate_pair(pair, g):
    """The pair moved by conjugation with the element of index g."""
    G = pair.group
    row = G.conj[g]
    P = from_indices(G, sorted(row[x] for x in pair.P.indices))
    return build_pair(G, pair.p, P, row[pair.lift])


def non_canonical_conjugates(G, p):
    """One conjugate of each canonical pair that is not itself canonical,
    where the class has one."""
    pairs = enumerate_pairs(G, p)
    out = []
    for q in pairs:
        moved = (conjugate_pair(q, g) for g in G.indices)
        other = next((r for r in moved if r not in pairs), None)
        if other is not None:
            out.append(other)
    return out


@pytest.mark.parametrize("build, p", [(lambda: symmetric(4), 2), (lambda: symmetric(4), 3),
                                      (lambda: dihedral(8), 2)],
                         ids=["S4-p2", "S4-p3", "D8-p2"])
def test_laws_hold_at_non_canonical_pairs(build, p):
    """Both laws read the fusion of canonical pairs; a pair given as another
    member of its class is first brought to its canonical one."""
    G = build()
    moved = non_canonical_conjugates(G, p)
    assert moved
    pairs = enumerate_pairs(G, p)
    for q in moved:
        assert _is_orbit_indicator(q, species_vector(idempotent_theorem(G, p, q)))
        assert any(canonical_pair(G, p, q.P, q.lift) is r for r in pairs)
    seen_hpairs = 0
    for H in subgroup_lattice(G).class_reps():
        for q in moved:
            assert restriction_law(G, p, H, q)
        for hq in non_canonical_conjugates(H, p):
            seen_hpairs += 1
            assert verify_induction(G, p, H, hq)
    assert seen_hpairs


def test_build_pair_returns_one_object_per_pair():
    """Pairs compare by identity: an equal P built separately gives back the
    canonical pair itself."""
    G = symmetric(4)
    for q in enumerate_pairs(G, 2):
        P = from_indices(G, list(q.P.indices))
        assert build_pair(G, 2, P, q.lift) is q


class TestEDecomposition:
    def test_c2_p2(self):
        assert verify_E_decomposition(cyclic(2), 2)

    def test_c3_p2(self):
        assert verify_E_decomposition(cyclic(3), 2)

    def test_c6_p2(self):
        assert verify_E_decomposition(cyclic(6), 2)

    def test_trivial(self):
        assert verify_E_decomposition(cyclic(1), 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            verify_E_decomposition(symmetric(3), 2)

    def test_rejects_a_promoted_group_whose_root_is_cyclic_enough(self):
        """V4 in S4 at p = 3 has trivial Sylow subgroup, so its quotient is
        V4 itself, which is not cyclic although S4 has an element
        of order 4."""
        G = symmetric(4)
        V = next(H for H in subgroup_lattice(G).subgroups
                 if H.order == 4 and H.is_normal_in(G))
        with pytest.raises(ShapeMismatch):
            verify_E_decomposition(V, 3)


class TestReport:
    def test_report_fields(self):
        G = cyclic(2)
        q = enumerate_pairs(G, 2)[1]
        rep = idempotent_report(G, 2, q)
        assert rep.delta_ok and rep.routes_agree
        assert [v for _, v in rep.species] == [1 if pair is q else 0 for pair in rep.species.pairs]
        vec = species_vector(rep.element)
        assert (rep.species.pairs, rep.species.values) == (vec.pairs, vec.values)
