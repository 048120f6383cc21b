import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppring import ppelem
from ppring.cyclo import Cyclotomic, zeta_power
from ppring.grp import (Permutation, alternating, cyclic, dihedral,
                        direct_product, is_p_power, normalizer,
                        normalizer_quotient, quotient, symmetric,
                        sylow)
from ppring.lattice import subgroup_lattice
from ppring.ppelem import (Generator, GroupMismatch, NotPGroup, PPElement,
                           brauer_elt, check_homomorphism, collect, default_conductor,
                           ind_elt, inf_elt, linear_characters, make_generator,
                           res_elt, tensor_elt)
from ppring.species import (enumerate_pairs, equal_elements, standard_generators,
                            tau_element)
from ppring.cli import parse_group_spec
from test_grp import KERNEL_GROUPS, closure, conj, inverse


def gen_of(G, p, sub_elems, exps=None, n=None):
    n = default_conductor(G, p) if n is None else n
    L = closure(G, sub_elems)
    if exps is None:
        chi = (0,) * L.order
    else:
        chi = [exps[x] for x in L.elements]
        check_homomorphism(L, chi, n)
    return make_generator(G, L, chi, n)


def exps(L, chi):
    """The exponent tuple of a character of L keyed by the elements of L."""
    return dict(zip(L.elements, chi))


def single(G, p, gen):
    return PPElement.from_generator(p, gen)


def reference_make_generator(group, subgroup, chi, n):
    """Permutation-level canonical form: conjugate by every g and keep the
    minimal (image tuples of the sorted elements, exponents aligned to them)."""
    best = best_key = None
    for g in group.elements:
        gi = inverse(g)
        moved = {gi * x * g: e % n for x, e in exps(subgroup, chi).items()}
        sub = closure(group, moved.keys())
        key = (tuple(x.images for x in sub.elements), tuple(moved[x] for x in sub.elements))
        if best_key is None or key < best_key:
            best_key, best = key, (sub, moved)
    sub, moved = best
    return Generator(group, sub, tuple(moved[x] for x in sub.elements), n)


def reference_tensor(G, genx, geny):
    """Permutation-level Mackey product of two generators as terms: one
    Ind_{A cap gBg^-1}(alpha . beta^g) per double coset AgB, where
    beta^g(x) = beta(g^-1 x g)."""
    A, B = genx.subgroup, geny.subgroup
    alpha, beta = exps(A, genx.exps), exps(B, geny.exps)
    n = genx.conductor
    covered = set()
    counts = {}
    for g in G.elements:
        if g in covered:
            continue
        covered |= {a * g * b for a in A.elements for b in B.elements}
        inter = closure(G, [x for x in A.elements if conj(x, g) in beta])
        chi = [alpha[x] + beta[conj(x, g)] for x in inter.elements]
        check_homomorphism(inter, chi, n)
        gen = make_generator(G, inter, chi, n)
        counts[gen] = counts.get(gen, 0) + 1
    return {gen: Cyclotomic.from_rational(n, m) for gen, m in counts.items()}


class TestLinChar:
    """Linear characters as exponent tuples aligned with the indices of
    their domain."""

    def test_homomorphism_enforced(self):
        L = cyclic(2)
        check_homomorphism(L, (0, 1), 2)
        check_homomorphism(L, (2, 3), 2)  # read mod n
        with pytest.raises(ValueError):
            check_homomorphism(L, (1, 0), 2)  # chi(1) = -1

    def test_table_length_must_match_the_domain(self):
        G = symmetric(3)
        L = next(H for H in subgroup_lattice(G).subgroups if H.order == 2)
        for table in ([0, 1, 1], [0]):
            with pytest.raises(ValueError, match="exponents for a domain of order 2"):
                make_generator(G, L, table, 2)
            with pytest.raises(ValueError, match="exponents for a domain of order 2"):
                check_homomorphism(L, table, 2)

    def test_p_elements_killed_automatically(self):
        # a homomorphism into mu_n with n odd must kill elements of order 2
        G = cyclic(6)
        chars = linear_characters(G, 3)
        assert len(chars) == 3
        invol = G.elements[G.orders.index(2)]
        assert all(exps(G, chi)[invol] == 0 for chi in chars)

    def test_character_counts(self):
        assert len(linear_characters(cyclic(6), 6)) == 6
        assert len(linear_characters(symmetric(3), 6)) == 2
        assert len(linear_characters(quernion_free_a4(), 6)) == 3

    def test_table_round_trip_on_s4(self):
        G = symmetric(4)
        count = 0
        for L in subgroup_lattice(G).subgroups:
            chars = linear_characters(L, 3)
            assert list(chars) == sorted(chars)
            for chi in chars:
                mapping = exps(L, chi)
                built = tuple(mapping[x] for x in L.elements)
                check_homomorphism(L, built, 3)
                assert built == chi
                assert all(0 <= e < 3 for e in chi)
                gen = make_generator(G, L, chi, 3)
                assert make_generator(G, L, [e + 3 for e in chi], 3) is gen
                count += 1
        assert count > len(subgroup_lattice(G).subgroups)  # some are nontrivial


def quernion_free_a4():
    return alternating(4)


class TestCharPullback:
    """The discrete logs of ``_pullback_log``, from which the characters of
    H/P are pulled back to H."""

    def test_trivial_index(self):
        G = cyclic(6)
        P = sylow(G, 2)
        s = G.orders.index(3)
        a, r = ppelem._pullback_log(G, P, s)
        assert r == 3
        assert [x for x in G.indices if a[x] == 0] == list(P.indices)

    def test_identity_pullback_on_c3(self):
        G = cyclic(3)
        P = G.trivial_subgroup()
        s = G.orders.index(3)
        a, r = ppelem._pullback_log(G, P, s)
        assert a[s] == 1  # s maps to zeta_3

    def test_c6_mod_c2(self):
        G = cyclic(6)
        P = sylow(G, 2)
        s = G.orders.index(3)
        a, _ = ppelem._pullback_log(G, P, s)
        invol = G.orders.index(2)
        assert a[invol] == 0  # kills the involution
        assert sorted(a.values()) == [0, 0, 1, 1, 2, 2]


class TestRestriction:
    def test_full_group_is_identity(self):
        G = symmetric(3)
        x = single(G, 3, gen_of(G, 3, [Permutation.from_cycles(3, [(0, 1, 2)])]))
        assert equal_elements(res_elt(x, G), x)

    def test_regular_module_to_trivial_subgroup(self):
        G = cyclic(2)
        x = single(G, 2, gen_of(G, 2, []))
        y = res_elt(x, G.trivial_subgroup())
        (gen, coeff), = y.terms.items()
        assert coeff == Cyclotomic.from_rational(1, 2)
        assert gen.subgroup.order == 1

    def test_s3_transversal_module_to_c3(self):
        G = symmetric(3)
        x = single(G, 3, gen_of(G, 3, [Permutation.from_cycles(3, [(0, 1)])]))
        y = res_elt(x, sylow(G, 3))
        (gen, coeff), = y.terms.items()
        assert gen.subgroup.order == 1
        assert coeff == Cyclotomic.one(2)

    def test_to_trivial_subgroup_multiplicity_is_the_index(self):
        # the |G:L| double cosets 1\G/L all give the same generator over 1
        for G, p in [(symmetric(4), 2), (alternating(5), 2)]:
            n = default_conductor(G, p)
            T = G.trivial_subgroup()
            for L in subgroup_lattice(G).class_reps():
                for chi in linear_characters(L, n):
                    x = single(G, p, make_generator(G, L, chi, n))
                    for clear in (False, True):
                        if clear:
                            ppelem._res_gen.cache_clear()
                        (gen, coeff), = res_elt(x, T).terms.items()
                        assert gen.subgroup.order == 1
                        assert coeff == Cyclotomic.from_rational(n, G.order // L.order)

    def test_dimension_preserved(self):
        G = symmetric(4)
        p = 2
        n = default_conductor(G, p)
        x = single(G, p, gen_of(G, p, [Permutation.from_cycles(4, [(0, 1, 2)])]))
        H = sylow(G, 2)
        y = res_elt(x, H)
        dim_x = tau_element(enumerate_pairs(G, p)[0], x)
        dim_y = tau_element(enumerate_pairs(H, p)[0], y)
        assert dim_x == dim_y


class TestInduction:
    def test_induction_relabels(self):
        G = symmetric(3)
        C3 = sylow(G, 3)
        chars = linear_characters(C3, 2)
        x = PPElement.from_generator(3, make_generator(C3, C3, chars[0], 2))
        y = ind_elt(x, G)
        assert y.group == G
        (gen, coeff), = y.terms.items()
        assert gen.subgroup.order == 3
        assert coeff == 1

    def test_transitivity(self):
        G = symmetric(4)
        p = 2
        H = closure(G, [Permutation.from_cycles(4, [(0, 1, 2)]),
                        Permutation.from_cycles(4, [(0, 1)])])
        K = closure(G, [Permutation.from_cycles(4, [(0, 1, 2)])])
        n = default_conductor(G, p)
        chi = linear_characters(K, n)[1]
        x = PPElement.from_generator(p, make_generator(K, K, chi, n))
        via_h = ind_elt(ind_elt(x, H), G)
        direct = ind_elt(x, G)
        assert via_h.terms == direct.terms

    def test_dimension_multiplies_by_index(self):
        G = symmetric(3)
        p = 2
        H = sylow(G, 3)
        x = PPElement.one(H, p, default_conductor(G, p))
        y = ind_elt(x, G)
        dim = tau_element(enumerate_pairs(G, p)[0], y)
        assert dim == Cyclotomic.from_rational(default_conductor(G, p), 2)


class TestInflation:
    def test_trivial_kernel_is_isomorphism_transport(self):
        G = cyclic(3)
        Q = quotient(G, G.trivial_subgroup())
        x = PPElement.one(Q.group, 2, 3)
        y = inf_elt(x, Q)
        assert equal_elements(y, PPElement.one(G, 2, 3))

    def test_inflate_faithful_character_to_c6(self):
        G = cyclic(6)
        P = sylow(G, 2)
        Q = quotient(G, P)
        chi = next(c for c in linear_characters(Q.group, 3) if any(c))
        x = PPElement.from_generator(
            2, make_generator(Q.group, Q.group, chi, 3))
        y = inf_elt(x, Q)
        (gen, _), = y.terms.items()
        assert gen.subgroup.order == 6
        assert any(gen.exps)
        assert all(exps(gen.subgroup, gen.exps)[u] == 0 for u in P.elements)

    def test_trivial_generator_inflates_to_trivial(self):
        G = symmetric(3)
        Q = quotient(G, sylow(G, 3))
        x = PPElement.one(Q.group, 3, 2)
        assert equal_elements(inf_elt(x, Q), PPElement.one(G, 3, 2))


class TestTensor:
    def test_one_is_identity(self):
        G = dihedral(8)
        p = 2
        x = single(G, p, gen_of(G, p, [G.elements[1]]))
        assert equal_elements(tensor_elt(PPElement.one(G, p, 1), x), x)

    def test_regular_squared_over_c2(self):
        G = cyclic(2)
        x = single(G, 2, gen_of(G, 2, []))
        y = tensor_elt(x, x)
        (gen, coeff), = y.terms.items()
        assert gen.subgroup.order == 1
        assert coeff == Cyclotomic.from_rational(1, 2)

    def test_characters_multiply_on_c3(self):
        G = cyclic(3)
        chars = linear_characters(G, 3)
        xs = [PPElement.from_generator(2, make_generator(G, G, c, 3))
              for c in chars]
        prod = tensor_elt(xs[1], xs[2])
        (gen, coeff), = prod.terms.items()
        assert coeff == 1
        assert gen.exps == tuple((a + b) % 3 for a, b in zip(chars[1], chars[2]))

    @pytest.mark.parametrize("build,p", [(lambda: symmetric(4), 2),
                                         (lambda: alternating(5), 2)],
                             ids=["S4-p2", "A5-p2"])
    def test_terms_match_double_coset_reference(self, build, p):
        """The terms themselves, not only their species, agree with the
        Mackey product taken over double cosets of permutations, on pairs
        with a nontrivial character (A5 at conductor 15)."""
        G = build()
        gens = standard_generators(G, p, default_conductor(G, p))
        twisted = [gen for gen in gens if any(gen.exps)]
        assert twisted
        for genx in twisted:
            for geny in gens:
                got = tensor_elt(single(G, p, genx), single(G, p, geny))
                assert got.terms == reference_tensor(G, genx, geny)

    def test_dimension_multiplies(self):
        G = symmetric(3)
        p = 3
        x = single(G, p, gen_of(G, p, [Permutation.from_cycles(3, [(0, 1)])]))
        y = single(G, p, gen_of(G, p, [Permutation.from_cycles(3, [(0, 1, 2)])]))
        dim_pair = enumerate_pairs(G, p)[0]
        dx = tau_element(dim_pair, x)
        dy = tau_element(dim_pair, y)
        dxy = tau_element(dim_pair, tensor_elt(x, y))
        assert dxy == dx * dy == 6


class TestBrauer:
    def test_trivial_subgroup_unchanged(self):
        G = symmetric(3)
        x = single(G, 3, gen_of(G, 3, [Permutation.from_cycles(3, [(0, 1)])]))
        assert brauer_elt(x, G.trivial_subgroup()) is x

    def test_regular_c2_dies_at_c2(self):
        G = cyclic(2)
        x = single(G, 2, gen_of(G, 2, []))
        y = brauer_elt(x, G)
        assert not y.terms

    def test_s3_at_sylow3_gives_regular_quotient_module(self):
        G = symmetric(3)
        P = sylow(G, 3)
        x = single(G, 3, gen_of(G, 3, list(P.elements)))
        y = brauer_elt(x, P)
        assert y.group.order == 2
        (gen, coeff), = y.terms.items()
        assert gen.subgroup.order == 1  # the regular module of the quotient
        assert coeff == 1

    def test_rejects_non_p_subgroup(self):
        G = symmetric(3)
        with pytest.raises(NotPGroup):
            brauer_elt(single(G, 2, gen_of(G, 2, [])), sylow(G, 3))

    def test_matches_fixed_point_functor_on_transitive_sets(self):
        from ppring.burnside import fixed_point_functor, linearize, transitive
        G = symmetric(3)
        p = 3
        n = default_conductor(G, p)
        P = sylow(G, p)
        lat = subgroup_lattice(G)
        for L in lat.class_reps():
            lhs = linearize(fixed_point_functor(P, transitive(G, L)), p, n)
            rhs = brauer_elt(linearize(transitive(G, L), p, n), P)
            assert equal_elements(lhs, rhs)


class TestMackeyCoherence:
    def test_res_ind_matches_manual_double_coset_expansion(self):
        from ppring.grp import double_coset_reps
        G = symmetric(4)
        p = 2
        n = default_conductor(G, p)
        H = closure(G, [Permutation.from_cycles(4, [(0, 1, 2)]),
                        Permutation.from_cycles(4, [(0, 1)])])
        K = sylow(G, 2)
        C3 = closure(H, [Permutation.from_cycles(4, [(0, 1, 2)])])
        gen = make_generator(H, C3, linear_characters(C3, n)[1], n)
        x = PPElement.from_generator(p, gen)
        got = res_elt(ind_elt(x, G), K)

        # independent expansion straight from the double-coset formula
        L = gen.subgroup
        parts = []
        for g in (G.elements[i] for i, _ in double_coset_reps(G, K, L)):
            gi = inverse(g)
            inter = closure(K, frozenset(K.elements) & {conj(y, gi) for y in L.elements})
            chi2 = [exps(L, gen.exps)[conj(u, g)] for u in inter.elements]
            check_homomorphism(inter, chi2, n)
            parts.append((make_generator(K, inter, chi2, n), Cyclotomic.one(n), 1))
        assert equal_elements(got, collect(K, p, n, parts))

    def test_each_expansion_matches_the_permutation_double_cosets(self):
        """Every generator's restriction, read through the Mackey skeleton
        that all characters of its subgroup share, has one term per double
        coset H g L found by multiplying permutations, over H cap gLg^-1 with
        x -> chi(g^-1 x g)."""
        G = symmetric(4)
        p = 3
        n = default_conductor(G, p)
        for H in subgroup_lattice(G).class_reps():
            for gen in standard_generators(G, p, n):
                L, chi = gen.subgroup, exps(gen.subgroup, gen.exps)
                expected = {}
                covered = set()
                for g in G.elements:
                    if g in covered:
                        continue
                    covered |= {h * g * l for h in H.elements for l in L.elements}
                    meet = closure(H, [x for x in H.elements if conj(x, g) in chi])
                    term = reference_make_generator(
                        H, meet, [chi[conj(x, g)] for x in meet.elements], n)
                    key = (term.subgroup.indices, term.exps)
                    expected[key] = expected.get(key, 0) + 1
                got = {(new.subgroup.indices, new.exps): m
                       for new, m in ppelem._res_gen(gen, H)}
                assert got == expected


class TestResInfComposite:
    @pytest.mark.parametrize("p,build", [(2, lambda: dihedral(8)),
                                         (2, lambda: cyclic(6)),
                                         (3, lambda: symmetric(3))])
    def test_res_inf_equals_inf_iso_res(self, p, build):
        H = build()
        P = sylow(H, p)
        if not P.is_normal_in(H) or P.order == 1:
            pytest.skip("needs a nontrivial normal p-subgroup")
        n = default_conductor(H, p)
        Q = quotient(H, P)
        index = {x: i for i, x in enumerate(H.elements)}

        def project(x):
            return Q.group.elements[Q.proj[index[x]]]

        lat = subgroup_lattice(H)
        for chi in linear_characters(Q.group, n):
            x = PPElement.from_generator(
                p, make_generator(Q.group, Q.group, chi, n))
            for L in lat.class_reps():
                lhs = res_elt(inf_elt(x, Q), L)
                # pull back along L -> LP/P directly
                LPbar = Q.project_subgroup(L)
                z = res_elt(x, LPbar)
                parts = []
                for gen, coeff in z.terms.items():
                    pre = closure(L, [l for l in L.elements
                                       if project(l) in gen.subgroup.elements])
                    chi2 = [exps(gen.subgroup, gen.exps)[project(l)] for l in pre.elements]
                    parts.append((make_generator(L, pre, chi2, n), coeff, 1))
                assert equal_elements(lhs, collect(L, p, n, parts))


class TestCanonicalForm:
    @pytest.mark.parametrize("build,n", [
        (lambda: symmetric(4), 3),
        (lambda: direct_product(dihedral(8), cyclic(2)), 1),
        (lambda: direct_product(dihedral(8), cyclic(2)), 4),
        # A5 at conductor 15 has conjugates whose sorted (index, exponent)
        # pairs order differently from (indices, exponents): the two tuples
        # must be compared one after the other
        (lambda: alternating(5), 15),
    ])
    def test_table_version_matches_permutation_reference(self, build, n):
        G = build()
        checked = 0
        for L in subgroup_lattice(G).subgroups:
            for chi in linear_characters(L, n):
                ref = reference_make_generator(G, L, chi, n)
                got = make_generator(G, L, chi, n)
                assert (got.group, got.subgroup, got.exps, got.conductor) == \
                    (ref.group, ref.subgroup, ref.exps, ref.conductor)
                checked += 1
        assert checked >= len(subgroup_lattice(G).subgroups)

    # forms: the classes of (subgroup, character) pairs, counted by hand as the
    # N_G(L)-orbits on the characters of each class representative L
    @pytest.mark.parametrize("build,n,forms", [(lambda: symmetric(4), 3, 13),
                                               (lambda: alternating(5), 15, 14)])
    def test_one_object_per_canonical_form(self, build, n, forms):
        G = build()
        for cls in subgroup_lattice(G).conjugacy_classes():
            made = {}  # canonical form -> the first generator made with it
            for L in cls:
                for chi in linear_characters(L, n):
                    gen = make_generator(G, L, chi, n)
                    form = (gen.subgroup.indices, gen.exps)
                    assert made.setdefault(form, gen) is gen
            forms -= len(made)
        assert forms == 0

    def test_refuses_a_subgroup_of_another_root(self):
        """A subgroup of C4 with the very indices of a C2 of S3 does not live
        in S3."""
        G = symmetric(3)
        C2 = closure(G, [Permutation.from_cycles(3, [(0, 1)])])
        foreign = next(H for H in subgroup_lattice(cyclic(4)).subgroups
                       if H.indices == C2.indices)
        make_generator(G, C2, (0, 1), 2)
        with pytest.raises(GroupMismatch):
            make_generator(G, foreign, (0, 1), 2)


def minimum_over_every_conjugate(group, subgroup, chi):
    """(indices, exponents) of the least conjugate of (subgroup, chi) by any
    element of the group, from the conjugation table: the sorted conjugated
    indices, then the exponents aligned to them."""
    best = None
    for g in group.indices:
        row = group.conj[g]
        exp_of = {row[x]: e for x, e in zip(subgroup.indices, chi)}
        sub = tuple(sorted(exp_of))
        key = (sub, tuple(exp_of[x] for x in sub))
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("name", KERNEL_GROUPS)
def test_canonical_is_the_minimum_over_every_conjugate(name):
    """Seeded draws of (H, L, chi), H any subgroup and L <= H, the trivial
    character always among them: the generator over H is the least
    conjugate under all of H, whether H is a root or reads its lattice off
    its root's."""
    G = parse_group_spec(name)
    n = G.exponent()
    rng = random.Random(0)
    seen_nonabelian = seen_nontrivial = False
    for H in [G] + rng.sample(subgroup_lattice(G).subgroups, 6):
        below = subgroup_lattice(H).subgroups
        for L in rng.sample(below, min(8, len(below))):
            chars = linear_characters(L, n)
            for chi in dict.fromkeys([chars[0], rng.choice(chars)]):
                gen = make_generator(H, L, chi, n)
                assert (gen.subgroup.indices, gen.exps) == minimum_over_every_conjugate(H, L, chi)
                seen_nontrivial = seen_nontrivial or any(chi)
            table = L.table
            seen_nonabelian = seen_nonabelian or any(
                table[a][b] != table[b][a] for a in L.indices for b in L.indices)
    assert seen_nontrivial and seen_nonabelian


class TestPPElementPlumbing:
    def test_zero_coefficients_dropped(self):
        G = cyclic(2)
        gen = gen_of(G, 2, [])
        x = PPElement(G, 2, 1, {gen: Cyclotomic.zero(1)})
        assert not x.terms

    def test_mismatched_groups_rejected(self):
        a = PPElement.one(cyclic(2), 2, 1)
        b = PPElement.one(cyclic(3), 2, 3)
        with pytest.raises(GroupMismatch):
            equal_elements(a, b)
        with pytest.raises(GroupMismatch):
            tensor_elt(a, b)

    def test_json_shape(self):
        G = cyclic(2)
        x = PPElement.one(G, 2, 1)
        (entry,) = x.to_json()
        assert set(entry) == {"subgroup", "character", "coeff"}
        assert entry["coeff"] == {"conductor": 1, "coeffs": ["1"]}


# ---------------------------------------------------------------------------
# reduce-late accumulation against the term-by-term Cyclotomic sum
#
# The references are the calculus as it was before each output coefficient
# was accumulated over one denominator: one Cyclotomic addition per term.


def term_sum(n, parts):
    """Sum of (generator, Cyclotomic) parts, one addition at a time, zero
    coefficients dropped."""
    out = {}
    for gen, c in parts:
        out[gen] = out.get(gen, Cyclotomic.zero(n)) + c
    return {gen: c for gen, c in out.items() if not c.is_zero()}


def parts(z, m):
    """The terms of z as ``collect`` parts, each with multiplicity m."""
    return [(gen, c, m) for gen, c in z.terms.items()]


def ref_res(x, H):
    return term_sum(x.conductor, [(new, coeff * m) for gen, coeff in x.terms.items()
                                  for new, m in ppelem._res_gen(gen, H)])


def ref_ind(x, G):
    n = x.conductor
    parts = []
    for gen, coeff in x.terms.items():
        sub = gen.subgroup
        parts.append((make_generator(G, sub, gen.exps, n), coeff))
    return term_sum(n, parts)


def ref_brauer(x, P):
    if P.order == 1:
        return x.terms
    n = x.conductor
    Q = normalizer_quotient(x.group, P)
    parts = []
    for gen, coeff in ref_res(x, normalizer(x.group, P)).items():
        L = gen.subgroup
        if P.mask & ~L.mask:
            continue
        Lbar = Q.project_subgroup(L)
        exp_of = {Q.proj[l]: e for l, e in zip(L.indices, gen.exps)}
        parts.append((make_generator(Q.group, Lbar, [exp_of[q] for q in Lbar.indices], n),
                      coeff))
    return term_sum(n, parts)


# conductors 1, 4 and 15
CALCULUS_CASES = {"D8-p2": (dihedral(8), 2), "S4-p3": (symmetric(4), 3),
                  "A5-p2": (alternating(5), 2)}


def drawn_terms(data, G, p, n):
    """Terms over the standard generators with mixed denominators and
    roots of unity; at times the first half is repeated negated."""
    gens = standard_generators(G, p, n)
    term = st.tuples(st.integers(0, len(gens) - 1), st.integers(-6, 6),
                     st.integers(1, 12), st.integers(0, n - 1))
    terms = [(gens[i], zeta_power(n, k) * Fraction(a, b))
             for i, a, b, k in data.draw(st.lists(term, max_size=6))]
    if data.draw(st.booleans()):
        terms += [(gen, c * -1) for gen, c in terms[:len(terms) // 2]]
    return terms


@pytest.mark.parametrize("case", sorted(CALCULUS_CASES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_calculus_matches_the_term_by_term_sum(case, data):
    G, p = CALCULUS_CASES[case]
    n = default_conductor(G, p)
    reps = subgroup_lattice(G).class_reps()
    first, second = drawn_terms(data, G, p, n), drawn_terms(data, G, p, n)
    x = PPElement(G, p, n, term_sum(n, first))
    y = PPElement(G, p, n, term_sum(n, second))
    assert collect(G, p, n, parts(x, 1) + parts(y, 1)).terms == term_sum(n, first + second)
    assert collect(G, p, n, parts(x, 1) + parts(y, -1)).terms == \
        term_sum(n, first + [(gen, c * -1) for gen, c in second])
    assert collect(G, p, n, parts(x, 1) + parts(x, -1)).terms == {}
    H = data.draw(st.sampled_from(reps))
    assert res_elt(x, H).terms == ref_res(x, H)
    P = data.draw(st.sampled_from([P for P in reps if is_p_power(P.order, p)]))
    assert brauer_elt(x, P).terms == ref_brauer(x, P)
    HH = data.draw(st.sampled_from(reps))
    z = PPElement(HH, p, n, term_sum(n, drawn_terms(data, HH, p, n)))
    assert ind_elt(z, G).terms == ref_ind(z, G)


def test_restriction_cancels_to_no_terms():
    """Generators scaled by the inverse of their dimensions restrict to the
    same multiple of the regular generator at 1, so their difference
    restricts to zero, with no terms left."""
    G = alternating(5)
    n = default_conductor(G, 2)
    gens = standard_generators(G, 2, n)
    a, b = gens[1], gens[-1]
    x = PPElement(G, 2, n, {a: Cyclotomic.from_rational(n, Fraction(1, a.dimension)),
                            b: Cyclotomic.from_rational(n, Fraction(-1, b.dimension))})
    assert res_elt(x, G.trivial_subgroup()).terms == {}
    assert len(res_elt(x, sylow(G, 2)).terms) > 0
