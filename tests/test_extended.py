"""Robustness beyond the acceptance corpus: larger groups, odd primes,
elementary abelian and composite cyclic structures."""

import pytest

from ppring.cli import parse_group_spec
from ppring.grp import alternating, cyclic, symmetric
from ppring.idem import (identity_suite, idempotent_report, partition_of_unity,
                         verify_E_decomposition)
from ppring.species import enumerate_pairs


@pytest.mark.parametrize("p,expected_pairs", [(2, 8), (3, 6), (5, 5)])
def test_a5_all_primes(p, expected_pairs):
    G = alternating(5)
    pairs = enumerate_pairs(G, p)
    assert len(pairs) == expected_pairs
    for q in pairs:
        rep = idempotent_report(G, p, q)
        assert rep.delta_ok and rep.routes_agree
    assert partition_of_unity(G, p)


@pytest.mark.parametrize("p,expected_pairs", [(2, 11), (3, 9), (5, 10)])
def test_s5_all_primes(p, expected_pairs):
    G = symmetric(5)
    pairs = enumerate_pairs(G, p)
    assert len(pairs) == expected_pairs
    for q in pairs:
        rep = idempotent_report(G, p, q)
        assert rep.delta_ok and rep.routes_agree
    assert partition_of_unity(G, p)


@pytest.mark.parametrize("spec,p", [
    ("C2xC2xC2", 2),  # elementary abelian: many conjugate-free subgroups
    ("C3xC3", 3),
    ("D10", 5),       # odd prime with nonabelian structure
    ("C12", 2),
    ("C12", 3),
])
def test_identity_suite_outside_corpus(spec, p):
    G = parse_group_spec(spec)
    checks = identity_suite(G, p)
    bad = [c["check"] for c in checks if not c["ok"]]
    assert not bad, bad


@pytest.mark.parametrize("spec,p", [("C12", 2), ("C12", 3), ("C2xC2", 2)])
def test_e_decomposition_for_cyclic_mod_p_groups(spec, p):
    assert verify_E_decomposition(parse_group_spec(spec), p)


def test_prime_not_dividing_order():
    # with p prime to |G| the p-structure is trivial and every pair has P = 1
    G = cyclic(5)
    pairs = enumerate_pairs(G, 3)
    assert all(q.P.order == 1 for q in pairs)
    assert len(pairs) == 5
    for q in pairs:
        assert idempotent_report(G, 3, q).delta_ok
