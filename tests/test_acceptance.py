"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  All comparisons are exact (rational / cyclotomic
equality); the only tolerances anywhere are the two runtime budgets, which
are part of the criteria themselves.
"""

import random
import time

import pytest

from ppring.grp import alternating, cyclic, dihedral, quaternion8, symmetric
from ppring.idem import (_is_orbit_indicator, burnside_suite, factorization_suite,
                         idempotent_theorem, idempotent_via_reduction,
                         partition_of_unity, verify_induction)
from ppring.lattice import subgroup_lattice
from ppring.ppelem import (PPElement, brauer_elt, default_conductor,
                           tensor_elt)
from ppring.species import (enumerate_pairs, equal_elements, species_vector,
                            standard_generators, tau_element)
from test_idem import restriction_law

CORPUS = [
    ("C2", lambda: cyclic(2)),
    ("C3", lambda: cyclic(3)),
    ("C4", lambda: cyclic(4)),
    ("C6", lambda: cyclic(6)),
    ("S3", lambda: symmetric(3)),
    ("D8", lambda: dihedral(8)),
    ("Q8", lambda: quaternion8()),
    ("A4", lambda: alternating(4)),
    ("D12", lambda: dihedral(12)),
    ("S4", lambda: symmetric(4)),
]
PRIMES = (2, 3)
LAW_GROUPS = ["S3", "D8", "A4"]
ORACLE_GROUPS = ["C6", "S3", "D8", "A4"]


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {name} ... {status}{suffix}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_delta_property():
    ok = True
    slowest = 0.0
    for name, build in CORPUS:
        G = build()
        for p in PRIMES:
            t0 = time.monotonic()
            for pair in enumerate_pairs(G, p):
                vec = species_vector(idempotent_theorem(G, p, pair))
                if not _is_orbit_indicator(pair, vec):
                    ok = False
            elapsed = time.monotonic() - t0
            slowest = max(slowest, elapsed)
            if elapsed >= 60.0:
                ok = False
    _report(1, "delta property on the full corpus", ok,
            f"slowest (group, p) took {slowest:.2f}s, budget 60s")


def test_criterion_2_partition_of_unity():
    ok = all(partition_of_unity(build(), p)
             for _, build in CORPUS for p in PRIMES)
    _report(2, "partition of unity on the full corpus", ok)


def test_criterion_3_two_route_agreement():
    ok = True
    for name, build in CORPUS:
        G = build()
        for p in PRIMES:
            for pair in enumerate_pairs(G, p):
                lhs = idempotent_theorem(G, p, pair)
                rhs = idempotent_via_reduction(G, p, pair)
                if not equal_elements(lhs, rhs):
                    ok = False
    _report(3, "closed formula agrees with the reduction route", ok)


def test_criterion_4_restriction_induction_laws():
    ok = True
    checked = 0
    for name, build in CORPUS:
        if name not in LAW_GROUPS:
            continue
        G = build()
        for p in PRIMES:
            pairs = enumerate_pairs(G, p)
            for H in subgroup_lattice(G).class_reps():
                for pair in pairs:
                    if not restriction_law(G, p, H, pair):
                        ok = False
                    checked += 1
                for hpair in enumerate_pairs(H, p):
                    if not verify_induction(G, p, H, hpair):
                        ok = False
                    checked += 1
    _report(4, "restriction and induction laws for S3, D8, A4", ok,
            f"{checked} instances")


def test_criterion_5_burnside_suite():
    ok = True
    total = 0
    for name, build in CORPUS:
        G = build()
        for p in PRIMES:
            checks = burnside_suite(G, p)
            total += len(checks)
            if not all(c["ok"] for c in checks):
                ok = False
    _report(5, "Burnside suite (marks delta, idempotency, commutation, "
               "fixed points) on the full corpus", ok, f"{total} checks")


def test_criterion_6_oracle_agreement():
    from ppring.ffq import build_field, oracle_tau
    from ppring.species import tau_generator
    rng = random.Random(2024)
    t0 = time.monotonic()
    samples = 0
    ok = True
    for name, build in CORPUS:
        if name not in ORACLE_GROUPS:
            continue
        G = build()
        for p in PRIMES:
            n = default_conductor(G, p)
            F = build_field(p, n)
            pairs = enumerate_pairs(G, p)
            gens = standard_generators(G, p, n)
            for _ in range(8):
                pair = rng.choice(pairs)
                gen = rng.choice(gens)
                if oracle_tau(pair, gen, F) != tau_generator(pair, gen):
                    ok = False
                samples += 1
    elapsed = time.monotonic() - t0
    if samples < 50 or elapsed >= 120.0:
        ok = False
    _report(6, "finite-field oracle agreement", ok,
            f"{samples} samples in {elapsed:.2f}s, budget 120s")


def test_criterion_7_species_ring_homomorphism():
    rng = random.Random(99)
    ok = True
    tensor_samples = 0
    for name in ("S3", "D8", "C6", "A4"):
        G = dict((n, b) for n, b in CORPUS)[name]()
        for p in PRIMES:
            n = default_conductor(G, p)
            gens = standard_generators(G, p, n)
            pairs = enumerate_pairs(G, p)
            for _ in range(7):
                a = PPElement.from_generator(p, rng.choice(gens))
                b = PPElement.from_generator(p, rng.choice(gens))
                prod = tensor_elt(a, b)
                for q in pairs:
                    if tau_element(q, prod) != tau_element(q, a) * tau_element(q, b):
                        ok = False
                tensor_samples += 1

    brauer_samples = 0
    for name in ("S3", "D8", "A4"):
        G = dict((n, b) for n, b in CORPUS)[name]()
        for p in PRIMES:
            n = default_conductor(G, p)
            gens = standard_generators(G, p, n)
            preps = [P for P in subgroup_lattice(G).class_reps()
                     if _is_p_power(P.order, p) and P.order > 1]
            if not preps:
                continue
            for _ in range(5):
                a = PPElement.from_generator(p, rng.choice(gens))
                b = PPElement.from_generator(p, rng.choice(gens))
                P = rng.choice(preps)
                lhs = brauer_elt(tensor_elt(a, b), P)
                xa = brauer_elt(a, P)
                xb = brauer_elt(b, P)
                va = species_vector(xa)
                vb = species_vector(xb)
                vp = species_vector(lhs)
                for (q, x), (_, y), (_, z) in zip(vp, va, vb):
                    if x != y * z:
                        ok = False
                brauer_samples += 1
    if tensor_samples < 50 or brauer_samples < 20:
        ok = False
    _report(7, "species and Brauer-morphism multiplicativity", ok,
            f"{tensor_samples} tensor samples, {brauer_samples} Brauer samples")


def _is_p_power(m: int, p: int) -> bool:
    while m % p == 0:
        m //= p
    return m == 1


def test_criterion_8_species_factorizations():
    ok = True
    cells = 0
    for name in ("S3", "D8"):
        G = dict((n, b) for n, b in CORPUS)[name]()
        for p in PRIMES:
            checks = factorization_suite(G, p)
            cells += len(checks)
            if not all(c["ok"] for c in checks):
                ok = False
    _report(8, "species factorizations through restriction and the "
               "Brauer morphism on every cell of S3 and D8", ok,
            f"{cells} pair blocks")
