"""Primitive idempotents of the scalar-extended p-permutation ring.

Two independent routes are provided for the idempotent attached to a pair
(P, s) and cross-checked everywhere:

* :func:`idempotent_theorem` evaluates the closed formula directly: a
  Moebius-weighted sum over characters of <s> and subgroups L of <Ps> with
  PL = <Ps>, of induced monomial generators.
* :func:`idempotent_via_reduction` reduces to the subgroup <Ps> (where P is
  a normal Sylow p-subgroup with cyclic quotient), assembles the idempotent
  there from the Burnside-ring idempotent and the cyclic-group idempotent,
  and induces back up with the index coefficient |s| / |centralizer|.

The verification helpers check the restriction and induction laws for
idempotents and the decomposition of the linearized top Burnside idempotent.
Both laws send each pair of a subgroup H to the canonical G-pair it fuses
to with :func:`~ppring.species.canonical_pair`, which reads it from the
lattice of G.
The suites assemble every identity the library verifies for one (group,
prime) run into a list of named checks: :func:`identity_suite` runs the
idempotent checks and the two suites below it, :func:`burnside_suite` the
Burnside-ring checks and their commutation with linearization, and
:func:`factorization_suite` the species factorizations through restriction
to <Ps> and through the Brauer morphism at P.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .burnside import (burnside_ind, burnside_product, burnside_res,
                       fixed_point_functor, gluck_yoshida, linearize,
                       mark_element, transitive)
from .cyclo import zeta_power
from .grp import FiniteGroup, is_p_power, normalizer_quotient, quotient, sylow
from .lattice import subgroup_lattice
from .ppelem import (GroupMismatch, PPElement, _canonical, _pullback_log,
                     brauer_elt, collect, default_conductor, ind_elt, inf_elt,
                     res_elt, tensor_elt)
from .species import (SpeciesPair, SpeciesVector, build_pair, canonical_pair,
                      enumerate_pairs, equal_elements, species_vector,
                      standard_generators, tau_element, tau_generator)


class NotCyclic(Exception):
    """Raised when a cyclic group was expected."""


class NotPPrime(Exception):
    """Raised when a group of order prime to p was expected."""


class ShapeMismatch(Exception):
    """Raised when a group is not of the required normal-Sylow shape."""


class IdempotentReport:
    """Outcome of assembling and checking one primitive idempotent, with
    the species vector that the delta check read."""

    __slots__ = ("element", "species", "delta_ok", "routes_agree")

    def __init__(self, element: PPElement, species: SpeciesVector, delta_ok: bool,
                 routes_agree: bool):
        self.element = element
        self.species = species
        self.delta_ok = delta_ok
        self.routes_agree = routes_agree


def cyclic_idempotent(C: FiniteGroup, t: int, p: int,
                      conductor: int) -> PPElement:
    """The primitive idempotent of a cyclic p'-group attached to the element
    with index t:

        (1/|C|) * sum over characters phi of phi(t^-1) * [k_phi],

    with character values lifted to roots of unity at the given conductor.
    """
    r = C.order
    if r % p == 0:
        raise NotPPrime(f"group order {r} is divisible by {p}")
    table, orders = C.table, C.orders
    gen = next((x for x in C.indices if orders[x] == r), None)
    if gen is None:
        raise NotCyclic("group has no element of full order")
    if t not in C:
        raise GroupMismatch("element does not belong to the group")
    if conductor % r != 0 or conductor % p == 0:
        raise ValueError("conductor must be a multiple of the group order prime to p")
    step = conductor // r
    powers = {}  # element -> its exponent as a power of gen
    x = 0
    for a in range(r):
        powers[x] = a
        x = table[x][gen]
    b = powers[t]
    parts = []
    for j in range(r):
        exps = tuple([j * powers[x] % r * step for x in C.indices])
        row = zeta_power(conductor, (-j * b) % r * step).num
        parts.append((_canonical(C, C, exps, conductor), row, r, 1))
    return collect(C, p, conductor, parts)


def top_E(G: FiniteGroup, p: int, conductor: int | None = None) -> PPElement:
    """The linearization of the top Burnside idempotent of G."""
    n = default_conductor(G, p) if conductor is None else conductor
    return linearize(gluck_yoshida(G, G), p, n)


def idempotent_normal_case(H: FiniteGroup, s_lift: int, p: int,
                           conductor: int | None = None) -> PPElement:
    """The idempotent of a group with normal Sylow p-subgroup and cyclic
    p'-quotient generated by the image of the element with index ``s_lift``:
    the product of the linearized top Burnside idempotent with the inflated
    cyclic idempotent.
    """
    n = default_conductor(H, p) if conductor is None else conductor
    P = sylow(H, p)
    if not P.is_normal_in(H):
        raise ShapeMismatch("the Sylow p-subgroup is not normal")
    Q = quotient(H, P)
    C = Q.group
    if s_lift not in H or math.gcd(H.orders[s_lift], p) != 1:
        raise ShapeMismatch("lift is not a p'-element of the group")
    sbar = Q.proj[s_lift]
    if C.orders[sbar] != C.order:
        raise ShapeMismatch("quotient is not cyclic generated by the lift's image")
    f = cyclic_idempotent(C, sbar, p, n)
    return tensor_elt(top_E(H, p, n), inf_elt(f, Q))


def idempotent_theorem(G: FiniteGroup, p: int, pair: SpeciesPair,
                       conductor: int | None = None) -> PPElement:
    """The closed formula for the primitive idempotent attached to a pair:

        1/(|P| |s| |C|) * sum over characters phi of <s> and subgroups
        L <= <Ps> with PL = <Ps> of phi(s^-1) |L| mu(L, <Ps>) Ind_L^G k_chi,

    where chi is phi seen through the quotient <Ps> -> <s> and restricted
    to L, C is the centralizer of s in N_G(P)/P, and mu is the Moebius
    function of the subgroup poset of <Ps>.  Each idempotent is computed
    once per (G, p, pair, conductor) and shared: a :class:`PPElement` is never
    mutated.
    """
    if pair.group != G or pair.p != p:
        raise GroupMismatch("pair does not belong to the (group, prime) computation")
    n = default_conductor(G, p) if conductor is None else conductor
    if n % p == 0:
        raise ValueError("conductor must be prime to p")
    return _idempotent_theorem(G, p, pair, n)


@lru_cache(maxsize=None)
def _idempotent_theorem(G: FiniteGroup, p: int, pair: SpeciesPair, n: int) -> PPElement:
    P = pair.P
    r = pair.s_order
    H = pair.ps
    lat = subgroup_lattice(H)
    denom = P.order * r * pair.centralizer_order
    step = n // r
    a, _ = _pullback_log(H, P, pair.lift)
    parts = []
    for L, mu in zip(lat.subgroups, lat.mu_top):
        # PL = <Ps>: P is normal in <Ps>, so |PL| = |P| |L| / |P cap L|
        if not mu or P.order * L.order != H.order * (P.mask & L.mask).bit_count():
            continue
        weight = L.order * mu
        for j in range(r):
            # the j-th character of <Ps>/P = <s> pulled back to L
            exps = tuple([j * a[x] % r * step for x in L.indices])
            row = zeta_power(n, (-j) % r * step).num
            parts.append((_canonical(G, L, exps, n), row, denom, weight))
    return collect(G, p, n, parts)


def idempotent_via_reduction(G: FiniteGroup, p: int, pair: SpeciesPair) -> PPElement:
    """The same idempotent through the reduction route: induce the
    normal-case idempotent of <Ps> up to G, scaled by |s| / |centralizer|.
    """
    if pair.group != G or pair.p != p:
        raise GroupMismatch("pair does not belong to the (group, prime) computation")
    f = idempotent_normal_case(pair.ps, pair.lift, p, default_conductor(G, p))
    return ind_elt(f, G).scale(Fraction(pair.s_order, pair.centralizer_order))


def _is_orbit_indicator(pair: SpeciesPair, vec: SpeciesVector) -> bool:
    rep = canonical_pair(pair.group, pair.p, pair.P, pair.lift)
    return all(v == (1 if q is rep else 0) for q, v in vec)


def idempotent_report(G: FiniteGroup, p: int, pair: SpeciesPair) -> IdempotentReport:
    element = idempotent_theorem(G, p, pair)
    other = idempotent_via_reduction(G, p, pair)
    vec = species_vector(element)
    return IdempotentReport(
        element=element,
        species=vec,
        delta_ok=_is_orbit_indicator(pair, vec),
        routes_agree=equal_elements(element, other),
    )


def _fused_terms(G: FiniteGroup, p: int, H: FiniteGroup,
                 n: int) -> dict[SpeciesPair, list]:
    """The rows of the H-idempotents as ``collect`` parts, grouped by the
    canonical G-pair that their H-pair fuses to."""
    out: dict[SpeciesPair, list] = {}
    for hp in enumerate_pairs(H, p):
        e = idempotent_theorem(H, p, hp, n)
        out.setdefault(canonical_pair(G, p, hp.P, hp.lift), []).extend(
            (gen, row, e.den, 1) for gen, row in e.rows.items())
    return out


def _restriction_law(G: FiniteGroup, p: int, H: FiniteGroup, pair: SpeciesPair,
                     fused: dict[SpeciesPair, list], n: int) -> bool:
    lhs = res_elt(idempotent_theorem(G, p, pair, n), H)
    rhs = collect(H, p, n, fused.get(canonical_pair(G, p, pair.P, pair.lift), []))
    return equal_elements(lhs, rhs)


def verify_induction(G: FiniteGroup, p: int, H: FiniteGroup, hpair: SpeciesPair) -> bool:
    """Check that inducing the H-idempotent of a pair up to G gives the
    G-idempotent scaled by the stabilizer index |N_G(Q,t) : N_H(Q,t)|."""
    n = default_conductor(G, p)
    if hpair.group != H:
        raise GroupMismatch("pair does not live over the subgroup")
    lhs = ind_elt(idempotent_theorem(H, p, hpair, n), G)
    # N_H(Q,t) is the stabilizer of the pair in H; both orders are class invariants
    rep = canonical_pair(G, p, hpair.P, hpair.lift)
    c = Fraction(rep.stabilizer.order, hpair.stabilizer.order)
    rhs = idempotent_theorem(G, p, rep, n).scale(c)
    return equal_elements(lhs, rhs)


def verify_E_decomposition(H: FiniteGroup, p: int) -> bool:
    """For a group with normal Sylow p-subgroup P and cyclic quotient, check
    that the linearized top Burnside idempotent has species vector equal to
    the indicator of the pairs (P, t) with t generating the quotient."""
    n = default_conductor(H, p)
    P = sylow(H, p)
    if not P.is_normal_in(H):
        raise ShapeMismatch("the Sylow p-subgroup is not normal")
    C = quotient(H, P).group
    if all(C.orders[x] != C.order for x in C.indices):
        raise ShapeMismatch("quotient is not cyclic")
    return all(v == (1 if q.ps.order == H.order else 0)
               for q, v in species_vector(top_E(H, p, n)))


def partition_of_unity(G: FiniteGroup, p: int) -> bool:
    """The idempotents over all pairs sum to the class of the trivial module
    (all-ones species vector)."""
    n = default_conductor(G, p)
    idems = [idempotent_theorem(G, p, pair, n) for pair in enumerate_pairs(G, p)]
    total = collect(G, p, n, [(gen, row, e.den, 1) for e in idems for gen, row in e.rows.items()])
    return equal_elements(total, PPElement.one(G, p, n))


# ---------------------------------------------------------------------------
# verification suites


def _check(name: str, ok: bool) -> dict:
    return {"check": name, "ok": bool(ok)}


def identity_suite(G: FiniteGroup, p: int) -> list[dict]:
    """Every identity the library verifies, for one (group, prime) run."""
    lat = subgroup_lattice(G)
    pairs = enumerate_pairs(G, p)
    checks: list[dict] = []
    for q in pairs:
        rep = idempotent_report(G, p, q)
        checks.append(_check(f"delta {q.label()}", rep.delta_ok))
        checks.append(_check(f"routes {q.label()}", rep.routes_agree))
    checks.append(_check("partition of unity", partition_of_unity(G, p)))

    n = default_conductor(G, p)
    for H in lat.class_reps():
        fused = _fused_terms(G, p, H, n)
        for q in pairs:
            checks.append(_check(f"restriction law |H|={H.order} {q.label()}",
                                 _restriction_law(G, p, H, q, fused, n)))
        for hq in enumerate_pairs(H, p):
            checks.append(_check(f"induction law |H|={H.order} {hq.label()}",
                                 verify_induction(G, p, H, hq)))

    checks.extend(burnside_suite(G, p))
    checks.extend(factorization_suite(G, p))
    return checks


def burnside_suite(G: FiniteGroup, p: int) -> list[dict]:
    """Marks-delta, idempotency, commutation squares and fixed-point checks."""
    n = default_conductor(G, p)
    lat = subgroup_lattice(G)
    reps = lat.class_reps()
    checks: list[dict] = []
    for H in reps:
        e = gluck_yoshida(G, H)
        delta_ok = all(
            mark_element(e, K) == (1 if lat.rep_of(K) == lat.rep_of(H) else 0)
            for K in reps
        )
        checks.append(_check(f"marks delta |H|={H.order}", delta_ok))
        checks.append(_check(f"idempotency |H|={H.order}",
                             burnside_product(e, e) == e))

    sets = {L: transitive(G, L) for L in reps}
    images = {L: linearize(x, p, n) for L, x in sets.items()}
    for H in reps:
        for L, x in sets.items():
            lhs = linearize(burnside_res(x, H), p, n)
            rhs = res_elt(images[L], H)
            checks.append(_check(f"commute res |H|={H.order} |L|={L.order}",
                                 equal_elements(lhs, rhs)))
        for S in subgroup_lattice(H).class_reps():
            y = transitive(H, S)
            lhs = linearize(burnside_ind(y, G), p, n)
            rhs = ind_elt(linearize(y, p, n), G)
            checks.append(_check(f"commute ind |H|={H.order} |S|={S.order}",
                                 equal_elements(lhs, rhs)))

    for P in reps:
        if not is_p_power(P.order, p):
            continue
        for L, x in sets.items():
            lhs = linearize(fixed_point_functor(P, x), p, n)
            rhs = brauer_elt(images[L], P)
            checks.append(_check(f"commute Brauer |P|={P.order} |L|={L.order}",
                                 equal_elements(lhs, rhs)))

    ex = gluck_yoshida(G, G)
    for N in lat.subgroups:
        if not N.is_normal_in(G):
            continue
        lhs = fixed_point_functor(N, ex)
        Q = normalizer_quotient(G, N)
        rhs = gluck_yoshida(Q.group, Q.group)
        checks.append(_check(f"fixed points of top idempotent |N|={N.order}",
                             lhs == rhs))
    return checks


def factorization_suite(G: FiniteGroup, p: int) -> list[dict]:
    """The two factorizations of a species through restriction and the
    Brauer morphism, checked cell by cell.  Each pair's sub-pair and
    quotient pair, and each generator's restriction to <Ps>, are built once
    and read by both routes."""
    n = default_conductor(G, p)
    checks: list[dict] = []
    gens = standard_generators(G, p, n)
    for q in enumerate_pairs(G, p):
        sub_pair, pair0 = _route_pairs(q)
        ys = [_res_to_ps(q, gen) for gen in gens]
        ok_res = all(tau_generator(q, gen) == tau_element(sub_pair, y)
                     for gen, y in zip(gens, ys))
        checks.append(_check(f"species restriction factorization {q.label()}", ok_res))
        ok_brauer = all(tau_generator(q, gen) == tau_element(pair0, brauer_elt(y, q.P))
                        for gen, y in zip(gens, ys))
        checks.append(_check(f"species Brauer factorization {q.label()}", ok_brauer))
    return checks


def _res_to_ps(pair: SpeciesPair, gen) -> PPElement:
    """A generator restricted to the subgroup <Ps> of the pair."""
    return res_elt(PPElement.from_generator(pair.p, gen), pair.ps)


def _route_pairs(pair: SpeciesPair) -> tuple[SpeciesPair, SpeciesPair]:
    """Where the two routes evaluate: the pair seen in H = <Ps>, and the
    pair (1, s) of the quotient H/P."""
    H = pair.ps
    Q = quotient(H, pair.P)
    base = Q.group
    return (build_pair(H, pair.p, pair.P, pair.lift),
            build_pair(base, pair.p, base.trivial_subgroup(), Q.proj[pair.lift]))

