"""Exact species and primitive idempotents of p-permutation rings of small
finite groups, with a finite-field oracle and a verification CLI."""

from .cyclo import Cyclotomic, ConductorMismatch, cyclotomic_polynomial, zeta_power
from .grp import (FiniteGroup, InvalidPermutation, NotNormal, NotSubgroup,
                  OrderCapExceeded, Permutation, QuotientGroup, alternating,
                  centralizer, close_generators, cyclic, dihedral, direct_product,
                  double_coset_reps, klein_four, normalizer, normalizer_quotient,
                  p_prime_part, quaternion8, quotient, symmetric, sylow)
from .lattice import SubgroupLattice, subgroup_lattice
from .ppelem import (Generator, PPElement, brauer_elt, check_homomorphism,
                     default_conductor, ind_elt, inf_elt, linear_characters,
                     make_generator, res_elt, tensor_elt)
from .burnside import (BurnsideElement, burnside_product, fixed_point_functor,
                       gluck_yoshida, linearize, mark, mark_element, transitive)
from .species import (SpeciesPair, SpeciesVector, build_pair, canonical_pair,
                      enumerate_pairs, equal_elements, species_vector,
                      standard_generators, tau_element, tau_generator)
from .idem import (IdempotentReport, cyclic_idempotent, idempotent_normal_case,
                   idempotent_report, idempotent_theorem,
                   idempotent_via_reduction, partition_of_unity, top_E,
                   verify_E_decomposition, verify_induction)
from .ffq import FqField, FqModule, build_field, oracle_tau, realize_generator

from . import burnside, cyclo, ffq, grp, idem, lattice, ppelem, species

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the package: each ``functools.lru_cache`` bound
    at module level, public or private."""
    for module in (burnside, cyclo, ffq, grp, idem, lattice, ppelem, species):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                obj.cache_clear()
