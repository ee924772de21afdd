"""Exact modular data and fusion subcategory lattices for twisted doubles."""

from .errors import CheckFailure, InputError
from .groups import (BUILTIN_GROUP_NAMES, FiniteGroup, GroupTooLarge, NotAGroup,
                     Subgroup, builtin_group, cyclic_group, dihedral_group,
                     direct_product, quaternion_group, symmetric_group)
from .cyclotomic import Cyclo, CycloContext
from .cocycles import (IdentityViolation, NotACocycle, NotNormalized, ThreeCocycle,
                       builtin_cyclic, check_identities, coboundary, pullback,
                       trivial_cocycle, validate)
from .characters import CharacterTable, LiftFailure, ordinary_table, projective_table
from .doubledata import SimpleObject, TwistedDouble, VerlindeNonInteger
from .subcats import (DimensionMismatch, NotASubcategory, Triple, TripleFlags,
                      UnsupportedTriple, adjoint_series_term, adjoint_triple,
                      bicharacters, build_subcat, central_charge, central_series_term,
                      centralizer_triple, classify, contains, enumerate_all, flag_counts,
                      gauss_sum, is_prime, join, meet, muger_center, nondegenerate_count,
                      subcat_members, triple_of, trivial_triple, whole_triple)
from .oracle import (adjoint_closure, all_closed_sets, centralizing_simples,
                     certify, fusion_closure, projectively_centralizing_simples)

__version__ = "0.1.0"
