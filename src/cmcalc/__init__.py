"""Exact-arithmetic toolkit for CM-type combinatorics over finite Galois
contexts, Serre-quotient character lattices, transfer cocycles, and
Hecke-character reconstructions of CM elliptic-curve zeta data."""

from .battery import BATTERY_NAMES, battery_field, closure_of
from .cmtypes import (
    CMFieldHandle,
    CMType,
    enumerate_cm_types,
    induce,
    is_primitive,
    reflex_field,
    reflex_type,
    restricts_to,
    stabilizer,
    translate_left,
    translate_right,
    validate_cm_type,
)
from .cocycle import (
    WSystem,
    check_cocycle_law,
    check_rep_independence,
    check_reflex_compatibility,
    check_transfer_identity,
    choose_w_system,
    taniyama_cocycle,
)
from .groups import (
    AbelianQuotient,
    FiniteGroup,
    Subgroup,
    abelianization,
    coset_of,
    cyclic_group,
    dihedral_group,
    direct_product,
    left_cosets,
    make_group,
    transfer,
)
from .quadratic import (
    HeckeCharacterSpec,
    QuadField,
    QuadIdeal,
    QuadInt,
    canonical_conductor,
    canonical_weight_one_spec,
    factor_rational_prime,
    hecke_eval,
    ideal_from_generator,
    primary_generator,
    ray_class_group,
)
from .serre import (
    CharLattice,
    Cocharacter,
    LatticeMap,
    check_cm_type_generation,
    check_norm_weight_triangle,
    check_serre_exact_sequence,
    full_character_lattice,
    identity_cocharacter,
    mumford_tate_rank,
    norm_lattice_map,
    reciprocity_cocharacter,
    reflex_norm_map,
    serre_character_lattice,
    type_cocharacter,
)
from .zeta import (
    CurveSpec,
    EulerFactor,
    count_points,
    euler_from_counts,
    euler_from_hecke,
    verify_cm_zeta,
    verify_res_scalars,
)

__version__ = "0.1.0"
