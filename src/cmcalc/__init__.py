"""Exact-arithmetic toolkit for CM-type combinatorics over finite Galois
contexts, Serre-quotient character lattices, transfer cocycles, and
Hecke-character reconstructions of CM elliptic-curve zeta data.

Each submodule is imported on first use of its own name or of a name it
exports here (PEP 562), so a program loads only the half it runs: the
Galois side (groups, cmtypes, serre, cocycle, battery) or the arithmetic
side (quadratic, zeta)."""

import importlib

# each submodule and the public names the package exports from it
_EXPORTS = {
    "battery": ("BATTERY_NAMES", "battery_field", "closure_of"),
    "cli": (),
    "cmtypes": (
        "CMFieldHandle", "CMType", "enumerate_cm_types", "induce", "is_primitive",
        "reflex_field", "reflex_type", "restricts_to", "stabilizer", "translate_left",
        "translate_right", "validate_cm_type",
    ),
    "cocycle": (
        "WSystem", "check_cocycle_law", "check_rep_independence",
        "check_reflex_compatibility", "check_transfer_identity", "choose_w_system",
        "taniyama_cocycle",
    ),
    "errors": (),
    "groups": (
        "AbelianQuotient", "FiniteGroup", "Subgroup", "abelianization", "coset_of",
        "cyclic_group", "dihedral_group", "direct_product", "left_cosets", "make_group",
        "transfer",
    ),
    "intlinalg": (),
    "quadratic": (
        "HeckeCharacterSpec", "QuadField", "QuadIdeal", "QuadInt",
        "canonical_conductor", "canonical_weight_one_spec", "factor_rational_prime",
        "hecke_eval", "ideal_from_generator", "primary_generator", "ray_class_group",
    ),
    "serre": (
        "CharLattice", "Cocharacter", "LatticeMap", "check_cm_type_generation",
        "check_norm_weight_triangle", "check_serre_exact_sequence",
        "full_character_lattice", "identity_cocharacter", "mumford_tate_rank",
        "norm_lattice_map", "reciprocity_cocharacter", "reflex_norm_map",
        "serre_character_lattice", "type_cocharacter",
    ),
    "zeta": (
        "CurveSpec", "EulerFactor", "count_points", "euler_from_counts",
        "euler_from_hecke", "verify_cm_zeta", "verify_res_scalars",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule also binds it here
        return importlib.import_module(f".{name}", __name__)
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
