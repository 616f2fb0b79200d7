"""Residue units by the element route: the test oracle for
``QuadIdeal.unit_residues``.

The library decides each unit of O/m by one span test on the integers of the
residue pair.  This oracle builds every residue as a ``QuadInt``, takes its
principal ideal in closed form and asks ``is_coprime`` of that ideal and the
modulus, as the library did before its residue ring.

infinity_type_lattice is a former library function that no library code
called: the character lattice of the order-2 context, read as the infinity
types of an imaginary quadratic field.
"""

from cmcalc.cmtypes import CMFieldHandle
from cmcalc.groups import cyclic_group
from cmcalc.quadratic import QuadIdeal, ideal_from_generator
from cmcalc.serre import full_character_lattice


def infinity_type_lattice(field):
    """Exponent vectors (n_id, n_conj) of algebraic characters: all of Z^2.

    The constancy condition on conjugate pairs is vacuous with one pair, so
    the lattice is full; the ambient action swaps the two coordinates.  The
    result agrees with the Serre sublattice of the order-2 context.
    """
    g = cyclic_group(2)
    handle = CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())
    return full_character_lattice(handle)


def unit_residues(modulus):
    """The residue pairs (a, b), ascending, of the units modulo the ideal."""
    field = modulus.field
    keys = set()
    for b in range(modulus.d):
        for a in range(modulus.n):
            x = field.element(a, b)
            # zero is a unit residue only modulo the unit ideal, where every residue is
            if modulus.norm == 1 or (
                not x.is_zero() and ideal_from_generator(x).is_coprime(modulus)
            ):
                keys.add(modulus.residue(x))
    return sorted(keys)


def canonical_moduli(field, max_norm):
    """Every ideal Z*n + Z*(c + d*omega) in canonical form with n*d <= max_norm:
    the module is an ideal exactly when n*d divides N(c + d*omega)."""
    s, t = field.omega_relation
    for n in range(1, max_norm + 1):
        for d in range(1, n + 1):
            if n % d == 0 and n * d <= max_norm:
                for c in range(0, n, d):
                    if (c * c + s * c * d - t * d * d) % (n * d) == 0:
                        yield QuadIdeal(field, n, c, d)
