"""The lattice certificates over every group element: the test oracles for
cmcalc.serre.

A CharLattice that carries its group certifies stability, and a LatticeMap
between two such lattices certifies equivariance, on the group's generators
only (the action is a homomorphism, checked at each generator).  The
routines here are the library's certificates before that change: stability
under every element, one membership test per pushed basis vector, and
equivariance at every element, as sparse matrix products.  Each returns the
first failure it finds, or None.

weight_cocharacter is a former library function that no library code
called: the weight of the identity cocharacter as a Cocharacter.
"""

from cmcalc import intlinalg as la
from cmcalc.serre import Cocharacter, _permute, identity_cocharacter, weight_functional


def unstable_element(lattice):
    """The first element whose action moves the lattice off itself."""
    for g, perm in enumerate(lattice.action):
        if not la.rows_in_span(lattice.basis, (_permute(row, perm) for row in lattice.basis)):
            return g
    return None


def map_failure(lattice_map):
    """The string "landing" when a pushed basis vector leaves the target lattice,
    else the first element at which the map and the two actions fail to commute."""
    basis, target = lattice_map.source.basis, lattice_map.target
    pushed = la.mat_mul(lattice_map.matrix, la.transpose(basis))
    for vec in la.transpose(pushed):
        if not la.rows_in_span(target.basis, [vec]):
            return "landing"
    for g, perm in enumerate(lattice_map.source.action):
        moved = la.transpose(tuple(_permute(row, perm) for row in basis))
        if la.mat_mul(lattice_map.matrix, moved) != _permute(pushed, target.action[g]):
            return g
    return None


def weight_cocharacter(field) -> Cocharacter:
    """chi = sum n_rho [rho]  |->  -(n_1 + n_iota)."""
    mu = identity_cocharacter(field).functional
    return Cocharacter(lattice=field.serre_lattice, functional=weight_functional(field, mu))
