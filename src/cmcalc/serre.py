"""Character-lattice calculus for quotient tori of CM fields.

For a Galois-presented field E (fixing subgroup normal in the context G),
the character lattice of E^x is Z^Sigma on the embedding cosets Sigma with
the left-translation Galois action.  The Serre sublattice consists of the
characters sum n_rho [rho] with n_rho + n_{iota rho} constant; its rank is
g + 1 for a field of degree 2g.  This module builds those lattices, the
distinguished cocharacters (evaluation at the identity embedding, its
weight, the indicator cocharacter of a CM-type), the reflex norm as an
integer matrix, norm maps between nested fields, and the reciprocity map of
a pair (lattice, cocharacter) with rational weight.

All computations are exact; sublattices are canonicalized by row HNF so
that equality of lattices is equality of bases.
"""

from __future__ import annotations

from . import intlinalg as la
from .cmtypes import (
    CMFieldHandle,
    CMType,
    _check_context_match,
    induce,
    require_enumerable,
    require_nested,
    spanning_types,
    translate_left,
)
from .errors import (
    InternalInconsistency,
    NoSolution,
    NotACMType,
    NotDefinedOverE,
    NotGaloisContext,
    NotSerrePair,
    Record,
)
from .groups import FiniteGroup, normal_subgroups

Matrix = la.Matrix
Vector = la.Vector


class CharLattice(Record):
    """A sublattice of Z^ambient_rank stable under a group action.

    ``basis`` holds the canonical (row HNF) basis; ``action`` holds one
    coordinate permutation per group element, indexed by element:
    ``action[g][c]`` is the coordinate that g sends c to (for a field, its
    handle's ``act_table``); a field's lattices carry its ``group`` too.
    """

    _fields = ("ambient_rank", "basis", "action")

    def __init__(self, ambient_rank: int, basis: Matrix, action: tuple[tuple[int, ...], ...],
                 group: FiniteGroup | None = None):
        self.__dict__.update(ambient_rank=ambient_rank, basis=basis, action=action, group=group)
        if self.group is not None and len(self.action) != self.group.order:
            raise InternalInconsistency("action does not match the group")
        for g in self.certified_elements:
            perm = self.action[g]
            # action[x g] is action[x] after action[g], for every x
            if self.group is not None and any(
                self.action[row[g]] != tuple(p_x[c] for c in perm)
                for row, p_x in zip(self.group.table, self.action)
            ):
                raise InternalInconsistency(f"action is not a homomorphism at element {g}")
            if not la.rows_in_span(self.basis, (_permute(row, perm) for row in self.basis)):
                raise InternalInconsistency(f"sublattice not stable under element {g}")

    @property
    def certified_elements(self):
        """What certificates on the action quantify over: with its group, a homomorphism
        (checked above), the generators, as whatever is stable under them or commutes
        with them is so under their products; a bare action, every element."""
        return range(len(self.action)) if self.group is None else self.group.generators

    @property
    def rank(self) -> int:
        return len(self.basis)


class Cocharacter(Record):
    """A functional on a character lattice, stored as an ambient row vector.

    Only the restriction to the sublattice is meaningful; two ambient
    vectors describe the same cocharacter when they agree on the basis.
    """

    _fields = ("lattice", "functional")

    def __init__(self, lattice: CharLattice, functional: Vector):
        self.__dict__.update(lattice=lattice, functional=functional)

    def evaluate(self, vec: Vector) -> int:
        return sum(x * y for x, y in zip(self.functional, vec))

    def same_on_lattice(self, other_functional: Vector) -> bool:
        return all(
            self.evaluate(row) == sum(x * y for x, y in zip(other_functional, row))
            for row in self.lattice.basis
        )

    def translated(self, g_elt: int) -> "Cocharacter":
        """Galois translate: (g mu)(chi) = mu(g^-1 chi)."""
        perm = self.lattice.action[g_elt]
        return Cocharacter(lattice=self.lattice, functional=_permute(self.functional, perm))


class LatticeMap(Record):
    """An integer matrix mapping one character lattice into another.

    The matrix acts on ambient column vectors; it must carry the source
    sublattice into the target sublattice and commute with the two actions
    on the source sublattice.
    """

    _fields = ("source", "target", "matrix")

    def __init__(self, source: CharLattice, target: CharLattice, matrix: Matrix):
        self.__dict__.update(source=source, target=target, matrix=matrix)
        # basis vectors as columns, so the checks are sparse matrix products;
        # the target action permutes the rows of the pushed columns
        source, target, basis = self.source, self.target, self.source.basis
        pushed = la.mat_mul(self.matrix, la.transpose(basis))
        if not la.rows_in_span(target.basis, la.transpose(pushed)):
            raise InternalInconsistency("map does not land in the target lattice")
        # two homomorphisms of one group: commuting with the generators suffices
        same = source.group == target.group
        for g in source.certified_elements if same else range(len(source.action)):
            moved = la.transpose(tuple(_permute(row, source.action[g]) for row in basis))
            if la.mat_mul(self.matrix, moved) != _permute(pushed, target.action[g]):
                raise InternalInconsistency(f"map is not equivariant at element {g}")

    def apply(self, vec: Vector) -> Vector:
        return la.mat_vec(self.matrix, vec)

    def image_rank(self) -> int:
        pushed = tuple(la.mat_vec(self.matrix, row) for row in self.source.basis)
        return la.rank(pushed)


def _permute(items, perm) -> tuple:
    """Move entry c to position perm[c]: a permutation matrix times items."""
    out = [None] * len(perm)
    for c, item in zip(perm, items):
        out[c] = item
    return tuple(out)


def full_character_lattice(field: CMFieldHandle) -> CharLattice:
    """All of Z^Sigma, acted on by the handle's left translations of cosets.

    Prefer ``field.full_lattice``, which builds this once per handle.
    """
    n = field.degree
    return CharLattice(n, la.identity_matrix(n), field.act_table, field.group)


def _require_galois(field: CMFieldHandle) -> None:
    if not field.fixer.is_normal():
        raise NotGaloisContext(
            "field is not Galois in this context; pass a Galois subfield "
            "or the full closure"
        )


def serre_character_lattice(field: CMFieldHandle) -> CharLattice:
    """Characters with n_c + n_{iota c} constant, of rank half-degree + 1.

    The kernel of the g - 1 pair relations (n_c1 + n_{iota c1}) -
    (n_c + n_{iota c}) = 0.  Prefer ``field.serre_lattice``, which builds
    this once per handle.
    """
    _require_galois(field)
    n = field.degree
    sums = [[1 if x in pair else 0 for x in range(n)] for pair in field.iota_pairs]
    rows = la.freeze([[a - b for a, b in zip(sums[0], s)] for s in sums[1:]])
    basis = la.integer_kernel(rows) if rows else la.identity_matrix(n)
    return CharLattice(n, basis, field.act_table, field.group)


def identity_cocharacter(field: CMFieldHandle) -> Cocharacter:
    """Evaluation of the coefficient at the identity embedding."""
    lattice = field.serre_lattice
    vec = tuple(1 if c == field.identity_coset else 0 for c in range(field.degree))
    return Cocharacter(lattice=lattice, functional=vec)


def weight_functional(field: CMFieldHandle, mu: Vector) -> Vector:
    """The weight -(iota + 1) mu of an ambient cocharacter vector."""
    moved = _permute(mu, field.act_table[field.iota])
    return tuple(-(a + b) for a, b in zip(mu, moved))


def type_cocharacter(cm_type: CMType) -> Cocharacter:
    """Indicator functional of a CM-type on the full lattice of its field."""
    field = cm_type.field
    members = cm_type.coset_set()
    vec = tuple(1 if c in members else 0 for c in range(field.degree))
    return Cocharacter(lattice=field.full_lattice, functional=vec)


def norm_lattice_map(e1_field: CMFieldHandle, e2_field: CMFieldHandle) -> LatticeMap:
    """Character-lattice map of the norm between Serre tori of nested fields.

    E1 must contain E2 (fixer of E1 inside fixer of E2); a subfield character
    [rho2] maps to the sum of the characters of E1 extending it.
    """
    require_nested(e1_field, e2_field)
    # M[c1][c2] = 1 iff the coset c1 of E1 sits inside the coset c2 of E2
    inside = (e2_field.coset_index(e1_field.coset_rep(c)) for c in range(e1_field.degree))
    matrix = la.freeze([[int(j == c2) for j in range(e2_field.degree)] for c2 in inside])
    source = e2_field.serre_lattice
    target = e1_field.serre_lattice
    out = LatticeMap(source=source, target=target, matrix=matrix)
    # defining property: the norm intertwines the two identity cocharacters
    mu1 = identity_cocharacter(e1_field)
    mu2 = identity_cocharacter(e2_field)
    for row in source.basis:
        if mu2.evaluate(row) != mu1.evaluate(out.apply(row)):
            raise InternalInconsistency("norm map fails its defining equation")
    return out


def reflex_norm_map(cm_type: CMType, e_field: CMFieldHandle) -> LatticeMap:
    """The reflex norm of a CM-type into the Serre lattice of a Galois field E.

    Entry (c_E, c_K) is 1 exactly when sigma^-1 rho lies in phi, for sigma
    representing c_E and rho representing c_K.  The entry does not depend on
    sigma exactly when the fixer of E stabilizes phi, that is when E contains
    the reflex field; otherwise no equivariant lift exists and NoSolution is
    raised.  The matrix is certified equivariant for the whole group, and its
    evaluation row at the identity coset of E is re-checked against phi.
    """
    field = cm_type.field
    _check_context_match(field, e_field)
    _require_galois(e_field)
    # the stabilizer of phi is a subgroup, so it contains the fixer of E
    # exactly when it contains the fixer's generators
    inv, members = field.group.inv, cm_type.coset_set()
    for h in e_field.fixer.generators:
        if not all(field.act_table[h][c] in members for c in cm_type.cosets):
            raise NoSolution(
                "no equivariant lift: the field does not contain the reflex field"
            )
    matrix = la.freeze(
        [
            [1 if c in members else 0 for c in field.act_table[inv(e_field.coset_rep(ce))]]
            for ce in range(e_field.degree)
        ]
    )
    out = LatticeMap(source=field.full_lattice, target=e_field.serre_lattice, matrix=matrix)
    mu_e = identity_cocharacter(e_field)
    for c in range(field.degree):
        col = tuple(row[c] for row in matrix)
        if mu_e.evaluate(col) != (1 if c in members else 0):
            raise InternalInconsistency("reflex norm evaluation row corrupted")
    return out


def mumford_tate_rank(cm_type: CMType) -> int:
    """Character rank of the image torus of the reflex norm from the closure."""
    return reflex_norm_map(cm_type, cm_type.field.closure).image_rank()


def reciprocity_cocharacter(
    t_lattice: CharLattice, mu: Cocharacter, e_field: CMFieldHandle
) -> LatticeMap:
    """Reciprocity map of a pair: restrict mu to E, then norm down.

    The pair must satisfy both axioms: the two orderings of the involution
    act identically on the lattice, and the weight -(iota+1)mu is rational.
    The result maps the pair's lattice into the full character lattice of E,
    sending chi to sum_sigma <chi, sigma mu> [sigma] over embeddings of E.
    """
    if mu.lattice != t_lattice:
        raise NotSerrePair("cocharacter does not live on the given lattice", "input")
    group = e_field.group
    if len(t_lattice.action) != group.order or t_lattice.group not in (None, group):
        raise NotSerrePair("lattice action does not match the ambient group", "input")
    # each axiom is an invariance under the group, certified where the lattice
    # certifies (CharLattice.certified_elements); the fixer likewise
    elements = t_lattice.certified_elements
    fixer = e_field.fixer.elements if t_lattice.group is None else e_field.fixer.generators
    iota = e_field.iota
    p_iota = t_lattice.action[iota]
    for g in elements:
        p_g = t_lattice.action[g]
        gi = tuple(p_g[c] for c in p_iota)  # g after iota
        ig = tuple(p_iota[c] for c in p_g)  # iota after g
        for row in t_lattice.basis:
            if _permute(row, gi) != _permute(row, ig):
                raise NotSerrePair(
                    "the two involution orderings act differently", "commuting"
                )
    moved = mu.translated(iota).functional
    w = Cocharacter(t_lattice, tuple(-(a + b) for a, b in zip(mu.functional, moved)))
    for g in elements:
        if not w.same_on_lattice(w.translated(g).functional):
            raise NotSerrePair("weight of mu is not rational", "weight")
    _require_galois(e_field)
    for h in fixer:
        if not mu.same_on_lattice(mu.translated(h).functional):
            raise NotDefinedOverE("mu is not fixed by the subgroup cutting out E")
    rows = [
        mu.translated(e_field.coset_rep(c)).functional for c in range(e_field.degree)
    ]
    return LatticeMap(
        source=t_lattice,
        target=e_field.full_lattice,
        matrix=la.freeze(rows),
    )


# --- verification reports ---------------------------------------------------


def check_serre_exact_sequence(field: CMFieldHandle) -> dict:
    """Exactness of 0 -> X(S) -> X(E^x) + Z -> X(E0^x) -> 0 on lattices.

    Reports the three ranks (g, 2g+1, g+1) and exactness at every node.
    Requires a totally imaginary field: the sequence degenerates when the
    involution acts trivially.
    """
    if field.is_degenerate:
        raise NotGaloisContext("sequence requires a totally imaginary field")
    _require_galois(field)
    serre = field.serre_lattice
    n = field.degree
    n_real = len(field.iota_pairs)
    # injection: chi |-> (chi, weight(chi)) into Z^n + Z
    w = weight_functional(field, identity_cocharacter(field).functional)
    a_matrix = la.freeze([*la.identity_matrix(n), w])
    # surjection: [rho] |-> [rho restricted], extra generator |-> sum of all
    b_matrix = la.freeze(
        [tuple(1 if x in pair else 0 for x in range(n)) + (1,) for pair in field.iota_pairs]
    )

    image_a = tuple(la.mat_vec(a_matrix, row) for row in serre.basis)
    kernel_b = la.integer_kernel(b_matrix)
    injective = la.rank(image_a) == serre.rank
    middle_exact = la.lattice_equal(image_a, kernel_b)
    surjective = la.image_lattice(b_matrix) == la.identity_matrix(n_real)
    ranks = (n_real, n + 1, serre.rank)
    expected = (field.half_degree, n + 1, field.half_degree + 1)
    return {
        "law": "serre_exact_sequence",
        "field_degree": n,
        "ranks": list(ranks),
        "expected_ranks": list(expected),
        "injective": injective,
        "middle_exact": middle_exact,
        "surjective": surjective,
        "passed": bool(injective and middle_exact and surjective and ranks == expected),
    }


def check_norm_weight_triangle(field: CMFieldHandle) -> dict:
    """(1 + iota) equals minus-weight composed with the full norm on X(S)."""
    _require_galois(field)
    serre = field.serre_lattice
    n = field.degree
    p_iota = field.act_table[field.iota]
    w = weight_functional(field, identity_cocharacter(field).functional)
    ok = all(
        tuple(a + b for a, b in zip(row, _permute(row, p_iota)))
        == (-sum(x * y for x, y in zip(w, row)),) * n
        for row in serre.basis
    )
    return {"law": "norm_weight_triangle", "field_degree": n, "passed": ok}


def check_cm_type_generation(field: CMFieldHandle) -> dict:
    """Indicator vectors of all CM-types generate the Serre sublattice, read
    from the g + 1 types of cmtypes.spanning_types, which span all 2^g."""
    _require_galois(field)
    serre = field.serre_lattice
    spanning = spanning_types(field).values()
    indicators = [[int(c in phi.cosets) for c in range(field.degree)] for phi in spanning]
    # the HNF certificate shows that generated spans the indicators' lattice
    generated = la.hnf_basis(indicators)
    equal = generated == serre.basis
    index = (
        la.lattice_index(generated, serre.basis)
        if la.lattice_contains(serre.basis, generated)
        else None
    )
    return {
        "law": "cm_type_generation",
        "field_degree": field.degree,
        "generated_rank": len(generated),
        "lattice_rank": serre.rank,
        "index": index,
        "passed": bool(equal and index == 1),
    }


def check_reflex_norms(field: CMFieldHandle) -> list[dict]:
    """The reflex norm's compatibilities with translation and with norms down to Galois
    CM subfields E2, on cmtypes.spanning_types: both sides are Z-linear in the type's
    indicator ([sigma^-1 c in phi]), the indicators form a G-stable lattice and right
    translation is an action, so generators and spanning types suffice.  E2 (fixer H2,
    normal) stabilizes the types induced from K' fixed by H2 H, none if iota is in it.
    pairs_checked counts the (type, E2) instances so certified; a failure names a
    spanning type and a generator, or an induced spanning type and E2's fixer."""
    group, closure, spanning = field.group, field.closure, spanning_types(field).values()
    # right translation [x] |-> [x tau^-1]: the closure's coset x is {x}
    rights = {tau: [row[group.inv(tau)] for row in group.table] for tau in group.generators}
    translates = []  # (phi, tau, tau phi), read through the handle's act_table
    try:
        for phi in spanning:
            for tau in rights:
                translates.append((phi, tau, translate_left(tau, phi)))
    except NotACMType:  # the tables are corrupt, not the input
        raise InternalInconsistency("translate is no CM-type", witness=(tau, phi.cosets)) from None
    subfields, checked = [], 0
    for h2 in normal_subgroups(group):
        h2h = {group.mul(x, h) for x in h2.elements for h in field.fixer.elements}
        if h2.order == 1 or field.iota in h2h:
            continue  # the closure itself, or K' totally real (no type)
        e2 = CMFieldHandle(group=group, iota=field.iota, fixer=h2)
        k_cut = CMFieldHandle(group=group, iota=field.iota, fixer=group.subgroup(h2h))
        induced = [induce(field, t) for t in spanning_types(k_cut).values()]
        subfields.append((e2, norm_lattice_map(closure, e2).matrix, induced))
        checked += 2**k_cut.half_degree
    reached = [*spanning, *(image for *_, image in translates)]
    needed = {t.cosets: t for t in reached + [t for *_, induced in subfields for t in induced]}
    matrices = {key: reflex_norm_map(t, closure).matrix for key, t in needed.items()}  # once each
    moved = [
        {"type": list(phi.cosets), "tau": tau}
        for phi, tau, image in translates
        if matrices[image.cosets] != _permute(matrices[phi.cosets], rights[tau])
    ]
    through = [
        {"type": list(t.cosets), "through": list(e2.fixer.elements)}
        for e2, norm, induced in subfields
        for t in induced
        if la.mat_mul(norm, reflex_norm_map(t, e2).matrix) != matrices[t.cosets]
    ]
    return [
        {
            "law": "reflex_norm_translation",
            "field_degree": field.degree,
            "failures": moved,
            "passed": not moved,
        },
        {
            "law": "reflex_norm_through_subfield",
            "pairs_checked": checked,
            "failures": through,
            "passed": not through,
        },
    ]


def serre_report(field: CMFieldHandle) -> dict:
    """Aggregate lattice report for one Galois-presented field."""
    require_enumerable(field)  # guards the CLI's cost (no check enumerates the types)
    serre = field.serre_lattice
    checks = [check_norm_weight_triangle(field)]
    if not field.is_degenerate:
        checks.insert(0, check_serre_exact_sequence(field))
        checks.append(check_cm_type_generation(field))
        checks += check_reflex_norms(field)
    return {
        "degree": field.degree,
        "serre_rank": serre.rank,
        "serre_basis": [list(r) for r in serre.basis],
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
