"""CM fields and CM-types as finite Galois data.

A CM field K is presented by a handle (G, iota, H): an ambient finite group
G, a central involution iota (complex conjugation), and the subgroup H
fixing K.  Embeddings of K correspond to left cosets G/H, and a CM-type is
a set of cosets meeting each iota-orbit exactly once.  Everything downstream
(reflex fields, reflex types, translation, induction) is coset combinatorics
inside the one ambient group.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import (
    CMError,
    InternalInconsistency,
    NotACMType,
    NotAnAutomorphismOfK,
    NotAnInteger,
    NotNested,
    Record,
)
from .groups import (
    AbelianQuotient,
    FiniteGroup,
    Subgroup,
    abelianization,
    cyclic_group,
    left_cosets,
)

if TYPE_CHECKING:
    from array import array


class CMFieldHandle(Record):
    """A CM field K = L^H inside a fixed Galois closure with group G.

    Invariants: iota is a central involution of G not contained in H.  The
    order-1 group with iota the identity is admitted as the degenerate
    rational context (used only for lattice-rank anchors).
    """

    _fields = ("group", "iota", "fixer")

    def __init__(self, group: FiniteGroup, iota: int, fixer: Subgroup):
        self.__dict__.update(group=group, iota=iota, fixer=fixer)
        g = self.group
        if self.fixer.parent != g:
            raise CMError("fixing subgroup belongs to a different group")
        if type(self.iota) is not int:
            raise NotAnInteger(f"iota {self.iota!r} is not an integer", witness=self.iota)
        if not 0 <= self.iota < g.order:
            raise CMError(f"iota {self.iota} out of range 0..{g.order - 1}")
        if g.order == 1:
            if self.iota != g.identity:
                raise CMError("trivial context must use the identity involution")
            return
        if self.iota == g.identity:
            raise CMError("iota must differ from the identity")
        if g.mul(self.iota, self.iota) != g.identity:
            raise CMError("iota must be an involution")
        if not g.is_central(self.iota):
            raise CMError("iota must be central")
        if self.iota in self.fixer:
            raise CMError("iota must move K (K is not totally real)")

    @classmethod
    def rational(cls) -> "CMFieldHandle":
        """Degenerate handle for the rational field (trivial context)."""
        g = cyclic_group(1)
        return cls(group=g, iota=0, fixer=g.trivial_subgroup())

    @property
    def is_degenerate(self) -> bool:
        return self.group.order == 1

    @cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        return left_cosets(self.group, self.fixer)

    @property
    def degree(self) -> int:
        """[K : Q] = number of embedding cosets."""
        return len(self.cosets)

    @property
    def half_degree(self) -> int:
        return self.degree // 2

    @cached_property
    def coset_table(self) -> tuple[int, ...]:
        """coset_table[g] is the index of the embedding coset gH."""
        table = [0] * self.group.order
        for i, coset in enumerate(self.cosets):
            for g in coset:
                table[g] = i
        return tuple(table)

    @cached_property
    def act_table(self) -> tuple[tuple[int, ...], ...]:
        """act_table[g][c] is the left translate of embedding coset c by g."""
        index, reps = self.coset_table, [c[0] for c in self.cosets]
        return tuple(tuple(index[row[r]] for r in reps) for row in self.group.table)

    @cached_property
    def full_lattice(self) -> serre.CharLattice:
        """Z^Sigma acted on by act_table's coset permutations (see
        serre.full_character_lattice)."""
        return serre.full_character_lattice(self)

    @cached_property
    def serre_lattice(self) -> serre.CharLattice:
        """The Serre sublattice (see serre.serre_character_lattice)."""
        return serre.serre_character_lattice(self)

    @cached_property
    def closure(self) -> CMFieldHandle:
        """The Galois closure: the same context with trivial fixer."""
        if self.fixer.order == 1:
            return self
        g = self.group
        return CMFieldHandle(group=g, iota=self.iota, fixer=g.trivial_subgroup())

    @cached_property
    def quotient(self) -> AbelianQuotient:
        """H/[H,H] for the fixing subgroup, where cocycles take values."""
        return abelianization(self.fixer)

    @cached_property
    def canonical_w_system(self) -> cocycle.WSystem:
        """The canonical representative system (see cocycle.choose_w_system)."""
        return cocycle.choose_w_system(self)

    @cached_property
    def cm_types(self) -> tuple[CMType, ...]:
        """All 2^g CM-types, in the deterministic binary order of iota-pair
        choices; enumerate_cm_types checks the size bound first.  One coset of
        each iota-pair is a half-system by construction, so none is validated."""
        return tuple(
            CMType(self, tuple(pair[k] for pair, k in zip(self.iota_pairs, pick)))
            for pick in itertools.product((0, 1), repeat=len(self.iota_pairs))
        )

    @cached_property
    def type_translation(self) -> tuple[array, ...]:
        """type_translation[tau][i] is the index of tau*cm_types[i].  Bit g-1-k of i
        picks the member of iota-pair k, and as iota is central, tau permutes the
        pairs, so a row is a bit permutation of i XORed with a flip mask.  The rows
        are arrays of C unsigned ints, which the handle keeps at 4 bytes an entry."""
        from array import array  # a shared library that only the sweeps need

        require_enumerable(self)
        pairs, g = self.iota_pairs, len(self.iota_pairs)
        where = {c: (g - 1 - k, s) for k, pair in enumerate(pairs) for s, c in enumerate(pair)}
        table = []
        for tau, row in enumerate(self.act_table):
            perm, mask = [0], 0
            for c, d in reversed(pairs):  # pair weights from low to high
                bit, side = where[row[c]]
                if row[d] != pairs[g - 1 - bit][1 - side]:
                    raise InternalInconsistency("translation split an iota-pair", witness=(tau, c))
                perm += [x | 1 << bit for x in perm]
                mask |= side << bit
            table.append(array("I", [x ^ mask for x in perm]))
        return tuple(table)

    def coset_index(self, g_elt: int) -> int:
        return self.coset_table[g_elt]

    def coset_rep(self, idx: int) -> int:
        return self.cosets[idx][0]

    def act(self, g_elt: int, idx: int) -> int:
        """Left translation of an embedding coset by a group element."""
        return self.act_table[g_elt][idx]

    @cached_property
    def identity_coset(self) -> int:
        return self.coset_index(self.group.identity)

    @cached_property
    def iota_pairs(self) -> tuple[tuple[int, int], ...]:
        """Orbits {c, iota c} on embedding cosets, ordered by first member."""
        if self.is_degenerate:
            return ()
        pairs = []
        seen = set()
        for c in range(self.degree):
            if c in seen:
                continue
            d = self.act(self.iota, c)
            if d == c:
                raise InternalInconsistency("iota fixes an embedding coset")
            pairs.append((c, d))
            seen.update((c, d))
        return tuple(pairs)

    def is_galois(self) -> bool:
        """Whether K itself is Galois over the rationals (H normal in G)."""
        return self.fixer.is_normal()


class CMType(Record):
    """Half-system of embedding cosets: phi together with iota*phi covers all."""

    _fields = ("field", "cosets")

    def __init__(self, field: CMFieldHandle, cosets: tuple[int, ...]):
        if field.is_degenerate:
            raise NotACMType("degenerate rational context carries no CM-types")
        self.__dict__.update(field=field, cosets=tuple(sorted(cosets)))

    def coset_set(self) -> frozenset[int]:
        return frozenset(self.cosets)


def validate_cm_type(field: CMFieldHandle, subset) -> CMType:
    """Check the half-system condition and return the validated CMType."""
    subset = tuple(subset)
    for c in subset:
        # int() would truncate 1.7 to 1 and count True as 1
        if type(c) is not int:
            raise NotACMType(f"coset {c!r} is not an integer", witness=c)
    chosen = sorted(set(subset))
    n = field.degree
    for c in chosen:
        if not 0 <= c < n:
            raise NotACMType(f"coset index {c} out of range", witness=c)
    members = set(chosen)
    for c in chosen:
        ic = field.act(field.iota, c)
        if ic in members:
            raise NotACMType(
                f"coset {c} and its conjugate {ic} both selected", witness=c
            )
    if len(chosen) != field.half_degree:
        missing = next(
            (
                c
                for c in range(n)
                if c not in members and field.act(field.iota, c) not in members
            ),
            None,
        )
        raise NotACMType(
            f"{len(chosen)} cosets selected, expected {field.half_degree}",
            witness=missing,
        )
    return CMType(field=field, cosets=tuple(chosen))


# 2^16 = 65 536 types (the order-32 closures) is the most any report sweeps
MAX_HALF_DEGREE = 16


def require_enumerable(field: CMFieldHandle) -> None:
    """Raise CMError when the field has more than 2^MAX_HALF_DEGREE CM-types."""
    if field.half_degree > MAX_HALF_DEGREE:
        raise CMError(f"2^{field.half_degree} CM-types exceed the enumeration bound")


def _check_context_match(a: CMFieldHandle, b: CMFieldHandle) -> None:
    if a.group != b.group or a.iota != b.iota:
        raise NotNested("fields live in different ambient contexts")


def require_nested(big: CMFieldHandle, small: CMFieldHandle) -> None:
    """Raise NotNested unless big contains small, tested on big's fixer's generators."""
    _check_context_match(big, small)
    if not all(h in small.fixer for h in big.fixer.generators):
        raise NotNested("first field does not contain the second")


def enumerate_cm_types(field: CMFieldHandle) -> tuple[CMType, ...]:
    """All 2^g CM-types of the field (field.cm_types), after the size bound; none
    in the degenerate rational context, where CMType refuses to be built."""
    require_enumerable(field)
    return field.cm_types


def spanning_types(field: CMFieldHandle) -> dict[int, CMType]:
    """Phi_0 (the first coset of every iota-pair) and its g single-pair flips, keyed by their
    indices 0 and 2^(g-1-k) in field.cm_types; every indicator is Phi_0's plus flip differences."""
    first, g = [c for c, _ in field.iota_pairs], field.half_degree
    out = {0: CMType(field, tuple(first))}
    for k, (_, d) in enumerate(field.iota_pairs):
        out[1 << (g - 1 - k)] = CMType(field, (*first[:k], d, *first[k + 1:]))
    return out


def translate_left(tau: int, cm_type: CMType) -> CMType:
    field = cm_type.field
    return validate_cm_type(field, (field.act(tau, c) for c in cm_type.cosets))


def translate_right(sigma: int, cm_type: CMType) -> CMType:
    """The type phi*sigma, defined when sigma normalizes the fixing subgroup."""
    field = cm_type.field
    g = field.group
    if not field.fixer.normalizes(sigma):
        raise NotAnAutomorphismOfK(
            f"element {sigma} does not normalize the fixing subgroup"
        )
    moved = (
        field.coset_index(g.mul(field.coset_rep(c), sigma)) for c in cm_type.cosets
    )
    return validate_cm_type(field, moved)


def stabilizer(cm_type: CMType) -> Subgroup:
    """{g in G : g*phi == phi}, the subgroup cutting out the reflex field."""
    field = cm_type.field
    members = cm_type.coset_set()
    elts = [
        g
        for g, row in enumerate(field.act_table)
        if all(row[c] in members for c in cm_type.cosets)
    ]
    return field.group.subgroup(elts)


def reflex_field(cm_type: CMType) -> CMFieldHandle:
    """Handle of the reflex field, in the same ambient context."""
    stab = stabilizer(cm_type)
    if cm_type.field.iota in stab:
        raise InternalInconsistency("iota stabilizes a CM-type")
    return CMFieldHandle(group=cm_type.field.group, iota=cm_type.field.iota, fixer=stab)


def reflex_type(cm_type: CMType) -> CMType:
    """The induced CM-type on the reflex field.

    The set {g : coset(g^-1) in phi} is a union of left cosets of the
    stabilizer; those cosets, read as embeddings of the reflex field, form
    its CM-type.
    """
    field = cm_type.field
    g = field.group
    e_field = reflex_field(cm_type)
    members = cm_type.coset_set()
    pool = [x for x in g.elements() if field.coset_index(g.inv(x)) in members]
    if len(pool) % e_field.fixer.order != 0:
        raise InternalInconsistency("inverse set is not a union of reflex cosets")
    chosen = sorted({e_field.coset_index(x) for x in pool})
    covered = sorted(x for c in chosen for x in e_field.cosets[c])
    if covered != sorted(pool):
        raise InternalInconsistency("inverse set is not a union of reflex cosets")
    return validate_cm_type(e_field, chosen)


def induce(big_field: CMFieldHandle, small_type: CMType) -> CMType:
    """Pull a CM-type back along the coset projection of nested fields."""
    small_field = small_type.field
    require_nested(big_field, small_field)
    members = small_type.coset_set()
    inside = (small_field.coset_index(big_field.coset_rep(c)) for c in range(big_field.degree))
    lifted = [c for c, c2 in enumerate(inside) if c2 in members]
    return validate_cm_type(big_field, lifted)


def restricts_to(cm_type: CMType, small_field: CMFieldHandle) -> CMType | None:
    """The CM-type on a subfield inducing this one, or None if there is none."""
    big_field = cm_type.field
    require_nested(big_field, small_field)
    projected = sorted(
        {small_field.coset_index(big_field.coset_rep(c)) for c in cm_type.cosets}
    )
    try:
        candidate = validate_cm_type(small_field, projected)
    except NotACMType:
        return None
    if induce(big_field, candidate).cosets != cm_type.cosets:
        return None
    return candidate


def is_primitive(cm_type: CMType) -> bool:
    """True when the type is induced from no proper CM subfield, that is when the right
    stabilizer {s : Phi~ s = Phi~} of phi's preimage Phi~ in G is the fixer H: phi is
    induced from the field fixed by H' > H exactly when Phi~ H' = Phi~, and iota is in
    no such H', as Phi~ iota = iota Phi~ is disjoint from Phi~."""
    field = cm_type.field
    group, lifted = field.group, {x for c in cm_type.cosets for x in field.cosets[c]}
    right = (s for s in group.elements() if all(group.mul(x, s) in lifted for x in lifted))
    return tuple(right) == field.fixer.elements


# the handle's lattices and representative systems live in serre and
# cocycle, which import this module first; importing either Galois module
# loads the whole Galois half
from . import cocycle, serre  # noqa: E402
