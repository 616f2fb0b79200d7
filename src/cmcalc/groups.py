"""Finite groups by Cayley table: subgroups, cosets, abelianizations, and
the transfer homomorphism.

Groups are given extensionally and validated exactly at every order.  One
closure walk (intlinalg.generating_set) serves them all: associativity,
subgroup closure, centrality and normality are checked on greedy generators
only.  All values are immutable after construction.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import prod

from .errors import InternalInconsistency, NotAGroup, NotASubgroup, Record
from .intlinalg import closure, generating_set, present_abelian


class FiniteGroup(Record):
    """A finite group on elements 0..order-1 with multiplication table."""

    _fields = ("order", "table", "identity", "names")

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], identity: int,
                 names: tuple[str, ...] | None = None):
        self.__dict__.update(order=order, table=table, identity=identity, names=names)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        # in a group the right inverse is the only one
        return tuple(row.index(self.identity) for row in self.table)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return tuple(generating_set(range(self.order), self.mul, self.identity)[0])

    def is_central(self, a: int) -> bool:
        return all(self.table[a][b] == self.table[b][a] for b in self.generators)

    def elements(self) -> range:
        return range(self.order)

    def subgroup(self, elements) -> "Subgroup":
        elements = tuple(elements)
        # Subgroup refuses what is not an int; a set would first merge a
        # True or a 1.0 into a 1 listed beside it
        if all(type(a) is int for a in elements):
            elements = tuple(sorted(set(elements)))
        return Subgroup(self, elements)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup((self.identity,))


def make_group(table, names=None) -> FiniteGroup:
    """Validate a Cayley table and wrap it as a FiniteGroup.

    Raises NotAGroup on an entry that is not an int in 0..n-1 (a float is
    not truncated, and a bool is refused), and with an offending witness on
    identity, inverse, or associativity failure.  Associativity is exact,
    by Light's test (Clifford-Preston I, 1961): (ab)g = a(bg) for g in a
    generating set, at n^2 k cost.  The g passing it are closed under
    products, and every element is a product of generators.
    """
    tbl = tuple(tuple(row) for row in table)
    n = len(tbl)
    if n == 0:
        raise NotAGroup("empty table")
    for i, row in enumerate(tbl):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if type(x) is not int:
                raise NotAGroup(f"entry {x!r} in row {i} is not an integer")
            if not 0 <= x < n:
                raise NotAGroup(f"entry {x} out of range in row {i}")
    identity = None
    for e in range(n):
        if all(tbl[e][b] == b and tbl[b][e] == b for b in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity")
    for a, row in enumerate(tbl):
        # the first right inverse, else a scan: before associativity is
        # known it need not be the two-sided one
        if identity in row and tbl[row.index(identity)][a] == identity:
            continue
        if not any(row[b] == identity and tbl[b][a] == identity for b in range(n)):
            raise NotAGroup(f"element {a} has no two-sided inverse", witness=(a,))
    names = None if names is None else tuple(str(s) for s in names)
    group = FiniteGroup(order=n, table=tbl, identity=identity, names=names)
    for g in group.generators:  # cached: Light's test walks the group once
        right = [row[g] for row in tbl]  # right[x] = xg
        for a, row in enumerate(tbl):
            # (ab)g against a(bg), for every b at once
            if [right[x] for x in row] != [row[y] for y in right]:
                b = next(b for b in range(n) if right[row[b]] != row[right[b]])
                raise NotAGroup("associativity fails", witness=(a, b, g))
    if names is not None and len(names) != n:
        raise NotAGroup("names length does not match order")
    return group


class Subgroup(Record):
    """A subgroup of a FiniteGroup, as a sorted tuple of element indices."""

    _fields = ("parent", "elements")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]):
        self.__dict__.update(parent=parent, elements=elements)
        for a in self.elements:  # before the frozenset hashes them
            if type(a) is not int:
                raise NotASubgroup(f"element {a!r} is not an integer")
            if not 0 <= a < self.parent.order:
                raise NotASubgroup(f"element {a} out of range")
        members = frozenset(self.elements)
        self.__dict__["_members"] = members
        if self.parent.identity not in members:
            raise NotASubgroup("subgroup must contain the identity")
        # H is closed once H g lies in H for each greedy generator g (read off
        # the walk's edge table); the walk may leave H, not the parent
        g = self.parent
        gens, edges = generating_set(self.elements, g.mul, g.identity)
        self.__dict__["generators"] = tuple(gens)
        for a in self.elements:
            for b, ab in zip(gens, edges[a]):
                if ab not in members:
                    raise NotASubgroup(f"not closed: {a}*{b} escapes")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self._members

    def is_normal(self) -> bool:
        return all(self.normalizes(x) for x in self.parent.generators)

    def normalizes(self, g_elt: int) -> bool:
        g = self.parent
        return all(g.conj(g_elt, h) in self._members for h in self.generators)


def normal_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup, ordered by elements.  A normal subgroup is a union of
    conjugacy classes, and a union of classes generates a normal subgroup, so the
    closure of the trivial one under joining a whole class reaches them all."""
    classes = sorted({tuple(sorted({group.conj(g, x) for g in group.elements()}))
                      for x in group.elements()})
    found = {(group.identity,): group.trivial_subgroup()}

    def join(elements: tuple[int, ...], cls: tuple[int, ...]) -> tuple[int, ...]:
        # a class lies inside a normal subgroup or misses it; otherwise N<cls>
        # is N's elements walked under the class
        if cls[0] in found[elements]:
            return elements
        bigger = tuple(sorted(closure(group.mul, {x: [] for x in elements}, cls)))
        if bigger not in found:
            found[bigger] = group.subgroup(bigger)
        return bigger

    closure(join, {(group.identity,): []}, classes)
    return tuple(found[k] for k in sorted(found))


def left_cosets(group: FiniteGroup, sub: Subgroup) -> tuple[tuple[int, ...], ...]:
    """All left cosets gH, each sorted, ordered by their minimal element."""
    if sub.parent is not group and sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different group")
    seen = set()
    cosets = []
    for g in group.elements():
        if g in seen:
            continue
        coset = tuple(sorted(group.mul(g, h) for h in sub.elements))
        cosets.append(coset)
        seen.update(coset)
    return tuple(cosets)


def coset_of(group: FiniteGroup, sub: Subgroup, g: int) -> int:
    """Index of the left coset gH; field handles keep this as a table."""
    return next(i for i, coset in enumerate(left_cosets(group, sub)) if g in coset)


class AbelianQuotient(Record):
    """H/[H,H] in invariant-factor coordinates.

    ``moduli`` lists the invariant factors > 1 (ascending divisibility);
    values are coordinate tuples, added componentwise modulo the factors.
    The zero tuple is the identity class.
    """

    _fields = ("source", "moduli")

    def __init__(self, source: Subgroup, moduli: tuple[int, ...], _coords: dict):
        self.__dict__.update(source=source, moduli=moduli, _coords=_coords)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def project(self, h: int) -> tuple[int, ...]:
        """Image of a parent element of H in H/[H,H]."""
        return self._coords[h]

    def add(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(u, v, self.moduli))

    @cached_property
    def code(self) -> dict[tuple[int, ...], int]:
        """The code of a class: its index among all classes in lexicographic order."""
        return {u: i for i, u in enumerate(itertools.product(*map(range, self.moduli)))}

    @cached_property
    def sum_table(self) -> tuple[tuple[int, ...], ...]:
        """sum_table[a][b] is the code of the sum of the classes coded a and b."""
        values = list(self.code)
        return tuple(tuple(self.code[self.add(u, v)] for v in values) for u in values)


def abelianization(h: Subgroup) -> AbelianQuotient:
    """Compute H/[H,H] with canonical Smith-normal-form coordinates.

    H's own table, indexed by its ascending elements, is presented modulo
    its nontrivial commutators; the presenter certifies that the kernel is
    the subgroup they generate, which is [H,H]."""
    g, elements = h.parent, h.elements
    index = {x: i for i, x in enumerate(elements)}
    commutators = {g.mul(g.mul(a, b), g.inv(g.mul(b, a))) for a in elements for b in elements}
    moduli, coords = present_abelian(
        len(elements),
        lambda a, b: index[g.mul(elements[a], elements[b])],
        index[g.identity],
        killed=sorted(index[c] for c in commutators - {g.identity}),
    )
    return AbelianQuotient(source=h, moduli=moduli, _coords=dict(zip(elements, coords)))


def transfer_product(
    group: FiniteGroup, sub: Subgroup, g: int, reps: tuple[int, ...] | None = None
) -> int:
    """Product of transfer factors over the cosets the representatives name,
    as an element of H.

    With left-coset representatives t_i, each factor is t_j^-1 g t_i where
    t_j represents the coset of g t_i.  The product is taken in the order of
    ``reps``, by default the least element of each left coset of H in G; it
    is well defined in H only up to [H,H].  Over the cosets that make up a
    subgroup K containing g, it is the transfer from K to H.
    """
    if sub.parent != group:
        raise NotASubgroup("subgroup belongs to a different group")
    if type(g) is not int or not 0 <= g < group.order:
        raise NotASubgroup(f"element {g!r} is not an element of the group")
    if reps is None:
        reps = tuple(c[0] for c in left_cosets(group, sub))
    if not all(type(t) is int and 0 <= t < group.order for t in reps):
        raise NotASubgroup("representatives must be elements of the group")
    lookup = {group.mul(t, h): i for i, t in enumerate(reps) for h in sub.elements}
    if len(lookup) != len(reps) * sub.order:
        raise NotASubgroup("representatives share a coset")
    out = group.identity
    for t in reps:
        gt = group.mul(g, t)
        if gt not in lookup:
            raise NotASubgroup(f"element {g} leaves the represented cosets")
        h = group.mul(group.inv(reps[lookup[gt]]), gt)
        if h not in sub:
            raise InternalInconsistency("transfer factor escaped the subgroup")
        out = group.mul(out, h)
    return out


def transfer(
    group: FiniteGroup,
    sub: Subgroup,
    g: int,
    quotient: AbelianQuotient | None = None,
    reps: tuple[int, ...] | None = None,
) -> tuple[int, ...]:
    """Transfer homomorphism value of g in H/[H,H] coordinates.

    Independent of the choice of coset representatives; pass a precomputed
    ``quotient`` when sweeping many elements.
    """
    if quotient is None:
        quotient = abelianization(sub)
    return quotient.project(transfer_product(group, sub, g, reps))


# --- standard constructors ------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return make_group(table)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Product group on index pairs (a, b) -> a * |g2| + b."""
    n1, n2 = g1.order, g2.order
    table = [
        [
            g1.mul(a1, b1) * n2 + g2.mul(a2, b2)
            for b1 in range(n1)
            for b2 in range(n2)
        ]
        for a1 in range(n1)
        for a2 in range(n2)
    ]
    return make_group(table)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n; index a + n*e encodes r^a s^e."""

    def mul(x, y):
        a, e = x % n, x // n
        b, f = y % n, y // n
        if e == 0:
            return (a + b) % n + n * f
        return (a - b) % n + n * ((e + f) % 2)

    table = [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]
    names = [f"r{a}" if a > 1 else ("1" if a == 0 else "r") for a in range(n)]
    names += [("s" if a == 0 else ("rs" if a == 1 else f"r{a}s")) for a in range(n)]
    return make_group(table, names=names)
