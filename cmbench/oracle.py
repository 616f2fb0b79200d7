"""Computations the benchmark makes on its own, to check cmcalc's reports.

Nothing here imports cmcalc.  Groups are Cayley tables on 0..n-1 with the
index conventions cmcalc documents: a direct product puts (a, b) at
a * |G2| + b, and the dihedral group of order 2n puts r^a s^e at a + n e.
The dihedral table is derived from the affine maps x -> (-1)^e x + a of
Z/n rather than from a multiplication formula.  Quadratic rings are
Z[w] with w^2 = s w + t; elements are pairs (a, b) meaning a + b w.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

# --- finite groups -----------------------------------------------------------


def cyclic(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def dihedral(n: int) -> list[list[int]]:
    def as_map(x):
        return (-1 if x >= n else 1, x % n)  # x -> sign * y + shift

    def index(sign, shift):
        return shift % n + (n if sign < 0 else 0)

    table = []
    for x in range(2 * n):
        sx, ax = as_map(x)
        row = []
        for y in range(2 * n):
            sy, ay = as_map(y)
            # (x o y)(z) = sx (sy z + ay) + ax
            row.append(index(sx * sy, sx * ay + ax))
        table.append(row)
    return table


def direct_product(t1, t2) -> list[list[int]]:
    n1, n2 = len(t1), len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(n1) for b2 in range(n2)]
        for a1 in range(n1)
        for a2 in range(n2)
    ]


class Context:
    """A CM field given by (Cayley table, central involution, fixing subgroup)."""

    def __init__(self, table, iota: int, fixer):
        self.table = table
        self.order = len(table)
        self.identity = next(
            e for e in range(self.order) if all(table[e][x] == x for x in range(self.order))
        )
        self.inv = [
            next(y for y in range(self.order) if table[x][y] == self.identity)
            for x in range(self.order)
        ]
        self.iota = iota
        self.fixer = tuple(sorted(fixer))
        self.cosets = left_cosets(table, self.fixer)
        self.coset_of = {g: i for i, c in enumerate(self.cosets) for g in c}
        self.degree = len(self.cosets)
        self.pairs = []
        seen = set()
        for c in range(self.degree):
            if c not in seen:
                ic = self.act(iota, c)
                self.pairs.append((c, ic))
                seen.update((c, ic))

    def mul(self, a, b):
        return self.table[a][b]

    def act(self, g, c):
        return self.coset_of[self.table[g][self.cosets[c][0]]]

    def closure(self) -> "Context":
        return Context(self.table, self.iota, (self.identity,))

    def is_galois(self) -> bool:
        h = set(self.fixer)
        return all(
            self.mul(self.mul(g, x), self.inv[g]) in h for g in range(self.order) for x in h
        )

    def is_cm_type(self, phi) -> bool:
        chosen = set(phi)
        return len(chosen) == len(phi) and all(
            (c in chosen) != (ic in chosen) for c, ic in self.pairs
        )

    def cm_types(self) -> list[tuple[int, ...]]:
        return [
            tuple(sorted(pair[k] for pair, k in zip(self.pairs, pick)))
            for pick in product((0, 1), repeat=len(self.pairs))
        ]

    def stabilizer(self, phi) -> tuple[int, ...]:
        members = set(phi)
        return tuple(
            g for g in range(self.order) if all(self.act(g, c) in members for c in phi)
        )

    def reflex_type(self, phi) -> tuple[int, ...]:
        """Cosets of the stabilizer S inside {x : x^-1 H lies in phi}."""
        members = set(phi)
        pool = {x for x in range(self.order) if self.coset_of[self.inv[x]] in members}
        s_cosets = left_cosets(self.table, self.stabilizer(phi))
        return tuple(i for i, c in enumerate(s_cosets) if set(c) <= pool)

    def is_primitive(self, phi) -> bool:
        """Primitive iff {h : Phi h = Phi} is the fixer, Phi the union of phi's cosets."""
        lifted = {g for c in phi for g in self.cosets[c]}
        right_stab = [
            h for h in range(self.order) if {self.mul(g, h) for g in lifted} == lifted
        ]
        return tuple(right_stab) == self.fixer

    def closure_reflex_matrix(self, phi):
        """Row sigma, column c: 1 exactly when sigma^-1 maps rep(c) into phi."""
        members = set(phi)
        return [
            [
                1 if self.coset_of[self.mul(self.inv[s], self.cosets[c][0])] in members else 0
                for c in range(self.degree)
            ]
            for s in range(self.order)
        ]

    def abelianization_order(self) -> int:
        h = self.fixer
        comms = {
            self.mul(self.mul(a, b), self.inv[self.mul(b, a)]) for a in h for b in h
        }
        return len(h) // len(generated(self.table, comms, self.identity))


def left_cosets(table, sub) -> list[tuple[int, ...]]:
    """Left cosets gH, each sorted, listed by their minimal element."""
    seen, out = set(), []
    for g in range(len(table)):
        if g not in seen:
            coset = tuple(sorted(table[g][h] for h in sub))
            out.append(coset)
            seen.update(coset)
    return out


def generated(table, gens, identity) -> set[int]:
    seen, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def rank_q(rows) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def battery() -> dict[str, Context]:
    """The built-in contexts cmcalc names C2, C4, C2xC2, C2xC4 and D4."""
    return {
        "C2": Context(cyclic(2), 1, [0]),
        "C4": Context(cyclic(4), 2, [0]),
        "C2xC2": Context(direct_product(cyclic(2), cyclic(2)), 3, [0]),
        "C2xC4": Context(direct_product(cyclic(2), cyclic(4)), 4, [0, 1, 2, 3]),
        "D4": Context(dihedral(4), 2, [0, 4]),
    }


def order16() -> Context:
    """D4 x C2 with iota 4 and fixer {0, 8}: a degree-8 CM field."""
    return Context(direct_product(dihedral(4), cyclic(2)), 4, [0, 8])


# --- imaginary quadratic rings ----------------------------------------------


class QuadRing:
    """The maximal order of Q(sqrt(d)) as Z[w], w^2 = s w + t."""

    def __init__(self, d: int):
        self.d = d
        if d % 4 == 1:
            self.s, self.t, self.disc = 1, (d - 1) // 4, d
        else:
            self.s, self.t, self.disc = 0, d, 4 * d
        self.units = [
            (a, b) for a in range(-2, 3) for b in range(-2, 3) if self.norm((a, b)) == 1
        ]

    def mul(self, x, y):
        (a1, b1), (a2, b2) = x, y
        return (a1 * a2 + b1 * b2 * self.t, a1 * b2 + b1 * a2 + b1 * b2 * self.s)

    def power(self, x, k):
        out = (1, 0)
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def norm(self, x) -> int:
        a, b = x
        return a * a + self.s * a * b - self.t * b * b


class Residues:
    """O / m for m with Hermite basis Z n + Z (c + dd w)."""

    def __init__(self, ring: QuadRing, n: int, c: int, dd: int):
        self.ring, self.n, self.c, self.dd = ring, n, c, dd

    def reduce(self, x):
        q, r = divmod(x[1], self.dd)
        return ((x[0] - q * self.c) % self.n, r)

    def is_ideal(self) -> bool:
        w = (0, 1)
        return all(
            self.reduce(self.ring.mul(g, w)) == (0, 0) for g in ((self.n, 0), (self.c, self.dd))
        )

    def elements(self):
        return [(a, b) for b in range(self.dd) for a in range(self.n)]

    def ray_class_order_counts(self) -> dict[int, int]:
        """Element orders in (O/m)^x modulo the image of the global units."""
        mul = lambda x, y: self.reduce(self.ring.mul(x, y))  # noqa: E731
        one = self.reduce((1, 0))
        elems = self.elements()
        invertible = [x for x in elems if any(mul(x, y) == one for y in elems)]
        image = {self.reduce(u) for u in self.ring.units}
        classes = {}
        for x in invertible:
            classes.setdefault(min(mul(x, w) for w in image), x)
        counts: dict[int, int] = {}
        for x in classes.values():
            k, y = 1, x
            while y not in image:
                y, k = mul(y, x), k + 1
            counts[k] = counts.get(k, 0) + 1
        return counts


def order_counts(invariants) -> dict[int, int]:
    """Element orders of Z/d1 x ... x Z/dr."""
    counts: dict[int, int] = {}
    for x in product(*(range(d) for d in invariants)):
        k = 1
        for xi, d in zip(x, invariants):
            k = math.lcm(k, d // math.gcd(xi, d))
        counts[k] = counts.get(k, 0) + 1
    return counts


# --- elliptic curves over F_p ------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def prime_factors(n: int) -> list[int]:
    n, out, f = abs(n), [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + ([n] if n > 1 else [])


def euler_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def trace_of_frobenius(a4: int, a6: int, p: int) -> int:
    """a_p = -sum_x ((x^3 + a4 x + a6) / p), by Euler's criterion."""
    return -sum(euler_symbol(x * x * x + a4 * x + a6, p) for x in range(p))


def splitting(disc: int, p: int) -> str:
    if disc % p == 0:
        return "ramified"
    if p == 2:
        return "split" if disc % 8 == 1 else "inert"
    return "split" if euler_symbol(disc, p) == 1 else "inert"
