"""Galois-side cocycles of CM-types, valued in H/[H,H].

For a field handle (G, iota, H) and a system of coset representatives
w_rho with w_rho H = rho and w_{iota rho} = iota w_rho, the cocycle of a
CM-type phi at tau is the product over phi of w_{tau rho}^-1 tau w_rho,
projected to H/[H,H].  Each factor lies in H and the projection is a
homomorphism on H, so the value is the sum of the projected factors: a
representative system holds one factor table, and every value below is a
sum read from it.  The value does not depend on the representative
system, satisfies the cocycle law in the type argument, and combines with
the complementary type to the transfer homomorphism.  All three are linear
in the type: they are checked on the factor tables, not per type.
"""

from __future__ import annotations

import random
from functools import cached_property

from .cmtypes import CMFieldHandle, CMType, enumerate_cm_types, stabilizer
from .errors import CMError, FactorNotInH, InternalInconsistency, NotAnInteger, Record
from .groups import Subgroup, transfer, transfer_product

CocycleValue = tuple[int, ...]
"""Coordinates in the invariant-factor presentation of H/[H,H]."""


class WSystem(Record):
    """Coset representatives w_c, one per embedding coset, paired under iota."""

    _fields = ("field", "reps")

    def __init__(self, field: CMFieldHandle, reps: tuple[int, ...]):
        self.__dict__.update(field=field, reps=reps)
        g = field.group
        if len(self.reps) != field.degree:
            raise CMError("one representative per embedding coset required")
        for w in self.reps:  # all of them before the pairing reads reps[iota c]
            if type(w) is not int:
                raise NotAnInteger(f"representative {w!r} is not an integer", witness=w)
        for c, w in enumerate(self.reps):
            if field.coset_index(w) != c:
                raise CMError(f"representative {w} is not in coset {c}")
            ic = field.act(field.iota, c)
            if self.reps[ic] != g.mul(field.iota, w):
                raise CMError(f"conjugation constraint fails at coset {c}")

    @cached_property
    def factors(self) -> tuple[tuple[CocycleValue, ...], ...]:
        """factors[tau][c] is w_{tau c}^-1 tau w_c projected to H/[H,H].

        Raises FactorNotInH when a factor leaves the fixing subgroup, which
        a representative outside its coset causes.
        """
        field = self.field
        g, reps, project = field.group, self.reps, field.quotient.project
        table = []
        for tau, moved in enumerate(field.act_table):
            row = []
            for c, w in enumerate(reps):
                factor = g.mul(g.inv(reps[moved[c]]), g.mul(tau, w))
                if factor not in field.fixer:
                    raise FactorNotInH(
                        f"factor of {tau} at coset {c} lies outside the fixing subgroup",
                        witness=(tau, c),
                    )
                row.append(project(factor))
            table.append(tuple(row))
        return tuple(table)

    @cached_property
    def codes(self) -> list[list[int]]:
        """codes[c][tau] is the code (AbelianQuotient.code) of factors[tau][c]."""
        code = self.field.quotient.code
        return [[code[f] for f in column] for column in zip(*self.factors)]

    def value(self, tau: int, cosets) -> CocycleValue:
        """Sum of the factors at tau over a set of cosets."""
        row = self.factors[tau]
        moduli = self.field.quotient.moduli
        return tuple(sum(row[c][i] for c in cosets) % d for i, d in enumerate(moduli))

    def value_rows(self, choices) -> list[list[int]]:
        """Code rows (AbelianQuotient.code, one per tau) of the factor sums over each
        pick of one coset per choice, in binary order, first choice highest; over
        field.iota_pairs, row i is the value of field.cm_types[i]."""
        sums, codes = self.field.quotient.sum_table, self.codes
        rows = [[0] * self.field.group.order]
        for choice in choices:
            rows = [[sums[a][b] for a, b in zip(r, codes[c])] for r in rows for c in choice]
        return rows


def choose_w_system(field: CMFieldHandle, seed: int | None = None) -> WSystem:
    """Pick representatives on one coset per iota-pair and extend by iota.

    ``seed=None`` gives the canonical system (minimal elements); an integer
    seed draws the free half uniformly at random, reproducibly.
    """
    g = field.group
    rng = random.Random(seed) if seed is not None else None
    reps = [-1] * field.degree
    for c, ic in field.iota_pairs:
        w = field.cosets[c][0] if rng is None else rng.choice(field.cosets[c])
        reps[c] = w
        reps[ic] = g.mul(field.iota, w)
    return WSystem(field=field, reps=tuple(reps))


def taniyama_cocycle(cm_type: CMType, tau: int, wsys: WSystem) -> CocycleValue:
    """Value of the type cocycle at tau, in H/[H,H] coordinates."""
    if wsys.field is not cm_type.field and wsys.field != cm_type.field:
        raise CMError("w-system belongs to a different field")
    return wsys.value(tau, cm_type.cosets)


def check_rep_independence(
    cm_type: CMType,
    trials: int = 100,
    seed: int = 0,
    extra_system: WSystem | None = None,
) -> dict:
    """The cocycle is identical across random representative systems.

    ``extra_system`` joins the comparison; passing a corrupted system (one
    violating the conjugation pairing) is the intended negative control.
    """
    field, single = cm_type.field, [(c,) for c in cm_type.cosets]
    systems = _random_systems(field, trials, seed, extra_system)
    return _rep_independence(field, [cm_type], trials, systems, single)[0]


def _random_systems(field: CMFieldHandle, trials: int, seed: int, extra_system):
    """(trial, system) pairs, drawn lazily; the extra system, if any, is trial -1."""
    for k in range(trials):
        yield k, choose_w_system(field, seed=seed * 100003 + k)
    if extra_system is not None:
        yield -1, extra_system


def _rep_independence(field: CMFieldHandle, types, trials: int, systems, choices) -> list[dict]:
    """One report per type, comparing each system's value rows over the choices
    with the canonical ones.  Every pick of one coset per choice is the pick of
    the first members with some of them swapped for another member, so all rows
    agree exactly when, at each tau, the first members sum as they do canonically
    and f'(x) + f(c) == f'(c) + f(x) for each choice's first member c and other
    members x (f' the system's factors, f the canonical ones).  Only a system that
    fails builds its value rows, and only a row that differs is walked for its tau."""
    sums, canonical = field.quotient.sum_table, field.canonical_w_system
    base, baseline, values = canonical.codes, None, list(field.quotient.code)

    def first_sum(codes):
        total = [0] * field.group.order
        for first, *_ in choices:
            total = [sums[s][u] for s, u in zip(total, codes[first])]
        return total

    base_sum, failures = first_sum(base), [[] for _ in types]
    for k, wsys in systems:
        if wsys.field is not field and wsys.field != field:
            raise CMError("w-system belongs to a different field")
        mine = wsys.codes
        if all(
            sums[u][v] == sums[y][z]
            for first, *others in choices for x in others
            for u, v, y, z in zip(mine[x], base[first], mine[first], base[x])
        ) and first_sum(mine) == base_sum:
            continue
        baseline = baseline or canonical.value_rows(choices)
        for base_row, row, found in zip(baseline, wsys.value_rows(choices), failures):
            if row != base_row:
                found += (
                    {"tau": tau, "trial": k, "value": list(values[v])}
                    for tau, (v, b) in enumerate(zip(row, base_row)) if v != b
                )
    return [
        {"law": "cocycle_rep_independence", "type": list(t.cosets), "trials": trials,
         "failures": found, "passed": not found}
        for t, found in zip(types, failures)
    ]


def check_cocycle_law(field: CMFieldHandle) -> dict:
    """F_phi(sigma tau) == F_{tau phi}(sigma) + F_phi(tau) for the 2^g types and |G|^2 pairs
    that ``checked`` counts: the sum over phi of the factor law f(sigma tau, c) == f(sigma,
    tau c) + f(tau, c), one row over sigma per (tau, c); types are summed where it fails."""
    g, wsys, act = field.group, field.canonical_w_system, field.act_table
    code, sums, codes = field.quotient.code, field.quotient.sum_table, wsys.codes
    bad = set()
    for tau, column in enumerate(zip(*g.table)):  # column[sigma] = sigma tau
        for c, row in enumerate(codes):
            shift, moved = sums[row[tau]], codes[act[tau][c]]
            bad.update((tau, s) for s, x in enumerate(column) if row[x] != shift[moved[s]])
    types = enumerate_cm_types(field) if bad else ()
    failures = [
        {"type": list(phi), "sigma": sigma, "tau": tau}
        for phi in (t.cosets for t in types) for tau, sigma in sorted(bad)
        if code[wsys.value(g.mul(sigma, tau), phi)]
        != sums[code[wsys.value(sigma, [act[tau][c] for c in phi])]][code[wsys.value(tau, phi)]]
    ]
    return {
        "law": "cocycle_law",
        "checked": 2 ** len(field.iota_pairs) * g.order**2,
        "failures": failures,
        "passed": not failures,
    }


def check_transfer_identity(field: CMFieldHandle) -> dict:
    """F_phi(tau) + F_{iota phi}(tau) equals the transfer of tau for the 2^g types and |G|
    elements that ``checked`` counts: phi and iota phi cover each coset once, so the sum
    is that of all factors at tau for every type, and a failing tau fails every type."""
    g, wsys = field.group, field.canonical_w_system
    transfers = (transfer(g, field.fixer, tau, quotient=field.quotient) for tau in g.elements())
    bad = [tau for tau, t in enumerate(transfers) if wsys.value(tau, range(field.degree)) != t]
    types = enumerate_cm_types(field) if bad else ()
    failures = [{"type": list(t.cosets), "tau": tau} for t in types for tau in bad]
    return {
        "law": "transfer_identity",
        "checked": 2 ** len(field.iota_pairs) * g.order,
        "failures": failures,
        "passed": not failures,
    }


def check_reflex_compatibility(cm_type: CMType) -> dict:
    """Orbitwise transfer description of the cocycle on the reflex stabilizer.

    For tau fixing the type, the sum of the cocycle factors over each
    stabilizer orbit equals a conjugated transfer: with S the stabilizer,
    base point sigma_j in the orbit, and M_j = S meet sigma_j H sigma_j^-1,
    the orbit sum is sigma_j^-1 Ver_{S -> M_j}(tau) sigma_j projected to
    H/[H,H]; the orbit sums add up to the full cocycle value.
    """
    return _reflex_report(cm_type, stabilizer(cm_type), {}, {})


def _reflex_report(cm_type: CMType, stab: Subgroup, orbit_of: dict, verdicts: dict) -> dict:
    """The reflex check of one type with stabilizer S.  orbit_of maps a coset
    c to its S-orbit, and verdicts an orbit's least coset to its verdicts over
    tau in S; a report shares both among the types with this stabilizer, as
    neither depends on the type."""
    field = cm_type.field
    remaining, orbits = set(cm_type.cosets), []
    for c in cm_type.cosets:  # ascending, so c is the least coset remaining
        if c in remaining:
            if c not in orbit_of:
                orbit_of[c] = tuple(sorted({field.act(s, c) for s in stab.elements}))
            if not remaining.issuperset(orbit_of[c]):
                raise InternalInconsistency("orbit escaped the type")
            remaining.difference_update(orbit_of[c])
            orbits.append(orbit_of[c])
    for orbit in orbits:
        if orbit[0] not in verdicts:
            verdicts[orbit[0]] = _orbit_verdicts(field, stab, orbit)
    failures = [
        {"tau": tau, "orbit": list(orbit), "kind": "orbit_transfer"}
        for k, tau in enumerate(stab.elements)
        for orbit in orbits
        if not verdicts[orbit[0]][k]
    ]
    return {
        "law": "reflex_orbit_transfer",
        "type": list(cm_type.cosets),
        "orbit_checks": stab.order * len(orbits),
        "failures": failures,
        "passed": not failures,
    }


def _orbit_verdicts(field: CMFieldHandle, stab: Subgroup, orbit: tuple[int, ...]) -> list[bool]:
    """Whether the orbit sum equals the conjugated transfer, for each tau in S.

    M is the set of elements of S fixing the base coset (S meet sigma H
    sigma^-1), and the representatives are the least elements of S carrying
    the base coset to each coset of the orbit.
    """
    g, wsys = field.group, field.canonical_w_system
    moved = [(field.act(s, orbit[0]), s) for s in stab.elements]
    least = dict(reversed(moved))  # the last write of each coset is its least s
    m_sub = g.subgroup(s for c, s in moved if c == orbit[0])
    reps = tuple(least[c] for c in orbit)
    sigma = field.cosets[orbit[0]][0]
    verdicts = []
    for tau in stab.elements:
        # conjugated transfer from S into M
        conj = g.conj(g.inv(sigma), transfer_product(g, m_sub, tau, reps))
        if conj not in field.fixer:
            raise InternalInconsistency("conjugated transfer left the fixing subgroup")
        verdicts.append(wsys.value(tau, orbit) == field.quotient.project(conj))
    return verdicts


def cocycle_report(
    field: CMFieldHandle,
    trials: int = 100,
    seed: int = 0,
    extra_system: WSystem | None = None,
) -> dict:
    """Full identity suite for one field: law, transfer, independence, reflex.

    Each entry carries its pass/fail flag and witness triples on failure;
    ``extra_system`` is forwarded to the independence check (fault injection).
    The random systems do not depend on the type, so all types share them,
    and the reflex verdicts depend only on the stabilizer, read as the fixed
    points of the type translation table, so its types share them.
    """
    types = enumerate_cm_types(field)
    reports = [check_cocycle_law(field), check_transfer_identity(field)]
    systems = _random_systems(field, trials, seed, extra_system)
    independence = _rep_independence(field, types, trials, systems, field.iota_pairs)
    left = field.type_translation
    shared = {}  # stabilizer elements -> (stabilizer, orbit_of, verdicts)
    for i, (cm_type, same) in enumerate(zip(types, independence)):
        fixed = tuple(tau for tau, row in enumerate(left) if row[i] == i)
        if fixed not in shared:
            shared[fixed] = (field.group.subgroup(fixed), {}, {})
        reports += [same, _reflex_report(cm_type, *shared[fixed])]
    return {
        "degree": field.degree,
        "checks": reports,
        "passed": all(r["passed"] for r in reports),
    }
