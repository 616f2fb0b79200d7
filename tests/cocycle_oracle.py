"""The exhaustive cocycle sweeps written one comparison at a time: the test
oracles for cmcalc.cocycle.

The library compares whole rows of integer value codes, reads translated
types from the field's translation table and builds every value row once
per representative system.  The routines here make each comparison on its
own: one cocycle value per (type, tau), one translate_left per (type, tau)
and one AbelianQuotient.add per comparison.  The sweeps below are the
library's code before the tables, kept as they were.

The reflex check below is the library's before it worked in the ambient
group: it rebuilds each stabilizer S as a group of its own (as_group, the
former method Subgroup.as_group) and takes each transfer there, from S into
S meet sigma H sigma^-1 found by conjugation.  It finds each type's
stabilizer orbits afresh with _orbits_under, the library's own routine before
a report shared the orbits among the types with one stabilizer.
"""

from cmcalc.cmtypes import (
    CMFieldHandle,
    CMType,
    enumerate_cm_types,
    stabilizer,
    translate_left,
)
from cmcalc.cocycle import choose_w_system, taniyama_cocycle
from cmcalc.errors import InternalInconsistency
from cmcalc.groups import FiniteGroup, Subgroup, make_group, transfer, transfer_product


def complement(cm_type: CMType) -> CMType:
    """The cosets a type leaves out (formerly the method CMType.complement)."""
    members = cm_type.coset_set()
    return CMType(cm_type.field, tuple(c for c in range(cm_type.field.degree) if c not in members))


def as_group(sub: Subgroup) -> tuple[FiniteGroup, dict[int, int], tuple[int, ...]]:
    """Reindex as a standalone group; returns (group, to_sub, to_parent)."""
    to_parent = sub.elements
    to_sub = {p: i for i, p in enumerate(to_parent)}
    table = [[to_sub[sub.parent.mul(a, b)] for b in to_parent] for a in to_parent]
    return make_group(table), to_sub, to_parent


def _value_table(field: CMFieldHandle, types) -> dict:
    """F[phi][tau], keyed by the cosets of phi, from the canonical system."""
    wsys = field.canonical_w_system
    return {
        t.cosets: tuple(taniyama_cocycle(t, tau, wsys) for tau in field.group.elements())
        for t in types
    }


def _random_systems(field: CMFieldHandle, trials: int, seed: int, extra_system) -> list:
    """(trial, system) pairs; the extra system, if any, is trial -1."""
    systems = [(k, choose_w_system(field, seed=seed * 100003 + k)) for k in range(trials)]
    if extra_system is not None:
        systems.append((-1, extra_system))
    return systems


def _rep_independence(cm_type: CMType, trials: int, systems) -> dict:
    field = cm_type.field
    canonical = field.canonical_w_system
    baseline = [taniyama_cocycle(cm_type, tau, canonical) for tau in field.group.elements()]
    failures = []
    for k, wsys in systems:
        for tau in field.group.elements():
            value = taniyama_cocycle(cm_type, tau, wsys)
            if value != baseline[tau]:
                failures.append({"tau": tau, "trial": k, "value": list(value)})
    return {
        "law": "cocycle_rep_independence",
        "type": list(cm_type.cosets),
        "trials": trials,
        "failures": failures,
        "passed": not failures,
    }


def check_cocycle_law(field: CMFieldHandle) -> dict:
    """F_phi(sigma tau) == F_{tau phi}(sigma) + F_phi(tau), exhaustively."""
    quotient = field.quotient
    g = field.group
    types = enumerate_cm_types(field)
    table = _value_table(field, types)
    failures = []
    count = 0
    for cm_type in types:
        values = table[cm_type.cosets]
        for tau in g.elements():
            moved = table[translate_left(tau, cm_type).cosets]
            for sigma in g.elements():
                count += 1
                if values[g.mul(sigma, tau)] != quotient.add(moved[sigma], values[tau]):
                    failures.append(
                        {
                            "type": list(cm_type.cosets),
                            "sigma": sigma,
                            "tau": tau,
                        }
                    )
    return {
        "law": "cocycle_law",
        "checked": count,
        "failures": failures,
        "passed": not failures,
    }


def check_transfer_identity(field: CMFieldHandle) -> dict:
    """F_phi(tau) + F_{iota phi}(tau) equals the transfer of tau, exhaustively.

    The complementary type contributes the remaining cosets, so the combined
    product runs over a full representative system: exactly the transfer.
    """
    quotient = field.quotient
    g = field.group
    types = enumerate_cm_types(field)
    table = _value_table(field, types)
    transfers = [transfer(g, field.fixer, tau, quotient=quotient) for tau in g.elements()]
    failures = []
    count = 0
    for cm_type in types:
        values = table[cm_type.cosets]
        comp = table[complement(cm_type).cosets]
        for tau in g.elements():
            count += 1
            if quotient.add(values[tau], comp[tau]) != transfers[tau]:
                failures.append({"type": list(cm_type.cosets), "tau": tau})
    return {
        "law": "transfer_identity",
        "checked": count,
        "failures": failures,
        "passed": not failures,
    }


def _orbits_under(sub: Subgroup, field: CMFieldHandle, cosets) -> list[list[int]]:
    """Orbits of a coset set under left translation by a subgroup S: the
    orbit of c is {s c : s in S}."""
    remaining = set(cosets)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {field.act(s, start) for s in sub.elements}
        if not orbit <= remaining:
            raise InternalInconsistency("orbit escaped the type")
        remaining -= orbit
        orbits.append(sorted(orbit))
    return orbits


def check_reflex_compatibility(cm_type: CMType) -> dict:
    """Orbitwise transfer description of the cocycle on the reflex stabilizer.

    For tau fixing the type, the sum of the cocycle factors over each
    stabilizer orbit equals a conjugated transfer: with S the stabilizer,
    base point sigma_j in the orbit, and M_j = S meet sigma_j H sigma_j^-1,
    the orbit sum is sigma_j^-1 Ver_{S -> M_j}(tau) sigma_j projected to
    H/[H,H]; the orbit sums add up to the full cocycle value.
    """
    field = cm_type.field
    g = field.group
    quotient = field.quotient
    wsys = field.canonical_w_system
    stab = stabilizer(cm_type)
    stab_group, to_sub, to_parent = as_group(stab)
    h_members = set(field.fixer.elements)
    # per orbit: its base point sigma and M = S meet sigma H sigma^-1
    orbits = []
    for orbit in _orbits_under(stab, field, cm_type.cosets):
        sigma = field.cosets[orbit[0]][0]
        m = [to_sub[s] for s in stab.elements if g.conj(g.inv(sigma), s) in h_members]
        orbits.append((orbit, sigma, stab_group.subgroup(m)))
    failures = []
    count = 0
    for tau in stab.elements:
        for orbit, sigma, m_sub in orbits:
            partial_value = wsys.value(tau, orbit)
            # conjugated transfer into M
            ver = transfer_product(stab_group, m_sub, to_sub[tau])
            conj = g.mul(g.mul(g.inv(sigma), to_parent[ver]), sigma)
            if conj not in h_members:
                raise InternalInconsistency("conjugated transfer left the fixing subgroup")
            transfer_value = quotient.project(conj)
            count += 1
            if partial_value != transfer_value:
                failures.append({"tau": tau, "orbit": orbit, "kind": "orbit_transfer"})
    return {
        "law": "reflex_orbit_transfer",
        "type": list(cm_type.cosets),
        "orbit_checks": count,
        "failures": failures,
        "passed": not failures,
    }


def cocycle_report(field: CMFieldHandle, trials: int, seed: int, extra_system=None) -> dict:
    """The library's cocycle_report assembled from the exhaustive checks above:
    the law, the transfer identity, then per type its independence and reflex
    reports."""
    systems = _random_systems(field, trials, seed, extra_system)
    reports = [check_cocycle_law(field), check_transfer_identity(field)]
    for t in enumerate_cm_types(field):
        reports += [_rep_independence(t, trials, systems), check_reflex_compatibility(t)]
    return {"degree": field.degree, "checks": reports, "passed": all(r["passed"] for r in reports)}
