"""The exhaustive cocycle sweeps written one comparison at a time: the test
oracles for cmcalc.cocycle.

The library compares whole rows of integer value codes, reads translated
types from the field's translation table and builds every value row once
per representative system.  The routines here make each comparison on its
own: one cocycle value per (type, tau), one translate_left per (type, tau)
and one AbelianQuotient.add per comparison.  The sweeps below are the
library's code before the tables, kept as they were.
"""

from cmcalc.cmtypes import CMFieldHandle, CMType, enumerate_cm_types, translate_left
from cmcalc.cocycle import choose_w_system, taniyama_cocycle
from cmcalc.groups import transfer


def complement(cm_type: CMType) -> CMType:
    """The cosets a type leaves out (formerly the method CMType.complement)."""
    members = cm_type.coset_set()
    return CMType(cm_type.field, tuple(c for c in range(cm_type.field.degree) if c not in members))


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
