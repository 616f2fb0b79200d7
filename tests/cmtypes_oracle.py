"""The exhaustive subgroup walk and the primitivity test built on it: the test
oracles for cmcalc.cmtypes.is_primitive and groups.normal_subgroups, and the
subgroup generated by a set and the commutator subgroup, which the library no
longer builds: groups.abelianization kills the commutators in H's own table.

subgroups_containing walks every subgroup between a subgroup and the whole
group, one subgroup_generated per (subgroup, element outside it).  The
library once read the CM subfields of a field from it (cm_subfields) and
tested primitivity by restricting the type to each proper one.  The library
now reads primitivity off the right stabilizer of the type's preimage in G,
and the norm triangle walks only the normal subgroups.
"""

from functools import cache

from cmcalc.cmtypes import CMFieldHandle, restricts_to
from cmcalc.intlinalg import closure


def subgroup_generated(group, generators):
    """The subgroup the elements generate: the identity's closure walk."""
    return group.subgroup(closure(group.mul, {group.identity: []}, tuple(set(generators))))


def commutator_subgroup(h):
    """[H,H]: the subgroup generated by every commutator a b a^-1 b^-1 in H."""
    g = h.parent
    return subgroup_generated(
        g, {g.mul(g.mul(a, b), g.inv(g.mul(b, a))) for a in h.elements for b in h.elements}
    )


def subgroups_containing(group, sub):
    """All subgroups between ``sub`` and the full group (exhaustive closure walk)."""
    found = {sub.elements: sub}
    frontier = [sub]
    while frontier:
        current = frontier.pop()
        for x in group.elements():
            if x in current:
                continue
            bigger = subgroup_generated(group, current.generators + (x,))
            if bigger.elements not in found:
                found[bigger.elements] = bigger
                frontier.append(bigger)
    return tuple(found[k] for k in sorted(found))


@cache
def cm_subfields(field):
    """Handles of all CM subfields of K (iota acts nontrivially), K included; once
    per handle, as the library's cached property did."""
    return tuple(
        CMFieldHandle(group=field.group, iota=field.iota, fixer=sub)
        for sub in subgroups_containing(field.group, field.fixer)
        if field.iota not in sub  # otherwise the fixed field is totally real
    )


def is_primitive(cm_type):
    """True when the type restricts to no proper CM subfield."""
    for small in cm_subfields(cm_type.field):
        if small.fixer.order == cm_type.field.fixer.order:
            continue
        if restricts_to(cm_type, small) is not None:
            return False
    return True
