"""The exhaustive subgroup walk and the primitivity test built on it: the test
oracles for cmcalc.cmtypes.is_primitive and groups.normal_subgroups.

subgroups_containing walks every subgroup between a subgroup and the whole
group, one subgroup_generated per (subgroup, element outside it).  The
library once read the CM subfields of a field from it (cm_subfields) and
tested primitivity by restricting the type to each proper one.  The library
now reads primitivity off the right stabilizer of the type's preimage in G,
and the norm triangle walks only the normal subgroups.
"""

from functools import cache

from cmcalc.cmtypes import CMFieldHandle, restricts_to
from cmcalc.groups import subgroup_generated


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
