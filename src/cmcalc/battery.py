"""Built-in Galois contexts used by the check suites and the CLI.

Each entry fixes a group, a central involution, and a fixing subgroup.  The
C2xC4 entry deliberately uses the order-4 fixer: with an order-2 fixer every
cocycle and transfer value on this group is identically trivial, whereas the
order-4 fixer makes them cycle through Z/4.  The D4 entry uses the standard
non-normal order-2 fixer, giving a non-Galois quartic field.
"""

from __future__ import annotations

from functools import lru_cache

from .cmtypes import CMFieldHandle
from .groups import cyclic_group, dihedral_group, direct_product

BATTERY_NAMES = ("C2", "C4", "C2xC2", "C2xC4", "D4")


@lru_cache(maxsize=None)
def battery_field(name: str) -> CMFieldHandle:
    if name == "C2":
        g = cyclic_group(2)
        return CMFieldHandle(group=g, iota=1, fixer=g.trivial_subgroup())
    if name == "C4":
        g = cyclic_group(4)
        return CMFieldHandle(group=g, iota=2, fixer=g.trivial_subgroup())
    if name == "C2xC2":
        g = direct_product(cyclic_group(2), cyclic_group(2))
        return CMFieldHandle(group=g, iota=3, fixer=g.trivial_subgroup())
    if name == "C2xC4":
        g = direct_product(cyclic_group(2), cyclic_group(4))
        return CMFieldHandle(group=g, iota=4, fixer=g.subgroup([0, 1, 2, 3]))
    if name == "D4":
        g = dihedral_group(4)
        return CMFieldHandle(group=g, iota=2, fixer=g.subgroup([0, 4]))
    raise KeyError(f"unknown battery context {name!r}")


def closure_of(field: CMFieldHandle) -> CMFieldHandle:
    """The same context with trivial fixer (the field's Galois closure)."""
    return field.closure
