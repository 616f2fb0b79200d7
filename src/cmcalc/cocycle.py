"""Galois-side cocycles of CM-types, valued in H/[H,H].

For a field handle (G, iota, H) and a system of coset representatives
w_rho with w_rho H = rho and w_{iota rho} = iota w_rho, the cocycle of a
CM-type phi at tau is the product over phi of w_{tau rho}^-1 tau w_rho,
projected to H/[H,H] (where the product order is immaterial).  The value
does not depend on the representative system, satisfies the cocycle law
in the type argument, and combines with the complementary type to the
transfer homomorphism.  Those three facts are the checkable identities
this module sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cmtypes import CMFieldHandle, CMType, enumerate_cm_types, stabilizer, translate_left
from .errors import CMError, FactorNotInH, InternalInconsistency
from .groups import (
    AbelianQuotient,
    Subgroup,
    transfer,
    transfer_product,
)

CocycleValue = tuple[int, ...]
"""Coordinates in the invariant-factor presentation of H/[H,H]."""


@dataclass(frozen=True)
class WSystem:
    """Coset representatives w_c, one per embedding coset, paired under iota."""

    field: CMFieldHandle
    reps: tuple[int, ...]

    def __post_init__(self):
        field = self.field
        g = field.group
        if len(self.reps) != field.degree:
            raise CMError("one representative per embedding coset required")
        for c, w in enumerate(self.reps):
            if field.coset_index(w) != c:
                raise CMError(f"representative {w} is not in coset {c}")
            ic = field.act(field.iota, c)
            if self.reps[ic] != g.mul(field.iota, w):
                raise CMError(f"conjugation constraint fails at coset {c}")


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


def taniyama_cocycle(
    cm_type: CMType,
    tau: int,
    wsys: WSystem,
    quotient: AbelianQuotient | None = None,
) -> CocycleValue:
    """Value of the type cocycle at tau, in H/[H,H] coordinates."""
    field = cm_type.field
    if wsys.field != field:
        raise CMError("w-system belongs to a different field")
    g = field.group
    if quotient is None:
        quotient = field.quotient
    moved = field.act_table[tau]
    product = g.identity
    for c in cm_type.cosets:
        factor = g.mul(g.inv(wsys.reps[moved[c]]), g.mul(tau, wsys.reps[c]))
        if factor not in field.fixer:
            raise FactorNotInH(
                f"factor at coset {c} lies outside the fixing subgroup"
            )
        product = g.mul(product, factor)
    return quotient.project(product)


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
    field = cm_type.field
    quotient = field.quotient
    canonical = choose_w_system(field)
    baseline = {
        tau: taniyama_cocycle(cm_type, tau, canonical, quotient)
        for tau in field.group.elements()
    }
    failures = []
    systems = [
        (k, choose_w_system(field, seed=seed * 100003 + k)) for k in range(trials)
    ]
    if extra_system is not None:
        systems.append((-1, extra_system))
    for k, wsys in systems:
        for tau in field.group.elements():
            value = taniyama_cocycle(cm_type, tau, wsys, quotient)
            if value != baseline[tau]:
                failures.append({"tau": tau, "trial": k, "value": list(value)})
    return {
        "law": "cocycle_rep_independence",
        "type": list(cm_type.cosets),
        "trials": trials,
        "failures": failures,
        "passed": not failures,
    }


def check_cocycle_law(field: CMFieldHandle, wsys: WSystem | None = None) -> dict:
    """F_phi(sigma tau) == F_{tau phi}(sigma) + F_phi(tau), exhaustively."""
    quotient = field.quotient
    if wsys is None:
        wsys = choose_w_system(field)
    g = field.group
    failures = []
    count = 0
    for cm_type in enumerate_cm_types(field):
        for tau in g.elements():
            moved = translate_left(tau, cm_type)
            f_tau = taniyama_cocycle(cm_type, tau, wsys, quotient)
            for sigma in g.elements():
                count += 1
                lhs = taniyama_cocycle(cm_type, g.mul(sigma, tau), wsys, quotient)
                rhs = quotient.add(
                    taniyama_cocycle(moved, sigma, wsys, quotient), f_tau
                )
                if lhs != rhs:
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


def check_transfer_identity(field: CMFieldHandle, wsys: WSystem | None = None) -> dict:
    """F_phi(tau) + F_{iota phi}(tau) equals the transfer of tau, exhaustively.

    The complementary type contributes the remaining cosets, so the combined
    product runs over a full representative system: exactly the transfer.
    """
    quotient = field.quotient
    if wsys is None:
        wsys = choose_w_system(field)
    g = field.group
    transfers = [transfer(g, field.fixer, tau, quotient=quotient) for tau in g.elements()]
    failures = []
    count = 0
    for cm_type in enumerate_cm_types(field):
        comp = cm_type.complement()
        for tau in g.elements():
            count += 1
            lhs = quotient.add(
                taniyama_cocycle(cm_type, tau, wsys, quotient),
                taniyama_cocycle(comp, tau, wsys, quotient),
            )
            if lhs != transfers[tau]:
                failures.append({"type": list(cm_type.cosets), "tau": tau})
    return {
        "law": "transfer_identity",
        "checked": count,
        "failures": failures,
        "passed": not failures,
    }


def _orbits_under(sub: Subgroup, field: CMFieldHandle, cosets) -> list[list[int]]:
    """Orbits of a coset set under left translation by a subgroup."""
    remaining = set(cosets)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            c = frontier.pop()
            for s in sub.elements:
                d = field.act(s, c)
                if d not in orbit:
                    orbit.add(d)
                    frontier.append(d)
        if not orbit <= remaining:
            raise InternalInconsistency("orbit escaped the type")
        remaining -= orbit
        orbits.append(sorted(orbit))
    return orbits


def check_reflex_compatibility(cm_type: CMType, wsys: WSystem | None = None) -> dict:
    """Orbitwise transfer description of the cocycle on the reflex stabilizer.

    For tau fixing the type, the partial product over each stabilizer orbit
    equals a conjugated transfer: with S the stabilizer, base point sigma_j
    in the orbit, and M_j = S meet sigma_j H sigma_j^-1, the orbit factor is
    sigma_j^-1 Ver_{S -> M_j}(tau) sigma_j projected to H/[H,H]; the orbit
    factors multiply to the full cocycle value.
    """
    field = cm_type.field
    g = field.group
    quotient = field.quotient
    if wsys is None:
        wsys = choose_w_system(field)
    stab = stabilizer(cm_type)
    stab_group, to_sub, to_parent = stab.as_group()
    orbits = _orbits_under(stab, field, cm_type.cosets)
    h_members = set(field.fixer.elements)
    failures = []
    count = 0
    for tau in stab.elements:
        total = quotient.zero
        value_full = taniyama_cocycle(cm_type, tau, wsys, quotient)
        for orbit in orbits:
            base = orbit[0]
            sigma = field.cosets[base][0]
            # partial product of cocycle factors over this orbit
            partial = g.identity
            for c in orbit:
                tc = field.act(tau, c)
                factor = g.mul(g.inv(wsys.reps[tc]), g.mul(tau, wsys.reps[c]))
                partial = g.mul(partial, factor)
            partial_value = quotient.project(partial)
            # conjugated transfer into S meet sigma H sigma^-1
            m_elements = [
                s
                for s in stab.elements
                if g.mul(g.mul(g.inv(sigma), s), sigma) in h_members
            ]
            m_sub = stab_group.subgroup([to_sub[s] for s in m_elements])
            ver = transfer_product(stab_group, m_sub, to_sub[tau])
            conj = g.mul(g.mul(g.inv(sigma), to_parent[ver]), sigma)
            if conj not in h_members:
                raise InternalInconsistency(
                    "conjugated transfer left the fixing subgroup"
                )
            transfer_value = quotient.project(conj)
            count += 1
            if partial_value != transfer_value:
                failures.append(
                    {"tau": tau, "orbit": orbit, "kind": "orbit_transfer"}
                )
            total = quotient.add(total, partial_value)
        if total != value_full:
            failures.append({"tau": tau, "kind": "orbit_product"})
    return {
        "law": "reflex_orbit_transfer",
        "type": list(cm_type.cosets),
        "orbit_checks": count,
        "failures": failures,
        "passed": not failures,
    }


def cocycle_report(
    field: CMFieldHandle,
    trials: int = 100,
    seed: int = 0,
    extra_system: WSystem | None = None,
) -> dict:
    """Full identity suite for one field: law, transfer, independence, reflex.

    Each entry carries its pass/fail flag and witness triples on failure;
    ``extra_system`` is forwarded to the independence check (fault injection).
    """
    reports = [
        check_cocycle_law(field),
        check_transfer_identity(field),
    ]
    for cm_type in enumerate_cm_types(field):
        reports.append(
            check_rep_independence(
                cm_type, trials=trials, seed=seed, extra_system=extra_system
            )
        )
        reports.append(check_reflex_compatibility(cm_type))
    return {
        "degree": field.degree,
        "checks": reports,
        "passed": all(r["passed"] for r in reports),
    }
