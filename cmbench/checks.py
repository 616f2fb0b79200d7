"""Checks of cmcalc's reports against the benchmark's own computations.

Each checker takes an operation (as built by workloads.py) and the parsed
report, and returns a list of problems; an empty list means the report
passed.  No checker compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import random

from . import oracle

BATTERY = oracle.battery()
ORDER16 = oracle.order16()


def context_of(op) -> oracle.Context:
    ctx = ORDER16 if op["context"] == "order16" else BATTERY[op["context"]]
    return ctx.closure() if op.get("closure") else ctx


def _require(problems, ok, message):
    if not ok:
        problems.append(message)


# --- galois ------------------------------------------------------------------


def check_enumerate(op, report):
    ctx = context_of(op)
    problems = []
    _require(problems, report["degree"] == ctx.degree, "degree")
    _require(problems, [tuple(c) for c in report["cosets"]] == ctx.cosets, "cosets")
    types = report["types"]
    g = ctx.degree // 2
    _require(problems, len(types) == 2**g, f"{len(types)} types, expected 2^{g}")
    _require(problems, len({tuple(t["phi"]) for t in types}) == len(types), "repeated types")
    for t in types:
        phi = tuple(t["phi"])
        if not ctx.is_cm_type(phi):
            problems.append(f"{phi} is not a CM-type")
            continue
        stab = ctx.stabilizer(phi)
        _require(problems, tuple(t["reflex_fixer"]) == stab, f"reflex fixer of {phi}")
        _require(problems, t["reflex_degree"] == ctx.order // len(stab),
                 f"reflex degree of {phi}")
        _require(problems, tuple(t["reflex_type"]) == ctx.reflex_type(phi),
                 f"reflex type of {phi}")
        _require(problems, t["primitive"] == ctx.is_primitive(phi), f"primitivity of {phi}")
        rank = oracle.rank_q(ctx.closure_reflex_matrix(phi))
        _require(problems, t["mt_rank"] == rank, f"MT rank of {phi}: {t['mt_rank']} != {rank}")
    return problems


def _check_serre(ctx, part, problems, where):
    g = ctx.degree // 2
    _require(problems, part["degree"] == ctx.degree, f"{where}: degree")
    _require(problems, part["serre_rank"] == g + 1, f"{where}: Serre rank != g + 1")
    basis = part["serre_basis"]
    _require(problems, len(basis) == part["serre_rank"], f"{where}: basis size")
    _require(problems, oracle.rank_q(basis) == len(basis), f"{where}: basis not independent")
    for row in basis:
        sums = {row[c] + row[ic] for c, ic in ctx.pairs}
        _require(problems, len(sums) == 1, f"{where}: n_c + n_ic varies on row {row}")
    _require(problems, part["passed"] is True, f"{where}: report not passed")


def _check_cocycle(ctx, part, trials, problems, where):
    g = ctx.degree // 2
    checks = part["checks"]
    _require(problems, part["degree"] == ctx.degree, f"{where}: degree")
    law, transfer = checks[0], checks[1]
    _require(problems, law["law"] == "cocycle_law", f"{where}: first check")
    _require(
        problems,
        law["checked"] == 2**g * ctx.order**2,
        f"{where}: cocycle law checked {law['checked']}, expected 2^g |G|^2",
    )
    _require(
        problems,
        transfer["checked"] == 2**g * ctx.order,
        f"{where}: transfer identity checked {transfer['checked']}, expected 2^g |G|",
    )
    indep = [c for c in checks if c["law"] == "cocycle_rep_independence"]
    _require(problems, len(indep) == 2**g, f"{where}: {len(indep)} independence checks")
    _require(
        problems,
        sorted(tuple(c["type"]) for c in indep) == sorted(ctx.cm_types()),
        f"{where}: independence checks do not cover the CM-types",
    )
    _require(problems, all(c["trials"] == trials for c in indep), f"{where}: trial count")
    _require(problems, all(c["passed"] for c in checks), f"{where}: a check failed")
    _require(problems, part["passed"] is True, f"{where}: report not passed")


def check_check(op, report):
    ctx = context_of(op)
    problems = []
    _require(problems, (report["seed"], report["trials"]) == (op["seed"], op["trials"]),
             "seed/trials")
    entry = report["fields"][op["context"]]
    serre = entry["serre"]
    if ctx.is_galois():
        _check_serre(ctx, serre["field"], problems, "serre field")
    else:
        _require(problems, "skipped" in serre["field"], "non-Galois field not skipped")
    _check_serre(ctx.closure(), serre["closure"], problems, "serre closure")
    _check_cocycle(ctx, entry["cocycle"], op["trials"], problems, "cocycle")
    _require(problems, report["summary"]["failures"] == 0, "failures reported")
    return problems


def check_transfer(op, report):
    ctx = context_of(op)
    problems = []
    _require(problems, tuple(report["subgroup"]) == ctx.fixer, "subgroup")
    mods = report["quotient_invariants"]
    size = 1
    for m in mods:
        size *= m
    _require(problems, size == ctx.abelianization_order(), "|H/[H,H]| differs")
    _require(problems, all(m > 1 for m in mods), "invariant factor 1")
    _require(problems, all(b % a == 0 for a, b in zip(mods, mods[1:])), "divisibility chain")
    values = {int(k): tuple(v) for k, v in report["transfer"].items()}
    if sorted(values) != list(range(ctx.order)):
        return problems + ["transfer not given on every element"]
    for a in range(ctx.order):
        for b in range(ctx.order):
            lhs = values[ctx.mul(a, b)]
            rhs = tuple((x + y) % m for x, y, m in zip(values[a], values[b], mods))
            if lhs != rhs or len(lhs) != len(mods):
                return problems + [f"not a homomorphism at ({a}, {b})"]
    return problems


def check_cocycle(op, report):
    problems = []
    _check_cocycle(context_of(op), report, op["trials"], problems, "cocycle")
    return problems


def check_mt_rank(op, report):
    ctx = context_of(op)
    phi = tuple(report["type"])
    if phi != tuple(op["type"]) or not ctx.is_cm_type(phi):
        return ["type"]
    rank = oracle.rank_q(ctx.closure_reflex_matrix(phi))
    return [] if report["mt_rank"] == rank else [f"MT rank {report['mt_rank']} != {rank}"]


# --- rayclass ----------------------------------------------------------------


def check_rayclass(op, report):
    ring = oracle.QuadRing(op["d"])
    problems = []
    m = report["modulus"]
    res = oracle.Residues(ring, m["n"], m["c"], m["d"])
    gen = ring.power(tuple(op["gen"]), op["power"])
    if not (res.is_ideal() and 0 <= m["c"] < m["n"] and m["n"] % m["d"] == 0):
        return ["modulus basis is not a canonical ideal basis"]
    norm = m["n"] * m["d"]
    _require(problems, res.reduce(gen) == (0, 0), "generator not in the modulus")
    _require(problems, norm == ring.norm(gen), "modulus norm differs from N(generator)")
    _require(problems, report["modulus_norm"] == norm, "modulus_norm")
    structure = report["structure"]
    size = 1
    for x in structure:
        size *= x
    _require(problems, report["order"] == size, "order != product of invariants")
    _require(problems, all(x > 1 for x in structure), "invariant factor 1")
    _require(problems, all(b % a == 0 for a, b in zip(structure, structure[1:])),
             "divisibility chain")
    if res.ray_class_order_counts() != oracle.order_counts(structure):
        problems.append(f"structure {structure} does not match the brute-force quotient")
    return problems


# --- zeta --------------------------------------------------------------------

CONDUCTOR_NORM = {-1: 8, -3: 9}


def check_zeta(op, report):
    a4, a6, d = op["a4"], op["a6"], op["d"]
    ring = oracle.QuadRing(d)
    disc = ring.disc
    bad = set(oracle.prime_factors(16 * (4 * a4**3 + 27 * a6**2))) | {2}
    ramified = set(oracle.prime_factors(disc))
    conductor = set(oracle.prime_factors(CONDUCTOR_NORM[d]))
    problems = []
    c = report["character"]["conductor"]
    _require(problems, c["n"] * c["d"] == CONDUCTOR_NORM[d], "conductor norm")
    primes = [p for p in range(2, op["pmax"] + 1) if oracle.is_prime(p)]
    excluded = {e["p"] for e in report["excluded"]}
    _require(problems, excluded == {p for p in primes if p in bad | ramified | conductor},
             "excluded primes")
    entries = report["primes"]
    _require(problems, [e["p"] for e in entries] == [p for p in primes if p not in excluded],
             "checked primes")
    a_p = {}
    for e in entries:
        p, ap = e["p"], e["a_p_count"]
        a_p[p] = ap
        kind = oracle.splitting(disc, p)
        _require(problems, e["splitting"] == kind, f"splitting at {p}")
        if kind == "inert":
            _require(problems, ap == 0, f"a_p != 0 at inert {p}")
        else:
            b2, r = divmod(4 * p - ap * ap, -disc)
            _require(problems, r == 0 and b2 >= 0 and _is_square(b2),
                     f"4p - a_p^2 != |D| b^2 at {p}")
        _require(problems, e["factor_count"] == [1, -ap, p], f"count factor at {p}")
        _require(problems, e["factor_hecke"] == e["factor_count"] and e["match"],
                 f"Hecke factor at {p}")
    for p in recounted_primes(op, a_p):
        _require(problems, a_p[p] == oracle.trace_of_frobenius(a4, a6, p), f"recount at {p}")
    summary = report["summary"]
    _require(problems, (summary["checked"], summary["mismatches"]) == (len(entries), 0),
             "summary")
    _require(problems, report["passed"] is True, "report not passed")

    rs = report["scalar_restriction"]
    rs_primes = [p for p in primes if p <= op["res"]]
    rs_excluded = {e["p"] for e in rs["excluded"]}
    _require(problems, rs_excluded == {p for p in rs_primes if p in bad | ramified},
             "res-scalars excluded")
    _require(problems,
             [e["p"] for e in rs["primes"]] == [p for p in rs_primes if p not in rs_excluded],
             "res-scalars primes")
    for e in rs["primes"]:
        p = e["p"]
        if oracle.splitting(disc, p) == "inert":
            want = [1, 0, 2 * p, 0, p * p]
        else:
            ap = oracle.trace_of_frobenius(a4, a6, p)
            f = [1, -ap, p]
            want = [sum(f[i] * f[k - i] for i in range(3) if 0 <= k - i < 3) for k in range(5)]
        _require(problems, e["induced"] == want, f"res-scalars factor at {p}")
        _require(problems, e["from_surface_counts"] == want and e["lift_consistent"] and e["match"],
                 f"surface counts at {p}")
    _require(problems, rs["passed"] is True, "res-scalars not passed")
    return problems


def recounted_primes(op, primes) -> list[int]:
    """The primes whose a_p the zeta checker recounts, drawn from the op's seed."""
    return random.Random(op["sample_seed"]).sample(sorted(primes), min(8, len(primes)))


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


CHECKERS = {
    "enumerate": check_enumerate,
    "check": check_check,
    "transfer": check_transfer,
    "cocycle": check_cocycle,
    "mt_rank": check_mt_rank,
    "rayclass": check_rayclass,
    "zeta": check_zeta,
}


def check_report(op, rc: int, text: str) -> list[str]:
    """All problems with one operation's output; exit code 0 is required."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        report = json.loads(text)
        return CHECKERS[op["check"]](op, report)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def normalized(text: str) -> str:
    """Report text with the wall-clock fields zeta reports blanked out."""
    report = json.loads(text)
    for part in (report, report.get("scalar_restriction")):
        if isinstance(part, dict) and "runtime_ms" in part.get("summary", {}):
            part["summary"]["runtime_ms"] = None
    return json.dumps(report, sort_keys=True)
