"""Negative controls: every checker must reject a report with one value corrupted.

    python3 cmbench/controls.py

Makes small real reports with cmcalc (from src/, through the worker's
code), confirms that each passes its checker untouched, then corrupts one
value and confirms that the checker rejects it with the problem the control
names.  The determinism check of run.py gets the same treatment.  Exits 1
if any control is not rejected so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from cmbench import checks, oracle, run, worker, workloads  # noqa: E402


def _bump(locate, key, delta=1):
    """A corruption that adds delta to locate(report)[key]."""
    def corrupt(report):
        locate(report)[key] += delta
    return corrupt


def _flip_primitive(report):
    report["types"][0]["primitive"] = not report["types"][0]["primitive"]


def _transfer_value(report):
    values = report["transfer"]
    key = next(k for k, v in values.items() if any(v))
    values[key][0] = (values[key][0] + 1) % report["quotient_invariants"][0]


def _same_order_other_structure(report):
    n = report["order"]
    p = next(p for p in range(2, n) if n % (p * p) == 0)
    report["structure"] = [p, n // p]


def _first_inert(report):
    return next(e for e in report["primes"] if e["splitting"] == "inert")


def _negate_split_a_p(report):
    e = next(e for e in report["primes"] if e["splitting"] == "split" and e["a_p_count"])
    e["a_p_count"] = -e["a_p_count"]


def _negate_recounted_a_p(op):
    """Negate a_p and its factors at a prime the zeta checker recounts."""
    def corrupt(report):
        entries = {e["p"]: e for e in report["primes"]}
        primes = checks.recounted_primes(op, entries)
        e = next(entries[p] for p in primes if entries[p]["a_p_count"])
        e["a_p_count"] = -e["a_p_count"]
        for key in ("factor_count", "factor_hecke"):
            e[key][1] = -e[key][1]
    return corrupt


def _break_split_norm(op):
    """Move a_p and its factors by 1 at a split prime the checker does not
    recount, so that only 4p - a_p^2 = |D| b^2 can catch it."""
    def corrupt(report):
        entries = {e["p"]: e for e in report["primes"]}
        recounted = set(checks.recounted_primes(op, entries))
        e = next(e for p, e in entries.items() if e["splitting"] == "split" and p not in recounted)
        e["a_p_count"] += 1
        for key in ("factor_count", "factor_hecke"):
            e[key][1] = -e["a_p_count"]
    return corrupt


def _inert_res_scalars(report):
    e = next(e for e in report["scalar_restriction"]["primes"] if e["splitting"] == "inert")
    e["from_surface_counts"][2] += 2
    e["induced"][2] += 2


def controls():
    """(name, operation, corruption of its parsed report, expected problem)"""
    cli_op = workloads.cli_op
    enum_d4 = cli_op(["enumerate", "--battery", "D4"], "enumerate", context="D4")
    enum_c4 = cli_op(["enumerate", "--battery", "C4"], "enumerate", context="C4")
    check_op = cli_op(["check", "--suite", "all", "--battery", "C4", "--seed", "3", "--trials", "5"],
                      "check", context="C4", seed=3, trials=5)
    transfer_op = cli_op(["transfer", "--battery", "C2xC4"], "transfer", context="C2xC4")
    cocycle_op = {"name": "cocycle order16", "kind": "cocycle16", "check": "cocycle",
                  "context": "order16", "closure": False, "trials": 2, "seed": 1}
    ctx = oracle.order16()
    phi = next(t for t in ctx.cm_types() if ctx.is_primitive(t))
    mt_op = {"name": "mt order16", "kind": "mt16", "check": "mt_rank", "context": "order16",
             "type": list(phi)}
    ray_op = cli_op(["rayclass", "--d", "-2", "--modulus", "gen:5,0"], "rayclass",
                    d=-2, gen=[5, 0], power=1)
    zeta_op = cli_op(["zeta", "--curve=-1,0", "--d", "-1", "--pmax", "400", "--res-scalars", "60",
                      "--verbose"], "zeta", a4=-1, a6=0, d=-1, pmax=400, res=60, sample_seed=5)
    c4 = lambda r: r["fields"]["C4"]  # noqa: E731
    return [
        ("enumerate: MT rank + 1", enum_d4, _bump(lambda r: r["types"][1], "mt_rank"),
         "MT rank of"),
        ("enumerate: primitivity flipped", enum_c4, _flip_primitive, "primitivity of"),
        ("enumerate: reflex fixer element added", enum_d4,
         lambda r: r["types"][0]["reflex_fixer"].append(7), "reflex fixer of"),
        ("check: Serre basis entry + 1", check_op,
         _bump(lambda r: c4(r)["serre"]["closure"]["serre_basis"][0], 0), "n_c + n_ic varies"),
        ("check: Serre rank + 1", check_op, _bump(lambda r: c4(r)["serre"]["field"], "serre_rank"),
         "Serre rank != g + 1"),
        ("check: cocycle-law count + 1", check_op,
         _bump(lambda r: c4(r)["cocycle"]["checks"][0], "checked"), "cocycle law checked"),
        ("transfer: one value moved", transfer_op, _transfer_value,
         "not a homomorphism"),
        ("cocycle: transfer-identity count - 1", cocycle_op,
         _bump(lambda r: r["checks"][1], "checked", -1), "transfer identity checked"),
        ("mt_rank: rank - 1", mt_op, _bump(lambda r: r, "mt_rank", -1), "MT rank"),
        ("rayclass: same order, other structure", ray_op, _same_order_other_structure,
         "does not match the brute-force quotient"),
        ("rayclass: modulus basis c + 1", ray_op, _bump(lambda r: r["modulus"], "c"),
         "not a canonical ideal basis"),
        ("zeta: a_p negated at a split prime, factors kept", zeta_op, _negate_split_a_p,
         "count factor at"),
        ("zeta: a_p and factors moved by 1 at a split prime", zeta_op, _break_split_norm(zeta_op),
         "4p - a_p^2 != |D| b^2"),
        ("zeta: a_p and factors negated at a recounted prime", zeta_op,
         _negate_recounted_a_p(zeta_op), "recount at"),
        ("zeta: a_p = 2 at an inert prime", zeta_op, _bump(_first_inert, "a_p_count", 2),
         "a_p != 0 at inert"),
        ("zeta: one excluded prime dropped", zeta_op, lambda r: r["excluded"].pop(),
         "excluded primes"),
        ("zeta: inert res-scalars factor", zeta_op, _inert_res_scalars,
         "res-scalars factor at"),
    ]


def main() -> int:
    cases = controls()
    ops = {op["name"]: op for _, op, _, _ in cases}
    inputs, _ = worker.setup(list(ops.values()), trace=False)
    outputs = {name: worker.run_op(op, inputs) for name, op in ops.items()}
    bad = 0
    for name, op, corrupt, expected in cases:
        rc, text = outputs[op["name"]]
        clean = checks.check_report(op, rc, text)
        report = json.loads(text)
        corrupt(report)
        found = checks.check_report(op, rc, json.dumps(report))
        ok = not clean and any(expected in problem for problem in found)
        bad += not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: clean {clean or 'passes'}; "
              f"corrupted -> {found[:2]}, expected {expected!r}")

    # determinism: a second pass that differs in one value must count as failed
    op = ops["rayclass --d -2 --modulus gen:5,0"]
    rc, text = outputs[op["name"]]
    other = json.loads(text)
    other["order"] += 1
    passes = [({"rc": [rc]}, [text]), ({"rc": [rc]}, [json.dumps(other)])]
    failed, problems = run.check_passes([op], passes)
    ok = failed == 1 and run.check_passes([op], [passes[0], passes[0]])[0] == 0
    bad += not ok
    print(f"{'ok ' if ok else 'BAD'} determinism: differing second pass -> {problems}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
