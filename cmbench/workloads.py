"""The benchmark's workloads: the operations of one pass, made from a seed.

An operation is a JSON-ready dict.  ``kind`` says how the worker runs it:
``cli`` passes ``argv`` to ``cmcalc.cli.main``; ``cocycle16`` and ``mt16``
call the library on the order-16 context, which no CLI command reaches
at a bearable cost.  ``check`` names the checker in checks.py.  The seed
changes the inputs but not the amount of work, so passes of different
seeds cost the same.
"""

from __future__ import annotations

import random

from . import oracle

BATTERY_NAMES = ("C2", "C4", "C2xC2", "C2xC4", "D4")
CHECK_TRIALS = 20
ORDER16_TRIALS = 4

# (d, generator, power): moduli of norm <= 64.  (7) over Z[i] and (2+w)^2
# over Z[w] carry most of the cost; the rest spread the residue structure
# over ramified, split and inert primes of the four fields.
RAYCLASS_MODULI = (
    (-1, (7, 0), 1),
    (-1, (8, 0), 1),
    (-1, (1, 1), 5),
    (-1, (2, 1), 2),
    (-1, (3, 0), 1),
    (-1, (6, 0), 1),
    (-2, (5, 0), 1),
    (-2, (1, 1), 3),
    (-2, (0, 1), 5),
    (-3, (2, 1), 2),
    (-3, (4, 0), 1),
    (-3, (3, 0), 1),
    (-7, (3, 0), 1),
    (-7, (5, 0), 1),
    (-7, (0, 1), 5),
)

# (a4, a6, d): y^2 = x^3 - x over Q(i) and y^2 = x^3 + 16 over Q(sqrt(-3)).
ZETA_CURVES = ((-1, 0, -1), (0, 16, -3))
# No prime lies in 9974..10006 or in 200..210, so every pmax drawn from
# these ranges sweeps the same primes and costs the same.
ZETA_PMAX = (9973, 10006)
ZETA_RES_SCALARS = (199, 210)


def galois(rng: random.Random) -> list[dict]:
    seed = rng.randrange(1000)
    ops = []
    for name in BATTERY_NAMES:
        ops.append(cli_op(["enumerate", "--battery", name], "enumerate", context=name))
        argv = ["check", "--suite", "all", "--battery", name,
                "--seed", str(seed), "--trials", str(CHECK_TRIALS)]
        ops.append(cli_op(argv, "check", context=name, seed=seed, trials=CHECK_TRIALS))
        ops.append(cli_op(["transfer", "--battery", name], "transfer", context=name))
    for closure in (False, True):
        ops.append({
            "name": "cocycle_report order16" + (" closure" if closure else ""),
            "kind": "cocycle16", "check": "cocycle", "context": "order16",
            "closure": closure, "trials": ORDER16_TRIALS, "seed": rng.randrange(1000),
        })
    ctx = oracle.order16()
    types = ctx.cm_types()
    for primitive in (True, False):
        phi = rng.choice([t for t in types if ctx.is_primitive(t) == primitive])
        ops.append({
            "name": f"mumford_tate_rank order16 {list(phi)}",
            "kind": "mt16", "check": "mt_rank", "context": "order16", "type": list(phi),
        })
    return ops


def rayclass(rng: random.Random) -> list[dict]:
    ops = []
    for d, gen, power in RAYCLASS_MODULI:
        ring = oracle.QuadRing(d)
        a, b = ring.mul(gen, rng.choice(ring.units))  # an associate: same ideal
        spec = f"gen:{a},{b}" + (f"^{power}" if power > 1 else "")
        ops.append(cli_op(["rayclass", "--d", str(d), "--modulus", spec], "rayclass",
                          d=d, gen=[a, b], power=power))
    return ops


def zeta(rng: random.Random) -> list[dict]:
    ops = []
    for a4, a6, d in ZETA_CURVES:
        pmax, res = rng.randint(*ZETA_PMAX), rng.randint(*ZETA_RES_SCALARS)
        argv = ["zeta", f"--curve={a4},{a6}", "--d", str(d), "--pmax", str(pmax),
                "--res-scalars", str(res), "--verbose"]
        ops.append(cli_op(argv, "zeta", a4=a4, a6=a6, d=d, pmax=pmax, res=res,
                          sample_seed=rng.randrange(1 << 30)))
    return ops


WORKLOADS = {"galois": galois, "rayclass": rayclass, "zeta": zeta}


def operations(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def cli_op(argv, check, **params) -> dict:
    return {"name": " ".join(argv), "kind": "cli", "argv": argv, "check": check, **params}
