"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact equality of integers; the stated time
budgets are asserted where the criterion fixes one.
"""

import json
import os
import subprocess
import sys
import time

from cmcalc.battery import BATTERY_NAMES, battery_field, closure_of
from cmcalc.cmtypes import (
    CMFieldHandle,
    enumerate_cm_types,
    is_primitive,
    reflex_type,
    stabilizer,
    validate_cm_type,
)
from cmcalc.cocycle import (
    check_cocycle_law,
    check_rep_independence,
    check_transfer_identity,
)
from cmcalc.quadratic import (
    QuadField,
    canonical_conductor,
    canonical_weight_one_spec,
    ideal_from_generator,
    ray_class_group,
)
from cmcalc.serre import (
    check_cm_type_generation,
    check_serre_exact_sequence,
    mumford_tate_rank,
    serre_character_lattice,
)
from cmcalc.zeta import CurveSpec, verify_cm_zeta, verify_res_scalars

GALOIS_BATTERY = [n for n in BATTERY_NAMES if battery_field(n).is_galois()]


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_serre_ranks_and_exactness():
    start = time.monotonic()
    pinned = {"C2": [1, 3, 2], "C4": [2, 5, 3], "C2xC2": [2, 5, 3]}
    for name in GALOIS_BATTERY:
        field = battery_field(name)
        rep = check_serre_exact_sequence(field)
        assert rep["passed"], (name, rep)
        assert rep["ranks"][2] == field.half_degree + 1
        if name in pinned:
            assert rep["ranks"] == pinned[name], name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"rank/exactness sweep took {elapsed:.2f}s"
    report(1, f"sequence exact with ranks {pinned} in {elapsed * 1000:.0f} ms")


def test_criterion_2_degenerate_anchors():
    quadratic = serre_character_lattice(battery_field("C2"))
    assert quadratic.rank == 2
    assert quadratic.basis == ((1, 0), (0, 1))  # the whole character lattice
    rational = serre_character_lattice(CMFieldHandle.rational())
    assert rational.rank == 1 and rational.basis == ((1,),)
    report(2, "order-2 context has the full rank-2 lattice; trivial context rank 1")


def test_criterion_3_cm_type_census_and_generation():
    start = time.monotonic()
    for name in BATTERY_NAMES:
        field = battery_field(name)
        types = enumerate_cm_types(field)
        assert len(types) == 2 ** field.half_degree, name
        for t in types:
            validate_cm_type(field, t.cosets)
    for name in GALOIS_BATTERY:
        rep = check_cm_type_generation(battery_field(name))
        assert rep["passed"] and rep["index"] == 1, name
    rep = check_cm_type_generation(closure_of(battery_field("D4")))
    assert rep["passed"] and rep["index"] == 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"
    report(3, f"2^g census and index-1 generation in {elapsed * 1000:.0f} ms")


def test_criterion_4_cocycle_suite():
    start = time.monotonic()
    checked = 0
    for name in BATTERY_NAMES:
        field = battery_field(name)
        law = check_cocycle_law(field)
        assert law["passed"] and not law["failures"], name
        checked += law["checked"]
        tr = check_transfer_identity(field)
        assert tr["passed"] and not tr["failures"], name
        checked += tr["checked"]
        for t in enumerate_cm_types(field):
            indep = check_rep_independence(t, trials=100, seed=7)
            assert indep["passed"], (name, t.cosets)
            checked += indep["trials"]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"cocycle suite took {elapsed:.2f}s"
    report(4, f"{checked} cocycle/transfer/rechoice checks, zero failures, "
              f"{elapsed:.2f} s")


def test_criterion_5_reflex_involution():
    primitives = 0
    for name in BATTERY_NAMES:
        field = battery_field(name)
        for t in enumerate_cm_types(field):
            members = t.coset_set()
            oracle = tuple(
                g
                for g in field.group.elements()
                if {field.act(g, c) for c in t.cosets} == members
            )
            assert stabilizer(t).elements == oracle
            if not is_primitive(t):
                continue
            primitives += 1
            back = reflex_type(reflex_type(t))
            assert back.field.fixer.elements == field.fixer.elements
            assert back.cosets == t.cosets
    assert primitives > 0
    report(5, f"double reflex is the identity on all {primitives} primitive types")


def test_criterion_6_mumford_tate_ranks():
    for t in enumerate_cm_types(battery_field("C2xC2")):
        assert not is_primitive(t)
        assert mumford_tate_rank(t) == 2
    for t in enumerate_cm_types(battery_field("C4")):
        assert is_primitive(t)
        assert mumford_tate_rank(t) == 3
    report(6, "rank 2 on the induced biquadratic types, 3 on the quartic cyclic types")


def test_criterion_7_zeta_verification():
    start = time.monotonic()
    field = QuadField(-1)
    curve = CurveSpec(a4=-1, a6=0, cm_field=field)
    rep = verify_cm_zeta(curve, canonical_weight_one_spec(field), 1000)
    elapsed = time.monotonic() - start
    assert rep["passed"] and rep["summary"]["mismatches"] == 0
    traces = {e["p"]: e["a_p_count"] for e in rep["primes"]}
    assert traces[5] == -2
    assert traces[13] == 6
    for p, a_p in traces.items():
        if p % 4 == 3:
            assert a_p == 0, p
    assert elapsed < 30.0, f"zeta sweep took {elapsed:.2f}s"
    report(7, f"{rep['summary']['checked']} factors match exactly below 1000, "
              f"{elapsed:.2f} s")


def test_criterion_8_ray_class_groups():
    field = QuadField(-1)
    trivial = ray_class_group(field, canonical_conductor(field))
    assert trivial.order == 1 and trivial.structure == ()
    order_two = ray_class_group(field, ideal_from_generator(field.element(3, 0)))
    assert order_two.order == 2 and order_two.structure == (2,)
    report(8, "modulus (1+i)^3 gives the trivial group, modulus (3) order 2")


def test_criterion_9_scalar_restriction():
    field = QuadField(-1)
    curve = CurveSpec(a4=-1, a6=0, cm_field=field)
    rep = verify_res_scalars(curve, 200)
    assert rep["passed"] and rep["summary"]["mismatches"] == 0
    assert rep["summary"]["checked"] > 0
    report(9, f"induced quartic factors match at all "
              f"{rep['summary']['checked']} good primes below 200")


def test_criterion_10_determinism():
    def invoke(threads=None):
        env = dict(os.environ)
        if threads is not None:
            env["CM_THREADS"] = threads
        proc = subprocess.run(
            [
                sys.executable, "-m", "cmcalc.cli", "check",
                "--suite", "all", "--battery", "all", "--seed", "7",
                "--trials", "20",
            ],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = invoke()
    assert first == invoke()
    assert first == invoke(threads="1")
    assert first == invoke(threads="32")
    json.loads(first)  # and it is well-formed JSON
    report(10, "byte-identical reports across repeated runs and thread settings")


def test_zeta_determinism():
    # the zeta and scalar-restriction reports carry no wall-clock field
    argv = [
        sys.executable, "-m", "cmcalc.cli", "zeta", "--curve=-1,0", "--d", "-1",
        "--pmax", "500", "--res-scalars", "50",
    ]
    runs = [subprocess.run(argv, capture_output=True) for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr.decode()
    assert runs[0].stdout == runs[1].stdout
    rep = json.loads(runs[0].stdout)
    assert "runtime_ms" not in rep["summary"]
    assert "runtime_ms" not in rep["scalar_restriction"]["summary"]
