"""One pass over a workload, in a fresh process so cmcalc's caches start cold.

Run as ``python3 -m cmbench.worker`` from the checkout root, with the job
as JSON on stdin: {"ops": [...], "setup_only": bool, "trace": bool,
"trace_file": path or null}.  The worker times its set-up (``import
cmcalc`` plus building the workload's inputs) and the pass (computing and
emitting every report), then writes each report followed by SEP, and last
one JSON line with its timings.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEP = "\x1e\n"  # JSON text never holds a raw record separator


def setup(ops, trace):
    sys.path.insert(0, str(SRC))
    import cmcalc
    import cmcalc.cli

    if not Path(cmcalc.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cmcalc was imported from {cmcalc.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from cmbench.tracer import Tracer

        tracer = Tracer.install()
    inputs = {}
    for op in ops:
        if op["kind"] == "cli" and "context" in op:
            # the handle the CLI looks up by name; battery_field caches it
            cmcalc.battery_field(op["context"])
        elif op["kind"] in ("cocycle16", "mt16") and not inputs:
            group = cmcalc.direct_product(cmcalc.dihedral_group(4), cmcalc.cyclic_group(2))
            field = cmcalc.CMFieldHandle(group=group, iota=4, fixer=group.subgroup([0, 8]))
            inputs = {False: field, True: cmcalc.closure_of(field)}
    return inputs, tracer


def run_op(op, inputs) -> tuple[int, str]:
    import cmcalc
    from cmcalc import cli

    if op["kind"] == "cli":
        real, sys.stdout = sys.stdout, io.StringIO()
        try:
            rc = cli.main(op["argv"])
            return rc, sys.stdout.getvalue()
        finally:
            sys.stdout = real
    if op["kind"] == "cocycle16":
        report = cmcalc.cocycle.cocycle_report(
            inputs[op["closure"]], trials=op["trials"], seed=op["seed"]
        )
        rc = 0 if report["passed"] else 1
    else:
        cm_type = cmcalc.validate_cm_type(inputs[False], op["type"])
        report = {"type": list(cm_type.cosets), "mt_rank": cmcalc.mumford_tate_rank(cm_type)}
        rc = 0
    return rc, json.dumps(report, sort_keys=True, indent=2) + "\n"


def main() -> None:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    inputs, tracer = setup(job["ops"], job["trace"])
    setup_s = time.perf_counter() - t0
    meta = {"setup_s": setup_s}
    if not job["setup_only"]:
        out = sys.stdout
        rcs, report_bytes = [], 0
        t1 = time.perf_counter()
        for op in job["ops"]:
            try:
                rc, text = run_op(op, inputs)
            except Exception:  # a crash fails this operation, not the pass
                rc, text = -1, traceback.format_exc()
            out.write(text + SEP)
            rcs.append(rc)
            report_bytes += len(text.encode())
        out.flush()
        meta.update(
            pass_s=time.perf_counter() - t1,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            rc=rcs,
            report_bytes=report_bytes,
        )
        if tracer is not None:
            meta["layers"] = tracer.metrics()
            if job.get("trace_file"):
                tracer.write_spans(job["trace_file"])
    sys.stdout.write(json.dumps(meta) + "\n")


if __name__ == "__main__":
    main()
