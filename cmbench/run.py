"""Benchmark of cmcalc: time one workload end to end, or trace its layers.

    python3 cmbench/run.py --workload {galois,rayclass,zeta} --seed N \\
        --seconds S --trace {0,1}

Closed loop, one client: the driver starts one worker process at a time,
and each worker makes one pass over the workload's reports with cold
module caches, as a ``cm`` invocation has.  Passes repeat until S seconds
have gone and at least MIN_PASSES have run.  Set-up-only workers run
between the passes, so that the set-up times sample the whole run.  Every
report of the first pass is checked against the benchmark's own
computations (checks.py); later passes must repeat it exactly, wall-clock
fields aside.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` operations, and ``metrics`` -- with --trace 0 the end-to-end
metrics of BENCHMARK.json as medians over the run, with --trace 1 its
per-layer metrics from the traced passes.  A copy with per-pass detail
goes to cmbench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from cmbench import checks, workloads  # noqa: E402
from cmbench.worker import SEP  # noqa: E402

RESULTS = ROOT / "cmbench" / "results"
MIN_PASSES = 2
# Each pass's worker plus 19 set-up-only workers.  One set-up varies by up to
# a third from the next on a shared host, so its median needs many samples.
SETUPS_PER_PASS = 20
WORKER_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def run_worker(ops, setup_only=False, trace=False, trace_file=None):
    job = {"ops": ops, "setup_only": setup_only, "trace": trace,
           "trace_file": str(trace_file) if trace_file else None}
    proc = subprocess.run(
        [sys.executable, "-m", "cmbench.worker"], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerFailed(proc.stderr.strip()[-2000:])
    *texts, meta = proc.stdout.split(SEP)
    return json.loads(meta), texts


def check_passes(ops, passes) -> tuple[int, list[str]]:
    """Failed operations and their problems; each pass must repeat the first."""
    first_meta, first_texts = passes[0]
    failed, problems, first_ok = 0, [], []
    for op, rc, text in zip(ops, first_meta["rc"], first_texts):
        found = checks.check_report(op, rc, text)
        first_ok.append(not found)
        failed += bool(found)
        problems += [f"{op['name']}: {p}" for p in found[:3]]
    for k, (meta, texts) in enumerate(passes[1:], start=2):
        for op, ok, rc, text, ref in zip(ops, first_ok, meta["rc"], texts, first_texts):
            if not ok:
                failed += 1
            elif rc != 0 or not _same_report(text, ref):
                failed += 1
                problems.append(f"{op['name']} (pass {k}): differs from pass 1")
    return failed, problems


def _same_report(text, ref) -> bool:
    try:
        return checks.normalized(text) == checks.normalized(ref)
    except ValueError:
        return False


def end_to_end(spec, passes, setups) -> dict:
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(m["pass_s"] for m, _ in passes),
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m, _ in passes),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def per_layer(spec, passes) -> tuple[dict, list[str]]:
    """Counts from the first pass (they must repeat); times and sizes as medians.

    Report sizes vary by a few bytes, because zeta reports its own run time.
    """
    rows = []
    for meta, _ in passes:
        row = dict(meta["layers"])
        row["cli.report_bytes"] = meta["report_bytes"]
        rows.append(row)
    out, problems = {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        if m["unit"] in ("s", "bytes"):
            value = statistics.median(r[name] for r in rows)
        else:
            value = rows[0][name]
            if any(r[name] != value for r in rows):
                problems.append(f"{name} differs between traced passes")
        out[name] = {"value": value, "unit": m["unit"]}
    return out, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cmcalc" / "__init__.py").is_file():
        print(f"error: no cmcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = RESULTS / f"{tag}.spans.jsonl" if args.trace else None

    ops = workloads.operations(args.workload, args.seed)
    passes, setups = [], []
    start = time.perf_counter()
    try:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(run_worker(ops, trace=bool(args.trace),
                                     trace_file=None if passes else trace_file))
            setups.append(passes[-1][0]["setup_s"])
            for _ in range(0 if args.trace else SETUPS_PER_PASS - 1):
                setups.append(run_worker(ops, setup_only=True)[0]["setup_s"])
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1

    failed, problems = check_passes(ops, passes)
    if args.trace:
        metrics, trace_problems = per_layer(spec, passes)
        problems += trace_problems
    else:
        metrics, trace_problems = end_to_end(spec, passes, setups), []
    result = {
        "correct": failed == 0 and not trace_problems,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, problems=problems,
                  ops=[op["name"] for op in ops],
                  passes=[{k: v for k, v in m.items() if k != "layers"} for m, _ in passes],
                  layers=[m.get("layers") for m, _ in passes])
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for p in problems[:20]:
        print(f"FAIL {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
