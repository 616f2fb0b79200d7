"""Steadiness mode: run the benchmark many times and summarise the spread.

    python3 cmbench/steady.py [--runs 10] [--first-seed 1]

It makes two sets of runs.  In each set it runs ``run.py`` --runs times on
every workload of BENCHMARK.json, each run with its own seed, and prints
the median, quartiles and quartile spread (as a share of the median) of
every end-to-end metric, next to the metric's bound in BENCHMARK.json.  It
also prints how far the second set's median moved from the first set's,
and whether the share of failed operations is the same.  Every spread and
every move, either way, must stay within the metric's bound; the exit code
is 1 if one does not.  The figures go to cmbench/results/steady.json as
well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "cmbench" / "results"
SETS = 2


def run_once(workload, seed, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, "cmbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for s in range(SETS):
        summary = {}
        for workload in (w["name"] for w in spec["workloads"]):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                results.append(run_once(workload, seed, spec["run_seconds"]))
                figures = results[-1]["metrics"].items()
                print(f"set {s + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4f}" for k, v in figures),
                      file=sys.stderr, flush=True)
            summary[workload] = {
                "failed_share": [r["failed"] / r["attempted"] for r in results],
                "correct": all(r["correct"] for r in results),
                "metrics": {name: summarise([r["metrics"][name]["value"] for r in results])
                            for name in bounds},
            }
        sets.append(summary)

    ok = True
    print(f"{'set':>3} {'workload':<9} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'vs set 1':>8}")
    for s, summary in enumerate(sets, start=1):
        for workload, entry in summary.items():
            for name, st in entry["metrics"].items():
                shift = st["median"] / sets[0][workload]["metrics"][name]["median"] - 1
                within = st["spread"] <= bounds[name] and abs(shift) <= bounds[name]
                ok &= within
                print(f"{s:>3} {workload:<9} {name:<12} {st['median']:>10.4f} {st['q1']:>10.4f} "
                      f"{st['q3']:>10.4f} {st['spread']:>7.3f} {bounds[name]:>6.2f} {shift:>+8.3f}"
                      + ("" if within else "  OUT"))
            shares = sorted(set(entry["failed_share"]) | set(sets[0][workload]["failed_share"]))
            ok &= entry["correct"] and len(shares) == 1
            print(f"{s:>3} {workload:<9} failed share {shares}, correct {entry['correct']}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steady.json").write_text(json.dumps(sets, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
