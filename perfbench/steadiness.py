"""Steadiness report: repeated runs of the benchmark, one seed each.

    python3 perfbench/steadiness.py [--workloads coupling,sweep,evolve]
        [--runs 10] [--first-seed 1] [--seconds S]

Runs ``perfbench/run.py`` once per (workload, seed) as a fresh process and
prints each run's end-to-end metrics with units, op count and failure share
(``--runs 1`` is the one-command overview of all workloads). With two or
more runs it then prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json. The report
is also written to perfbench/results/steadiness.json. The bounds in
BENCHMARK.json are set from this report: every spread except setup_s must
stay below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - t0:.1f} s): "
                  f"{result['attempted']} ops, failure share {result['failed'] / result['attempted']:.4f}, "
                  + " ".join(f"{n}={v[-1]:.6g} {result['metrics'][n]['unit']}" for n, v in values.items()),
                  flush=True)
        if args.runs < 2:
            continue
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vals}
        report[workload] = {"failed": failed, "metrics": rows}

    print(f"\n{'workload':9s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for workload, rep in report.items():
        for name, r in rep["metrics"].items():
            flag = "" if name == "setup_s" or r["spread"] < r["bound"] / 3 else "  WIDE"
            print(f"{workload:9s} {name:12s} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} "
                  f"{r['spread']:8.4f} {r['bound'] / 3:8.4f}{flag}")
        print(f"{workload:9s} failed ops or incorrect runs: {rep['failed']}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
