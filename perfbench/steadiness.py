#!/usr/bin/env python3
"""Steadiness of the benchmark on this machine.

    python3 perfbench/steadiness.py [--runs 10] [--trace-check]

Runs each workload ``--runs`` times, with seeds 1, 2, ..., exactly as
BENCHMARK.json's command does, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound.  A spread within a third of its bound is marked ``ok``.  It
also prints the share of failed operations of each workload.  With
``--trace-check`` it makes two traced runs of each workload with seed 1,
prints the first one's per-layer metrics and reports any per-layer
count that differs between them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(spec, workload: str, results: list) -> list:
    rows = []
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        mark = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER BOUND")
        rows.append(f"{workload:10s} {m['name']:12s} median {med:12.6g} {m['unit']:3s} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                    f"bound {m['bound']:.2f}  {mark}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    rows.append(f"{workload:10s} failed {failed} of {attempted} operations; "
                f"failed shares per run: {shares}")
    return rows


def trace_check(spec, workload: str, seed: int) -> list:
    counts = [name for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"])
              if unit == "count"]
    a, b = (run_once(spec, workload, seed, 1)["metrics"] for _ in range(2))
    diff = [f"{n}: {a[n]['value']} != {b[n]['value']}" for n in counts
            if a[n]["value"] != b[n]["value"]]
    rows = [f"{workload:10s} traced {n:36s} {v['value']:14.6g} {v['unit']}"
            for n, v in a.items()]
    return rows + [f"{workload:10s} traced counts " + (
        "identical on two runs" if not diff else "DIFFER: " + "; ".join(diff))]


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-check", action="store_true")
    args = ap.parse_args()
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            results.append(run_once(spec, workload, seed, 0))
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
        for row in spread_table(spec, workload, results):
            print(row, flush=True)
        if args.trace_check:
            for row in trace_check(spec, workload, 1):
                print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
