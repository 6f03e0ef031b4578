#!/usr/bin/env python3
"""Benchmark of octool on one workload, in one process on one thread.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from the seed, repeats passes over them until
``--seconds`` have gone by (at least one pass), checks the outputs outside the
timed region, and prints the metrics, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds one traced pass after the untraced ones
and reports the per-layer metrics instead (see README.md).  The exit code is 0 only when
every operation passed its check, apart from the workload's ``known_failures``,
which count as failed.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibration

# one thread for every numerical library numpy may load
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5        # the run itself plus four fresh processes
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def setup(workload: str, seed: int):
    """Import octool, build the workload's inputs and make one warm-up call;
    returns the workload and the reference seconds this took."""
    sys.path.insert(0, SRC)
    with calibration.SpeedProbe() as probe:
        t0 = time.perf_counter()
        import octool  # noqa: F401  (the import is part of what is timed)
        import workloads
        wl = workloads.WORKLOADS[workload](seed, OUT)
        wl.warm_up()
        t1 = time.perf_counter()
    return wl, probe.seconds(t0, t1)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Pass:
    """One pass over the workload's operations; ``seconds`` and ``op_s`` are
    reference seconds once ``scale`` has been called."""

    def __init__(self, wl):
        self.spans, self.outs, self.errors = [], [], {}
        t0 = time.perf_counter()
        for i, (label, fn) in enumerate(wl.ops):
            a = time.perf_counter()
            try:
                out = fn()
            except Exception:  # an operation that raises counts as failed
                out = None
                self.errors[i] = f"{label}: {traceback.format_exc()}"
            self.spans.append((a, time.perf_counter()))
            self.outs.append(out)
        if not self.errors:
            wl.finish(self.outs)
        self.span = (t0, time.perf_counter())
        self.wall_s = self.span[1] - t0

    def scale(self, probe):
        self.seconds = probe.seconds(*self.span)
        self.op_s = [probe.seconds(a, b) for a, b in self.spans]


def timed_passes(wl, seconds: float) -> list:
    """Passes until ``seconds`` of wall time have gone by; at least one."""
    passes, start = [], time.perf_counter()
    with calibration.SpeedProbe(wl.probe_mix) as probe:
        while not passes or time.perf_counter() - start < seconds:
            passes.append(Pass(wl))
    for p in passes:
        p.scale(probe)
    return passes


def failures(wl, passes):
    """Checks the first pass's outputs and compares every later pass with it;
    returns (failed operations, those not in ``wl.known_failures``, messages,
    run-level problems)."""
    first = passes[0]
    if first.errors:
        bad, problems = [first.errors.get(i) for i in range(len(wl.ops))], []
    else:
        bad, problems = wl.check(first.outs)
    import workloads  # already loaded by setup()
    failed, unexpected = 0, 0
    messages = [("KNOWN FAULT " if i in wl.known_failures else "FAILED ") + m
                for i, m in enumerate(bad) if m] + [f"FAILED {m}" for m in problems]
    for k, ps in enumerate(passes):
        for i, (label, _) in enumerate(wl.ops):
            if k == 0:
                fails = bad[i] is not None
            elif i in ps.errors or bad[i] is not None:
                fails = True
                if i in ps.errors:
                    messages.append(f"FAILED {ps.errors[i]}")
            else:
                fails = not workloads.same(ps.outs[i], first.outs[i])
                if fails:
                    messages.append(f"FAILED {label}: pass {k + 1} differs from pass 1")
            failed += fails
            unexpected += fails and i not in wl.known_failures
    return failed, unexpected, messages, problems


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "spectral", "pointwise"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    try:
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            untraced = timed_passes(wl, args.seconds)
            tracer.install()
            try:
                with calibration.SpeedProbe(wl.probe_mix) as probe:
                    traced = Pass(wl)
            finally:
                tracer.uninstall()
            traced.scale(probe)
            passes = [traced, *untraced]
            reference = statistics.median(p.seconds for p in untraced)
            metrics = tracer.metrics(traced.seconds / reference,
                                     traced.seconds / traced.wall_s)
            units = {k: tracing.unit(k) for k in metrics}
        else:
            setups = [setup_s] + [setup_probe(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
            passes = timed_passes(wl, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(p.seconds for p in passes),
                "op_p50_ms": 1e3 * statistics.median(s for p in passes for s in p.op_s),
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
        failed, unexpected, messages, problems = failures(wl, passes)
    finally:
        wl.cleanup()

    for m in messages:
        print(m, file=sys.stderr)
    attempted = sum(len(p.op_s) for p in passes)
    print(f"{args.workload}: {len(passes)} pass(es) of {len(wl.ops)} operations, "
          f"{attempted} attempted, {failed} failed; median pass "
          f"{statistics.median(p.wall_s for p in passes):.6g} s of wall time")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6g} {units[name]}")
    if args.trace:
        for tid, counts in sorted(tracer.theorem_counts.items()):
            print(f"  {tid:16s} " + " ".join(f"{k}={v}" for k, v in counts.items()))
    correct = not problems
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct and unexpected == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
