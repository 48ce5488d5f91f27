"""One workload in one fresh interpreter; started by bench/run.py.

The worker imports starquant, generates its inputs from the seed and
runs one untimed warm-up op, then prints ``ready`` so the parent can
time the set-up.  What follows depends on ``--mode``:

* ``setup``: exit at once (extra set-up samples).
* ``timed``: closed loop, one client, for ``--seconds``; every op is
  timed and checked.  On wkb_cli the known-defect probes run after the
  loop.
* ``trace``: the first ``TRACE_OPS`` ops three times over: untraced and
  with spans, op by op, then with fine-grained call counts.

The last stdout line is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)
from tracer import CountingTracer, SpanTracer  # noqa: E402

# Inputs are generated up front and reused cyclically after this many
# cycles (two to four times what one 25 s run uses today).
CYCLES = {"assoc": 10, "transport": 20, "wkb_cli": 40}
# Whole cycles; fixed op counts keep traced counts exactly repeatable for one seed.
TRACE_OPS = {"assoc": 72, "transport": 70, "wkb_cli": 76}


def run_op(op) -> str | None:
    try:
        return op.run()
    except Exception as exc:  # every library failure is an op failure
        return f"{type(exc).__name__}: {str(exc)[:160]}"


def reference_burst() -> float:
    """Seconds for a fixed slice of pure-Python rational arithmetic."""
    t0 = perf_counter()
    x = Fraction(0)
    for i in range(1, 300):
        x += Fraction(i % 7, i % 5 + 1)
    return perf_counter() - t0


def timed(ops, seconds: float) -> dict:
    """Closed loop for ``seconds``; the op in flight at the deadline completes.

    A reference burst follows every op (its time does not count toward
    the window), so run.py can scale each latency to the reference speed.
    ``last_share`` is the part of the last op that fell inside the window.
    """
    latencies, refs, failures = [], [], []
    deadline = perf_counter() + seconds
    i = 0
    while True:
        op = ops[i % len(ops)]
        t0 = perf_counter()
        why = run_op(op)
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if why:
            failures.append({"op": i, "label": op.label, "why": why})
        i += 1
        refs.append(reference_burst())
        if t1 > deadline:
            break
        deadline += perf_counter() - t1
    return {"latencies": latencies, "refs": refs, "failures": failures,
            "last_share": max(0.0, deadline - t0) / (t1 - t0)}


def traced(ops, ctx) -> dict:
    """Each op untraced, then with spans; then all ops again with counts.

    Running the untraced and the traced copy of an op back to back lets
    the two share the machine's speed, so their ratio is the overhead.
    """
    failures = []

    def run(i, op) -> float:
        t0 = perf_counter()
        why = run_op(op)
        elapsed = perf_counter() - t0
        if why:
            failures.append({"op": i, "label": op.label, "why": why})
        return elapsed

    plain_s = traced_s = 0.0
    spans = SpanTracer()
    for i, op in enumerate(ops):
        plain_s += run(i, op)
        spans.op_id = i
        spans.install()
        try:
            traced_s += run(i, op)
        finally:
            spans.uninstall()
    counting = CountingTracer()
    counting.install()
    try:
        for i, op in enumerate(ops):
            run(i, op)
    finally:
        counting.uninstall()
    return {"plain_s": plain_s, "traced_s": traced_s, "spans": spans.spans,
            "self_times": spans.self_times(), "counts": {**spans.counts, **counting.counts},
            "order1_max_err": ctx.order1_max_err if ctx else 0.0,
            "attempted": 3 * len(ops), "failures": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    args = parser.parse_args()

    os.makedirs(OUT_DIR, exist_ok=True)
    ops, ctx = workloads.make_ops(args.workload, args.seed, CYCLES[args.workload],
                                  ROOT, OUT_DIR)
    warm = run_op(ops[0])
    print("ready", flush=True)
    if warm:
        print(json.dumps({"error": f"warm-up op failed: {warm}"}))
        return 1
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(ops, args.seconds)
        if args.workload == "wkb_cli":
            result["known_defects"] = workloads.run_known_defects()
    else:
        result = traced(ops[:TRACE_OPS[args.workload]], ctx)
        spans = result.pop("spans")
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": spans}, fh)
        result["spans_file"] = os.path.relpath(path, ROOT)
        if args.workload == "wkb_cli":
            result["known_defects"] = workloads.run_known_defects()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
