"""starquant benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload assoc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout that holds ``src/starquant``.  Each
workload runs in fresh interpreters (bench/worker.py), one after
another, never two at once.  With ``--trace 0`` the run reports the
end-to-end metrics: it times SETUP_SAMPLES set-ups (interpreter start
to the first timed op) and one closed-loop timed run.  With
``--trace 1`` it reports the per-layer metrics instead: a traced pass
over a fixed op list, a counts pass, and a cold-import probe.

Human-readable lines come first; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  The
workloads, metrics and the layer map are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

from tracer import SPANS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("assoc", "transport", "wkb_cli")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# Time of one worker.reference_burst() at the reference speed.  Op
# latencies are scaled by REF_S / (the mean of the bursts around them),
# which takes out the drift of a shared machine: on 2 vCPUs that drift
# moves plain wall times by up to 30% between runs.  Set-up times are
# not scaled: they are mostly file and shared-library loading, which the
# burst does not track (scaling widened their spread).
REF_S = 1.25e-3

SPAN_METRICS = tuple(SPANS)  # each gives <span>_self_s ("render" gives render.self_s)
CALL_METRICS = ("star.star", "star.commutator", "star.smap", "evolution.evolve",
                "phase.phase_star", "parsing.parse", "cli.main")
COUNT_METRICS = ("star.terms_out", "scalars.mul_calls", "scalars.add_calls",
                 "observables.poly_new", "observables.poly_mul_calls",
                 "observables.diff_calls", "wkb.grid_points", "render.bytes_out",
                 "cli.error_exits")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode: str, args) -> tuple[float, dict | None]:
    """Start one worker; (set-up seconds, its final JSON or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"{mode} worker failed (exit {code}): {(first + rest)[-400:]}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def tail_percentile(sorted_ms: list[float]) -> tuple[int, float, int]:
    """Highest integer percentile with at least ten samples above it.

    Nearest-rank percentiles; (percentile, value, samples beyond).
    Falls back to the median when fewer than 20 samples exist.
    """
    n = len(sorted_ms)
    for pct in range(99, 49, -1):
        rank = max(1, math.ceil(pct / 100 * n))
        beyond = n - rank
        if beyond >= 10:
            return pct, sorted_ms[rank - 1], beyond
    rank = max(1, math.ceil(n / 2))
    return 50, sorted_ms[rank - 1], n - rank


def cold_import() -> tuple[float, float]:
    """Self import time of starquant.* and scipy.* in a fresh `import starquant.cli`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import starquant.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cold import failed: {proc.stderr[-400:]}")
    own = scipy = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        if name == "starquant" or name.startswith("starquant."):
            own += int(self_us)
        elif name == "scipy" or name.startswith("scipy."):
            scipy += int(self_us)
    return own / 1e6, scipy / 1e6


def burst_mean(refs: list[float], cut: float) -> float:
    """Mean of the bursts at or under ``cut``; longer ones were preempted."""
    kept = [r for r in refs if r <= cut]
    return statistics.mean(kept) if kept else cut / 3


def scale_to_reference(latencies: list[float], refs: list[float]) -> list[float]:
    """Each latency times REF_S over the mean of the bursts just before and after it.

    A mean, not a median: the box switches between a fast and a slow
    mode several times a second, and the bracketing bursts sample the
    mode the op ran in.  refs[i] follows op i.
    """
    cut = 3 * statistics.median(refs)
    return [lat * REF_S / burst_mean(refs[max(0, i - 1):i + 1], cut)
            for i, lat in enumerate(latencies)]


def end_to_end(args) -> tuple[dict, int, list]:
    setups = [spawn("setup", args)[0] for _ in range(SETUP_SAMPLES - 1)]
    raw, res = spawn("timed", args)
    setups.append(raw)
    with open(os.path.join(ROOT, ".bench_out", f"timed-{args.workload}-{args.seed}.json"),
              "w") as fh:
        json.dump({"setups": setups, **res}, fh)
    speed = burst_mean(res["refs"], 3 * statistics.median(res["refs"])) / REF_S
    failures, lat = res["failures"], res["latencies"]
    attempted = len(lat)
    metrics, raw_metrics = {}, {}
    for out, times in ((raw_metrics, lat), (metrics, scale_to_reference(lat, res["refs"]))):
        share = res["last_share"]
        window = sum(times[:-1]) + share * times[-1]
        lat_ms = sorted(x * 1000.0 for x in times)
        pct, tail, beyond = tail_percentile(lat_ms)
        out["ops_per_s"] = ((attempted - 1 + share) / window, "1/s")
        out["op_p50_ms"] = (statistics.median(lat_ms), "ms")
        out["op_tail_ms"] = (tail, "ms")
    metrics["setup_s"] = raw_metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = raw_metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops in "
          f"{args.seconds:g} s, closed loop, one client; machine at {1 / speed:.3f}x "
          f"reference speed (reference burst {speed * REF_S * 1e3:.3f} ms)")
    print(f"  {'metric':<12} {'scaled':>12}  {'raw':>12}")
    for name, (value, unit) in metrics.items():
        extra = f"  (p{pct}, n={attempted}, {beyond} beyond)" if name == "op_tail_ms" else ""
        print(f"  {name:<12} {value:12.4f}  {raw_metrics[name][0]:12.4f} {unit}{extra}")
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:12.4f}  "
          f"{len(failures) / attempted:12.4f} 1  ({len(failures)} of {attempted})")
    print(f"  raw setup samples: {', '.join(f'{r:.3f}' for r in setups)} s")
    report_defects(res)
    return metrics, attempted, failures


def report_defects(res: dict) -> None:
    """Print the known-defect probes; they are listed, not timed or counted."""
    for probe in res.get("known_defects", ()):
        state = "passes now" if probe["passed"] else f"fails: {probe['detail']}"
        print(f"  known defect ({probe['defect']}), want exit {probe['want_exit']}, "
              f"{state}: {' '.join(probe['argv'])}")


def per_layer(args) -> tuple[dict, int, list]:
    own_s, scipy_s = cold_import()
    _, res = spawn("trace", args)
    times, counts = res["self_times"], res["counts"]
    metrics: dict[str, tuple[float, str]] = {}
    for span in SPAN_METRICS:
        calls, self_s = times.get(span, (0, 0.0))
        metrics[f"{span}_self_s" if span != "render" else "render.self_s"] = (self_s, "s")
        if span in CALL_METRICS:
            metrics[f"{span}_calls"] = (calls, "count")
    bidiff = counts.get("star.bidiff_calls", 0)
    metrics["star.bidiff_calls"] = (bidiff, "count")
    metrics["star.bidiff_useful_ratio"] = (
        counts.get("star.bidiff_useful", 0) / bidiff if bidiff else 0.0, "ratio")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics["wkb.order1_max_err"] = (res["order1_max_err"], "1")
    metrics["cli.known_defects"] = (
        sum(not p["passed"] for p in res.get("known_defects", ())), "count")
    metrics["cli.cold_import_s"] = (own_s, "s")
    metrics["cli.cold_import_scipy_s"] = (scipy_s, "s")
    metrics["trace.overhead_ratio"] = (res["traced_s"] / res["plain_s"], "ratio")
    print(f"workload {args.workload} seed {args.seed}: traced {res['attempted'] // 3} ops "
          f"(untraced {res['plain_s']:.3f} s, traced {res['traced_s']:.3f} s); "
          f"spans in {res['spans_file']}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"  {name:<32} {value:14.6g} {unit}")
    report_defects(res)
    return metrics, res["attempted"], res["failures"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "starquant", "__init__.py")):
        print(f"no starquant sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failures = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"  FAILED op {failure['op']}: {failure['label']}: {failure['why']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
