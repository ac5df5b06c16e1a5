"""hypint benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload cli|compute --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; hypint is imported from ./src.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A summary line for people goes to stderr.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("cli", "compute"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up once, report readiness and exit (internal)")
    return p.parse_args(argv)


def probe(root, args):
    """Set-up as a run does it; print a READY line for the parent's clock."""
    before = len(sys.modules)
    t0 = time.perf_counter()
    import hypint  # noqa: F401
    import_s = time.perf_counter() - t0
    modules = len(sys.modules) - before
    import workloads
    from spans import NULL_TRACER
    wl = workloads.WORKLOADS[args.workload](root, args.seed, NULL_TRACER)
    print("READY " + json.dumps({"import_s": import_s, "modules": modules}),
          flush=True)
    wl.close()


def measure_setup(args):
    """Median, over fresh interpreters, of the time from launch until the
    first operation could begin."""
    times, infos = [], []
    argv = [sys.executable, os.path.abspath(__file__), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        rest, _ = proc.communicate()
        if proc.returncode != 0 or not line.startswith("READY "):
            raise RuntimeError(f"set-up failed (exit {proc.returncode})")
        times.append(elapsed)
        infos.append(json.loads(line[len("READY "):]))
    return statistics.median(times), infos


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_op(op, tracer, op_id):
    """Time one operation, then check its output (untimed).

    Returns (seconds, failure message or None)."""
    span = tracer.begin_op(op_id, op.label, op.kind)
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # an operation that raises has failed
        out, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if span is not None and error is None and op.counts is not None:
        span["counts"].update(op.counts(out))
    tracer.end_op(span)
    return dt, error or op.check(out)


def run_loop(wl, tracer, seconds):
    """Closed loop, one operation at a time, for `seconds` of wall time and
    at least enough operations for the tail percentile.

    A run stops at the round end nearest to `seconds`, so it lasts
    `seconds` give or take half a round; a workload without whole rounds
    also stops at the first operation that ends past `seconds`.

    Returns ({position in the round: latencies}, failures, busy seconds)."""
    min_ops = math.ceil(10 / (1 - wl.tail_q))
    ops = wl.round()
    latencies = {i: [] for i in range(len(ops))}
    failures = []
    busy = 0.0
    attempted = 0
    t0 = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            dt, message = run_op(op, tracer, attempted)
            attempted += 1
            busy += dt
            latencies[i].append(dt)
            if message:
                failures.append((op.label, op.known_fault, message))
            if not wl.whole_rounds and attempted >= min_ops \
                    and time.perf_counter() - t0 >= seconds:
                return latencies, failures, busy
        now = time.perf_counter()
        half_round = (now - round_start) / 2
        if attempted >= min_ops and now - t0 + half_round >= seconds:
            return latencies, failures, busy


def op_p50(latencies):
    """Median over the round's operations of each one's mean latency.

    The host's speed changes in phases of several seconds; averaging the
    repeats of one operation weighs each phase by how long it lasted,
    where a median of single latencies jumps between the slow and the fast
    phase's figure as their shares of a run cross one half."""
    return statistics.median(statistics.fmean(v) for v in latencies.values() if v)


def layer_metrics(tracer, infos):
    """Per-layer metrics: medians per operation of self times and counts.

    Quadrature works for two request types, so its metrics come twice: over
    the 2-D integrals (eval) and over the system checks (verify)."""
    from spans import median_or_zero as med
    kind_of = {s["op"]: s["kind"] for s in tracer.spans if s["name"] == "op"}

    def per_op(values, kind):
        return med(v for op, v in values.items() if kind in (None, kind_of[op]))

    def op_time(name, kind=None):
        return per_op(tracer.per_op(name), kind)

    def op_count(counter):
        return per_op(tracer.count_per_op(counter), None)

    def calls(name, kind=None):
        counts = {}
        for s in tracer.spans_named(name):
            counts[s["op"]] = counts.get(s["op"], 0) + 1
        return per_op(counts, kind)

    def per_integral(counter, kind):
        return med(s["counts"].get(counter, 0)
                   for s in tracer.spans_named("quadrature.integrate")
                   if kind_of[s["op"]] == kind)

    values = {
        "startup.import_s": (med(i["import_s"] for i in infos), "s"),
        "startup.modules": (med(i["modules"] for i in infos), "count"),
        "problem_io.load_s": (op_time("problem_io.load"), "s"),
    }
    for cmd in ("system", "series", "eval", "verify"):
        values[f"cli.{cmd}_s"] = (op_time(f"cli.{cmd}"), "s")
    values.update({
        "lattice.kernel_basis_s": (op_time("lattice.kernel_basis"), "s"),
        "lattice.enumerate_bases_s": (op_time("lattice.enumerate_bases"), "s"),
        "series.gg_series_s": (op_time("series.gg_series"), "s"),
        "series.evaluate_s": (op_time("series.evaluate"), "s"),
        "series.terms": (op_count("terms"), "count"),
        "series.den_bits_max": (op_count("den_bits"), "bits"),
        "operators.apply_s": (op_time("operators.apply"), "s"),
        "operators.apply_calls": (calls("operators.apply"), "count"),
    })
    for kind in ("eval", "verify"):
        values.update({
            f"quadrature.{kind}.integrate_s":
                (op_time("quadrature.integrate", kind), "s"),
            f"quadrature.{kind}.integrate_calls":
                (calls("quadrature.integrate", kind), "count"),
            f"quadrature.{kind}.adaptive_calls":
                (per_integral("adaptive_calls", kind), "count"),
            f"quadrature.{kind}.nodes": (per_integral("nodes", kind), "count"),
        })
    values.update({
        "verify.check_s": (op_time("verify.check"), "s"),
        "verify.coeff_lookups": (op_count("coeff_lookups"), "count"),
        "verify.coeff_evals": (calls("verify.coeff_eval"), "count"),
        "verify.residuals": (op_count("residuals"), "count"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hypint", "__init__.py")):
        print("bench: run from the root of a hypint checkout (no src/hypint)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.probe:
        probe(root, args)
        return 0

    from spans import NULL_TRACER, Tracer, install_hooks
    setup_s, infos = measure_setup(args)
    import workloads
    tracer = Tracer() if args.trace else NULL_TRACER
    wl = workloads.WORKLOADS[args.workload](root, args.seed, tracer)
    try:
        if args.trace:
            install_hooks(tracer)
        wl.prepare()
        t0 = time.perf_counter()
        by_op, failures, busy = run_loop(wl, tracer, args.seconds)
        wall = time.perf_counter() - t0
    finally:
        wl.close()

    lat = sorted(dt for v in by_op.values() for dt in v)
    p50 = op_p50(by_op)
    tail = nearest_rank(lat, wl.tail_q)
    unexpected = [f for f in failures if not f[1]]
    print(f"bench: {args.workload} seed={args.seed} ops={len(lat)} "
          f"failed={len(failures)} busy={busy:.2f}s wall={wall:.2f}s "
          f"p50={p50:.5f}s p{round(wl.tail_q * 100)}={tail:.5f}s "
          f"ops/s={len(lat) / busy:.3f} setup={setup_s:.3f}s",
          file=sys.stderr)
    for label, _, message in unexpected[:5]:
        print(f"bench: FAILED {label}: {message}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, infos)
        out_dir = os.path.join(root, workloads.OUT_DIR)
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / busy, "unit": "1/s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": len(lat),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
