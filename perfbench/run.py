"""cyberlog benchmark: one command per workload, every answer checked.

    python3 perfbench/run.py --workload {ingest,watch,http} --seed N \
        --seconds S --trace {0,1}

Runs the program from `src/` of the checkout this file sits in, generates
the workload from the seed, measures it (memory mode: a number of
repetitions fixed by `--seconds`; http: sends for `--seconds`) and prints
every metric by name with its unit. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1. A
wrong expected answer count, a failed audit or a server left running exits
non-zero without that line. perfbench/README.md says what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "watch", "http")


def run_memory(kind: str, seed: int, seconds: float, trace: bool, n_flows: int | None):
    """Make the fixed number of repetitions for `seconds` (at least two
    when tracing). A traced run alternates untraced and traced
    repetitions so tracing overhead is measured in the same run. Returns
    the repetitions and their tracers."""
    import memory
    import tracer as tr

    workload = memory.make_workload(kind, seed, n_flows)
    count = memory.repetitions(seconds)
    if trace:
        count = max(2, count)
    tracers = [tr.Tracer() if trace and i % 2 == 1 else None for i in range(count)]
    reps = [memory.run_rep(kind, workload, tracer) for tracer in tracers]
    return reps, tracers


def fastest(series: list[list[float]]) -> list[float]:
    """Element-wise minimum over repetitions of one deterministic sequence
    of operations (the same events, commits, flows or claims in the same
    order every repetition)."""
    if len({len(samples) for samples in series}) != 1:
        raise ValueError("repetitions did not perform the same operations")
    return [min(column) for column in zip(*series)]


def memory_values(reps, tracers) -> tuple[dict, dict, int, int]:
    """Every repetition performs the same operations in the same order, so
    a time is taken per operation as its fastest over the repetitions, and
    percentiles, the set-up median and throughput are computed from those:
    host interference only ever slows an operation down. Throughput divides
    the events by the replay's steps (one per virtual-clock instant) at
    their fastest, summed. The repetition count is fixed by --seconds, so
    these minima are over the same number of samples on every commit."""
    from metrics import pct, self_peak_rss_mb, span_values

    first = reps[0]
    series = lambda attr: fastest([getattr(r, attr) for r in reps])
    ingest_ms = series("ingest_ms")
    audit_ms = series("audit_ms")
    plain = [r for r, t in zip(reps, tracers) if t is None]
    e2e = {
        "setup_s": statistics.median(series("setup_s")),
        "events_per_s": first.events / sum(fastest([r.step_s for r in plain])),
        "ingest_p50_ms": pct(ingest_ms, 50),
        "ingest_p90_ms": pct(ingest_ms, 90),
        "audit_claim_p50_ms": pct(audit_ms, 50),
        "audit_claim_p90_ms": pct(audit_ms, 90),
        "log_bytes_per_claim": first.log_bytes / first.logged_claims,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    layer = {
        "claimlog.subtree_cache_entries": first.subtree_cache_entries,
        "claimlog.log_bytes": first.log_bytes,
        "monitor.commit_p50_ms": pct(series("commit_ms"), 50),
        "monitor.commit_p90_ms": pct(series("commit_ms"), 90),
        "monitor.watch_lag_p50_ms": pct(series("lag_ms"), 50),
        "monitor.watch_lag_p90_ms": pct(series("lag_ms"), 90),
        "bench.failed_ratio": failed / attempted,
    }
    traced = [t for t in tracers if t is not None]
    if traced:
        layer.update(span_values(traced))
        with_trace = [r.replay_s for r, t in zip(reps, tracers) if t is not None]
        layer["bench.trace_overhead_ratio"] = min(with_trace) / min(r.replay_s for r in plain)
    return e2e, layer, attempted, failed


def http_values(res, tracer) -> tuple[dict, dict, int, int]:
    from metrics import pct, span_values

    e2e = {
        "setup_s": statistics.median(res.setup_s),
        "events_per_s": len(res.latency_ms) / res.send_s,
        "ingest_p50_ms": pct(res.latency_ms, 50),
        "ingest_p90_ms": pct(res.latency_ms, 90),
        "audit_claim_p50_ms": pct(res.audit_ms, 50),
        "audit_claim_p90_ms": pct(res.audit_ms, 90),
        "log_bytes_per_claim": res.log_bytes / res.logged_claims,
        "peak_rss_mb": res.peak_rss_mb,
    }
    layer = {
        "claimlog.subtree_cache_entries": 0,
        "claimlog.log_bytes": res.log_bytes,
        "monitor.commit_p50_ms": 0.0,
        "monitor.commit_p90_ms": 0.0,
        "monitor.watch_lag_p50_ms": 0.0,
        "monitor.watch_lag_p90_ms": 0.0,
        "ingest_p99_ms": pct(res.latency_ms, 99),
        "monitor.http_overhead_p50_ms": pct(res.overhead_ms, 50),
        "monitor.server_delay_p99_ms": pct(res.server_delay_ms, 99),
        "bench.generator_late_p99_ms": pct(res.late_ms, 99),
        "bench.failed_ratio": res.failed / res.attempted,
    }
    if tracer is not None:
        layer.update(span_values([tracer]))
        layer["bench.trace_overhead_ratio"] = res.audit_traced_s / res.audit_untraced_s
    return e2e, layer, res.attempted, res.failed


def write_spans(workload: str, seed: int, tracers) -> str:
    import gzip

    from workload import OUT_DIR

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("rep\tid\tname\tstart_ns\tend_ns\tparent\tgroup\tself_ns\n")
        for rep, tracer in enumerate(tracers):
            if tracer is not None:
                tracer.write_spans(fh, rep)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cyberlog benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--flows", type=int, default=None, help="override the workload size (tests)")
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so `finally` blocks stop the servers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import cyberlog.harness
    except ImportError as exc:
        print(f"perfbench: cannot import cyberlog from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(cyberlog.harness.__file__).startswith(src + os.sep):
        print(f"perfbench: cyberlog was imported from {cyberlog.harness.__file__}, not {src}", file=sys.stderr)
        return 2
    import memory
    from metrics import END_TO_END, HTTP_ONLY, PER_LAYER

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + HTTP_ONLY}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        if args.workload == "http":
            import httpload
            import tracer as tr

            tracer = tr.Tracer() if args.trace else None
            res = httpload.run_http(args.seed, args.seconds, tracer, args.flows)
            tracers = [tracer]
            e2e, layer, attempted, failed = http_values(res, tracer)
        else:
            reps, tracers = run_memory(args.workload, args.seed, args.seconds, bool(args.trace), args.flows)
            e2e, layer, attempted, failed = memory_values(reps, tracers)
    except memory.GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure invalidates the run
        traceback.print_exc()
        print(f"perfbench: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    shown = layer if args.trace else e2e
    for name, value in {**e2e, **layer}.items():
        print(f"{name} = {value} {units[name]}")
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"run: wall_s = {time.perf_counter() - wall0:.3f}, cpu_s = {time.process_time() - cpu0:.3f},"
          f" server_cpu_s = {children.ru_utime + children.ru_stime:.3f}, repetitions = {len(tracers)}")
    traced = [t for t in tracers if t is not None]
    if traced:
        print("spans written to " + write_spans(args.workload, args.seed, tracers))
        for phase in ("flow", "commit", "poll", "audit"):
            for name, own, inclusive in traced[0].time_shares(phase):
                if own >= 0.02 or inclusive >= 0.1:
                    print(f"{phase} time share {name}: self {own:.3f}, inclusive {inclusive:.3f}")
    names = [name for name, *_ in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": shown[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
