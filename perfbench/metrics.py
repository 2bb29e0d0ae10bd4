"""Metric declarations and their computation from repetitions and traces.

END_TO_END and PER_LAYER are the lists BENCHMARK.json declares (a test
keeps the two in step). Every workload reports every declared metric; a
per-layer count is 0 where the workload never reaches that layer in-process
(the http servers are not traced).
"""

from __future__ import annotations

import resource

from tracer import TARGETS

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("events_per_s", "events/s", "higher"),
    ("ingest_p50_ms", "ms", "lower"),
    ("ingest_p90_ms", "ms", "lower"),
    ("audit_claim_p50_ms", "ms", "lower"),
    ("audit_claim_p90_ms", "ms", "lower"),
    ("log_bytes_per_claim", "B/claim", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# traced span name -> which of calls / self_ms / distinct_ratio it reports
SPAN_METRICS = {name: stats for name, *_, stats in TARGETS}
SUFFIX_UNITS = {"calls": "count", "self_ms": "ms", "distinct_ratio": "ratio"}

# per-layer metrics that are not a plain span statistic
DERIVED_LAYER = [
    ("engine.saturate.added_ratio", "ratio"),
    ("engine.KnowledgeBase.assert_claim.new_ratio", "ratio"),
    ("engine.kb_facts_max", "count"),
    ("claimlog.subtree_cache_entries", "count"),
    ("claimlog.log_bytes", "B"),
    ("claimlog.time_share", "ratio"),
    ("claimdb.ClaimDb.submit_revision.rejected", "count"),
    ("audit.Auditor.fetch_revision.hit_ratio", "ratio"),
    ("monitor.commit_p50_ms", "ms"),
    ("monitor.commit_p90_ms", "ms"),
    ("monitor.watch_lag_p50_ms", "ms"),
    ("monitor.watch_lag_p90_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.failed_ratio", "ratio"),
]

# figures only the http workload measures (its ingest tail, and client-side
# layer figures); http runs print them, but BENCHMARK.json does not declare
# http, so it does not declare them
HTTP_ONLY = [
    ("ingest_p99_ms", "ms"),
    ("monitor.http_overhead_p50_ms", "ms"),
    ("monitor.server_delay_p99_ms", "ms"),
    ("bench.generator_late_p99_ms", "ms"),
]

# useful outcomes per attempt are better higher; every other layer metric is a cost
HIGHER_IS_BETTER = ("distinct_ratio", "new_ratio", "added_ratio", "hit_ratio")
PER_LAYER = [
    (name, unit, "higher" if name.endswith(HIGHER_IS_BETTER) else "lower")
    for name, unit in [(f"{span}.{stat}", SUFFIX_UNITS[stat]) for span, stats in SPAN_METRICS.items() for stat in stats]
    + DERIVED_LAYER
]

# spans whose summed self time gives claimlog.time_share
CLAIMLOG_SPANS = [name for name in SPAN_METRICS if name.startswith("claimlog.")]


def pct(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_values(tracers: list) -> dict:
    """Counts and ratios from the first traced repetition (they repeat
    exactly for one seed); self times from the fastest traced repetition."""
    first = tracers[0]
    values: dict[str, float] = {}
    for span, stats in SPAN_METRICS.items():
        stat = first.stats[span]
        for kind in stats:
            if kind == "calls":
                values[f"{span}.calls"] = stat.calls
            elif kind == "self_ms":
                values[f"{span}.self_ms"] = min(t.stats[span].self_ns / 1e6 for t in tracers)
            else:
                values[f"{span}.distinct_ratio"] = _ratio(len(stat.keys), stat.calls)
    total_self = sum(s.self_ns for s in first.stats.values())
    claimlog_self = sum(first.stats[n].self_ns for n in CLAIMLOG_SPANS)
    assert_stat = first.stats["engine.KnowledgeBase.assert_claim"]
    values.update({
        "engine.saturate.added_ratio": _ratio(first.saturate_added, first.saturate_facts_in),
        "engine.KnowledgeBase.assert_claim.new_ratio": _ratio(assert_stat.true_results, assert_stat.calls),
        "engine.kb_facts_max": first.kb_facts_max,
        "claimlog.time_share": _ratio(claimlog_self, total_self),
        "claimdb.ClaimDb.submit_revision.rejected": first.stats["claimdb.ClaimDb.submit_revision"].errors,
        "audit.Auditor.fetch_revision.hit_ratio": _ratio(
            first.fetch_hits, first.stats["audit.Auditor.fetch_revision"].calls
        ),
    })
    return values
