"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

Smoke runs use tiny workloads; the repository's own test suite does not
collect this file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import memory  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workload as wl  # noqa: E402

# end-to-end quantities that BENCHMARK.json can only carry as per-layer
# metrics; every run prints them by name with their unit
ALWAYS_PRINTED = ["monitor.commit_p50_ms", "monitor.commit_p90_ms", "monitor.watch_lag_p50_ms",
                  "monitor.watch_lag_p90_ms", "bench.failed_ratio"]
DETERMINISTIC = ["identity.verify_bytes.calls", "lang.parse_standalone_rule.calls",
                 "revision.decode_payload.calls", "claimlog.subtree_cache_entries", "claimlog.log_bytes"]
TINY = {"ingest": ["--flows", "12"], "watch": ["--flows", "10"], "http": ["--flows", "6"]}


def bench(workload: str, trace: int, seed: int = 5, hash_seed: str = "0") -> tuple[dict, dict]:
    """Run the benchmark CLI; returns (last-line JSON, printed name -> (value, unit))."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *TINY[workload]],
        capture_output=True, text=True, timeout=170, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep and len(rest.split()) == 2:
            value, unit = rest.split()
            printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def test_benchmark_json_declares_the_code_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    # http is runnable but not declared: see README.md
    assert [w["name"] for w in spec["workloads"]] == ["ingest", "watch"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.PER_LAYER


@pytest.mark.parametrize("workload", ["ingest", "watch", "http"])
def test_smoke_prints_every_metric_with_its_unit(workload):
    for trace, declared in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
        result, printed = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
        assert list(result["metrics"]) == [name for name, *_ in declared]
        for name, unit, _ in declared:
            assert result["metrics"][name]["unit"] == unit
            assert printed[name][1] == unit
        if trace == 0:
            for name, unit, _ in metrics.END_TO_END:
                assert result["metrics"][name]["value"] > 0, name
        for name in ALWAYS_PRINTED:
            assert name in printed
        for name, unit in metrics.HTTP_ONLY:
            assert (name in printed) == (workload == "http"), name
            assert workload != "http" or printed[name][1] == unit
    if workload == "watch":
        assert printed["monitor.watch_lag_p50_ms"][0] > 0
    leftovers = [d for d in os.listdir(wl.OUT_DIR) if d.startswith("http-")]
    assert leftovers == []


@pytest.mark.parametrize("workload", ["ingest", "watch"])
def test_counts_repeat_exactly_for_one_seed(workload):
    runs = [bench(workload, 1, seed=11, hash_seed=h) for h in ("1", "2")]
    for name in DETERMINISTIC:
        assert runs[0][0]["metrics"][name]["value"] == runs[1][0]["metrics"][name]["value"], name
    assert runs[0][1]["log_bytes_per_claim"] == runs[1][1]["log_bytes_per_claim"]


def test_tampered_expected_count_fails_the_run(monkeypatch, capsys):
    real = wl.generate

    def tampered(*args, **kwargs):
        result = real(*args, **kwargs)
        first = dataclasses.replace(result.expected[0], count=result.expected[0].count + 1)
        return dataclasses.replace(result, expected=(first, *result.expected[1:]))

    monkeypatch.setattr(wl, "generate", tampered)
    code = run.main(["--workload", "ingest", "--seed", "3", "--seconds", "1", "--flows", "6"])
    out = capsys.readouterr()
    assert code == 1
    assert "correctness gate failed" in out.err
    assert '"correct"' not in out.out


def test_failed_audit_fails_the_run(monkeypatch):
    from cyberlog.audit import AuditNode

    monkeypatch.setattr(
        memory.Auditor, "audit_claim", lambda self, record, claim, depth=0: AuditNode("x", "direct", False, "forged")
    )
    with pytest.raises(memory.GateError):
        memory.run_rep("ingest", memory.make_workload("ingest", 3, 4))


def test_tracer_patches_every_binding_and_restores_them():
    import cyberlog.audit
    import cyberlog.claimdb
    import cyberlog.identity
    import cyberlog.revision

    originals = (cyberlog.revision.decode_payload, cyberlog.identity.verify_bytes)
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert cyberlog.claimdb.decode_payload is cyberlog.revision.decode_payload
        assert cyberlog.claimdb.decode_payload.__wrapped__ is originals[0]
        assert cyberlog.audit.verify_bytes.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert cyberlog.claimdb.decode_payload is originals[0]
    assert cyberlog.audit.verify_bytes is originals[1]
    assert cyberlog.engine.KnowledgeBase.saturate.__name__ == "saturate"
