"""The benchmark drives cyberlog through `perfbench/memory.py` and wraps it
with `perfbench/tracer.py`; both read names the package could rename
(`ScenarioRun.client`, `.db`, `.monitors`, `MerkleLog._subtree_cache`, the
module bindings the tracer patches). One tiny repetition of each memory
workload, untraced and traced, makes such a rename fail here, in the tier-1
suite. Imports the two files and changes nothing in them."""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
MODULES = ("memory", "tracer", "workload")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    saved = {name: sys.modules.pop(name) for name in MODULES if name in sys.modules}
    try:
        yield importlib.import_module("memory"), importlib.import_module("tracer")
    finally:
        for name in MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("kind", ["ingest", "watch"])
def test_one_tiny_repetition(perfbench, kind, traced):
    memory, tracer = perfbench
    workload = memory.make_workload(kind, 3, 4)
    spans = tracer.Tracer() if traced else None
    res = memory.run_rep(kind, workload, spans)
    assert res.failed == 0 and res.events == len(workload.events) == len(res.ingest_ms)
    assert res.commit_ms and res.audit_ms and res.attempted > res.events
    assert res.log_bytes > 0 and res.logged_claims > 0 and res.subtree_cache_entries > 0
    if kind == "watch":
        assert res.lag_ms
    if traced:
        assert spans.stats["revision.commit_staging"].calls > 0
        assert spans.stats["audit.Auditor.audit_claim"].calls >= len(res.audit_ms)  # one call per head claim
        assert (spans.stats["revision.on_superseded"].calls > 0) == (kind == "watch")
