"""Memory-mode workloads (`ingest`, `watch`): in-process `ClaimDb` and
`Monitor`s on the harness's virtual clock, driven through
`harness.ScenarioRun` so the tick order (events, then commits, then polls)
is the harness's own. One repetition is set-up, replay, drain, the
correctness gate and an audit phase over every owner's head.
"""

from __future__ import annotations

import bisect
import gc
import json
import time
from dataclasses import dataclass, field

from cyberlog.audit import Auditor
from cyberlog.errors import CyberlogError
from cyberlog.harness import ScenarioRun

import workload as wl

INTERVAL_MS = 1000
# set-up takes milliseconds, so each repetition times it several times
SETUP_REPEATS = 20
# a run makes one repetition per REP_S seconds of --seconds: the count
# depends on --seconds alone, never on how fast the host or the program is,
# so every commit is measured over the same number of repetitions
REP_S = 4


class GateError(Exception):
    """An expected answer count or audit verdict was wrong: the run is invalid."""


@dataclass(frozen=True)
class Shape:
    n_flows: int
    with_dom: bool
    flows_per_window: int  # 0 packs every flow into the first commit window


# Both shapes are sized so that a repetition takes about REP_S seconds on a
# 2-vCPU VM: per-operation minima over 15 repetitions are steady there,
# over 5 to 8 longer ones they were not.
SHAPES = {
    # one commit window in which the KB grows to ~360 facts over ~490
    # ingests; no watcher, so include_revision and on_superseded never run.
    "ingest": Shape(n_flows=100, with_dom=False, flows_per_window=0),
    # small KBs, many windows: every window re-commits each owner's carried
    # history and DOM rebuilds once per superseded owner.
    "watch": Shape(n_flows=24, with_dom=True, flows_per_window=4),
}


def repetitions(seconds: float) -> int:
    return max(1, int(seconds // REP_S))


def make_workload(kind: str, seed: int, n_flows: int | None = None) -> wl.Workload:
    shape = SHAPES[kind]
    n = n_flows or shape.n_flows
    if shape.flows_per_window == 0:
        starts = [1 + (i * 900) // n for i in range(n)]
        step = 0.0
    else:
        span = INTERVAL_MS // shape.flows_per_window
        starts = [(i // shape.flows_per_window) * INTERVAL_MS + 20 + (i % shape.flows_per_window) * span for i in range(n)]
        step = span / 5
    return wl.generate(seed, n, starts, step, shape.with_dom)


@dataclass
class RepResult:
    setup_s: list = field(default_factory=list)
    replay_s: float = 0.0
    step_s: list = field(default_factory=list)  # wall time of each replay step
    events: int = 0
    ingest_ms: list = field(default_factory=list)
    commit_ms: list = field(default_factory=list)
    lag_ms: list = field(default_factory=list)
    audit_ms: list = field(default_factory=list)  # per audited claim
    attempted: int = 0
    failed: int = 0
    log_bytes: int = 0
    logged_claims: int = 0
    subtree_cache_entries: int = 0


def _instrument(run: ScenarioRun, res: RepResult, commit_done: dict, tracer, flow_of: dict) -> None:
    """Time each monitor's ingest_event and commit at the call boundary; when
    tracing, label spans with the flow, commit or poll they belong to."""
    clock = time.perf_counter
    for name, mon in run.monitors.items():
        ingest, commit, poll = mon.ingest_event, mon.commit, mon.poll_and_include

        def timed_ingest(env, ingest=ingest):
            if tracer is not None:
                tracer.set_group(f"flow:{flow_of[env.body]}")
            res.attempted += 1
            start = clock()
            try:
                result = ingest(env)
            except CyberlogError:
                res.failed += 1
                return None
            res.ingest_ms.append((clock() - start) * 1000.0)
            if result.decision != "allow":
                res.failed += 1
            return result

        def timed_commit(name=name, commit=commit):
            if tracer is not None:
                tracer.set_group(f"commit:{name}@{run.now}")
            res.attempted += 1
            start = clock()
            record = commit()
            end = clock()
            res.commit_ms.append((end - start) * 1000.0)
            if record is None:
                res.failed += 1
            else:
                commit_done.setdefault(name, []).append((run.now, end))
            return record

        def labelled_poll(name=name, poll=poll):
            if tracer is not None:
                tracer.set_group(f"poll:{name}@{run.now}")
            return poll()

        mon.ingest_event = timed_ingest
        mon.commit = timed_commit
        mon.poll_and_include = labelled_poll


def _commit_return(commit_done: dict, owner: str, at_ms: int) -> float | None:
    """Wall time at which the first commit of `owner` at or after virtual
    time `at_ms` returned (events precede commits at equal ticks)."""
    done = commit_done.get(owner, [])
    i = bisect.bisect_left([tick for tick, _ in done], at_ms)
    return done[i][1] if i < len(done) else None


def _query_pending(run: ScenarioRun, pending: list, commit_done: dict, res: RepResult, tracer) -> list:
    """Ask DOM for each flow whose last premise is logged; returns the flows
    still unanswered. Lag runs from that commit's return to the answer."""
    dom = run.monitors["DOM"]
    still = []
    for flow in pending:
        premise = flow.last_premise
        started = _commit_return(commit_done, premise.monitor, premise.at_ms)
        if started is None:
            still.append(flow)
            continue
        if tracer is not None:
            tracer.set_group(f"flow:{flow.request_id}")
        answers = dom.handle_query(f"good_rtf_exists({flow.request_id}, {flow.aircraft_id})")
        if answers:
            res.lag_ms.append((time.perf_counter() - started) * 1000.0)
        else:
            still.append(flow)
    return still


def check_expectations(run: ScenarioRun) -> None:
    wrong = [e for e in run.evaluate().expectations if not e.ok]
    if wrong:
        raise GateError("; ".join(f"{e.monitor} {e.query}: {e.actual} answers, expected {e.expected}" for e in wrong))


def log_size(log) -> tuple[int, int]:
    """Bytes the claim log holds (4-byte length prefix plus payload per
    entry, as on disk) and the number of claims inside logged revisions."""
    total = claims = 0
    for index in range(len(log)):
        payload = log.payload(index)
        total += 4 + len(payload)
        obj = json.loads(payload)
        if obj.get("kind") == "revision":
            claims += len(obj["claims"])
    return total, claims


def audit_heads(client, trust_store, operator_key, owners, tracer=None) -> list[float]:
    """Audit every claim of every owner's head with a fresh Auditor per
    owner, as a fresh `cyberlog audit` process would; returns the wall time
    of each `audit_claim` in ms."""
    clock = time.perf_counter
    samples = []
    for owner in owners:
        if tracer is not None:
            tracer.set_group(f"audit:{owner}")
        auditor = Auditor(client, trust_store, operator_key)
        record = auditor.fetch_revision(client.get_head(owner)["revision_id"])
        for claim in record.claims:
            start = clock()
            node = auditor.audit_claim(record, claim)
            samples.append((clock() - start) * 1000.0)
            if not node.all_ok:
                raise GateError(f"audit of {node.atom} in {owner}'s head failed: {node.detail}")
    return samples


def run_rep(kind: str, workload: wl.Workload, tracer=None) -> RepResult:
    """Set up, replay, check and audit; the replay and the audit are traced."""
    shape = SHAPES[kind]
    gc.collect()  # the previous repetition's garbage is not this one's cost
    scenario = wl.scenario(f"perfbench-{kind}", workload, shape.with_dom)
    res = RepResult(events=len(workload.events))
    clock = time.perf_counter
    for _ in range(SETUP_REPEATS):
        start = clock()
        run = ScenarioRun(scenario)
        res.setup_s.append(clock() - start)
        if len(res.setup_s) < SETUP_REPEATS:
            run.close()
    try:
        commit_done: dict = {}
        flow_of = {f.events[0].envelope.body: f.request_id for f in workload.flows}
        # a fixed number of windows for every seed
        drain_end = workload.horizon_ms + scenario.drain_rounds * INTERVAL_MS
        ticks = range(INTERVAL_MS, drain_end + 1, INTERVAL_MS)
        times = sorted({e.at_ms for e in workload.events} | set(ticks))
        pending = [f for f in workload.flows if not f.drops_tasks] if shape.with_dom else []
        try:
            if tracer is not None:
                tracer.install()
            # after install, so the per-instance timers call the traced methods
            _instrument(run, res, commit_done, tracer, flow_of)
            for t in times:
                start = clock()
                run.advance_to(t)
                if pending and t % INTERVAL_MS == 0:
                    pending = _query_pending(run, pending, commit_done, res, tracer)
                res.step_s.append(clock() - start)
            start = clock()
            run.finish()
            if pending:
                pending = _query_pending(run, pending, commit_done, res, tracer)
            res.step_s.append(clock() - start)
            res.replay_s = sum(res.step_s)
            if pending:
                raise GateError(f"{len(pending)} flows never answered good_rtf_exists at DOM")
            check_expectations(run)
            res.audit_ms = audit_heads(run.client, run.trust_store, run.operator.public_key, list(run.monitors), tracer)
            res.attempted += len(res.audit_ms)
        finally:
            if tracer is not None:
                tracer.uninstall()
        res.log_bytes, res.logged_claims = log_size(run.db.log)
        # private cache, read only to count its entries
        res.subtree_cache_entries = len(run.db.log._subtree_cache)
    finally:
        run.close()
    return res
