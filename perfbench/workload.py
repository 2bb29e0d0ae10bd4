"""Seeded booking-flow generator shared by every workload.

A flow is the five-event booking of `scenarios/uav_booking.jsonl`: SB
/servicerequest, MRM /feasibleconfig, CA /missionconfirmed, OM /tasksdone
and OM /readytofly, all carrying the same JSON body. In every block of ten
flows the seed picks one that drops /tasksdone (so `good_rtf_exists` must
not hold for it) and another that sends /readytofly more than 1000 ms after
/missionconfirmed (so `delayed_rtf` must hold and the flow spans commit
windows). Picking per block keeps the amount of work the same for every
seed, so run-to-run spread measures the machine and the program, not the
draw. The generator returns the events and every expected answer count; the
program under test only ever sees the events.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from cyberlog.harness import Expectation, MonitorSpec, Scenario, ScenarioEvent
from cyberlog.monitor import EventEnvelope

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RULES_DIR = os.path.join(ROOT, "scenarios", "rules")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")  # spans and http scratch files
FRONT_DOOR = ("SB", "MRM", "CA", "OM")
WATCHED_BY_DOM = ("SB", "MRM", "OM", "CA")
BLOCK = 10
MAX_DELAY_MS = 1999


@dataclass(frozen=True)
class Flow:
    request_id: int
    aircraft_id: int
    drops_tasks: bool
    delayed: bool
    events: tuple[ScenarioEvent, ...]

    @property
    def last_premise(self) -> ScenarioEvent:
        """Latest-arriving event among the premises of `good_rtf_exists`
        (SB request, MRM feasible_config, OM tasks_done and ready_to_fly)."""
        return max((e for e in self.events if e.monitor != "CA"), key=lambda e: e.at_ms)


@dataclass(frozen=True)
class Workload:
    flows: tuple[Flow, ...]
    events: tuple[ScenarioEvent, ...]
    expected: tuple[Expectation, ...]
    horizon_ms: int  # no event of any seed arrives later


def rulesheet_path(name: str) -> str:
    return os.path.join(RULES_DIR, f"{name.lower()}.cyberlog")


def monitor_specs(with_dom: bool) -> list[MonitorSpec]:
    specs = []
    for name in FRONT_DOOR:
        with open(rulesheet_path(name), "r", encoding="utf-8") as fh:
            specs.append(MonitorSpec(name, fh.read()))
    if with_dom:
        with open(rulesheet_path("DOM"), "r", encoding="utf-8") as fh:
            specs.append(MonitorSpec("DOM", fh.read(), WATCHED_BY_DOM))
    return specs


def _event(at_ms: int, monitor: str, path: str, body: str) -> ScenarioEvent:
    return ScenarioEvent(at_ms, monitor, EventEnvelope("POST", path, body, at_ms))


def generate(seed: int, n_flows: int, flow_starts_ms: list[int], step_ms: float, with_dom: bool) -> Workload:
    """Build `n_flows` flows; flow i starts at `flow_starts_ms[i]` and its
    events follow `step_ms` apart. A delayed /readytofly arrives (and is
    stamped) 1001 to MAX_DELAY_MS ms after /missionconfirmed."""
    rng = random.Random(seed)
    # same-width ids in flow order: a revision sorts its claims by canonical
    # atom text, so flows then keep their order inside every revision and
    # the audit walks them oldest first for every seed
    request_ids = sorted(rng.sample(range(100_000, 1_000_000), n_flows))
    dropped, delayed_set = set(), set()
    for block in range(0, n_flows, BLOCK):
        picks = rng.sample(range(block, min(block + BLOCK, n_flows)), min(2, n_flows - block))
        dropped.add(picks[0])
        delayed_set.update(picks[1:])
    flows = []
    for i, rid in enumerate(request_ids):
        aircraft = rng.randrange(1, 100)
        drops_tasks = i in dropped
        delayed = i in delayed_set
        body = json.dumps({"request_id": rid, "aircraft_id": aircraft})
        at = [flow_starts_ms[i] + int(k * step_ms) for k in range(5)]
        if delayed:
            at[4] = at[2] + 1001 + rng.randrange(MAX_DELAY_MS - 1000)
        events = [
            _event(at[0], "SB", "/servicerequest", body),
            _event(at[1], "MRM", "/feasibleconfig", body),
            _event(at[2], "CA", "/missionconfirmed", body),
            _event(at[3], "OM", "/tasksdone", body),
            _event(at[4], "OM", "/readytofly", body),
        ]
        if drops_tasks:
            del events[3]
        flows.append(Flow(rid, aircraft, drops_tasks, delayed, tuple(events)))
    # stable sort keeps each flow's own order at equal offsets
    events = tuple(sorted((e for f in flows for e in f.events), key=lambda e: e.at_ms))
    expected = [
        Expectation("SB", "request(R, D, T)", n_flows),
        Expectation("OM", "ready_to_fly(R, A, D, T)", n_flows),
    ]
    if with_dom:
        expected += [
            Expectation("DOM", "good_rtf_exists(R, A)", sum(1 for f in flows if not f.drops_tasks)),
            Expectation("DOM", "delayed_rtf(R, D, S)", sum(1 for f in flows if f.delayed)),
        ]
    horizon = max(flow_starts_ms) + int(2 * step_ms) + MAX_DELAY_MS
    return Workload(tuple(flows), events, tuple(expected), horizon)


def scenario(name: str, workload: Workload, with_dom: bool) -> Scenario:
    return Scenario(
        name=name,
        monitors=monitor_specs(with_dom),
        events=list(workload.events),
        expected=list(workload.expected),
        commit_interval_ms=1000,
        poll_interval_ms=1000,
        drain_rounds=3,
    )
