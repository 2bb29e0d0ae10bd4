"""Desk-scale scenario harness: spins up a claim database and monitors,
replays events at scenario offsets, and evaluates expected query counts.

Default mode is fully deterministic: a virtual clock stamps both envelope
timestamps and commit times, monitors run as in-process actors, and ticks
fire in a fixed order (events, then commits, then polls). Integration mode
runs the same scenario over real HTTP on loopback.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

from .claimdb import ClaimDb, HttpLogClient, serve_db_in_thread
from .claimlog import MerkleLog
from .errors import ConfigError, ParseError
from .identity import Identity, TrustStore, generate_identity
from .lang import parse_query, parse_rulesheet
from .monitor import EventEnvelope, HttpMonitorClient, Monitor, MonitorService, require_int
from .audit import append_heads_cache
from .revision import LogReader

OPERATOR_NAME = "log-operator"


def identity_seed(scope: str, name: str) -> bytes:
    return hashlib.sha256(f"cyberlog:{scope}:{name}".encode("utf-8")).digest()


def scenario_identities(scenario: "Scenario") -> tuple[Identity, dict[str, Identity], TrustStore]:
    """The log operator, each monitor's identity and a trust store of all of
    them, with keys seeded from the scenario name so runs are reproducible."""

    def make(name: str) -> Identity:
        return generate_identity(name, f"CN={name}", "CN=R3", seed=identity_seed(scenario.name, name))

    operator = make(OPERATOR_NAME)
    identities = {spec.name: make(spec.name) for spec in scenario.monitors}
    return operator, identities, TrustStore.from_identities([*identities.values(), operator])


@dataclass(frozen=True)
class MonitorSpec:
    name: str
    rulesheet_text: str
    watched: tuple[str, ...] | list[str] = ()
    authz_predicate: str | None = None

    def monitor(self, identities: dict[str, Identity], db, trust: TrustStore, operator: Identity, clock=None) -> Monitor:
        """The monitor this spec describes, over the claim database `db`."""
        identity, rulesheet = identities[self.name], parse_rulesheet(self.rulesheet_text, self.name)
        return Monitor(identity, rulesheet, db, trust, operator.public_key, self.watched, clock, self.authz_predicate)


@dataclass(frozen=True)
class ScenarioEvent:
    at_ms: int
    monitor: str
    envelope: EventEnvelope


@dataclass(frozen=True)
class Expectation:
    monitor: str
    query: str
    count: int


@dataclass(frozen=True)
class Scenario:
    """A scenario, checked on construction; a zero interval would fire the same tick forever."""

    name: str
    monitors: list[MonitorSpec]
    events: list[ScenarioEvent]
    expected: list[Expectation]
    commit_interval_ms: int = 1000
    poll_interval_ms: int = 1000
    drain_rounds: int = 3

    def __post_init__(self):
        names = {m.name for m in self.monitors}
        if len(names) != len(self.monitors):
            raise ConfigError("duplicate monitor names in scenario")
        require_int("'commit_interval_ms'", self.commit_interval_ms, 1)
        require_int("'poll_interval_ms'", self.poll_interval_ms, 1)
        require_int("'drain_rounds'", self.drain_rounds, 0)
        last = 0
        for event in self.events:
            if event.monitor not in names:
                raise ConfigError(f"event targets unknown monitor {event.monitor!r}")
            require_int("event 'at'", event.at_ms, 0)
            if event.at_ms < last:
                raise ConfigError("event offsets must be nondecreasing")
            last = event.at_ms
        for exp in self.expected:
            if exp.monitor not in names:
                raise ConfigError(f"expectation targets unknown monitor {exp.monitor!r}")
            try:
                parse_query(exp.query, exp.monitor)
            except (ParseError, TypeError) as exc:  # TypeError: not a string
                raise ConfigError(f"expected 'query' {exp.query!r} of {exp.monitor!r} is not a query: {exc}") from exc
            require_int(f"expected 'count' of {exp.query!r}", exp.count, 0)


def load_scenario(path: str) -> Scenario:
    """Scenario files are JSON lines: a header object, then one event per
    line, mapped as they stand onto the constructors that check them. An
    event's `method` defaults to POST and its `timestamp` to its `at`.

    Rulesheet paths in the header resolve relative to the scenario file.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    if not lines:
        raise ConfigError(f"scenario file {path!r} is empty")
    where = "header"
    try:
        header = json.loads(lines[0])
        monitors = []
        for m in header.get("monitors", []):
            with open(os.path.join(base, m["rulesheet"]), "r", encoding="utf-8") as fh:
                monitors.append(MonitorSpec(m["name"], fh.read(), m.get("watched", ()), m.get("authz_predicate")))
        expected = [Expectation(e["monitor"], e["query"], e["count"]) for e in header.get("expected", [])]
        events = []
        for line in lines[1:]:
            where = f"event {line!r}"
            obj = json.loads(line)
            envelope = EventEnvelope.from_obj({"method": "POST", "timestamp": obj["at"], **obj})
            events.append(ScenarioEvent(obj["at"], obj["monitor"], envelope))
    except KeyError as exc:
        raise ConfigError(f"bad scenario {where}: missing {exc}") from None
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"bad scenario {where}: {exc}") from exc
    return Scenario(
        name=header.get("name", os.path.basename(path)),
        monitors=monitors,
        events=events,
        expected=expected,
        commit_interval_ms=header.get("commit_interval_ms", 1000),
        poll_interval_ms=header.get("poll_interval_ms", 1000),
        drain_rounds=header.get("drain_rounds", 3),
    )


@dataclass
class ExpectationResult:
    monitor: str
    query: str
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass
class ScenarioReport:
    scenario: str
    mode: str
    expectations: list[ExpectationResult]
    metrics: list[dict]
    heads: dict[str, dict]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.expectations)

    def to_obj(self) -> dict:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "passed": self.passed,
            "expectations": [
                {
                    "monitor": e.monitor,
                    "query": e.query,
                    "expected": e.expected,
                    "actual": e.actual,
                    "ok": e.ok,
                }
                for e in self.expectations
            ],
            "metrics": self.metrics,
            "heads": self.heads,
        }

    def render(self) -> str:
        lines = [f"scenario {self.scenario} [{self.mode}]: {'PASS' if self.passed else 'FAIL'}"]
        for e in self.expectations:
            mark = "ok  " if e.ok else "FAIL"
            lines.append(f"  [{mark}] {e.monitor}: {e.query} -> {e.actual} (expected {e.expected})")
        for m in self.metrics:
            commits = "commits logged/unchanged = {commits_logged}/{commits_unchanged}".format(**m)
            if m["events"]:
                lines.append(
                    "  {monitor}: {events} events, delay min/avg/max = "
                    "{delay_min_ms:.2f}/{delay_avg_ms:.2f}/{delay_max_ms:.2f} ms, "
                    "kb={kb_facts}, facts/request max={facts_added_max}, ".format(**m) + commits
                )
            else:
                lines.append(f"  {m['monitor']}: 0 events, kb={m['kb_facts']}, {commits}")
        return "\n".join(lines)


def _head_summary(reader: LogReader, owners) -> dict[str, dict]:
    """Each owner's head revision id and chain length; None and 0 for an
    owner that has not committed."""
    heads = {}
    for owner in owners:
        revision_id, chain_length = reader.owner_head(owner) or (None, 0)
        heads[owner] = {"revision_id": revision_id, "chain_length": chain_length}
    return heads


class ScenarioRun:
    """Deterministic in-process execution with a stepped virtual clock."""

    def __init__(self, scenario: Scenario, log_path: str | None = None):
        self.scenario = scenario
        self.now = 0
        self.operator, self.identities, self.trust_store = scenario_identities(scenario)
        self.db = ClaimDb(MerkleLog(log_path), self.operator, self.trust_store, clock=lambda: self.now)
        self.client = self.db
        self.reader = LogReader(self.client, self.trust_store, self.operator.public_key)
        self.monitors: dict[str, Monitor] = {
            spec.name: spec.monitor(self.identities, self.client, self.trust_store, self.operator, lambda: self.now)
            for spec in scenario.monitors
        }
        self._order = [spec.name for spec in scenario.monitors]
        self._pending = list(scenario.events)
        self._next_commit = {name: scenario.commit_interval_ms for name in self._order}
        self._next_poll = {name: scenario.poll_interval_ms for name in self._order}

    # -- stepped execution --------------------------------------------------

    def _next_action_time(self) -> int | None:
        times = []
        if self._pending:
            times.append(self._pending[0].at_ms)
        times.extend(self._next_commit.values())
        times.extend(self._next_poll.values())
        return min(times) if times else None

    def advance_to(self, target_ms: int) -> None:
        """Process events and ticks with time <= target, in time order.
        At equal times: events first, then commits, then polls."""
        while True:
            upcoming = self._next_action_time()
            if upcoming is None or upcoming > target_ms:
                break
            self.now = upcoming
            while self._pending and self._pending[0].at_ms == upcoming:
                event = self._pending.pop(0)
                self.monitors[event.monitor].ingest_event(event.envelope)
            for name in self._order:
                if self._next_commit[name] == upcoming:
                    self.monitors[name].commit()
                    self._next_commit[name] += self.scenario.commit_interval_ms
            for name in self._order:
                if self._next_poll[name] == upcoming:
                    self.monitors[name].poll_and_include()
                    self._next_poll[name] += self.scenario.poll_interval_ms
        self.now = max(self.now, target_ms)

    def finish(self) -> None:
        """Drain: run the remaining ticks, then a final poll+commit round so
        every derived claim lands in a head revision."""
        last_event = self.scenario.events[-1].at_ms if self.scenario.events else 0
        interval = max(self.scenario.commit_interval_ms, self.scenario.poll_interval_ms)
        self.advance_to(last_event + self.scenario.drain_rounds * interval)
        for name in self._order:
            self.monitors[name].poll_and_include()
        self.now += self.scenario.commit_interval_ms
        for name in self._order:
            self.monitors[name].commit()

    def query_count(self, monitor: str, query: str) -> int:
        return len(self.monitors[monitor].handle_query(query))

    def evaluate(self) -> ScenarioReport:
        results = [
            ExpectationResult(e.monitor, e.query, e.count, self.query_count(e.monitor, e.query))
            for e in self.scenario.expected
        ]
        metrics = [self.monitors[name].metrics_report() for name in self._order]
        return ScenarioReport(self.scenario.name, "memory", results, metrics, _head_summary(self.reader, self._order))

    def run(self) -> ScenarioReport:
        self.finish()
        return self.evaluate()

    def write_heads_cache(self, path: str) -> None:
        append_heads_cache(path, self.reader.log_root())

    def close(self) -> None:
        self.db.log.close()


# ---------------------------------------------------------------------------
# Integration mode: same scenario over HTTP on loopback


# integration runs scale the scenario's commit and poll intervals by this,
# and wait this long for the expected answer counts to settle
INTERVAL_SCALE = 0.1
SETTLE_TIMEOUT_S = 30.0


def run_scenario_integration(
    scenario: Scenario,
    log_path: str | None = None,
    heads_cache_path: str | None = None,
) -> ScenarioReport:
    """Execute over real HTTP servers; commit/poll timers run on scaled-down
    wall-clock intervals; expectations are polled until they settle."""
    operator, identities, trust = scenario_identities(scenario)
    db = ClaimDb(MerkleLog(log_path), operator, trust)
    db_server, db_url = serve_db_in_thread(db)
    services: dict[str, MonitorService] = {}
    clients: dict[str, HttpMonitorClient] = {}
    try:
        for spec in scenario.monitors:
            service = MonitorService(
                spec.monitor(identities, HttpLogClient(db_url), trust, operator),
                commit_interval_ms=max(20, int(scenario.commit_interval_ms * INTERVAL_SCALE)),
                poll_interval_ms=max(20, int(scenario.poll_interval_ms * INTERVAL_SCALE)),
            )
            service.start()
            services[spec.name] = service
            clients[spec.name] = HttpMonitorClient(service.url)

        for event in scenario.events:
            clients[event.monitor].send_event(event.envelope)

        def counts():
            return [len(clients[e.monitor].query(e.query)["answers"]) for e in scenario.expected]

        deadline = time.monotonic() + SETTLE_TIMEOUT_S
        actual = counts()
        # settle: expected counts reached and stable for one extra round
        while time.monotonic() < deadline:
            if actual == [e.count for e in scenario.expected]:
                break
            time.sleep(0.2)
            actual = counts()
        results = [
            ExpectationResult(e.monitor, e.query, e.count, a) for e, a in zip(scenario.expected, actual)
        ]
        metrics = [clients[name].metrics() for name in services]
        reader = LogReader(HttpLogClient(db_url), trust, operator.public_key)
        heads = _head_summary(reader, services)
        if heads_cache_path:
            append_heads_cache(heads_cache_path, reader.log_root())
        return ScenarioReport(scenario.name, "integration", results, metrics, heads)
    finally:
        for service in services.values():
            service.stop()
        db_server.shutdown()
        db_server.server_close()
        db.log.close()


def run_scenario(
    scenario: Scenario | str,
    mode: str = "memory",
    log_path: str | None = None,
    heads_cache_path: str | None = None,
) -> ScenarioReport:
    if isinstance(scenario, str):
        scenario = load_scenario(scenario)
    if mode == "integration":
        return run_scenario_integration(scenario, log_path=log_path, heads_cache_path=heads_cache_path)
    run = ScenarioRun(scenario, log_path=log_path)
    try:
        report = run.run()
        if heads_cache_path:
            run.write_heads_cache(heads_cache_path)
        return report
    finally:
        run.close()
