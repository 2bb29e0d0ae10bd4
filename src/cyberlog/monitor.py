"""Security monitor runtime: event ingestion, continuous saturation,
periodic commit, polling/inclusion of watched owners, query interface.

One monitor owns one knowledge base; ingestion, polling, commit and queries
are serialized through a lock so the HTTP server and timer threads can share
it. Event timestamps always come from the envelope, never the wall clock.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Callable

from .engine import (
    Claim,
    DirectAssertion,
    GroundAtom,
    KnowledgeBase,
    LogInclusion,
    Substitution,
    canonical_atom,
)
from .errors import ConfigError, CyberlogError, SubmitError
from .httpjson import JsonRequestHandler, request_json
from .identity import Identity, TrustStore
from .lang import Rulesheet, format_rulesheet, parse_query
from .revision import (
    LogClient,
    LogReader,
    RevisionRecord,
    apply_next_rules,
    commit_staging,
    encode_rulesheet_payload,
    include_revision,
    on_superseded,
)

_log = logging.getLogger("cyberlog.monitor")

EVENT_PREDICATES = {
    "GET": "getRequest",
    "POST": "postRequest",
    "PUT": "putRequest",
    "DELETE": "deleteRequest",
}


def require_int(field: str, value, least: int) -> None:
    """Refuse `value` unless it is a JSON integer (not a bool, 5.9 or "7") of at least `least`, 0 or 1."""
    if type(value) is not int or value < least:
        raise ConfigError(f"{field} must be a {'positive' if least else 'non-negative'} integer, not {value!r}")


@dataclass(frozen=True)
class EventEnvelope:
    method: str
    path: str
    body: str
    timestamp_ms: int

    @classmethod
    def from_obj(cls, obj: dict) -> "EventEnvelope":
        try:
            return cls(str(obj["method"]).upper(), obj["path"], obj.get("body", ""), obj["timestamp"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed event envelope: {exc}") from exc

    def __post_init__(self):
        if self.method not in EVENT_PREDICATES:
            raise ConfigError(f"unsupported method {self.method!r}")
        if not isinstance(self.path, str) or not isinstance(self.body, str):
            raise ConfigError("event path and body must be strings")
        try:
            self.path.encode("utf-8")
            self.body.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError("event path and body must be valid Unicode") from exc
        require_int("event 'timestamp'", self.timestamp_ms, 0)


@dataclass(frozen=True)
class IngestResult:
    decision: str
    event_atom: GroundAtom
    new_event: bool
    derived: tuple[GroundAtom, ...]
    delay_ms: float


@dataclass
class MonitorMetrics:
    """Running per-event and per-commit figures; constant size however
    many events arrive. A failed commit counts in neither commit figure."""

    events: int = 0
    delay_sum_ms: float = 0.0
    delay_min_ms: float | None = None
    delay_max_ms: float | None = None
    facts_added_total: int = 0
    facts_added_max: int = 0
    commits_logged: int = 0  # commits that logged a revision
    commits_unchanged: int = 0  # commits whose snapshot was the base's: nothing logged

    def record(self, delay_ms: float, facts_added: int) -> None:
        self.events += 1
        self.delay_sum_ms += delay_ms
        self.delay_min_ms = delay_ms if self.delay_min_ms is None else min(self.delay_min_ms, delay_ms)
        self.delay_max_ms = delay_ms if self.delay_max_ms is None else max(self.delay_max_ms, delay_ms)
        self.facts_added_total += facts_added
        self.facts_added_max = max(self.facts_added_max, facts_added)

    def report(self, kb_facts: int, name: str) -> dict:
        return {
            "monitor": name,
            "events": self.events,
            "delay_min_ms": self.delay_min_ms,
            "delay_avg_ms": self.delay_sum_ms / self.events if self.events else None,
            "delay_max_ms": self.delay_max_ms,
            "kb_facts": kb_facts,
            "facts_added_total": self.facts_added_total,
            "facts_added_max": self.facts_added_max,
            "commits_logged": self.commits_logged,
            "commits_unchanged": self.commits_unchanged,
        }


class Monitor:
    def __init__(
        self,
        identity: Identity,
        rulesheet: Rulesheet,
        db: LogClient,
        trust_store: TrustStore,
        operator_key: bytes,
        watched_owners: tuple[str, ...] | list[str] = (),
        clock: Callable[[], int] | None = None,
        authz_predicate: str | None = None,
    ):
        if identity.name != rulesheet.self_id:
            raise ConfigError(f"identity {identity.name!r} does not match rulesheet self {rulesheet.self_id!r}")
        # others check the monitor's events and revisions under this key
        if trust_store.public_key(identity.name) != identity.public_key:
            raise ConfigError(f"trust store does not hold the public key of {identity.name!r}")
        if identity.private_key is None:  # its commits sign its revisions
            raise ConfigError(f"identity {identity.name!r} has no private key to sign with")
        # its reader checks every tree head it is served under this key
        if operator_key is None:
            raise ConfigError("a monitor needs the log operator's key")
        if not isinstance(watched_owners, (list, tuple)) or not all(isinstance(o, str) for o in watched_owners):
            raise ConfigError(f"{identity.name!r}: watched owners must be a list of names, not {watched_owners!r}")
        if authz_predicate is not None and not isinstance(authz_predicate, str):
            raise ConfigError(f"{identity.name!r}: authz_predicate must be a predicate name, not {authz_predicate!r}")
        self.identity = identity
        self.rulesheet = rulesheet
        self.watched_owners = watched_owners
        self.clock = clock or (lambda: int(time.time() * 1000))
        self.authz_predicate = authz_predicate
        self.name = identity.name
        self.lock = threading.RLock()
        self.kb = KnowledgeBase(rulesheet)
        self._base: RevisionRecord | None = None  # the revision holding the last committed snapshot
        self.active_includes: dict[str, str] = {}
        self.metrics = MonitorMetrics()
        # the monitor's one way to the claim database, to commit and to watch
        self.reader = LogReader(db, trust_store, operator_key)

    # -- ingestion ------------------------------------------------------

    def ingest_event(self, env: EventEnvelope) -> IngestResult:
        started = time.perf_counter()
        atom = GroundAtom(self.name, EVENT_PREDICATES[env.method], (env.path, env.timestamp_ms, env.body))
        claim = Claim(atom, DirectAssertion())  # signed by the revision that logs it
        with self.lock:
            # the event first if it is new, then its consequences; a known
            # event adds nothing, since the KB is at its fixpoint
            added = self.kb.revise((), [claim])
            decision = self._decision()
        delay_ms = (time.perf_counter() - started) * 1000.0
        with self.lock:  # the running figures are read-modify-write
            self.metrics.record(delay_ms, len(added))
        return IngestResult(decision, atom, bool(added), tuple(c.atom for c in added[1:]), delay_ms)

    def _decision(self) -> str:
        if self.authz_predicate is None:
            return "allow"
        return "allow" if self.kb.claims_for(self.name, self.authz_predicate) else "deny"

    # -- commit cycle ------------------------------------------------------

    def commit(self):
        """Commit own claims as a new revision; returns the revision that
        holds the monitor's snapshot, or None if the claim database was
        unreachable or refused the rulesheet or the revision (KB untouched).
        A snapshot equal to the base revision's (the same claim objects and
        includes) logs nothing and returns the base: its carry-overs are
        what the KB took when the base was committed, so a head's
        `commit_time` is the time of the owner's last change. The rulesheet
        is logged before each commit until a revision, which names it, is
        logged (a repeat gets its original receipt). A receipt of
        either whose tree head or inclusion proof the reader refuses raises
        LogIntegrityError, with the KB and the base untouched. After a
        successful submit the record is the base, and the KB keeps its
        inclusions and takes its own next-rule carry-overs in place of the
        record's events and carried claims (`apply_next_rules`). If the
        carry-overs, or their match, make a rule raise, the error propagates
        and the KB drops the record's own claims without the carry-overs."""
        with self.lock:
            # either failure is retried next interval, with the KB untouched
            try:
                if self._base is None:
                    payload = encode_rulesheet_payload(format_rulesheet(self.rulesheet))
                    self.reader.submit("rulesheet", self.rulesheet.source_hash.hex(), payload)
            except (SubmitError, OSError) as exc:
                self._warn("commit", f"rulesheet not published, nothing committed: {exc}")
                return None
            own = [c for c in self.kb.claims.values() if not isinstance(c.evidence, LogInclusion)]
            base = self._base
            # an unchanged snapshot (the base's claim objects, so an equal
            # claim built anew is a change, and the base's includes) logs
            # nothing: the KB already took the base's carry-overs
            if (
                base is not None
                and {id(c) for c in own} == {id(c) for c in base.claims}
                and set(self.active_includes.values()) == set(base.includes)
            ):
                self.metrics.commits_unchanged += 1
                return base
            try:
                record, _inclusion = commit_staging(
                    self.identity, self.rulesheet, self.reader, base and base.id, self.active_includes.values(),
                    own, self.clock(),
                )
            except (SubmitError, OSError) as exc:
                self._warn("commit", f"commit failed, keeping own claims: {exc}")
                return None
            self._base = record
            self.metrics.commits_logged += 1
            apply_next_rules(self.kb, record)
            return record

    # -- polling ------------------------------------------------------------

    def poll_and_include(self) -> list[str]:
        """Include each watched owner's new head that the reader accepts (`LogReader.accept_head`),
        keeping only it in the reader; returns the ids newly loaded this poll."""
        loaded: list[str] = []
        with self.lock:
            for owner in self.watched_owners:
                last = self.active_includes.get(owner)
                try:
                    head = self.reader.accept_head(owner)
                    if head is None or head.id == last:  # an owner without revisions has nothing new either
                        continue
                    if last is None:
                        include_revision(self.kb, head.id, self.reader)
                    else:
                        on_superseded(self.kb, last, head.id, self.reader)
                    self.reader.forget_before(head.id)
                except (CyberlogError, OSError) as exc:
                    self._warn("poll", f"poll of {owner} refused: {exc}")
                    continue
                self.active_includes[owner] = head.id
                loaded.append(head.id)
        return loaded

    # -- queries --------------------------------------------------------------

    def handle_query(self, pattern: str) -> list[Substitution]:
        """The bindings of each stored atom the pattern text matches (see
        `KnowledgeBase.query`). Whether a third party can prove an answer is
        the `Auditor`'s to say (`cyberlog audit` with the answer's atom)."""
        atom = parse_query(pattern, self.name)
        with self.lock:
            return self.kb.query(atom)

    def metrics_report(self) -> dict:
        with self.lock:
            return self.metrics.report(len(self.kb), self.name)

    def _warn(self, stage: str, message: str) -> None:
        """Log a recoverable failure; the record carries `monitor`, `stage`
        (commit, poll or periodic) and `revision`, the id of the monitor's
        last committed revision or None, as attributes."""
        extra = {"monitor": self.name, "stage": stage, "revision": self._base and self._base.id}
        _log.warning("[monitor %s] %s", self.name, message, extra=extra)


# ---------------------------------------------------------------------------
# HTTP surface: POST /event, POST /query, GET /metrics, GET /health


class _MonitorHandler(JsonRequestHandler):
    monitor: Monitor

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        try:
            obj = json.loads(body.decode("utf-8"))
        except ValueError:
            self._send(400, {"error": "body must be JSON"})
            return
        try:
            if self.path == "/event":
                result = self.monitor.ingest_event(EventEnvelope.from_obj(obj))
                self._send(
                    200,
                    {
                        "decision": result.decision,
                        "event": canonical_atom(result.event_atom),
                        "new": result.new_event,
                        "derived": [canonical_atom(a) for a in result.derived],
                        "delay_ms": result.delay_ms,
                    },
                )
            elif self.path == "/query":
                pattern = obj.get("pattern") if isinstance(obj, dict) else None
                if not isinstance(pattern, str):
                    raise ConfigError("body must be an object with a string 'pattern'")
                answers = self.monitor.handle_query(pattern)
                self._send(200, {"answers": [{"bindings": bindings} for bindings in answers]})
            else:
                self._send(404, {"error": f"no such endpoint {self.path}"})
        except (CyberlogError, KeyError) as exc:
            self._send(400, {"error": str(exc)})

    def do_GET(self):
        if self.path == "/metrics":
            self._send(200, self.monitor.metrics_report())
        elif self.path == "/health":
            self._send(200, {"status": "ok", "monitor": self.monitor.name})
        else:
            self._send(404, {"error": f"no such endpoint {self.path}"})


def make_monitor_server(monitor: Monitor, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundMonitorHandler", (_MonitorHandler,), {"monitor": monitor})
    return ThreadingHTTPServer((host, port), handler)


class MonitorService:
    """Monitor plus its HTTP server and commit/poll timer threads."""

    def __init__(self, monitor: Monitor, commit_interval_ms: int = 1000, poll_interval_ms: int = 500,
                 host: str = "127.0.0.1", port: int = 0):
        require_int("'commit_interval_ms'", commit_interval_ms, 1)  # a timer of 0 would spin
        require_int("'poll_interval_ms'", poll_interval_ms, 1)
        self.monitor = monitor
        self.commit_interval_ms = commit_interval_ms
        self.poll_interval_ms = poll_interval_ms
        self.server = make_monitor_server(monitor, host, port)
        self.url = f"http://{self.server.server_address[0]}:{self.server.server_address[1]}"
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    def start(self) -> None:
        self._threads = [
            threading.Thread(target=self.server.serve_forever, daemon=True),
            threading.Thread(target=self._timer, args=(self.commit_interval_ms, self.monitor.commit), daemon=True),
            threading.Thread(
                target=self._timer, args=(self.poll_interval_ms, self.monitor.poll_and_include), daemon=True
            ),
        ]
        for t in self._threads:
            t.start()

    def _timer(self, interval_ms: int, action) -> None:
        while not self._stop.wait(interval_ms / 1000.0):
            try:
                action()
            except (CyberlogError, OSError) as exc:
                self.monitor._warn("periodic", f"periodic task failed: {exc}")

    def stop(self) -> None:
        self._stop.set()
        if self._threads and self._threads[0].is_alive():  # else shutdown() waits forever
            self.server.shutdown()
        self.server.server_close()

    def run_forever(self) -> None:
        try:
            self.start()  # a Ctrl-C or SIGTERM may arrive while the threads start
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            self.stop()


class HttpMonitorClient:
    """Client for the monitor's event/query/metrics endpoints."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, obj: dict | None = None) -> dict:
        return request_json(method, self.base_url + path, obj, self.timeout)

    def send_event(self, env: EventEnvelope) -> dict:
        return self._request(
            "POST",
            "/event",
            {"method": env.method, "path": env.path, "body": env.body, "timestamp": env.timestamp_ms},
        )

    def query(self, pattern: str) -> dict:
        return self._request("POST", "/query", {"pattern": pattern})

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def health(self) -> dict:
        return self._request("GET", "/health")
