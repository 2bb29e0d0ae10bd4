"""Monitor runtime: ingestion, queries, polling, commit cycle."""

import itertools
import re
import os
import random

import pytest

from cyberlog.engine import GroundAtom, canonical_atom
from cyberlog.errors import ConfigError, EvaluationError, NotFoundError, SubmitError
from cyberlog.lang import parse_rulesheet
from cyberlog.monitor import EventEnvelope, Monitor

from conftest import OPERATOR, at_fixpoint, raw_http_status, steady_booking
from naive_oracle import derivation_faults

SB_SHEET = """\
'SB': Subject: 's' Issuer: 'i'

request(RequestId, Data, Time) :-
  postRequest('/servicerequest', Time, Data),
  get_param_int(Data, 'request_id', RequestId).

next request(Id, Data, T) :- request(Id, Data, T).
"""

DOM_SHEET = """\
'DOM': Subject: 's' Issuer: 'i'
'SB': Subject: 's' Issuer: 'i'

verdict(R) :- 'SB' attests request(R, Data, T).
"""


def make_monitor(identities, trust_store, db_client, name, sheet, watched=(), **kw):
    return Monitor(
        identities[name],
        parse_rulesheet(sheet, name),
        db_client,
        trust_store,
        operator_key=identities[OPERATOR].public_key,
        watched_owners=watched,
        clock=itertools.count(1000, 1000).__next__,
        **kw,
    )


@pytest.fixture
def sb(identities, trust_store, db_client):
    return make_monitor(identities, trust_store, db_client, "SB", SB_SHEET)


@pytest.fixture
def dom(identities, trust_store, db_client):
    return make_monitor(identities, trust_store, db_client, "DOM", DOM_SHEET, watched=("SB",))


def post(path, body, ts):
    return EventEnvelope("POST", path, body, ts)


def test_ingest_derives_request(sb):
    result = sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    assert result.decision == "allow"
    assert result.new_event
    assert result.event_atom == GroundAtom("SB", "postRequest", ("/servicerequest", 5, '{"request_id":7}'))
    assert result.derived == (GroundAtom("SB", "request", (7, '{"request_id":7}', 5)),)


def test_unmatched_event_only_raw_fact(sb):
    result = sb.ingest_event(EventEnvelope("GET", "/other", "", 9))
    assert result.derived == ()
    assert result.event_atom.predicate == "getRequest"
    assert len(sb.kb) == 1


def test_duplicate_events_collapse(sb):
    env = post("/servicerequest", '{"request_id":7}', 5)
    first = sb.ingest_event(env)
    second = sb.ingest_event(env)
    assert first.new_event and not second.new_event
    assert len(sb.kb) == 2  # postRequest + request
    report = sb.metrics_report()
    assert (report["events"], report["facts_added_total"], report["facts_added_max"]) == (2, 2, 2)


def test_malformed_envelope_rejected(sb):
    with pytest.raises(ConfigError):
        sb.ingest_event(EventEnvelope("PATCH", "/x", "", 1))
    with pytest.raises(ConfigError):
        sb.ingest_event(EventEnvelope("POST", "/x", "", -5))
    with pytest.raises(ConfigError):
        sb.ingest_event(EventEnvelope("GET", "/\ud800", "", 1))
    assert len(sb.kb) == 0


def test_ingestion_order_independence(identities, trust_store, db_client):
    events = [
        post("/servicerequest", '{"request_id":1}', 10),
        post("/servicerequest", '{"request_id":2}', 20),
        EventEnvelope("GET", "/status", "", 30),
        post("/servicerequest", '{"request_id":1}', 10),
    ]
    baselines = None
    for seed in range(4):
        mon = make_monitor(identities, trust_store, db_client, "SB", SB_SHEET)
        shuffled = events[:]
        random.Random(seed).shuffle(shuffled)
        for env in shuffled:
            mon.ingest_event(env)
        atoms = set(mon.kb.claims)
        if baselines is None:
            baselines = atoms
        assert atoms == baselines


def test_query_interface_and_audit_flags(sb):
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    answers = sb.handle_query("request(R, D, T)")
    assert answers == [{"R": 7, "D": '{"request_id":7}', "T": 5}]
    assert sb.handle_query("request(9, D, T)") == []


def test_query_on_fresh_monitor(dom):
    assert dom.handle_query("verdict(R)") == []


def test_commit_then_poll_propagates(sb, dom):
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    record = sb.commit()
    assert record is not None
    assert dom.poll_and_include() == [record.id]
    assert dom.handle_query("verdict(R)") == [{"R": 7}]
    # no new head: poll is a no-op
    assert dom.poll_and_include() == []


def test_supersession_via_poll_retracts(identities, trust_store, db_client):
    sheet_noretain = SB_SHEET.replace("next request(Id, Data, T) :- request(Id, Data, T).\n", "")
    sb = make_monitor(identities, trust_store, db_client, "SB", sheet_noretain)
    dom = make_monitor(identities, trust_store, db_client, "DOM", DOM_SHEET, watched=("SB",))
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    sb.commit()
    dom.poll_and_include()
    assert dom.handle_query("verdict(R)") != []
    # next commit drops the request (no retention rule): supersession at DOM
    record2 = sb.commit()
    assert record2.claims == ()
    assert dom.poll_and_include() == [record2.id]
    assert dom.handle_query("verdict(R)") == []


def test_retention_carries_across_commits(sb, dom):
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    sb.commit()
    sb.commit()  # request survives: carried by the next-rule
    dom.poll_and_include()
    assert dom.handle_query("verdict(R)") == [{"R": 7}]
    carried = [c for c in sb.kb.claims.values() if c.atom.predicate == "request"]
    assert len(carried) == 1
    from cyberlog.engine import CarriedByNextRule

    assert isinstance(carried[0].evidence, CarriedByNextRule)


def test_unchanged_commit_logs_nothing(sb, db_client):
    """A commit whose snapshot is its base revision's logs nothing and
    returns the base; only the first counts as logged."""
    first = sb.commit()
    assert sb.commit() is first
    assert db_client.get_head("SB") == {"owner": "SB", "revision_id": first.id, "chain_length": 1}
    report = sb.metrics_report()
    assert (report["commits_logged"], report["commits_unchanged"]) == (1, 1)


def test_commit_survives_unreachable_db(identities, trust_store, db_client, monkeypatch, caplog):
    sb = make_monitor(identities, trust_store, db_client, "SB", SB_SHEET)
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    kb, before = sb.kb, set(sb.kb.claims)

    def boom(payload):
        raise OSError("connection refused")

    monkeypatch.setattr(sb.reader.db, "submit_revision", boom)
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        assert sb.commit() is None
    assert sb.kb is kb and kb.claims.keys() == before  # own claims kept for the next commit
    [record] = caplog.records
    assert (record.name, record.levelname, record.monitor, record.stage) == (
        "cyberlog.monitor", "WARNING", "SB", "commit"
    )
    assert "connection refused" in record.getMessage()


def test_metrics_report_shape(sb):
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    sb.ingest_event(EventEnvelope("GET", "/x", "", 1))
    report = sb.metrics_report()
    assert report["monitor"] == "SB"
    assert report["events"] == 2
    assert report["delay_min_ms"] <= report["delay_avg_ms"] <= report["delay_max_ms"]
    assert report["kb_facts"] == len(sb.kb)
    assert report["facts_added_total"] == 3


def test_metrics_report_matches_per_event_figures(sb):
    delays, added = [], []
    for i in range(25):
        path = "/servicerequest" if i % 3 else "/other"
        result = sb.ingest_event(post(path, f'{{"request_id":{i % 10}}}', i % 10))
        delays.append(result.delay_ms)
        added.append((1 if result.new_event else 0) + len(result.derived))
    report = sb.metrics_report()
    # Python 3.12+ sums floats with compensation, so the mean may differ in the last bit
    assert report.pop("delay_avg_ms") == pytest.approx(sum(delays) / len(delays), rel=1e-12)
    assert report == {
        "monitor": "SB",
        "events": 25,
        "delay_min_ms": min(delays),
        "delay_max_ms": max(delays),
        "kb_facts": len(sb.kb),
        "facts_added_total": sum(added),
        "facts_added_max": max(added),
        "commits_logged": 0,
        "commits_unchanged": 0,
    }


def test_metrics_count_every_concurrent_ingest(sb):
    import sys
    import threading

    def ingest(worker):
        for i in range(50):
            sb.ingest_event(post("/servicerequest", f'{{"request_id":{worker * 100 + i}}}', i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ingest, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    report = sb.metrics_report()
    assert (report["events"], report["facts_added_total"], report["kb_facts"]) == (200, 400, 400)


def test_ingest_cost_flat_in_kb_size(identities, trust_store, db_client, monkeypatch):
    import cyberlog.engine as engine

    original = engine.eval_builtin
    calls = []
    counts = []
    for size in (10, 300):
        mon = make_monitor(identities, trust_store, db_client, "SB", SB_SHEET)
        for i in range(size):
            mon.ingest_event(post("/servicerequest", f'{{"request_id":{i}}}', i))
        monkeypatch.setattr(engine, "eval_builtin", lambda *args: calls.append(args) or original(*args))
        calls.clear()
        mon.ingest_event(post("/servicerequest", '{"request_id":-1}', size))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] == 1


def test_ingest_encodes_the_event_atom_once(sb, monkeypatch):
    """Ingest never encodes the event atom: it signs nothing. The commit
    that logs the event encodes it once, for its sort key and its logged
    text; the claim DB's check of what it is sent is the
    DB's own work. The path is in no derived atom, so each encoding of the
    path is one encoding of the event atom."""
    import cyberlog.engine as engine

    sb.commit()  # logs the rulesheet, whose text names the path too
    encoded, counting = [], [True]
    original = engine._enc_string
    monkeypatch.setattr(engine, "_enc_string", lambda value: (counting[0] and encoded.append(value)) or original(value))
    submit = sb.reader.db.submit_revision

    def uncounted(payload):
        counting[0] = False
        try:
            return submit(payload)
        finally:
            counting[0] = True

    monkeypatch.setattr(sb.reader.db, "submit_revision", uncounted)
    result = sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    assert result.new_event and len(result.derived) == 1
    assert encoded.count("/servicerequest") == 0
    assert result.event_atom in sb.commit().by_atom
    assert encoded.count("/servicerequest") == 1


def test_monitor_warnings_carry_the_last_committed_revision(sb, monkeypatch, caplog):
    """A warning's `revision` is the id of the monitor's last committed
    revision, or None before its first commit."""
    submit = sb.reader.db.submit_revision

    def boom(payload):
        raise OSError("connection refused")

    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        monkeypatch.setattr(sb.reader.db, "submit_revision", boom)
        assert sb.commit() is None
        monkeypatch.setattr(sb.reader.db, "submit_revision", submit)
        committed = sb.commit()
        monkeypatch.setattr(sb.reader.db, "submit_revision", boom)
        assert sb.commit() is None
    assert [(r.stage, r.revision) for r in caplog.records] == [("commit", None), ("commit", committed.id)]


def test_failed_commit_keeps_its_events_and_its_retry_logs_the_same_record(
    identities, trust_store, db, monkeypatch
):
    """A commit whose revision submit fails leaves the KB's event as it was
    ingested, and the retry logs the record of a monitor whose first submit
    succeeded, given the same events and commit time: the same id, signed
    once, and the event asserted by its owner."""
    from cyberlog.claimdb import ClaimDb
    from cyberlog.claimlog import MerkleLog
    from cyberlog.engine import DirectAssertion
    from cyberlog.revision import REVISION_PAYLOAD_HEAD

    def sb_with_event(client):
        sheet = parse_rulesheet(SB_SHEET, "SB")
        sb = Monitor(identities["SB"], sheet, client, trust_store, identities[OPERATOR].public_key, clock=lambda: 5000)
        sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
        return sb

    submit = db.submit_revision

    def refuse_revisions(payload):
        if payload.startswith(REVISION_PAYLOAD_HEAD):
            raise OSError("connection reset")
        return submit(payload)

    retrying = sb_with_event(db)
    event = GroundAtom("SB", "postRequest", ("/servicerequest", 5, '{"request_id":7}'))
    monkeypatch.setattr(db, "submit_revision", refuse_revisions)
    assert retrying.commit() is None
    assert retrying.kb.claims[event].evidence == DirectAssertion()
    monkeypatch.setattr(db, "submit_revision", submit)
    retried = retrying.commit()
    assert retried.by_atom[event].evidence == DirectAssertion()
    once = sb_with_event(ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1000)).commit()
    assert retried.id == once.id


@pytest.mark.parametrize("path", ["/event", "/query"])
def test_http_oversized_body_gets_413_unread(sb, path):
    """A Content-Length above the cap is answered at once: the server does
    not wait for a body the client never sends."""
    import threading

    from cyberlog.httpjson import MAX_BODY_BYTES
    from cyberlog.monitor import make_monitor_server

    server = make_monitor_server(sb)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request = b"POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (path.encode(), MAX_BODY_BYTES + 1)
        assert raw_http_status(server.server_address, request) == 413
        assert len(sb.kb) == 0
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"POST /event HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"POST /event HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /event HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
        b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]",
        b"POST /query HTTP/1.1\r\nContent-Length: 14\r\n\r\n{\"pattern\": 5}",
        b'POST /event HTTP/1.1\r\nContent-Length: 51\r\n\r\n{"method": "GET", "path": "\\ud800", "timestamp": 1}',
    ],
    ids=[
        "malformed-length",
        "negative-length",
        "non-utf8-body",
        "query-not-object",
        "query-pattern-not-string",
        "event-path-lone-surrogate",
    ],
)
def test_http_bad_request_gets_400(sb, request_bytes):
    import threading

    from cyberlog.monitor import make_monitor_server

    server = make_monitor_server(sb)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        assert raw_http_status(server.server_address, request_bytes) == 400
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize("timestamp", [5.9, True, "7", -0.5], ids=["float", "bool", "string", "negative-float"])
def test_http_event_timestamp_not_a_json_integer_gets_400(sb, timestamp):
    """The monitor signs an event's time into its revision as sent, so a
    timestamp that is not a JSON integer is refused, not converted, and the
    KB is unchanged; an integer one is then admitted."""
    import threading

    from cyberlog.httpjson import request_json
    from cyberlog.monitor import make_monitor_server

    server = make_monitor_server(sb)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = "http://%s:%d/event" % server.server_address
    event = {"method": "POST", "path": "/servicerequest", "body": '{"request_id":7}'}
    try:
        before = dict(sb.kb.claims)
        refusal = f"event 'timestamp' must be a non-negative integer, not {timestamp!r}"
        with pytest.raises(SubmitError, match=re.escape(refusal)) as exc:
            request_json("POST", url, {**event, "timestamp": timestamp}, 5)
        assert exc.value.code == 400
        assert sb.kb.claims == before and all(sb.kb.claims[a] is c for a, c in before.items())
        assert request_json("POST", url, {**event, "timestamp": 5}, 5)["new"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_http_client_maps_errors(sb):
    """The monitor client raises NotFoundError on a 404 and SubmitError with
    the server's `error` text on any other HTTP error."""
    import threading

    from cyberlog.errors import NotFoundError, SubmitError
    from cyberlog.monitor import HttpMonitorClient, make_monitor_server

    server = make_monitor_server(sb)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = "http://%s:%d" % server.server_address
    try:
        with pytest.raises(NotFoundError, match="no such endpoint /nowhere/health"):
            HttpMonitorClient(url + "/nowhere").health()
        with pytest.raises(SubmitError) as exc:
            HttpMonitorClient(url).query(5)
        assert exc.value.code == 400
        assert str(exc.value) == "body must be an object with a string 'pattern'"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_authorization_gate(identities, trust_store, db_client):
    sheet = SB_SHEET + "\nauthorized(Id) :- request(Id, Data, T).\n"
    mon = make_monitor(identities, trust_store, db_client, "SB", sheet, authz_predicate="authorized")
    deny = mon.ingest_event(EventEnvelope("GET", "/other", "", 1))
    assert deny.decision == "deny"
    allow = mon.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    assert allow.decision == "allow"


@pytest.mark.parametrize("trusted", ["another-key", "no-key"])
def test_monitor_whose_trusted_key_is_not_its_own_is_refused(trusted, identities, db_client):
    """Others check the monitor's events and revisions under the trust
    store's key for its name, so a monitor whose trust store holds another
    key, or none, for it is refused when it is built."""
    from cyberlog.identity import Identity, TrustStore

    trust = TrustStore.from_identities(ident for name, ident in identities.items() if name != "SB")
    if trusted == "another-key":
        trust.add(Identity("SB", "CN=SB", "CN=R3", identities["MRM"].public_key))
    with pytest.raises(ConfigError, match="trust store does not hold the public key of 'SB'"):
        make_monitor(identities, trust, db_client, "SB", SB_SHEET)


def test_monitor_without_a_private_key_is_refused(identities, trust_store, db_client):
    """A monitor's commits sign its events and revisions. Built on a
    public-only identity, it would take events and then log none, so it is
    refused when it is built."""
    from dataclasses import replace

    public_only = dict(identities, SB=replace(identities["SB"], private_key=None))
    with pytest.raises(ConfigError, match="identity 'SB' has no private key"):
        make_monitor(public_only, trust_store, db_client, "SB", SB_SHEET)


def test_watching_monitor_without_operator_key_is_refused(identities, trust_store, db):
    """A monitor's reader checks every tree head it is served under the log
    operator's key. Built without it, a DOM watching SB through a client
    that zeroes every tree-head signature would include SB's head and
    answer `verdict(R)`, and a monitor that watches nobody would commit on
    a receipt whose head is forged; so every monitor without the key is
    refused when it is built."""
    sb = make_monitor(identities, trust_store, db, "SB", SB_SHEET)
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    sb.commit()
    zeroing = PassThroughDb(db)
    zeroing.get_revision = lambda rev_id: FORGED_FETCHES["zeroed-head-signature"][0](db.get_revision(rev_id))
    with pytest.raises(ConfigError, match="a monitor needs the log operator's key"):
        Monitor(identities["DOM"], parse_rulesheet(DOM_SHEET, "DOM"), zeroing, trust_store, None, ("SB",))
    with pytest.raises(ConfigError, match="a monitor needs the log operator's key"):
        Monitor(identities["SB"], parse_rulesheet(SB_SHEET, "SB"), db, trust_store, None)


@pytest.mark.parametrize("watched", ["SB", [1], {"SB": 1}, None])
def test_watched_owners_must_be_a_list_of_names(identities, trust_store, db_client, watched):
    """A string is not read as its letters: "SB" would watch 'S' and 'B',
    that is nobody."""
    with pytest.raises(ConfigError, match="'DOM': watched owners must be a list of names"):
        make_monitor(identities, trust_store, db_client, "DOM", DOM_SHEET, watched=watched)
    assert make_monitor(identities, trust_store, db_client, "DOM", DOM_SHEET, watched=["SB"]).watched_owners == ["SB"]


@pytest.mark.parametrize("field", ["commit_interval_ms", "poll_interval_ms"])
@pytest.mark.parametrize("value", [0, -5, 1.5, "1000", True], ids=["zero", "negative", "float", "string", "bool"])
def test_service_interval_must_be_a_positive_integer(sb, field, value):
    """A timer of 0 would fire without pause; the service is refused before
    it binds a socket or starts a thread."""
    from cyberlog.monitor import MonitorService

    with pytest.raises(ConfigError, match=f"'{field}' must be a positive integer, not {re.escape(repr(value))}"):
        MonitorService(sb, **{field: value})


def test_failed_first_revision_publishes_the_rulesheet_again_and_logs_it_once(sb, db, monkeypatch):
    """Until a revision is logged, each commit submits the rulesheet; the
    claim DB answers a repeat with the original receipt and logs nothing."""
    from cyberlog.revision import REVISION_PAYLOAD_HEAD

    submit, submitted = db.submit_revision, []

    def refuse_the_first_revision(payload):
        submitted.append("revision" if payload.startswith(REVISION_PAYLOAD_HEAD) else "rulesheet")
        if submitted == ["rulesheet", "revision"]:
            raise OSError("connection reset")
        return submit(payload)

    monkeypatch.setattr(db, "submit_revision", refuse_the_first_revision)
    assert sb.commit() is None
    record = sb.commit()
    assert sb.commit() is record
    assert submitted == ["rulesheet", "revision", "rulesheet", "revision"]
    assert len(db.log) == 2 and db.get_head("SB")["revision_id"] == record.id


def test_identity_rulesheet_mismatch(identities, trust_store, db_client):
    with pytest.raises(ConfigError, match="does not match"):
        Monitor(
            identities["DOM"], parse_rulesheet(SB_SHEET, "SB"), db_client, trust_store, identities[OPERATOR].public_key
        )


# --- Ed25519 work along each monitor's KB lineage ----------------------------

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


class Ed25519Trace:
    """The Ed25519 work of a run, each operation under the monitor method
    acting, as (monitor name, method), or None outside any monitor:

    - `imports`: private keys imported from their bytes;
    - `signs`: (actor, signer name, (key, signature, message));
    - `verifies`: (actor, module whose binding was called, (key,
      signature, message)). The KB looks `verify_bytes` up in
      `cyberlog.identity` at each check, so its checks are those under
      that module.
    """

    def __init__(self, monkeypatch):
        import sys

        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        import cyberlog.identity as identity

        self.imports = 0
        self.signs = []
        self.verifies = []
        self._actor = None
        import_key = Ed25519PrivateKey.from_private_bytes

        def counting_import(cls, data):
            self.imports += 1
            return import_key(data)

        monkeypatch.setattr(Ed25519PrivateKey, "from_private_bytes", classmethod(counting_import))
        sign, verify = identity.sign_bytes, identity.verify_bytes

        def signing(ident, data):
            signature = sign(ident, data)
            self.signs.append((self._actor, ident.name, (ident.public_key, signature, data)))
            return signature

        def verifying(module):
            def wrapper(key, signature, data):
                self.verifies.append((self._actor, module, (key, signature, data)))
                return verify(key, signature, data)

            return wrapper

        # every binding of the two functions, as perfbench's tracer patches them
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("cyberlog"):
                continue
            for binding, value in list(vars(module).items()):
                if value is sign:
                    monkeypatch.setattr(module, binding, signing)
                elif value is verify:
                    monkeypatch.setattr(module, binding, verifying(name))
        for method in ("ingest_event", "commit", "poll_and_include", "handle_query"):
            unwrapped = getattr(Monitor, method)

            def acting(monitor, *args, _unwrapped=unwrapped, _method=method, **kwargs):
                outer, self._actor = self._actor, (monitor.name, _method)
                try:
                    return _unwrapped(monitor, *args, **kwargs)
                finally:
                    self._actor = outer

            monkeypatch.setattr(Monitor, method, acting)


def test_each_monitor_lineage_verifies_each_signature_once(monkeypatch):
    """Along each monitor's lineage, each distinct (key, signature, message)
    triple is checked by its KB or signed by the monitor at most once, so
    in particular the KB never checks a signature the monitor made."""
    from cyberlog.harness import ScenarioRun

    trace = Ed25519Trace(monkeypatch)
    run = ScenarioRun(steady_booking(3))
    try:
        run.finish()
        assert run.query_count("DOM", "good_rtf_exists(R, A)") == 3
    finally:
        run.close()
    for name in run.monitors:
        signed = [t for actor, signer, t in trace.signs if actor and actor[0] == name and signer == name]
        checked = [
            t for actor, module, t in trace.verifies if actor and actor[0] == name and module == "cyberlog.identity"
        ]
        assert signed, name
        assert len(signed + checked) == len(set(signed + checked)), name


def test_ed25519_work_of_a_steady_run(monkeypatch):
    """Counts, not time: each identity imports its key once, no ingest
    signs, each logged revision is signed once, by its owner's commit, and
    the claim DB signs each tree head once. Every signature made or checked
    in the run is over a logged revision's id or a signed tree head, never
    over an event's text: an event's evidence is the revision that holds
    it."""
    import hashlib

    from cyberlog.engine import canonical_atom
    from cyberlog.harness import OPERATOR_NAME, ScenarioRun
    from cyberlog.monitor import EVENT_PREDICATES
    from cyberlog.revision import REVISION_PAYLOAD_HEAD

    trace = Ed25519Trace(monkeypatch)
    scenario = steady_booking(3)
    run = ScenarioRun(scenario)
    try:
        run.finish()
        payloads = [run.db.log.payload(i).decode("utf-8") for i in range(len(run.db.log))]
    finally:
        run.close()
    assert trace.imports == len(run.monitors) + 1  # the monitors' and the log operator's
    revisions = {}  # logged revision id -> its owner's signature
    for payload in payloads:
        if payload.startswith(REVISION_PAYLOAD_HEAD):
            body = "{" + payload[len(REVISION_PAYLOAD_HEAD) : payload.rindex(',"signature":"')] + "}"
            revisions[hashlib.sha256(body.encode("utf-8")).digest()] = bytes.fromhex(payload[-130:-2])
    owners = [(actor, signer, t) for actor, signer, t in trace.signs if signer != OPERATOR_NAME]
    assert {(actor[1], actor[0] == signer) for actor, signer, _t in owners} == {("commit", True)}
    assert sorted(t[2] for _actor, _signer, t in owners) == sorted(revisions)
    assert all(revisions[message] == signature for _actor, _signer, (_key, signature, message) in owners)
    heads = [t for _actor, signer, t in trace.signs if signer == OPERATOR_NAME]
    assert heads and len(heads) == len(set(heads))
    head_messages = {message for _key, _signature, message in heads}
    for _actor, _module, (_key, signature, message) in trace.verifies:
        assert message in head_messages or revisions.get(message) == signature
    events = set()
    for event in scenario.events:
        env = event.envelope
        atom = GroundAtom(event.monitor, EVENT_PREDICATES[env.method], (env.path, env.timestamp_ms, env.body))
        events.add(canonical_atom(atom).encode())
    messages = {t[2] for _actor, _signer, t in trace.signs} | {t[2] for _actor, _module, t in trace.verifies}
    assert events and not events & messages


def test_an_idle_monitor_costs_nothing(monkeypatch):
    """Once a steady booking run is idle, three commit ticks sign, submit
    and verify nothing and log nothing: each commit returns its owner's head
    and leaves its KB's claims as they were, and DOM's next poll loads
    nothing. After one new event SB's commit supersedes that head and logs
    its claim objects again: the committer and the claim DB encode each
    claim once, the claim DB decodes each once, SB's `revise` checks none
    of the head's, and DOM's poll decodes each claim once and checks only
    the new ones."""
    from collections import Counter

    import cyberlog.revision as revision
    from cyberlog.claimdb import ClaimDb
    from cyberlog.engine import CarriedByNextRule, KnowledgeBase
    from cyberlog.harness import ScenarioRun

    run = ScenarioRun(steady_booking(4))
    try:
        run.finish()
        sb, dom = run.monitors["SB"], run.monitors["DOM"]
        heads = {name: monitor._base for name, monitor in run.monitors.items()}
        kbs = {name: dict(monitor.kb.claims) for name, monitor in run.monitors.items()}
        entries = len(run.db.log)
        trace = Ed25519Trace(monkeypatch)
        submits = []
        submit = ClaimDb.submit_revision
        monkeypatch.setattr(ClaimDb, "submit_revision", lambda db, text: submits.append(text) or submit(db, text))
        for _tick in range(3):
            run.now += run.scenario.commit_interval_ms
            for name, monitor in run.monitors.items():
                assert monitor.commit() is heads[name]
        assert (trace.signs, submits, trace.verifies) == ([], [], [])
        assert len(run.db.log) == entries
        assert {name: run.db.get_head(name)["revision_id"] for name in heads} == {n: h.id for n, h in heads.items()}
        for name, monitor in run.monitors.items():
            assert monitor.kb.claims.keys() == kbs[name].keys()
            assert all(monitor.kb.claims[atom] is claim for atom, claim in kbs[name].items())
        assert dom.poll_and_include() == []
        monkeypatch.undo()

        head = heads["SB"]
        event = sb.ingest_event(post("/servicerequest", '{"request_id": 999, "aircraft_id": 3}', run.now))
        encoded, decoded, checked = [], [], []

        def recording(into, original, claim_of):
            def wrapper(*args):
                value = original(*args)
                into.append(claim_of(args, value))
                return value

            return wrapper

        monkeypatch.setattr(revision, "claim_from_obj", recording(decoded, revision.claim_from_obj, lambda _a, c: c))
        monkeypatch.setattr(revision, "claim_to_obj", recording(encoded, revision.claim_to_obj, lambda a, _o: a[0]))
        check = KnowledgeBase.check_evidence
        monkeypatch.setattr(KnowledgeBase, "check_evidence", recording(checked, check, lambda a, _n: a[1]))
        record = sb.commit()
        assert record.supersedes == head.id
        held = {id(claim) for claim in head.claims}
        assert held <= {id(claim) for claim in record.claims}
        assert {id(c) for c in record.claims if isinstance(c.evidence, CarriedByNextRule)} <= held
        new = {c.atom for c in record.claims if id(c) not in held}
        assert new == {event.event_atom, *event.derived}
        logged = [c.atom for c in record.claims]
        assert Counter(c.atom for c in encoded) == Counter(logged * 2)  # committer, claim DB
        assert Counter(c.atom for c in decoded) == Counter(logged)
        assert not held & {id(c) for c in checked}
        decoded.clear()
        checked.clear()
        assert dom.poll_and_include() == [record.id]
        assert Counter(c.atom for c in decoded) == Counter(logged)
        assert Counter(c.atom for c in checked) == Counter(new)
    finally:
        run.close()


# a watcher whose own claims are derived from its includes, and carried
WATCHER_SHEET = """\
'DOM': Subject: 's' Issuer: 'i'
'SB': Subject: 's' Issuer: 'i'
'MRM': Subject: 's' Issuer: 'i'

verdict(R) :- 'SB' attests request(R, Data, T).
open(R) :- 'MRM' attests request(R, Data, T).
next seen(R) :- verdict(R).
"""


def test_an_unchanged_commit_is_the_commit_it_skips(identities, trust_store):
    """Random interleavings of events, commits and polls over SB, MRM on an
    `sb_retention`-style sheet and DOM watching both. At each commit that
    returns its base, that base is the record the commit would have logged
    but for its supersedes and commit time, the base's carry-overs are the
    KB's direct and carried claims as they are, and the KB and the log are
    untouched, even by the KB step that would follow it (`apply_next_rules`). Every
    owner's head then passes a fresh Auditor."""
    from hypothesis import given, settings, strategies as st

    from cyberlog.audit import Auditor
    from cyberlog.claimdb import ClaimDb
    from cyberlog.claimlog import MerkleLog
    from cyberlog.engine import CarriedByNextRule, DirectAssertion, LogInclusion
    from cyberlog.revision import apply_next_rules, build_record

    with open(os.path.join(SCENARIOS, "rules", "sb_retention.cyberlog")) as fh:
        retention = fh.read().replace("'SB':", "'MRM':", 1)
    sheets = {"SB": (SB_SHEET, ()), "MRM": (retention, ()), "DOM": (WATCHER_SHEET, ("SB", "MRM"))}
    operator_key = identities[OPERATOR].public_key
    events = st.tuples(
        st.just("event"),
        st.sampled_from(sorted(sheets)),
        st.sampled_from(["/servicerequest", "/status", "/other"]),
        st.integers(0, 2),
        st.sampled_from(["open", "done"]),
    )
    steps = st.one_of(events, st.tuples(st.just("commit"), st.sampled_from(sorted(sheets))), st.just(("poll",)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(steps, min_size=10, max_size=40))
    def check(plan):
        clock = itertools.count(1000, 1000).__next__
        db = ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1000)
        monitors = {
            name: Monitor(
                identities[name], parse_rulesheet(sheet, name), db, trust_store, operator_key, watched, clock
            )
            for name, (sheet, watched) in sheets.items()
        }
        for at, step in enumerate(plan):
            if step[0] == "event":
                _, name, path, request, state = step
                body = f'{{"request_id": {request}, "state": "{state}"}}'
                monitors[name].ingest_event(post(path, body, at))
            elif step[0] == "poll":
                monitors["DOM"].poll_and_include()
            else:
                monitor = monitors[step[1]]
                base, claims, entries = monitor._base, dict(monitor.kb.claims), len(db.log)
                own = [c for c in claims.values() if not isinstance(c.evidence, LogInclusion)]
                includes = tuple(monitor.active_includes.values())
                record = monitor.commit()
                assert record is not None
                if record is not base:
                    assert record.supersedes == (base and base.id)
                    continue
                skipped, _body = build_record(
                    record.owner, record.supersedes, includes, monitor.rulesheet, own, record.commit_time
                )
                assert skipped.id == record.id
                carried = apply_next_rules(monitor.kb, record)  # the KB step after the skipped commit
                retracted = [c for c in own if isinstance(c.evidence, (DirectAssertion, CarriedByNextRule))]
                assert {id(c) for c in carried} == {id(c) for c in retracted}
                assert len(db.log) == entries
                assert monitor.kb.claims.keys() == claims.keys()
                assert all(monitor.kb.claims[atom] is claim for atom, claim in claims.items())
        auditor = Auditor(db, trust_store, operator_key)
        for name, monitor in monitors.items():
            if monitor._base is not None:
                assert db.get_head(name)["revision_id"] == monitor._base.id
                assert all(node.all_ok for node in auditor.audit_head(name))

    check()


def test_supersession_matches_scratch():
    from cyberlog.harness import ScenarioRun
    from cyberlog.engine import KnowledgeBase
    from cyberlog.revision import LogReader, include_revision

    windows = 8
    run = ScenarioRun(steady_booking(windows))
    dom = run.monitors["DOM"]
    reader = LogReader(run.client, run.trust_store, run.operator.public_key)
    try:
        for k in range(1, windows + 1):
            for now in (1000 * k - 1, 1000 * k):  # before and after the window's commits and polls
                run.advance_to(now)
            # DOM's KB is its inclusions and their consequences: rebuild it from scratch
            scratch = KnowledgeBase(dom.rulesheet)
            for owner, rev_id in dom.active_includes.items():
                include_revision(scratch, rev_id, reader)
            assert dom.kb.claims.keys() == scratch.claims.keys(), f"window {k}"
        assert run.query_count("DOM", "good_rtf_exists(R, A)") == windows
    finally:
        run.close()


# --- refused includes and supersessions ---------------------------------------


class PassThroughDb:
    """A claim DB client that answers as `inner` does, except where a test
    overrides a method: a tampering or misreporting claim DB."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _append_directly(db, identities, owner, supersedes, atoms=(), signature=None, commit_time=10_000):
    """Log and index a revision without the claim DB's admission checks, as
    a claim DB that lies would; returns its id. It names the owner's
    identity-only rulesheet, logged, since its claims are direct
    assertions, and carries `signature`, by default the owner's own. Its
    commit time is by default later than any commit of these tests'
    monitors, so a reader refuses it for nothing else."""
    from cyberlog.engine import Claim, DirectAssertion
    from conftest import publish_rulesheet
    from cyberlog.revision import build_record, encode_payload, sign_record

    rs = parse_rulesheet(f"'{owner}': Subject: 's' Issuer: 'i'\n", owner)
    publish_rulesheet(db, rs)
    claims = [Claim(a, DirectAssertion()) for a in atoms]
    record, body = build_record(owner, supersedes, (), rs, claims, commit_time)
    if signature is None:
        signature = sign_record(record, identities[owner])
    index = db.log.append(encode_payload(body, signature).encode("utf-8"))
    db._index_revision(record, index)
    return record.id


def _flip_first_path_hash(proof):
    first = proof["path"][0]
    return dict(proof, path=[first[:-1] + format(int(first[-1], 16) ^ 1, "x"), *proof["path"][1:]])


# a fetched revision's tree head or inclusion proof, forged, and the refusal
# of `fetch_verified_revision` that follows
FORGED_FETCHES = {
    "zeroed-head-signature": (
        lambda r: dict(r, tree_head=dict(r["tree_head"], signature="00" * 64)),
        "tree head signature invalid",
    ),
    "bumped-head-timestamp": (
        lambda r: dict(r, tree_head=dict(r["tree_head"], timestamp_ms=r["tree_head"]["timestamp_ms"] + 1)),
        "tree head signature invalid",
    ),
    "flipped-path-hash": (
        lambda r: dict(r, proof=_flip_first_path_hash(r["proof"])),
        "inclusion proof failed for revision",
    ),
    "other-leaf-index": (
        lambda r: dict(r, proof=dict(r["proof"], leaf_index=r["proof"]["leaf_index"] - 1)),
        "inclusion proof failed for revision",
    ),
}


# heads no reader may accept as SB's, so an Auditor refuses them too
REFUSED_HEADS = ("unreachable", "foreign-head", "crossing", "foreign-first-head", "backwards")


@pytest.mark.parametrize(
    "refusal",
    ["tampered", *REFUSED_HEADS, "saturation", "first-saturation", *FORGED_FETCHES],
)
def test_refused_poll_changes_nothing(refusal, identities, trust_store, db, caplog):
    """A refused head leaves DOM's atoms, evidence objects and active
    includes exactly as they were, and DOM's KB as saturated as it was. A
    forged tree head or inclusion proof is refused by the fetch, which is
    the only place a watcher checks them. The Auditor refuses each head
    the reader's `accept_head` refuses: a fresh one, or for a rolled-back
    head one that read the newer head first."""
    from cyberlog.audit import Auditor
    from cyberlog.errors import LogIntegrityError

    sb = make_monitor(identities, trust_store, db, "SB", SB_SHEET)
    # an ordered comparison that raises once SB logs a non-integer time
    late = "late(R) :- 'SB' attests request(R, Data, T), T > 3.\n"
    dom = make_monitor(identities, trust_store, db, "DOM", DOM_SHEET + late, watched=("SB",))
    mrm = make_monitor(identities, trust_store, db, "MRM", "'MRM': Subject: 's' Issuer: 'i'\n")
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    r1 = sb.commit()
    other = mrm.commit()
    wrapped = PassThroughDb(db)
    if refusal not in ("foreign-first-head", "first-saturation"):
        assert dom.poll_and_include() == [r1.id]
    if refusal == "tampered":
        sb.ingest_event(post("/servicerequest", '{"request_id":8}', 6))
        sb.commit()
        wrapped.get_revision = lambda rev_id: dict(
            db.get_revision(rev_id), payload=db.get_revision(rev_id)["payload"].replace("request(8,", "request(9,")
        )
        expected = "bad signature on revision by 'SB'"  # the body SB signed hashes to r2's id
    elif refusal in FORGED_FETCHES:
        sb.ingest_event(post("/servicerequest", '{"request_id":8}', 6))
        sb.commit()
        forge, expected = FORGED_FETCHES[refusal]
        wrapped.get_revision = lambda rev_id: forge(db.get_revision(rev_id))
    elif refusal == "unreachable":
        r2 = sb.commit()
        assert dom.poll_and_include() == [r2.id]
        wrapped.get_head = lambda owner: dict(db.get_head(owner), revision_id=r1.id)  # rolled back
        expected = f"does not supersede {r2.id}"
    elif refusal == "foreign-first-head":
        wrapped.get_head = lambda owner: dict(db.get_head(owner), revision_id=other.id)
        expected = f"revision {other.id} belongs to 'MRM', not to 'SB'"
    elif refusal == "foreign-head":  # an MRM revision that supersedes r1
        foreign = _append_directly(db, identities, "MRM", r1.id)
        wrapped.get_head = lambda owner: dict(db.get_head(owner), revision_id=foreign)
        expected = f"revision {foreign} by 'MRM' at commit time 10000 may not supersede {r1.id} by 'SB' at 1000"
    elif refusal == "crossing":  # SB's new head supersedes a CTR revision that supersedes r1
        crossing = _append_directly(db, identities, "CTR", r1.id)
        _append_directly(db, identities, "SB", crossing, [GroundAtom("SB", "request", (9, "d", 1))])
        expected = f"revision {crossing} by 'CTR' at commit time 10000 may not supersede {r1.id} by 'SB' at 1000"
    elif refusal == "backwards":  # SB's new head was committed before r1
        backwards = _append_directly(db, identities, "SB", r1.id, [GroundAtom("SB", "request", (9, "d", 1))], commit_time=5)
        expected = f"revision {backwards} by 'SB' at commit time 5 may not supersede {r1.id} by 'SB' at 1000"
    elif refusal == "first-saturation":  # the first SB head DOM sees holds a request whose time is not an integer
        dom.kb.saturate()
        assert len(dom.kb) == 0
        _append_directly(db, identities, "SB", r1.id, [GroundAtom("SB", "request", (9, "d", "x"))])
        expected = "ordered comparison on non-integers"
    else:  # SB's new head keeps r1's request and adds one whose time is not an integer
        atoms = [*(claim.atom for claim in r1.claims), GroundAtom("SB", "request", (9, "d", "x"))]
        _append_directly(db, identities, "SB", r1.id, atoms)
        expected = "ordered comparison on non-integers"
    claims, includes = dict(dom.kb.claims), dict(dom.active_includes)
    saturated = at_fixpoint(dom.kb)
    dom.reader.db = wrapped
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        assert dom.poll_and_include() == []
    assert dom.kb.claims == claims and all(dom.kb.claims[a] is c for a, c in claims.items())
    assert dom.active_includes == includes
    assert at_fixpoint(dom.kb) == saturated
    [record] = caplog.records
    assert record.stage == "poll" and re.search(expected, record.getMessage()), record.getMessage()
    if refusal in REFUSED_HEADS:
        auditor = Auditor(db if refusal == "unreachable" else wrapped, trust_store, identities[OPERATOR].public_key)
        if refusal == "unreachable":  # r1 stays in the Auditor's reader, accepted as r2's predecessor
            assert all(node.all_ok for node in auditor.audit_head("SB"))
            auditor.reader.db = wrapped
        with pytest.raises(LogIntegrityError, match=re.escape(expected)):
            auditor.audit_head("SB")


def test_cli_audit_refuses_a_head_committed_before_its_predecessor(identities, trust_store, db, tmp_path, capsys):
    """`cyberlog audit` exits 1 for an SB head whose commit time is before
    that of the revision it supersedes, which the claim DB was made to log."""
    from cyberlog.claimdb import serve_db_in_thread
    from cyberlog.cli import main

    sb = make_monitor(identities, trust_store, db, "SB", SB_SHEET)
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    r1 = sb.commit()
    backwards = _append_directly(db, identities, "SB", r1.id, [GroundAtom("SB", "request", (9, "d", 1))], commit_time=5)
    trust = str(tmp_path / "trust.jsonl")
    trust_store.save(trust)
    server, url = serve_db_in_thread(db)
    try:
        code = main(["audit", "--db", url, "--trust-store", trust, "--owner", "SB"])
    finally:
        server.shutdown()
        server.server_close()
    out = capsys.readouterr().out
    assert code == 1 and f"audit failed: revision {backwards} by 'SB' at commit time 5 may not supersede {r1.id}" in out, out


def test_commit_keeps_derived_claims_whose_premises_survive(identities, trust_store, db_client):
    sheet = SB_SHEET + "known(Id) :- request(Id, Data, T).\n"
    sb = make_monitor(identities, trust_store, db_client, "SB", sheet)
    event = sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5)).event_atom
    known = sb.kb.claims[GroundAtom("SB", "known", (7,))]
    sb.commit()
    # the event goes, the request is carried, and what was derived from the request stays
    assert event not in sb.kb
    assert type(sb.kb.claims[GroundAtom("SB", "request", (7, '{"request_id":7}', 5))].evidence).__name__ == "CarriedByNextRule"
    assert sb.kb.claims[known.atom] is known and derivation_faults(sb.kb) == []
    assert at_fixpoint(sb.kb) and len(sb.kb) == 2


# --- events and commits whose consequences make a rule raise -------------------

# `M == Id * 10` overflows for a request id of 2**62
TENFOLD_SHEET = SB_SHEET + "tenfold(M) :- request(Id, Data, T), M == Id * 10.\n"
HUGE = post("/servicerequest", f'{{"request_id":{2**62}}}', 5)
SMALL = post("/servicerequest", '{"request_id":7}', 6)
SMALL_CONSEQUENCES = (
    GroundAtom("SB", "request", (7, '{"request_id":7}', 6)),
    GroundAtom("SB", "tenfold", (70,)),
)


def test_event_whose_consequence_raises_is_refused(identities, trust_store, db_client):
    """The event is not admitted, later events derive their consequences,
    and the next commit logs them without the refused event."""
    sb = make_monitor(identities, trust_store, db_client, "SB", TENFOLD_SHEET)
    with pytest.raises(EvaluationError, match="integer overflow"):
        sb.ingest_event(HUGE)
    assert len(sb.kb) == 0 and at_fixpoint(sb.kb)
    result = sb.ingest_event(SMALL)
    assert result.new_event and result.derived == SMALL_CONSEQUENCES
    record = sb.commit()
    assert {c.atom for c in record.claims} == {result.event_atom, *SMALL_CONSEQUENCES}
    assert sb.metrics_report()["events"] == 1


def test_http_event_whose_consequence_raises_gets_400(identities, trust_store, db_client):
    import threading

    from cyberlog.engine import canonical_atom
    from cyberlog.errors import SubmitError
    from cyberlog.monitor import HttpMonitorClient, make_monitor_server

    sb = make_monitor(identities, trust_store, db_client, "SB", TENFOLD_SHEET)
    server = make_monitor_server(sb)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = HttpMonitorClient("http://%s:%d" % server.server_address)
    try:
        with pytest.raises(SubmitError, match="integer overflow") as exc:
            client.send_event(HUGE)
        assert exc.value.code == 400
        answer = client.send_event(SMALL)
        assert answer["new"] and answer["derived"] == [canonical_atom(a) for a in SMALL_CONSEQUENCES]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.mark.parametrize(
    "rules",
    [
        # a carry-over makes a standard rule raise
        "next held(Id) :- request(Id, Data, T).\nheld10(M) :- held(Id), M == Id * 10.\n",
        # the next-rule's own match raises
        "next tenfold(M) :- request(Id, Data, T), M == Id * 10.\n",
    ],
    ids=["carried", "matched"],
)
def test_commit_whose_carried_claims_raise_starts_the_next_clean(identities, trust_store, db_client, rules):
    """The error propagates with the record logged and taken as the base; the
    KB drops the record's claims without the carry-overs, stays at its
    fixpoint, and ingest and the next commit work without logging them again."""
    sb = make_monitor(identities, trust_store, db_client, "SB", SB_SHEET + rules)
    sb.ingest_event(HUGE)
    committed = set(sb.kb.claims)
    with pytest.raises(EvaluationError, match="integer overflow"):
        sb.commit()
    head = db_client.get_head("SB")["revision_id"]
    assert sb._base.id == head and db_client.get_head("SB")["chain_length"] == 1
    assert len(sb.kb) == 0 and at_fixpoint(sb.kb)
    result = sb.ingest_event(SMALL)
    assert result.new_event and result.derived == SMALL_CONSEQUENCES[:1]
    record = sb.commit()
    assert record.supersedes == head and sb._base is record
    assert {c.atom for c in record.claims} == {result.event_atom, *result.derived}
    assert not committed & sb.kb.claims.keys()


def test_fact_rules_hold_from_construction(identities, trust_store, db_client):
    sheet = "'SB': Subject: 's' Issuer: 'i'\nseed(1).\nseeded(X) :- seed(X).\n"
    sb = make_monitor(identities, trust_store, db_client, "SB", sheet)
    assert sb.kb.claims.keys() == {GroundAtom("SB", "seed", (1,)), GroundAtom("SB", "seeded", (1,))}
    assert at_fixpoint(sb.kb)


def test_failed_rulesheet_publish_is_logged_and_retried(identities, trust_store, db, caplog):
    """A revision names its owner's rulesheet, so a commit waits for the
    rulesheet to be logged: while the claim DB refuses it, the commit logs
    one commit-stage warning naming the refusal, logs nothing and leaves the
    KB untouched; once the DB takes it, the next commit logs the rulesheet
    and then the revision."""
    from cyberlog.lang import format_rulesheet
    from cyberlog.revision import rulesheet_entry_id

    class RulesheetRefusingDb(PassThroughDb):
        refusing = True

        def submit_revision(self, payload):
            if self.refusing and payload.startswith('{"kind":"rulesheet"'):
                raise SubmitError(503, "rulesheet store down")
            return self.inner.submit_revision(payload)

    client = RulesheetRefusingDb(db)
    sb = make_monitor(identities, trust_store, client, "SB", SB_SHEET)
    sheet_id = rulesheet_entry_id(format_rulesheet(sb.rulesheet))
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    claims = dict(sb.kb.claims)
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        assert sb.commit() is None
    [warning] = caplog.records
    assert (warning.levelname, warning.stage, warning.revision) == ("WARNING", "commit", None)
    assert "rulesheet not published" in warning.getMessage() and "rulesheet store down" in warning.getMessage()
    assert len(db.log) == 0 and sb.kb.claims == claims
    with pytest.raises(NotFoundError):
        db.get_head("SB")

    client.refusing = False
    caplog.clear()
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        record = sb.commit()
    assert record is not None and caplog.records == []
    assert db.get_head("SB")["revision_id"] == record.id and record.rulesheet_hash == sheet_id
    assert db.get_revision(sheet_id)["proof"]["leaf_index"] == 0


# --- what the reader refuses: forged owners, split views, rolled-back logs ----


def _other_log(identities, trust_store, flows):
    """A second claim DB under the same operator key whose log shares only
    SB's rulesheet with the one a test started: then SB's revisions of
    `flows` requests, one commit each."""
    from cyberlog.claimdb import ClaimDb
    from cyberlog.claimlog import MerkleLog

    other = ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1000)
    sb = make_monitor(identities, trust_store, other, "SB", SB_SHEET)
    for request in range(flows):
        sb.ingest_event(post("/servicerequest", f'{{"request_id":{90 + request}}}', 5))
        sb.commit()
    return other


def _prefix(db, identities, trust_store, size):
    """A claim DB under the same operator key holding the first `size`
    entries of `db`'s log: that log rolled back."""
    from cyberlog.claimdb import ClaimDb
    from cyberlog.claimlog import MerkleLog

    prefix = ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1000)
    for index in range(size):
        prefix.submit_revision(db.log.payload(index).decode("utf-8"))
    return prefix


def _refused_poll(dom, client, caplog, expected):
    """DOM polls through `client`, which refuses what it serves: the poll
    loads nothing, logs one poll warning matching `expected` and leaves the
    KB's claims and the active includes as they were."""
    claims, includes = dict(dom.kb.claims), dict(dom.active_includes)
    dom.reader.db = client
    caplog.clear()
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        assert dom.poll_and_include() == []
    assert dom.kb.claims == claims and all(dom.kb.claims[a] is c for a, c in claims.items())
    assert dom.active_includes == includes
    [record] = caplog.records
    assert record.stage == "poll" and re.search(expected, record.getMessage()), record.getMessage()


def _watching_dom(identities, trust_store, db, requests):
    """SB commits one revision per request id, then DOM, watching SB,
    includes SB's head; returns (SB, DOM)."""
    sb = make_monitor(identities, trust_store, db, "SB", SB_SHEET)
    dom = make_monitor(identities, trust_store, db, "DOM", DOM_SHEET, watched=("SB",))
    for k, request in enumerate(requests):
        sb.ingest_event(post("/servicerequest", f'{{"request_id":{request}}}', 5 + k))
        record = sb.commit()
    assert dom.poll_and_include() == [record.id]
    assert dom.handle_query("verdict(R)")
    return sb, dom


def test_owner_revision_forged_by_the_operator_is_refused(identities, trust_store, db, caplog):
    """The operator appends and indexes an empty SB successor with an
    all-zero signature. DOM's poll refuses it, with its KB and includes as
    they were, and the Auditor fails SB's head."""
    from cyberlog.audit import Auditor
    from cyberlog.errors import LogIntegrityError

    sb, dom = _watching_dom(identities, trust_store, db, [7])
    forged = _append_directly(db, identities, "SB", sb._base.id, signature=bytes(64))
    assert db.get_head("SB")["revision_id"] == forged
    _refused_poll(dom, db, caplog, "bad signature on revision by 'SB'")
    with pytest.raises(LogIntegrityError, match="bad signature on revision by 'SB'"):
        Auditor(db, trust_store, identities[OPERATOR].public_key).audit_head("SB")


def test_split_view_is_refused(identities, trust_store, db, caplog):
    """Two logs under the same operator key share SB's rulesheet and then
    fork. DOM, having read one, refuses the other's SB head, with its KB
    unchanged, and so does an Auditor that has read the first."""
    from cyberlog.audit import Auditor
    from cyberlog.errors import LogIntegrityError

    _sb, dom = _watching_dom(identities, trust_store, db, [7])
    other = _other_log(identities, trust_store, 2)
    assert len(other.log) > len(db.log)
    _refused_poll(dom, other, caplog, f"split-view/tamper suspected: 2 -> {len(other.log)}")
    auditor = Auditor(db, trust_store, identities[OPERATOR].public_key)
    assert all(node.all_ok for node in auditor.audit_head("SB"))
    auditor.reader.db = other
    with pytest.raises(LogIntegrityError, match="split-view/tamper suspected"):
        auditor.audit_head("SB")


def _refused_everywhere(db, identities, trust_store, claim, revision_id):
    """A fresh reader refuses SB's head for `claim` of the revision
    `revision_id`, and a fresh Auditor fails the head, naming that claim."""
    from cyberlog.audit import Auditor
    from cyberlog.errors import UnsupportedClaimError
    from conftest import audit_agrees_with_reader, log_reader

    head = db.get_head("SB")["revision_id"]
    with pytest.raises(UnsupportedClaimError, match=f"revision {revision_id[:8]} by 'SB' holds an unsupported claim"):
        log_reader(db, identities).revision(head)
    [node] = Auditor(db, trust_store, identities[OPERATOR].public_key).audit_head("SB")
    assert node.atom == canonical_atom(claim.atom) and not node.all_ok
    assert not audit_agrees_with_reader(db, trust_store, identities[OPERATOR].public_key, "SB")


def test_watcher_refuses_a_carried_claim_its_superseded_revision_does_not_support(
    identities, trust_store, db, caplog
):
    """Under a retention next-rule, r1 holds `request(7,"d",5)` and
    `in_process(7)`, r2 carries nothing, and r3, superseding r2, logs the
    request as carried, undoing the retention cut. DOM, which included r2,
    refuses r3 with a warning, its KB and includes as they were, and never
    derives `verdict(7)` from it; a fresh reader and the Auditor refuse r3,
    naming the request."""
    from cyberlog.engine import CarriedByNextRule, Claim, DirectAssertion
    from cyberlog.revision import build_record, encode_payload, sign_record
    from conftest import publish_rulesheet

    rs = parse_rulesheet(
        "'SB': Subject: 's' Issuer: 'i'\n"
        "next request(Id, Data, TimeRequest) :- request(Id, Data, TimeRequest), in_process(Id).\n",
        "SB",
    )
    publish_rulesheet(db, rs)
    request, in_process = GroundAtom("SB", "request", (7, "d", 5)), GroundAtom("SB", "in_process", (7,))

    def commit(claims, supersedes, now):
        record, body = build_record("SB", supersedes, (), rs, claims, now)
        db.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))
        return record

    dom = make_monitor(identities, trust_store, db, "DOM", DOM_SHEET, watched=("SB",))
    r1 = commit([Claim(a, DirectAssertion()) for a in (request, in_process)], None, 1)
    assert dom.poll_and_include() == [r1.id] and dom.handle_query("verdict(R)") == [{"R": 7}]
    r2 = commit([], r1.id, 2)
    assert dom.poll_and_include() == [r2.id] and dom.handle_query("verdict(R)") == []
    carried = Claim(request, CarriedByNextRule(rs.rules[0], {"Id": 7, "Data": "d", "TimeRequest": 5}))
    r3 = commit([carried], r2.id, 3)
    _refused_poll(dom, db, caplog, f"poll of SB refused: revision {r3.id[:8]} by 'SB' holds an unsupported claim")
    assert dom.handle_query("verdict(R)") == [] and dom.active_includes == {"SB": r2.id}
    _refused_everywhere(db, identities, trust_store, carried, r3.id)


def test_watcher_refuses_a_derived_claim_without_its_premise(identities, trust_store, db, caplog):
    """SB logs, beside its carried `request(7, …)`, a derived `request(9, …)`
    whose `postRequest` premise it does not hold. DOM's poll refuses the
    revision with a warning, its KB and includes as they were; a fresh
    reader and the Auditor refuse it, naming `request(9, …)`."""
    from cyberlog.engine import Claim, DerivedByRule
    from cyberlog.revision import build_record, encode_payload, sign_record

    sb, dom = _watching_dom(identities, trust_store, db, [7])
    included = dom.active_includes["SB"]
    forged = Claim(GroundAtom("SB", "request", (9, '{"request_id":9}', 6)), DerivedByRule(sb.rulesheet.rules[0], {}))
    record, body = build_record("SB", included, (), sb.rulesheet, [*sb._base.claims, forged], 9000)
    db.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))
    _refused_poll(dom, db, caplog, rf'holds an unsupported claim "SB"\|request\(9,.*premise "SB"\|postRequest')
    assert dom.handle_query("verdict(R)") == [{"R": 7}] and dom.active_includes == {"SB": included}
    _refused_everywhere(db, identities, trust_store, forged, record.id)


def test_rolled_back_log_is_refused(identities, trust_store, db, caplog):
    """A claim DB that serves a prefix of the log a watcher has read, SB's
    older revision its head, is refused for its smaller tree, by the
    watcher and by an Auditor that has taken the whole log's head."""
    from cyberlog.audit import Auditor
    from cyberlog.claimlog import SignedTreeHead
    from cyberlog.errors import LogIntegrityError

    _sb, dom = _watching_dom(identities, trust_store, db, [7, 8])
    rolled_back = _prefix(db, identities, trust_store, 2)
    assert rolled_back.get_head("SB")["revision_id"] != dom.active_includes["SB"]
    _refused_poll(dom, rolled_back, caplog, "tree size went backwards: 3 -> 2")
    auditor = Auditor(rolled_back, trust_store, identities[OPERATOR].public_key)
    auditor.reader.accept(SignedTreeHead.from_obj(db.get_log_root()))
    with pytest.raises(LogIntegrityError, match="tree size went backwards"):
        auditor.audit_head("SB")


def test_an_auditor_refuses_an_older_head_it_holds(identities, trust_store, db):
    """An Auditor that accepted SB's head r2 is then served r1 as SB's head,
    which its reader holds, accepted as r2's predecessor: it refuses r1
    without a fetch. A fresh Auditor passes r1, since no proof covers a
    head answer."""
    from cyberlog.audit import Auditor
    from cyberlog.errors import LogIntegrityError

    sb, _dom = _watching_dom(identities, trust_store, db, [7, 8])
    r2 = sb._base
    auditor = Auditor(db, trust_store, identities[OPERATOR].public_key)
    assert all(node.all_ok for node in auditor.audit_head("SB"))
    rolled_back = PassThroughDb(db)
    rolled_back.get_head = lambda owner: dict(db.get_head(owner), revision_id=r2.supersedes)
    assert all(node.all_ok for node in Auditor(rolled_back, trust_store, identities[OPERATOR].public_key).audit_head("SB"))
    rolled_back.get_revision = lambda rev_id: pytest.fail(f"fetched {rev_id}")
    auditor.reader.db = rolled_back
    with pytest.raises(LogIntegrityError, match=f"revision {r2.supersedes} does not supersede {r2.id}"):
        auditor.audit_head("SB")


@pytest.mark.parametrize("answer", ["empty-head", "empty-consistency-proof", "payload-not-a-string"])
def test_malformed_response_is_refused(answer, identities, trust_store, db, caplog):
    """A claim DB that answers a head request or a consistency request with
    `{}`, or serves a revision whose payload is not a string, is refused as
    any other lie is: the poll logs one warning and leaves the KB as it
    was."""
    sb, dom = _watching_dom(identities, trust_store, db, [7])
    sb.ingest_event(post("/servicerequest", '{"request_id":8}', 6))
    sb.commit()
    client = PassThroughDb(db)
    if answer == "empty-head":
        client.get_head = lambda owner: {}
        expected = r"malformed head of 'SB' from the claim database: KeyError\('revision_id'\)"
    elif answer == "empty-consistency-proof":
        client.get_consistency = lambda old_size, new_size: {}
        expected = r"malformed consistency proof from the claim database: KeyError\('old_size'\)"
    else:
        client.get_revision = lambda rev_id: dict(db.get_revision(rev_id), payload=7)
        expected = "malformed revision [0-9a-f]{64} from the claim database: TypeError"
    _refused_poll(dom, client, caplog, expected)


def test_poll_thread_survives_a_malformed_head(identities, trust_store, db, caplog):
    """A running service whose claim DB answers DOM's head requests with
    `{}` keeps polling: each poll logs a warning, and once the DB answers
    again the next poll includes SB's new head."""
    import time

    from cyberlog.monitor import MonitorService

    sb, dom = _watching_dom(identities, trust_store, db, [7])
    sb.ingest_event(post("/servicerequest", '{"request_id":8}', 6))
    newer = sb.commit()
    client = PassThroughDb(db)
    client.get_head = lambda owner: {}
    dom.reader.db = client

    def wait_for(condition):
        deadline = time.monotonic() + 10
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)
        return condition()

    service = MonitorService(dom, commit_interval_ms=10**6, poll_interval_ms=10)
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        service.start()
        try:
            assert wait_for(lambda: sum("malformed head of 'SB'" in r.getMessage() for r in caplog.records) >= 2)
            del client.get_head  # the DB answers honestly again
            assert wait_for(lambda: dom.active_includes["SB"] == newer.id)
        finally:
            service.stop()
    assert {r.stage for r in caplog.records} == {"poll"}


def test_idle_service_logs_nothing_after_its_first_commit(identities, trust_store, db):
    """A running service whose monitor gets no events logs its first
    revision and then nothing: its commit timer's later ticks return the
    head, and `/metrics` counts them as unchanged."""
    import time

    from cyberlog.monitor import HttpMonitorClient, MonitorService

    def wait_for(condition):
        deadline = time.monotonic() + 5
        while not condition() and time.monotonic() < deadline:
            time.sleep(0.01)
        return condition()

    sb = make_monitor(identities, trust_store, db, "SB", SB_SHEET)
    service = MonitorService(sb, commit_interval_ms=20, poll_interval_ms=10**6)
    client = HttpMonitorClient(service.url)
    service.start()
    try:
        assert wait_for(lambda: client.metrics()["commits_logged"] >= 1)
        entries = len(db.log)  # the rulesheet and the first revision
        assert wait_for(lambda: client.metrics()["commits_unchanged"] >= 3)
        assert client.metrics()["commits_logged"] == 1
    finally:
        service.stop()
    assert len(db.log) == entries == 2


def test_watcher_skips_an_owner_without_revisions_silently(identities, trust_store, db, caplog):
    dom = make_monitor(identities, trust_store, db, "DOM", DOM_SHEET, watched=("SB",))
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        assert dom.poll_and_include() == []
    assert caplog.records == [] and dom.active_includes == {}


def test_commit_refuses_a_rulesheet_receipt_whose_head_is_forged(identities, trust_store, db):
    """The rulesheet's receipt goes through the reader as a revision's does:
    a zeroed tree-head signature on it makes the commit raise before any
    revision is submitted, with the KB and the base as they were, and the
    next commit, on honest receipts, publishes the rulesheet and commits."""
    from cyberlog.errors import LogIntegrityError

    def zeroing_submit(payload):
        receipt = db.submit_revision(payload)
        if payload.startswith('{"kind":"rulesheet"'):
            receipt = dict(receipt, tree_head=dict(receipt["tree_head"], signature="00" * 64))
        return receipt

    client = PassThroughDb(db)
    client.submit_revision = zeroing_submit
    sb = make_monitor(identities, trust_store, client, "SB", SB_SHEET)
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    claims = dict(sb.kb.claims)
    with pytest.raises(LogIntegrityError, match="tree head signature invalid"):
        sb.commit()
    assert sb.kb.claims == claims and all(sb.kb.claims[a] is c for a, c in claims.items())
    assert sb._base is None and len(db.log) == 1  # the rulesheet only
    del client.submit_revision
    record = sb.commit()
    assert record is not None and db.get_head("SB")["revision_id"] == record.id == sb._base.id


@pytest.mark.parametrize("forgery", ["zeroed-signature", "forked-head"])
def test_commit_refuses_a_receipt_whose_head_the_reader_refuses(forgery, identities, trust_store, db):
    """A submit receipt whose tree head has a bad signature, or does not
    extend the last head SB's reader took, makes the commit raise, with the
    KB and the base as they were."""
    from cyberlog.errors import LogIntegrityError

    sb = make_monitor(identities, trust_store, db, "SB", SB_SHEET)
    sb.ingest_event(post("/servicerequest", '{"request_id":7}', 5))
    sb.commit()  # the reader takes the head of size 2
    sb.ingest_event(post("/servicerequest", '{"request_id":8}', 6))
    claims, base = dict(sb.kb.claims), sb._base
    if forgery == "zeroed-signature":
        head, expected = dict(db.get_log_root(), signature="00" * 64), "tree head signature invalid"
    else:  # a signed head of size 3, the size of SB's log after the submit, over another log
        head, expected = _other_log(identities, trust_store, 2).get_log_root(), "split-view/tamper suspected"
    client = PassThroughDb(db)
    client.submit_revision = lambda payload: dict(db.submit_revision(payload), tree_head=head)
    sb.reader.db = client
    with pytest.raises(LogIntegrityError, match=expected):
        sb.commit()
    assert sb.kb.claims == claims and all(sb.kb.claims[a] is c for a, c in claims.items())
    assert sb._base == base


def test_each_reader_checks_each_head_once_and_decodes_each_payload_once(monkeypatch):
    """On a memory-mode booking run, audited afterwards by one Auditor per
    owner: each reader checks one tree-head signature per distinct head it
    is served, asks for at most one consistency proof per distinct head and
    decodes each distinct payload at most once."""
    import cyberlog.claimdb as claimdb
    import cyberlog.revision as revision
    from cyberlog.audit import Auditor
    from cyberlog.harness import ScenarioRun

    seen, signatures, proofs, decodes = {}, {}, {}, {}
    accepting = []
    accept, verify_tree_head = revision.LogReader.accept, revision.verify_tree_head
    get_consistency, decode_payload = claimdb.ClaimDb.get_consistency, revision.decode_payload

    def counting_accept(reader, head):
        seen.setdefault(id(reader), set()).add(head)
        accepting.append(id(reader))
        try:
            return accept(reader, head)
        finally:
            accepting.pop()

    def counting_verify(head, key):
        signatures[accepting[-1]] = signatures.get(accepting[-1], 0) + 1
        return verify_tree_head(head, key)

    def counting_consistency(db, old_size, new_size):
        proofs[accepting[-1]] = proofs.get(accepting[-1], 0) + 1
        return get_consistency(db, old_size, new_size)

    def counting_decode(payload, rulesheet_of, trust_store):
        if isinstance(rulesheet_of, revision.LogReader):
            decodes.setdefault(id(rulesheet_of), []).append(payload)
        return decode_payload(payload, rulesheet_of, trust_store)

    monkeypatch.setattr(revision.LogReader, "accept", counting_accept)
    monkeypatch.setattr(revision, "verify_tree_head", counting_verify)
    monkeypatch.setattr(claimdb.ClaimDb, "get_consistency", counting_consistency)
    monkeypatch.setattr(revision, "decode_payload", counting_decode)
    run = ScenarioRun(steady_booking(4))
    try:
        run.finish()
        assert run.query_count("DOM", "good_rtf_exists(R, A)") == 4
        readers = [monitor.reader for monitor in run.monitors.values()]
        for owner in run.monitors:
            auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
            assert all(node.all_ok for node in auditor.audit_head(owner))
            readers.append(auditor.reader)
    finally:
        run.close()
    for reader in readers:
        heads = seen[id(reader)]
        assert signatures.get(id(reader), 0) == len(heads)
        assert proofs.get(id(reader), 0) <= len(heads)
        payloads = decodes.get(id(reader), [])
        assert len(payloads) == len(set(payloads))
    dom = run.monitors["DOM"].reader
    assert len(seen[id(dom)]) > 1 and proofs[id(dom)] > 0 and decodes[id(dom)]
