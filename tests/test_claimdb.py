"""Claim database service: submissions, retrieval, proofs, HTTP wire."""

import pytest

from cyberlog.claimdb import ClaimDb, HttpLogClient, serve_db_in_thread
from cyberlog.claimlog import (
    ConsistencyProof,
    InclusionProof,
    MerkleLog,
    SignedTreeHead,
    leaf_hash,
    verify_consistency,
    verify_inclusion,
    verify_tree_head,
)
from cyberlog.engine import Claim, DirectAssertion, GroundAtom
from cyberlog.errors import LogIntegrityError, NotFoundError, SubmitError
from cyberlog.lang import parse_rulesheet
from cyberlog.revision import (
    LogReader,
    build_record,
    commit_staging,
    encode_payload,
    encode_rulesheet_payload,
    fetch_verified_revision,
    rulesheet_entry_id,
    sign_record,
)

from conftest import OPERATOR, log_reader, publish_rulesheet, raw_http_status, rulesheets_of

SB_SHEET = "'SB': Subject: 's' Issuer: 'i'\n"
MRM_SHEET = "'MRM': Subject: 's' Issuer: 'i'\n"


def with_rulesheets(db, *texts):
    """`db` with SB's and MRM's rulesheets logged, and `texts`, as their
    monitors log their rulesheets before their first revisions."""
    for text in (SB_SHEET, MRM_SHEET) + texts:
        db.submit_revision(encode_rulesheet_payload(text))
    return db


@pytest.fixture
def db(identities, trust_store):
    return with_rulesheets(ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1000))


def reader(client, identities):
    return log_reader(client, identities)


def sb_payload(identities, supersedes=None, atoms=(), commit_time=1):
    rs = parse_rulesheet(SB_SHEET, "SB")
    claims = [Claim(atom, DirectAssertion()) for atom in atoms]
    record, body = build_record("SB", supersedes, (), rs, claims, commit_time)
    return record, encode_payload(body, sign_record(record, identities["SB"]))


def test_first_submission_receipt_verifies(db, db_client, identities):
    record, payload = sb_payload(identities)
    receipt = db_client.submit_revision(payload)
    assert receipt["leaf_index"] == 2  # after the rulesheets
    assert receipt["revision_id"] == record.id
    head = SignedTreeHead.from_obj(receipt["tree_head"])
    proof = InclusionProof.from_obj(receipt["inclusion_proof"])
    assert verify_inclusion(head.root_hash, leaf_hash(payload.encode()), proof)
    assert verify_tree_head(head, identities[OPERATOR].public_key)


def test_bad_signature_rejected(db_client, identities):
    _record, body = build_record("SB", None, (), parse_rulesheet(SB_SHEET, "SB"), (), 1)
    forged = encode_payload(body, b"\x00" * 64)
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(forged)
    assert exc.value.code == 401


def test_unknown_owner_rejected(db_client, identities, trust_store):
    from cyberlog.identity import generate_identity

    rogue = generate_identity("ROGUE", seed=bytes([7]) * 32)
    rs = parse_rulesheet("'ROGUE': Subject: 's' Issuer: 'i'\n", "ROGUE")
    publish_rulesheet(db_client, rs)
    record, body = build_record("ROGUE", None, (), rs, (), 1)
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(encode_payload(body, sign_record(record, rogue)))
    assert exc.value.code == 401


def test_cross_owner_supersession_rejected(db_client, identities):
    _, payload = sb_payload(identities)
    receipt = db_client.submit_revision(payload)
    rs = parse_rulesheet("'MRM': Subject: 's' Issuer: 'i'\n", "MRM")
    record, body = build_record("MRM", receipt["revision_id"], (), rs, (), 2)
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(encode_payload(body, sign_record(record, identities["MRM"])))
    assert exc.value.code == 401


def test_double_supersession_conflict(db_client, identities):
    _, payload = sb_payload(identities)
    base = db_client.submit_revision(payload)["revision_id"]
    _, first = sb_payload(identities, supersedes=base, commit_time=2)
    db_client.submit_revision(first)
    _, second = sb_payload(identities, supersedes=base, commit_time=3)
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(second)
    assert exc.value.code == 409


def test_second_chain_root_rejected(db_client, identities):
    _, payload = sb_payload(identities)
    db_client.submit_revision(payload)
    _, another_root = sb_payload(identities, commit_time=9)
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(another_root)
    assert exc.value.code == 409


def test_malformed_record_rejected(db_client):
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision("not json at all")
    assert exc.value.code == 400
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision('{"kind":"revision","owner":"SB"}')
    assert exc.value.code == 400


def test_unknown_supersedes_target(db_client, identities):
    _, payload = sb_payload(identities, supersedes="ab" * 32)
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(payload)
    assert exc.value.code == 400


def test_get_revision_proof_still_verifies_after_growth(db_client, identities):
    record, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db_client.submit_revision(payload)
    rs = parse_rulesheet("'CTR': Subject: 's' Issuer: 'i'\n", "CTR")
    publish_rulesheet(db_client, rs)
    base = None
    for t in range(10):
        base = commit_staging(identities["CTR"], rs, reader(db_client, identities), base, (), (), t)[0].id
    fetched, inclusion = fetch_verified_revision(reader(db_client, identities), record.id)
    assert fetched.id == record.id
    assert inclusion.proof.tree_size == 14
    root = SignedTreeHead.from_obj(db_client.get_log_root())
    assert root.tree_size == 14


def test_each_tree_head_signed_once(identities, trust_store, monkeypatch):
    """Heads at one log size and one tick are one head, byte for byte,
    signed once; a new tick or a new entry gets a new head."""
    import cyberlog.claimlog as claimlog

    now = [1000]
    db = with_rulesheets(ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: now[0]))
    sign, signed = claimlog.sign_bytes, []
    monkeypatch.setattr(claimlog, "sign_bytes", lambda ident, data: signed.append(data) or sign(ident, data))
    record, payload = sb_payload(identities)
    receipt = db.submit_revision(payload)
    first, second = db.get_revision(record.id), db.get_revision(record.id)
    assert first == second and first["tree_head"] == receipt["tree_head"] == db.get_log_root()
    assert len(signed) == 1
    now[0] += 1
    assert db.get_log_root()["timestamp_ms"] == 1001
    db.submit_revision(encode_rulesheet_payload("'CTR': Subject: 's' Issuer: 'i'\n"))
    assert db.get_log_root()["tree_size"] == 4
    assert len(signed) == 3 == len(set(signed))


def test_get_revision_not_found(db_client):
    with pytest.raises(NotFoundError):
        db_client.get_revision("00" * 32)


def test_heads_endpoint(db_client, identities):
    with pytest.raises(NotFoundError):
        db_client.get_head("SB")
    _, payload = sb_payload(identities)
    base = db_client.submit_revision(payload)["revision_id"]
    _, nxt = sb_payload(identities, supersedes=base, commit_time=2)
    head_id = db_client.submit_revision(nxt)["revision_id"]
    head = db_client.get_head("SB")
    assert head["revision_id"] == head_id and head["chain_length"] == 2


def test_rulesheet_blob_storage(db_client):
    text = "'SB': Subject: 's' Issuer: 'i'\n"
    receipt = db_client.submit_revision(encode_rulesheet_payload(text))
    assert receipt["revision_id"] == rulesheet_entry_id(text)
    fetched = db_client.get_revision(receipt["revision_id"])
    import json

    assert json.loads(fetched["payload"])["text"] == text
    # resubmission is idempotent
    again = db_client.submit_revision(encode_rulesheet_payload(text))
    assert again["leaf_index"] == receipt["leaf_index"]


def test_non_canonical_rulesheet_payload_refused_at_submit_and_on_replay(tmp_path, identities, trust_store, caplog):
    """A rulesheet is logged only as `encode_rulesheet_payload` of its text:
    a payload with another key is refused with 400, before and after the
    canonical one is logged, and left unindexed with one warning on replay,
    so its text's hash still names the canonical entry."""
    import json

    text = "'CTR': Subject: 's' Issuer: 'i'\n"
    payload = json.dumps({"text": text, "kind": "rulesheet", "extra": [1, 2, 3]})
    path = str(tmp_path / "db.log")
    db = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    for _ in range(2):
        with pytest.raises(SubmitError) as exc:
            db.submit_revision(payload)
        assert exc.value.code == 400 and "not in canonical form" in str(exc.value)
        db.submit_revision(encode_rulesheet_payload(text))
    assert len(db.log) == 1
    db.log.append(payload.encode("utf-8"))
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        [message] = [record.getMessage() for record in caplog.records]
        assert message.startswith("log entry 1 left unindexed: ") and "not in canonical form" in message
        assert reopened.get_revision(rulesheet_entry_id(text))["payload"] == encode_rulesheet_payload(text)
    finally:
        reopened.log.close()


def test_receipts_linearizable_and_consistent(db_client, identities):
    rs = parse_rulesheet("'CTR': Subject: 's' Issuer: 'i'\n", "CTR")
    publish_rulesheet(db_client, rs)
    base, inclusions = None, []
    for t in range(6):
        record, inclusion = commit_staging(identities["CTR"], rs, reader(db_client, identities), base, (), (), t)
        base = record.id
        inclusions.append(inclusion)
    indices = [i.proof.leaf_index for i in inclusions]
    assert indices == sorted(indices) and len(set(indices)) == len(indices)
    heads = [i.tree_head for i in inclusions]
    for older, newer in zip(heads, heads[1:]):
        proof = ConsistencyProof.from_obj(db_client.get_consistency(older.tree_size, newer.tree_size))
        assert verify_consistency(older.root_hash, newer.root_hash, proof)


def test_restart_rebuilds_indexes_and_root(tmp_path, identities, trust_store):
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    _, payload = sb_payload(identities)
    base = db.submit_revision(payload)["revision_id"]
    _, nxt = sb_payload(identities, supersedes=base, commit_time=2)
    db.submit_revision(nxt)
    root = db.get_log_root()["root_hash"]
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 2)
    assert reopened.get_log_root()["root_hash"] == root
    head = reopened.get_head("SB")
    assert head["chain_length"] == 2
    # double-supersede still detected after reload
    _, conflict = sb_payload(identities, supersedes=base, commit_time=3)
    with pytest.raises(SubmitError):
        reopened.submit_revision(conflict)
    reopened.log.close()


# --- HTTP wire -----------------------------------------------------------------


@pytest.fixture
def http_client(db):
    server, url = serve_db_in_thread(db)
    yield HttpLogClient(url)
    server.shutdown()
    server.server_close()


def test_http_submit_fetch_roundtrip(http_client, identities):
    record, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", ("x",))])
    receipt = http_client.submit_revision(payload)
    assert receipt["revision_id"] == record.id
    fetched, _ = fetch_verified_revision(reader(http_client, identities), record.id)
    assert fetched.claims[0].atom == GroundAtom("SB", "p", ("x",))
    head = http_client.get_head("SB")
    assert head["revision_id"] == record.id
    root = SignedTreeHead.from_obj(http_client.get_log_root())
    assert root.tree_size == 3 and SignedTreeHead.from_obj(receipt["tree_head"]) == root
    proof = InclusionProof.from_obj(receipt["inclusion_proof"])
    assert (receipt["leaf_index"], proof.tree_size) == (2, 3)
    assert verify_inclusion(root.root_hash, leaf_hash(payload.encode()), proof)


def test_reader_refuses_an_http_answer_that_is_not_json(identities, trust_store):
    """A server that answers 200 with a body that is not JSON, as a proxy's
    error page would, is a malformed answer to every read of the reader."""
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    from cyberlog.errors import LogIntegrityError

    class ErrorPage(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", "6")
            self.end_headers()
            self.wfile.write(b"<html>")

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), ErrorPage)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        reader = LogReader(HttpLogClient(f"http://127.0.0.1:{server.server_address[1]}"), trust_store, None)
        for read, what in [
            (lambda: reader.owner_head("SB"), "head of 'SB'"),
            (reader.log_root, "log root"),
            (lambda: reader.revision("ab"), "revision ab"),
        ]:
            with pytest.raises(LogIntegrityError, match=f"^malformed {what} from the claim database: JSONDecodeError"):
                read()
    finally:
        server.shutdown()
        server.server_close()


def test_http_error_mapping(http_client, identities):
    with pytest.raises(NotFoundError):
        http_client.get_head("NOBODY")
    with pytest.raises(SubmitError) as exc:
        http_client.submit_revision("garbage")
    assert exc.value.code == 400
    _, payload = sb_payload(identities)
    http_client.submit_revision(payload)
    _, dup_root = sb_payload(identities, commit_time=5)
    with pytest.raises(SubmitError) as exc:
        http_client.submit_revision(dup_root)
    assert exc.value.code == 409


def test_http_consistency_endpoint(http_client, identities):
    _, payload = sb_payload(identities)
    r1 = http_client.submit_revision(payload)
    _, nxt = sb_payload(identities, supersedes=r1["revision_id"], commit_time=2)
    r2 = http_client.submit_revision(nxt)
    h1 = SignedTreeHead.from_obj(r1["tree_head"])
    h2 = SignedTreeHead.from_obj(r2["tree_head"])
    proof = ConsistencyProof.from_obj(http_client.get_consistency(3, 4))
    assert verify_consistency(h1.root_hash, h2.root_hash, proof)


@pytest.mark.parametrize(
    "request_bytes",
    [
        b"POST /revisions HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
        b"POST /revisions HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
        b"POST /revisions HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe",
        b"GET /log/consistency?old=1 HTTP/1.1\r\n\r\n",
        b"GET /log/consistency?old=1&new=two HTTP/1.1\r\n\r\n",
    ],
    ids=[
        "malformed-length",
        "negative-length",
        "non-utf8-body",
        "consistency-missing-param",
        "consistency-non-integer",
    ],
)
def test_http_bad_request_gets_400(db, request_bytes):
    server, _url = serve_db_in_thread(db)
    try:
        assert raw_http_status(server.server_address, request_bytes) == 400
    finally:
        server.shutdown()
        server.server_close()


def test_http_inclusion_route_is_gone(db, identities):
    """An inclusion proof comes only with the entry it proves, in a submit
    receipt or a fetched revision: there is no route for one alone."""
    server, _url = serve_db_in_thread(db)
    try:
        db.submit_revision(sb_payload(identities)[1])
        assert raw_http_status(server.server_address, b"GET /log/inclusion?index=0&size=1 HTTP/1.1\r\n\r\n") == 404
    finally:
        server.shutdown()
        server.server_close()


def test_http_oversized_body_gets_413_unread(db):
    """A Content-Length above the cap is answered at once, without reading a
    body the client never sends, and nothing is logged."""
    from cyberlog.httpjson import MAX_BODY_BYTES

    server, _url = serve_db_in_thread(db)
    try:
        request = b"POST /revisions HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        assert raw_http_status(server.server_address, request) == 413
        assert len(db.log) == 2  # the rulesheets
    finally:
        server.shutdown()
        server.server_close()


def test_http_half_sent_body_is_cut_off_at_the_handler_timeout(db, monkeypatch, capfd):
    """A client that sends half its body has its connection closed when the
    handler's socket timeout expires, without a traceback, while another
    client is served meanwhile; nothing is logged."""
    import socket
    import time

    from cyberlog.httpjson import JsonRequestHandler

    assert JsonRequestHandler.timeout is not None and JsonRequestHandler.timeout > 0
    monkeypatch.setattr(JsonRequestHandler, "timeout", 0.3)
    server, _url = serve_db_in_thread(db)
    try:
        with socket.create_connection(server.server_address, timeout=5) as stalled:
            stalled.sendall(b"POST /revisions HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"{" * 50)
            started = time.monotonic()
            assert raw_http_status(server.server_address, b"GET /health HTTP/1.1\r\n\r\n") == 200
            assert stalled.recv(4096) == b""  # closed by the server, with no response
            assert time.monotonic() - started < 3
        assert len(db.log) == 2  # the rulesheets
    finally:
        server.shutdown()
        server.server_close()
    assert "Traceback" not in capfd.readouterr().err


def test_supersede_reads_owner_from_index(tmp_path, identities, trust_store, monkeypatch):
    import cyberlog.claimdb as claimdb

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    _, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    base = db.submit_revision(payload)["revision_id"]
    rulesheet = db.submit_revision(encode_rulesheet_payload(SB_SHEET))["revision_id"]
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 2)
    decoded = []
    original = claimdb.decode_payload
    monkeypatch.setattr(claimdb, "decode_payload", lambda p, *rest: decoded.append(p) or original(p, *rest))
    rs = parse_rulesheet("'MRM': Subject: 's' Issuer: 'i'\n", "MRM")
    foreign, body = build_record("MRM", base, (), rs, (), 2)
    foreign_payload = encode_payload(body, sign_record(foreign, identities["MRM"]))
    with pytest.raises(SubmitError) as exc:
        reopened.submit_revision(foreign_payload)
    assert exc.value.code == 401
    _, onto_rulesheet = sb_payload(identities, supersedes=rulesheet, commit_time=2)
    with pytest.raises(SubmitError) as exc:
        reopened.submit_revision(onto_rulesheet)
    assert exc.value.code == 400
    _, nxt = sb_payload(identities, supersedes=base, commit_time=3)
    reopened.submit_revision(nxt)
    assert decoded == [foreign_payload, onto_rulesheet, nxt]
    reopened.log.close()


def test_double_supersede_race_two_clients(db, identities):
    """Two threads race to supersede the same target; appends are serialized
    so exactly one wins and the loser gets a conflict."""
    import threading

    _, payload = sb_payload(identities)
    base = db.submit_revision(payload)["revision_id"]
    _, race_a = sb_payload(identities, supersedes=base, commit_time=10)
    _, race_b = sb_payload(identities, supersedes=base, commit_time=11)

    outcomes = {}
    barrier = threading.Barrier(2)

    def submit(tag, body):
        barrier.wait()
        try:
            outcomes[tag] = db.submit_revision(body)["revision_id"]
        except SubmitError as exc:
            outcomes[tag] = exc.code

    threads = [
        threading.Thread(target=submit, args=("a", race_a)),
        threading.Thread(target=submit, args=("b", race_b)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(v for v in outcomes.values() if v == 409) == [409]
    winners = [v for v in outcomes.values() if v != 409]
    assert len(winners) == 1
    assert db.get_head("SB")["revision_id"] == winners[0]


def test_concurrent_submits_keep_each_owners_head_claims_whole(db, identities, trust_store):
    """Four threads extend SB's chain at once, each logging the head's claims
    again plus one of its own, with the interpreter switching threads every
    microsecond: a submit decodes and checks its payload unlocked while
    another submit replaces SB's head. Every revision logged decodes to
    what was submitted, and SB's head is one of them, at the end of a
    chain of every revision logged."""
    import itertools
    import sys
    import threading

    from cyberlog.revision import decode_payload

    rs = parse_rulesheet(SB_SHEET, "SB")
    rulesheet_of, clock = rulesheets_of(rs), itertools.count(1)
    db.submit_revision(sb_payload(identities)[1])
    logged = {}

    def extend(worker):
        for i in range(15):
            head = db.get_head("SB")["revision_id"]
            claims = decode_payload(db.get_revision(head)["payload"], rulesheet_of, trust_store)[0].claims
            claims += (Claim(GroundAtom("SB", "p", (worker, i)), DirectAssertion()),)
            record, body = build_record("SB", head, (), rs, claims, next(clock))
            try:
                db.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))
                logged[record.id] = record
            except SubmitError as exc:
                assert exc.code == 409, str(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and logged
    for rev_id, record in logged.items():
        assert decode_payload(db.get_revision(rev_id)["payload"], rulesheet_of, trust_store)[0] == record
    head = db.get_head("SB")
    assert head["revision_id"] in logged and head["chain_length"] == len(logged) + 1


def test_revision_holding_another_owners_claim_refused(db, http_client, identities):
    """Nobody may make claims on someone else's behalf: a revision by SB that
    holds a claim of MRM is refused with 400, in process and over HTTP."""
    from cyberlog.errors import LogIntegrityError
    from cyberlog.revision import decode_payload

    atom = GroundAtom("MRM", "feasible_config", (7, 3))
    foreign = Claim(atom, DirectAssertion())
    record, body = build_record("SB", None, (), parse_rulesheet(SB_SHEET, "SB"), [foreign], 1)
    payload = encode_payload(body, sign_record(record, identities["SB"]))
    with pytest.raises(LogIntegrityError, match="holds a claim of 'MRM'"):
        decode_payload(payload, rulesheets_of(parse_rulesheet(SB_SHEET, "SB")), db.trust_store)
    for client in (db, http_client):
        with pytest.raises(SubmitError) as exc:
            client.submit_revision(payload)
        assert exc.value.code == 400 and "holds a claim of 'MRM'" in str(exc.value)
    assert len(db.log) == 2  # the rulesheets


def test_reopen_leaves_revision_holding_another_owners_claim_unindexed(tmp_path, identities, trust_store):
    """A log written before the ownership rule may hold a revision by SB with
    a claim of MRM. Reopening it still works; that entry is left unindexed like
    any other entry that no longer decodes, while the tree keeps its bytes."""
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    atom = GroundAtom("MRM", "feasible_config", (7, 3))
    foreign_claim = Claim(atom, DirectAssertion())
    foreign, body = build_record("SB", base.id, (), parse_rulesheet(SB_SHEET, "SB"), [foreign_claim], 2)
    db.log.append(encode_payload(body, sign_record(foreign, identities["SB"])).encode("utf-8"))
    root = db.get_log_root()
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        with pytest.raises(NotFoundError):
            reopened.get_revision(foreign.id)
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
        assert reopened.get_log_root() == root
        reopened.get_revision(base.id)
    finally:
        reopened.log.close()


# -- replay admits what a submit would have admitted --------------------------


def _unsigned(identities, base):
    """SB's successor of `base` under an all-zero signature: the payload of
    someone who can write the log file but does not hold SB's key."""
    record, body = build_record("SB", base.id, (), parse_rulesheet(SB_SHEET, "SB"), (), 2)
    return record, encode_payload(body, b"\0" * 64)


def _signed(identities, owner, supersedes, commit_time=2):
    rs = parse_rulesheet(f"'{owner}': Subject: 's' Issuer: 'i'\n", owner)
    record, body = build_record(owner, supersedes, (), rs, (), commit_time)
    return record, encode_payload(body, sign_record(record, identities[owner]))


REFUSED_ON_REPLAY = {
    "forged-signature": lambda ids, base: _unsigned(ids, base),
    "second-chain-root": lambda ids, base: _signed(ids, "SB", None, commit_time=9),
    "foreign-supersession": lambda ids, base: _signed(ids, "MRM", base.id),
    "unlogged-target": lambda ids, base: _signed(ids, "SB", "ab" * 32),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ON_REPLAY))
def test_reopen_leaves_refused_revision_unindexed(tmp_path, identities, trust_store, case):
    """A revision appended to the log file directly, which a submit would
    have refused, is left unindexed on reopen: the owner's head stays the
    genuine one, the entry's id is not found, over HTTP too (404), and the
    genuine chain can still be extended."""
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    refused, refused_payload = REFUSED_ON_REPLAY[case](identities, base)
    with pytest.raises(SubmitError):
        db.submit_revision(refused_payload)
    db.log.append(refused_payload.encode("utf-8"))
    root = db.get_log_root()
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    server, _url = serve_db_in_thread(reopened)
    try:
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
        with pytest.raises(NotFoundError):
            reopened.get_revision(refused.id)
        request = f"GET /revisions/{refused.id} HTTP/1.1\r\n\r\n".encode()
        assert raw_http_status(server.server_address, request) == 404
        assert reopened.get_log_root() == root
        _, nxt = sb_payload(identities, supersedes=base.id, commit_time=3)
        reopened.submit_revision(nxt)
        assert reopened.get_head("SB")["chain_length"] == 2
    finally:
        server.shutdown()
        server.server_close()
        reopened.log.close()


@pytest.mark.parametrize("commit_time", ["1000", True, 1.5], ids=["string", "bool", "fraction"])
def test_commit_time_that_is_not_a_json_integer_is_refused(tmp_path, identities, trust_store, commit_time):
    """An SB successor, signed by SB, whose commit time is a string, a
    boolean or a fraction is refused at submit; appended to the log file
    and indexed directly, a reader refuses it, and on reopen it is left
    unindexed, the genuine head staying SB's head."""
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    bad, bad_payload = sb_payload(identities, supersedes=base.id, commit_time=commit_time)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(bad_payload)
    assert exc.value.code == 400
    db._index_revision(bad, db.log.append(bad_payload.encode("utf-8")))  # a log that skipped the check
    with pytest.raises(LogIntegrityError, match=f"commit_time must be an integer, not {commit_time!r}"):
        reader(db, identities).revision(bad.id)
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        with pytest.raises(NotFoundError):
            reopened.get_revision(bad.id)
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
    finally:
        reopened.log.close()


@pytest.mark.parametrize("includes", ['"ab"', '{"ab":"cd"}'], ids=["string", "object"])
def test_includes_that_are_not_a_json_list_are_refused(tmp_path, identities, trust_store, includes):
    """An SB successor, signed by SB, whose includes are a JSON string or
    object, which a reader would once have taken as a tuple of the string's
    letters or of the object's keys, is refused at submit; appended to the
    log file and indexed directly, a reader refuses it, and on reopen it is
    left unindexed, the genuine head staying SB's head."""
    import hashlib
    from dataclasses import replace

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    record, body = build_record("SB", base.id, (), parse_rulesheet(SB_SHEET, "SB"), (), 2)
    body = body.replace('"includes":[]', f'"includes":{includes}')
    bad = replace(record, id=hashlib.sha256(body.encode("utf-8")).hexdigest())
    bad_payload = encode_payload(body, sign_record(bad, identities["SB"]))
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(bad_payload)
    assert exc.value.code == 400 and "includes a list of strings" in str(exc.value)
    db._index_revision(bad, db.log.append(bad_payload.encode("utf-8")))  # a log that skipped the check
    with pytest.raises(LogIntegrityError, match="includes a list of strings"):
        reader(db, identities).revision(bad.id)
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        with pytest.raises(NotFoundError):
            reopened.get_revision(bad.id)
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
    finally:
        reopened.log.close()


def test_reopen_without_an_owners_key_leaves_its_revisions_unindexed(tmp_path, identities, trust_store):
    from cyberlog.identity import TrustStore

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities)
    db.submit_revision(payload)
    mrm, mrm_payload = _signed(identities, "MRM", None)
    db.submit_revision(mrm_payload)
    db.log.close()

    without_sb = TrustStore.from_identities(i for name, i in identities.items() if name != "SB")
    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], without_sb, clock=lambda: 1)
    try:
        with pytest.raises(NotFoundError):
            reopened.get_head("SB")
        with pytest.raises(NotFoundError):
            reopened.get_revision(base.id)
        assert reopened.get_head("MRM")["revision_id"] == mrm.id
    finally:
        reopened.log.close()


def test_reopen_of_a_genuine_log_keeps_heads_and_chain_lengths(tmp_path):
    import os

    from cyberlog.harness import ScenarioRun, load_scenario

    scenario = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", "uav_booking.jsonl"))
    path = str(tmp_path / "claims.log")
    run = ScenarioRun(scenario, log_path=path)
    assert run.run().passed
    heads = {name: run.client.get_head(name) for name in run.monitors}
    run.close()
    assert all(head["chain_length"] > 1 for head in heads.values())

    reopened = ClaimDb(MerkleLog(path), run.operator, run.trust_store)
    try:
        assert {name: reopened.get_head(name) for name in run.monitors} == heads
    finally:
        reopened.log.close()


def test_reopen_warns_of_each_entry_it_leaves_unindexed(tmp_path, caplog):
    """One changed byte in MRM's second revision leaves that entry, and
    every later revision of MRM, unindexed, with one warning each naming
    the entry's index and the reason it was refused."""
    import os

    from cyberlog.errors import SignatureError
    from cyberlog.harness import ScenarioEvent, ScenarioRun, load_scenario
    from cyberlog.monitor import EventEnvelope
    from cyberlog.revision import decode_payload

    scenario = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", "uav_booking.jsonl"))
    # an MRM event in a second commit window: an unchanged commit logs
    # nothing, so the booking alone gives MRM a chain of two
    env = EventEnvelope("POST", "/feasibleconfig", '{"request_id": 8, "aircraft_id": 3}', 1200)
    scenario.events.append(ScenarioEvent(env.timestamp_ms, "MRM", env))
    path = str(tmp_path / "claims.log")
    run = ScenarioRun(scenario, log_path=path)
    assert run.run().passed
    chain_length = run.client.get_head("MRM")["chain_length"]
    log = run.db.log
    mrm = [i for i in range(len(log)) if log.payload(i).startswith(b'{"kind":"revision","owner":"MRM"')]
    run.close()
    assert len(mrm) == chain_length > 2
    # the second revision's last signature digit, changed: it decodes, but
    # its owner's signature no longer verifies
    offset = sum(4 + len(log.payload(i)) for i in range(mrm[1] + 1)) - len('"}') - 1
    with open(path, "r+b") as fh:
        fh.seek(offset)
        digit = fh.read(1)
        fh.seek(offset)
        fh.write(b"1" if digit == b"0" else b"0")
    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), run.operator, run.trust_store)
    try:
        assert reopened.get_head("MRM")["chain_length"] == 1
        with pytest.raises(SignatureError, match="^bad signature on revision by 'MRM'$"):
            decode_payload(reopened.log.payload(mrm[1]).decode("utf-8"), LogReader(reopened, run.trust_store, None), run.trust_store)
    finally:
        reopened.log.close()
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == chain_length - 1
    assert messages[0] == f"log entry {mrm[1]} left unindexed: bad signature on revision by 'MRM'"
    for index, message in zip(mrm[2:], messages[1:]):
        assert message.startswith(f"log entry {index} left unindexed: supersedes target ")
        assert message.endswith(" is not a logged revision")


# -- the log holds canonical revisions only ----------------------------------

INCLUDES = ("1" * 64, "2" * 64)


def signed_body(identities, body: str) -> str:
    """The payload of `body` signed by SB over the SHA-256 of its bytes, the
    id every reader computes, so only the form of the body is at fault."""
    import hashlib

    from cyberlog.identity import sign_bytes

    return encode_payload(body, sign_bytes(identities["SB"], hashlib.sha256(body.encode("utf-8")).digest()))


def canonical_body(identities):
    atoms = [GroundAtom("SB", "p", (7,)), GroundAtom("SB", "q", ("x",))]
    claims = [Claim(atom, DirectAssertion()) for atom in atoms]
    return build_record("SB", None, INCLUDES, parse_rulesheet(SB_SHEET, "SB"), claims, 1)[1]


def reversed_list(body: str, key: str) -> str:
    import json

    obj = json.loads(body)
    obj[key].reverse()
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


DIRECT = '{"kind":"direct_assertion"}'

NON_CANONICAL = {
    "whitespace": lambda b: b.replace('"owner":"SB"', '"owner": "SB"'),
    "unsorted-claims": lambda b: reversed_list(b, "claims"),
    "unsorted-includes": lambda b: reversed_list(b, "includes"),
    "repeated-include": lambda b: b.replace(f'"{INCLUDES[1]}"', f'"{INCLUDES[0]}"'),
    "atom-text": lambda b: b.replace("p(7)", "p(007)"),
    "duplicate-key": lambda b: b.replace('"owner":"SB"', '"owner":"SB","owner":"SB"'),
    "nested-duplicate-key": lambda b: b.replace(DIRECT, DIRECT[:-1] + ',"kind":"direct_assertion"}', 1),
    "extra-key": lambda b: b.replace('"commit_time":1', '"commit_time":1,"note":""'),
}


@pytest.mark.parametrize("form", sorted(NON_CANONICAL))
def test_non_canonical_revision_refused_with_400(db, http_client, identities, form):
    """A revision is logged only in the canonical form `build_record` gives
    for its fields, whatever it is signed over."""
    from cyberlog.revision import decode_payload

    body = canonical_body(identities)
    mutated = NON_CANONICAL[form](body)
    assert mutated != body
    payload = signed_body(identities, mutated)
    rulesheet_of = rulesheets_of(parse_rulesheet(SB_SHEET, "SB"))
    # a revision names its claims by strictly increasing atoms, and an atom's
    # arguments are JSON integers and strings, for readers too
    refusals = {"unsorted-claims": "do not strictly increase", "atom-text": "bad canonical atom"}
    if form in refusals:
        with pytest.raises(LogIntegrityError, match=refusals[form]):
            decode_payload(payload, rulesheet_of, db.trust_store)
    else:
        decode_payload(payload, rulesheet_of, db.trust_store)  # well-formed, only not canonical
    for client in (db, http_client):
        with pytest.raises(SubmitError) as exc:
            client.submit_revision(payload)
        assert exc.value.code == 400, str(exc.value)
    assert len(db.log) == 2  # the rulesheets
    db.submit_revision(signed_body(identities, body))  # the canonical form is logged


def test_non_canonical_signature_hex_refused_with_400(db, identities):
    payload = signed_body(identities, canonical_body(identities))
    head, signature = payload[:-130], payload[-130:-2]
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(head + signature.upper() + '"}')
    assert exc.value.code == 400 and "not a revision record" in str(exc.value)


@pytest.mark.parametrize("form", ["whitespace", "duplicate-key", "atom-text"])
def test_reopen_leaves_non_canonical_revision_unindexed(tmp_path, identities, trust_store, form):
    """A non-canonical revision appended to the log file directly is left
    unindexed when the log is reopened: its byte hash is not found, and the
    canonical entries around it are indexed as before."""
    import hashlib

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    body = NON_CANONICAL[form](canonical_body(identities)).replace('"supersedes":null', f'"supersedes":"{base.id}"')
    db.log.append(signed_body(identities, body).encode("utf-8"))
    rulesheet = db.submit_revision(encode_rulesheet_payload(SB_SHEET))["revision_id"]
    root = db.get_log_root()
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        with pytest.raises(NotFoundError):
            reopened.get_revision(hashlib.sha256(body.encode("utf-8")).hexdigest())
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
        assert reopened.get_log_root() == root
        reopened.get_revision(rulesheet)
    finally:
        reopened.log.close()


def test_log_inclusion_evidence_refused_at_submit_and_on_replay(tmp_path, identities, trust_store):
    """Inclusion evidence is not a wire kind: a revision whose claim carries
    it is refused with 400 at submit, and left unindexed on reopen."""
    from cyberlog.claimlog import sign_tree_head
    from cyberlog.wire import canonical_json

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    inclusion = {
        "kind": "log_inclusion",
        "revision_id": base.id,
        "leaf_hash": leaf_hash(payload.encode()).hex(),
        "proof": db.log.prove_inclusion(0, 1).to_obj(),
        "tree_head": sign_tree_head(db.log, identities[OPERATOR], 1).to_obj(),
    }
    body = canonical_body(identities).replace('"supersedes":null', f'"supersedes":"{base.id}"')
    body = body.replace(DIRECT, canonical_json(inclusion), 1)
    forged = signed_body(identities, body)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(forged)
    assert exc.value.code == 400 and "unknown evidence kind 'log_inclusion'" in str(exc.value)
    db.log.append(forged.encode("utf-8"))
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
    finally:
        reopened.log.close()


@pytest.mark.parametrize(
    "logged",
    [{"signer": "SB"}, {"signature": "ab" * 64}, {"signer": "SB", "signature": "ab" * 64}],
    ids=["signer", "signature", "signer-and-signature"],
)
def test_direct_assertion_logging_a_signer_or_signature_refused_at_submit_and_on_replay(
    tmp_path, identities, trust_store, caplog, logged
):
    """A direct assertion logs its kind only: its signer is its atom's
    principal and its signature the revision's. One that logs a signer or a
    signature, signed over its body as any revision, is refused with 400 at
    submit and left unindexed, with one warning, on replay."""
    import hashlib

    from cyberlog.wire import canonical_json

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    body = canonical_body(identities).replace(DIRECT, canonical_json({"kind": "direct_assertion", **logged}), 1)
    payload = signed_body(identities, body)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(payload)
    assert exc.value.code == 400 and "direct assertion logs more than its kind" in str(exc.value)
    db.log.append(payload.encode("utf-8"))
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        [message] = [record.getMessage() for record in caplog.records]
        assert message.startswith("log entry 2 left unindexed: ") and "logs more than its kind" in message
        with pytest.raises(NotFoundError):
            reopened.get_revision(hashlib.sha256(body.encode("utf-8")).hexdigest())
        with pytest.raises(NotFoundError):
            reopened.get_head("SB")
    finally:
        reopened.log.close()


def test_revision_holding_two_claims_of_one_atom_refused_everywhere(tmp_path, identities, trust_store, caplog):
    """A claim is named by its atom, so a revision holds one claim per atom,
    in strictly increasing atom order. One that holds two claims of one
    atom, signed as any revision, is refused with 400 at submit, left
    unindexed with one warning on replay, and refused by a reader to which
    a claim DB that lies serves it."""
    import hashlib

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    atom = GroundAtom("SB", "p", (7,))
    record, payload = sb_payload(identities, atoms=(atom, atom))
    assert len(record.claims) == 2
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(payload)
    assert exc.value.code == 400 and "do not strictly increase" in str(exc.value)
    index = db.log.append(payload.encode("utf-8"))
    db._index_revision(record, index)  # as a claim DB that lies would
    with pytest.raises(LogIntegrityError, match="do not strictly increase"):
        fetch_verified_revision(reader(db, identities), record.id)
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        [message] = [entry.getMessage() for entry in caplog.records]
        assert message.startswith("log entry 2 left unindexed: ") and "do not strictly increase" in message
        body = payload[len('{"kind":"revision",') : payload.index(',"signature":')]
        with pytest.raises(NotFoundError):
            reopened.get_revision(hashlib.sha256(("{" + body + "}").encode("utf-8")).hexdigest())
        with pytest.raises(NotFoundError):
            reopened.get_head("SB")
    finally:
        reopened.log.close()


# -- evidence logs only what a reader cannot recompute -----------------------

RETAIN_SHEET = (
    "'SB': Subject: 's' Issuer: 'i'\n"
    "verdict(Id) :- request(Id, Data, T).\n"
    "next request(Id, Data, T) :- request(Id, Data, T), in_process(Id).\n"
)
REQUEST = GroundAtom("SB", "request", (7, "d", 5))


def retained(identities, supersedes=None):
    """SB's body of a chain root holding `request(7,"d",5)` and
    `in_process(7)`, or, over `supersedes`, of a revision holding the
    request carried and `verdict(7)` derived from it; with its record."""
    from cyberlog.engine import CarriedByNextRule, DerivedByRule

    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    verdict, carry = rs.rules
    if supersedes is None:
        atoms = (REQUEST, GroundAtom("SB", "in_process", (7,)))
        claims = [Claim(a, DirectAssertion()) for a in atoms]
    else:
        substitution = {"Id": 7, "Data": "d", "T": 5}
        claims = [
            Claim(REQUEST, CarriedByNextRule(carry, substitution)),
            Claim(GroundAtom("SB", "verdict", (7,)), DerivedByRule(verdict, substitution)),
        ]
    record, body = build_record("SB", supersedes, (), rs, claims, 1 if supersedes is None else 2)
    return record, body


CARRIED_EVIDENCE = '"kind":"carried_by_next_rule","rule":1'
DERIVED_SUBSTITUTION = '"substitution":{"Data":"d","T":5}'
# the SHA-256 of the canonical text of `request(7,"d",5)`, which named it as
# a premise before premises were named by their atoms
REQUEST_ID = "b5c60aa5f854c5ba7a25aaf62f8dd1c2025df284a6eac63e4a7933753813cda7"

# a field a reader recomputes, logged all the same
RECOMPUTED_FIELD = {
    "empty-substitution": lambda b, _base: b.replace(CARRIED_EVIDENCE, CARRIED_EVIDENCE + ',"substitution":{}'),
    "head-bound-name": lambda b, _base: b.replace(DERIVED_SUBSTITUTION, '"substitution":{"Data":"d","Id":7,"T":5}'),
    "head-bound-name-wrong-value": lambda b, _base: b.replace(
        DERIVED_SUBSTITUTION, '"substitution":{"Data":"d","Id":8,"T":5}'
    ),
    "premises": lambda b, _base: b.replace(DERIVED_SUBSTITUTION, DERIVED_SUBSTITUTION + f',"premises":["{REQUEST_ID}"]'),
    "source-revision": lambda b, base: b.replace(CARRIED_EVIDENCE, CARRIED_EVIDENCE + f',"source_revision":"{base}"'),
}


@pytest.mark.parametrize("form", sorted(RECOMPUTED_FIELD))
def test_logged_recomputable_evidence_field_refused_with_400(db, http_client, identities, form):
    """A rule instance logs no substitution entry of a bare head variable,
    right or wrong, and no empty substitution; a carried claim logs no
    source revision, and a derived claim no premises. Each decodes, and is
    refused as non-canonical."""
    from cyberlog.revision import decode_payload

    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    publish_rulesheet(db, rs)
    base, body = retained(identities)
    db.submit_revision(signed_body(identities, body))
    record, body = retained(identities, base.id)
    assert CARRIED_EVIDENCE + "}" in body and DERIVED_SUBSTITUTION in body
    mutated = RECOMPUTED_FIELD[form](body, base.id)
    assert mutated != body
    payload = signed_body(identities, mutated)
    decoded, _signature, _rs = decode_payload(payload, rulesheets_of(rs), db.trust_store)
    assert decoded.claims[0] == record.claims[0]  # the carried request, source `base`
    for client in (db, http_client):
        with pytest.raises(SubmitError) as exc:
            client.submit_revision(payload)
        assert exc.value.code == 400 and "not in canonical form" in str(exc.value)
    assert len(db.log) == 4  # three rulesheets and `base`
    db.submit_revision(signed_body(identities, body))


# a logged substitution that binds more than its rule's variables to ground terms
BAD_SUBSTITUTION = {
    "unknown-key": '"substitution":{"Data":"d","T":5,"Z":1}',
    "float": '"substitution":{"Data":5.5,"T":5}',
    "bool": '"substitution":{"Data":true,"T":5}',
    "list": '"substitution":{"Data":["d"],"T":5}',
}


@pytest.mark.parametrize("form", sorted(BAD_SUBSTITUTION))
def test_substitution_binding_other_than_rule_variables_to_terms_refused(tmp_path, identities, trust_store, caplog, form):
    """A derived claim's logged substitution binds only variables of its
    rule, each to an integer or a string: one binding another name, or a
    variable to a fraction, a boolean or a list, is refused with 400 at
    submit; appended to the log file and indexed directly, a reader refuses
    it, a watcher warns and keeps its KB, and on reopen it is left
    unindexed, the genuine head staying SB's head."""
    import hashlib
    import itertools
    from dataclasses import replace

    from cyberlog.monitor import Monitor

    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    publish_rulesheet(db, rs)
    base, body = retained(identities)
    db.submit_revision(signed_body(identities, body))
    watcher_sheet = parse_rulesheet("'DOM': Subject: 's' Issuer: 'i'\n" + SB_SHEET, "DOM")
    operator_key = identities[OPERATOR].public_key
    clock = itertools.count(1000, 1000).__next__
    dom = Monitor(identities["DOM"], watcher_sheet, db, trust_store, operator_key, ("SB",), clock)
    assert dom.poll_and_include() == [base.id]
    kb = dict(dom.kb.claims)

    record, body = retained(identities, base.id)
    body = body.replace(DERIVED_SUBSTITUTION, BAD_SUBSTITUTION[form])
    payload = signed_body(identities, body)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(payload)
    assert exc.value.code == 400 and "binds more than rule variables" in str(exc.value)
    bad = replace(record, id=hashlib.sha256(body.encode("utf-8")).hexdigest())
    db._index_revision(bad, db.log.append(payload.encode("utf-8")))  # a log that skipped the check
    with pytest.raises(LogIntegrityError, match="binds more than rule variables"):
        reader(db, identities).revision(bad.id)
    with caplog.at_level("WARNING", logger="cyberlog.monitor"):
        assert dom.poll_and_include() == []
    [message] = [entry.getMessage() for entry in caplog.records]
    assert "poll of SB refused" in message and "binds more than rule variables" in message
    assert dict(dom.kb.claims) == kb
    db.log.close()

    reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        with pytest.raises(NotFoundError):
            reopened.get_revision(bad.id)
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
    finally:
        reopened.log.close()


# SB's chain root and its successor from `retained`, as the encoder wrote
# them before evidence left out what a reader recomputes (commit a7ce73f).
# The root's direct assertions log their signer and a signature over the
# atom's text; the successor logs the carried request's source revision,
# every head-bound substitution entry and the text of each rule.
EARLIER_ROOT = (
    '{"kind":"revision","owner":"SB","supersedes":null,"includes":[],'
    '"rulesheet_hash":"b17aacc91841ef621a740b892f79c70c5daacf8ff1f3092e3e0451f5e3597fa5",'
    '"claims":[{"atom":"\\"SB\\"|in_process(7)","evidence":{"kind":"direct_assertion","signer":"SB",'
    '"signature":"e43c4f3ca6001236e523c8e41414c57181fb580c2b1a45a0bbce0dc5fe7cf18a'
    '4e63efa9a5837fa60a16a6ab7d21c659710708c7bd38b321972ad7903e026b01"}},'
    '{"atom":"\\"SB\\"|request(7,\\"d\\",5)","evidence":{"kind":"direct_assertion","signer":"SB",'
    '"signature":"8afc385546f230a25ee1a78ec6e250d10447e5187790e33e178d8ff8f5653f81'
    '17580e76440731e23f1ed07261b804fb162af067d7f8ac52cd0c0c46f9f69e03"}}],"commit_time":1,'
    '"signature":"6f16c458af6d3605c33c0253f10102ab504309ddb8d79ca55bb0cb85a74b8cf2'
    '7a9c5793b4185a8873040dae658bee8fd0e34f0b75655e6315bc64da4e9a0803"}'
)
EARLIER_SUCCESSOR = (
    '{"kind":"revision","owner":"SB","supersedes":"1b9d600ddc9b97d043a0f642221f085e272fad72a3f8c201ec211113d2d60ade",'
    '"includes":[],"rulesheet_hash":"b17aacc91841ef621a740b892f79c70c5daacf8ff1f3092e3e0451f5e3597fa5",'
    '"claims":[{"atom":"\\"SB\\"|request(7,\\"d\\",5)","evidence":{"kind":"carried_by_next_rule",'
    '"rule":"next \'SB\' attests request(Id, Data, T) :- \'SB\' attests request(Id, Data, T), '
    '\'SB\' attests in_process(Id).","substitution":{"Data":"d","Id":7,"T":5},'
    '"source_revision":"1b9d600ddc9b97d043a0f642221f085e272fad72a3f8c201ec211113d2d60ade"}},'
    '{"atom":"\\"SB\\"|verdict(7)","evidence":{"kind":"derived_by_rule",'
    '"rule":"\'SB\' attests verdict(Id) :- \'SB\' attests request(Id, Data, T).",'
    '"substitution":{"Data":"d","Id":7,"T":5},'
    '"premises":["b5c60aa5f854c5ba7a25aaf62f8dd1c2025df284a6eac63e4a7933753813cda7"]}}],"commit_time":2,'
    '"signature":"6bd084e4be689a7ae307f15b56abcc2d37ead188652bb2aa7ac375b235fee489'
    '896154a163c10486a35a2a250956b50148948548b9a12f7d00917fe4050a160e"}'
)


# The same successor as the encoder wrote it before rules were named by
# index (commit 42ac9d6): each rule instance logs its rule's text.
RULE_TEXT_SUCCESSOR = (
    '{"kind":"revision","owner":"SB","supersedes":"1b9d600ddc9b97d043a0f642221f085e272fad72a3f8c201ec211113d2d60ade",'
    '"includes":[],"rulesheet_hash":"b17aacc91841ef621a740b892f79c70c5daacf8ff1f3092e3e0451f5e3597fa5",'
    '"claims":[{"atom":"\\"SB\\"|request(7,\\"d\\",5)","evidence":{"kind":"carried_by_next_rule",'
    '"rule":"next \'SB\' attests request(Id, Data, T) :- \'SB\' attests request(Id, Data, T), '
    '\'SB\' attests in_process(Id)."}},'
    '{"atom":"\\"SB\\"|verdict(7)","evidence":{"kind":"derived_by_rule",'
    '"rule":"\'SB\' attests verdict(Id) :- \'SB\' attests request(Id, Data, T).",'
    '"substitution":{"Data":"d","T":5},'
    '"premises":["b5c60aa5f854c5ba7a25aaf62f8dd1c2025df284a6eac63e4a7933753813cda7"]}}],"commit_time":2,'
    '"signature":"fa6d7ae8e0096e29ca8db5268928fce6acf9e2bbbbf943320bf0dddeec58c6b3'
    '320bfd7dd830c325163d7a8b1e89edfb4694c7ece6c20ea26b03d7c54bad7c02"}'
)


# The same successor as the encoder wrote it before premises were named by
# their atoms (commit d73d82f): the derived claim logs its premise's id.
PREMISE_ID_SUCCESSOR = (
    '{"kind":"revision","owner":"SB","supersedes":"1b9d600ddc9b97d043a0f642221f085e272fad72a3f8c201ec211113d2d60ade",'
    '"includes":[],"rulesheet_hash":"b17aacc91841ef621a740b892f79c70c5daacf8ff1f3092e3e0451f5e3597fa5",'
    '"claims":[{"atom":"\\"SB\\"|request(7,\\"d\\",5)","evidence":{"kind":"carried_by_next_rule","rule":1}},'
    '{"atom":"\\"SB\\"|verdict(7)","evidence":{"kind":"derived_by_rule","rule":0,"substitution":{"Data":"d","T":5},'
    '"premises":["b5c60aa5f854c5ba7a25aaf62f8dd1c2025df284a6eac63e4a7933753813cda7"]}}],"commit_time":2,'
    '"signature":"2112a799eee39d691a7ca84e32f5064a3e51d71adbd5f4472333c86af2fb75d4'
    'e83a12857f0321434a9472a20b3a467570d338a66f90b94e4c1b746e1306940b"}'
)


def test_earlier_wire_format_refused_at_submit_and_on_replay(tmp_path, identities, trust_store, caplog):
    """Logs written before the change do not verify: each earlier encoding
    of a revision, whose direct assertions log a signer and a signature and
    whose rule instances log rule texts or premise ids, is refused with 400
    at submit and left unindexed, with one warning, on replay."""
    import hashlib

    base, body = retained(identities)
    root = signed_body(identities, body)
    assert root != EARLIER_ROOT and root.count(DIRECT) == 2
    rule_text = "malformed revision record: rule reference \"next 'SB' attests request"
    earlier_forms = [
        (EARLIER_ROOT, "malformed revision record: direct assertion logs more than its kind: ['kind', 'signature', 'signer']"),
        (EARLIER_SUCCESSOR, rule_text),
        (RULE_TEXT_SUCCESSOR, rule_text),
        (PREMISE_ID_SUCCESSOR, "not in canonical form"),
    ]
    for n, (earlier, refusal) in enumerate(earlier_forms):
        path = str(tmp_path / f"db{n}.log")
        db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
        publish_rulesheet(db, parse_rulesheet(RETAIN_SHEET, "SB"))
        db.submit_revision(root)
        with pytest.raises(SubmitError) as exc:
            db.submit_revision(earlier)
        assert exc.value.code == 400 and refusal in str(exc.value)
        db.log.append(earlier.encode("utf-8"))
        db.log.close()

        caplog.clear()
        with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
            reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
        try:
            [message] = [record.getMessage() for record in caplog.records]
            assert message.startswith("log entry 4 left unindexed: ") and refusal in message
            assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
            body = earlier[len('{"kind":"revision",') : earlier.index(',"signature":')]
            with pytest.raises(NotFoundError):
                reopened.get_revision(hashlib.sha256(("{" + body + "}").encode("utf-8")).hexdigest())
        finally:
            reopened.log.close()


def test_carried_claim_in_a_chain_root_refused_at_submit_and_on_replay(tmp_path, identities, trust_store, caplog):
    """A carried claim's source is the revision its record supersedes, so a
    chain root cannot hold one: 400 at submit, and on replay one warning
    and the entry left unindexed."""
    from cyberlog.engine import CarriedByNextRule

    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    carried = Claim(REQUEST, CarriedByNextRule(rs.rules[1], {"Id": 7, "Data": "d", "T": 5}))
    record, body = build_record("SB", None, (), rs, [carried], 1)
    payload = encode_payload(body, sign_record(record, identities["SB"]))
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    publish_rulesheet(db, rs)
    refusal = 'carried claim "SB"|request(7,"d",5) in a revision that supersedes none'
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(payload)
    assert exc.value.code == 400 and refusal in str(exc.value)
    db.log.append(payload.encode("utf-8"))
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 1 and messages[0].startswith("log entry 3 left unindexed: ")
        assert refusal in messages[0]
        with pytest.raises(NotFoundError):
            reopened.get_head("SB")
    finally:
        reopened.log.close()


# -- evidence names rules of the rulesheet its revision names -----------------

APPROVED = GroundAtom("SB", "approved", (7,))


def _unlogged_rulesheet():
    return parse_rulesheet("'SB': Subject: 'another' Issuer: 'i'\n", "SB")


# a rulesheet whose one rule attests for MRM: it parses for MRM, not for SB
FOREIGN_SHEET = SB_SHEET + MRM_SHEET + "'MRM' attests p(1).\n"


def naming(identities, text, supersedes=None, commit_time=1):
    """SB's signed revision, with no claims, that names the rulesheet
    `text` by its hash, whatever the text holds."""
    rs = parse_rulesheet(SB_SHEET, "SB")
    _record, body = build_record("SB", supersedes, (), rs, (), commit_time)
    return signed_body(identities, body.replace(rs.source_hash.hex(), rulesheet_entry_id(text)))


DERIVED_EVIDENCE = '"kind":"derived_by_rule","rule":0'

# a successor of SB's `retained` root that a submit refuses with 400: a
# rule reference that is not an index of a rule of its kind, or a rulesheet
# that is not logged or does not parse for SB
REFUSED_RULE_REFERENCE = {
    **{
        f"rule-{name}": lambda b, ref=ref: b.replace(DERIVED_EVIDENCE, f'"kind":"derived_by_rule","rule":{ref}')
        for name, ref in [("string", '"0"'), ("bool", "true"), ("float", "0.0"), ("negative", "-1"), ("out-of-range", "2")]
    },
    "rule-of-the-other-kind": lambda b: b.replace(DERIVED_EVIDENCE, '"kind":"derived_by_rule","rule":1'),
}
REFUSED_RULESHEET = ("unlogged-rulesheet", "rulesheet-not-parsing-for-owner", "revision-named-as-rulesheet")


def _refused_successor(db, identities, case):
    """SB's root from `retained`, submitted, and the successor payload of
    `case`, with the reason a submit gives for refusing it."""
    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    publish_rulesheet(db, rs)
    base, body = retained(identities)
    db.submit_revision(signed_body(identities, body))
    if case in REFUSED_RULE_REFERENCE:
        _record, body = retained(identities, base.id)
        mutated = REFUSED_RULE_REFERENCE[case](body)
        assert mutated != body
        reason = "derived_by_rule names rule 1, a next rule" if case == "rule-of-the-other-kind" else "not an index"
        return base, signed_body(identities, mutated), reason
    if case == "revision-named-as-rulesheet":
        body = retained(identities, base.id)[1].replace(base.rulesheet_hash, base.id)
        return base, signed_body(identities, body), f"rulesheet {base.id} is not logged"
    if case == "rulesheet-not-parsing-for-owner":
        db.submit_revision(encode_rulesheet_payload(FOREIGN_SHEET))
        return base, naming(identities, FOREIGN_SHEET, base.id, 2), "non-self head"
    record, body = build_record("SB", base.id, (), _unlogged_rulesheet(), (), 2)
    return base, encode_payload(body, sign_record(record, identities["SB"])), "is not logged"


@pytest.mark.parametrize("case", sorted(REFUSED_RULE_REFERENCE) + sorted(REFUSED_RULESHEET))
def test_rule_reference_or_rulesheet_refused_at_submit_and_on_replay(tmp_path, identities, trust_store, caplog, case):
    """A revision whose rule instances do not name rules of its owner's
    logged rulesheet, by an index of a rule of their kind, is refused with
    400 at submit, and left unindexed with one warning on replay."""
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload, reason = _refused_successor(db, identities, case)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(payload)
    assert exc.value.code == 400 and reason in str(exc.value), str(exc.value)
    index = db.log.append(payload.encode("utf-8"))
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        [message] = [record.getMessage() for record in caplog.records]
        assert message.startswith(f"log entry {index} left unindexed: ") and reason in message
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
    finally:
        reopened.log.close()


def test_rulesheet_is_read_for_a_trusted_owner_once_per_revision(db, identities, monkeypatch):
    """A revision by an owner outside the trust store is refused with 401
    before the database looks up or parses the rulesheet it names. A trusted
    owner's revision resolves its rulesheet once, from the text kept when
    the rulesheet was logged, without decoding its payload again."""
    import cyberlog.claimdb as claimdb
    from cyberlog.identity import generate_identity

    resolved, decoded = [], []
    parse, decode = claimdb.parse_rulesheet, claimdb.decode_rulesheet_payload
    monkeypatch.setattr(claimdb, "parse_rulesheet", lambda text, owner: resolved.append(owner) or parse(text, owner))
    monkeypatch.setattr(claimdb, "decode_rulesheet_payload", lambda payload: decoded.append(payload) or decode(payload))
    stranger = generate_identity("EVE", seed=bytes(32))
    record, body = build_record("EVE", None, (), parse_rulesheet(SB_SHEET, "SB"), (), 1)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(encode_payload(body, sign_record(record, stranger)))
    assert exc.value.code == 401 and "unknown owner 'EVE'" in str(exc.value)
    assert resolved == []
    _record, payload = sb_payload(identities, atoms=[GroundAtom("SB", "p", (1,))])
    db.submit_revision(payload)
    assert resolved == ["SB"] and decoded == []


@pytest.mark.parametrize("signer", ["unsigned", "MRM"])
def test_revision_not_signed_by_its_trusted_owner_is_refused_before_its_rulesheet_is_read(
    db, identities, monkeypatch, signer
):
    """The owner's signature covers the record id, which is known before
    any claim decodes: a revision under SB's name with an all-zero
    signature, or MRM's, is refused with 401 without the database parsing
    the rulesheet it names."""
    import cyberlog.claimdb as claimdb

    resolved = []
    parse = claimdb.parse_rulesheet
    monkeypatch.setattr(claimdb, "parse_rulesheet", lambda text, owner: resolved.append(owner) or parse(text, owner))
    record, body = build_record("SB", None, (), parse_rulesheet(SB_SHEET, "SB"), (), 1)
    signature = bytes(64) if signer == "unsigned" else sign_record(record, identities[signer])
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(encode_payload(body, signature))
    assert exc.value.code == 401 and "bad signature on revision by 'SB'" in str(exc.value)
    assert resolved == []
    with pytest.raises(NotFoundError):
        db.get_head("SB")


def test_rulesheet_not_parsing_for_its_owner_is_parsed_once(db, identities, monkeypatch):
    """Every revision naming a logged rulesheet that does not parse for its
    owner is refused with 400, and the text is parsed once, not once per
    revision, so short revisions cannot make the database parse a long
    logged text again and again."""
    import cyberlog.lang as lang

    foreign = SB_SHEET + MRM_SHEET + "'MRM' attests parsed_once(1).\n"
    db.submit_revision(encode_rulesheet_payload(foreign))
    payloads = [naming(identities, foreign, commit_time=commit_time) for commit_time in (1, 2, 3)]
    parses = []
    parser = lang._Parser
    monkeypatch.setattr(lang, "_Parser", lambda tokens, owner: parses.append(owner) or parser(tokens, owner))
    lang._parse_rulesheet.cache_clear()
    for payload in payloads:
        with pytest.raises(SubmitError) as exc:
            db.submit_revision(payload)
        assert exc.value.code == 400 and "non-self head" in str(exc.value)
    assert parses == ["SB"]


def test_rule_outside_the_published_rulesheet_cannot_be_logged(db, identities, trust_store):
    """SB derives `approved(7)` by a rule in no rulesheet it published. The
    claim has no wire form under SB's logged rulesheet, naming a published
    rule whose head does not give the claim is refused, and so is the rule's
    text; the Auditor then finds no such claim in SB's head."""
    from cyberlog.audit import Auditor
    from cyberlog.engine import DerivedByRule
    from cyberlog.errors import EvidenceError

    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    publish_rulesheet(db, rs)
    base, body = retained(identities)
    db.submit_revision(signed_body(identities, body))
    outside = parse_rulesheet(SB_SHEET + "approved(Id) :- request(Id, Data, T).\n", "SB").rules[0]
    approved = Claim(APPROVED, DerivedByRule(outside, {"Id": 7, "Data": "d", "T": 5}))
    with pytest.raises(EvidenceError, match="not a standard rule of the rulesheet"):
        build_record("SB", base.id, (), rs, [approved], 2)
    verdict = Claim(GroundAtom("SB", "verdict", (7,)), DerivedByRule(rs.rules[0], {"Id": 7, "Data": "d", "T": 5}))
    _record, body = build_record("SB", base.id, (), rs, [verdict], 2)
    as_text = '"rule":"\'SB\' attests approved(Id) :- \'SB\' attests request(Id, Data, T)."'
    for forged, reason in [
        (body.replace('"SB\\"|verdict(7)', '"SB\\"|approved(7)'), "rule head does not bind the claim"),
        (body.replace('"rule":0', as_text), "not an index"),
    ]:
        with pytest.raises(SubmitError) as exc:
            db.submit_revision(signed_body(identities, forged))
        assert exc.value.code == 400 and reason in str(exc.value), str(exc.value)
    auditor = Auditor(db, trust_store, identities[OPERATOR].public_key)
    with pytest.raises(NotFoundError):
        auditor.audit_atom("SB", APPROVED)


# rulesheet texts that do not make a rulesheet for SB, one for each reason
# of the contract, with the reason given
INVALID_CONTRACTS = {
    "undeclared-principals": ("p(X) :- 'NOBODY' attests q(X).\n", "self principal 'SB' is not declared"),
    "duplicate-declaration": (SB_SHEET + SB_SHEET + "p(1).\n", "duplicate identity declaration 'SB'"),
    "non-self-head": (FOREIGN_SHEET, "rule 0 (line 3): non-self head: attests for 'MRM' but self is 'SB'"),
    "undeclared-foreign-principal": (SB_SHEET + "p(X) :- 'NOBODY' attests q(X).\n", "undeclared principal 'NOBODY'"),
    "unsafe-rule": (SB_SHEET + "p(X) :- q(Y).\n", "unsafe rule: head variable X is not bound by the body"),
    "arithmetic-in-relational-atom": (SB_SHEET + "p(X) :- q(X + 1).\n", "arithmetic is not allowed inside relational atoms"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONTRACTS))
def test_invalid_contract_refused_at_submit_and_on_replay(tmp_path, identities, trust_store, caplog, case):
    """The log takes only a contract a monitor would run: a revision naming
    a logged rulesheet text that does not make a rulesheet for its owner is
    refused with 400 at submit, and left unindexed with one warning on
    replay."""
    text, reason = INVALID_CONTRACTS[case]
    payload = naming(identities, text)
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1), text)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(payload)
    assert exc.value.code == 400 and reason in str(exc.value), str(exc.value)
    db.log.append(payload.encode("utf-8"))
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        [message] = [record.getMessage() for record in caplog.records]
        assert message.startswith("log entry 3 left unindexed: ") and reason in message
        with pytest.raises(NotFoundError):
            reopened.get_head("SB")
    finally:
        reopened.log.close()


@pytest.mark.parametrize("case", sorted(INVALID_CONTRACTS))
def test_reader_refuses_an_invalid_contract(db, identities, case):
    """Watchers and the Auditor read rulesheets through a `LogReader`, which
    refuses a logged rulesheet text that does not make a rulesheet for the
    owner, as the database does, and so every revision that names it."""
    from cyberlog.errors import ParseError
    from cyberlog.revision import decode_payload

    text, reason = INVALID_CONTRACTS[case]
    rulesheet_hash = db.submit_revision(encode_rulesheet_payload(text))["revision_id"]
    with pytest.raises(ParseError) as exc:
        reader(db, identities)(rulesheet_hash, "SB")
    assert reason in str(exc.value)
    with pytest.raises(LogIntegrityError) as exc:
        decode_payload(naming(identities, text), reader(db, identities), db.trust_store)
    assert reason in str(exc.value)


# -- commit time ---------------------------------------------------------------


def test_commit_time_going_back_refused_at_submit_and_on_replay(tmp_path, identities, trust_store, caplog):
    """A revision at commit time 1000 that supersedes one at 5000 is refused
    with 409 at submit; appended to the log file and indexed directly, a
    reader refuses it; it is left unindexed, with one warning, on replay;
    an equal commit time is taken."""
    path = str(tmp_path / "db.log")
    db = with_rulesheets(ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1))
    base, payload = sb_payload(identities, commit_time=5000)
    db.submit_revision(payload)
    backwards, backwards_payload = sb_payload(identities, supersedes=base.id, commit_time=1000)
    with pytest.raises(SubmitError) as exc:
        db.submit_revision(backwards_payload)
    assert exc.value.code == 409 and "commit time 1000 is before 5000" in str(exc.value)
    index = db.log.append(backwards_payload.encode("utf-8"))
    db._index_revision(backwards, index)  # a log that skipped the check
    with pytest.raises(LogIntegrityError, match=f"revision {backwards.id} by 'SB' at commit time 1000 may not supersede"):
        reader(db, identities).revision(backwards.id)
    db.log.close()

    with caplog.at_level("WARNING", logger="cyberlog.claimdb"):
        reopened = ClaimDb(MerkleLog(path), identities[OPERATOR], trust_store, clock=lambda: 1)
    try:
        [message] = [record.getMessage() for record in caplog.records]
        assert message.startswith(f"log entry {index} left unindexed: commit time 1000 is before 5000")
        assert reopened.get_head("SB") == {"owner": "SB", "revision_id": base.id, "chain_length": 1}
        with pytest.raises(NotFoundError):
            reopened.get_revision(backwards.id)
        _, same_time = sb_payload(identities, supersedes=base.id, commit_time=5000)
        reopened.submit_revision(same_time)
        assert reopened.get_head("SB")["chain_length"] == 2
    finally:
        reopened.log.close()
