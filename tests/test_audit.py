"""End-to-end evidence audits and log consistency verification."""

import os
import random

import pytest

from cyberlog.audit import Auditor, load_heads_cache, render_audit_tree, verify_log_consistency
from cyberlog.claimdb import ClaimDb
from cyberlog.claimlog import MerkleLog
from cyberlog.engine import GroundAtom
from cyberlog.errors import NotFoundError
from cyberlog.harness import OPERATOR_NAME, ScenarioRun, identity_seed, load_scenario
from conftest import OPERATOR, audit_agrees_with_reader, rulesheets_of
from cyberlog.identity import generate_identity
from cyberlog.revision import REVISION_PAYLOAD_HEAD, LogReader, decode_payload

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def booking_run(tmp_path, heads=True):
    scenario = load_scenario(os.path.join(SCENARIOS, "uav_booking.jsonl"))
    log_path = str(tmp_path / "claims.log")
    run = ScenarioRun(scenario, log_path=log_path)
    report = run.run()
    assert report.passed
    cache = str(tmp_path / "heads.jsonl")
    if heads:
        run.write_heads_cache(cache)
    return run, log_path, cache


def reopen_db(run, log_path):
    operator = generate_identity(
        OPERATOR_NAME, "CN=log-operator", "CN=R3", seed=identity_seed(run.scenario.name, OPERATOR_NAME)
    )
    db = ClaimDb(MerkleLog(log_path), operator, run.trust_store)
    return db, operator


def payload_byte_offsets(log_path):
    """(offset, length) of each payload region in the on-disk log."""
    regions = []
    with open(log_path, "rb") as fh:
        data = fh.read()
    pos = 0
    while pos < len(data):
        length = int.from_bytes(data[pos : pos + 4], "little")
        regions.append((pos + 4, length))
        pos += 4 + length
    return regions


def flip_byte(log_path, offset):
    with open(log_path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0x01]))


def test_full_audit_of_workflow_verdict(tmp_path):
    run, _log, _cache = booking_run(tmp_path)
    auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
    node = auditor.audit_atom("DOM", GroundAtom("DOM", "good_rtf_exists", (7, 3)))
    assert node.all_ok, render_audit_tree(node)
    assert node.kind == "derived_by_rule"
    assert len(node.children) == 4
    assert {c.kind for c in node.children} == {"log_inclusion"}
    run.close()


def test_audit_every_head_claim(tmp_path):
    run, _log, _cache = booking_run(tmp_path)
    auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
    audited = 0
    for name in run.monitors:
        for node in auditor.audit_head(name):
            assert node.all_ok, render_audit_tree(node)
            audited += 1
    assert audited > 5
    run.close()


def test_audit_absent_atom(tmp_path):
    run, _log, _cache = booking_run(tmp_path)
    auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
    with pytest.raises(NotFoundError):
        auditor.audit_atom("DOM", GroundAtom("DOM", "good_rtf_exists", (99, 99)))
    run.close()


def test_owner_without_revisions_is_an_audit_error(db_client, identities, trust_store):
    auditor = Auditor(db_client, trust_store, identities[OPERATOR].public_key)
    with pytest.raises(NotFoundError, match="owner 'SB' has no revisions"):
        auditor.audit_head("SB")
    with pytest.raises(NotFoundError, match="owner 'SB' has no revisions"):
        auditor.audit_atom("SB", GroundAtom("SB", "p", (1,)))


@pytest.mark.parametrize("answer", [{}, {"revision_id": ["r"], "chain_length": 1}, {"revision_id": "r"}])
def test_malformed_owner_head_fails_the_audit(answer, tmp_path):
    """A claim DB whose head answer is not a revision id and a chain length
    fails the audit with the log integrity error, before any fetch."""
    from cyberlog.errors import LogIntegrityError

    run, _log, _cache = booking_run(tmp_path, heads=False)
    try:
        run.client.get_head = lambda owner: answer
        auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
        with pytest.raises(LogIntegrityError, match="^malformed head of 'DOM' from the claim database"):
            auditor.audit_head("DOM")
        assert auditor.reader.head is None
    finally:
        run.close()


def test_verify_log_clean_pass_and_append(tmp_path):
    run, _log, cache = booking_run(tmp_path)
    before = len(load_heads_cache(cache))
    ok, checks = verify_log_consistency(LogReader(run.client, run.trust_store, run.operator.public_key), cache)
    assert ok, checks
    assert len(load_heads_cache(cache)) == before + 1
    # re-running with the appended equal-size head still passes
    ok, checks = verify_log_consistency(LogReader(run.client, run.trust_store, run.operator.public_key), cache)
    assert ok, checks
    run.close()


def test_tampered_leaf_fails_consistency_and_audit(tmp_path):
    run, log_path, cache = booking_run(tmp_path)
    run.close()
    regions = payload_byte_offsets(log_path)
    rng = random.Random(42)
    offset, length = regions[rng.randrange(len(regions))]
    flip_byte(log_path, offset + rng.randrange(length))

    client, operator = reopen_db(run, log_path)
    ok, checks = verify_log_consistency(LogReader(client, run.trust_store, operator.public_key), cache, append_current=False)
    assert not ok
    assert any("suspect" in c.detail or "differ" in c.detail for c in checks if not c.ok)


def test_audit_fails_when_evidence_path_tampered(tmp_path):
    run, log_path, _cache = booking_run(tmp_path)
    run.close()
    rulesheets = rulesheets_of(*(monitor.rulesheet for monitor in run.monitors.values()))
    # flip a byte inside the MRM revision that DOM's head includes, the one
    # the verdict's premise resolution fetches
    with open(log_path, "rb") as fh:
        data = fh.read()
    revisions = []  # (record, payload offset, payload bytes)
    for offset, length in payload_byte_offsets(log_path):
        payload = data[offset : offset + length]
        if payload.startswith(REVISION_PAYLOAD_HEAD.encode()):
            revisions.append((decode_payload(payload.decode("utf-8"), rulesheets, run.trust_store), offset, payload))
    dom_head = [record for record, _offset, _payload in revisions if record.owner == "DOM"][-1]
    [target] = [
        offset + payload.index(b"feasible_config")
        for record, offset, payload in revisions
        if record.owner == "MRM" and record.id in dom_head.includes
    ]
    flip_byte(log_path, target)

    client, operator = reopen_db(run, log_path)
    auditor = Auditor(client, run.trust_store, operator.public_key)
    node = auditor.audit_atom("DOM", GroundAtom("DOM", "good_rtf_exists", (7, 3)))
    assert not node.all_ok, render_audit_tree(node)
    assert not audit_agrees_with_reader(client, run.trust_store, operator.public_key, "DOM")


def test_altered_event_fails_its_owner_signature_everywhere(db, identities, trust_store):
    """An event's evidence is its owner's signature of the revision that
    holds it. With one event atom altered, the body hashes to an id the
    owner never signed: the claim DB refuses the revision, a reader served
    it in place of the signed one raises the log integrity error, and so
    does an Auditor reading the owner's head."""
    from cyberlog.engine import Claim, DirectAssertion
    from cyberlog.errors import LogIntegrityError, SubmitError
    from conftest import log_reader, publish_rulesheet
    from cyberlog.lang import parse_rulesheet
    from cyberlog.revision import build_record, encode_payload, sign_record

    rs = parse_rulesheet("'SB': Subject: 's' Issuer: 'i'\n", "SB")
    events = [GroundAtom("SB", "request", (n,)) for n in (7, 8)]
    record, body = build_record("SB", None, (), rs, [Claim(a, DirectAssertion()) for a in events], 1)
    payload = encode_payload(body, sign_record(record, identities["SB"]))
    altered = payload.replace("request(7)", "request(9)")
    assert altered != payload
    publish_rulesheet(db, rs)
    with pytest.raises(SubmitError, match="bad signature on revision by 'SB'") as exc:
        db.submit_revision(altered)
    assert exc.value.code == 401
    db.submit_revision(payload)

    class Altering:
        def __getattr__(self, name):
            return getattr(db, name)

        def get_revision(self, rev_id):
            response = db.get_revision(rev_id)
            return dict(response, payload=response["payload"].replace("request(7)", "request(9)"))

    with pytest.raises(LogIntegrityError, match="bad signature on revision by 'SB'"):
        log_reader(Altering(), identities).revision(record.id)
    with pytest.raises(LogIntegrityError, match="bad signature on revision by 'SB'"):
        Auditor(Altering(), trust_store, identities[OPERATOR].public_key).audit_head("SB")
    assert not audit_agrees_with_reader(Altering(), trust_store, identities[OPERATOR].public_key, "SB")
    assert all(node.all_ok for node in Auditor(db, trust_store, identities[OPERATOR].public_key).audit_head("SB"))
    assert audit_agrees_with_reader(db, trust_store, identities[OPERATOR].public_key, "SB")


def test_forged_derivation_evidence_fails_audit(db_client, identities, trust_store):
    """A revision signed by its legitimate owner but containing fabricated
    derivation evidence passes submission (signatures check out) and is then
    caught by the recursive audit. The wire leaves out the head-bound `Id`,
    which a reader binds from the claimed atom, so a head the substitution
    does not reproduce cannot be logged: the logged instance is
    `verdict(99)` from `request(99)`, which the revision does not hold."""
    from cyberlog.engine import Claim, DerivedByRule, DirectAssertion
    from conftest import publish_rulesheet
    from cyberlog.lang import parse_rulesheet
    from cyberlog.revision import build_record, encode_payload, sign_record

    sheet = "'SB': Subject: 's' Issuer: 'i'\nverdict(Id) :- request(Id).\n"
    rs = parse_rulesheet(sheet, "SB")
    rule = rs.rules[0]

    base_atom = GroundAtom("SB", "request", (7,))
    base = Claim(base_atom, DirectAssertion())
    # head claims verdict(99), but the substitution instantiates verdict(7)
    forged_atom = GroundAtom("SB", "verdict", (99,))
    forged = Claim(forged_atom, DerivedByRule(rule, {"Id": 7}))

    record, body = build_record("SB", None, (), rs, [base, forged], 1)
    publish_rulesheet(db_client, rs)
    db_client.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))

    auditor = Auditor(db_client, trust_store, identities[OPERATOR].public_key)
    node = auditor.audit_atom("SB", forged_atom)
    assert not node.all_ok
    assert not audit_agrees_with_reader(db_client, trust_store, identities[OPERATOR].public_key, "SB")
    assert node.ok and [child.detail for child in node.children] == [
        f"premise not found in revision {record.id[:8]} or its includes"
    ]
    assert node.children[0].atom == '"SB"|request(99)'


def test_premise_id_swap_fails_audit(db_client, identities, trust_store):
    """A premise is named by its atom: the rule's body atom under the
    logged substitution. Swapping the logged entry of a variable the head
    leaves out points the premise at another atom, here `request(7, "b")`
    beside the logged `request(7, "a")` and `ok("b")`, and the audit finds
    no such premise."""
    from cyberlog.engine import Claim, DerivedByRule, DirectAssertion
    from conftest import publish_rulesheet
    from cyberlog.lang import parse_rulesheet
    from cyberlog.revision import build_record, encode_payload, sign_record

    sheet = "'SB': Subject: 's' Issuer: 'i'\nverdict(Id) :- request(Id, Data), ok(Data).\n"
    rs = parse_rulesheet(sheet, "SB")
    rule = rs.rules[0]

    atoms = [GroundAtom("SB", "request", (7, "a")), GroundAtom("SB", "ok", ("a",)), GroundAtom("SB", "ok", ("b",))]
    claims = [Claim(a, DirectAssertion()) for a in atoms]
    verdict_atom = GroundAtom("SB", "verdict", (7,))
    swapped = Claim(verdict_atom, DerivedByRule(rule, {"Id": 7, "Data": "b"}))
    record, body = build_record("SB", None, (), rs, claims + [swapped], 1)
    publish_rulesheet(db_client, rs)
    db_client.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))

    auditor = Auditor(db_client, trust_store, identities[OPERATOR].public_key)
    node = auditor.audit_atom("SB", verdict_atom)
    assert not node.all_ok
    assert not audit_agrees_with_reader(db_client, trust_store, identities[OPERATOR].public_key, "SB")
    assert [(child.atom, child.ok) for child in node.children] == [('"SB"|request(7,"b")', False), ('"SB"|ok("b")', True)]
    assert node.children[0].detail == f"premise not found in revision {record.id[:8]} or its includes"


def test_carried_claim_is_audited_in_the_revision_its_record_supersedes(db_client, identities, trust_store):
    """Under a retention next-rule, r1 holds `request(7,"d",5)` and
    `in_process(7)`, r2 carries nothing, and r3, superseding r2, logs the
    request as carried from r1, undoing the retention cut. A carried
    claim's source is the revision its record supersedes, so the request is
    audited against r2, which holds neither premise, and fails."""
    from cyberlog.engine import CarriedByNextRule, Claim, DirectAssertion
    from conftest import publish_rulesheet
    from cyberlog.lang import parse_rulesheet
    from cyberlog.revision import build_record, encode_payload, sign_record

    sheet = (
        "'SB': Subject: 's' Issuer: 'i'\n"
        "next request(Id, Data, TimeRequest) :- request(Id, Data, TimeRequest), in_process(Id).\n"
    )
    rs = parse_rulesheet(sheet, "SB")
    publish_rulesheet(db_client, rs)
    request, in_process = GroundAtom("SB", "request", (7, "d", 5)), GroundAtom("SB", "in_process", (7,))

    def commit(claims, supersedes, now):
        record, body = build_record("SB", supersedes, (), rs, claims, now)
        db_client.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))
        return record

    r1 = commit([Claim(a, DirectAssertion()) for a in (request, in_process)], None, 1)
    r2 = commit([], r1.id, 2)
    substitution = {"Id": 7, "Data": "d", "TimeRequest": 5}
    commit([Claim(request, CarriedByNextRule(rs.rules[0], substitution))], r2.id, 3)

    node = Auditor(db_client, trust_store, identities[OPERATOR].public_key).audit_atom("SB", request)
    assert not node.all_ok, render_audit_tree(node)
    assert node.detail == f"carried from revision {r2.id[:8]}"
    assert [(child.ok, child.detail) for child in node.children] == [
        (False, f"premise not found in revision {r2.id[:8]} or its includes")
    ] * 2
    assert not audit_agrees_with_reader(db_client, trust_store, identities[OPERATOR].public_key, "SB")


def _dom_including(db_client, identities, owners, body):
    """Each of `owners` commits p(1) and q(1); then DOM commits `both(1)`,
    derived by the rule `both(X) :- B.`, including those revisions, where
    B is `body` of (revision id -> owner). Returns that mapping and DOM's
    claim."""
    from cyberlog.engine import Claim, DerivedByRule, DirectAssertion
    from conftest import publish_rulesheet
    from cyberlog.lang import parse_rulesheet
    from cyberlog.revision import build_record, encode_payload, sign_record

    included = {}
    for owner in owners:
        rs = parse_rulesheet(f"'{owner}': Subject: 's' Issuer: 'i'\n", owner)
        publish_rulesheet(db_client, rs)
        atoms = [GroundAtom(owner, "p", (1,)), GroundAtom(owner, "q", (1,))]
        claims = [Claim(a, DirectAssertion()) for a in atoms]
        record, record_body = build_record(owner, None, (), rs, claims, 1)
        db_client.submit_revision(encode_payload(record_body, sign_record(record, identities[owner])))
        included[record.id] = owner
    sheet = "".join(f"'{name}': Subject: 's' Issuer: 'i'\n" for name in ("DOM", *owners))
    sheet += f"both(X) :- {body(included)}.\n"
    rs = parse_rulesheet(sheet, "DOM")
    publish_rulesheet(db_client, rs)
    both = Claim(GroundAtom("DOM", "both", (1,)), DerivedByRule(rs.rules[0], {"X": 1}))
    record, record_body = build_record("DOM", None, included, rs, [both], 1)
    db_client.submit_revision(encode_payload(record_body, sign_record(record, identities["DOM"])))
    return included, both


def test_premises_held_by_the_last_include_fetch_each_include_once(db_client, identities, trust_store):
    """A DOM revision includes three revisions, and both premises of its
    derived claim are held by the last of them in id order. The Auditor
    finds them through an atom -> include index built once for the
    revision: each include is fetched once for both premises, where a
    search of the includes in id order fetched all three for each premise."""
    def body(included):
        owner = included[max(included)]
        return f"'{owner}' attests p(X), '{owner}' attests q(X)"

    included, both = _dom_including(db_client, identities, ("SB", "MRM", "OM"), body)
    last = max(included)
    fetched = []

    class CountingClient:
        def get_revision(self, rev_id):
            fetched.append(rev_id)
            return db_client.get_revision(rev_id)

        def __getattr__(self, name):
            return getattr(db_client, name)

    auditor = Auditor(CountingClient(), trust_store, identities[OPERATOR].public_key)
    reads = []
    fetch_revision = auditor.fetch_revision
    auditor.fetch_revision = lambda rev_id: reads.append(rev_id) or fetch_revision(rev_id)
    node = auditor.audit_atom("DOM", both.atom)
    assert node.all_ok, render_audit_tree(node)
    assert [child.detail for child in node.children] == [f"included from {last[:8]}, fetched with verified proof"] * 2
    assert sorted(rev_id for rev_id in fetched if rev_id in included) == sorted(included)
    assert sorted(rev_id for rev_id in reads if rev_id in included) == sorted(included)


def test_premise_of_a_usable_include_passes_beside_an_unusable_one(db_client, identities, trust_store):
    """DOM's revision includes SB's and MRM's, and the claim DB cannot
    serve MRM's. The premise SB's revision holds passes; the one only
    MRM's could hold fails, naming MRM's revision as unusable."""
    from cyberlog.errors import NotFoundError

    included, both = _dom_including(db_client, identities, ("SB", "MRM"), lambda _: "'SB' attests p(X), 'MRM' attests p(X)")
    [sb] = [rev_id for rev_id, owner in included.items() if owner == "SB"]
    [mrm] = [rev_id for rev_id, owner in included.items() if owner == "MRM"]

    class LosingClient:
        def get_revision(self, rev_id):
            if rev_id == mrm:
                raise NotFoundError(f"no revision {rev_id}")
            return db_client.get_revision(rev_id)

        def __getattr__(self, name):
            return getattr(db_client, name)

    node = Auditor(LosingClient(), trust_store, identities[OPERATOR].public_key).audit_atom("DOM", both.atom)
    assert [(child.ok, child.detail) for child in node.children] == [
        (True, f"included from {sb[:8]}, fetched with verified proof"),
        (False, f"included revision {mrm[:8]} unusable: no revision {mrm}"),
    ]


@pytest.mark.parametrize("lost", [(), ("MRM",), ("SB", "MRM")])
def test_the_audit_of_a_head_with_foreign_premises_is_the_readers_check(db_client, identities, trust_store, lost):
    """DOM's revision includes SB's and MRM's and derives from a premise of
    each. With the claim DB unable to serve the revisions of `lost`, a fresh
    Auditor passes DOM's head exactly when a fresh reader accepts it, which
    it does only when it loses neither."""
    included, _both = _dom_including(db_client, identities, ("SB", "MRM"), lambda _: "'SB' attests p(X), 'MRM' attests p(X)")

    class LosingClient:
        def get_revision(self, rev_id):
            if included.get(rev_id) in lost:
                raise NotFoundError(f"no revision {rev_id}")
            return db_client.get_revision(rev_id)

        def __getattr__(self, name):
            return getattr(db_client, name)

    assert audit_agrees_with_reader(LosingClient(), trust_store, identities[OPERATOR].public_key, "DOM") == (not lost)


@pytest.mark.parametrize("name", sorted(f[:-len(".jsonl")] for f in os.listdir(SCENARIOS) if f.endswith(".jsonl")))
def test_every_scenario_head_passes_the_audit_the_reader_accepts(name):
    """On each scenario's log, a fresh Auditor passes every owner's head
    exactly when a fresh reader accepts it, and both do."""
    run = ScenarioRun(load_scenario(os.path.join(SCENARIOS, f"{name}.jsonl")))
    try:
        run.run()
        owners = [owner for owner in run.monitors if run.reader.owner_head(owner) is not None]
        assert owners
        for owner in owners:
            assert audit_agrees_with_reader(run.client, run.trust_store, run.operator.public_key, owner)
    finally:
        run.close()


CARRYING_SB = """\
'SB': Subject: 's' Issuer: 'i'
request(RequestId, Data, Time) :-
  postRequest('/servicerequest', Time, Data),
  get_param_int(Data, 'request_id', RequestId).
next request(Id, Data, T) :- request(Id, Data, T).
"""


def test_a_claim_carried_across_more_revisions_than_the_recursion_limit_audits(
    tmp_path, identities, trust_store, capsys
):
    """SB's request is carried across 1100 revisions, each logging one new
    event, more than Python's default recursion limit. The Auditor passes
    it, `cyberlog audit` of the log exits 0, and a fresh watcher includes
    SB's head: a cold chain is read back and accepted forward, one revision
    at a time."""
    import itertools

    from cyberlog.cli import main
    from cyberlog.lang import parse_rulesheet
    from cyberlog.monitor import EventEnvelope, Monitor

    operator_key = identities[OPERATOR].public_key
    log_path, trust_path = str(tmp_path / "claims.log"), str(tmp_path / "trust.jsonl")
    db = ClaimDb(MerkleLog(log_path), identities[OPERATOR], trust_store)
    try:
        clock = itertools.count(1000, 1000).__next__
        sb = Monitor(identities["SB"], parse_rulesheet(CARRYING_SB, "SB"), db, trust_store, operator_key, (), clock)
        sb.ingest_event(EventEnvelope("POST", "/servicerequest", '{"request_id":7}', 5))
        sb.commit()
        for k in range(1100):
            base = sb._base
            sb.ingest_event(EventEnvelope("GET", "/other", "", 10 + k))
            assert sb.commit() is not base
        head = db.get_head("SB")
        assert head["chain_length"] == 1101
        request = GroundAtom("SB", "request", (7, '{"request_id":7}', 5))
        node = Auditor(db, trust_store, operator_key).audit_atom("SB", request)
        assert node.all_ok and node.kind == "carried_by_next_rule", render_audit_tree(node)
        watcher_sheet = "'DOM': Subject: 's' Issuer: 'i'\n'SB': Subject: 's' Issuer: 'i'\n"
        watcher_sheet += "verdict(R) :- 'SB' attests request(R, Data, T).\n"
        dom = Monitor(identities["DOM"], parse_rulesheet(watcher_sheet, "DOM"), db, trust_store, operator_key, ("SB",))
        assert dom.poll_and_include() == [head["revision_id"]]
        assert dom.handle_query("verdict(R)") == [{"R": 7}]
    finally:
        db.log.close()
    trust_store.save(trust_path)
    capsys.readouterr()
    assert main(["audit", "--db", log_path, "--trust-store", trust_path, "--owner", "SB"]) == 0
    assert "audit: fully verified" in capsys.readouterr().out
