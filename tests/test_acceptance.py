"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines as they complete.
"""

import dataclasses
import json
import os
import random
import shutil
import time

import pytest

from cyberlog.audit import Auditor, render_audit_tree
from cyberlog.claimdb import ClaimDb, serve_db_in_thread
from cyberlog.claimlog import MerkleLog, verify_consistency, verify_inclusion
from cyberlog.cli import main as cli_main
from cyberlog.engine import Claim, DirectAssertion, GroundAtom, KnowledgeBase
from cyberlog.errors import SubmitError
from cyberlog.harness import (
    OPERATOR_NAME,
    MonitorSpec,
    Scenario,
    ScenarioEvent,
    ScenarioRun,
    identity_seed,
    load_scenario,
    run_scenario,
)
from cyberlog.identity import generate_identity
from cyberlog.lang import parse_rulesheet
from cyberlog.monitor import EventEnvelope
from cyberlog.revision import (
    LogReader,
    apply_next_rules,
    build_record,
    commit_staging,
    encode_payload,
    fetch_verified_revision,
    sign_record,
)

from conftest import log_reader, publish_rulesheet
from merkle_oracle import brute_leaf, brute_root
from naive_oracle import naive_saturate, random_program

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def verdict(n: int, ok: bool, detail: str):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1. engine equals the naive fixpoint oracle ------------------------------


def test_criterion_1_engine_oracle_equivalence():
    started = time.perf_counter()
    for seed in range(100):
        rs, facts = random_program(seed)
        expected = naive_saturate(facts, rs.rules)
        kb = KnowledgeBase(rs)
        for principal, name, args in facts:
            kb.assert_claim(Claim(GroundAtom(principal, name, args), DirectAssertion()))
        kb.saturate()
        got = {(a.principal, a.predicate, a.args) for a in kb.claims}
        assert got == expected, f"engine diverges from oracle at seed {seed}"
    elapsed = time.perf_counter() - started
    verdict(1, elapsed < 10.0, f"100 random programs equal the naive oracle in {elapsed:.2f}s (< 10s)")


# -- 2. workflow verdict and ablations ----------------------------------------


def test_criterion_2_workflow_verdict():
    started = time.perf_counter()
    booking = run_scenario(os.path.join(SCENARIOS, "uav_booking.jsonl"))
    assert booking.passed, booking.render()
    counts = {e.query: e.actual for e in booking.expectations}
    assert counts["good_rtf_exists(R, A)"] == 1

    for tag in ("no_request", "no_feasible", "no_tasks", "no_rtf"):
        report = run_scenario(os.path.join(SCENARIOS, f"uav_booking_{tag}.jsonl"))
        assert report.passed, report.render()

    delayed = run_scenario(os.path.join(SCENARIOS, "uav_delayed_rtf.jsonl"))
    assert delayed.passed, delayed.render()

    again = run_scenario(os.path.join(SCENARIOS, "uav_booking.jsonl"))
    assert again.heads == booking.heads, "revision ids differ across identical runs"
    elapsed = time.perf_counter() - started
    verdict(
        2,
        elapsed < 30.0,
        f"booking verdict=1, four ablations=0, delay boundary fires at 1001 not 1000, "
        f"deterministic, in {elapsed:.2f}s (< 30s)",
    )


# -- 3. merkle proofs against the brute-force oracle ---------------------------


def test_criterion_3_merkle_proofs():
    started = time.perf_counter()
    rng = random.Random(1234)

    inclusion_checked = 0
    for size in range(1, 65):
        payloads = [bytes([rng.randrange(256) for _ in range(rng.randrange(1, 32))]) for _ in range(size)]
        log = MerkleLog()
        for p in payloads:
            log.append(p)
        root = brute_root(payloads)
        assert log.root(size) == root
        for index in range(size):
            proof = log.prove_inclusion(index, size)
            assert verify_inclusion(root, brute_leaf(payloads[index]), proof)
            inclusion_checked += 1

    payloads = [bytes([rng.randrange(256) for _ in range(16)]) for _ in range(32)]
    log = MerkleLog()
    for p in payloads:
        log.append(p)
    pairs_checked = 0
    for old in range(1, 33):
        for new in range(old, 33):
            proof = log.prove_consistency(old, new)
            assert verify_consistency(brute_root(payloads[:old]), brute_root(payloads[:new]), proof)
            pairs_checked += 1

    mutations = 0
    size = 64
    payloads = [bytes([rng.randrange(256) for _ in range(16)]) for _ in range(size)]
    log = MerkleLog()
    for p in payloads:
        log.append(p)
    root = log.root(size)
    for index in range(size):  # exhaustive over leaves
        proof = log.prove_inclusion(index, size)
        for _ in range(16):  # sampled byte/bit positions
            leaf = bytearray(brute_leaf(payloads[index]))
            leaf[rng.randrange(32)] ^= 1 << rng.randrange(8)
            if bytes(leaf) != brute_leaf(payloads[index]):
                assert not verify_inclusion(root, bytes(leaf), proof)
                mutations += 1
    elapsed = time.perf_counter() - started
    verdict(
        3,
        mutations >= 1000 and elapsed < 60.0,
        f"{inclusion_checked} inclusion proofs, {pairs_checked} consistency pairs, "
        f"{mutations} leaf mutations all behave per the brute-force oracle in {elapsed:.2f}s (< 60s)",
    )


# -- 4. end-to-end tamper detection ---------------------------------------------


def _payload_regions(log_path):
    regions = []
    with open(log_path, "rb") as fh:
        data = fh.read()
    pos = 0
    while pos < len(data):
        length = int.from_bytes(data[pos : pos + 4], "little")
        regions.append((pos + 4, length))
        pos += 4 + length
    return regions


def test_criterion_4_tamper_detection(tmp_path):
    scenario = load_scenario(os.path.join(SCENARIOS, "uav_booking.jsonl"))
    pristine = str(tmp_path / "pristine.log")
    heads = str(tmp_path / "heads.jsonl")
    trust_path = str(tmp_path / "trust.jsonl")
    run = ScenarioRun(scenario, log_path=pristine)
    assert run.run().passed
    run.write_heads_cache(heads)
    run.trust_store.save(trust_path)
    run.close()
    operator = generate_identity(
        OPERATOR_NAME, "CN=log-operator", "CN=R3", seed=identity_seed(scenario.name, OPERATOR_NAME)
    )

    regions = _payload_regions(pristine)
    rng = random.Random(99)
    detected = 0
    trials = 20
    for trial in range(trials):
        tampered = str(tmp_path / f"tampered_{trial}.log")
        shutil.copy(pristine, tampered)
        offset, length = regions[rng.randrange(len(regions))]
        position = offset + rng.randrange(length)
        with open(tampered, "r+b") as fh:
            fh.seek(position)
            byte = fh.read(1)
            fh.seek(position)
            fh.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))

        db = ClaimDb(MerkleLog(tampered), operator, run.trust_store)
        server, url = serve_db_in_thread(db)
        try:
            audit_code = cli_main(
                [
                    "audit",
                    "--db", url,
                    "--trust-store", trust_path,
                    "--owner", "DOM",
                    "--heads-cache", heads,
                    "good_rtf_exists(7, 3)",
                ]
            )
            verify_code = cli_main(["verify-log", "--db", url, "--heads-cache", heads, "--trust-store", trust_path])
        finally:
            server.shutdown()
            server.server_close()
            db.log.close()
        if audit_code != 0 and verify_code != 0:
            detected += 1
    verdict(4, detected == trials, f"{detected}/{trials} byte-tamper injections failed both audit and verify-log")


# -- 5. revision semantics ---------------------------------------------------------


def test_criterion_5a_step_counter(db_client, identities):
    rs = parse_rulesheet(
        "'CTR': Subject: 's' Issuer: 'i'\nnext counter(N1) :- counter(N), N1 == N + 1.\n", "CTR"
    )
    seed_atom = GroundAtom("CTR", "counter", (0,))
    kb = KnowledgeBase(rs)
    kb.revise((), [Claim(seed_atom, DirectAssertion())])
    publish_rulesheet(db_client, rs)
    reader = log_reader(db_client, identities)
    record = None
    k = 7
    for step in range(k + 1):  # each commit's carry-overs are the KB's claims for the next
        record, _ = commit_staging(identities["CTR"], rs, reader, record and record.id, (), kb.claims.values(), step)
        apply_next_rules(kb, record)
    fetched, _ = fetch_verified_revision(reader, record.id)
    atoms = [c.atom for c in fetched.claims]
    verdict(
        5,
        atoms == [GroundAtom("CTR", "counter", (k,))],
        f"(a) after {k} time-step commits the latest revision holds exactly counter({k})",
    )


def test_criterion_5b_supersession_retracts_and_matches_oracle():
    scenario = load_scenario(os.path.join(SCENARIOS, "uav_booking.jsonl"))
    with open(os.path.join(SCENARIOS, "rules", "mrm_noretain.cyberlog")) as fh:
        noretain = fh.read()
    scenario = dataclasses.replace(scenario, monitors=[
        MonitorSpec(m.name, noretain if m.name == "MRM" else m.rulesheet_text, m.watched, m.authz_predicate)
        for m in scenario.monitors
    ])
    run = ScenarioRun(scenario)
    run.advance_to(1000)
    assert run.query_count("DOM", "good_rtf_exists(R, A)") == 1
    run.advance_to(2000)
    retracted = run.query_count("DOM", "good_rtf_exists(R, A)") == 0

    from cyberlog.engine import DerivedByRule

    dom = run.monitors["DOM"]
    oracle = KnowledgeBase(dom.rulesheet)
    for claim in dom.kb.claims.values():
        if not isinstance(claim.evidence, DerivedByRule):
            oracle.assert_claim(claim)
    oracle.saturate()
    equal = oracle.claims.keys() == dom.kb.claims.keys()
    run.close()
    verdict(
        5,
        retracted and equal,
        "(b) superseding the premise-bearing revision retracts good_rtf_exists and the KB "
        "equals from-scratch saturation",
    )


def test_criterion_5c_non_owner_supersession_rejected(db_client, identities):
    rs_sb = parse_rulesheet("'SB': Subject: 's' Issuer: 'i'\n", "SB")
    publish_rulesheet(db_client, rs_sb)
    record, _ = commit_staging(identities["SB"], rs_sb, log_reader(db_client, identities), None, (), (), 1)
    rs_mrm = parse_rulesheet("'MRM': Subject: 's' Issuer: 'i'\n", "MRM")
    publish_rulesheet(db_client, rs_mrm)
    hostile, body = build_record("MRM", record.id, (), rs_mrm, (), 2)
    payload = encode_payload(body, sign_record(hostile, identities["MRM"]))
    with pytest.raises(SubmitError) as exc:
        db_client.submit_revision(payload)
    verdict(5, exc.value.code == 401, "(c) supersession by a non-owner is rejected with 401")


# -- 6. KB boundedness under the retention next-rule --------------------------------


def _retention_scenario(bookings: int) -> Scenario:
    with open(os.path.join(SCENARIOS, "rules", "sb_retention.cyberlog")) as fh:
        sheet = fh.read()
    events = []
    for i in range(bookings):
        base = 2000 * i
        body = json.dumps({"request_id": i})
        status = json.dumps({"request_id": i, "state": "open"})
        events.append(ScenarioEvent(base + 100, "SB", EventEnvelope("POST", "/servicerequest", body, base + 100)))
        events.append(ScenarioEvent(base + 200, "SB", EventEnvelope("POST", "/status", status, base + 200)))
    return Scenario(
        name=f"retention_{bookings}",
        monitors=[MonitorSpec("SB", sheet, ())],
        events=events,
        expected=[],
        commit_interval_ms=1000,
        poll_interval_ms=1000,
        drain_rounds=3,
    )


def _latest_claim_count(bookings: int) -> tuple[int, int]:
    run = ScenarioRun(_retention_scenario(bookings))
    run.run()
    head = run.client.get_head("SB")
    reader = LogReader(run.client, run.trust_store, run.operator.public_key)
    record, _ = fetch_verified_revision(reader, head["revision_id"])
    # sanity: requests really were carried across commits mid-flight
    carried_revisions = 0
    cursor = head["revision_id"]
    while cursor is not None:
        rev, _ = fetch_verified_revision(reader, cursor)
        if any(c.atom.predicate == "request" for c in rev.claims):
            carried_revisions += 1
        cursor = rev.supersedes
    run.close()
    return len(record.claims), carried_revisions


def test_criterion_6_kb_boundedness():
    one, carried_one = _latest_claim_count(1)
    fifty, carried_fifty = _latest_claim_count(50)
    assert carried_one >= 2, "a booking should persist across at least two revisions"
    assert carried_fifty >= 100, "each of 50 bookings should persist across at least two revisions"
    verdict(
        6,
        fifty <= one + 5,
        f"latest-revision facts after 50 completed bookings = {fifty}, after 1 = {one} "
        f"(bound: +5; requests appeared in {carried_fifty} revisions mid-flight)",
    )


# -- 7. performance sanity -------------------------------------------------------


def test_criterion_7_ingestion_delay():
    report = run_scenario(os.path.join(SCENARIOS, "uav_booking.jsonl"))
    active = [m for m in report.metrics if m["events"]]
    assert active, "no monitor ingested events"
    for metric in active:
        assert metric["delay_min_ms"] is not None
        assert metric["delay_avg_ms"] < 100.0, metric
        assert metric["delay_max_ms"] < 500.0, metric
    worst_avg = max(m["delay_avg_ms"] for m in active)
    worst_max = max(m["delay_max_ms"] for m in active)
    verdict(
        7,
        True,
        f"per-monitor min/avg/max emitted; worst avg {worst_avg:.2f}ms (< 100ms), "
        f"worst max {worst_max:.2f}ms (< 500ms)",
    )


# -- 8. audit completeness over every head revision --------------------------------


@pytest.mark.parametrize("bundle", ["uav_booking", "uav_delayed_rtf", "uav_booking_no_rtf"])
def test_criterion_8_audit_completeness(bundle, tmp_path):
    scenario = load_scenario(os.path.join(SCENARIOS, f"{bundle}.jsonl"))
    run = ScenarioRun(scenario, log_path=str(tmp_path / "claims.log"))
    assert run.run().passed
    auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
    audited = 0
    for name in run.monitors:
        for node in auditor.audit_head(name):
            assert node.all_ok, f"{bundle}: {render_audit_tree(node)}"
            audited += 1
    run.close()
    verdict(8, True, f"{bundle}: all {audited} head-revision claims reconstruct to verified leaves")
