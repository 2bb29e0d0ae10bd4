"""Revision model: commit cycle, next-rules, includes, supersession."""

import pytest

from cyberlog.engine import (
    CarriedByNextRule,
    Claim,
    DirectAssertion,
    GroundAtom,
    KnowledgeBase,
    LogInclusion,
)
from cyberlog.errors import EvidenceError, LogIntegrityError
from cyberlog.lang import parse_query, parse_rulesheet
from cyberlog.revision import (
    apply_next_rules,
    build_record,
    commit_staging,
    decode_payload,
    encode_payload,
    fetch_verified_revision,
    include_revision,
    on_superseded,
    sign_record,
)

from conftest import OPERATOR, log_reader, publish_rulesheet, rulesheets_of

CTR_SHEET = "'CTR': Subject: 's' Issuer: 'i'\nnext counter(N1) :- counter(N), N1 == N + 1.\n"
RETAIN_SHEET = (
    "'SB': Subject: 's' Issuer: 'i'\n"
    "next request(Id, Data, TimeRequest) :- request(Id, Data, TimeRequest), in_process(Id).\n"
)


def latest_revision(db, owner):
    """Head revision id and chain length for an owner."""
    head = db.get_head(owner)
    return head["revision_id"], int(head["chain_length"])


def signed(owner, atom):
    """`owner`'s direct assertion of `atom`, signed by the revision that logs it."""
    return Claim(atom, DirectAssertion())


def commit(db_client, identities, rs, claims=(), base=None, now_ms=0):
    """Log the rulesheet, then commit its owner's claims over `base`,
    including nothing; returns (record, its inclusion, next-rule carry-overs)."""
    publish_rulesheet(db_client, rs)
    committer = reader(db_client, identities)
    record, inclusion = commit_staging(identities[rs.self_id], rs, committer, base, (), claims, now_ms)
    return record, inclusion, carry_overs(rs, record)


def carry_overs(rs, record, included=()):
    """The carry-overs that the KB step after the commit of `record` admits
    into a KB holding the record's claim objects and `included` (the sheets
    here have no standard rule, so a record holds no derivation)."""
    kb = KnowledgeBase(rs)
    kb.revise((), [*record.claims, *included])
    return apply_next_rules(kb, record)


def reader(db_client, identities):
    """A watcher's `LogReader` over `db_client`."""
    return log_reader(db_client, identities)


def commit_chain(db_client, identities, rs, claims, steps):
    """`steps` commits, each of the previous one's carry-overs over it;
    returns the records."""
    records, base = [], None
    for t in range(steps):
        record, _, claims = commit(db_client, identities, rs, claims, base, t)
        records.append(record)
        base = record.id
    return records


def test_commit_empty_staging(db_client, identities):
    rs = parse_rulesheet(CTR_SHEET, "CTR")
    record, inclusion, carried = commit(db_client, identities, rs, now_ms=5)
    assert record.claims == () and record.supersedes is None
    assert len(record.id) == 64
    assert inclusion.revision_id == record.id
    assert inclusion.proof.leaf_index == 1  # after the rulesheet
    assert carried == []


def test_three_commits_form_linear_chain(db_client, identities):
    rs = parse_rulesheet(CTR_SHEET, "CTR")
    records = commit_chain(db_client, identities, rs, [], 3)
    assert records[0].supersedes is None
    assert records[1].supersedes == records[0].id
    assert records[2].supersedes == records[1].id
    assert all(r.owner == "CTR" for r in records)
    assert latest_revision(db_client, "CTR") == (records[2].id, 3)


def test_fetched_record_rehashes_to_id(db_client, identities, trust_store):
    rs = parse_rulesheet(CTR_SHEET, "CTR")
    claims = [signed("CTR", GroundAtom("CTR", "counter", (0,)))]
    record, _, _ = commit(db_client, identities, rs, claims, now_ms=1)
    fetched, _inclusion = fetch_verified_revision(reader(db_client, identities), record.id)
    assert fetched.id == record.id
    again = decode_payload(db_client.get_revision(record.id)["payload"], rulesheets_of(rs), trust_store)
    assert again.id == record.id
    assert [c.atom for c in fetched.claims] == [GroundAtom("CTR", "counter", (0,))]


# --- next-rules ---------------------------------------------------------------


def test_next_rule_keeps_in_process_request(identities):
    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    claims = [
        signed("SB", GroundAtom("SB", "request", (7, "d", 5))),
        signed("SB", GroundAtom("SB", "in_process", (7,))),
    ]
    record, _ = build_record("SB", None, (), rs, claims, 1)
    carried = carry_overs(rs, record)
    assert [c.atom for c in carried] == [GroundAtom("SB", "request", (7, "d", 5))]
    ev = carried[0].evidence
    assert isinstance(ev, CarriedByNextRule) and ev.substitution == {"Id": 7, "Data": "d", "TimeRequest": 5}
    # its source is the revision that the record logging it supersedes
    following, _ = build_record("SB", record.id, (), rs, carried, 2)
    assert following.supersedes == record.id and following.claims == tuple(carried)


def test_next_rule_drops_completed_request(identities):
    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    claims = [signed("SB", GroundAtom("SB", "request", (7, "d", 5)))]
    record, _ = build_record("SB", None, (), rs, claims, 1)
    assert carry_overs(rs, record) == []


def test_next_rule_sees_included_claims(identities):
    sheet = (
        "'SB': Subject: 's' Issuer: 'i'\n'OM': Subject: 's' Issuer: 'i'\n"
        "next request(Id) :- request(Id), 'OM' attests in_process(Id).\n"
    )
    rs = parse_rulesheet(sheet, "SB")
    own = [signed("SB", GroundAtom("SB", "request", (7,)))]
    foreign = [signed("OM", GroundAtom("OM", "in_process", (7,)))]
    record, _ = build_record("SB", None, (), rs, own, 1)
    assert carry_overs(rs, record) == []
    carried = carry_overs(rs, record, included=foreign)
    assert [c.atom for c in carried] == [GroundAtom("SB", "request", (7,))]


def test_counter_advances_one_step_per_commit(db_client, identities):
    rs = parse_rulesheet(CTR_SHEET, "CTR")
    # seed commit is time step 0; each further commit advances the counter
    records = commit_chain(db_client, identities, rs, [signed("CTR", GroundAtom("CTR", "counter", (0,)))], 6)
    for k, record in enumerate(records):
        assert [c.atom for c in record.claims] == [GroundAtom("CTR", "counter", (k,))]
        assert record.supersedes == (records[k - 1].id if k else None)
    head_id, chain = latest_revision(db_client, "CTR")
    assert head_id == records[-1].id and chain == 6


# --- includes -------------------------------------------------------------------


@pytest.fixture
def dom_setup():
    dom_sheet = (
        "'DOM': Subject: 's' Issuer: 'i'\n'MRM': Subject: 's' Issuer: 'i'\n"
        "verdict(R) :- 'MRM' attests feasible_config(R, A).\n"
    )
    rs_dom = parse_rulesheet(dom_sheet, "DOM")
    kb = KnowledgeBase(rs_dom)
    mrm_sheet = "'MRM': Subject: 's' Issuer: 'i'\n"
    rs_mrm = parse_rulesheet(mrm_sheet, "MRM")
    return kb, rs_dom, rs_mrm


def mrm_commit(db_client, identities, rs_mrm, base, atoms, now):
    """Commit MRM's signed `atoms` over `base`; returns the record."""
    claims = [signed("MRM", a) for a in atoms]
    return commit(db_client, identities, rs_mrm, claims, base, now)[0]


def test_include_enables_foreign_derivation(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    record = mrm_commit(
        db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1
    )
    added = include_revision(kb, record.id, reader(db_client, identities))
    assert [c.atom for c in added] == [GroundAtom("MRM", "feasible_config", (7, 3))]
    assert isinstance(added[0].evidence, LogInclusion)
    assert kb.query(parse_query("verdict(R)", "DOM")) == [{"R": 7}]


def test_include_empty_revision(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    record = mrm_commit(db_client, identities, rs_mrm, None, [], 1)
    assert include_revision(kb, record.id, reader(db_client, identities)) == []
    assert len(kb) == 0


def test_include_refuses_tampered_body(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    record = mrm_commit(
        db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1
    )

    class TamperingClient:
        def __init__(self, inner):
            self.inner = inner

        def get_revision(self, rev_id):
            response = dict(self.inner.get_revision(rev_id))
            response["payload"] = response["payload"].replace('feasible_config(7,3)', 'feasible_config(7,4)')
            return response

        def __getattr__(self, name):
            return getattr(self.inner, name)

    with pytest.raises(LogIntegrityError):
        include_revision(kb, record.id, reader(TamperingClient(db_client), identities))
    assert len(kb) == 0


# --- supersession ----------------------------------------------------------------


def test_supersession_retracts_consequences(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    r1 = mrm_commit(db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1)
    include_revision(kb, r1.id, reader(db_client, identities))
    assert kb.query(parse_query("verdict(R)", "DOM")) == [{"R": 7}]

    r2 = mrm_commit(db_client, identities, rs_mrm, r1.id, [], 2)
    on_superseded(kb, r1.id, r2.id, reader(db_client, identities))
    assert kb.query(parse_query("verdict(R)", "DOM")) == []

    # oracle: from-scratch saturation over current inclusions only
    oracle = KnowledgeBase(rs_dom)
    include_revision(oracle, r2.id, reader(db_client, identities))
    assert kb.claims.keys() == oracle.claims.keys()


def test_supersession_with_identical_claims_is_fixpoint(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    atoms = [GroundAtom("MRM", "feasible_config", (7, 3))]
    r1 = mrm_commit(db_client, identities, rs_mrm, None, atoms, 1)
    include_revision(kb, r1.id, reader(db_client, identities))
    before = set(kb.claims)
    r2 = mrm_commit(db_client, identities, rs_mrm, r1.id, atoms, 2)
    assert on_superseded(kb, r1.id, r2.id, reader(db_client, identities)) == []
    assert kb.claims.keys() == before


def test_supersession_chain_must_reach_old(db, identities, dom_setup):
    """A reader that accepted MRM's head r1 accepts r3, whose chain reaches
    r1 through r2. It refuses a head on another MRM chain, which a claim DB
    that skipped its check logged, and keeps r3 as MRM's head."""
    _kb, _rs_dom, rs_mrm = dom_setup
    r1 = mrm_commit(db, identities, rs_mrm, None, [], 1)
    log_reader = reader(db, identities)
    assert log_reader.accept_head("MRM").id == r1.id
    r2 = mrm_commit(db, identities, rs_mrm, r1.id, [GroundAtom("MRM", "feasible_config", (7, 3))], 2)
    r3 = mrm_commit(db, identities, rs_mrm, r2.id, [], 3)
    assert log_reader.accept_head("MRM").id == r3.id
    unrelated, body = build_record("MRM", None, (), rs_mrm, (), 4)
    db._index_revision(unrelated, db.log.append(encode_payload(body, sign_record(unrelated, identities["MRM"])).encode()))
    for _ in range(2):
        with pytest.raises(LogIntegrityError, match=f"revision {unrelated.id} does not supersede {r3.id}"):
            log_reader.accept_head("MRM")


def test_multi_step_supersession_drops_whole_chain(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    r1 = mrm_commit(db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1)
    include_revision(kb, r1.id, reader(db_client, identities))
    r2 = mrm_commit(db_client, identities, rs_mrm, r1.id, [], 2)
    r3 = mrm_commit(db_client, identities, rs_mrm, r2.id, [GroundAtom("MRM", "feasible_config", (9, 1))], 3)
    on_superseded(kb, r1.id, r3.id, reader(db_client, identities))
    assert kb.query(parse_query("verdict(R)", "DOM")) == [{"R": 9}]


@pytest.mark.parametrize("kept, dropped, new", [(3, 2, 2), (0, 2, 1), (2, 0, 0), (2, 1, 3)])
def test_supersession_admits_only_the_atoms_it_changes(
    db_client, identities, dom_setup, monkeypatch, kept, dropped, new
):
    """After a supersession whose head adds `new` atoms and drops `dropped`
    atoms, each atom the two revisions share keeps its stored claim object,
    under the inclusion it entered with; the dropped atoms and their
    derivations are gone; and `KnowledgeBase.check_evidence` runs once per
    added atom. A later supersession that drops a shared atom retracts it,
    though its inclusion names the older revision."""
    kb, _rs_dom, rs_mrm = dom_setup
    shared, gone, added = (
        [GroundAtom("MRM", "feasible_config", (base + r, 1)) for r in range(count)]
        for base, count in ((0, kept), (100, dropped), (200, new))
    )

    def verdicts():
        return [s["R"] for s in kb.query(parse_query("verdict(R)", "DOM"))]

    log_reader = reader(db_client, identities)
    r1 = mrm_commit(db_client, identities, rs_mrm, None, shared + gone, 1)
    include_revision(kb, r1.id, log_reader)
    before = dict(kb.claims)
    r2 = mrm_commit(db_client, identities, rs_mrm, r1.id, shared + added, 2)
    checked, check = [], KnowledgeBase.check_evidence
    monkeypatch.setattr(KnowledgeBase, "check_evidence", lambda kb, claim: checked.append(claim.atom) or check(kb, claim))
    assert [c.atom for c in on_superseded(kb, r1.id, r2.id, log_reader)] == added
    assert checked == added
    assert all(kb.claims[atom] is before[atom] and before[atom].evidence.revision_id == r1.id for atom in shared)
    assert not any(atom in kb for atom in gone)
    assert verdicts() == [atom.args[0] for atom in shared + added]
    r3 = mrm_commit(db_client, identities, rs_mrm, r2.id, added, 3)
    on_superseded(kb, r2.id, r3.id, log_reader)
    assert {c.atom for c in kb.claims_for("MRM", "feasible_config")} == set(added)
    assert verdicts() == [atom.args[0] for atom in added]


class CountingClient:
    """Passes every call through to a `ClaimDb`, recording the revisions fetched."""

    def __init__(self, inner):
        self.inner = inner
        self.fetched = []

    def get_revision(self, rev_id):
        self.fetched.append(rev_id)
        return self.inner.get_revision(rev_id)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_supersession_fetches_new_and_intermediates_once(db_client, identities, dom_setup):
    kb, rs_dom, rs_mrm = dom_setup
    records = []
    for t, atoms in enumerate(([GroundAtom("MRM", "feasible_config", (7, 3))], [], [], [GroundAtom("MRM", "feasible_config", (9, 1))])):
        records.append(mrm_commit(db_client, identities, rs_mrm, records[-1].id if records else None, atoms, t))
    client = CountingClient(db_client)
    log_reader = reader(client, identities)
    include_revision(kb, records[0].id, log_reader)
    client.fetched.clear()
    added = on_superseded(kb, records[0].id, records[3].id, log_reader)
    assert [c.atom for c in added] == [GroundAtom("MRM", "feasible_config", (9, 1))]
    assert client.fetched == [records[3].id, records[2].id, records[1].id]  # never the old one
    assert kb.query(parse_query("verdict(R)", "DOM")) == [{"R": 9}]
    client.fetched.clear()
    newer = mrm_commit(db_client, identities, rs_mrm, records[3].id, [], 9)
    on_superseded(kb, records[3].id, newer.id, log_reader)
    assert len(client.fetched) == 1


def test_include_and_supersession_check_each_fetched_revision_once(db_client, identities, dom_setup, monkeypatch):
    """`fetch_verified_revision` verifies a revision's inclusion proof, and
    the reader the tree head's signature once per distinct head; the
    `revise` that admits its claims verifies neither again. The rulesheet
    the revisions name is fetched and verified once, at the first include,
    under the head the revision came with, so that head's signature is
    checked once, and the supersession's fetch, under the same head, checks
    none."""
    import sys

    import cyberlog.claimlog as claimlog
    import cyberlog.identity as identity

    kb, rs_dom, rs_mrm = dom_setup
    r1 = mrm_commit(db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1)
    r2 = mrm_commit(db_client, identities, rs_mrm, r1.id, [GroundAtom("MRM", "feasible_config", (9, 1))], 2)
    operator = identities[OPERATOR].public_key
    proofs, heads = [], []
    verify_inclusion, verify_bytes = claimlog.verify_inclusion, identity.verify_bytes

    def counting_inclusion(root, leaf, proof):
        proofs.append(leaf)
        return verify_inclusion(root, leaf, proof)

    def counting_bytes(key, signature, message):
        if key == operator:
            heads.append(message)
        return verify_bytes(key, signature, message)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("cyberlog"):
            continue
        for binding, value in list(vars(module).items()):
            if value is verify_inclusion:
                monkeypatch.setattr(module, binding, counting_inclusion)
            elif value is verify_bytes:
                monkeypatch.setattr(module, binding, counting_bytes)
    log_reader = reader(db_client, identities)
    include_revision(kb, r1.id, log_reader)
    assert (len(proofs), len(heads)) == (2, 1)
    proofs.clear()
    heads.clear()
    on_superseded(kb, r1.id, r2.id, log_reader)
    assert (len(proofs), len(heads)) == (1, 0)
    assert kb.query(parse_query("verdict(R)", "DOM")) == [{"R": 9}]


def test_revision_holding_another_owners_claim_refused_at_fetch(db_client, identities, dom_setup):
    """A claim DB that serves a revision by MRM holding a claim of SB is refused."""
    kb, rs_dom, rs_mrm = dom_setup
    record = mrm_commit(
        db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1
    )
    forged, forged_body = build_record(
        "MRM", None, (), rs_mrm, [signed("SB", GroundAtom("SB", "request", (7, "d", 5)))], 1
    )

    class ForgingClient(CountingClient):
        def get_revision(self, rev_id):
            if rev_id != forged.id:
                return self.inner.get_revision(rev_id)
            # the logged revision's proof and head, around the forged payload
            payload = encode_payload(forged_body, sign_record(forged, identities["MRM"]))
            return dict(self.inner.get_revision(record.id), payload=payload)

    with pytest.raises(LogIntegrityError, match="holds a claim of 'SB'"):
        include_revision(kb, forged.id, reader(ForgingClient(db_client), identities))
    assert len(kb) == 0


class SwappingClient(CountingClient):
    """Serves the logged entry `served`, with its own head and proof, when asked for entry `asked`."""

    def __init__(self, inner, asked, served):
        super().__init__(inner)
        self.swap = {asked: served}

    def get_revision(self, rev_id):
        return super().get_revision(self.swap.get(rev_id, rev_id))


def test_revision_served_for_another_id_is_refused(db_client, identities, dom_setup):
    """A reader asked for one logged revision and served another, validly
    signed and proven, refuses it: its body hashes to another id."""
    _kb, _rs_dom, rs_mrm = dom_setup
    r1 = mrm_commit(db_client, identities, rs_mrm, None, [GroundAtom("MRM", "feasible_config", (7, 3))], 1)
    r2 = mrm_commit(db_client, identities, rs_mrm, r1.id, [], 2)
    with pytest.raises(LogIntegrityError, match=f"revision body hashes to {r1.id}, expected {r2.id}"):
        reader(SwappingClient(db_client, r2.id, r1.id), identities).revision(r2.id)


def test_rulesheet_served_for_another_hash_is_refused(db_client, identities, dom_setup):
    """A reader asked for one logged rulesheet and served another, proven
    in the log, refuses it: its text hashes to another hash."""
    _kb, rs_dom, rs_mrm = dom_setup
    mrm_sheet, dom_sheet = publish_rulesheet(db_client, rs_mrm), publish_rulesheet(db_client, rs_dom)
    with pytest.raises(LogIntegrityError, match=f"rulesheet hashes to {dom_sheet}, expected {mrm_sheet}"):
        reader(SwappingClient(db_client, mrm_sheet, dom_sheet), identities)(mrm_sheet, "MRM")


def test_commit_serialises_each_claim_once_in_committer_and_claim_db(db_client, identities, trust_store, monkeypatch):
    """Each logged claim is serialised exactly once by its committer, before
    it submits, in the record's order, and the claim DB, which admits a
    revision on its header, serialises none: also along a chain that logs
    the same claim objects again, the carry-overs and an unchanged claim,
    since no claim text outlives the commit that encoded it."""
    import cyberlog.revision as revision
    import cyberlog.wire as wire

    rs = parse_rulesheet(RETAIN_SHEET, "SB")
    in_process = signed("SB", GroundAtom("SB", "in_process", (1,)))
    claims = [signed("SB", GroundAtom("SB", "request", (n, "d", 5))) for n in range(4)] + [in_process]
    publish_rulesheet(db_client, rs)
    original, submit = wire.claim_to_obj, db_client.submit_revision
    calls, at_submit = [], []
    for module in (wire, revision):  # the encoder's entry point, wherever it is bound
        monkeypatch.setattr(module, "claim_to_obj", lambda claim, rs: calls.append(claim) or original(claim, rs))
    monkeypatch.setattr(db_client, "submit_revision", lambda payload: at_submit.append(len(calls)) or submit(payload))
    committer, ends = reader(db_client, identities), []

    def commit(base, claims, now_ms):
        record, _ = commit_staging(identities["SB"], rs, committer, base, (), claims, now_ms)
        ends.append(len(calls))
        return record, carry_overs(rs, record)

    record, carried = commit(None, claims, 3)
    second, again = commit(record.id, carried + [in_process], 4)
    third, _ = commit(second.id, again + [in_process], 5)
    assert len(carried) == 1 and again == carried and again[0] is second.by_atom[again[0].atom]
    assert third.claims == second.claims
    for logged, start, submitted, end in zip((record, second, third), [0] + ends, at_submit, ends):
        assert all(a is b for a, b in zip(calls[start:submitted], logged.claims))  # the committer's own objects
        assert calls[start:submitted] == list(logged.claims) and calls[submitted:end] == []
    monkeypatch.undo()
    payload = db_client.get_revision(record.id)["payload"]
    rebuilt, body = build_record("SB", None, (), rs, claims, 3)
    assert payload == encode_payload(body, sign_record(record, identities["SB"]))
    assert record == rebuilt
    assert decode_payload(payload, rulesheets_of(rs), trust_store) == record


def test_latest_revision_per_owner_independent(db_client, identities):
    rs_ctr = parse_rulesheet(CTR_SHEET, "CTR")
    rs_sb = parse_rulesheet(RETAIN_SHEET, "SB")
    r_ctr1, _, carried = commit(db_client, identities, rs_ctr, now_ms=1)
    r_sb1, _, _ = commit(db_client, identities, rs_sb, now_ms=2)
    r_ctr2, _, _ = commit(db_client, identities, rs_ctr, carried, r_ctr1.id, now_ms=3)
    assert latest_revision(db_client, "CTR") == (r_ctr2.id, 2)
    assert latest_revision(db_client, "SB") == (r_sb1.id, 1)


def test_head_matches_chain_walk_oracle(db_client, identities):
    rs = parse_rulesheet(CTR_SHEET, "CTR")
    claims = [signed("CTR", GroundAtom("CTR", "counter", (0,)))]
    ids = [record.id for record in commit_chain(db_client, identities, rs, claims, 4)]
    head_id, _ = latest_revision(db_client, "CTR")
    # walk back through supersedes links and compare
    walked = [head_id]
    cursor = head_id
    while True:
        record, _ = fetch_verified_revision(reader(db_client, identities), cursor)
        if record.supersedes is None:
            break
        cursor = record.supersedes
        walked.append(cursor)
    assert list(reversed(walked)) == ids


# --- the reader takes proofs only for the sizes of its heads ---------------------


def signed_head(identities, size, root):
    from cyberlog.claimlog import SignedTreeHead, tree_head_bytes
    from cyberlog.identity import sign_bytes

    return SignedTreeHead(size, root, 1, sign_bytes(identities[OPERATOR], tree_head_bytes(size, root, 1)))


class ConsistencyServer:
    """A claim DB that answers every consistency request with `proof`."""

    def __init__(self, proof):
        self.proof = proof

    def get_consistency(self, old_size, new_size):
        return self.proof


class ReceiptServer:
    """A claim DB that answers every submit with `receipt`."""

    def __init__(self, receipt):
        self.receipt = receipt

    def submit_revision(self, payload):
        return self.receipt


def test_reader_refuses_a_consistency_proof_for_other_sizes(identities, trust_store):
    """A reader at (10, R1) is offered a signed head of size 11 whose root
    is node(R1, X), with the proof that a tree of 1 grew to 2 by X. That
    proof verifies, but no honest tree of 11 has this root: the reader
    refuses the head and keeps its last one."""
    from hashlib import sha256

    from cyberlog.claimlog import ConsistencyProof, _node, verify_consistency
    from cyberlog.revision import LogReader

    r1, x = sha256(b"R1").digest(), sha256(b"X").digest()
    forged = ConsistencyProof(1, 2, (x,))
    assert verify_consistency(r1, _node(r1, x), forged)
    reader = LogReader(ConsistencyServer(forged.to_obj()), trust_store, identities[OPERATOR].public_key)
    reader.accept(signed_head(identities, 10, r1))
    last = reader.head
    with pytest.raises(LogIntegrityError, match="^split-view/tamper suspected: 10 -> 11$"):
        reader.accept(signed_head(identities, 11, _node(r1, x)))
    assert reader.head == last


def test_reader_refuses_an_inclusion_proof_in_a_tree_of_another_size(identities):
    """Under a head of size 3 whose root is node(leaf, S), the proof that
    the leaf is the first of a tree of 2 verifies, but no honest tree of 3
    has this root: the reader refuses the receipt that carries it."""
    from hashlib import sha256

    from cyberlog.claimlog import InclusionProof, _node, leaf_hash, verify_inclusion

    payload = '{"kind":"rulesheet","text":""}'
    leaf, s = leaf_hash(payload.encode("utf-8")), sha256(b"S").digest()
    forged = InclusionProof(0, 2, (s,))
    assert verify_inclusion(_node(leaf, s), leaf, forged)
    head = signed_head(identities, 3, _node(leaf, s))
    server = ReceiptServer({"tree_head": head.to_obj(), "inclusion_proof": forged.to_obj()})
    with pytest.raises(LogIntegrityError, match="^inclusion proof failed for rulesheet r1$"):
        reader(server, identities).submit("rulesheet", "r1", payload)


def test_decode_payload_never_crashes_on_mutations(db_client, identities, trust_store, monkeypatch):
    """Random single-character mutations of a real payload either decode to
    the same-or-different record or raise the log integrity error. The
    owner's signature check is stubbed to pass, so that mutations reach
    the parser behind it."""
    import random as random_mod

    import cyberlog.revision as revision
    from cyberlog.errors import LogIntegrityError

    rs = parse_rulesheet(CTR_SHEET, "CTR")
    claims = [signed("CTR", GroundAtom("CTR", "counter", (0,)))]
    record, _, _ = commit(db_client, identities, rs, claims, now_ms=3)
    payload = db_client.get_revision(record.id)["payload"]
    monkeypatch.setattr(revision, "verify_bytes", lambda _key, _signature, _message: True)
    rng = random_mod.Random(5)
    for _ in range(300):
        pos = rng.randrange(len(payload))
        mutated = payload[:pos] + chr(rng.randrange(32, 127)) + payload[pos + 1 :]
        try:
            decoded = decode_payload(mutated, rulesheets_of(rs), trust_store)
        except LogIntegrityError:
            continue
        if mutated != payload:
            # any surviving parse of different bytes must change the id
            assert decoded.id != record.id or decoded == record


# -- decoding: readers hash the body bytes inside the payload -------------------


def layout_payload(identities):
    rs = parse_rulesheet(CTR_SHEET, "CTR")
    record, body = build_record("CTR", None, (), rs, [], 1)
    return encode_payload(body, sign_record(record, identities["CTR"]))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: "",
        lambda p: "[]",
        lambda p: '{"kind":"rulesheet","text":""}',
        lambda p: p.replace('{"kind":"revision",', '{"kind": "revision",'),
        lambda p: p.replace('{"kind":"revision",', '{"kind":"revision" ,'),
        lambda p: p + "\n",
        lambda p: p[:-2] + ' "}',
        lambda p: p[:-3] + '"}',  # a signature one digit short
        lambda p: p[:-130] + p[-130:].upper(),
        lambda p: p.replace('"kind":"revision"', '"kind":"revisions"'),
        lambda p: p[:-2] + '","commit_time":1}',  # the signature not last
        lambda p: '{"kind":"revision",' + p[-144:],  # no body fields
        lambda p: p[: p.index(',"signature"')] + "}",
    ],
)
def test_decode_payload_refuses_payload_outside_revision_layout(identities, trust_store, mutate):
    payload = layout_payload(identities)
    rulesheet_of = rulesheets_of(parse_rulesheet(CTR_SHEET, "CTR"))
    decode_payload(payload, rulesheet_of, trust_store)
    with pytest.raises(LogIntegrityError):
        decode_payload(mutate(payload), rulesheet_of, trust_store)


def test_decode_payload_hashes_the_body_bytes_and_never_rebuilds(identities, trust_store, monkeypatch):
    import hashlib

    import cyberlog.revision as revision

    payload = layout_payload(identities)
    monkeypatch.setattr(revision, "build_record", None)
    monkeypatch.setattr(revision, "claim_to_obj", None)
    record = decode_payload(payload, rulesheets_of(parse_rulesheet(CTR_SHEET, "CTR")), trust_store)
    body = payload[len('{"kind":"revision",') : payload.index(',"signature":')]
    assert record.id == hashlib.sha256(("{" + body + "}").encode("utf-8")).hexdigest()


def test_spliced_payload_round_trips_through_decode(identities, trust_store):
    """For generated claims, decoding the payload spliced from
    `build_record`'s body gives back its record and id, the payload being in
    the canonical form every reader takes. Rule instances are
    instances of their rule's head, as only those have a wire form, and a
    carried claim's source is the revision its record supersedes."""
    from hypothesis import given, settings, strategies as st

    from cyberlog.engine import DerivedByRule

    rs = parse_rulesheet(RETAIN_SHEET + "request(Id, Data, T) :- ev(Id, Data, T).\n", "SB")
    carry, derive = rs.rules
    texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6)
    terms = st.one_of(st.integers(-(2**63), 2**63 - 1), texts)
    atoms = st.builds(GroundAtom, st.just("SB"), st.sampled_from(["p", "request", "ev"]), st.lists(terms, max_size=3).map(tuple))
    requests = st.tuples(terms, terms, terms).map(lambda args: GroundAtom("SB", "request", args))
    drawn = st.lists(
        st.one_of(
            st.tuples(st.just("direct"), atoms, st.none()),
            st.tuples(st.just("derived"), requests, st.none()),
            st.tuples(st.just("carried"), requests, st.none()),
        ),
        max_size=5,
    )
    ids = st.text("0123456789abcdef", min_size=64, max_size=64)

    def claim(kind, atom, extra, supersedes):
        if kind == "direct":
            return Claim(atom, DirectAssertion())
        if kind == "derived":
            substitution = {term.name: value for term, value in zip(derive.head.args, atom.args)}
            return Claim(atom, DerivedByRule(derive, substitution))
        substitution = {term.name: value for term, value in zip(carry.head.args, atom.args)}
        return Claim(atom, CarriedByNextRule(carry, substitution))

    @settings(max_examples=150, deadline=None)
    @given(drawn, st.none() | ids, st.lists(ids, max_size=3), st.integers(0, 2**53))
    def check(drawn, supersedes, includes, commit_time):
        kept = [claim(*d, supersedes) for d in drawn if supersedes is not None or d[0] != "carried"]
        claims = list({c.atom: c for c in kept}.values())  # one claim per atom
        record, body = build_record("SB", supersedes, includes, rs, claims, commit_time)
        payload = encode_payload(body, sign_record(record, identities["SB"]))
        decoded = decode_payload(payload, rulesheets_of(rs), trust_store)
        assert (decoded, decoded.id) == (record, record.id)

    check()


def test_non_canonical_revisions_are_refused_at_submit_and_on_replay(identities, trust_store):
    """Along chains of SB revisions built from random direct, derived and
    carried claims, each keeping some claim objects of the last one logged,
    some payloads mutated and signed again. The claim database admits a
    revision on its header, so it logs every payload but a second chain
    root, which it refuses with 409. A reader (`decode_payload`) refuses
    with LogIntegrityError a payload the mutation made non-canonical
    (whitespace, a claim's keys reordered or repeated, a claim repeated, a
    carried claim in a chain root), and accepts a claim's evidence changed
    under its atom exactly when that claim decodes and encodes again to the
    changed text. Replaying a log of every payload, refused ones too,
    indexes exactly what submit logged."""
    import hashlib
    import json

    from hypothesis import given, settings, strategies as st

    from cyberlog.claimdb import ClaimDb
    from cyberlog.claimlog import MerkleLog
    from cyberlog.engine import DerivedByRule
    from cyberlog.errors import SubmitError
    from cyberlog.identity import sign_bytes
    from cyberlog.wire import canonical_json, claim_from_obj, claim_to_obj

    rs = parse_rulesheet(RETAIN_SHEET + "request(Id, Data, T) :- ev(Id, Data, T).\n", "SB")
    carry, derive = rs.rules
    evidences = ['{"kind":"direct_assertion"}', '{"kind":"derived_by_rule","rule":1}', '{"kind":"carried_by_next_rule","rule":0}']
    terms = st.one_of(st.integers(0, 2), st.sampled_from(["a", "b"]))  # few atoms, so claims recur
    requests = st.tuples(terms, terms, terms).map(lambda args: GroundAtom("SB", "request", args))
    atoms = st.one_of(requests, terms.map(lambda arg: GroundAtom("SB", "in_process", (arg,))))
    drawn = st.one_of(st.tuples(st.just("direct"), atoms), st.tuples(st.sampled_from(["derived", "carried"]), requests))

    def claim(kind, atom):
        if kind == "direct":
            return Claim(atom, DirectAssertion())
        rule = derive if kind == "derived" else carry
        substitution = {term.name: value for term, value in zip(rule.head.args, atom.args)}
        return Claim(atom, (DerivedByRule if kind == "derived" else CarriedByNextRule)(rule, substitution))

    def other_evidence(text):
        at = text.index(',"evidence":') + len(',"evidence":')
        return text[:at] + evidences[(evidences.index(text[at:-1]) + 1) % len(evidences)] + "}"

    def reordered(text):
        obj = json.loads(text)
        return canonical_json({"evidence": obj["evidence"], "atom": obj["atom"]})

    mutations = {
        "space-between-claims": lambda body, text: body.replace('"claims":[', '"claims": [', 1),
        "space-in-claim": lambda body, text: body.replace(text, text.replace('":', '": ', 1), 1),
        "reordered-keys": lambda body, text: body.replace(text, reordered(text), 1),
        "repeated-key": lambda body, text: body.replace(text, text[:-1] + text[text.index(',"evidence":') :], 1),
        "changed-evidence": lambda body, text: body.replace(text, other_evidence(text), 1),
        "repeated-claim": lambda body, text: body.replace(text, text + "," + text, 1),
    }
    steps = st.lists(
        st.tuples(
            st.lists(st.booleans(), max_size=10),
            st.lists(drawn, max_size=4),
            st.sampled_from([None, None, None, "carried-in-root", *sorted(mutations)]),
            st.integers(0, 9),
        ),
        min_size=1,
        max_size=5,
    )

    def expected(mutation, supersedes, claims, text, has_head):
        """What becomes of a payload mutated at a claim's `text`: 409 if the
        claim database refuses it, else whether readers accept it once it is
        logged, "accepted" or "refused"."""
        if mutation == "carried-in-root":
            if has_head:
                return 409
            return "refused" if any(isinstance(c.evidence, CarriedByNextRule) for c in claims) else "accepted"
        if mutation is None or text is None:
            return "accepted"
        if mutation == "changed-evidence":
            changed = other_evidence(text)
            try:
                decoded = claim_from_obj(json.loads(changed), rs)
            except EvidenceError:
                return "refused"
            if supersedes is None and isinstance(decoded.evidence, CarriedByNextRule):
                return "refused"  # a chain root holds no carried claim
            return "accepted" if claim_to_obj(decoded, rs) == changed else "refused"
        return "refused"

    @settings(max_examples=120, deadline=None)
    @given(steps)
    def check(steps):
        db = ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1)
        publish_rulesheet(db, rs)
        payloads = [db.log.payload(0)]
        kept: list[Claim] = []  # the claim objects of the last revision readers accept
        for t, (keep, new, mutation, pick) in enumerate(steps):
            head = db._heads.get("SB")
            supersedes = None if head is None or mutation == "carried-in-root" else head.revision_id
            # a chain root takes every claim of the last revision logged
            claims = {c.atom: c for c, keeping in zip(kept, keep) if keeping or mutation == "carried-in-root"}
            for kind, atom in new:
                claims.setdefault(atom, claim(kind, atom))
            if supersedes is None and mutation != "carried-in-root":
                claims = {a: c for a, c in claims.items() if not isinstance(c.evidence, CarriedByNextRule)}
            record, body = build_record("SB", supersedes, (), rs, claims.values(), t)
            texts = [claim_to_obj(c, rs) for c in record.claims]
            text = texts[pick % len(texts)] if texts else None
            if mutation in mutations and text is not None:
                body = mutations[mutation](body, text)
            want = expected(mutation, supersedes, record.claims, text, head is not None)
            signature = sign_bytes(identities["SB"], hashlib.sha256(body.encode("utf-8")).digest())
            payload = encode_payload(body, signature)
            payloads.append(payload.encode("utf-8"))
            try:
                outcome = db.submit_revision(payload)["revision_id"]
            except SubmitError as exc:
                outcome = exc.code
            rev_id = hashlib.sha256(body.encode("utf-8")).hexdigest()
            assert outcome == (409 if want == 409 else rev_id), mutation
            if want == "refused":
                with pytest.raises(LogIntegrityError):
                    decode_payload(payload, rulesheets_of(rs), trust_store)
            elif want == "accepted":
                kept = list(decode_payload(payload, rulesheets_of(rs), trust_store).claims)
        log = MerkleLog()
        for payload in payloads:
            log.append(payload)
        replayed = ClaimDb(log, identities[OPERATOR], trust_store, clock=lambda: 1)
        assert set(replayed._entries) == set(db._entries) and replayed._heads == db._heads

    check()


# -- a logged rule instance is evaluated once ----------------------------------

ONCE_SHEET = (
    "'SB': Subject: 's' Issuer: 'i'\n"
    "verdict(Id) :- request(Id).\n"
    "next carried(Id) :- request(Id), Id > 5.\n"
)
ONCE_RS = parse_rulesheet(ONCE_SHEET, "SB")


def _sb_claim(kind, n):
    """SB's direct `request(n)`, derived `verdict(n)` or carried `carried(n)`."""
    from cyberlog.engine import DerivedByRule

    if kind == "request":
        return Claim(GroundAtom("SB", "request", (n,)), DirectAssertion())
    rule = ONCE_RS.rules[0 if kind == "verdict" else 1]
    evidence = (DerivedByRule if kind == "verdict" else CarriedByNextRule)(rule, {"Id": n})
    return Claim(GroundAtom("SB", kind, (n,)), evidence)


def _log_once(db, identities, claims, supersedes, now):
    """Log SB's revision of `claims` (kind, n) over `supersedes` under ONCE_RS; returns its record."""
    record, body = build_record("SB", supersedes, (), ONCE_RS, [_sb_claim(*c) for c in claims], now)
    db.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))
    return record


def _counting_evaluations(monkeypatch):
    """Record the head predicate of each rule instance whose body is grounded
    (`engine._body_atoms`) and of each run of a rule instance's plan
    (`engine._body_plan`)."""
    import cyberlog.engine as engine

    grounded, ran = [], []
    body_atoms, body_plan = engine._body_atoms, engine._body_plan

    def counted_plan(rule):
        plan = body_plan(rule)
        return plan._replace(match=lambda *args: ran.append(rule.head.predicate) or plan.match(*args))

    monkeypatch.setattr(engine, "_body_atoms", lambda rule, s: grounded.append(rule.head.predicate) or body_atoms(rule, s))
    monkeypatch.setattr(engine, "_body_plan", counted_plan)
    return grounded, ran


def test_a_supersession_evaluates_only_its_changed_rule_instances(db, identities, trust_store, monkeypatch):
    """A reader that accepted a revision evaluates, for its successor, only
    the rule instances that changed: each claim equal to one of the
    revision it supersedes is that claim object. A fresh Auditor evaluates
    each rule instance of a chain once while it stays unchanged, on
    accepting the chain, and auditing the accepted head evaluates none."""
    from cyberlog.audit import Auditor

    publish_rulesheet(db, ONCE_RS)
    r1 = _log_once(db, identities, [("request", 6), ("request", 7), ("verdict", 6), ("verdict", 7)], None, 1)
    changed = [("request", 7), ("request", 8), ("verdict", 7), ("verdict", 8), ("carried", 6), ("carried", 7)]
    r2 = _log_once(db, identities, changed, r1.id, 2)
    r3 = _log_once(db, identities, [("request", 7), ("verdict", 7), ("carried", 7), ("carried", 8)], r2.id, 3)
    grounded, ran = _counting_evaluations(monkeypatch)
    chain_reader = reader(db, identities)
    counts = []
    for record in (r1, r2, r3):
        chain_reader.revision(record.id)
        counts.append((sorted(grounded), sorted(ran)))
        grounded.clear()
        ran.clear()
    evaluated = [["verdict", "verdict"], ["carried", "carried", "verdict"], ["carried"]]
    assert counts == [(instances, instances) for instances in evaluated]
    accepted = [chain_reader.revision(record.id)[0] for record in (r1, r2, r3)]
    verdict, carried = GroundAtom("SB", "verdict", (7,)), GroundAtom("SB", "carried", (7,))
    assert accepted[2].by_atom[verdict] is accepted[1].by_atom[verdict] is accepted[0].by_atom[verdict]
    assert accepted[2].by_atom[carried] is accepted[1].by_atom[carried]

    auditor = Auditor(db, trust_store, identities[OPERATOR].public_key)
    auditor.fetch_revision(r3.id)
    assert (len(grounded), len(ran)) == (6, 6)
    grounded.clear()
    ran.clear()
    nodes = auditor.audit_head("SB")
    assert (grounded, ran) == ([], [])
    assert len(nodes) == 4 and all(node.all_ok for node in nodes)


def test_a_kept_derivation_whose_premise_was_dropped_is_refused(db, identities, trust_store, monkeypatch):
    """r2 keeps r1's derived `verdict(7)`, equal to r1's claim, but drops its
    premise `request(7)`. A reader that accepted r1 takes r1's claim
    object, evaluating nothing, and still looks the premise up in r2, so it
    refuses r2 naming `verdict(7)`; so do a fresh reader and the Auditor."""
    from cyberlog.errors import UnsupportedClaimError
    from conftest import audit_agrees_with_reader

    publish_rulesheet(db, ONCE_RS)
    r1 = _log_once(db, identities, [("request", 7), ("verdict", 7)], None, 1)
    r2 = _log_once(db, identities, [("verdict", 7)], r1.id, 2)
    chain_reader = reader(db, identities)
    kept = chain_reader.revision(r1.id)[0].by_atom[GroundAtom("SB", "verdict", (7,))]
    grounded, ran = _counting_evaluations(monkeypatch)
    refusal = rf"revision {r2.id[:8]} by 'SB' holds an unsupported claim \"SB\"\|verdict\(7\): premise \"SB\"\|request\(7\)"
    with pytest.raises(UnsupportedClaimError, match=refusal) as exc:
        chain_reader.revision(r2.id)
    assert exc.value.claim is kept and (grounded, ran) == ([], [])
    assert not audit_agrees_with_reader(db, trust_store, identities[OPERATOR].public_key, "SB")


def test_a_kept_carry_over_whose_source_lacks_its_premise_is_refused(db, identities, trust_store, monkeypatch):
    """r2 carries `carried(7)` from r1, which holds `request(7)`; r3 logs the
    same carried claim, equal to r2's, though r2, its source, holds no
    `request(7)`. A reader that accepted r2 takes r2's claim object,
    evaluating nothing, and still looks the premise up in r2, so it refuses
    r3 naming `carried(7)`; so do a fresh reader and the Auditor."""
    from cyberlog.audit import Auditor
    from cyberlog.engine import canonical_atom
    from cyberlog.errors import UnsupportedClaimError
    from conftest import audit_agrees_with_reader

    publish_rulesheet(db, ONCE_RS)
    r1 = _log_once(db, identities, [("request", 7)], None, 1)
    r2 = _log_once(db, identities, [("carried", 7)], r1.id, 2)
    r3 = _log_once(db, identities, [("carried", 7)], r2.id, 3)
    chain_reader = reader(db, identities)
    kept = chain_reader.revision(r2.id)[0].by_atom[GroundAtom("SB", "carried", (7,))]
    grounded, ran = _counting_evaluations(monkeypatch)
    refusal = rf"revision {r3.id[:8]} by 'SB' holds an unsupported claim \"SB\"\|carried\(7\): premise \"SB\"\|request\(7\)"
    with pytest.raises(UnsupportedClaimError, match=refusal) as exc:
        chain_reader.revision(r3.id)
    assert exc.value.claim is kept and (grounded, ran) == ([], [])
    [node] = Auditor(db, trust_store, identities[OPERATOR].public_key).audit_head("SB")
    assert node.atom == canonical_atom(kept.atom) and not node.all_ok
    assert not audit_agrees_with_reader(db, trust_store, identities[OPERATOR].public_key, "SB")
