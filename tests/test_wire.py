"""Claim/evidence wire round trips (line-delimited export)."""

import json

from cyberlog.engine import CarriedByNextRule, DirectAssertion, GroundAtom, make_claim
from cyberlog.lang import parse_rulesheet
from cyberlog.wire import canonical_json, claim_from_obj, claim_to_obj

from conftest import claims_from_atoms

IDS = "'SB': Subject: 's' Issuer: 'i'\n'OM': Subject: 's' Issuer: 'i'\n"


def claims_to_jsonl(claims):
    """Line-delimited export: one canonical atom + evidence object per line."""
    return "".join(canonical_json(claim_to_obj(c)) + "\n" for c in claims)


def claims_from_jsonl(text):
    return [claim_from_obj(json.loads(line)) for line in text.splitlines() if line.strip()]


def test_claims_jsonl_roundtrip():
    rs = parse_rulesheet(IDS + "v(R) :- 'OM' attests t(R, A), R > 0.", "SB")
    claims = [
        make_claim(GroundAtom("OM", "t", (7, "x")), DirectAssertion("OM", b"\x01\x02")),
        make_claim(
            GroundAtom("SB", "v", (7,)),
            CarriedByNextRule(rs.rules[0], {"R": 7, "A": "x"}, "ab" * 32),
        ),
    ]
    text = claims_to_jsonl(claims)
    assert len(text.splitlines()) == 2
    back = claims_from_jsonl(text)
    assert back == claims


def test_derived_claim_roundtrip_preserves_rule():
    from cyberlog.engine import KnowledgeBase

    rs = parse_rulesheet(IDS + "good(R) :- 'OM' attests t(R, A).", "SB")
    kb = KnowledgeBase(rs)
    for claim in claims_from_atoms([GroundAtom("OM", "t", (3, "y"))]):
        kb.assert_claim(claim)
    kb.saturate()
    derived = kb.claims[GroundAtom("SB", "good", (3,))]
    restored = claim_from_obj(claim_to_obj(derived))
    assert restored.evidence.rule == derived.evidence.rule
    assert restored.evidence.substitution == dict(derived.evidence.substitution)
    assert restored.claim_id == derived.claim_id


def test_inclusion_evidence_has_no_wire_form():
    """Inclusion evidence lives in a watcher's KB only; no logged claim
    carries it, so it neither encodes nor decodes."""
    import pytest

    from cyberlog.claimlog import InclusionProof, MerkleLog, SignedTreeHead
    from cyberlog.engine import LogInclusion
    from cyberlog.errors import EvidenceError
    from cyberlog.wire import evidence_from_obj, evidence_to_obj

    log = MerkleLog()
    log.append(b"entry")
    proof, head = log.prove_inclusion(0, 1), SignedTreeHead(1, log.root(), 1, bytes(64))
    with pytest.raises(EvidenceError, match="unknown evidence type LogInclusion"):
        evidence_to_obj(LogInclusion("ab" * 32, bytes(32), proof, head))
    obj = {
        "kind": "log_inclusion",
        "revision_id": "ab" * 32,
        "leaf_hash": "00" * 32,
        "proof": proof.to_obj(),
        "tree_head": head.to_obj(),
    }
    assert InclusionProof.from_obj(obj["proof"]) == proof
    with pytest.raises(EvidenceError, match="unknown evidence kind 'log_inclusion'"):
        evidence_from_obj(obj)
