"""Claim revision control: staging, commit, supersede/include, next-rules.

A committed revision is an immutable snapshot of a monitor's own claims.
Its id is the SHA-256 of the canonical record body; the owner's signature
over that id is part of the logged payload, which is exactly the byte
string the Merkle leaf hashes. Revisions form a linear supersedes chain
per owner; claims of other owners' revisions are imported by inclusion,
justified by inclusion proofs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Iterable, Protocol, Sequence

from .claimlog import InclusionProof, SignedTreeHead, leaf_hash, verify_inclusion, verify_tree_head
from .engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    GroundAtom,
    KnowledgeBase,
    LogInclusion,
    atom_id,
    canonical_atom,
    instantiate_head,
    match_rule_body,
    rule_substitution,
)
from .errors import CyberlogError, EvidenceError, LogIntegrityError
from .identity import Identity, sign_bytes, verify_bytes
from .lang import RelationalAtom, RuleKind, Rulesheet
from .wire import canonical_json, claim_from_obj, claim_to_obj


class LogClient(Protocol):
    """Transport-agnostic claim database client: a `ClaimDb` itself, or
    `HttpLogClient` over HTTP."""

    def submit_revision(self, payload: str) -> dict: ...

    def get_revision(self, rev_id: str) -> dict: ...

    def get_head(self, owner: str) -> dict: ...

    def get_log_root(self) -> dict: ...

    def get_consistency(self, old_size: int, new_size: int) -> dict: ...

    def get_inclusion(self, index: int, size: int) -> dict: ...


@dataclass(frozen=True)
class RevisionRecord:
    id: str
    owner: str
    supersedes: str | None
    includes: tuple[str, ...]
    rulesheet_hash: str
    claims: tuple[Claim, ...]
    commit_time: int


@dataclass
class StagingRevision:
    """Transient pre-commit claim set; never hashed or signed itself."""

    owner: str
    claims: list[Claim] = field(default_factory=list)
    includes: list[str] = field(default_factory=list)
    base: str | None = None


# ---------------------------------------------------------------------------
# Record serialization


def _record_body_obj(owner, supersedes, includes, rulesheet_hash, claims, commit_time) -> dict:
    return {
        "owner": owner,
        "supersedes": supersedes,
        "includes": list(includes),
        "rulesheet_hash": rulesheet_hash,
        "claims": [claim_to_obj(c) for c in claims],
        "commit_time": commit_time,
    }


def record_body_obj(record: RevisionRecord) -> dict:
    return _record_body_obj(
        record.owner, record.supersedes, record.includes, record.rulesheet_hash, record.claims, record.commit_time
    )


def build_record(
    owner: str,
    supersedes: str | None,
    includes: Iterable[str],
    rulesheet_hash: str,
    claims: Iterable[Claim],
    commit_time: int,
) -> RevisionRecord:
    ordered_claims = tuple(sorted(claims, key=lambda c: canonical_atom(c.atom)))
    includes_t = tuple(sorted(set(includes)))
    body = _record_body_obj(owner, supersedes, includes_t, rulesheet_hash, ordered_claims, commit_time)
    rev_id = sha256(canonical_json(body).encode("utf-8")).hexdigest()
    return RevisionRecord(rev_id, owner, supersedes, includes_t, rulesheet_hash, ordered_claims, commit_time)


def sign_record(record: RevisionRecord, identity: Identity) -> bytes:
    return sign_bytes(identity, bytes.fromhex(record.id))


def verify_record_signature(record: RevisionRecord, signature: bytes, public_key: bytes) -> bool:
    return verify_bytes(public_key, signature, bytes.fromhex(record.id))


def encode_payload(record: RevisionRecord, signature: bytes) -> str:
    obj = {"kind": "revision"}
    obj.update(record_body_obj(record))
    obj["signature"] = signature.hex()
    return canonical_json(obj)


def encode_rulesheet_payload(text: str) -> str:
    return canonical_json({"kind": "rulesheet", "text": text})


def rulesheet_entry_id(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def decode_payload(payload: str) -> tuple[RevisionRecord, bytes]:
    """Parse and re-hash a logged revision payload; raises on malformed data."""
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        raise LogIntegrityError(f"revision payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "revision":
        raise LogIntegrityError("payload is not a revision record")
    try:
        claims = tuple(claim_from_obj(c) for c in obj["claims"])
        record = build_record(
            obj["owner"],
            obj["supersedes"],
            obj["includes"],
            obj["rulesheet_hash"],
            claims,
            int(obj["commit_time"]),
        )
        signature = bytes.fromhex(obj["signature"])
    except (KeyError, TypeError, ValueError, EvidenceError) as exc:
        raise LogIntegrityError(f"malformed revision record: {exc}") from exc
    return record, signature


# ---------------------------------------------------------------------------
# Operations


def apply_next_rules(
    record: RevisionRecord, rs: Rulesheet, included_claims: Sequence[Claim] = ()
) -> list[Claim]:
    """Heads of next-rules whose bodies hold in the committed snapshot.

    Bodies match the committed revision's claims plus the claims of the
    revisions it includes; each distinct head atom is emitted once with
    carried-forward evidence naming the source revision.
    """
    pool: dict[tuple[str, str], list[Claim]] = {}
    for claim in list(record.claims) + list(included_claims):
        pool.setdefault((claim.atom.principal, claim.atom.predicate), []).append(claim)

    def candidates(_i: int, atom: RelationalAtom):
        return pool.get((atom.principal, atom.predicate), ())

    carried: dict[GroundAtom, Claim] = {}
    for rule in rs.rules:
        if rule.kind is not RuleKind.NEXT:
            continue
        for subst, _premises in match_rule_body(rule.body, candidates):
            atom = instantiate_head(rule.head, subst)
            if atom not in carried:
                evidence = CarriedByNextRule(rule, rule_substitution(rule, subst), record.id)
                carried[atom] = Claim(atom, evidence, atom_id(atom))
    return list(carried.values())


def commit_staging(
    staging: StagingRevision,
    rs: Rulesheet,
    db: LogClient,
    identity: Identity,
    now_ms: int,
    included_claims: Sequence[Claim] = (),
) -> tuple[RevisionRecord, dict, StagingRevision]:
    """Commit the staging revision; returns (record, receipt, fresh staging).

    The fresh staging holds the next-rule carry-overs and supersedes the
    just-committed record. Raises SubmitError if the claim database refuses;
    the caller keeps its staging in that case.
    """
    if identity.name != staging.owner or rs.self_id != staging.owner:
        raise EvidenceError(f"staging owner {staging.owner!r} does not match identity/rulesheet")
    record = build_record(
        owner=staging.owner,
        supersedes=staging.base,
        includes=staging.includes,
        rulesheet_hash=rs.source_hash.hex(),
        claims=staging.claims,
        commit_time=now_ms,
    )
    payload = encode_payload(record, sign_record(record, identity))
    receipt = db.submit_revision(payload)
    head = SignedTreeHead.from_obj(receipt["tree_head"])
    proof = InclusionProof.from_obj(receipt["inclusion_proof"])
    if not verify_inclusion(head.root_hash, leaf_hash(payload.encode("utf-8")), proof):
        raise LogIntegrityError("submit receipt inclusion proof does not verify")
    carried = apply_next_rules(record, rs, included_claims)
    fresh = StagingRevision(owner=staging.owner, claims=carried, includes=[], base=record.id)
    return record, receipt, fresh


def fetch_verified_revision(
    db: LogClient, rev_id: str, operator_key: bytes | None = None
) -> tuple[RevisionRecord, str, InclusionProof, SignedTreeHead]:
    """Fetch a revision and verify payload hash, inclusion proof and head."""
    response = db.get_revision(rev_id)
    payload = response["payload"]
    record, _signature = decode_payload(payload)
    if record.id != rev_id:
        raise LogIntegrityError(f"revision body hashes to {record.id}, expected {rev_id}")
    proof = InclusionProof.from_obj(response["proof"])
    head = SignedTreeHead.from_obj(response["tree_head"])
    if not verify_inclusion(head.root_hash, leaf_hash(payload.encode("utf-8")), proof):
        raise LogIntegrityError(f"inclusion proof failed for revision {rev_id}")
    if operator_key is not None and not verify_tree_head(head, operator_key):
        raise LogIntegrityError("tree head signature invalid")
    return record, payload, proof, head


def include_revision(
    kb: KnowledgeBase, rev_id: str, db: LogClient, staging: StagingRevision | None = None,
    warn_stale: bool = True,
) -> list[Claim]:
    """Import all claims of a logged revision into the KB under inclusion
    evidence. Refuses everything if the proof chain does not verify.

    Including a revision that its owner has already superseded is allowed
    but flagged, since its claims may be retracted knowledge. Callers that
    are themselves reconciling a supersession pass warn_stale=False.
    """
    record, payload, proof, head = fetch_verified_revision(db, rev_id, kb.log_operator_key)
    if warn_stale:
        try:
            owner_head = db.get_head(record.owner)["revision_id"]
        except CyberlogError:
            owner_head = rev_id
        if owner_head != rev_id:
            warnings.warn(
                f"including revision {rev_id[:8]} of {record.owner!r}, which is superseded by {owner_head[:8]}",
                RuntimeWarning,
                stacklevel=2,
            )
    leaf = leaf_hash(payload.encode("utf-8"))
    added: list[Claim] = []
    for claim in record.claims:
        wrapped = Claim(claim.atom, LogInclusion(rev_id, leaf, proof, head), claim.claim_id)
        if kb.assert_claim(wrapped):
            added.append(wrapped)
    if staging is not None and rev_id not in staging.includes:
        staging.includes.append(rev_id)
    return added


def supersession_chain(db: LogClient, new_rev_id: str, old_rev_id: str, operator_key: bytes | None = None) -> list[str]:
    """Revision ids from new (exclusive) back to old (inclusive), following
    supersedes links. Raises EvidenceError if the chain never reaches old or
    crosses owners."""
    chain: list[str] = []
    record, _, _, _ = fetch_verified_revision(db, new_rev_id, operator_key)
    owner = record.owner
    cursor = record.supersedes
    while cursor is not None:
        chain.append(cursor)
        older, _, _, _ = fetch_verified_revision(db, cursor, operator_key)
        if older.owner != owner:
            raise EvidenceError(f"supersession crosses owners: {older.owner!r} vs {owner!r}")
        if cursor == old_rev_id:
            return chain
        cursor = older.supersedes
    raise EvidenceError(f"revision {new_rev_id} does not supersede {old_rev_id}")


def on_superseded(
    kb: KnowledgeBase,
    old_rev_id: str,
    new_rev_id: str,
    rs: Rulesheet,
    db: LogClient,
) -> KnowledgeBase:
    """Successor of the KB after a watched revision was superseded.

    Claims rooted in the replaced chain (their inclusions and every
    derivation downstream) disappear; the new revision's claims are
    included; standard rules re-saturate from scratch. The kept claims'
    evidence is checked again in the successor, without re-verifying the
    signatures the old KB already verified (see `KnowledgeBase.successor`).
    """
    dropped = set(supersession_chain(db, new_rev_id, old_rev_id, kb.log_operator_key))
    dropped.add(old_rev_id)
    rebuilt = kb.successor(
        claim
        for claim in kb.claims.values()
        if not isinstance(claim.evidence, DerivedByRule)  # recomputed by saturation
        and not (isinstance(claim.evidence, LogInclusion) and claim.evidence.revision_id in dropped)
    )
    include_revision(rebuilt, new_rev_id, db, warn_stale=False)
    rebuilt.saturate(rs)
    return rebuilt


def latest_revision(db: LogClient, owner: str) -> tuple[str, int]:
    """Head revision id and chain length for an owner."""
    head = db.get_head(owner)
    return head["revision_id"], int(head["chain_length"])
