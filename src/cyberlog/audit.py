"""Recursive evidence verification against the claim database.

Audits reconstruct how a claim was made. Each claim's own evidence goes
through the engine's `check_evidence` and each rule instance's side
conditions through `rule_premises`, the checker the knowledge base uses
too; the auditor adds the signature check of each direct assertion,
fetches revisions and resolves premises. Foreign premises are resolved
through the auditing revision's includes, terminating in verified log
inclusions. An optional trusted-heads cache
adds an append-only consistency check of the whole log first, which is
what catches byte tampering outside the audited evidence path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .claimlog import ConsistencyProof, SignedTreeHead, verify_consistency, verify_tree_head
from .engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    GroundAtom,
    canonical_atom,
    check_evidence,
    rule_premises,
)
from .errors import CyberlogError, EvidenceError, LogIntegrityError, NotFoundError
from .identity import TrustStore, verify_bytes
from .revision import LogClient, LogReader, RevisionRecord, fetch_verified_revision


@dataclass
class AuditNode:
    atom: str
    kind: str
    ok: bool
    detail: str
    children: list["AuditNode"] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.ok and all(child.all_ok for child in self.children)

    def to_obj(self) -> dict:
        return {
            "atom": self.atom,
            "kind": self.kind,
            "ok": self.ok,
            "detail": self.detail,
            "children": [c.to_obj() for c in self.children],
        }


def render_audit_tree(node: AuditNode, indent: int = 0) -> str:
    mark = "ok  " if node.ok else "FAIL"
    lines = [f"{'  ' * indent}[{mark}] {node.atom} <- {node.kind}: {node.detail}"]
    for child in node.children:
        lines.append(render_audit_tree(child, indent + 1))
    return "\n".join(lines)


_KINDS = {
    DirectAssertion: "direct_assertion",
    DerivedByRule: "derived_by_rule",
    CarriedByNextRule: "carried_by_next_rule",
}


class Auditor:
    """Audits claims read through `db`, each fetched revision's tree head
    checked under `operator_key`, or not at all when that is None (an
    offline audit of a log file, whose heads no operator signed)."""

    def __init__(self, db: LogClient, trust_store: TrustStore, operator_key: bytes | None):
        self.trust_store = trust_store
        self._revisions: dict[str, RevisionRecord] = {}
        self.reader = LogReader(db, operator_key)

    # -- revision access -------------------------------------------------

    def fetch_revision(self, rev_id: str) -> RevisionRecord:
        cached = self._revisions.get(rev_id)
        if cached is not None:
            return cached
        record, _inclusion = fetch_verified_revision(self.reader, rev_id)
        self._revisions[rev_id] = record
        return record

    # -- entry points ------------------------------------------------------

    def audit_atom(self, owner: str, atom: GroundAtom) -> AuditNode:
        """Audit one atom of the owner's head revision."""
        head = self.reader.db.get_head(owner)["revision_id"]
        record = self.fetch_revision(head)
        claim = record.by_atom.get(atom)
        if claim is None:
            raise NotFoundError(f"atom {canonical_atom(atom)} not in head revision {head} of {owner!r}")
        return self.audit_claim(record, claim)

    def audit_head(self, owner: str) -> list[AuditNode]:
        """Audit every claim in the owner's head revision."""
        head = self.reader.db.get_head(owner)["revision_id"]
        record = self.fetch_revision(head)
        return [self.audit_claim(record, claim) for claim in record.claims]

    # -- recursive verification ---------------------------------------------

    def audit_claim(self, record: RevisionRecord, claim: Claim, depth: int = 0) -> AuditNode:
        """Check the claim's evidence with the engine's checker and a direct
        assertion's signature under its signer's trusted key, then audit its
        premises: a rule instance's own premises in `record`, a carried
        claim's in its source revision."""
        if depth > 500:
            return self._fail(claim.atom, "depth", "evidence chain exceeds depth limit")
        ev = claim.evidence
        kind = _KINDS.get(type(ev), "unknown")
        try:
            check_evidence(claim)
            node = AuditNode(canonical_atom(claim.atom), kind, True, "")
            if isinstance(ev, DirectAssertion):
                key = self.trust_store.public_key(ev.signer)
                if key is None:
                    raise EvidenceError(f"no trusted key for signer {ev.signer!r}")
                if not verify_bytes(key, ev.signature, canonical_atom(claim.atom).encode("utf-8")):
                    raise EvidenceError(f"bad signature by {ev.signer!r} on {canonical_atom(claim.atom)}")
                node.detail = f"signed by {ev.signer}"
            else:  # a rule instance: a logged claim carries no other kind
                source = record
                node.detail = "rule re-derivation checked"
                if isinstance(ev, CarriedByNextRule):
                    source = self.fetch_revision(ev.source_revision)
                    node.detail = f"carried from revision {ev.source_revision[:8]}"
                for atom in rule_premises(ev.rule, ev.substitution):
                    node.children.append(self._audit_premise(source, atom, depth + 1))
            return node
        except CyberlogError as exc:
            return self._fail(claim.atom, kind, str(exc))

    def _fail(self, atom: GroundAtom, kind: str, detail: str) -> AuditNode:
        return AuditNode(canonical_atom(atom), kind, False, detail)

    def _audit_premise(self, record: RevisionRecord, premise: GroundAtom, depth: int) -> AuditNode:
        """Audit the premise atom: an own claim of `record` is audited in
        turn, and a claim of a revision `record` includes rests on that
        revision's verified fetch."""
        claim = record.by_atom.get(premise)
        if claim is not None:
            return self.audit_claim(record, claim, depth)
        for rev_id in record.includes:
            try:
                included = self.fetch_revision(rev_id)
            except (LogIntegrityError, NotFoundError) as exc:
                return self._fail(premise, "log_inclusion", f"included revision {rev_id[:8]} unusable: {exc}")
            if premise in included.by_atom:
                detail = f"included from {rev_id[:8]}, fetched with verified proof"
                return AuditNode(canonical_atom(premise), "log_inclusion", True, detail)
        return self._fail(premise, "premise", f"premise not found in revision {record.id[:8]} or its includes")


# ---------------------------------------------------------------------------
# Trusted-heads cache and log consistency verification


def load_heads_cache(path: str) -> list[SignedTreeHead]:
    """The signed tree heads cached in `path`, one JSON object a line; none
    if the file does not exist. Raises LogIntegrityError naming the file
    and line of an entry that is not a tree head."""
    heads = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    heads.append(SignedTreeHead.from_obj(json.loads(line)))
                except (KeyError, TypeError, ValueError) as exc:
                    raise LogIntegrityError(f"{path}:{number}: not a signed tree head: {exc!r}") from exc
    except FileNotFoundError:
        pass
    return heads


def append_heads_cache(path: str, head: SignedTreeHead) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(head.to_obj()) + "\n")


@dataclass
class LogCheck:
    old_size: int
    new_size: int
    ok: bool
    detail: str


def verify_log_consistency(
    db: LogClient,
    heads_cache_path: str,
    operator_key: bytes | None,
    append_current: bool = True,
) -> tuple[bool, list[LogCheck]]:
    """Verify append-only consistency between every consecutive cached head
    pair and the current root, each head's signature checked under
    `operator_key`, or not at all when that is None (an offline audit, as
    for `Auditor`); appends the current head to the cache."""
    cached = load_heads_cache(heads_cache_path)
    if not cached:
        raise NotFoundError(f"heads cache {heads_cache_path!r} is empty")
    current = SignedTreeHead.from_obj(db.get_log_root())
    sequence = cached + [current]
    checks: list[LogCheck] = []
    for head in sequence:
        if operator_key is not None and not verify_tree_head(head, operator_key):
            checks.append(LogCheck(head.tree_size, head.tree_size, False, "tree head signature invalid"))
    for older, newer in zip(sequence, sequence[1:]):
        if newer.tree_size < older.tree_size:
            checks.append(LogCheck(older.tree_size, newer.tree_size, False, "tree size went backwards"))
            continue
        if older.tree_size == newer.tree_size:
            ok = older.root_hash == newer.root_hash
            checks.append(
                LogCheck(older.tree_size, newer.tree_size, ok, "equal-size roots match" if ok else "equal-size roots differ")
            )
            continue
        if older.tree_size == 0:
            checks.append(LogCheck(0, newer.tree_size, True, "trivial extension of empty log"))
            continue
        try:
            proof = ConsistencyProof.from_obj(db.get_consistency(older.tree_size, newer.tree_size))
        except CyberlogError as exc:
            checks.append(LogCheck(older.tree_size, newer.tree_size, False, f"no consistency proof: {exc}"))
            continue
        ok = verify_consistency(older.root_hash, newer.root_hash, proof)
        checks.append(
            LogCheck(
                older.tree_size,
                newer.tree_size,
                ok,
                "append-only extension verified" if ok else "split-view/tamper suspected",
            )
        )
    all_ok = all(c.ok for c in checks)
    if append_current and all_ok:
        append_heads_cache(heads_cache_path, current)
    return all_ok, checks
