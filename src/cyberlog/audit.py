"""Recursive evidence verification against the claim database.

Audits reconstruct how a claim was made. Each claim's own evidence goes
through the engine's `check_evidence` and each rule instance's side
conditions through `rule_premises`, the checker the knowledge base uses
too; the auditor reads revisions through its `LogReader`, which checks
each one's owner signature, and resolves premises. A direct assertion is
evidence through the revision that holds it: its signer must be that
revision's owner, whose signature covers the claim's text. Foreign
premises are resolved through the auditing revision's includes,
terminating in verified log inclusions. An optional trusted-heads cache,
loaded into the same reader first, adds an append-only consistency check
of the whole log, catching byte tampering outside the evidence path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .claimlog import SignedTreeHead
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
from .errors import CyberlogError, LogIntegrityError, NotFoundError
from .identity import TrustStore
from .identity import verify_bytes  # noqa: F401  perfbench's tracer test reads this binding; nothing here calls it
from .revision import LogClient, LogReader, RevisionRecord


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
    """Audits claims read through one `LogReader` over `db` (see there for
    `trust_store` and `operator_key`)."""

    def __init__(self, db: LogClient, trust_store: TrustStore, operator_key: bytes | None):
        self.reader = LogReader(db, trust_store, operator_key)
        self._holders: dict[str, dict[GroundAtom, str]] = {}  # record id -> included atom -> include

    # -- revision access -------------------------------------------------

    def fetch_revision(self, rev_id: str) -> RevisionRecord:
        return self.reader.revision(rev_id)[0]

    # -- entry points ------------------------------------------------------

    def audit_atom(self, owner: str, atom: GroundAtom) -> AuditNode:
        """Audit one atom of the owner's head revision."""
        record = self._head(owner)
        claim = record.by_atom.get(atom)
        if claim is None:
            raise NotFoundError(f"atom {canonical_atom(atom)} not in head revision {record.id} of {owner!r}")
        return self.audit_claim(record, claim)

    def audit_head(self, owner: str) -> list[AuditNode]:
        """Audit every claim in the owner's head revision."""
        record = self._head(owner)
        return [self.audit_claim(record, claim) for claim in record.claims]

    def _head(self, owner: str) -> RevisionRecord:
        head = self.reader.owner_head(owner)
        if head is None:
            raise NotFoundError(f"owner {owner!r} has no revisions")
        return self.fetch_revision(head[0])

    # -- recursive verification ---------------------------------------------

    def audit_claim(self, record: RevisionRecord, claim: Claim, depth: int = 0) -> AuditNode:
        """Check the claim's evidence with the engine's checker and that a
        direct assertion's signer owns both its atom and `record`, whose
        owner signature the reader checked, then audit its premises: a
        rule instance's own premises in `record`, a carried claim's in its
        source, the revision `record` supersedes."""
        if depth > 500:
            return self._fail(claim.atom, "depth", "evidence chain exceeds depth limit")
        ev = claim.evidence
        kind = _KINDS.get(type(ev), "unknown")
        try:
            check_evidence(claim)
            node = AuditNode(canonical_atom(claim.atom), kind, True, "")
            if isinstance(ev, DirectAssertion):
                if not ev.signer == claim.atom.principal == record.owner:
                    return self._fail(claim.atom, kind, f"asserted by {ev.signer!r} in {record.owner!r}'s revision")
                node.detail = f"asserted by {ev.signer} in revision {record.id[:8]}"
            else:  # a rule instance: a logged claim carries no other kind
                source = record
                node.detail = "rule re-derivation checked"
                if isinstance(ev, CarriedByNextRule):
                    if record.supersedes is None:
                        detail = f"carried in revision {record.id[:8]}, which supersedes none"
                        return self._fail(claim.atom, kind, detail)
                    source = self.fetch_revision(record.supersedes)
                    node.detail = f"carried from revision {record.supersedes[:8]}"
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
        revision's verified fetch, found through an atom -> include index
        of the includes that fetch, kept per record once all of them do. A
        premise no usable include holds fails, naming an unusable one."""
        claim = record.by_atom.get(premise)
        if claim is not None:
            return self.audit_claim(record, claim, depth)
        holders = self._holders.get(record.id)
        if holders is None:
            holders, unusable = {}, ""
            for rev_id in record.includes:
                try:
                    holders.update(dict.fromkeys(self.fetch_revision(rev_id).by_atom, rev_id))
                except (LogIntegrityError, NotFoundError) as exc:
                    unusable = f"included revision {rev_id[:8]} unusable: {exc}"
            if not unusable:
                self._holders[record.id] = holders
            elif premise not in holders:
                return self._fail(premise, "log_inclusion", unusable)
        if premise not in holders:
            return self._fail(premise, "premise", f"premise not found in revision {record.id[:8]} or its includes")
        detail = f"included from {holders[premise][:8]}, fetched with verified proof"
        return AuditNode(canonical_atom(premise), "log_inclusion", True, detail)


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
    reader: LogReader,
    heads_cache_path: str,
    append_current: bool = True,
) -> tuple[bool, list[LogCheck]]:
    """Feed every cached head, then the current one, to `reader.accept`,
    one check per head; appends the current head if every check passes."""
    cached = load_heads_cache(heads_cache_path)
    if not cached:
        raise NotFoundError(f"heads cache {heads_cache_path!r} is empty")
    current = reader.log_root()
    checks: list[LogCheck] = []
    for head in cached + [current]:
        old_size = reader.head.tree_size if reader.head is not None else 0
        try:
            reader.accept(head)
            checks.append(LogCheck(old_size, head.tree_size, True, "append-only extension verified"))
        except CyberlogError as exc:
            checks.append(LogCheck(old_size, head.tree_size, False, str(exc)))
    all_ok = all(c.ok for c in checks)
    if append_current and all_ok:
        append_heads_cache(heads_cache_path, current)
    return all_ok, checks
