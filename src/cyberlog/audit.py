"""Evidence audits, rendered from the revisions a `LogReader` accepts.

The reader checks each revision's owner signature and inclusion, and
accepts it only when every claim in it is supported (see
`LogReader.revision`); a checked claim keeps its premise atoms. An audit
shows a claim with the revision holding each of its premises, evaluating
no rule instance of an accepted claim again, and a head the reader refuses
as the claim it was refused for. An optional trusted-heads cache, loaded
into the same reader first, adds an append-only consistency check of the
whole log, catching byte tampering outside the evidence path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .claimlog import SignedTreeHead
from .engine import Claim, DerivedByRule, DirectAssertion, GroundAtom, canonical_atom
from .errors import CyberlogError, LogIntegrityError, NotFoundError, UnsupportedClaimError
from .identity import TrustStore
from .identity import verify_bytes  # noqa: F401  perfbench's tracer test reads this binding; nothing here calls it
from .revision import LogClient, LogReader, RevisionRecord, claim_premises


@dataclass
class AuditNode:
    atom: str
    kind: str
    ok: bool
    detail: str
    children: list["AuditNode"] = field(default_factory=list)  # a claim's premises, which have none

    @property
    def all_ok(self) -> bool:
        return self.ok and all(child.ok for child in self.children)


def render_audit_tree(node: AuditNode) -> str:
    return "\n".join(
        f"{'  ' * indent}[{'ok  ' if each.ok else 'FAIL'}] {each.atom} <- {each.kind}: {each.detail}"
        for indent, each in [(0, node)] + [(1, child) for child in node.children]
    )


class Auditor:
    """Audits claims read through one `LogReader` over `db` (see there for
    `trust_store` and `operator_key`)."""

    def __init__(self, db: LogClient, trust_store: TrustStore, operator_key: bytes | None):
        self.reader = LogReader(db, trust_store, operator_key)

    def fetch_revision(self, rev_id: str) -> RevisionRecord:
        return self.reader.revision(rev_id)[0]

    def audit_atom(self, owner: str, atom: GroundAtom) -> AuditNode:
        """Audit one atom of the owner's head revision; a refused head shows
        as the claim it was refused for, whatever the atom."""
        record, refused = self._head(owner)
        claim = refused or record.by_atom.get(atom)
        if claim is None:
            raise NotFoundError(f"atom {canonical_atom(atom)} not in head revision {record.id} of {owner!r}")
        return self.audit_claim(record, claim)

    def audit_head(self, owner: str) -> list[AuditNode]:
        """Audit every claim in the owner's head revision; a refused head
        shows as the claim it was refused for alone."""
        record, refused = self._head(owner)
        return [self.audit_claim(record, claim) for claim in ((refused,) if refused else record.claims)]

    def _head(self, owner: str) -> tuple[RevisionRecord, Claim | None]:
        """The owner's accepted head and None, or the revision and claim the reader refused the head for."""
        try:
            head = self.reader.accept_head(owner)
        except UnsupportedClaimError as exc:
            return exc.record, exc.claim
        if head is None:
            raise NotFoundError(f"owner {owner!r} has no revisions")
        return head, None

    def audit_claim(self, record: RevisionRecord, claim: Claim) -> AuditNode:
        """A node for `claim` of `record` and, one level down, one for each
        of its premises, naming the revision that holds it, as the reader's
        check finds them (`claim_premises`): every node passes for a
        revision the reader accepted, whose claim objects keep the premise
        atoms their check yielded; the claim it refused one for fails."""
        ev = claim.evidence
        if isinstance(ev, DirectAssertion):
            kind, detail = "direct_assertion", f"asserted by {claim.atom.principal} in revision {record.id[:8]}"
        elif isinstance(ev, DerivedByRule):
            kind, detail = "derived_by_rule", f"derived in revision {record.id[:8]}"
        else:
            kind, detail = "carried_by_next_rule", f"carried from revision {record.supersedes[:8]}"
        node = AuditNode(canonical_atom(claim.atom), kind, True, detail)
        try:
            premises = claim_premises(record, claim, self.fetch_revision)
        except CyberlogError as exc:
            node.ok, node.detail = False, str(exc)
            return node
        for atom, holder, detail in premises:
            kind = "premise" if holder in (None, record.id, record.supersedes) else "log_inclusion"
            node.children.append(AuditNode(canonical_atom(atom), kind, holder is not None, detail))
        return node


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
