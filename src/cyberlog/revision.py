"""Claim revision control: commit, supersede/include, next-rules.

A committed revision is an immutable snapshot of a monitor's own claims.
Its id is the SHA-256 of the record body, whose bytes sit inside the
logged payload; the owner's signature over that id is part of the payload,
which is exactly the byte string the Merkle leaf hashes. That signature is
the only one a commit makes: it is the evidence of every event the revision
logs, whose text the id hashes. Revisions form a linear supersedes chain per
owner; claims of other owners' revisions are imported by inclusion,
justified by inclusion proofs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
from dataclasses import dataclass, replace
from hashlib import sha256
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence, TypeVar

from .claimlog import ConsistencyProof, InclusionProof, SignedTreeHead, leaf_hash
from .claimlog import verify_consistency, verify_inclusion, verify_tree_head
from .engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    GroundAtom,
    KnowledgeBase,
    LogInclusion,
    canonical_atom,
    check_evidence,
)
from .errors import CyberlogError, EvidenceError, LogIntegrityError, NotFoundError, ParseError, SignatureError
from .errors import UnsupportedClaimError
from .identity import Identity, TrustStore, sign_bytes, verify_bytes
from .lang import Rulesheet, parse_rulesheet
from .wire import canonical_json, claim_from_obj, claim_to_obj


class LogClient(Protocol):
    """Transport-agnostic claim database client: a `ClaimDb` itself, or
    `HttpLogClient` over HTTP."""

    def submit_revision(self, payload: str) -> dict: ...

    def get_revision(self, rev_id: str) -> dict: ...

    def get_head(self, owner: str) -> dict: ...

    def get_log_root(self) -> dict: ...

    def get_consistency(self, old_size: int, new_size: int) -> dict: ...


# The rulesheet a revision names: (rulesheet_hash, owner) -> the logged text
# of that hash parsed for the owner. Raises a CyberlogError when there is
# none: an unlogged hash, or a text that does not parse for the owner.
RulesheetOf = Callable[[str, str], Rulesheet]
_T = TypeVar("_T")


@dataclass(frozen=True)
class RevisionHeader:
    """A revision's fields but its claims, which the claim DB admits it on
    (`decode_header`)."""

    id: str
    owner: str
    supersedes: str | None
    includes: tuple[str, ...]
    rulesheet_hash: str
    commit_time: int


@dataclass(frozen=True)
class RevisionRecord(RevisionHeader):
    claims: tuple[Claim, ...]

    # `claims` indexed by atom; built on first use and kept, as a record is
    # immutable

    @functools.cached_property
    def by_atom(self) -> Mapping[GroundAtom, Claim]:
        return {c.atom: c for c in self.claims}


# ---------------------------------------------------------------------------
# Record serialization
#
# A payload is `{"kind":"revision",` + the body's fields + `,"signature":"…"}`,
# so the body the id hashes is a slice of the logged bytes: readers hash that
# slice. A body is written as text, each claim by its rule's encoder, and a
# payload is parsed in one call. The claim DB admits a payload on its header
# alone (`decode_header`) and decodes no claim; every reader decodes the
# claims (`decode_payload`) and refuses a payload that is not exactly the
# canonical encoding of its fields, which `_body_text` writes for both, so
# every revision a reader accepts is the one `build_record` gives for its
# fields. Claims name their rules by index into the rulesheet the record
# names (`wire`).

REVISION_PAYLOAD_HEAD = '{"kind":"revision",'
_SIGNATURE_TAIL = re.compile(r',"signature":"([0-9a-f]{128})"\}')
_SIGNATURE_TAIL_LEN = len(',"signature":"') + 128 + len('"}')


def _body_text(
    owner: str,
    supersedes: str | None,
    includes: Iterable[str],
    rulesheet_hash: str,
    claims: Sequence[Claim],
    commit_time: int,
    rs: Rulesheet,
) -> str:
    """The canonical body text of the fields, with the includes sorted and
    the claims in the order given, each the text of its rule's encoder
    under rulesheet `rs` (`claim_to_obj`)."""
    texts = ",".join([claim_to_obj(claim, rs) for claim in claims])
    return (
        f'{{"owner":{canonical_json(owner)},"supersedes":{canonical_json(supersedes)},'
        f'"includes":{canonical_json(sorted(set(includes)))},"rulesheet_hash":{canonical_json(rulesheet_hash)},'
        f'"claims":[{texts}],"commit_time":{canonical_json(commit_time)}}}'
    )


def build_record(
    owner: str,
    supersedes: str | None,
    includes: Iterable[str],
    rs: Rulesheet,
    claims: Iterable[Claim],
    commit_time: int,
) -> tuple[RevisionRecord, str]:
    """The record under rulesheet `rs`, which it names by the hash of its
    canonical text, and the canonical body text its id hashes, each claim
    serialised once. Raises EvidenceError for a claim whose rule `rs` does
    not hold."""
    ordered = tuple(sorted(claims, key=lambda c: canonical_atom(c.atom)))
    includes_t, rulesheet_hash = tuple(sorted(set(includes))), rs.source_hash.hex()
    body = _body_text(owner, supersedes, includes_t, rulesheet_hash, ordered, commit_time, rs)
    rev_id = sha256(body.encode("utf-8")).hexdigest()
    return RevisionRecord(rev_id, owner, supersedes, includes_t, rulesheet_hash, commit_time, ordered), body


def sign_record(record: RevisionRecord, identity: Identity) -> bytes:
    return sign_bytes(identity, bytes.fromhex(record.id))


def encode_payload(body: str, signature: bytes) -> str:
    """The logged payload of a body text from `build_record`: the body's
    fields spliced between the kind and the signature."""
    return f'{REVISION_PAYLOAD_HEAD}{body[1:-1]},"signature":"{signature.hex()}"}}'


def encode_rulesheet_payload(text: str) -> str:
    return canonical_json({"kind": "rulesheet", "text": text})


def decode_rulesheet_payload(payload: str) -> str:
    """The text of a logged rulesheet payload; raises LogIntegrityError for
    any other payload."""
    try:
        obj = json.loads(payload)
    except ValueError as exc:
        raise LogIntegrityError(f"payload is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "rulesheet":
        raise LogIntegrityError("payload is neither a revision record nor a rulesheet")
    if not isinstance(obj.get("text"), str):
        raise LogIntegrityError("rulesheet payload needs a 'text' field")
    return obj["text"]


def rulesheet_entry_id(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


def decode_header(payload: str, trust_store: TrustStore) -> tuple[RevisionHeader, list]:
    """Parse a revision payload once into its header and its claim objects,
    still to decode; decodes no claim and encodes nothing. The id is the
    SHA-256 of the body bytes inside the payload, and the owner's signature
    over it is checked under `trust_store` (SignatureError). Raises
    LogIntegrityError on a payload outside the revision layout and on
    malformed fields: an owner, supersedes or rulesheet hash that is not a
    string, includes that are not a JSON list of strings, a commit time
    that is not a JSON integer."""
    split = len(payload) - _SIGNATURE_TAIL_LEN
    tail = _SIGNATURE_TAIL.fullmatch(payload, split) if split > len(REVISION_PAYLOAD_HEAD) else None
    if tail is None or not payload.startswith(REVISION_PAYLOAD_HEAD):
        raise LogIntegrityError("payload is not a revision record")
    try:
        obj = json.loads(payload)
        rev_id = sha256(("{" + payload[len(REVISION_PAYLOAD_HEAD) : split] + "}").encode("utf-8")).hexdigest()
        owner, supersedes, rulesheet_hash = obj["owner"], obj["supersedes"], obj["rulesheet_hash"]
        includes, commit_time, claims = obj["includes"], obj["commit_time"], obj["claims"]
        names = (owner, rulesheet_hash, *includes) + (() if supersedes is None else (supersedes,))
        if type(includes) is not list or not all(isinstance(name, str) for name in names):
            raise TypeError("owner, supersedes and rulesheet_hash must be strings, includes a list of strings")
        if type(commit_time) is not int:
            raise TypeError(f"commit_time must be an integer, not {commit_time!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise LogIntegrityError(f"malformed revision record: {exc}") from exc
    key = trust_store.public_key(owner)
    if key is None:
        raise SignatureError(f"unknown owner {owner!r}")
    if not verify_bytes(key, bytes.fromhex(tail.group(1)), bytes.fromhex(rev_id)):
        raise SignatureError(f"bad signature on revision by {owner!r}")
    return RevisionHeader(rev_id, owner, supersedes, tuple(includes), rulesheet_hash, commit_time), claims


def decode_payload(payload: str, rulesheet_of: RulesheetOf, trust_store: TrustStore) -> RevisionRecord:
    """The record of a revision payload: its header (`decode_header`) and
    its claims, decoded under the rulesheet `rulesheet_of` gives, once, for
    its hash and owner. Raises LogIntegrityError on a rulesheet that does
    not parse for the owner, on a malformed claim (a rule reference that is
    not an index of a rule of its kind, a substitution binding anything but
    its rule's variables to integers or strings), on claims whose atom
    texts do not strictly increase (a revision holds one claim per atom),
    on a claim of another principal (nobody claims on someone else's
    behalf), on a carried claim in a chain root (its source is the
    superseded revision), and on a payload that is not exactly the
    canonical encoding of its fields, which it writes again (`_body_text`).
    Other refusals of `decode_header` and `rulesheet_of` pass through.
    Claims and includes keep the payload's order."""
    header, values = decode_header(payload, trust_store)
    owner, supersedes = header.owner, header.supersedes
    try:
        rs = rulesheet_of(header.rulesheet_hash, owner)
        claims, last = [], ""
        for value in values:
            claim = claim_from_obj(value, rs)
            atom = canonical_atom(claim.atom)
            if claim.atom.principal != owner:
                raise LogIntegrityError(f"revision by {owner!r} holds a claim of {claim.atom.principal!r}: {atom}")
            if supersedes is None and isinstance(claim.evidence, CarriedByNextRule):
                raise LogIntegrityError(f"carried claim {atom} in a revision that supersedes none")
            if atom <= last:
                raise LogIntegrityError(f"claim atoms of revision by {owner!r} do not strictly increase at {atom}")
            claims.append(claim)
            last = atom
        del values  # the parsed claim objects go before the body is encoded again, which sets a reader's peak memory
        claims = tuple(claims)
        body = _body_text(owner, supersedes, header.includes, header.rulesheet_hash, claims, header.commit_time, rs)
    except (KeyError, TypeError, ValueError, EvidenceError, ParseError) as exc:
        raise LogIntegrityError(f"malformed revision record: {exc}") from exc
    if payload[len(REVISION_PAYLOAD_HEAD) : -_SIGNATURE_TAIL_LEN] != body[1:-1]:
        raise LogIntegrityError(f"revision {header.id} is not in canonical form")
    return RevisionRecord(**vars(header), claims=claims)


# ---------------------------------------------------------------------------
# Operations


def commit_staging(
    identity: Identity,
    rs: Rulesheet,
    reader: LogReader,
    base: str | None,
    includes: Iterable[str],
    claims: Iterable[Claim],
    now_ms: int,
) -> tuple[RevisionRecord, LogInclusion]:
    """Commit `identity`'s claims as a revision superseding `base` and
    including `includes`; returns the record and its inclusion. The one
    signature is `identity`'s over the record's id.

    Raises SubmitError if the claim database refuses; nothing is committed
    in that case. The database refuses a revision whose rulesheet `rs` it
    has not logged. Raises LogIntegrityError if `reader` refuses the receipt.
    """
    record, body = build_record(identity.name, base, includes, rs, claims, now_ms)
    return record, reader.submit("revision", record.id, encode_payload(body, sign_record(record, identity)))


@contextlib.contextmanager
def _served(what: str) -> Iterator[None]:
    """Raise LogIntegrityError for a claim-database response the block
    cannot read, the decoding of an HTTP answer included: a reader trusts
    nothing the database serves. Refusals (CyberlogError) and transport
    failures (OSError) pass through."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LogIntegrityError(f"malformed {what} from the claim database: {exc!r}") from exc


class LogReader:
    """The one client of the claim database `db`, which parses and verifies
    all `db` answers, and the one cache of what it verified: the last
    accepted tree head, owner heads and revisions by id and rulesheet texts
    by hash. Heads are checked under `operator_key` unless it is None (an
    offline audit: no operator signed), owners under `trust_store`. Heads
    must come in the order asked for: one thread at a time."""

    def __init__(self, db: LogClient, trust_store: TrustStore, operator_key: bytes | None):
        self.db = db
        self.trust_store = trust_store
        self.operator_key = operator_key
        self.head: SignedTreeHead | None = None
        self._revisions: dict[str, tuple[RevisionRecord, LogInclusion]] = {}
        self._heads: dict[str, str] = {}  # owner -> id of its last accepted head
        self._texts: dict[str, str] = {}

    def accept(self, head: SignedTreeHead) -> None:
        """Make `head` the last accepted head. A head equal to it costs
        nothing; any other must carry the operator's signature and extend
        the last one, by one consistency proof from it (RFC 9162 §2.1.4).
        Raises LogIntegrityError, keeping the last head, for a forged,
        rolled-back (smaller) or forked (not extending) head: a proof for
        other sizes than the two heads' is refused as a fork."""
        last = self.head
        if head == last:
            return
        if self.operator_key is not None and not verify_tree_head(head, self.operator_key):
            raise LogIntegrityError("tree head signature invalid")
        if last is not None and last.tree_size > 0:
            if head.tree_size < last.tree_size:
                raise LogIntegrityError(f"tree size went backwards: {last.tree_size} -> {head.tree_size}")
            proof = ConsistencyProof(last.tree_size, head.tree_size, ())  # equal sizes: equal roots
            if head.tree_size > last.tree_size:
                with _served("consistency proof"):
                    proof = ConsistencyProof.from_obj(self.db.get_consistency(last.tree_size, head.tree_size))
            sizes = (proof.old_size, proof.new_size) == (last.tree_size, head.tree_size)
            if not sizes or not verify_consistency(last.root_hash, head.root_hash, proof):
                raise LogIntegrityError(f"split-view/tamper suspected: {last.tree_size} -> {head.tree_size}")
        self.head = head

    def owner_head(self, owner: str) -> tuple[str, int] | None:
        """`owner`'s head revision id and chain length as served; None if it has none."""
        with _served(f"head of {owner!r}"):
            try:
                response = self.db.get_head(owner)
            except NotFoundError:
                return None
            head = response["revision_id"], response["chain_length"]
            if not isinstance(head[0], str) or not isinstance(head[1], int):
                raise TypeError(f"not a revision id and a chain length: {head!r}")
            return head

    def accept_head(self, owner: str) -> RevisionRecord | None:
        """`owner`'s head as served, accepted through `revision` and kept as its last; None if it has none. Raises
        LogIntegrityError for another owner's revision and for a head whose chain does not reach the last one kept."""
        served = self.owner_head(owner)
        if served is None:
            return None
        record = self.revision(served[0])[0]
        if record.owner != owner:
            raise LogIntegrityError(f"revision {record.id} belongs to {record.owner!r}, not to {owner!r}")
        supersession_chain(self, record, self._heads.get(owner, record.id))
        self._heads[owner] = record.id
        return record

    def log_root(self) -> SignedTreeHead:
        """The log's current tree head as served, for `accept` to check."""
        with _served("log root"):
            return SignedTreeHead.from_obj(self.db.get_log_root())

    def submit(self, what: str, entry_id: str, payload: str) -> LogInclusion:
        """Log `payload` under `entry_id` and return its inclusion, checked
        as a fetched entry's is. Raises SubmitError if the claim database
        refuses the entry."""
        with _served(f"{what} receipt"):
            receipt = self.db.submit_revision(payload)
            return self._entry(what, entry_id, payload, receipt["tree_head"], receipt["inclusion_proof"])[1]

    def _fetch(self, what: str, entry_id: str, read: Callable[[str], _T]) -> tuple[_T, LogInclusion]:
        with _served(f"{what} {entry_id}"):
            response = self.db.get_revision(entry_id)
            return self._entry(what, entry_id, response["payload"], response["tree_head"], response["proof"], read)

    def _entry(
        self, what: str, entry_id: str, payload: str, head: dict, proof: dict, read: Callable[[str], _T] = str
    ) -> tuple[_T, LogInclusion]:
        """`read` of the `payload` of an entry (a revision or a rulesheet, as
        `what` says), by default the payload itself, and its inclusion by the
        head and proof served with it, called inside `_served`. The head is
        accepted first, since `read` may fetch under a later one."""
        accepted = SignedTreeHead.from_obj(head)
        self.accept(accepted)
        value = read(payload)
        inclusion = LogInclusion(entry_id, leaf_hash(payload.encode("utf-8")), InclusionProof.from_obj(proof), accepted)
        sizes = inclusion.proof.tree_size == accepted.tree_size
        if not sizes or not verify_inclusion(accepted.root_hash, inclusion.leaf_hash, inclusion.proof):
            raise LogIntegrityError(f"inclusion proof failed for {what} {entry_id}")
        return value, inclusion

    def revision(self, rev_id: str) -> tuple[RevisionRecord, LogInclusion]:
        """The revision logged under `rev_id` and the inclusion its claims
        share, fetched, verified and accepted on the first call only: after
        the one it supersedes, if that is its owner's at no later commit
        time, and if revisions accepted before support each of its claims
        (`claim_premises`). A cold chain is fetched back to its first
        accepted revision, or its root, and accepted forward. A claim equal
        to one of the revision it supersedes is that claim object, so its
        rule instance is not evaluated again; its premises are looked up.
        Raises LogIntegrityError (UnsupportedClaimError for a claim) for the
        first revision refused, and for every later one of its chain."""
        cold, cursor = [], rev_id
        while cursor is not None and cursor not in self._revisions:
            cold.append(fetch_verified_revision(self, cursor))
            cursor = cold[-1][0].supersedes
        for record, inclusion in reversed(cold):
            if record.supersedes is not None:
                previous = self._revisions[record.supersedes][0]
                if previous.owner != record.owner or previous.commit_time > record.commit_time:
                    raise LogIntegrityError(
                        f"revision {record.id} by {record.owner!r} at commit time {record.commit_time}"
                        f" may not supersede {previous.id} by {previous.owner!r} at {previous.commit_time}"
                    )
                claims = tuple(old if (old := previous.by_atom.get(c.atom)) == c else c for c in record.claims)
                record = replace(record, claims=claims)
            for claim in record.claims:
                try:
                    premises = claim_premises(record, claim, lambda rev_id: self.revision(rev_id)[0])
                    why = next((f"premise {canonical_atom(a)}: {where}" for a, held, where in premises if not held), "")
                except EvidenceError as exc:
                    why = str(exc)
                if why:
                    refused = f"revision {record.id[:8]} by {record.owner!r} holds an unsupported claim"
                    raise UnsupportedClaimError(f"{refused} {canonical_atom(claim.atom)}: {why}", record, claim)
            self._revisions[record.id] = record, inclusion
        return self._revisions[rev_id]

    def forget_before(self, rev_id: str) -> None:
        """Forget the revisions the cached `rev_id` supersedes: a watcher keeps each chain's head only."""
        cursor = self._revisions[rev_id][0].supersedes
        while cursor in self._revisions:
            cursor = self._revisions.pop(cursor)[0].supersedes

    def __call__(self, rulesheet_hash: str, owner: str) -> Rulesheet:
        if rulesheet_hash not in self._texts:
            text, _ = self._fetch("rulesheet", rulesheet_hash, decode_rulesheet_payload)
            if rulesheet_entry_id(text) != rulesheet_hash:
                raise LogIntegrityError(f"rulesheet hashes to {rulesheet_entry_id(text)}, expected {rulesheet_hash}")
            self._texts[rulesheet_hash] = text
        return parse_rulesheet(self._texts[rulesheet_hash], owner)


def fetch_verified_revision(reader: LogReader, rev_id: str) -> tuple[RevisionRecord, LogInclusion]:
    """Fetch and verify a revision through `reader`, bypassing its cache of
    revisions: its tree head, owner's signature, claims, inclusion proof
    and id, decoding its payload once; returns the record and the inclusion
    its claims share."""
    decode = functools.partial(decode_payload, rulesheet_of=reader, trust_store=reader.trust_store)
    record, inclusion = reader._fetch("revision", rev_id, decode)
    if record.id != rev_id:
        raise LogIntegrityError(f"revision body hashes to {record.id}, expected {rev_id}")
    return record, inclusion


def claim_premises(
    record: RevisionRecord, claim: Claim, read: Callable[[str], RevisionRecord]
) -> list[tuple[GroundAtom, str | None, str]]:
    """Each premise of `claim`, a claim of `record`, with the id of the
    revision holding it, or None, and where it is or why not: the rule
    instance's premises (`check_evidence`, which evaluates a claim object
    once) are looked up in its source, `record` or, for a carry-over, the
    revision it supersedes, then in the source's includes, read through
    `read` in id order only for a premise the source lacks; one `read`
    refuses is unusable. A direct assertion has none. Raises EvidenceError
    for a bad instance."""
    ev = claim.evidence
    if isinstance(ev, DirectAssertion):
        return []
    atoms = check_evidence(claim)
    source = record if isinstance(ev, DerivedByRule) else read(record.supersedes)
    included, unusable, premises = None, f"premise not found in revision {source.id[:8]} or its includes", []
    for atom in atoms:
        if atom in source.by_atom:
            premises.append((atom, source.id, f"held by revision {source.id[:8]}"))
            continue
        if included is None:
            included = []
            for rev_id in source.includes:
                try:
                    included.append(read(rev_id))
                except (LogIntegrityError, NotFoundError) as exc:
                    unusable = f"included revision {rev_id[:8]} unusable: {exc}"
        holder = next((include.id for include in included if atom in include.by_atom), None)
        where = f"included from {holder[:8]}, fetched with verified proof" if holder else unusable
        premises.append((atom, holder, where))
    return premises


def include_revision(kb: KnowledgeBase, rev_id: str, reader: LogReader) -> list[Claim]:
    """Import all claims of the revision `rev_id`, which `reader` accepted
    (`LogReader.accept_head`), into the KB under inclusion evidence; returns
    the claims whose atoms are new. A refusal leaves the KB's claims as they
    were: the reader refuses before the KB changes, and `revise` undoes the
    import if saturation raises."""
    record, inclusion = reader.revision(rev_id)
    added = kb.revise((), [Claim(claim.atom, inclusion) for claim in record.claims])
    return [claim for claim in added if claim.evidence is inclusion]


def apply_next_rules(kb: KnowledgeBase, record: RevisionRecord) -> list[Claim]:
    """The KB step after the commit of `record`, while the KB holds exactly
    the record's claims and its includes': the record's events and carried
    claims leave and the KB's carry-overs enter (`KnowledgeBase.carry`);
    returns those. On a CyberlogError the record's claims leave without
    carry-overs, so the next commit does not log them again, and it propagates."""
    logged = [c.atom for c in record.claims if isinstance(c.evidence, (DirectAssertion, CarriedByNextRule))]
    try:
        return kb.carry(logged)
    except CyberlogError:
        kb.revise(logged, ())
        raise


def supersession_chain(reader: LogReader, new_record: RevisionRecord, old_rev_id: str) -> None:
    """Raise LogIntegrityError unless `new_record`, which `reader` accepted, is `old_rev_id` or supersedes it."""
    cursor = new_record.id
    while cursor != old_rev_id:
        cursor = reader.revision(cursor)[0].supersedes
        if cursor is None:
            raise LogIntegrityError(f"revision {new_record.id} does not supersede {old_rev_id}")


def on_superseded(kb: KnowledgeBase, old_rev_id: str, new_rev_id: str, reader: LogReader) -> list[Claim]:
    """Update the KB in place after its included revision `old_rev_id` was
    superseded by `new_rev_id`, which `reader` accepted
    (`LogReader.accept_head`); returns the admitted claims whose atoms are
    new.

    The reader holds the old revision since its inclusion. In one
    `KnowledgeBase.revise`, the atoms the old revision holds and the new
    one does not are retracted, with every derivation downstream of them,
    and the new revision's atoms that the old one does not hold are
    included under the new revision's inclusion evidence. An atom both
    hold keeps its stored claim, whose inclusion names an earlier revision
    of the same chain, which logged that atom too. A refusal leaves the
    KB's claims as they were, as for `include_revision`.
    """
    record, inclusion = reader.revision(new_rev_id)
    held = reader.revision(old_rev_id)[0].by_atom
    retracted = [atom for atom in held if atom not in record.by_atom]
    added = kb.revise(retracted, [Claim(claim.atom, inclusion) for claim in record.claims if claim.atom not in held])
    return [claim for claim in added if claim.evidence is inclusion]
