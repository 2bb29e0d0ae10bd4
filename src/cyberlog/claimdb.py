"""Networked claim database fronting the Merkle log.

Endpoints (JSON bodies, hashes lowercase hex):

    POST /revisions                        submit a signed revision record
    GET  /revisions/{id}                   record + inclusion proof + head
    GET  /heads/{owner}                    per-owner head + chain length
    GET  /log/root                         current signed tree head
    GET  /log/consistency?old=&new=        consistency proof

Rulesheet texts are stored as ordinary log entries (payload kind
"rulesheet", in canonical form) submitted through POST /revisions and
fetched by their content hash via GET /revisions/{hash}. A revision names
its owner's rulesheet by that hash, and is refused unless the rulesheet is
logged before it and parses for the owner, contract and all.
"""

from __future__ import annotations

import logging
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Callable

from .claimlog import MerkleLog, SignedTreeHead, sign_tree_head
from .errors import CyberlogError, LogIntegrityError, NotFoundError, SignatureError, SubmitError
from .httpjson import JsonRequestHandler, request_json
from .identity import Identity, TrustStore
from .lang import Rulesheet, parse_rulesheet
from .revision import (
    REVISION_PAYLOAD_HEAD,
    RevisionRecord,
    check_canonical,
    decode_payload,
    decode_rulesheet_payload,
    encode_rulesheet_payload,
    rulesheet_entry_id,
)


_log = logging.getLogger("cyberlog.claimdb")


def _now_ms() -> int:
    return int(time.time() * 1000)


@dataclass(frozen=True)
class _HeadState:
    revision_id: str
    chain_length: int
    commit_time: int


class ClaimDb:
    """Single-log claim database core; appends are serialized internally."""

    def __init__(
        self,
        log: MerkleLog,
        operator: Identity,
        trust_store: TrustStore,
        clock: Callable[[], int] = _now_ms,
    ):
        self.log = log
        self.operator = operator
        self.trust_store = trust_store
        self.clock = clock
        self._lock = threading.Lock()
        self._entries: dict[str, int] = {}  # entry id -> log index
        self._rulesheets: dict[str, str] = {}  # rulesheet hash -> logged text
        self._owners: dict[str, str] = {}  # revision id -> owner; rulesheets have none
        self._heads: dict[str, _HeadState] = {}
        self._signed_head: SignedTreeHead | None = None  # the last head signed
        self._replay_existing()

    def _replay_existing(self) -> None:
        # Rebuild indexes from a reopened log file, in log order, admitting
        # each revision as `submit_revision` would have. Entries it would
        # have refused are left unindexed, with one warning each; the tree
        # still hashes their raw bytes.
        for index in range(len(self.log)):
            payload = self.log.payload(index).decode("utf-8", errors="replace")
            try:
                if payload.startswith(REVISION_PAYLOAD_HEAD):
                    record = self._signed_record(payload)
                    self._check_chain(record)
                    self._index_revision(record, index)
                else:
                    text = _rulesheet_text(payload)
                    self._index_rulesheet(rulesheet_entry_id(text), text, index)
            except CyberlogError as exc:
                _log.warning("log entry %d left unindexed: %s", index, exc)

    def _index_revision(self, record: RevisionRecord, index: int) -> None:
        self._entries[record.id] = index
        self._owners[record.id] = record.owner
        head = self._heads.get(record.owner)
        self._heads[record.owner] = _HeadState(record.id, (head.chain_length if head else 0) + 1, record.commit_time)

    # -- submission -----------------------------------------------------

    def submit_revision(self, payload: str) -> dict:
        """Validate and append a revision (or rulesheet blob); the per-owner
        head index is updated atomically with the append. A revision that
        is not exactly in canonical form is refused with 400."""
        if not payload.startswith(REVISION_PAYLOAD_HEAD):
            return self._submit_rulesheet(payload, _rulesheet_text(payload))
        record = self._signed_record(payload)
        with self._lock:
            self._check_chain(record)
            index = self.log.append(payload.encode("utf-8"))
            self._index_revision(record, index)
            return self._receipt(index, record.id)

    # Admission: submit and replay take a revision only if it passes both
    # checks below, in this order.

    def _signed_record(self, payload: str) -> RevisionRecord:
        """The record of a revision payload signed by its trusted owner (else
        401, before any rulesheet is read) that names a logged rulesheet that
        parses for that owner and is its canonical encoding under that
        rulesheet (else 400): every claim is decoded and encoded again, in
        one parse and one encode. Raises SubmitError."""
        try:
            record, signature, rs = decode_payload(payload, self._logged_rulesheet, self.trust_store)
            check_canonical(record, signature, payload, rs)
        except SignatureError as exc:
            raise SubmitError(401, str(exc)) from exc
        except LogIntegrityError as exc:
            raise SubmitError(400, str(exc)) from exc
        return record

    def _logged_rulesheet(self, rulesheet_hash: str, owner: str) -> Rulesheet:
        """The rulesheet logged under `rulesheet_hash`, parsed for `owner`.
        Raises LogIntegrityError if no rulesheet is logged under that hash,
        and ParseError if it does not parse for the owner."""
        text = self._rulesheets.get(rulesheet_hash)
        if text is None:
            raise LogIntegrityError(f"rulesheet {rulesheet_hash} is not logged")
        return parse_rulesheet(text, owner)

    def _check_chain(self, record: RevisionRecord) -> None:
        """Raise SubmitError unless the record may extend its owner's chain
        now: a first revision only while the owner has no head, otherwise
        one superseding a logged revision of the same owner that nothing
        supersedes yet, at a commit time no earlier than that revision's;
        and its id names no logged entry. The caller holds the lock, or is
        replaying."""
        if record.supersedes is None:
            if record.owner in self._heads:
                raise SubmitError(409, f"owner {record.owner!r} already has a revision chain")
        else:
            target_owner = self._owners.get(record.supersedes)
            if target_owner is None:
                raise SubmitError(400, f"supersedes target {record.supersedes} is not a logged revision")
            if target_owner != record.owner:
                raise SubmitError(401, f"only the owner may supersede: target owned by {target_owner!r}")
            # an owner's chain is linear: each of its revisions but the head
            # is superseded
            head = self._heads[record.owner]
            if head.revision_id != record.supersedes:
                raise SubmitError(409, f"revision {record.supersedes} is already superseded")
            before = head.commit_time
            if record.commit_time < before:
                raise SubmitError(
                    409, f"commit time {record.commit_time} is before {before}, that of revision {record.supersedes}"
                )
        if record.id in self._entries:
            raise SubmitError(409, f"revision {record.id} already logged")

    def _submit_rulesheet(self, payload: str, text: str) -> dict:
        entry_id = rulesheet_entry_id(text)
        with self._lock:
            existing = self._entries.get(entry_id)
            if existing is not None:
                return self._receipt(existing, entry_id)
            index = self.log.append(payload.encode("utf-8"))
            self._index_rulesheet(entry_id, text, index)
            return self._receipt(index, entry_id)

    def _index_rulesheet(self, entry_id: str, text: str, index: int) -> None:
        self._entries[entry_id] = index
        self._rulesheets[entry_id] = text

    def _tree_head(self) -> SignedTreeHead:
        """The log's signed head at its current size and time; the caller
        holds the lock. The log is append-only, so its size fixes its root,
        and Ed25519 is deterministic: the head last signed is handed out
        again while size and time are unchanged, the same bytes a new
        signature would give. The clock does not go back, so repeats are
        consecutive and one remembered head catches them all."""
        size, now = len(self.log), self.clock()
        head = self._signed_head
        if head is None or (head.tree_size, head.timestamp_ms) != (size, now):
            head = self._signed_head = sign_tree_head(self.log, self.operator, now)
        return head

    def _receipt(self, index: int, entry_id: str) -> dict:
        head = self._tree_head()
        proof = self.log.prove_inclusion(index, head.tree_size)
        return {
            "leaf_index": index,
            "revision_id": entry_id,
            "tree_head": head.to_obj(),
            "inclusion_proof": proof.to_obj(),
        }

    # -- retrieval --------------------------------------------------------

    def get_revision(self, rev_id: str) -> dict:
        with self._lock:
            index = self._entries.get(rev_id)
            if index is None:
                raise NotFoundError(f"no revision {rev_id}")
            payload = self.log.payload(index).decode("utf-8")
            head = self._tree_head()
            proof = self.log.prove_inclusion(index, head.tree_size)
        return {"payload": payload, "proof": proof.to_obj(), "tree_head": head.to_obj()}

    def get_head(self, owner: str) -> dict:
        with self._lock:
            head = self._heads.get(owner)
        if head is None:
            raise NotFoundError(f"owner {owner!r} has no revisions")
        return {"owner": owner, "revision_id": head.revision_id, "chain_length": head.chain_length}

    def get_log_root(self) -> dict:
        with self._lock:
            return self._tree_head().to_obj()

    def get_consistency(self, old_size: int, new_size: int) -> dict:
        with self._lock:
            return self.log.prove_consistency(old_size, new_size).to_obj()


def _rulesheet_text(payload: str) -> str:
    """The text of a rulesheet payload that is exactly its canonical
    encoding; raises SubmitError (400) otherwise."""
    try:
        text = decode_rulesheet_payload(payload)
    except LogIntegrityError as exc:
        raise SubmitError(400, str(exc)) from exc
    if payload != encode_rulesheet_payload(text):
        raise SubmitError(400, f"rulesheet {rulesheet_entry_id(text)} is not in canonical form")
    return text


class HttpLogClient:
    """LogClient speaking the REST endpoints over HTTP."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, body: str | None = None) -> dict:
        return request_json(method, self.base_url + path, body, self.timeout)

    def submit_revision(self, payload: str) -> dict:
        return self._request("POST", "/revisions", payload)

    def get_revision(self, rev_id: str) -> dict:
        return self._request("GET", f"/revisions/{rev_id}")

    def get_head(self, owner: str) -> dict:
        return self._request("GET", f"/heads/{urllib.parse.quote(owner)}")

    def get_log_root(self) -> dict:
        return self._request("GET", "/log/root")

    def get_consistency(self, old_size: int, new_size: int) -> dict:
        return self._request("GET", f"/log/consistency?old={old_size}&new={new_size}")


def _int_params(query: dict, *names: str) -> list[int]:
    try:
        return [int(query[name][0]) for name in names]
    except (KeyError, ValueError) as exc:
        raise SubmitError(400, f"need integer query parameters {', '.join(names)}") from exc


class _ClaimDbHandler(JsonRequestHandler):
    db: ClaimDb  # set by server factory

    def _guard(self, fn) -> None:
        try:
            self._send(200, fn())
        except NotFoundError as exc:
            self._send(404, {"error": str(exc)})
        except SubmitError as exc:
            self._send(exc.code, {"error": str(exc)})
        except LogIntegrityError as exc:
            self._send(400, {"error": str(exc)})

    def do_POST(self):
        if self.path != "/revisions":
            self._send(404, {"error": f"no such endpoint {self.path}"})
            return
        body = self._read_body()
        if body is None:
            return
        try:
            payload = body.decode("utf-8")
        except UnicodeDecodeError:
            self._send(400, {"error": "body is not UTF-8"})
            return
        self._guard(lambda: self.db.submit_revision(payload))

    def do_GET(self):
        parsed = urllib.parse.urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        query = urllib.parse.parse_qs(parsed.query)
        if parts == ["health"]:
            self._send(200, {"status": "ok", "tree_size": len(self.db.log)})
        elif len(parts) == 2 and parts[0] == "revisions":
            self._guard(lambda: self.db.get_revision(parts[1]))
        elif len(parts) == 2 and parts[0] == "heads":
            self._guard(lambda: self.db.get_head(urllib.parse.unquote(parts[1])))
        elif parts == ["log", "root"]:
            self._guard(self.db.get_log_root)
        elif parts == ["log", "consistency"]:
            self._guard(lambda: self.db.get_consistency(*_int_params(query, "old", "new")))
        else:
            self._send(404, {"error": f"no such endpoint {parsed.path}"})


def make_db_server(db: ClaimDb, host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    handler = type("BoundClaimDbHandler", (_ClaimDbHandler,), {"db": db})
    return ThreadingHTTPServer((host, port), handler)


def serve_db_in_thread(db: ClaimDb, host: str = "127.0.0.1", port: int = 0):
    """Start the HTTP server on a daemon thread; returns (server, base_url)."""
    server = make_db_server(db, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://{server.server_address[0]}:{server.server_address[1]}"
