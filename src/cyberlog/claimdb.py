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
logged before it. A revision is admitted on its header alone, as in
Certificate Transparency (RFC 9162 §4.1): no claim is decoded here, so a
trusted owner's malformed revision is logged and ends that owner's chain
at every reader, all of which check every claim.
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
from .revision import REVISION_PAYLOAD_HEAD, RevisionHeader, decode_header, decode_rulesheet_payload
from .revision import decode_payload  # noqa: F401  perfbench's tracer test reads this binding; nothing here calls it
from .revision import encode_rulesheet_payload, rulesheet_entry_id


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
        self._owners: dict[str, str] = {}  # revision id -> owner; a logged id without one is a rulesheet's
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
                    header = self._signed_header(payload)
                    self._check_chain(header)
                    self._index_revision(header, index)
                else:
                    entry_id = rulesheet_entry_id(_rulesheet_text(payload))
                    if entry_id in self._entries:
                        raise SubmitError(409, f"entry {entry_id} already logged")
                    self._entries[entry_id] = index
            except CyberlogError as exc:
                _log.warning("log entry %d left unindexed: %s", index, exc)

    def _index_revision(self, header: RevisionHeader, index: int) -> None:
        self._entries[header.id] = index
        self._owners[header.id] = header.owner
        head = self._heads.get(header.owner)
        self._heads[header.owner] = _HeadState(header.id, (head.chain_length if head else 0) + 1, header.commit_time)

    # -- submission -----------------------------------------------------

    def submit_revision(self, payload: str) -> dict:
        """Admit and append a revision (or rulesheet blob); the per-owner
        head index is updated atomically with the append. A payload already
        logged, byte for byte, is answered with its entry's receipt and not
        appended again."""
        if not payload.startswith(REVISION_PAYLOAD_HEAD):
            return self._submit_rulesheet(payload, rulesheet_entry_id(_rulesheet_text(payload)))
        header, data = self._signed_header(payload), payload.encode("utf-8")
        with self._lock:
            index = self._entries.get(header.id)
            if index is None or self.log.payload(index) != data:
                self._check_chain(header)
                index = self.log.append(data)
                self._index_revision(header, index)
            return self._receipt(index, header.id)

    # Admission: submit and replay take a revision only if it passes both
    # checks below, in this order.

    def _signed_header(self, payload: str) -> RevisionHeader:
        """The header of a revision payload signed by its trusted owner (else
        401, before the rulesheet is looked up) that names a logged rulesheet
        (else 400). Decodes no claim and parses no rulesheet. Raises
        SubmitError."""
        try:
            header = decode_header(payload, self.trust_store)[0]
        except SignatureError as exc:
            raise SubmitError(401, str(exc)) from exc
        except LogIntegrityError as exc:
            raise SubmitError(400, str(exc)) from exc
        if header.rulesheet_hash not in self._entries or header.rulesheet_hash in self._owners:
            raise SubmitError(400, f"rulesheet {header.rulesheet_hash} is not logged")
        return header

    def _check_chain(self, header: RevisionHeader) -> None:
        """Raise SubmitError unless the revision may extend its owner's chain
        now: a first revision only while the owner has no head, otherwise
        one superseding a logged revision of the same owner that nothing
        supersedes yet, at a commit time no earlier than that revision's;
        and its id names no logged entry. The caller holds the lock, or is
        replaying."""
        if header.supersedes is None:
            if header.owner in self._heads:
                raise SubmitError(409, f"owner {header.owner!r} already has a revision chain")
        else:
            target_owner = self._owners.get(header.supersedes)
            if target_owner is None:
                raise SubmitError(400, f"supersedes target {header.supersedes} is not a logged revision")
            if target_owner != header.owner:
                raise SubmitError(401, f"only the owner may supersede: target owned by {target_owner!r}")
            # an owner's chain is linear: each of its revisions but the head
            # is superseded
            head = self._heads[header.owner]
            if head.revision_id != header.supersedes:
                raise SubmitError(409, f"revision {header.supersedes} is already superseded")
            before = head.commit_time
            if header.commit_time < before:
                raise SubmitError(
                    409, f"commit time {header.commit_time} is before {before}, that of revision {header.supersedes}"
                )
        if header.id in self._entries:
            raise SubmitError(409, f"revision {header.id} already logged")

    def _submit_rulesheet(self, payload: str, entry_id: str) -> dict:
        """Append a rulesheet payload, or answer one logged byte for byte
        with its entry's receipt; another entry under its text's hash (a
        revision whose body is that text) is a 409."""
        data = payload.encode("utf-8")
        with self._lock:
            index = self._entries.get(entry_id)
            if index is None:
                index = self._entries[entry_id] = self.log.append(data)
            elif self.log.payload(index) != data:
                raise SubmitError(409, f"entry {entry_id} already logged")
            return self._receipt(index, entry_id)

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
