import hashlib
from dataclasses import dataclass

import pytest

from cyberlog.claimdb import ClaimDb
from cyberlog.claimlog import MerkleLog
from cyberlog.engine import Claim, DirectAssertion, GroundAtom, canonical_atom
from cyberlog.identity import TrustStore, generate_identity, sign_bytes

PRINCIPALS = ("SB", "MRM", "OM", "CA", "DOM", "CTR")
OPERATOR = "log-operator"


def claims_from_atoms(atoms):
    """Wrap bare atoms as claims their principals assert."""
    return [Claim(a, DirectAssertion()) for a in atoms]


@dataclass(frozen=True)
class SignedClaim:
    atom: GroundAtom
    signer: str
    signature: bytes


def sign_claim(identity, atom: GroundAtom) -> SignedClaim:
    """`atom` signed by `identity` over its canonical text."""
    return SignedClaim(atom, identity.name, sign_bytes(identity, canonical_atom(atom).encode("utf-8")))


def steady_booking(windows: int):
    """The uav_booking flow once per commit window, each time with a new request id."""
    import os

    from cyberlog.harness import Scenario, ScenarioEvent, load_scenario
    from cyberlog.monitor import EventEnvelope

    base = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", "uav_booking.jsonl"))
    events = []
    for k in range(windows):
        for event in base.events:
            env = event.envelope
            body = env.body.replace('"request_id": 7', f'"request_id": {100 + k}')
            at = event.at_ms + 1000 * k
            events.append(ScenarioEvent(at, event.monitor, EventEnvelope(env.method, env.path, body, at)))
    return Scenario("steady_booking", base.monitors, events, [])


def publish_rulesheet(db, rs) -> str:
    """Log `rs`'s canonical text, as a monitor does before its first
    commit, so that revisions naming it are admitted; returns its hash."""
    from cyberlog.lang import format_rulesheet
    from cyberlog.revision import encode_rulesheet_payload

    return db.submit_revision(encode_rulesheet_payload(format_rulesheet(rs)))["revision_id"]


def log_reader(db, identities):
    """A `LogReader` over `db` that trusts every test identity and checks
    tree heads under the log operator's key."""
    from cyberlog.revision import LogReader

    return LogReader(db, TrustStore.from_identities(identities.values()), identities[OPERATOR].public_key)


def rulesheets_of(*sheets):
    """A `RulesheetOf` over `sheets`, by hash, for decoding payloads without
    a claim database; any other hash is refused."""
    from cyberlog.errors import LogIntegrityError

    by_hash = {rs.source_hash.hex(): rs for rs in sheets}

    def rulesheet_of(rulesheet_hash, _owner):
        if rulesheet_hash not in by_hash:
            raise LogIntegrityError(f"rulesheet {rulesheet_hash} is not logged")
        return by_hash[rulesheet_hash]

    return rulesheet_of


def at_fixpoint(kb) -> bool:
    """True iff the KB holds no claim or removal its saturation has not joined."""
    return not kb._unsaturated and not kb._removed


def seed_for(name: str) -> bytes:
    return hashlib.sha256(b"cyberlog-test-id:" + name.encode()).digest()


@pytest.fixture
def identities():
    ids = {name: generate_identity(name, f"CN={name}", "CN=R3", seed=seed_for(name)) for name in PRINCIPALS}
    ids[OPERATOR] = generate_identity(OPERATOR, "CN=log", "CN=R3", seed=seed_for(OPERATOR))
    return ids


@pytest.fixture
def trust_store(identities):
    return TrustStore.from_identities(identities.values())


@pytest.fixture
def db(identities, trust_store):
    return ClaimDb(MerkleLog(), identities[OPERATOR], trust_store, clock=lambda: 1000)


@pytest.fixture
def db_client(db):
    return db


def raw_http_status(address, request: bytes) -> int:
    """Send raw request bytes to (host, port); return the response status code.

    The server must answer and close within the timeout: a dropped
    connection or a hung handler fails the caller's test.
    """
    import socket

    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while b"\r\n" not in response:
            chunk = sock.recv(4096)
            if not chunk:
                break
            response += chunk
    assert response.startswith(b"HTTP/"), f"no HTTP response: {response!r}"
    return int(response.split(b" ", 2)[1])


def audit_agrees_with_reader(db, trust_store, operator_key, owner) -> bool:
    """Assert that a fresh `Auditor` passes `owner`'s head exactly when a
    fresh `LogReader` accepts it, the audit being the reader's check
    rendered; returns whether the reader accepts it."""
    from cyberlog.audit import Auditor
    from cyberlog.errors import CyberlogError
    from cyberlog.revision import LogReader

    reader = LogReader(db, trust_store, operator_key)
    try:
        reader.accept_head(owner)
        accepted = True
    except CyberlogError:
        accepted = False
    try:
        passed = all(node.all_ok for node in Auditor(db, trust_store, operator_key).audit_head(owner))
    except CyberlogError:
        passed = False
    assert passed is accepted, f"the Auditor {'passes' if passed else 'fails'} {owner}'s head, the reader does not"
    return accepted
