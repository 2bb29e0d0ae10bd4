"""Principal identities, Ed25519 signing and verification, and the static
trust store.

Identities are Ed25519 keypairs with X.509-style subject/issuer display
strings kept as opaque metadata. A trust store maps principal names to
public keys and is loaded by every monitor and by the claim database.
"""

from __future__ import annotations

import json
import secrets
from dataclasses import dataclass, field
from typing import Iterable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .errors import ConfigError, EvidenceError


@dataclass(frozen=True)
class Identity:
    """A principal's public key and, when it may sign, the private key it
    was made from, imported once so that each signature costs only itself.
    Construction refuses a private key whose public key is not
    `public_key` (ConfigError): a monitor takes its own signatures as
    checked on that invariant."""

    name: str
    subject: str
    issuer: str
    public_key: bytes
    private_key: Ed25519PrivateKey | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        key = self.private_key
        if key is not None and _raw_public_key(key) != self.public_key:
            raise ConfigError(f"identity {self.name!r}: public key does not belong to its private key")


def _raw_public_key(key: Ed25519PrivateKey) -> bytes:
    return key.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


def generate_identity(name: str, subject: str = "", issuer: str = "", seed: bytes | None = None) -> Identity:
    """Create an identity; a 32-byte seed makes the keypair reproducible."""
    if seed is None:
        seed = secrets.token_bytes(32)
    if len(seed) != 32:
        raise ConfigError("identity seed must be exactly 32 bytes")
    key = Ed25519PrivateKey.from_private_bytes(seed)
    return Identity(name, subject, issuer, _raw_public_key(key), key)


def sign_bytes(identity: Identity, data: bytes) -> bytes:
    if identity.private_key is None:
        raise EvidenceError(f"identity {identity.name!r} has no private key")
    return identity.private_key.sign(data)


def verify_bytes(public_key: bytes, signature: bytes, data: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except (InvalidSignature, ValueError):
        return False


class TrustStore:
    """Static principal-name -> public-key mapping, persisted as JSON lines
    (string `name`, `subject`, `issuer` and a 32-byte hex `public_key`).
    It holds public-only identities: `add` drops any private key."""

    def __init__(self) -> None:
        self._entries: dict[str, Identity] = {}

    @classmethod
    def from_identities(cls, identities: Iterable[Identity]) -> "TrustStore":
        store = cls()
        for identity in identities:
            store.add(identity)
        return store

    def add(self, identity: Identity) -> None:
        self._entries[identity.name] = Identity(identity.name, identity.subject, identity.issuer, identity.public_key)

    def public_key(self, name: str) -> bytes | None:
        entry = self._entries.get(name)
        return entry.public_key if entry else None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name in self.names():
                e = self._entries[name]
                fh.write(
                    json.dumps(
                        {
                            "name": e.name,
                            "subject": e.subject,
                            "issuer": e.issuer,
                            "public_key": e.public_key.hex(),
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str) -> "TrustStore":
        store = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    name, subject, issuer, key = (obj[field] for field in ("name", "subject", "issuer", "public_key"))
                    key = bytes.fromhex(key)
                    if not all(isinstance(value, str) for value in (name, subject, issuer)) or len(key) != 32:
                        raise ValueError("needs string name, subject and issuer and a 32-byte hex public key")
                except (ValueError, KeyError, TypeError) as exc:
                    raise ConfigError(f"malformed trust store entry {line!r}: {exc}") from exc
                if name in store._entries:
                    raise ConfigError(f"trust store has a second entry for {name!r}")
                store.add(Identity(name, subject, issuer, key))
        return store
