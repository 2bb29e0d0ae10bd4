"""Tamper-evident append-only Merkle log with inclusion/consistency proofs.

Hashing follows the Certificate Transparency scheme: leaves are
SHA-256(0x00 || payload), interior nodes SHA-256(0x01 || left || right),
subtrees split at the largest power of two strictly below their size.
Optionally persists to a single append-only file of little-endian
32-bit-length-prefixed records; the hash cache is rebuilt on open.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

from .errors import LogIntegrityError
from .identity import Identity, sign_bytes, verify_bytes

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"
_LEN = struct.Struct("<I")


def leaf_hash(payload: bytes) -> bytes:
    return hashlib.sha256(_LEAF_PREFIX + payload).digest()


def _node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_PREFIX + left + right).digest()


def empty_root() -> bytes:
    return hashlib.sha256(b"").digest()


def _largest_pow2_below(n: int) -> int:
    k = 1
    while k * 2 < n:
        k *= 2
    return k


@dataclass(frozen=True)
class InclusionProof:
    leaf_index: int
    tree_size: int
    path: tuple[bytes, ...]

    def to_obj(self) -> dict:
        return {"leaf_index": self.leaf_index, "tree_size": self.tree_size, "path": [h.hex() for h in self.path]}

    @classmethod
    def from_obj(cls, obj: dict) -> "InclusionProof":
        return cls(int(obj["leaf_index"]), int(obj["tree_size"]), tuple(bytes.fromhex(h) for h in obj["path"]))


@dataclass(frozen=True)
class ConsistencyProof:
    old_size: int
    new_size: int
    path: tuple[bytes, ...]

    def to_obj(self) -> dict:
        return {"old_size": self.old_size, "new_size": self.new_size, "path": [h.hex() for h in self.path]}

    @classmethod
    def from_obj(cls, obj: dict) -> "ConsistencyProof":
        return cls(int(obj["old_size"]), int(obj["new_size"]), tuple(bytes.fromhex(h) for h in obj["path"]))


@dataclass(frozen=True)
class SignedTreeHead:
    tree_size: int
    root_hash: bytes
    timestamp_ms: int
    signature: bytes

    def to_obj(self) -> dict:
        return {
            "tree_size": self.tree_size,
            "root_hash": self.root_hash.hex(),
            "timestamp_ms": self.timestamp_ms,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SignedTreeHead":
        tree_size, timestamp_ms = int(obj["tree_size"]), int(obj["timestamp_ms"])
        if not (0 <= tree_size < 2**64 and 0 <= timestamp_ms < 2**64):  # `tree_head_bytes` packs both in 8 bytes
            raise ValueError(f"tree head size {tree_size} or timestamp {timestamp_ms} outside 0 .. 2**64 - 1")
        return cls(tree_size, bytes.fromhex(obj["root_hash"]), timestamp_ms, bytes.fromhex(obj["signature"]))


def tree_head_bytes(tree_size: int, root_hash: bytes, timestamp_ms: int) -> bytes:
    return struct.pack(">Q", tree_size) + root_hash + struct.pack(">Q", timestamp_ms)


def sign_tree_head(log: "MerkleLog", operator: Identity, timestamp_ms: int) -> SignedTreeHead:
    size = len(log)
    root = log.root(size)
    signature = sign_bytes(operator, tree_head_bytes(size, root, timestamp_ms))
    return SignedTreeHead(size, root, timestamp_ms, signature)


def verify_tree_head(sth: SignedTreeHead, operator_public_key: bytes) -> bool:
    return verify_bytes(
        operator_public_key, sth.signature, tree_head_bytes(sth.tree_size, sth.root_hash, sth.timestamp_ms)
    )


class MerkleLog:
    """Append-only leaf store that caches the hash of each perfect subtree
    (2^j leaves, aligned) once computed, so it holds fewer entries than
    leaves; a root or a proof rehashes only the O(log n) others.

    Single writer; reads at a fixed tree_size are stable snapshots. When
    `path` is given, appended payloads are written through to disk and the
    log is rebuilt from the file on construction.
    """

    def __init__(self, path: str | None = None):
        self._payloads: list[bytes] = []
        self._leaf_hashes: list[bytes] = []
        self._subtree_cache: dict[tuple[int, int], bytes] = {}
        self._fh = None
        if path is not None:
            if os.path.exists(path):
                self._load(path)
            self._fh = open(path, "ab")

    def _load(self, path: str) -> None:
        with open(path, "rb") as fh:
            data = fh.read()
        pos = 0
        while pos < len(data):
            if pos + 4 > len(data):
                raise LogIntegrityError(f"truncated length prefix at byte {pos} in {path}")
            (length,) = _LEN.unpack_from(data, pos)
            pos += 4
            if pos + length > len(data):
                raise LogIntegrityError(f"truncated record at byte {pos} in {path}")
            payload = data[pos : pos + length]
            pos += length
            self._payloads.append(payload)
            self._leaf_hashes.append(leaf_hash(payload))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self._payloads)

    def append(self, payload: bytes) -> int:
        index = len(self._payloads)
        if self._fh is not None:
            self._fh.write(_LEN.pack(len(payload)) + payload)
            self._fh.flush()
        self._payloads.append(payload)
        self._leaf_hashes.append(leaf_hash(payload))
        return index

    def payload(self, index: int) -> bytes:
        return self._payloads[index]

    def _subtree(self, lo: int, hi: int) -> bytes:
        if hi - lo == 1:
            return self._leaf_hashes[lo]
        cached = self._subtree_cache.get((lo, hi))
        if cached is not None:
            return cached
        k = _largest_pow2_below(hi - lo)
        value = _node(self._subtree(lo, lo + k), self._subtree(lo + k, hi))
        if hi - lo == 2 * k:
            self._subtree_cache[(lo, hi)] = value
        return value

    def root(self, tree_size: int | None = None) -> bytes:
        size = len(self) if tree_size is None else tree_size
        if not (0 <= size <= len(self)):
            raise LogIntegrityError(f"tree size {size} out of range (log has {len(self)} leaves)")
        if size == 0:
            return empty_root()
        return self._subtree(0, size)

    def prove_inclusion(self, leaf_index: int, tree_size: int | None = None) -> InclusionProof:
        size = len(self) if tree_size is None else tree_size
        if not (0 <= leaf_index < size <= len(self)):
            raise LogIntegrityError(f"inclusion range error: index {leaf_index}, size {size}, log {len(self)}")
        return InclusionProof(leaf_index, size, tuple(self._audit_path(leaf_index, 0, size)))

    def _audit_path(self, m: int, lo: int, hi: int) -> list[bytes]:
        n = hi - lo
        if n == 1:
            return []
        k = _largest_pow2_below(n)
        if m < k:
            return self._audit_path(m, lo, lo + k) + [self._subtree(lo + k, hi)]
        return self._audit_path(m - k, lo + k, hi) + [self._subtree(lo, lo + k)]

    def prove_consistency(self, old_size: int, new_size: int | None = None) -> ConsistencyProof:
        new = len(self) if new_size is None else new_size
        if not (0 < old_size <= new <= len(self)):
            raise LogIntegrityError(f"consistency range error: old {old_size}, new {new}, log {len(self)}")
        if old_size == new:
            return ConsistencyProof(old_size, new, ())
        return ConsistencyProof(old_size, new, tuple(self._subproof(old_size, 0, new, True)))

    def _subproof(self, m: int, lo: int, hi: int, whole: bool) -> list[bytes]:
        n = hi - lo
        if m == n:
            return [] if whole else [self._subtree(lo, hi)]
        k = _largest_pow2_below(n)
        if m <= k:
            return self._subproof(m, lo, lo + k, whole) + [self._subtree(lo + k, hi)]
        return self._subproof(m - k, lo + k, hi, False) + [self._subtree(lo, lo + k)]


def verify_inclusion(root: bytes, leaf: bytes, proof: InclusionProof) -> bool:
    """Recompute the root from a leaf hash and its audit path."""
    if proof.leaf_index < 0 or proof.tree_size < 1 or proof.leaf_index >= proof.tree_size:
        return False
    fn = proof.leaf_index
    sn = proof.tree_size - 1
    value = leaf
    for sibling in proof.path:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            value = _node(sibling, value)
            if not fn & 1:
                while fn and not fn & 1:
                    fn >>= 1
                    sn >>= 1
        else:
            value = _node(value, sibling)
        fn >>= 1
        sn >>= 1
    return sn == 0 and value == root


def verify_consistency(old_root: bytes, new_root: bytes, proof: ConsistencyProof) -> bool:
    """Check that the new tree is an append-only extension of the old one."""
    first, second = proof.old_size, proof.new_size
    if first < 1 or first > second:
        return False
    if first == second:
        return not proof.path and old_root == new_root
    path = list(proof.path)
    if first & (first - 1) == 0:  # old size is an exact power of two
        path = [old_root] + path
    if not path:
        return False
    fn = first - 1
    sn = second - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    fr = sr = path[0]
    for sibling in path[1:]:
        if sn == 0:
            return False
        if fn & 1 or fn == sn:
            fr = _node(sibling, fr)
            sr = _node(sibling, sr)
            if not fn & 1:
                while fn and not fn & 1:
                    fn >>= 1
                    sn >>= 1
        else:
            sr = _node(sr, sibling)
        fn >>= 1
        sn >>= 1
    return sn == 0 and fr == old_root and sr == new_root
