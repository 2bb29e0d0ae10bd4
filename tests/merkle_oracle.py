"""Brute-force Merkle tree builder used as ground truth for the claim log.

Recomputes roots directly from the hashing definition (leaf = H(0x00||data),
node = H(0x01||l||r), split at the largest power of two strictly below n),
with no sharing with the production code beyond the two prefix bytes.
"""

import hashlib


def brute_leaf(payload: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + payload).digest()


def brute_root(payloads: list[bytes]) -> bytes:
    n = len(payloads)
    if n == 0:
        return hashlib.sha256(b"").digest()
    if n == 1:
        return brute_leaf(payloads[0])
    k = 1
    while k * 2 < n:
        k *= 2
    left = brute_root(payloads[:k])
    right = brute_root(payloads[k:])
    return hashlib.sha256(b"\x01" + left + right).digest()


def _split(n: int) -> int:
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def brute_path(payloads: list[bytes], m: int) -> list[bytes]:
    """PATH(m, D[n]) of RFC 9162 §2.1.3.1: the audit path of leaf m."""
    n = len(payloads)
    if n == 1:
        return []
    k = _split(n)
    if m < k:
        return brute_path(payloads[:k], m) + [brute_root(payloads[k:])]
    return brute_path(payloads[k:], m - k) + [brute_root(payloads[:k])]


def brute_consistency(payloads: list[bytes], m: int) -> list[bytes]:
    """PROOF(m, D[n]) of RFC 9162 §2.1.4.1, by SUBPROOF(m, D[n], true)."""

    def subproof(d, m, whole):
        n = len(d)
        if m == n:
            return [] if whole else [brute_root(d)]
        k = _split(n)
        if m <= k:
            return subproof(d[:k], m, whole) + [brute_root(d[k:])]
        return subproof(d[k:], m - k, False) + [brute_root(d[:k])]

    return [] if m == len(payloads) else subproof(payloads, m, True)
