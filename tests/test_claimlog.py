"""Merkle log behaviour against the brute-force tree oracle."""

import random

import pytest

from cyberlog.claimlog import (
    ConsistencyProof,
    InclusionProof,
    MerkleLog,
    empty_root,
    leaf_hash,
    sign_tree_head,
    verify_consistency,
    verify_inclusion,
    verify_tree_head,
)
from cyberlog.errors import LogIntegrityError
from cyberlog.identity import generate_identity

from merkle_oracle import brute_consistency, brute_leaf, brute_path, brute_root


def payloads_for(n, seed=0):
    rng = random.Random(seed)
    return [bytes([rng.randrange(256) for _ in range(rng.randrange(1, 24))]) for _ in range(n)]


def filled_log(payloads):
    log = MerkleLog()
    for p in payloads:
        log.append(p)
    return log


def test_single_leaf_root():
    log = MerkleLog()
    assert log.append(b"payload") == 0
    assert log.root() == brute_leaf(b"payload")
    assert log.root() == leaf_hash(b"payload")


def test_eight_leaf_root_matches_oracle():
    payloads = payloads_for(8)
    log = filled_log(payloads)
    assert log.root() == brute_root(payloads)


def test_roots_match_oracle_for_sizes_up_to_64():
    payloads = payloads_for(64, seed=1)
    log = filled_log(payloads)
    for size in range(0, 65):
        assert log.root(size) == brute_root(payloads[:size]), f"size {size}"


def test_growing_log_roots_and_proofs_equal_the_oracle():
    """Appended one leaf at a time, the log's roots, audit paths and
    consistency proofs, for every size it has held, are the RFC 9162 ones
    the oracle builds: hashes cached at one size serve every later one."""
    payloads = payloads_for(66, seed=7)
    log = MerkleLog()
    for n, payload in enumerate(payloads, start=1):
        log.append(payload)
        assert log.root() == brute_root(payloads[:n]), n
        for size in range(1, n + 1):
            for m in range(size):
                assert log.prove_inclusion(m, size).path == tuple(brute_path(payloads[:size], m)), (m, size)
            assert log.prove_consistency(size, n).path == tuple(brute_consistency(payloads[:n], size)), (size, n)


def test_subtree_cache_holds_fewer_entries_than_leaves():
    """Only perfect subtrees are cached: after 1000 appends, each followed
    by a root and a proof, the cache holds fewer hashes than the log leaves."""
    log = MerkleLog()
    for n in range(1, 1001):
        log.append(n.to_bytes(4, "big"))
        log.root()
        log.prove_inclusion(n // 3)
    assert len(log._subtree_cache) < len(log) == 1000
    assert all((hi - lo) & (hi - lo - 1) == 0 and lo % (hi - lo) == 0 for lo, hi in log._subtree_cache)


def test_duplicate_payloads_get_distinct_indices():
    log = MerkleLog()
    assert log.append(b"same") == 0
    assert log.append(b"same") == 1
    assert len(log) == 2


def test_empty_tree_root():
    assert MerkleLog().root() == empty_root()


def test_inclusion_single_leaf_empty_path():
    log = filled_log([b"x"])
    proof = log.prove_inclusion(0, 1)
    assert proof.path == ()
    assert verify_inclusion(log.root(1), leaf_hash(b"x"), proof)


def test_inclusion_all_indices_all_sizes():
    payloads = payloads_for(64, seed=2)
    log = filled_log(payloads)
    for size in range(1, 65):
        root = brute_root(payloads[:size])
        for index in range(size):
            proof = log.prove_inclusion(index, size)
            assert verify_inclusion(root, brute_leaf(payloads[index]), proof), (index, size)


def test_inclusion_out_of_range():
    log = filled_log(payloads_for(3))
    with pytest.raises(LogIntegrityError):
        log.prove_inclusion(5, 3)
    with pytest.raises(LogIntegrityError):
        log.prove_inclusion(0, 4)


def test_truncated_proof_fails():
    payloads = payloads_for(8, seed=3)
    log = filled_log(payloads)
    proof = log.prove_inclusion(3, 8)
    truncated = InclusionProof(3, 8, proof.path[:-1])
    assert not verify_inclusion(log.root(8), brute_leaf(payloads[3]), truncated)


def test_leaf_hash_bit_flips_falsify_inclusion():
    rng = random.Random(4)
    cases = 0
    for size in range(1, 65):
        payloads = payloads_for(size, seed=size)
        log = filled_log(payloads)
        root = log.root(size)
        for index in range(size):
            proof = log.prove_inclusion(index, size)
            leaf = bytearray(brute_leaf(payloads[index]))
            pos = rng.randrange(32)
            leaf[pos] ^= 1 << rng.randrange(8)
            assert not verify_inclusion(root, bytes(leaf), proof), (index, size)
            cases += 1
    assert cases == 2080


def test_consistency_equal_sizes():
    log = filled_log(payloads_for(5))
    proof = log.prove_consistency(5, 5)
    assert proof.path == ()
    assert verify_consistency(log.root(5), log.root(5), proof)
    assert not verify_consistency(log.root(4), log.root(5), proof)


def test_consistency_all_pairs_up_to_32():
    payloads = payloads_for(32, seed=5)
    log = filled_log(payloads)
    for old in range(1, 33):
        old_root = brute_root(payloads[:old])
        for new in range(old, 33):
            proof = log.prove_consistency(old, new)
            assert verify_consistency(old_root, brute_root(payloads[:new]), proof), (old, new)


def test_consistency_detects_rewritten_history():
    payloads = payloads_for(12, seed=6)
    log = filled_log(payloads)
    old_root = log.root(7)
    tampered = list(payloads)
    tampered[3] = b"rewritten"
    fork = filled_log(tampered)
    proof = fork.prove_consistency(7, 12)
    assert not verify_consistency(old_root, fork.root(12), proof)


def test_consistency_range_errors():
    log = filled_log(payloads_for(4))
    with pytest.raises(LogIntegrityError):
        log.prove_consistency(0, 3)
    with pytest.raises(LogIntegrityError):
        log.prove_consistency(3, 9)


def test_proof_objects_roundtrip():
    log = filled_log(payloads_for(9, seed=7))
    ip = log.prove_inclusion(2, 9)
    assert InclusionProof.from_obj(ip.to_obj()) == ip
    cp = log.prove_consistency(4, 9)
    assert ConsistencyProof.from_obj(cp.to_obj()) == cp


# --- signed tree heads -------------------------------------------------------


def test_signed_tree_head_empty_log():
    operator = generate_identity("log-operator", seed=bytes(32))
    sth = sign_tree_head(MerkleLog(), operator, timestamp_ms=0)
    assert sth.tree_size == 0
    assert sth.root_hash == empty_root()
    assert verify_tree_head(sth, operator.public_key)


def test_tree_head_signature_key_mismatch():
    operator = generate_identity("log-operator", seed=bytes(32))
    other = generate_identity("imposter", seed=bytes([9]) * 32)
    log = filled_log(payloads_for(3))
    sth = sign_tree_head(log, operator, timestamp_ms=17)
    assert verify_tree_head(sth, operator.public_key)
    assert not verify_tree_head(sth, other.public_key)


def test_successive_heads_monotone():
    operator = generate_identity("log-operator", seed=bytes(32))
    log = MerkleLog()
    sizes = []
    for i in range(5):
        log.append(bytes([i]))
        sizes.append(sign_tree_head(log, operator, timestamp_ms=i).tree_size)
    assert sizes == sorted(sizes)


# --- persistence -------------------------------------------------------------


def test_file_persistence_and_reload(tmp_path):
    path = str(tmp_path / "claims.log")
    payloads = payloads_for(10, seed=8)
    log = MerkleLog(path)
    for p in payloads:
        log.append(p)
    root = log.root()
    log.close()

    reopened = MerkleLog(path)
    assert len(reopened) == 10
    assert reopened.root() == root
    assert reopened.payload(4) == payloads[4]
    reopened.append(b"more")
    assert reopened.root(10) == root
    reopened.close()


def test_tampered_file_changes_root(tmp_path):
    path = str(tmp_path / "claims.log")
    log = MerkleLog(path)
    for p in payloads_for(6, seed=9):
        log.append(p)
    root = log.root()
    log.close()

    with open(path, "r+b") as fh:
        fh.seek(6)  # inside the first payload (after its 4-byte length prefix)
        byte = fh.read(1)
        fh.seek(6)
        fh.write(bytes([byte[0] ^ 0xFF]))

    tampered = MerkleLog(path)
    assert tampered.root() != root
    tampered.close()


def test_truncated_file_detected(tmp_path):
    path = str(tmp_path / "claims.log")
    log = MerkleLog(path)
    log.append(b"0123456789")
    log.close()
    with open(path, "r+b") as fh:
        fh.truncate(8)
    with pytest.raises(LogIntegrityError, match="truncated"):
        MerkleLog(path)


def test_consistency_rejects_mutated_roots_and_paths():
    rng = random.Random(11)
    payloads = payloads_for(32, seed=12)
    log = filled_log(payloads)
    checked = 0
    for old in range(1, 33):
        for new in range(old + 1, 33, 3):
            proof = log.prove_consistency(old, new)
            old_root, new_root = log.root(old), log.root(new)
            flipped = bytearray(old_root)
            flipped[rng.randrange(32)] ^= 1 << rng.randrange(8)
            assert not verify_consistency(bytes(flipped), new_root, proof)
            flipped_new = bytearray(new_root)
            flipped_new[rng.randrange(32)] ^= 1 << rng.randrange(8)
            assert not verify_consistency(old_root, bytes(flipped_new), proof)
            if proof.path:
                hole = list(proof.path)
                victim = rng.randrange(len(hole))
                broken = bytearray(hole[victim])
                broken[rng.randrange(32)] ^= 1 << rng.randrange(8)
                hole[victim] = bytes(broken)
                assert not verify_consistency(old_root, new_root, ConsistencyProof(old, new, tuple(hole)))
            checked += 1
    assert checked > 100


def test_inclusion_proof_not_transferable_between_leaves():
    payloads = payloads_for(16, seed=21)
    log = filled_log(payloads)
    root = log.root(16)
    for index in range(16):
        proof = log.prove_inclusion(index, 16)
        other = (index + 1) % 16
        # proof for one leaf must not verify another leaf's hash
        assert not verify_inclusion(root, leaf_hash(payloads[other]), proof)
        # nor the same leaf at a relabeled index
        relabeled = InclusionProof(other, 16, proof.path)
        if leaf_hash(payloads[index]) != leaf_hash(payloads[other]):
            assert not verify_inclusion(root, leaf_hash(payloads[index]), relabeled)


def test_known_interop_root_vectors():
    """Roots over the classic interop leaves match the published vectors for
    this hashing scheme (verified independently before freezing)."""
    leaves = [
        b"",
        b"\x00",
        b"\x10",
        b"\x20\x21",
        b"\x30\x31",
        b"\x40\x41\x42\x43",
        b"\x50\x51\x52\x53\x54\x55\x56\x57",
        b"\x60\x61\x62\x63\x64\x65\x66\x67\x68\x69\x6a\x6b\x6c\x6d\x6e\x6f",
    ]
    expected = [
        "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        "fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125",
        "aeb6bcfe274b70a14fb067a5e5578264db0fa9b51af5e0ba159158f329e06e77",
        "d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
        "4e3bbb1f7b478dcfe71fb631631519a3bca12c9aefca1612bfce4c13a86264d4",
        "76e67dadbcdf1e10e1b74ddc608abd2f98dfb16fbce75277b5232a127f2087ef",
        "ddb89be403809e325750d3d263cd78929c2942b7942a34b77e122c9594a74c8c",
        "5dc9da79a70659a9ad559cb701ded9a2ab9d823aad2f4960cfe370eff4604328",
    ]
    log = filled_log(leaves)
    for size, digest in enumerate(expected, start=1):
        assert log.root(size).hex() == digest


INTEROP_LEAVES = [
    b"",
    b"\x00",
    b"\x10",
    b"\x20\x21",
    b"\x30\x31",
    b"\x40\x41\x42\x43",
    b"\x50\x51\x52\x53\x54\x55\x56\x57",
    b"\x60\x61\x62\x63\x64\x65\x66\x67\x68\x69\x6a\x6b\x6c\x6d\x6e\x6f",
]


@pytest.mark.parametrize(
    "index,size,path",
    [
        (0, 1, []),
        (
            0,
            8,
            [
                "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
                "5f083f0a1a33ca076a95279832580db3e0ef4584bdff1f54c8a360f50de3031e",
                "6b47aaf29ee3c2af9af889bc1fb9254dabd31177f16232dd6aab035ca39bf6e4",
            ],
        ),
        (
            5,
            8,
            [
                "bc1a0643b12e4d2d7c77918f44e0f4f79a838b6cf9ec5b5c283e1f4d88599e6b",
                "ca854ea128ed050b41b35ffc1b87b8eb2bde461e9e3b5596ece6b9d5975a0ae0",
                "d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
            ],
        ),
        (2, 3, ["fac54203e7cc696cf0dfcb42c92a1d9dbaf70ad9e621f4bd8d98662f00e3c125"]),
        (
            1,
            5,
            [
                "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
                "5f083f0a1a33ca076a95279832580db3e0ef4584bdff1f54c8a360f50de3031e",
                "bc1a0643b12e4d2d7c77918f44e0f4f79a838b6cf9ec5b5c283e1f4d88599e6b",
            ],
        ),
    ],
)
def test_known_interop_inclusion_vectors(index, size, path):
    log = filled_log(INTEROP_LEAVES)
    proof = log.prove_inclusion(index, size)
    assert [h.hex() for h in proof.path] == path
    assert verify_inclusion(log.root(size), leaf_hash(INTEROP_LEAVES[index]), proof)


@pytest.mark.parametrize(
    "old,new,path",
    [
        (
            1,
            8,
            [
                "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
                "5f083f0a1a33ca076a95279832580db3e0ef4584bdff1f54c8a360f50de3031e",
                "6b47aaf29ee3c2af9af889bc1fb9254dabd31177f16232dd6aab035ca39bf6e4",
            ],
        ),
        (
            6,
            8,
            [
                "0ebc5d3437fbe2db158b9f126a1d118e308181031d0a949f8dededebc558ef6a",
                "ca854ea128ed050b41b35ffc1b87b8eb2bde461e9e3b5596ece6b9d5975a0ae0",
                "d37ee418976dd95753c1c73862b9398fa2a2cf9b4ff0fdfe8b30cd95209614b7",
            ],
        ),
    ],
)
def test_known_interop_consistency_vectors(old, new, path):
    log = filled_log(INTEROP_LEAVES)
    proof = log.prove_consistency(old, new)
    assert [h.hex() for h in proof.path] == path
    assert verify_consistency(log.root(old), log.root(new), proof)
