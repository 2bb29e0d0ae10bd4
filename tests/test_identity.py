"""Identity generation, claim signing, trust store persistence."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cyberlog.engine import GroundAtom, canonical_atom
from cyberlog.errors import ConfigError, EvidenceError
from cyberlog.identity import Identity, TrustStore, generate_identity, sign_bytes, verify_bytes

from conftest import SignedClaim, sign_claim


def verify_claim(identity, sc):
    if sc.signer != identity.name:
        return False
    return verify_bytes(identity.public_key, sc.signature, canonical_atom(sc.atom).encode("utf-8"))


SEED_A = bytes(range(32))
SEED_B = bytes(range(1, 33))


def test_seeded_generation_is_deterministic():
    one = generate_identity("SB", "subj", "iss", seed=SEED_A)
    two = generate_identity("SB", "subj", "iss", seed=SEED_A)
    assert one.public_key == two.public_key
    assert generate_identity("SB", seed=SEED_B).public_key != one.public_key


def test_sign_verify_roundtrip():
    ident = generate_identity("SB", seed=SEED_A)
    sig = sign_bytes(ident, b"message")
    assert verify_bytes(ident.public_key, sig, b"message")
    assert not verify_bytes(ident.public_key, sig, b"other")


def test_sign_claim_and_cross_identity_rejection():
    sb = generate_identity("SB", seed=SEED_A)
    mrm = generate_identity("MRM", seed=SEED_B)
    atom = GroundAtom("SB", "request", (7, "d", 5))
    sc = sign_claim(sb, atom)
    assert verify_claim(sb, sc)
    assert not verify_claim(mrm, sc)


def test_mutated_argument_breaks_signature():
    sb = generate_identity("SB", seed=SEED_A)
    sc = sign_claim(sb, GroundAtom("SB", "request", (7, "d", 5)))
    forged = SignedClaim(GroundAtom("SB", "request", (8, "d", 5)), sc.signer, sc.signature)
    assert not verify_claim(sb, forged)


def test_missing_private_key():
    ident = generate_identity("SB", seed=SEED_A)
    public_only = type(ident)(ident.name, ident.subject, ident.issuer, ident.public_key, None)
    with pytest.raises(EvidenceError, match="no private key"):
        sign_bytes(public_only, b"x")


def test_identity_refuses_a_public_key_not_its_own():
    sb = generate_identity("SB", seed=SEED_A)
    mrm = generate_identity("MRM", seed=SEED_B)
    with pytest.raises(ConfigError, match="does not belong"):
        Identity("SB", "", "", mrm.public_key, sb.private_key)
    assert Identity("SB", "", "", sb.public_key, sb.private_key) == sb


def test_trust_store_roundtrip(tmp_path):
    ids = [generate_identity(n, f"CN={n}", "CN=R3", seed=bytes([i]) * 32) for i, n in enumerate(["SB", "MRM"])]
    store = TrustStore.from_identities(ids)
    path = tmp_path / "trust.jsonl"
    store.save(str(path))
    loaded = TrustStore.load(str(path))
    assert loaded.names() == ["MRM", "SB"]
    assert loaded.public_key("SB") == ids[0].public_key
    assert loaded.public_key("nobody") is None
    assert json.loads(path.read_text().splitlines()[0]) == {
        "name": "MRM", "subject": "CN=MRM", "issuer": "CN=R3", "public_key": ids[1].public_key.hex()
    }
    again = tmp_path / "again.jsonl"
    loaded.save(str(again))
    assert again.read_bytes() == path.read_bytes()


GOOD_KEY = generate_identity("SB", seed=SEED_A).public_key.hex()


@pytest.mark.parametrize(
    "line",
    [
        "[]",
        '"x"',
        json.dumps({"name": 5, "subject": "s", "issuer": "i", "public_key": GOOD_KEY}),
        json.dumps({"name": "SB", "subject": "s", "issuer": "i", "public_key": "00"}),
    ],
    ids=["array", "string", "name-not-string", "one-byte-key"],
)
def test_trust_store_refuses_a_malformed_line(tmp_path, line):
    """A line that is not an object with string name, subject and issuer and
    a 32-byte hex public key is a ConfigError naming the line, never a
    TypeError or an entry under which every signature check would fail."""
    path = tmp_path / "trust.jsonl"
    good = json.dumps({"name": "MRM", "subject": "s", "issuer": "i", "public_key": GOOD_KEY})
    path.write_text(good + "\n" + line + "\n")
    with pytest.raises(ConfigError, match="malformed trust store entry") as exc:
        TrustStore.load(str(path))
    assert repr(line) in str(exc.value)
    path.write_text(good + "\n")
    assert TrustStore.load(str(path)).names() == ["MRM"]


def test_trust_store_refuses_a_second_line_for_a_name(tmp_path):
    """A stray line for a loaded name is a ConfigError naming it, not a
    silent replacement of that principal's key."""
    path = tmp_path / "trust.jsonl"
    other = generate_identity("SB", seed=SEED_B).public_key.hex()
    lines = [json.dumps({"name": "SB", "subject": "s", "issuer": "i", "public_key": key}) for key in (GOOD_KEY, other)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="second entry for 'SB'"):
        TrustStore.load(str(path))
    path.write_text(lines[0] + "\n" + lines[0] + "\n")  # even with the same key
    with pytest.raises(ConfigError, match="second entry for 'SB'"):
        TrustStore.load(str(path))


def test_trust_store_holds_no_private_key():
    sb = generate_identity("SB", "CN=SB", "CN=R3", seed=SEED_A)
    store = TrustStore.from_identities([sb])
    store.add(generate_identity("MRM", seed=SEED_B))
    held = store._entries
    assert held["SB"] == sb and [identity.private_key for identity in held.values()] == [None, None]


_ground_terms = st.one_of(st.integers(min_value=-(2**63), max_value=2**63 - 1), st.text(max_size=12))


@settings(max_examples=60, deadline=None)
@given(
    st.text(min_size=1, max_size=6),
    st.sampled_from(["p", "q", "workflow_step"]),
    st.tuples(_ground_terms, _ground_terms),
)
def test_any_single_field_mutation_flips_verification(principal, predicate, args):
    ident = generate_identity(principal or "P", seed=SEED_A)
    atom = GroundAtom(ident.name, predicate, args)
    sc = sign_claim(ident, atom)
    assert verify_claim(ident, sc)
    mutated = GroundAtom(ident.name, predicate + "x", args)
    assert not verify_claim(ident, SignedClaim(mutated, sc.signer, sc.signature))
    mutated_arg = GroundAtom(ident.name, predicate, (args[0], "DIFFERENT-VALUE"))
    if mutated_arg != atom:
        assert not verify_claim(ident, SignedClaim(mutated_arg, sc.signer, sc.signature))
