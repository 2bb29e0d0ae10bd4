"""Claim/evidence wire round trips (line-delimited export)."""

import json

from cyberlog.engine import CarriedByNextRule, Claim, DirectAssertion, GroundAtom
from cyberlog.lang import parse_rulesheet
from cyberlog.wire import canonical_json, claim_from_obj, claim_to_obj

from conftest import claims_from_atoms

IDS = "'SB': Subject: 's' Issuer: 'i'\n'OM': Subject: 's' Issuer: 'i'\n"


def claims_to_jsonl(claims, rs):
    """Line-delimited export: one canonical atom + evidence object per line."""
    return "".join(canonical_json(claim_to_obj(c, rs)) + "\n" for c in claims)


def claims_from_jsonl(text, rs):
    """The claims of an export under rulesheet `rs`."""
    return [claim_from_obj(json.loads(line), rs) for line in text.splitlines() if line.strip()]


def test_claims_jsonl_roundtrip():
    rs = parse_rulesheet(IDS + "next v(R) :- 'OM' attests t(R, A), R > 0.", "SB")
    claims = [
        Claim(GroundAtom("OM", "t", (7, "x")), DirectAssertion()),
        Claim(
            GroundAtom("SB", "v", (7,)),
            CarriedByNextRule(rs.rules[0], {"R": 7, "A": "x"}),
        ),
    ]
    text = claims_to_jsonl(claims, rs)
    assert text.splitlines()[0] == '{"atom":"\\"OM\\"|t(7,\\"x\\")","evidence":{"kind":"direct_assertion"}}'
    assert '"rule":0' in text.splitlines()[1]
    back = claims_from_jsonl(text, rs)
    assert back == claims


def test_derived_claim_roundtrip_preserves_rule():
    from cyberlog.engine import KnowledgeBase

    rs = parse_rulesheet(IDS + "good(R) :- 'OM' attests t(R, A).", "SB")
    kb = KnowledgeBase(rs)
    for claim in claims_from_atoms([GroundAtom("OM", "t", (3, "y"))]):
        kb.assert_claim(claim)
    kb.saturate()
    derived = kb.claims[GroundAtom("SB", "good", (3,))]
    restored = claim_from_obj(claim_to_obj(derived, rs), rs)
    assert restored.evidence.rule == derived.evidence.rule
    assert restored.evidence.substitution == dict(derived.evidence.substitution)
    assert restored.evidence.premises == derived.evidence.premises == (GroundAtom("OM", "t", (3, "y")),)


def test_direct_assertion_by_another_principal_has_no_wire_form():
    """A direct assertion logs its kind only, and is its atom's principal's:
    no representation names anyone else, and a logged one that names a
    signer or a signature does not decode."""
    import pytest

    from cyberlog.errors import EvidenceError

    rs = parse_rulesheet(IDS, "SB")
    atom = GroundAtom("SB", "t", (7,))
    obj = claim_to_obj(Claim(atom, DirectAssertion()), rs)
    assert obj["evidence"] == {"kind": "direct_assertion"}
    assert claim_from_obj(obj, rs) == Claim(atom, DirectAssertion())
    for logged in ({"signer": "SB"}, {"signature": "ab" * 64}, {"signer": "OM", "signature": ""}):
        with pytest.raises(EvidenceError, match="direct assertion logs more than its kind"):
            claim_from_obj(dict(obj, evidence=dict(obj["evidence"], **logged)), rs)


def test_inclusion_evidence_has_no_wire_form():
    """Inclusion evidence lives in a watcher's KB only; no logged claim
    carries it, so it neither encodes nor decodes."""
    import pytest

    from cyberlog.claimlog import InclusionProof, MerkleLog, SignedTreeHead
    from cyberlog.engine import LogInclusion
    from cyberlog.errors import EvidenceError
    from cyberlog.wire import evidence_from_obj, evidence_to_obj

    log = MerkleLog()
    log.append(b"entry")
    proof, head = log.prove_inclusion(0, 1), SignedTreeHead(1, log.root(), 1, bytes(64))
    rs = parse_rulesheet(IDS, "SB")
    with pytest.raises(EvidenceError, match="unknown evidence type LogInclusion"):
        evidence_to_obj(LogInclusion("ab" * 32, bytes(32), proof, head), rs)
    obj = {
        "kind": "log_inclusion",
        "revision_id": "ab" * 32,
        "leaf_hash": "00" * 32,
        "proof": proof.to_obj(),
        "tree_head": head.to_obj(),
    }
    assert InclusionProof.from_obj(obj["proof"]) == proof
    with pytest.raises(EvidenceError, match="unknown evidence kind 'log_inclusion'"):
        evidence_from_obj(obj, GroundAtom("SB", "p", (1,)), rs)


def _instance_strategy():
    """A rule instance and its claim: a head over variables (some repeated)
    and constants, a body binding `A`, `B` and `C`, and, drawn or not, a
    comparison `D == A + K` binding `D` by arithmetic, as in `next
    counter(N1) :- counter(N), N1 == N + 1`."""
    from hypothesis import strategies as st

    from cyberlog.engine import instantiate_head

    text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
    ints = st.integers(-(2**40), 2**40)

    @st.composite
    def instance(draw):
        with_d = draw(st.booleans())
        names = ["A", "B", "C"] + (["D"] if with_d else [])
        constant = st.one_of(ints.map(str), st.from_regex(r"[a-z]{1,4}", fullmatch=True).map(lambda s: f"'{s}'"))
        head = draw(st.lists(st.one_of(st.sampled_from(names), constant), min_size=1, max_size=5))
        k = draw(st.integers(0, 9))
        body = "q(A, B, C)" + (f", D == A + {k}" if with_d else "")
        kind = draw(st.sampled_from(["", "next "]))
        rs = parse_rulesheet(f"{IDS}{kind}p({', '.join(head)}) :- {body}.\n", "SB")
        rule = rs.rules[0]
        values = {"A": draw(ints), "B": draw(st.one_of(ints, text)), "C": draw(st.one_of(ints, text))}
        if with_d:
            values["D"] = values["A"] + k
        return rs, values, instantiate_head(rule.head, values)

    return instance()


def test_claim_round_trips_with_head_bound_names_left_out():
    """`claim_from_obj(claim_to_obj(c)) == c` for derived and carried
    claims; the logged substitution holds no bare head variable, and is
    left out when nothing else is bound; a derived claim logs no premises,
    which its rule's body gives back under the substitution."""
    from hypothesis import given, settings

    from cyberlog.engine import DerivedByRule

    @settings(max_examples=300, deadline=None)
    @given(_instance_strategy())
    def check(instance):
        rs, values, atom = instance
        rule = rs.rules[0]
        claim = Claim(atom, (CarriedByNextRule if rule.is_next else DerivedByRule)(rule, values))
        obj = claim_to_obj(claim, rs)
        assert obj["evidence"]["rule"] == 0
        restored = claim_from_obj(json.loads(canonical_json(obj)), rs)
        assert restored == claim
        if not rule.is_next:
            assert restored.evidence.premises == (GroundAtom("SB", "q", (values["A"], values["B"], values["C"])),)
        logged = obj["evidence"].get("substitution")
        assert logged is None or (logged and not set(logged) & rule.head_variables)
        assert set(logged or ()) | rule.head_variables == set(values)
        assert "source_revision" not in obj["evidence"] and "premises" not in obj["evidence"]

    check()


def test_rule_head_that_does_not_bind_the_claim_is_refused():
    """A reader binds the rule head to the claim's atom; a predicate, an
    arity, a repeated variable or a constant that disagrees is malformed
    evidence, of a derived and of a carried claim alike."""
    import pytest

    from cyberlog.errors import EvidenceError

    rs = parse_rulesheet(IDS + "v(R, R, 'x') :- 'OM' attests t(R, A).\nnext v(R, R, 'x') :- 'OM' attests t(R, A).\n", "SB")
    for index, rule in enumerate(rs.rules):
        kind = "carried_by_next_rule" if rule.is_next else "derived_by_rule"
        obj = {"kind": kind, "rule": index, "substitution": {"A": "a"}}
        honest = claim_from_obj({"atom": '"SB"|v(7,7,"x")', "evidence": obj}, rs)
        assert honest.evidence.substitution == {"R": 7, "A": "a"}
        for text in ['"SB"|w(7,7,"x")', '"SB"|v(7,7)', '"SB"|v(7,8,"x")', '"SB"|v(7,7,"y")']:
            with pytest.raises(EvidenceError, match="rule head does not bind the claim"):
                claim_from_obj({"atom": text, "evidence": obj}, rs)


TWICE = IDS + "v(R) :- 'OM' attests t(R, A).\nnext v(R) :- 'OM' attests t(R, A).\nv(R) :- 'OM' attests t(R, A).\n"


def test_rule_reference_is_an_index_of_a_rule_of_its_kind():
    """A rule instance logs its rule as the first index of an equal rule in
    the rulesheet; a reference that is not an int index in range, or that
    names a rule of the other kind, is malformed evidence."""
    import pytest

    from cyberlog.engine import DerivedByRule
    from cyberlog.errors import EvidenceError

    rs = parse_rulesheet(TWICE, "SB")
    atom = GroundAtom("SB", "v", (7,))
    for rule in (rs.rules[0], rs.rules[2]):  # equal rules: the first index
        obj = claim_to_obj(Claim(atom, DerivedByRule(rule, {"R": 7, "A": "a"})), rs)
        assert obj["evidence"]["rule"] == 0
    carried = claim_to_obj(Claim(atom, CarriedByNextRule(rs.rules[1], {"R": 7, "A": "a"})), rs)
    assert carried["evidence"]["rule"] == 1
    good = {"kind": "derived_by_rule", "rule": 2, "substitution": {"A": "a"}}
    assert claim_from_obj({"atom": '"SB"|v(7)', "evidence": good}, rs).evidence.rule == rs.rules[0]
    for ref in ["0", True, False, 0.0, 1.5, -1, 3, None, [0]]:
        with pytest.raises(EvidenceError, match="not an index"):
            claim_from_obj({"atom": '"SB"|v(7)', "evidence": dict(good, rule=ref)}, rs)
    with pytest.raises(EvidenceError, match="derived_by_rule names rule 1, a next rule"):
        claim_from_obj({"atom": '"SB"|v(7)', "evidence": dict(good, rule=1)}, rs)
    wrong = {"kind": "carried_by_next_rule", "rule": 0, "substitution": {"A": "a"}}
    with pytest.raises(EvidenceError, match="carried_by_next_rule names rule 0, a standard rule"):
        claim_from_obj({"atom": '"SB"|v(7)', "evidence": wrong}, rs)


def test_rule_outside_the_rulesheet_cannot_be_encoded():
    """Evidence names a rule of the rulesheet its revision names: a rule the
    sheet does not hold, or a rule of the other kind, has no wire form."""
    import pytest

    from cyberlog.engine import DerivedByRule
    from cyberlog.errors import EvidenceError

    rs = parse_rulesheet(TWICE, "SB")
    outside = parse_rulesheet(IDS + "v(R) :- 'OM' attests t(R, 'x').\n", "SB").rules[0]
    atom = GroundAtom("SB", "v", (7,))
    for evidence in (
        DerivedByRule(outside, {"R": 7}),
        DerivedByRule(rs.rules[1], {"R": 7, "A": "a"}),
        CarriedByNextRule(rs.rules[0], {"R": 7, "A": "a"}),
    ):
        with pytest.raises(EvidenceError, match="not a (standard|next) rule of the rulesheet"):
            claim_to_obj(Claim(atom, evidence), rs)
