"""Forged rule instances fail the `Auditor` and honest ones pass it. The
audit renders the check its `LogReader` makes of every revision it
accepts, with the engine's evidence checker; a knowledge base refuses every
one of them on entry, honest or forged: it makes its own derivations.

Every forged rule instance passes submission to the claim DB (which checks
only the revision's signature and structure); the reader must catch them. A
direct assertion is evidence through the signed revision that holds it:
the reader checks that revision's owner signature, and that the assertion
is its owner's, of its owner's atom.
"""

import pytest

from cyberlog.audit import Auditor, render_audit_tree
from cyberlog.engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    GroundAtom,
    KnowledgeBase,
)
from cyberlog.errors import EvidenceError, LogIntegrityError, SignatureError
from cyberlog.lang import parse_rulesheet
from cyberlog.revision import build_record, encode_payload, sign_record

from conftest import OPERATOR, audit_agrees_with_reader, publish_rulesheet

SHEET = (
    "'SB': Subject: 's' Issuer: 'i'\n"
    "verdict(Id) :- request(Id).\n"
    "big(Id) :- request(Id), Id > 5.\n"
    "param(Id, V) :- body(Id, B), get_param_int(B, 'n', V).\n"
    "next carried(Id) :- request(Id), Id > 5.\n"
)
RS = parse_rulesheet(SHEET, "SB")
RULES = {rule.head.predicate: rule for rule in RS.rules}
BODY = '{"n": 3}'


def sb(predicate, *args):
    return GroundAtom("SB", predicate, args)


# name -> (claimed atom, rule, substitution, whether the instance is
# honest). The honest ones show that each forged case fails for its forgery
# alone. A premise is named by its atom, the rule's body atom under the
# substitution, so a premise reference cannot disagree with the rule.
CASES = {
    "honest": (sb("verdict", 7), "verdict", {"Id": 7}, True),
    "honest_builtin": (sb("param", 7, 3), "param", {"Id": 7, "B": BODY, "V": 3}, True),
    "honest_comparison": (sb("big", 7), "big", {"Id": 7}, True),
    "head_mismatch": (sb("verdict", 99), "verdict", {"Id": 7}, False),
    "premise_not_logged": (sb("verdict", 9), "verdict", {"Id": 9}, False),
    "builtin_fails": (sb("param", 7, 4), "param", {"Id": 7, "B": BODY, "V": 4}, False),
    "comparison_fails": (sb("big", 3), "big", {"Id": 3}, False),
    "side_condition_unevaluable": (sb("big", "x"), "big", {"Id": "x"}, False),
}
BASE_ATOMS = [
    sb("request", 7),
    sb("request", 3),
    sb("request", "x"),
    sb("unrelated", "z"),
    sb("body", 7, BODY),
]


def signed(atom):
    return Claim(atom, DirectAssertion())


def derived(name):
    atom, rule, subst, _honest = CASES[name]
    return Claim(atom, DerivedByRule(RULES[rule], dict(subst)))


def log_and_audit(db, identities, trust_store, claims, supersedes=None, commit_time=1):
    record, body = build_record("SB", supersedes, (), RS, claims, commit_time)
    publish_rulesheet(db, RS)
    db.submit_revision(encode_payload(body, sign_record(record, identities["SB"])))
    audit_agrees_with_reader(db, trust_store, identities[OPERATOR].public_key, "SB")
    return record, Auditor(db, trust_store, identities[OPERATOR].public_key)


@pytest.mark.parametrize("name", sorted(CASES))
def test_rule_instance_chain_check(name):
    """A KB refuses a derivation offered to it, an honest one too (even one
    equal to a derivation it holds), and keeps its atoms, evidence objects
    and pending work."""
    claim = derived(name)
    kb = KnowledgeBase(RS)
    for base in BASE_ATOMS:  # left unsaturated: request('x') makes `big` raise
        kb.assert_claim(signed(base))
    before, pending = dict(kb.claims), list(kb._unsaturated)
    with pytest.raises(EvidenceError, match="a derivation is the KB's own to make"):
        kb.revise((), [claim])
    assert kb.claims == before and all(kb.claims[a] is c for a, c in before.items())
    assert kb._unsaturated == pending and not kb._removed


@pytest.mark.parametrize("name", sorted(CASES))
def test_rule_instance_audit(db, identities, trust_store, name):
    claim = derived(name)
    base = [signed(atom) for atom in BASE_ATOMS]
    record, auditor = log_and_audit(db, identities, trust_store, base + [claim])
    node = auditor.audit_atom("SB", claim.atom)
    assert node.all_ok is CASES[name][-1], render_audit_tree(node)
    if name == "premise_not_logged":
        assert [child.detail for child in node.children] == [f"premise not found in revision {record.id[:8]} or its includes"]


@pytest.mark.parametrize("value, holds", [(7, True), (3, False)])
def test_carried_claim_side_condition_audited(db, identities, trust_store, value, holds):
    source, _ = log_and_audit(db, identities, trust_store, [signed(sb("request", value))])
    atom = sb("carried", value)
    carried = Claim(atom, CarriedByNextRule(RULES["carried"], {"Id": value}))
    _record, auditor = log_and_audit(db, identities, trust_store, [carried], supersedes=source.id, commit_time=2)
    node = auditor.audit_atom("SB", atom)
    assert node.all_ok is holds, render_audit_tree(node)
    if not holds:
        rule = "next 'SB' attests carried(Id) :- 'SB' attests request(Id), Id > 5."
        assert node.detail == f"rule instance does not hold under the stored substitution in rule: {rule}"


def test_direct_assertion_by_unknown_signer_fails_audit(db, identities, trust_store):
    """An auditor that holds no key for a revision's owner cannot check the
    signature that is its direct assertions' evidence: its reader refuses
    the revision, before reading any claim of it."""
    from cyberlog.identity import TrustStore

    claim = signed(sb("request", 7))
    log_and_audit(db, identities, trust_store, [claim])
    others = TrustStore.from_identities(identity for name, identity in identities.items() if name != "SB")
    auditor = Auditor(db, others, identities[OPERATOR].public_key)
    with pytest.raises(SignatureError, match="unknown owner 'SB'"):
        auditor.audit_atom("SB", claim.atom)


# forgery -> (the claim, the owner of the revision it is held in)
FORGERIES = {
    "honest": (Claim(sb("request", 7), DirectAssertion()), "SB"),
    "other-signature": (Claim(sb("request", 7), DirectAssertion()), "MRM"),
    "other-atom": (Claim(GroundAtom("MRM", "request", (7,)), DirectAssertion()), "SB"),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_forged_direct_assertion_fails_audit(db, identities, trust_store, forgery):
    """A direct assertion passes the audit only as SB's own atom asserted by
    SB in a revision SB signed. Each forgery, held in a revision another
    owner signed or of another principal's atom, is refused where it would
    enter: the claim DB logs a revision on its header, and every reader,
    the Auditor's too, refuses one holding a claim of anyone but its
    owner."""
    claim, owner = FORGERIES[forgery]
    honest, auditor = log_and_audit(db, identities, trust_store, [FORGERIES["honest"][0]])
    if forgery == "honest":
        [node] = auditor.audit_head("SB")
        assert node.all_ok and node.kind == "direct_assertion", render_audit_tree(node)
        assert node.detail == f"asserted by SB in revision {honest.id[:8]}"
        return
    rs = RS if owner == "SB" else parse_rulesheet("'MRM': Subject: 's' Issuer: 'i'\n", "MRM")
    publish_rulesheet(db, rs)
    forged, body = build_record(owner, None if owner == "MRM" else honest.id, (), rs, [claim], 2)
    payload = encode_payload(body, sign_record(forged, identities[owner]))
    assert db.submit_revision(payload)["revision_id"] == forged.id
    with pytest.raises(LogIntegrityError, match="holds a claim of"):
        Auditor(db, trust_store, identities[OPERATOR].public_key).audit_head(owner)
    assert not audit_agrees_with_reader(db, trust_store, identities[OPERATOR].public_key, owner)
