"""Serialization between in-memory claims/records and their wire JSON forms.

All hashes travel as lowercase hex. Canonical JSON is compact separators,
insertion order preserved, UTF-8.

A rule instance names its rule by index into the rulesheet its revision
names (`"rule":3`), the first index of a rule a sheet holds twice: a
derived claim a standard rule, a carried claim a next-rule. A rule the
sheet does not hold cannot be encoded, and a reference that is not such an
index does not decode.

Evidence logs only what a reader cannot recompute. A rule instance leaves
out the substitution entries of bare head variables, which binding the rule
head to the claim's atom gives back, and the key itself when nothing is
left. A carried claim leaves out its source revision, which is the
supersedes of the revision that logs it, and a derived claim its premises,
which are its rule's relational body atoms under the substitution. A direct
assertion logs nothing but its kind: it is the claim atom's principal's,
and its owner's signature is the revision's, over the id that hashes the
claim's text.
"""

from __future__ import annotations

import json

from .engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    Evidence,
    GroundAtom,
    bind_head,
    canonical_atom,
    parse_canonical_atom,
)
from .errors import EvidenceError
from .lang import Rule, RuleKind, Rulesheet, format_rule


_CANONICAL = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


# the kind of rule each kind of rule instance names
_RULE_KINDS = {"derived_by_rule": RuleKind.STANDARD, "carried_by_next_rule": RuleKind.NEXT}


def evidence_to_obj(ev: Evidence, rs: Rulesheet) -> dict:
    """The logged object of a claim's evidence under rulesheet `rs`."""
    if isinstance(ev, DirectAssertion):
        return {"kind": "direct_assertion"}
    if isinstance(ev, DerivedByRule):
        return _rule_instance_obj("derived_by_rule", ev.rule, ev.substitution, rs)
    if isinstance(ev, CarriedByNextRule):
        return _rule_instance_obj("carried_by_next_rule", ev.rule, ev.substitution, rs)
    raise EvidenceError(f"unknown evidence type {type(ev).__name__}")


def _rule_instance_obj(kind: str, rule: Rule, substitution, rs: Rulesheet) -> dict:
    index, want = rs.rule_index(rule), _RULE_KINDS[kind]
    if index is None or rule.kind is not want:
        text = format_rule(rule, oneline=True)
        raise EvidenceError(f"{kind} by a rule that is not a {want.value} rule of the rulesheet: {text}")
    obj = {"kind": kind, "rule": index}
    logged = {name: substitution[name] for name in sorted(substitution) if name not in rule.head_variables}
    if logged:
        obj["substitution"] = logged
    return obj


def _logged_rule(kind: str, ref, rs: Rulesheet) -> Rule:
    """The rule of `rs` that a rule instance of `kind` names by index."""
    if type(ref) is not int or not 0 <= ref < len(rs.rules):
        raise EvidenceError(f"rule reference {ref!r} is not an index into the rulesheet's {len(rs.rules)} rules")
    rule = rs.rules[ref]
    if rule.kind is not _RULE_KINDS[kind]:
        raise EvidenceError(f"{kind} names rule {ref}, a {rule.kind.value} rule")
    return rule


def evidence_from_obj(obj: dict, atom: GroundAtom, rs: Rulesheet) -> Evidence:
    """The evidence of the claim of `atom` under rulesheet `rs`; a rule
    instance's substitution is its head bound to `atom` plus the logged
    entries, which bind only variables of its rule, each to an integer or
    a string."""
    try:
        kind = obj["kind"]
        if kind == "direct_assertion":
            if obj.keys() != {"kind"}:
                raise EvidenceError(f"direct assertion logs more than its kind: {sorted(obj)}")
            return DirectAssertion()
        if kind in _RULE_KINDS:
            rule = _logged_rule(kind, obj["rule"], rs)
            substitution = bind_head(rule.head, atom)
            if substitution is None:
                raise EvidenceError(f"rule head does not bind the claim {canonical_atom(atom)}")
            logged = obj.get("substitution", {})
            if type(logged) is not dict or not all(
                name in rule.variables and type(value) in (int, str) for name, value in logged.items()
            ):
                raise EvidenceError(f"substitution {logged!r} binds more than rule variables to integers or strings")
            substitution.update(logged)
            return (DerivedByRule if kind == "derived_by_rule" else CarriedByNextRule)(rule, substitution)
    except (KeyError, TypeError, ValueError) as exc:
        raise EvidenceError(f"malformed evidence object: {exc}") from exc
    raise EvidenceError(f"unknown evidence kind {obj.get('kind')!r}")


def claim_to_obj(claim: Claim, rs: Rulesheet) -> dict:
    """The logged object of a claim of a revision under rulesheet `rs`."""
    return {"atom": canonical_atom(claim.atom), "evidence": evidence_to_obj(claim.evidence, rs)}


def claim_from_obj(obj: dict, rs: Rulesheet) -> Claim:
    """The claim of a logged claim object under rulesheet `rs`."""
    try:
        atom = parse_canonical_atom(obj["atom"])
    except (KeyError, ValueError) as exc:
        raise EvidenceError(f"malformed claim object: {exc}") from exc
    return Claim(atom, evidence_from_obj(obj["evidence"], atom, rs))
