"""The generic claim codec: the reference for `wire`'s per-rule codecs.

It shares only `canonical_json` with `wire`: it encodes a claim into a dict
for `canonical_json`, finds a rule's index by equality, binds the rule head
with `engine.bind_head` and checks the logged substitution entry by entry,
with `wire`'s refusals and messages. `wire` compiles one encoder and one decoder
per rule of a sheet instead; the tests check that both give the same text,
the same claims and the same refusals as this module.
"""

from __future__ import annotations

from cyberlog.engine import (
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
from cyberlog.errors import EvidenceError
from cyberlog.lang import Rule, RuleKind, Rulesheet, format_rule
from cyberlog.wire import canonical_json

# the kind of rule each kind of rule instance names
_RULE_KINDS = {"derived_by_rule": RuleKind.STANDARD, "carried_by_next_rule": RuleKind.NEXT}


def rule_index(rs: Rulesheet, rule: Rule) -> int | None:
    """The first index of a rule equal to `rule`, which evidence logs to
    name it, or None if the sheet holds no such rule."""
    return next((index for index, held in enumerate(rs.rules) if held == rule), None)


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
    index, want = rule_index(rs, rule), _RULE_KINDS[kind]
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


def claim_text(claim: Claim, rs: Rulesheet) -> str:
    """The canonical text of a claim of a revision under rulesheet `rs`."""
    return canonical_json(claim_to_obj(claim, rs))


def claim_from_obj(obj: dict, rs: Rulesheet) -> Claim:
    """The claim of a logged claim object under rulesheet `rs`."""
    try:
        atom = parse_canonical_atom(obj["atom"])
    except (KeyError, ValueError) as exc:
        raise EvidenceError(f"malformed claim object: {exc}") from exc
    return Claim(atom, evidence_from_obj(obj["evidence"], atom, rs))
