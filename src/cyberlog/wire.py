"""Serialization between in-memory claims/records and their wire JSON forms.

All hashes travel as lowercase hex; rules inside evidence are canonical
one-line text with explicit principals so they can be reparsed without a
self principal in scope. Canonical JSON is compact separators, insertion
order preserved, UTF-8.

Evidence logs only what a reader cannot recompute. A rule instance leaves
out the substitution entries of bare head variables, which binding the rule
head to the claim's atom gives back, and the key itself when nothing is
left. A carried claim leaves out its source revision, which is the
supersedes of the revision that logs it.
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
    atom_id,
    bind_head,
    canonical_atom,
    parse_canonical_atom,
)
from .errors import EvidenceError, ParseError
from .lang import Rule, parse_standalone_rule


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def evidence_to_obj(ev: Evidence) -> dict:
    if isinstance(ev, DerivedByRule):
        obj = _rule_instance_obj("derived_by_rule", ev.rule, ev.substitution)
        obj["premises"] = list(ev.premises)
        return obj
    if isinstance(ev, DirectAssertion):
        return {"kind": "direct_assertion", "signer": ev.signer, "signature": ev.signature.hex()}
    if isinstance(ev, CarriedByNextRule):
        return _rule_instance_obj("carried_by_next_rule", ev.rule, ev.substitution)
    raise EvidenceError(f"unknown evidence type {type(ev).__name__}")


def _rule_instance_obj(kind: str, rule: Rule, substitution) -> dict:
    obj = {"kind": kind, "rule": rule.standalone_text}
    logged = {name: substitution[name] for name in sorted(substitution) if name not in rule.head_variables}
    if logged:
        obj["substitution"] = logged
    return obj


def evidence_from_obj(obj: dict, atom: GroundAtom, source: str | None) -> Evidence:
    """The evidence of the claim of `atom` in a revision superseding
    `source` (None for a chain root); a rule instance's substitution is
    its head bound to `atom` plus the logged entries."""
    try:
        kind = obj["kind"]
        if kind == "direct_assertion":
            return DirectAssertion(obj["signer"], bytes.fromhex(obj["signature"]))
        if kind in ("derived_by_rule", "carried_by_next_rule"):
            rule = parse_standalone_rule(obj["rule"])
            substitution = bind_head(rule.head, atom)
            if substitution is None:
                raise EvidenceError(f"rule head does not bind the claim {canonical_atom(atom)}")
            substitution.update(obj.get("substitution", {}))
            if kind == "derived_by_rule":
                return DerivedByRule(rule, substitution, tuple(obj["premises"]))
            if source is None:
                raise EvidenceError(f"carried claim {canonical_atom(atom)} in a revision that supersedes none")
            return CarriedByNextRule(rule, substitution, source)
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise EvidenceError(f"malformed evidence object: {exc}") from exc
    raise EvidenceError(f"unknown evidence kind {obj.get('kind')!r}")


def claim_to_obj(claim: Claim) -> dict:
    return {"atom": canonical_atom(claim.atom), "evidence": evidence_to_obj(claim.evidence)}


def claim_from_obj(obj: dict, source: str | None) -> Claim:
    """The claim of a logged claim object in a revision superseding
    `source`, the source revision of a carried claim."""
    try:
        atom = parse_canonical_atom(obj["atom"])
    except (KeyError, ValueError) as exc:
        raise EvidenceError(f"malformed claim object: {exc}") from exc
    return Claim(atom, evidence_from_obj(obj["evidence"], atom, source), atom_id(atom))
