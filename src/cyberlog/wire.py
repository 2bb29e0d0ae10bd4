"""Serialization between in-memory claims/records and their wire JSON forms.

All hashes travel as lowercase hex; rules inside evidence are canonical
one-line text with explicit principals so they can be reparsed without a
self principal in scope. Canonical JSON is compact separators, insertion
order preserved, UTF-8.
"""

from __future__ import annotations

import json

from .engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    Evidence,
    atom_id,
    canonical_atom,
    parse_canonical_atom,
)
from .errors import EvidenceError, ParseError
from .lang import parse_standalone_rule


def canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def evidence_to_obj(ev: Evidence) -> dict:
    if isinstance(ev, DerivedByRule):
        return {
            "kind": "derived_by_rule",
            "rule": ev.rule.standalone_text,
            "substitution": _subst_obj(ev.substitution),
            "premises": list(ev.premises),
        }
    if isinstance(ev, DirectAssertion):
        return {"kind": "direct_assertion", "signer": ev.signer, "signature": ev.signature.hex()}
    if isinstance(ev, CarriedByNextRule):
        return {
            "kind": "carried_by_next_rule",
            "rule": ev.rule.standalone_text,
            "substitution": _subst_obj(ev.substitution),
            "source_revision": ev.source_revision,
        }
    raise EvidenceError(f"unknown evidence type {type(ev).__name__}")


def evidence_from_obj(obj: dict) -> Evidence:
    try:
        kind = obj["kind"]
        if kind == "derived_by_rule":
            return DerivedByRule(
                parse_standalone_rule(obj["rule"]),
                dict(obj["substitution"]),
                tuple(obj["premises"]),
            )
        if kind == "direct_assertion":
            return DirectAssertion(obj["signer"], bytes.fromhex(obj["signature"]))
        if kind == "carried_by_next_rule":
            return CarriedByNextRule(
                parse_standalone_rule(obj["rule"]),
                dict(obj["substitution"]),
                obj["source_revision"],
            )
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        raise EvidenceError(f"malformed evidence object: {exc}") from exc
    raise EvidenceError(f"unknown evidence kind {obj.get('kind')!r}")


def _subst_obj(substitution) -> dict:
    return {name: substitution[name] for name in sorted(substitution)}


def claim_to_obj(claim: Claim) -> dict:
    return {"atom": canonical_atom(claim.atom), "evidence": evidence_to_obj(claim.evidence)}


def claim_from_obj(obj: dict) -> Claim:
    try:
        atom = parse_canonical_atom(obj["atom"])
    except (KeyError, ValueError) as exc:
        raise EvidenceError(f"malformed claim object: {exc}") from exc
    return Claim(atom, evidence_from_obj(obj["evidence"]), atom_id(atom))
