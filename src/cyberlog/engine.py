"""Evidence-carrying knowledge base and bottom-up saturation.

Every stored fact is a Claim: a ground attested atom plus the evidence that
justifies it. Saturation is semi-naive (per-iteration delta sets) and tags
each derivation with the rule instance used, whose relational body atoms
name its premise claims, so the full derivation chain can be replayed
later.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import CyberlogError, EvaluationError, EvidenceError
from .lang import (
    INT64_MAX,
    INT64_MIN,
    ArithExpr,
    BodyAtom,
    BuiltinAtom,
    ComparisonAtom,
    IntConstant,
    RelationalAtom,
    Rule,
    RuleKind,
    Rulesheet,
    StringConstant,
    Variable,
    format_rule,
)

if TYPE_CHECKING:
    from .claimlog import InclusionProof, SignedTreeHead

GroundTerm = int | str
Substitution = dict[str, GroundTerm]


@dataclass(frozen=True)
class GroundAtom:
    """An immutable ground atom. Its canonical text is computed from its
    fields on first use and kept (`canonical_atom`)."""

    principal: str
    predicate: str
    args: tuple[GroundTerm, ...]

    @functools.cached_property
    def _text(self) -> str:
        args = ",".join(_enc_term(a) for a in self.args)
        text = f"{_enc_string(self.principal)}|{self.predicate}({args})"
        if not text.isascii():
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                # A lone surrogate (as json.loads makes of "\ud800") has no
                # UTF-8 bytes, so the atom could be neither hashed nor signed.
                raise ValueError(f"atom text is not valid Unicode: {text!r}") from exc
        return text


# ---------------------------------------------------------------------------
# Canonical serialization: principal|predicate(a1,...) with double-quoted
# strings, base-10 integers, no whitespace. Signatures cover these UTF-8 bytes.


def _enc_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _enc_term(value: GroundTerm) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not a ground term: {value!r}")
    return str(value) if isinstance(value, int) else _enc_string(value)


def canonical_atom(atom: GroundAtom) -> str:
    return atom._text


# not strict: canonical text escapes only '\\' and '"', so a string may hold raw control characters
_JSON = json.JSONDecoder(strict=False)


@functools.lru_cache(maxsize=4096)
def parse_canonical_atom(text: str) -> GroundAtom:
    """Decode canonical atom text; raises ValueError on malformed text.

    The principal is a JSON string, and the arguments, between the first
    `(` after the `|` and the final `)`, are the items of a JSON array,
    each an integer or a string. Every revision that carries a claim
    repeats its atom's text, so decodes are memoised by text, like
    `parse_rulesheet`; a GroundAtom is immutable, and its text is
    recomputed from its fields, never taken from the input. A text that
    fails to decode raises again on every call.
    """
    try:
        principal, bar = _JSON.raw_decode(text)
        open_paren = text.find("(", bar)
        if type(principal) is not str or text[bar : bar + 1] != "|" or open_paren < 0 or text[-1] != ")":
            raise ValueError("not a string principal, '|', a predicate and '(' ... ')'")
        args = _JSON.decode(f"[{text[open_paren + 1 : -1]}]")
        if not all(type(arg) in (int, str) for arg in args):
            raise ValueError("an argument is neither an integer nor a string")
    except ValueError as exc:
        raise ValueError(f"bad canonical atom {text!r}: {exc}") from exc
    return GroundAtom(principal, text[bar + 1 : open_paren], tuple(args))


# ---------------------------------------------------------------------------
# Evidence


@dataclass(frozen=True)
class RuleInstance:
    """A rule with a substitution of its variables: the evidence of a
    derived or a carried claim."""

    rule: Rule
    substitution: Mapping[str, GroundTerm]

    @functools.cached_property
    def premises(self) -> tuple[GroundAtom, ...]:
        """The rule's relational body atoms under the substitution, in body
        order, grounded once (`_body_atoms`); raises EvaluationError when
        one does not ground."""
        return _body_atoms(self.rule, self.substitution)

    @functools.cached_property
    def _evaluated(self) -> tuple[GroundAtom, tuple[GroundAtom, ...]]:
        """The head atom and the premises of the instance, once its builtins
        and comparisons hold; raises EvidenceError. Kept on the evidence
        rather than on the claim: a value cached on an object gives it an
        instance dict, which slows every read of its attributes, and
        saturation reads claims' atoms in every join."""
        try:
            head = instantiate_head(self.rule.head, self.substitution)
            premises = self.premises
            for atom in self.rule.body:
                if isinstance(atom, BuiltinAtom):
                    if not eval_builtin(atom.name, atom.args, self.substitution):
                        raise EvidenceError(f"builtin {atom.name} does not hold under the stored substitution")
                elif isinstance(atom, ComparisonAtom) and not _eval_comparison(atom, self.substitution):
                    raise EvidenceError(f"comparison {atom.op} does not hold under the stored substitution")
        except EvaluationError as exc:
            raise EvidenceError(f"rule instance unevaluable: {exc}") from exc
        return head, premises


@dataclass(frozen=True)
class DerivedByRule(RuleInstance):
    """A standard-rule instance over the claims that hold its premises."""


@dataclass(frozen=True)
class DirectAssertion:
    """An atom asserted by its principal, who signs the revision that logs it."""


@dataclass(frozen=True)
class LogInclusion:
    revision_id: str
    leaf_hash: bytes
    proof: "InclusionProof"
    tree_head: "SignedTreeHead"


@dataclass(frozen=True)
class CarriedByNextRule(RuleInstance):
    """A next-rule instance over the revision that the revision holding
    the claim supersedes: the source is that record's `supersedes`, so
    equal rule instances are equal claims in every revision of a chain."""


Evidence = DerivedByRule | DirectAssertion | LogInclusion | CarriedByNextRule


@dataclass(frozen=True)
class Claim:
    atom: GroundAtom
    evidence: Evidence


# ---------------------------------------------------------------------------
# Term and body evaluation


def resolve_term(term, subst: Substitution) -> GroundTerm | None:
    """Ground value of a term under subst, or None if any variable is unbound."""
    if isinstance(term, Variable):
        return subst.get(term.name)
    if isinstance(term, IntConstant):
        return term.value
    if isinstance(term, StringConstant):
        return term.value
    if isinstance(term, ArithExpr):
        left = resolve_term(term.left, subst)
        right = resolve_term(term.right, subst)
        if left is None or right is None:
            return None
        if not isinstance(left, int) or not isinstance(right, int):
            raise EvaluationError(f"arithmetic on non-integer values: {left!r} {term.op} {right!r}")
        if term.op == "+":
            value = left + right
        elif term.op == "-":
            value = left - right
        else:
            value = left * right
        if not (INT64_MIN <= value <= INT64_MAX):
            raise EvaluationError(f"integer overflow: {left} {term.op} {right}")
        return value
    raise TypeError(term)


def _unify_args(pattern: Sequence, ground: Sequence[GroundTerm], subst: Substitution) -> Substitution | None:
    if len(pattern) != len(ground):
        return None
    out = subst
    copied = False
    for p, g in zip(pattern, ground):
        if isinstance(p, Variable):
            bound = out.get(p.name)
            if bound is None:
                if not copied:
                    out = dict(out)
                    copied = True
                out[p.name] = g
            elif bound != g:
                return None
        else:
            if resolve_term(p, out) != g:
                return None
    return out


def _json_lookup(data: str, path: str):
    try:
        value = json.loads(data)
    except ValueError:
        return None, False
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None, False
        value = value[key]
    return value, True


def eval_builtin(name: str, args: Sequence, subst: Substitution | None = None) -> list[Substitution]:
    """Evaluate a registered builtin against partially bound arguments.

    Inputs must be bound (EvaluationError otherwise); failure to produce a
    value yields no substitutions rather than an error.
    """
    subst = subst or {}
    if name not in ("get_param_int", "get_param_str"):
        raise EvaluationError(f"unknown builtin {name!r}")
    data = resolve_term(args[0], subst)
    path = resolve_term(args[1], subst)
    if data is None or path is None:
        raise EvaluationError(f"unbound input to builtin {name!r}")
    if not isinstance(data, str) or not isinstance(path, str):
        return []
    value, found = _json_lookup(data, path)
    want = int if name == "get_param_int" else str
    if not found or type(value) is not want:
        return []
    out = args[2]
    if isinstance(out, Variable) and out.name not in subst:
        bound = dict(subst)
        bound[out.name] = value
        return [bound]
    return [subst] if resolve_term(out, subst) == value else []


def _eval_comparison(atom: ComparisonAtom, subst: Substitution) -> list[Substitution]:
    left = resolve_term(atom.left, subst)
    right = resolve_term(atom.right, subst)
    if atom.op == "==":
        if left is None and isinstance(atom.left, Variable) and right is not None:
            bound = dict(subst)
            bound[atom.left.name] = right
            return [bound]
        if right is None and isinstance(atom.right, Variable) and left is not None:
            bound = dict(subst)
            bound[atom.right.name] = left
            return [bound]
        if left is None or right is None:
            raise EvaluationError("'==' with unbound operands")
        return [subst] if left == right else []
    if left is None or right is None:
        raise EvaluationError(f"{atom.op!r} with unbound operands")
    if atom.op == "!=":
        return [subst] if left != right else []
    if not isinstance(left, int) or not isinstance(right, int):
        raise EvaluationError(f"ordered comparison on non-integers: {left!r} {atom.op} {right!r}")
    ok = {"<": left < right, ">": left > right, "<=": left <= right, ">=": left >= right}[atom.op]
    return [subst] if ok else []


def instantiate_head(head: RelationalAtom, subst: Substitution, unbound="unbound head variable in {}") -> GroundAtom:
    args = []
    for term in head.args:
        value = resolve_term(term, subst)
        if value is None:
            raise EvaluationError(unbound.format(head.predicate))
        args.append(value)
    return GroundAtom(head.principal, head.predicate, tuple(args))


def _body_atoms(rule: Rule, substitution: Mapping[str, GroundTerm]) -> tuple[GroundAtom, ...]:
    """The rule's relational body atoms instantiated under `substitution`,
    in body order; raises EvaluationError when one does not ground."""
    unbound = "unbound variable in body atom {}"
    return tuple(instantiate_head(a, substitution, unbound) for a in rule.body if isinstance(a, RelationalAtom))


def match_rule_body(
    body: Sequence[BodyAtom],
    candidates,
    subst: Substitution | None = None,
) -> Iterator[Substitution]:
    """All substitutions satisfying the body left-to-right.

    `candidates(rel_index, atom, subst)` supplies the claims to try at the
    i-th relational position of `body`, given the partial substitution
    that reaches it; builtins and comparisons evaluate in place.
    """

    def walk(i: int, rel_i: int, subst: Substitution):
        if i == len(body):
            yield subst
            return
        atom = body[i]
        if isinstance(atom, RelationalAtom):
            for claim in candidates(rel_i, atom, subst):
                bound = _unify_args(atom.args, claim.atom.args, subst)
                if bound is not None:
                    yield from walk(i + 1, rel_i + 1, bound)
        elif isinstance(atom, BuiltinAtom):
            try:
                results = eval_builtin(atom.name, atom.args, subst)
            except EvaluationError as exc:
                raise EvaluationError(f"{exc} [bindings: {subst}]") from exc
            for bound in results:
                yield from walk(i + 1, rel_i, bound)
        else:
            try:
                results = _eval_comparison(atom, subst)
            except EvaluationError as exc:
                raise EvaluationError(f"{exc} [bindings: {subst}]") from exc
            for bound in results:
                yield from walk(i + 1, rel_i, bound)

    yield from walk(0, 0, subst or {})


def rule_substitution(rule: Rule, subst: Substitution) -> dict[str, GroundTerm]:
    """Restrict a full match substitution to the variables of the rule."""
    return {name: subst[name] for name in rule.variables if name in subst}


# ---------------------------------------------------------------------------
# Evidence checking, shared by the knowledge base and the log reader


def check_evidence(claim: Claim) -> tuple[GroundAtom, ...]:
    """The premise atoms of a claim, once its evidence is checked; raises
    EvidenceError.

    A rule instance (derived or carried) must reproduce the claim's atom,
    its builtins and comparisons must hold, and its premise atoms, the
    rule's relational body atoms in body order (`RuleInstance.premises`),
    must ground; any other evidence must be of a known type, and has no
    premise. A rule instance is evaluated once per evidence object, so
    once per claim object, which keeps the head and premise atoms it
    yields: a later check of that claim compares the kept head with its
    atom and evaluates nothing.

    Signatures, inclusion proofs and premises are checked where a claim
    enters the program: a commit signs the revision that holds its events,
    and a `LogReader` verifies what it fetches and accepts a revision only
    when its claims' premises hold (`revision.claim_premises`).
    """
    ev = claim.evidence
    if isinstance(ev, (DirectAssertion, LogInclusion)):
        return ()
    if not isinstance(ev, RuleInstance):
        raise EvidenceError(f"unknown evidence type {type(ev).__name__}")
    head, premises = ev._evaluated
    if head != claim.atom:
        raise EvidenceError(
            f"rule instance mismatch: rule head yields {canonical_atom(head)}, "
            f"which does not reproduce the claim {canonical_atom(claim.atom)}"
        )
    return premises


# ---------------------------------------------------------------------------
# Join plans

Probe = tuple[int, str]  # (argument position, variable bound before the atom)
JoinPlan = tuple[tuple[BodyAtom, ...], tuple[tuple[int, Probe | None], ...]]
_NO_INDEX: Mapping[int, dict] = {}


def _join_plan(
    rule: Rule, delta: int | None, indexed: Mapping[tuple[str, str], Collection[int]] | None = None
) -> JoinPlan:
    """The body in join order and, for each relational atom in that order,
    its body-order relational index and its probe: the first argument that
    is a bare variable bound before the atom (and, with `indexed`, whose
    position is indexed for the atom's predicate). Without a `delta`
    position the head is bound, and the body keeps its order.

    For a `delta` position, that atom goes first when every body atom
    before it is relational: such atoms cannot raise, and match the same
    claims in any order, so each builtin and comparison still meets the
    same partial matches. The delta atom itself gets no probe. Every
    variable of an atom is bound once the atom holds."""
    body = rule.body
    rel = [j for j, atom in enumerate(body) if isinstance(atom, RelationalAtom)]
    if indexed is None:
        unprobed = len(rel) < 2  # the one relational atom is the delta
    else:
        unprobed = all((body[j].principal, body[j].predicate) not in indexed for j in rel)
    if unprobed:
        return body, tuple((i, None) for i in range(len(rel)))
    order = list(range(len(body)))
    if delta is not None and rel[delta] == delta:  # only relational atoms before it
        order.insert(0, order.pop(delta))
    known = set(rule.head_variables if delta is None else ())
    steps: list[tuple[int, Probe | None]] = []
    for j in order:
        atom = body[j]
        if isinstance(atom, RelationalAtom):
            i, probe = rel.index(j), None
            for position, arg in enumerate(atom.args if i != delta else ()):
                if (
                    isinstance(arg, Variable)
                    and arg.name in known
                    and (indexed is None or position in indexed.get((atom.principal, atom.predicate), ()))
                ):
                    probe = (position, arg.name)
                    break
            steps.append((i, probe))
        for term in (atom.left, atom.right) if isinstance(atom, ComparisonAtom) else atom.args:
            if isinstance(term, Variable):
                known.add(term.name)
    return tuple(body[j] for j in order), tuple(steps)


# ---------------------------------------------------------------------------
# Knowledge base


def bind_head(head: RelationalAtom, atom: GroundAtom) -> Substitution | None:
    """Bindings of the head's variables that make it match `atom`, or None
    when the predicate, an arity or a constant disagrees."""
    if (head.principal, head.predicate) != (atom.principal, atom.predicate):
        return None
    return _unify_args(head.args, atom.args, {})  # a fresh dict: callers may add to it


class KnowledgeBase:
    """Set of claims keyed by atom, each with the evidence that justifies it,
    under the standard rules of the rulesheet it is built with.

    Owned by a single logical actor; not safe for concurrent mutation.
    Every claim a caller offers is checked on entry, by its own evidence
    only (`KnowledgeBase.check_evidence`), so the KB runs no Ed25519 check
    and no proof. The KB makes every derivation and carry-over itself, over
    stored premises, so every stored derivation rests on stored claims.

    A monitor keeps one KB for its lifetime and changes it only through
    `revise` and `carry`, which retract atoms by Delete-and-Rederive, admit
    claims and saturate, or change nothing; so between calls the KB is at
    its fixpoint. `assert_claim` admits one claim without saturating.

    Joins are planned once per standard rule with two or more relational
    atoms (`_join_plan`): for each delta position, an order and, per
    atom, a probe into an argument index kept with the claims, so a delta
    claim meets only the claims that share its join values. A head-bound
    re-derivation probes only the indexes saturation keeps.
    """

    def __init__(self, rulesheet: Rulesheet):
        self.claims: dict[GroundAtom, Claim] = {}
        self._index: dict[tuple[str, str], dict[GroundAtom, Claim]] = {}
        # (principal, predicate) -> probed position -> argument value -> claims
        self._arg_index: dict[tuple[str, str], dict[int, dict[GroundTerm, dict[GroundAtom, Claim]]]] = {}
        # Claims admitted since the last fixpoint, and atoms removed since
        # then (each to be re-derived if it still can be).
        self._unsaturated: list[Claim] = []
        self._removed: dict[GroundAtom, None] = {}
        # premise atom -> atoms of the claims whose recorded derivation names it
        self._dependents: dict[GroundAtom, dict[GroundAtom, None]] = {}
        # each standard rule with its relational body atoms in body order,
        # the join plan of each delta position, and its head-bound plan
        std = [rule for rule in rulesheet.rules if rule.kind is RuleKind.STANDARD]
        self._next_rules = [rule for rule in rulesheet.rules if rule.kind is RuleKind.NEXT]
        rels = [[a for a in rule.body if isinstance(a, RelationalAtom)] for rule in std]
        plans = [[_join_plan(rule, k) for k in range(len(rel))] for rule, rel in zip(std, rels)]
        for body, steps in (plan for rule_plans in plans for plan in rule_plans):
            for atom, (_i, probe) in zip((a for a in body if isinstance(a, RelationalAtom)), steps):
                if probe is not None:
                    self._arg_index.setdefault((atom.principal, atom.predicate), {})[probe[0]] = {}
        self._joins = [
            (rule, rel, rule_plans, _join_plan(rule, None, self._arg_index))
            for rule, rel, rule_plans in zip(std, rels, plans)
        ]
        # a rule without relational atoms fires once, here
        facts: dict[GroundAtom, Claim] = {}
        for rule, rel, _plans, _rederive in self._joins:
            if not rel:
                self._fire(rule, rule.body, lambda i, a, s: (), facts)
        for claim in facts.values():
            self.assert_claim(claim)
        self.saturate()

    def __len__(self) -> int:
        return len(self.claims)

    def __contains__(self, atom: GroundAtom) -> bool:
        return atom in self.claims

    def claims_for(self, principal: str, predicate: str) -> Collection[Claim]:
        claims = self._index.get((principal, predicate))
        return claims.values() if claims is not None else ()

    def _probe(self, atom: RelationalAtom, probe: Probe | None, subst: Substitution) -> Collection[Claim]:
        """The stored claims the atom can match: with a probe, only those
        whose argument at its position is its variable's value."""
        if probe is None:
            return self.claims_for(atom.principal, atom.predicate)
        position, name = probe
        bucket = self._arg_index[(atom.principal, atom.predicate)][position].get(subst[name])
        return bucket.values() if bucket is not None else ()

    # -- admission ------------------------------------------------------

    def assert_claim(self, claim: Claim) -> bool:
        """Add a claim `_fire` has just built, unchecked; returns False if
        the atom is already present (set semantics, first evidence wins)."""
        if claim.atom in self.claims:
            return False
        self._store(claim)
        self._unsaturated.append(claim)
        return True

    def revise(self, retract: Iterable[GroundAtom], claims: Iterable[Claim]) -> list[Claim]:
        """Retract atoms, admit claims and saturate, as one change; returns
        the admitted claims whose atoms are new, then the claims saturation
        derived, among them any retracted atom it derived again.

        Every claim in `claims` is checked first (`check_evidence`), a
        derivation refused, even one that is its atom's stored object: if
        one fails, EvidenceError is raised and nothing changes. Any other
        claim that is the stored object of its atom is neither checked
        again nor replaced, but is admitted, so it is not retracted. An
        admitted claim whose atom is present
        otherwise replaces that atom's evidence; its atom is not new, so
        saturation does not join it again. An atom in `retract` that is not
        admitted is removed, and so, transitively, is every derived claim
        whose recorded premises name a removed claim. Saturation then looks
        for another derivation of each removed atom over the claims that
        remain (Delete-and-Rederive), and joins what it re-derives and the
        new claims as its first delta.

        When saturation raises, the KB gets back the claim objects it held
        on entry before the error propagates: the atoms the call added are
        retracted, the claims it replaced or removed, a derivation that fell
        with a retracted premise included, are admitted again, and the KB
        saturates again.
        """
        claims = list(claims)
        for claim in claims:
            # a stored claim was checked when it entered, unless the KB derived it
            if isinstance(claim.evidence, DerivedByRule) or self.claims.get(claim.atom) is not claim:
                self.check_evidence(claim)
        return self._revise(retract, claims)

    def carry(self, retract: Iterable[GroundAtom]) -> list[Claim]:
        """Admit the next-rule carry-overs of the claims held, each head atom's
        from its first match, and retract `retract`, as `revise` does but
        unchecked, since the KB made them; returns them. A carry-over equal
        to a stored claim is that stored object. If a match or saturation
        raises, the KB is as it was on entry; a match's EvaluationError names
        its rule, as `_fire`'s does. Not matched by `_fire`: a branch
        there on the rule's kind made perfbench's `watch` ingests 3% slower."""
        carried: dict[GroundAtom, Claim] = {}
        for rule in self._next_rules:
            try:
                for full in match_rule_body(rule.body, lambda _i, a, _s: self.claims_for(a.principal, a.predicate)):
                    atom = instantiate_head(rule.head, full)
                    if atom not in carried:
                        claim = Claim(atom, CarriedByNextRule(rule, rule_substitution(rule, full)))
                        carried[atom] = stored if (stored := self.claims.get(atom)) == claim else claim
            except EvaluationError as exc:
                raise EvaluationError(f"{exc} in rule: {format_rule(rule, oneline=True)}") from exc
        claims = list(carried.values())
        self._revise(retract, claims)
        return claims

    def _revise(self, retract: Iterable[GroundAtom], claims: list[Claim]) -> list[Claim]:
        """`revise` after its checks."""
        added, displaced = self._apply(retract, claims)
        try:
            derived = self.saturate()
        except CyberlogError:
            self._apply([claim.atom for claim in added], displaced)
            self.saturate()
            raise
        return added + derived

    def _apply(self, retract: Iterable[GroundAtom], claims: Iterable[Claim]) -> tuple[list[Claim], list[Claim]]:
        """The admission and retraction of `revise`, leaving saturation
        pending, checking nothing; returns the admitted claims whose atoms
        are new and the stored claims that were replaced or removed, those
        that fell with a retracted premise included."""
        incoming = {claim.atom: (claim, self.claims.get(claim.atom)) for claim in claims}  # atom -> (claim, stored)
        added: list[Claim] = []
        displaced: list[Claim] = []  # stored claims replaced or removed
        for claim, old in incoming.values():
            if old is claim:
                continue
            if old is None:
                added.append(claim)
                self._unsaturated.append(claim)
            else:
                displaced.append(old)
                self._release(old)
            self._store(claim)
        stack = [atom for atom in retract if atom not in incoming]
        removed: dict[GroundAtom, None] = {}
        while stack:
            atom = stack.pop()
            claim = self.claims.get(atom)
            if claim is None:
                continue
            removed[atom] = None
            displaced.append(claim)
            self._drop(claim)
            stack.extend(self._dependents.pop(atom, ()))
        if removed:
            self._removed.update(removed)
            self._unsaturated = [c for c in self._unsaturated if c.atom not in removed]
            added = [c for c in added if c.atom not in removed]
        return added, displaced

    def check_evidence(self, claim: Claim) -> None:
        """Check a claim a caller offers; raises EvidenceError. A derivation
        is refused, since the KB makes its own; any other claim's own
        evidence is checked (`check_evidence`), once per claim object."""
        if isinstance(claim.evidence, DerivedByRule):
            raise EvidenceError(f"a derivation is the KB's own to make: {canonical_atom(claim.atom)} is offered as one")
        check_evidence(claim)

    def _store(self, claim: Claim) -> None:
        """Store a checked claim whose atom is absent or whose predecessor
        was released."""
        atom = claim.atom
        self.claims[atom] = claim
        key = (atom.principal, atom.predicate)
        group = self._index.get(key)
        if group is None:
            group = self._index[key] = {}
        group[atom] = claim
        for position, buckets in self._arg_index.get(key, _NO_INDEX).items():
            if position < len(atom.args):
                bucket = buckets.get(atom.args[position])
                if bucket is None:
                    bucket = buckets[atom.args[position]] = {}
                bucket[atom] = claim
        if isinstance(claim.evidence, DerivedByRule):
            for premise in claim.evidence.premises:
                dependents = self._dependents.get(premise)
                if dependents is None:
                    dependents = self._dependents[premise] = {}
                dependents[atom] = None

    def _drop(self, claim: Claim) -> None:
        self._release(claim)
        del self.claims[claim.atom]
        key = (claim.atom.principal, claim.atom.predicate)
        del self._index[key][claim.atom]
        if not self._index[key]:
            del self._index[key]
        for position, buckets in self._arg_index.get(key, _NO_INDEX).items():
            if position < len(claim.atom.args):
                bucket = buckets[claim.atom.args[position]]
                del bucket[claim.atom]
                if not bucket:
                    del buckets[claim.atom.args[position]]

    def _release(self, claim: Claim) -> None:
        """Forget a stored claim's premise edges."""
        if isinstance(claim.evidence, DerivedByRule):
            for premise in claim.evidence.premises:
                dependents = self._dependents.get(premise)
                if dependents is not None:
                    dependents.pop(claim.atom, None)
                    if not dependents:
                        del self._dependents[premise]

    # -- saturation -----------------------------------------------------

    def saturate(self) -> list[Claim]:
        """Least fixpoint of the standard rules; returns claims added.

        Semi-naive: the first delta is the claims admitted since the last
        fixpoint, since every match over older claims alone was already
        derived there. Each atom `revise` removed since then is first
        re-derived, with the head bound, if some rule instance over the
        remaining claims still yields it; those claims join the delta. A
        call that raises leaves its seed, and what it derived, pending for
        the next (`revise` undoes its change instead).
        """
        start = len(self._unsaturated)
        if self._removed:
            rederived: dict[GroundAtom, Claim] = {}
            for atom in self._removed:
                for rule, _rel, _plans, (body, steps) in self._joins:
                    if atom in self.claims or atom in rederived:
                        break
                    self._fire(rule, body, lambda j, a, s, steps=steps: self._probe(a, steps[j][1], s), rederived, atom)
            for claim in rederived.values():
                self.assert_claim(claim)
        delta = list(self._unsaturated)

        while delta:
            delta_atoms = {c.atom for c in delta}
            delta_index: dict[tuple[str, str], list[Claim]] = {}
            for claim in delta:
                delta_index.setdefault((claim.atom.principal, claim.atom.predicate), []).append(claim)
            pending: dict[GroundAtom, Claim] = {}
            for rule, rel, plans, _rederive in self._joins:
                for k, atom_k in enumerate(rel):
                    delta_k = delta_index.get((atom_k.principal, atom_k.predicate))
                    if delta_k is None:
                        continue
                    body, steps = plans[k]

                    def candidates(
                        j: int, atom: RelationalAtom, subst: Substitution, k=k, delta_k=delta_k, steps=steps
                    ):
                        i, probe = steps[j]
                        if i == k:
                            return delta_k
                        pool = self._probe(atom, probe, subst)
                        if i < k:
                            return [c for c in pool if c.atom not in delta_atoms]
                        return pool

                    self._fire(rule, body, candidates, pending)
            delta = [claim for claim in pending.values() if self.assert_claim(claim)]
        added = self._unsaturated[start:]
        self._unsaturated = []
        if self._removed:
            self._removed = {}
        return added

    def _fire(
        self, rule: Rule, body: Sequence[BodyAtom], candidates, sink: dict, target: GroundAtom | None = None
    ) -> None:
        """Derive into `sink` each match of the rule, its body joined in the
        order `body` gives, over `candidates` whose head is not stored yet;
        with a `target` atom, bind the head to it and stop at the first
        match that yields it."""
        subst = None
        if target is not None:
            subst = bind_head(rule.head, target)
            if subst is None:
                return
        try:
            for full in match_rule_body(body, candidates, subst):
                atom = instantiate_head(rule.head, full)
                if atom not in self.claims and atom not in sink:
                    sink[atom] = Claim(atom, DerivedByRule(rule, rule_substitution(rule, full)))
                if target is not None:
                    return
        except EvaluationError as exc:
            raise EvaluationError(f"{exc} in rule: {format_rule(rule, oneline=True)}") from exc

    # -- queries ----------------------------------------------------------

    def query(self, pattern: RelationalAtom) -> list[Substitution]:
        """All substitutions grounding `pattern` to a stored atom, in
        canonical-serialization order of the matched atoms. A pattern with
        no variable is one lookup: `[{}]` if its atom is stored, else `[]`."""
        if not any(isinstance(arg, Variable) for arg in pattern.args):
            atom = GroundAtom(pattern.principal, pattern.predicate, tuple(arg.value for arg in pattern.args))
            return [{}] if atom in self.claims else []
        matches: list[tuple[str, Substitution]] = []
        for claim in self.claims_for(pattern.principal, pattern.predicate):
            bound = _unify_args(pattern.args, claim.atom.args, {})
            if bound is not None:
                matches.append((canonical_atom(claim.atom), bound))
        matches.sort(key=lambda pair: pair[0])
        return [subst for _, subst in matches]

    # -- local audit -------------------------------------------------------

    def verify_claim_chain(self, atom: GroundAtom) -> bool:
        """True iff the atom is stored: every stored claim was checked on
        entry or derived by the KB over stored premises. Proving a claim to
        a third party is the `Auditor`'s job."""
        return atom in self.claims
