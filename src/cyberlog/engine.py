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
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import CyberlogError, EvaluationError, EvidenceError
from .lang import (
    ARITH_OPS,
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
    Variable,
    format_rule,
)

if TYPE_CHECKING:
    from .claimlog import InclusionProof, SignedTreeHead

GroundTerm = int | str
Substitution = dict[str, GroundTerm]


@dataclass(frozen=True)
class GroundAtom:
    """An immutable ground atom. Its hash is computed once, when it is
    built; its canonical text from its fields on first use, and kept
    (`canonical_atom`)."""

    principal: str
    predicate: str
    args: tuple[GroundTerm, ...]

    def __post_init__(self) -> None:
        # a KB looks atoms up in every join, carry and revise
        object.__setattr__(self, "_hash", hash((self.principal, self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

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
        """The head atom and the premises of the instance, once its rule's
        plan (`_body_plan`), run over exactly its premises, derives it
        under exactly its substitution; raises EvidenceError. Kept on the
        evidence rather than on the claim: a value cached on an object gives
        it an instance dict, which slows every read of its attributes, and
        saturation reads claims' atoms in every join."""
        rule = self.rule
        try:
            head = instantiate_head(rule.head, self.substitution)
            premises = self.premises
            plan, built = _body_plan(rule), {}
            plan.match(lambda j, _value: (premises[plan.steps[j][2]],), {}, built)
        except EvaluationError as exc:
            raise EvidenceError(f"rule instance unevaluable: {exc}") from exc
        claim = next(iter(built.values()), None)  # one premise per relational atom: at most one match
        if claim is not None and claim.evidence.substitution == self.substitution:
            return head, premises
        text = format_rule(rule, oneline=True)
        if claim is None:
            raise EvidenceError(f"rule instance does not hold under the stored substitution in rule: {text}")
        raise EvidenceError(
            f"stored substitution {dict(self.substitution)} is not {claim.evidence.substitution}, "
            f"which the rule builds over the premises, in rule: {text}"
        )


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


def _arith(op: str, left: GroundTerm, right: GroundTerm) -> int:
    """`left op right` for integer operands in the 64-bit range; raises
    EvaluationError otherwise."""
    if not isinstance(left, int) or not isinstance(right, int):
        raise EvaluationError(f"arithmetic on non-integer values: {left!r} {op} {right!r}")
    value = left + right if op == "+" else left - right if op == "-" else left * right
    if not (INT64_MIN <= value <= INT64_MAX):
        raise EvaluationError(f"integer overflow: {left} {op} {right}")
    return value


def _parse_data(data: GroundTerm):
    """The JSON value of the text `data`, or None when `data` is not JSON
    text: no dotted path is found in it."""
    if isinstance(data, str):
        try:
            return json.loads(data)
        except ValueError:
            pass
    return None


# registered builtins and the type of the value each reads
_PARAM_TYPES: dict[str, type] = {"get_param_int": int, "get_param_str": str}


def _get_param(want: type, value, path: GroundTerm) -> GroundTerm | None:
    """The value of type `want` at the dotted `path` in the JSON value
    `value` (`_parse_data`), or None when there is none: a builtin that
    misses yields no match rather than an error."""
    if not isinstance(path, str):
        return None
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value if type(value) is want else None


def _not_integers(left: GroundTerm, op: str, right: GroundTerm):
    raise EvaluationError(f"ordered comparison on non-integers: {left!r} {op} {right!r}")


def instantiate_head(head: RelationalAtom, subst: Substitution, unbound="unbound head variable in {}") -> GroundAtom:
    args = []
    for term in head.args:
        value = subst.get(term.name) if isinstance(term, Variable) else term.value
        if value is None:
            raise EvaluationError(unbound.format(head.predicate))
        args.append(value)
    return GroundAtom(head.principal, head.predicate, tuple(args))


def _body_atoms(rule: Rule, substitution: Mapping[str, GroundTerm]) -> tuple[GroundAtom, ...]:
    """The rule's relational body atoms instantiated under `substitution`,
    in body order; raises EvaluationError when one does not ground."""
    unbound = "unbound variable in body atom {}"
    return tuple(instantiate_head(a, substitution, unbound) for a in rule.body if isinstance(a, RelationalAtom))


# ---------------------------------------------------------------------------
# Evidence checking, shared by the knowledge base and the log reader


def check_evidence(claim: Claim) -> tuple[GroundAtom, ...]:
    """The premise atoms of a claim, once its evidence is checked; raises
    EvidenceError.

    A rule instance (derived or carried) must reproduce the claim's atom,
    its premise atoms, the rule's relational body atoms in body order
    (`RuleInstance.premises`), must ground, and its rule's plan over those
    premises must derive it under exactly its substitution; any other
    evidence must be of a known type, and has no premise. A rule instance
    is evaluated once per evidence object, so once per claim object, which
    keeps the head and premise atoms it yields: a later check of that claim
    compares the kept head with its atom and evaluates nothing.

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
# Join plans, compiled

# one relational atom of a plan: its (principal, predicate), the argument
# position its candidates are probed on (None: all the predicate's atoms)
# and its index among the rule's relational body atoms
Step = tuple[tuple[str, str], int | None, int]
_NO_INDEX: Mapping[int, dict] = {}  # the argument indexes of a predicate that has none


def _join_plan(rule: Rule, delta: int | None, known: Collection[str]) -> tuple[tuple[BodyAtom, ...], tuple[Step, ...]]:
    """The body in join order and a step for each relational atom in that
    order, probed on the first argument that is a bare variable bound
    before the atom. The variables in `known` are bound before the body.
    Without a `delta` position the body keeps its order.

    For a `delta` position, that atom goes first when every body atom
    before it is relational: such atoms cannot raise, and match the same
    claims in any order, so each builtin and comparison still meets the
    same partial matches. The delta atom itself gets no probe. Every
    variable of an atom is bound once the atom holds."""
    body = rule.body
    rel = [j for j, atom in enumerate(body) if isinstance(atom, RelationalAtom)]
    order = list(range(len(body)))
    if delta is not None and rel[delta] == delta:  # only relational atoms before it
        order.insert(0, order.pop(delta))
    known = set(known)
    steps: list[Step] = []
    for j in order:
        atom = body[j]
        if isinstance(atom, RelationalAtom):
            i, probe = rel.index(j), None
            for position, arg in enumerate(atom.args if i != delta else ()):
                if isinstance(arg, Variable) and arg.name in known:
                    probe = position
                    break
            steps.append(((atom.principal, atom.predicate), probe, i))
        for term in (atom.left, atom.right) if isinstance(atom, ComparisonAtom) else atom.args:
            if isinstance(term, Variable):
                known.add(term.name)
    return tuple(body[j] for j in order), tuple(steps)


class JoinPlan(NamedTuple):
    """A rule's body in join order, compiled (`_compile`).

    `match(candidates, claims, sink, *head)` runs the join. At the j-th
    relational atom of `body` it tries each atom of `candidates(j, value)`,
    where `value` is the value bound to the argument `steps[j]` probes
    (None without a probe); the candidates need not agree with it, since
    every argument is tested. For each match whose head atom is in neither
    `claims` nor `sink`, it puts the claim into `sink`, its evidence the
    rule under the rule's variables. A head-bound plan takes the values of
    the head's variables, in head order (`bind_head`), and stops at its
    first match. An EvaluationError of a builtin or a comparison names the
    bindings that reach it, in binding order, and every EvaluationError
    names the rule."""

    rule: Rule
    body: tuple[BodyAtom, ...]
    steps: tuple[Step, ...]
    match: Callable


def _compile(rule: Rule, delta: int | None = None, head: bool = False) -> JoinPlan:
    """The join plan of `rule` (`_join_plan`), with its delta position or,
    with `head`, its head's variables bound, compiled into one Python
    function (`_plan_source`)."""
    known = tuple(dict.fromkeys(arg.name for arg in rule.head.args if isinstance(arg, Variable))) if head else ()
    body, steps = _join_plan(rule, delta, known)
    namespace: dict = {}
    exec(compile(_plan_source(rule, body, steps, known, head), "<join plan>", "exec"), globals(), namespace)
    return JoinPlan(rule, body, steps, namespace["_make"](rule))


def _literal(value) -> str:
    """Source text of an integer or string constant."""
    if type(value) not in (int, str):
        raise ValueError(f"not an integer or string constant: {value!r}")
    return repr(value)


def _plan_source(
    rule: Rule, body: Sequence[BodyAtom], steps: Sequence[Step], known: Sequence[str], first: bool
) -> str:
    """Python source of `_make(rule)`, which returns the matcher of one
    join plan (`JoinPlan.match`): nested loops over the candidates of the
    relational atoms in plan order, with each variable in a local, `v` and
    its binding order, and each builtin and comparison evaluated in place.
    A data term that builtins read is parsed once per match, at the first
    of them, into a local `d`.
    Only integer and string constants enter the source, as `repr` text;
    the rule enters through `_make`'s argument.

    Every term evaluated is bound, or a bare variable that a builtin's
    output or an `==` binds: a `Rulesheet` holds only safe rules, and a
    plan binds no fewer variables before an atom than body order does.
    A rule that breaks this raises ValueError."""
    slots = {name: f"v{n}" for n, name in enumerate(known)}  # variable -> local, in binding order
    parsed: dict[str, str] = {}  # data term's source -> local of its JSON value
    lines: list[str] = []
    depth = 3

    def emit(*texts: str) -> None:
        lines.extend("    " * depth + text for text in texts)

    def term(t) -> str:
        if isinstance(t, Variable):
            if t.name not in slots:
                raise ValueError(f"variable {t.name} is used before it is bound")
            return slots[t.name]
        if isinstance(t, ArithExpr):
            if t.op not in ARITH_OPS:
                raise ValueError(f"unknown arithmetic operator {t.op!r}")
            return f"_arith({_literal(t.op)}, {term(t.left)}, {term(t.right)})"
        return _literal(t.value)

    def bind(name: str) -> str:
        slots[name] = f"v{len(slots)}"
        return slots[name]

    def guarded(*statements: str) -> None:
        """Statements whose EvaluationError names the bindings so far."""
        bindings = ", ".join(f"{_literal(name)}: {local}" for name, local in slots.items())
        emit("try:", *("    " + s for s in statements), "except EvaluationError as exc:")
        emit(f"    raise _with_bindings(exc, {{{bindings}}}) from exc")

    j = -1  # the relational atom's place in plan order
    for k, atom in enumerate(body):
        if isinstance(atom, RelationalAtom):
            j += 1
            probe = steps[j][1]
            emit(f"for a{j} in cands({j}, {None if probe is None else slots[atom.args[probe].name]}):")
            depth += 1
            emit(f"t{j} = a{j}.args")
            tests, fresh = [f"len(t{j}) == {len(atom.args)}"], {}
            for position, arg in enumerate(atom.args):
                if isinstance(arg, ArithExpr):
                    raise ValueError(f"arithmetic inside relational atom {atom.predicate!r}")
                if isinstance(arg, Variable) and arg.name not in slots:
                    if arg.name in fresh:  # repeated inside the atom
                        tests.append(f"t{j}[{position}] == t{j}[{fresh[arg.name]}]")
                    else:
                        fresh[arg.name] = position
                else:
                    tests.append(f"t{j}[{position}] == {term(arg)}")
            emit("if " + " and ".join(tests) + ":")
            depth += 1
            emit(*(f"{bind(name)} = t{j}[{position}]" for name, position in fresh.items()))
        elif isinstance(atom, BuiltinAtom):
            want = _PARAM_TYPES[atom.name]
            data, path, out = atom.args
            source = term(data)
            if source not in parsed:
                parsed[source] = f"d{len(parsed)}"
                (guarded if isinstance(data, ArithExpr) else emit)(f"{parsed[source]} = _parse_data({source})")
            call = f"x{k} = _get_param({want.__name__}, {parsed[source]}, {term(path)})"
            if isinstance(out, Variable) and out.name not in slots:
                guarded(call)
                emit(f"if x{k} is not None:")
                depth += 1
                emit(f"{bind(out.name)} = x{k}")
            else:
                guarded(call, f"x{k} = x{k} is not None and {term(out)} == x{k}")
                emit(f"if x{k}:")
                depth += 1
        else:
            left, right, op = atom.left, atom.right, atom.op
            raises = any(isinstance(t, ArithExpr) for t in (left, right))
            unbound = [t for t in (left, right) if isinstance(t, Variable) and t.name not in slots]
            if op == "==" and len(unbound) == 1:  # binds the unbound side to the other's value
                value = term(right if unbound[0] is left else left)
                local = f"v{len(slots)}"
                (guarded if raises else emit)(f"{local} = {value}")
                bind(unbound[0].name)
            elif op in ("==", "!="):
                if raises:
                    guarded(f"x{k} = {term(left)} {op} {term(right)}")
                    emit(f"if x{k}:")
                else:
                    emit(f"if {term(left)} {op} {term(right)}:")
                depth += 1
            elif op in ("<", ">", "<=", ">="):
                # arithmetic yields an integer, an integer constant is one
                operands = [f"{side}{k}" if isinstance(t, ArithExpr) else term(t) for side, t in (("l", left), ("r", right))]
                checked = [o for o, t in zip(operands, (left, right)) if not isinstance(t, (ArithExpr, IntConstant))]
                statements = [f"{o} = {term(t)}" for o, t in zip(operands, (left, right)) if isinstance(t, ArithExpr)]
                if checked:
                    test = " or ".join(f"not isinstance({o}, int)" for o in checked)
                    statements.append(f"if {test}: _not_integers({operands[0]}, {op!r}, {operands[1]})")
                if statements:
                    guarded(*statements)
                emit(f"if {operands[0]} {op} {operands[1]}:")
                depth += 1
            else:
                raise ValueError(f"unknown comparison operator {op!r}")
    head = rule.head
    args = "".join(f"{term(arg)}, " for arg in head.args)
    evidence = "CarriedByNextRule" if rule.kind is RuleKind.NEXT else "DerivedByRule"
    subst = ", ".join(f"{_literal(name)}: {slots[name]}" for name in rule.variables if name in slots)
    emit(f"h = GroundAtom({_literal(head.principal)}, {_literal(head.predicate)}, ({args}))")
    emit("if h not in claims and h not in sink:", f"    sink[h] = Claim(h, {evidence}(rule, {{{subst}}}))")
    if first:
        emit("return")
    params = "".join(f", {slots[name]}" for name in known)
    return "\n".join(
        [
            "def _make(rule):",
            f"    def match(cands, claims, sink{params}):",
            "        try:",
            *lines,
            "        except EvaluationError as exc:",
            "            raise _in_rule(exc, rule) from exc",
            "    return match",
            "",
        ]
    )


def _with_bindings(exc: EvaluationError, subst: Substitution) -> EvaluationError:
    return EvaluationError(f"{exc} [bindings: {subst}]")


def _in_rule(exc: EvaluationError, rule: Rule) -> EvaluationError:
    return EvaluationError(f"{exc} in rule: {format_rule(rule, oneline=True)}")


@functools.lru_cache(maxsize=1024)
def _body_plan(rule: Rule) -> JoinPlan:
    """The rule's body in its own order: the plan of a standard rule
    without relational atoms, of a next-rule and of a rule instance's
    check (`RuleInstance._evaluated`), compiled once per `Rule`."""
    return _compile(rule)


class _SheetPlans(NamedTuple):
    facts: tuple[JoinPlan, ...]  # the standard rules without relational atoms
    # per standard rule: (its delta predicate and plan per relational atom, its head-bound plan)
    joins: tuple[tuple[tuple[tuple[tuple[str, str], JoinPlan], ...], JoinPlan], ...]
    next_rules: tuple[JoinPlan, ...]


@functools.lru_cache(maxsize=256)
def _sheet_plans(rulesheet: Rulesheet) -> _SheetPlans:
    """Every join plan of a rulesheet's rules, compiled once per sheet: a
    Rulesheet is immutable, and the monitors of one owner, and every
    reader's KB over a logged sheet, share it (`parse_rulesheet`).

    Each standard rule has, per relational atom, a plan with that atom as
    the delta, with the predicate it takes its delta claims of, and a
    plan with its head bound, for re-derivation. A standard rule without
    relational atoms, and each next-rule, has its body plan (`_body_plan`)."""
    std = [rule for rule in rulesheet.rules if rule.kind is RuleKind.STANDARD]
    rels = [[a for a in rule.body if isinstance(a, RelationalAtom)] for rule in std]
    return _SheetPlans(
        tuple(_body_plan(rule) for rule, rel in zip(std, rels) if not rel),
        tuple(
            (tuple(((a.principal, a.predicate), _compile(rule, k)) for k, a in enumerate(rel)), _compile(rule, head=True))
            for rule, rel in zip(std, rels)
        ),
        tuple(_body_plan(rule) for rule in rulesheet.rules if rule.kind is RuleKind.NEXT),
    )


# ---------------------------------------------------------------------------
# Knowledge base


def bind_head(head: RelationalAtom, atom: GroundAtom) -> Substitution | None:
    """Bindings of the head's variables that make it match `atom`, or None
    when the predicate, an arity or a constant disagrees."""
    if (head.principal, head.predicate) != (atom.principal, atom.predicate) or len(head.args) != len(atom.args):
        return None
    subst: Substitution = {}  # a fresh dict: callers may add to it
    for term, value in zip(head.args, atom.args):
        if (subst.setdefault(term.name, value) if isinstance(term, Variable) else term.value) != value:
            return None
    return subst


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

    Rules are matched only by join plans compiled once per rulesheet
    (`_sheet_plans`), each atom of which probes its first bare variable
    bound before it, so a delta claim, a re-derived head or a next-rule's
    partial match meets only the claims that share its join values. The KB
    alone decides which argument positions it indexes: it builds the index
    of a position on its first probe (`_pool`) and keeps it from then on.
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
        self._plans = _sheet_plans(rulesheet)
        # a rule without relational atoms fires once, here
        facts: dict[GroundAtom, Claim] = {}
        for plan in self._plans.facts:
            plan.match(None, self.claims, facts)
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

    def _pool(self, step: Step, value: GroundTerm | None) -> Collection[GroundAtom]:
        """The stored atoms a plan's step can match: with a probed position,
        only those whose argument there is `value`. The first probe of a
        position builds its index over the stored claims, which `_store`
        and `_drop` then keep."""
        key, position, _i = step
        if position is None:
            atoms = self._index.get(key)
        else:
            try:
                buckets = self._arg_index[key][position]
            except KeyError:  # the position's first probe
                buckets = self._arg_index.setdefault(key, {})[position] = {}
                for atom, claim in self._index.get(key, {}).items():
                    if position < len(atom.args):
                        buckets.setdefault(atom.args[position], {})[atom] = claim
            atoms = buckets.get(value)
        return atoms if atoms is not None else ()

    def _candidates(self, steps: Sequence[Step]):
        """A plan's candidates over the stored atoms (`JoinPlan.match`)."""
        return lambda j, value: self._pool(steps[j], value)

    # -- admission ------------------------------------------------------

    def assert_claim(self, claim: Claim) -> bool:
        """Add a claim a join plan has just built, unchecked; returns False if
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
        its rule. A carry-over of a stored atom is built on the stored atom
        object, whose canonical text is kept."""
        carried: dict[GroundAtom, Claim] = {}
        for plan in self._plans.next_rules:
            plan.match(self._candidates(plan.steps), {}, carried)
        claims = []
        for claim in carried.values():
            stored = self.claims.get(claim.atom)
            if stored is not None:
                claim = stored if stored == claim else Claim(stored.atom, claim.evidence)
            claims.append(claim)
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
                for _deltas, plan in self._plans.joins:
                    if atom in self.claims or atom in rederived:
                        break
                    head = bind_head(plan.rule.head, atom)
                    if head is not None:
                        plan.match(self._candidates(plan.steps), self.claims, rederived, *head.values())
            for claim in rederived.values():
                self.assert_claim(claim)
        delta = list(self._unsaturated)

        while delta:
            delta_atoms = {c.atom for c in delta}
            delta_index: dict[tuple[str, str], list[GroundAtom]] = {}
            for claim in delta:
                delta_index.setdefault((claim.atom.principal, claim.atom.predicate), []).append(claim.atom)
            pending: dict[GroundAtom, Claim] = {}
            for deltas, _rederive in self._plans.joins:
                for k, (key, plan) in enumerate(deltas):
                    delta_k = delta_index.get(key)
                    if delta_k is None:
                        continue

                    def candidates(j: int, value: GroundTerm | None, k=k, delta_k=delta_k, steps=plan.steps):
                        step = steps[j]
                        if step[2] == k:
                            return delta_k
                        pool = self._pool(step, value)
                        return pool if step[2] > k else [a for a in pool if a not in delta_atoms]

                    plan.match(candidates, self.claims, pending)
            delta = [claim for claim in pending.values() if self.assert_claim(claim)]
        added = self._unsaturated[start:]
        self._unsaturated = []
        if self._removed:
            self._removed = {}
        return added

    # -- queries ----------------------------------------------------------

    def query(self, pattern: RelationalAtom) -> list[Substitution]:
        """All substitutions grounding `pattern` to a stored atom, in
        canonical-serialization order of the matched atoms. A pattern with
        no variable is one lookup: `[{}]` if its atom is stored, else `[]`."""
        if not any(isinstance(arg, Variable) for arg in pattern.args):
            atom = GroundAtom(pattern.principal, pattern.predicate, tuple(arg.value for arg in pattern.args))
            return [{}] if atom in self.claims else []
        claims = self.claims_for(pattern.principal, pattern.predicate)
        matches = [(canonical_atom(c.atom), bound) for c in claims if (bound := bind_head(pattern, c.atom)) is not None]
        return [subst for _, subst in sorted(matches, key=lambda pair: pair[0])]

    # -- local audit -------------------------------------------------------

    def verify_claim_chain(self, atom: GroundAtom) -> bool:
        """True iff the atom is stored: every stored claim was checked on
        entry or derived by the KB over stored premises. Proving a claim to
        a third party is the `Auditor`'s job."""
        return atom in self.claims
