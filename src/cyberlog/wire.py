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

A rule's wire form is fixed by its rulesheet, so each rule's codec is
generated and compiled once per sheet (`_sheet_codec`), as its join plans
are (`engine._sheet_plans`): an encoder that writes a claim's canonical
text and a decoder that binds the head positions by index.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, Mapping, NamedTuple

from .engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    GroundTerm,
    canonical_atom,
    parse_canonical_atom,
)
from .errors import EvidenceError
from .lang import Rule, RuleKind, Rulesheet, Variable, format_rule


_CANONICAL = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_string = json.encoder.encode_basestring  # the string escaping of `_CANONICAL`


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


# the kind of rule instance of each kind of rule, and its evidence type
_INSTANCES = {
    RuleKind.STANDARD: ("derived_by_rule", DerivedByRule),
    RuleKind.NEXT: ("carried_by_next_rule", CarriedByNextRule),
}
_GROUND = frozenset((int, str))
_LOGGED = "substitution"  # the key of a rule instance's logged entries
_NOTHING: Mapping[str, GroundTerm] = {}  # the logged entries of a rule instance that logs none
_CODEC = "claim codec"  # the key of a sheet's codec in `Rulesheet.compiled`

# the evidence type of a rule's instances and the rule's encoder: (the
# claim's atom text as a JSON string, its substitution) -> the claim's text
_Encoder = tuple[type, Callable[[str, Mapping[str, GroundTerm]], str]]


class _SheetCodec(NamedTuple):
    """The claim codec of a rulesheet (`_sheet_codec`)."""

    by_id: dict[int, _Encoder]  # the id of each rule of the sheet -> its encoder
    by_rule: dict[Rule, _Encoder]  # a rule -> the encoder of the first equal rule of the sheet
    # a rule instance's kind -> per rule index, the rule's decoder, None for
    # a rule of the other kind: (atom, evidence object) -> the claim
    decoders: dict[str, tuple[Callable | None, ...]]


def _sheet_codec(rulesheet: Rulesheet) -> _SheetCodec:
    """Every rule's encoder and decoder, generated (`_codec_source`) and
    compiled once per sheet, as `engine._sheet_plans` compiles its joins,
    and kept with the sheet object (`Rulesheet.compiled`), where each claim
    finds it: a monitor's sheet parsed from its file and a reader's parsed
    from the logged text are equal, and each finds its claims' encoders by
    the identity of its own rules."""
    rules, first = rulesheet.rules, {}
    by_id, by_rule, decoders = {}, {}, {kind: [None] * len(rules) for kind, _ in _INSTANCES.values()}
    for index, rule in enumerate(rules):
        kind, evidence = _INSTANCES[rule.kind]
        encode, decoders[kind][index] = _compile_codec(rule, first.setdefault(rule, index))
        by_id[id(rule)] = by_rule.setdefault(rule, (evidence, encode))
    codec = _SheetCodec(by_id, by_rule, {kind: tuple(table) for kind, table in decoders.items()})
    rulesheet.compiled[_CODEC] = codec
    return codec


def _compile_codec(rule: Rule, index: int) -> tuple[Callable, Callable]:
    """The encoder and the decoder of `rule`, which claims name by `index`."""
    kind, evidence = _INSTANCES[rule.kind]
    head = rule.head_variables
    logged = [name for name in rule.variables if name not in head]
    opening = f',"evidence":{{"kind":"{kind}","rule":{index}'
    # the texts before the atom, between the atom and the first logged
    # value, between two values and after the last
    if logged:
        texts = ['{"atom":', f'{opening},"substitution":{{{_string(logged[0])}:']
        texts += [f",{_string(name)}:" for name in logged[1:]] + ["}}}"]
    else:
        texts = ['{"atom":', opening + "}}"]
    namespace: dict = {}
    exec(compile(_codec_source(rule), "<claim codec>", "exec"), globals(), namespace)
    irregular = functools.partial(_irregular_text, opening, head)
    return namespace["_make"](rule, evidence, frozenset(rule.variables), irregular, *texts)


def _constant(value) -> str:
    """Source text of an integer or string constant."""
    if type(value) not in (int, str):
        raise ValueError(f"not an integer or string constant: {value!r}")
    return repr(value)


def _codec_source(rule: Rule) -> str:
    """Python source of `_make(rule, k0, e0, irregular, c0, c1, ...)`, which
    returns the encoder and the decoder of `rule`, `k0` its evidence type
    and `e0` the set of its variables.

    The encoder writes the texts `c0`, `c1`, ... around the atom's text
    and the values of the logged variables, in name order, each as
    `canonical_json` writes it; a substitution that does not bind exactly
    the rule's variables is written by `irregular` (`_irregular_text`).
    The decoder checks the atom's principal, predicate and arity, and each
    head constant and repeated head variable, against the head, as
    `engine.bind_head` does, binds each head variable to the argument at
    its first position, and adds the logged entries if they bind only
    variables of the rule, each to an integer or a string. Only the
    rule's integer and string constants enter the source, as `repr` text,
    with its head positions and arity; its locals have a one-letter prefix
    and a number."""
    head, logged = rule.head, [name for name in rule.variables if name not in rule.head_variables]
    texts = ", ".join(f"c{n}" for n in range(len(logged) + 2))
    lines = [f"def _make(rule, k0, e0, irregular, {texts}):", "    def encode(atom, subst):"]
    lines += ["        if subst.keys() != e0:", "            return irregular(atom, subst)"]
    for n, name in enumerate(logged):
        x = f"x{n}"
        lines.append(f"        {x} = subst[{_constant(name)}]")
        lines.append(f"        {x} = _string({x}) if type({x}) is str else str({x}) if type({x}) is int else canonical_json({x})")
    lines.append("        return f'{c0}{atom}{c1}" + "".join(f"{{x{n}}}{{c{n + 2}}}" for n in range(len(logged))) + "'")
    tests = [
        f"atom.principal != {_constant(head.principal)}",
        f"atom.predicate != {_constant(head.predicate)}",
        f"len(t0) != {len(head.args)}",
    ]
    bound: dict[str, int] = {}  # head variable -> its first position
    for position, arg in enumerate(head.args):
        if not isinstance(arg, Variable):
            tests.append(f"t0[{position}] != {_constant(arg.value)}")
        elif arg.name in bound:
            tests.append(f"t0[{position}] != t0[{bound[arg.name]}]")
        else:
            bound[arg.name] = position
    binding = ", ".join(f"{_constant(name)}: t0[{position}]" for name, position in bound.items())
    lines += [
        "    def decode(atom, evidence):",
        "        t0 = atom.args",
        f"        if {' or '.join(tests)}:",
        "            raise _unbound(atom)",
        "        l0 = evidence.get(_LOGGED, _NOTHING)",
        "        if type(l0) is not dict or not e0.issuperset(l0) or not _GROUND.issuperset(map(type, l0.values())):",
        "            raise _unlogged(l0)",
        f"        s0 = {{{binding}}}",
        "        s0.update(l0)",
        "        return Claim(atom, k0(rule, s0))",
        "    return encode, decode",
        "",
    ]
    return "\n".join(lines)


def _irregular_text(opening: str, head: frozenset[str], atom: str, substitution: Mapping[str, GroundTerm]) -> str:
    """The canonical text of a rule instance whose substitution does not
    bind exactly its rule's variables: it logs every entry but those of
    bare head variables, in name order."""
    logged = {name: substitution[name] for name in sorted(substitution) if name not in head}
    return '{"atom":' + atom + opening + (f',"substitution":{canonical_json(logged)}}}}}' if logged else "}}")


def _unbound(atom) -> EvidenceError:
    return EvidenceError(f"rule head does not bind the claim {canonical_atom(atom)}")


def _unlogged(logged) -> EvidenceError:
    return EvidenceError(f"substitution {logged!r} binds more than rule variables to integers or strings")


def claim_to_obj(claim: Claim, rs: Rulesheet) -> str:
    """The canonical text of a claim of a revision under rulesheet `rs`; a
    rule instance's by the encoder of its rule (`_sheet_codec`), found by
    identity, else as the first index of an equal rule. Raises
    EvidenceError for evidence that has no wire form: inclusion, and a rule
    instance whose rule is not a rule of its kind of `rs`."""
    atom, ev = _string(canonical_atom(claim.atom)), claim.evidence
    if isinstance(ev, DirectAssertion):
        return '{"atom":' + atom + ',"evidence":{"kind":"direct_assertion"}}'
    if not isinstance(ev, (DerivedByRule, CarriedByNextRule)):
        raise EvidenceError(f"unknown evidence type {type(ev).__name__}")
    codec, rule = rs.compiled.get(_CODEC) or _sheet_codec(rs), ev.rule
    found = codec.by_id.get(id(rule)) or codec.by_rule.get(rule)
    if found is None or not isinstance(ev, found[0]):
        want = RuleKind.STANDARD if isinstance(ev, DerivedByRule) else RuleKind.NEXT
        kind, text = _INSTANCES[want][0], format_rule(rule, oneline=True)
        raise EvidenceError(f"{kind} by a rule that is not a {want.value} rule of the rulesheet: {text}")
    return found[1](atom, ev.substitution)


def claim_from_obj(obj: dict, rs: Rulesheet) -> Claim:
    """The claim of a logged claim object under rulesheet `rs`; a rule
    instance's by the decoder of the rule it names (`_sheet_codec`): its
    substitution is the rule head bound to the claim's atom plus the logged
    entries, which bind only variables of the rule, each to an integer or
    a string."""
    try:
        atom = parse_canonical_atom(obj["atom"])
    except (KeyError, ValueError) as exc:
        raise EvidenceError(f"malformed claim object: {exc}") from exc
    ev = obj["evidence"]
    try:
        kind = ev["kind"]
        if kind == "direct_assertion":
            if ev.keys() != {"kind"}:
                raise EvidenceError(f"direct assertion logs more than its kind: {sorted(ev)}")
            return Claim(atom, DirectAssertion())
        decoders = (rs.compiled.get(_CODEC) or _sheet_codec(rs)).decoders.get(kind)
        if decoders is not None:
            ref = ev["rule"]
            if type(ref) is not int or not 0 <= ref < len(decoders):
                raise EvidenceError(f"rule reference {ref!r} is not an index into the rulesheet's {len(decoders)} rules")
            decode = decoders[ref]
            if decode is None:
                raise EvidenceError(f"{kind} names rule {ref}, a {rs.rules[ref].kind.value} rule")
            return decode(atom, ev)
    except (KeyError, TypeError, ValueError) as exc:
        raise EvidenceError(f"malformed evidence object: {exc}") from exc
    raise EvidenceError(f"unknown evidence kind {ev.get('kind')!r}")
