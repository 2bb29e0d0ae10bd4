"""Claim/evidence wire round trips (line-delimited export)."""

import json

from cyberlog.engine import CarriedByNextRule, Claim, DirectAssertion, GroundAtom, canonical_atom, parse_canonical_atom
from cyberlog.lang import parse_rulesheet
from cyberlog.wire import claim_from_obj, claim_to_obj

from conftest import claims_from_atoms

IDS = "'SB': Subject: 's' Issuer: 'i'\n'OM': Subject: 's' Issuer: 'i'\n"


def claims_to_jsonl(claims, rs):
    """Line-delimited export: one canonical atom + evidence object per line."""
    return "".join(claim_to_obj(c, rs) + "\n" for c in claims)


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
    restored = claim_from_obj(json.loads(claim_to_obj(derived, rs)), rs)
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
    obj = json.loads(claim_to_obj(Claim(atom, DirectAssertion()), rs))
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

    log = MerkleLog()
    log.append(b"entry")
    proof, head = log.prove_inclusion(0, 1), SignedTreeHead(1, log.root(), 1, bytes(64))
    rs = parse_rulesheet(IDS, "SB")
    with pytest.raises(EvidenceError, match="unknown evidence type LogInclusion"):
        claim_to_obj(Claim(GroundAtom("SB", "p", (1,)), LogInclusion("ab" * 32, bytes(32), proof, head)), rs)
    obj = {
        "kind": "log_inclusion",
        "revision_id": "ab" * 32,
        "leaf_hash": "00" * 32,
        "proof": proof.to_obj(),
        "tree_head": head.to_obj(),
    }
    assert InclusionProof.from_obj(obj["proof"]) == proof
    with pytest.raises(EvidenceError, match="unknown evidence kind 'log_inclusion'"):
        claim_from_obj({"atom": '"SB"|p(1)', "evidence": obj}, rs)


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
        obj = json.loads(claim_to_obj(claim, rs))
        assert obj["evidence"]["rule"] == 0
        restored = claim_from_obj(obj, rs)
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
        obj = json.loads(claim_to_obj(Claim(atom, DerivedByRule(rule, {"R": 7, "A": "a"})), rs))
        assert obj["evidence"]["rule"] == 0
    carried = json.loads(claim_to_obj(Claim(atom, CarriedByNextRule(rs.rules[1], {"R": 7, "A": "a"})), rs))
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


# --- the compiled codec against the generic one (`wire_oracle`) ---------------

# head constants with quotes, a backslash and a line break, a repeated head
# variable, rules that log nothing, and a rule that repeats an earlier one
CODEC_SHEET = parse_rulesheet(
    IDS
    + "v(R, R, 'x', -3) :- 'OM' attests t(R, A).\n"
    + "w('it\\'s', 'back\\\\slash', 'line\\nbreak', N) :- 'OM' attests t(N, A), B == N + 1.\n"
    + "next v(R, R, 'x', -3) :- 'OM' attests t(R, A), 'OM' attests t(A, C).\n"
    + "u(A, B) :- 'OM' attests t(A, B).\n"
    + "v(R, R, 'x', -3) :- 'OM' attests t(R, A).\n",
    "SB",
)

# strings JSON escapes (quotes, backslashes, control characters), non-ASCII
# and lone surrogates, which have no UTF-8 bytes
_STRINGS = ['"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é€😀", " ", "\ud800"]
_VALUES = "AB"


def _codec_claims():
    """A rulesheet and a claim under it: a direct assertion, or an instance
    of one of its rules, equal to it or not, of either evidence type, with a
    substitution of its variables that may lack one, add one, do both,
    change a head variable's value or bind one to a value that is neither an integer nor
    a string."""
    import dataclasses

    from hypothesis import strategies as st

    from cyberlog.engine import DerivedByRule, instantiate_head
    from cyberlog.lang import RelationalAtom
    from naive_oracle import random_builtin_program, random_program

    sheets = st.one_of(
        st.just(CODEC_SHEET),
        st.integers(0, 199).map(lambda seed: random_program(seed)[0]),
        st.integers(0, 199).map(lambda seed: random_builtin_program(seed)[0]),
    )
    terms = st.one_of(st.integers(-(2**70), 2**70), st.text(st.characters(), max_size=6), st.sampled_from(_STRINGS))
    odd = st.one_of(st.booleans(), st.floats(allow_nan=False), st.none(), st.lists(st.integers(), max_size=2))

    @st.composite
    def claim(draw):
        rs = draw(sheets)
        rule = draw(st.sampled_from(rs.rules))
        values = {name: draw(terms) for name in rule.variables}
        atom = instantiate_head(rule.head, values)
        if draw(st.integers(0, 9)) == 0:
            return rs, Claim(atom, DirectAssertion())
        change = draw(st.sampled_from(["none", "drop", "add", "rename", "head", "odd"]))
        if change in ("drop", "rename") and values:
            del values[draw(st.sampled_from(sorted(values)))]
        if change in ("add", "rename"):
            values["Z9"] = draw(terms)
        elif change == "head" and rule.head_variables:
            values[draw(st.sampled_from(sorted(rule.head_variables)))] = draw(terms)
        elif change == "odd" and values:  # a logged variable's, if the rule has one
            values[draw(st.sampled_from(sorted(set(values) - rule.head_variables) or sorted(values)))] = draw(odd)
        named = draw(st.sampled_from(["itself", "itself", "equal", "outside"]))
        if named == "equal":
            rule = dataclasses.replace(rule)
        elif named == "outside":
            head = rule.head
            rule = dataclasses.replace(rule, head=RelationalAtom(head.principal, head.predicate + "_x", head.args))
        kind = draw(st.sampled_from([DerivedByRule, CarriedByNextRule, "own", "own"]))
        kind = (CarriedByNextRule if rule.is_next else DerivedByRule) if kind == "own" else kind
        return rs, Claim(atom, kind(rule, values))

    return claim()


def _codec_objects(obj: dict, rs):
    """Claim objects made from the canonical `obj`: itself, reordered, and
    malformed or not canonical in each of its parts."""
    ev, atom = obj["evidence"], obj["atom"]
    logged = ev.get("substitution", {})
    head = [name for rule in rs.rules for name in sorted(rule.head_variables)][:1]
    yield obj
    yield {"evidence": ev, "atom": atom}
    yield dict(obj, evidence=dict(reversed(list(ev.items()))))
    yield dict(obj, evidence=dict(ev, substitution=dict(reversed(list(logged.items())))))
    yield {"atom": atom}
    yield {"evidence": ev}
    yield from ([obj], "claim", None)
    yield from (dict(obj, evidence={k: v for k, v in ev.items() if k != key}) for key in ev)
    yield dict(obj, evidence=dict(ev, note=""))
    for ref in ("0", True, False, 1.5, -1, 0, len(rs.rules) - 1, len(rs.rules), None, [0]):
        yield dict(obj, evidence=dict(ev, rule=ref))
    for kind in ("derived_by_rule", "carried_by_next_rule", "direct_assertion", "log_inclusion", ["x"], None):
        yield dict(obj, evidence=dict(ev, kind=kind))
    yield from (dict(obj, evidence=evidence) for evidence in ([ev], "direct_assertion", None, 5))
    for extra in [{"Z9": 1}, *({name: "other"} for name in head), *({"A": value} for value in (True, 1.5, None, [1]))]:
        yield dict(obj, evidence=dict(ev, substitution={**logged, **extra}))
    yield from (dict(obj, evidence=dict(ev, substitution=value)) for value in ([], None, "A", {}))
    yield from (dict(obj, atom=text) for text in (atom.replace("(", "( ", 1), atom + " ", 5, None, ["x"]))
    ground = parse_canonical_atom(atom)
    for other in (
        GroundAtom("OM", ground.predicate, ground.args),
        GroundAtom(ground.principal, ground.predicate + "w", ground.args),
        GroundAtom(ground.principal, ground.predicate, ground.args + (0,)),
        *(
            GroundAtom(ground.principal, ground.predicate, ground.args[:k] + (value,) + ground.args[k + 1 :])
            for k in range(len(ground.args))
            for value in ("a", -3, 0)
        ),
    ):
        yield dict(obj, atom=canonical_atom(other))


def _outcome(function, *args):
    """What `function` returns, or the type and text of what it raises."""
    try:
        return "returned", function(*args)
    except Exception as exc:  # the refusal is the result compared
        return type(exc), str(exc)


def test_compiled_codec_agrees_with_the_generic_one():
    """On every claim of random sheets, the compiled codec gives the generic
    codec's text, or its refusal; on the canonical object of each, and on
    reordered, malformed and non-canonical variants of it, the same claim
    back, or the same refusal, and then the same text again."""
    from hypothesis import given, settings

    import wire_oracle

    @settings(max_examples=200, deadline=None)
    @given(_codec_claims())
    def check(case):
        rs, claim = case
        text = _outcome(claim_to_obj, claim, rs)
        assert text == _outcome(wire_oracle.claim_text, claim, rs)
        if text[0] != "returned":
            return
        for obj in _codec_objects(json.loads(text[1]), rs):
            decoded = _outcome(claim_from_obj, obj, rs)
            assert decoded == _outcome(wire_oracle.claim_from_obj, obj, rs), obj
            if decoded[0] == "returned":
                assert type(decoded[1].evidence) is type(wire_oracle.claim_from_obj(obj, rs).evidence)
                assert _outcome(claim_to_obj, decoded[1], rs) == _outcome(wire_oracle.claim_text, decoded[1], rs)

    check()


def test_generated_codec_source_holds_only_constants_and_prefixed_names(monkeypatch):
    """The compiled source of every rule's codec names only Python keywords
    and builtins, the codec's helpers and parameters and locals with a
    one-letter prefix and a number; each constant in it is a constant of
    its rule (its head's principal, predicate and constants, or a variable
    name) or a head position."""
    import ast
    import re

    import cyberlog.wire as wire
    from cyberlog.lang import Variable
    from naive_oracle import random_builtin_program, random_program

    sources = []
    monkeypatch.setattr(wire, "compile", lambda text, *a: sources.append(text) or compile(text, *a), raising=False)
    sheets = [CODEC_SHEET]
    sheets += [random_program(seed)[0] for seed in range(30)] + [random_builtin_program(seed)[0] for seed in range(30)]
    names = {
        "_make", "encode", "decode", "rule", "irregular", "atom", "subst", "evidence", "Claim", "_string",
        "canonical_json", "_unbound", "_unlogged", "_LOGGED", "_NOTHING", "_GROUND", "type", "str", "int", "dict",
        "map", "len",
    }
    members = {"args", "principal", "predicate", "get", "keys", "values", "issuperset", "update"}
    for rs in sheets:
        sources.clear()
        wire._sheet_codec(rs)
        assert len(sources) == len(rs.rules)
        for rule, source in zip(rs.rules, sources):
            head = rule.head
            known = {head.principal, head.predicate, *rule.variables}
            known.update(arg.value for arg in head.args if not isinstance(arg, Variable))
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, (ast.Name, ast.arg, ast.FunctionDef)):
                    name = getattr(node, "id", None) or getattr(node, "arg", None) or node.name
                    assert name in names or re.fullmatch(r"[cekltsx]\d+", name), name
                elif isinstance(node, ast.Attribute):
                    assert node.attr in members, node.attr
                elif isinstance(node, ast.Constant):
                    assert node.value in known or node.value in range(len(head.args) + 1), node.value
