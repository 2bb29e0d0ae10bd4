"""Parser, rulesheet contract and canonical formatter tests."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from cyberlog import lang
from cyberlog.errors import ParseError
from cyberlog.lang import (
    ArithExpr,
    BuiltinAtom,
    ComparisonAtom,
    IdentityDecl,
    IntConstant,
    RelationalAtom,
    Rule,
    RuleKind,
    Rulesheet,
    StringConstant,
    Variable,
    format_rulesheet,
    parse_query,
    parse_rulesheet,
    parse_standalone_rule,
)

BOOKING_SHEET = """\
'SB':  Subject: 'C=DE, ST=Hamburg, L=HH, O=ZAL, CN=SB'
       Issuer: 'C=DE, O=Lets Encrypt, CN=R3'
'MRM': Subject: 'CN=MRM' Issuer: 'CN=R3'
'OM':  Subject: 'CN=OM' Issuer: 'CN=R3'
'CA':  Subject: 'CN=CA' Issuer: 'CN=R3'

// interpretation of events
request(RequestId, Data, Time) :-
  postRequest('/servicerequest', Time, Data),
  get_param_int(Data, 'request_id', RequestId).

// workflow
good_rtf_exists(RequestId, AircraftId) :-
  'SB' attests request(RequestId, Data, TimeRequest),
  'MRM' attests feasible_config(RequestId, AircraftId),
  'OM' attests tasks_done(RequestId, AircraftId),
  'OM' attests ready_to_fly(RequestId, AircraftId, Data, TimeRTF).

// time
delayed_rtf(RequestId, DelayTime, SentTime) :-
  'OM' attests ready_to_fly(RequestId, AircraftId, DataRTF, TimeRTF),
  'CA' attests mission_confirmed(RequestId, Data, SentTime),
  DelayTime == TimeRTF - SentTime,
  DelayTime > 1000.
"""


M_DECL = "'M': Subject: 's' Issuer: 'i'\n"


@pytest.fixture
def booking():
    return parse_rulesheet(BOOKING_SHEET, "SB")


def test_workflow_rule_structure(booking):
    rule = booking.rules[1]
    assert rule.kind is RuleKind.STANDARD
    assert rule.head == RelationalAtom(
        "SB", "good_rtf_exists", (Variable("RequestId"), Variable("AircraftId"))
    )
    assert [a.principal for a in rule.body] == ["SB", "MRM", "OM", "OM"]
    assert all(isinstance(a, RelationalAtom) for a in rule.body)


def test_event_rule_desugars_to_self(booking):
    rule = booking.rules[0]
    assert rule.head.principal == "SB"
    post = rule.body[0]
    assert isinstance(post, RelationalAtom)
    assert post.principal == "SB"
    assert post.args[0] == StringConstant("/servicerequest")
    assert isinstance(rule.body[1], BuiltinAtom)


def test_delayed_rule_mixes_binding_and_test(booking):
    rule = booking.rules[2]
    binding = rule.body[2]
    assert isinstance(binding, ComparisonAtom) and binding.op == "=="
    assert binding.left == Variable("DelayTime")
    assert binding.right == ArithExpr("-", Variable("TimeRTF"), Variable("SentTime"))
    test = rule.body[3]
    assert isinstance(test, ComparisonAtom) and test.op == ">"
    assert test.right == IntConstant(1000)


def test_fact_rule_empty_body():
    rs = parse_rulesheet("'M': Subject: 's' Issuer: 'i'\nrequest(1, 'd', 5).\n", "M")
    rule = rs.rules[0]
    assert rule.body == ()
    assert rule.head == RelationalAtom(
        "M", "request", (IntConstant(1), StringConstant("d"), IntConstant(5))
    )


def test_identity_declarations(booking):
    assert booking.identities[0] == IdentityDecl(
        "SB", "C=DE, ST=Hamburg, L=HH, O=ZAL, CN=SB", "C=DE, O=Lets Encrypt, CN=R3"
    )
    assert booking.self_id == "SB"
    assert booking.source_hash == hashlib.sha256(format_rulesheet(booking).encode("utf-8")).digest()


def test_non_self_head_rejected():
    with pytest.raises(ParseError, match="non-self head"):
        parse_rulesheet("'SB' attests bad(X) :- 'SB' attests q(X).", "MRM")


def test_unbound_head_variable_rejected():
    with pytest.raises(ParseError, match="unsafe rule"):
        parse_rulesheet("p(X) :- q(Y).", "M")


def test_unbound_builtin_input_rejected():
    with pytest.raises(ParseError, match="unsafe rule"):
        parse_rulesheet("p(X) :- get_param_int(Data, 'k', X).", "M")


def test_unknown_builtin_rejected():
    with pytest.raises(ParseError, match="unknown builtin"):
        parse_rulesheet("p(X) :- q(D), get_param_float(D, 'k', X).", "M")


def test_both_sides_unbound_equality_rejected():
    with pytest.raises(ParseError, match="unsafe rule"):
        parse_rulesheet("p(X) :- X == Y.", "M")


def test_arith_in_relational_atom_rejected():
    with pytest.raises(ParseError, match="arithmetic"):
        parse_rulesheet("p(X) :- q(X + 1).", "M")


def test_int_literal_range_checked():
    with pytest.raises(ParseError, match="64-bit"):
        parse_rulesheet(f"p({2**63}).", "M")
    rs = parse_rulesheet(f"{M_DECL}p(-{2**63}).", "M")
    assert rs.rules[0].head.args[0] == IntConstant(-(2**63))


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_rulesheet("p(X) :- q(X)\nr(1).", "M")
    assert exc.value.line == 2


def test_next_rule_and_next_named_predicate():
    rs = parse_rulesheet(f"{M_DECL}next p(X) :- q(X).\nnext(1).\n", "M")
    assert rs.rules[0].kind is RuleKind.NEXT
    assert rs.rules[1].kind is RuleKind.STANDARD
    assert rs.rules[1].head.predicate == "next"


X, Y = Variable("X"), Variable("Y")


def _rule(head, *body):
    return Rule(RuleKind.STANDARD, head, body)


def _m(predicate, *args):
    return RelationalAtom("M", predicate, args)


# each reason of a rulesheet's contract: the sheet for M as text and as
# declarations and rules, and the reason either is refused for
CONTRACT = {
    "self-principal-undeclared": ("p(1).", (), [_rule(_m("p", IntConstant(1)))], "self principal 'M' is not declared"),
    "duplicate-declaration": (
        M_DECL * 2 + "p(1).",
        (IdentityDecl("M", "s", "i"),) * 2,
        [_rule(_m("p", IntConstant(1)))],
        "duplicate identity declaration 'M'",
    ),
    "non-self-head": (
        M_DECL + "'Z': Subject: 's' Issuer: 'i'\n'Z' attests p(1).",
        (IdentityDecl("M", "s", "i"), IdentityDecl("Z", "s", "i")),
        [_rule(RelationalAtom("Z", "p", (IntConstant(1),)))],
        "non-self head: attests for 'Z' but self is 'M'",
    ),
    "undeclared-principal": (
        M_DECL + "p(X) :- 'ZZ' attests q(X).",
        (IdentityDecl("M", "s", "i"),),
        [_rule(_m("p", X), RelationalAtom("ZZ", "q", (X,)))],
        "undeclared principal 'ZZ'",
    ),
    "unsafe-rule": (
        M_DECL + "p(X) :- q(Y).",
        (IdentityDecl("M", "s", "i"),),
        [_rule(_m("p", X), _m("q", Y))],
        "unsafe rule: head variable X is not bound by the body",
    ),
    # an arithmetic argument would need the variables bound before it,
    # wherever a join plan puts the atom
    "arithmetic-in-relational-atom": (
        M_DECL + "h(X) :- p(X), q(X + 1).",
        (IdentityDecl("M", "s", "i"),),
        [_rule(_m("h", X), _m("p", X), _m("q", ArithExpr("+", X, IntConstant(1))))],
        "arithmetic is not allowed inside relational atom",
    ),
}


@pytest.mark.parametrize("case", sorted(CONTRACT))
def test_a_sheet_that_breaks_its_contract_is_not_made(case):
    text, identities, rules, reason = CONTRACT[case]
    for make in (lambda: Rulesheet("M", identities, rules), lambda: parse_rulesheet(text, "M")):
        with pytest.raises(ParseError) as exc:
            make()
        assert reason in str(exc.value)


def test_every_reason_is_named_with_its_rule():
    rules = [_rule(_m("p", IntConstant(1))), _rule(_m("p", X), RelationalAtom("ZZ", "q", (Y,)))]
    with pytest.raises(ParseError) as exc:
        Rulesheet("M", (IdentityDecl("M", "s", "i"),) * 2, rules)
    assert str(exc.value) == (
        "invalid rulesheet: duplicate identity declaration 'M'; "
        "rule 1: unsafe rule: head variable X is not bound by the body; rule 1: undeclared principal 'ZZ'"
    )


def test_a_rulesheet_holds_tuples():
    rs = Rulesheet("M", [IdentityDecl("M", "s", "i")], [_rule(_m("p", IntConstant(1)))])
    assert isinstance(rs.identities, tuple) and isinstance(rs.rules, tuple)
    assert rs == parse_rulesheet(M_DECL + "p(1).", "M")


def test_validate_clean_sheet(booking):
    """A parsed sheet keeps its contract: building it again from its
    declarations and rules raises nothing and yields an equal sheet."""
    assert Rulesheet(booking.self_id, booking.identities, booking.rules) == booking


def test_validate_reports_undeclared_principal():
    with pytest.raises(ParseError, match="rule 0 \\(line 2\\): undeclared principal 'ZZ'"):
        parse_rulesheet("'M': Subject: 's' Issuer: 'i'\np(X) :- 'ZZ' attests q(X).", "M")


def test_validate_reports_safety_on_constructed_ast():
    rule = Rule(
        RuleKind.STANDARD,
        RelationalAtom("M", "p", (Variable("X"),)),
        (RelationalAtom("M", "q", (Variable("Y"),)),),
    )
    with pytest.raises(ParseError) as exc:
        Rulesheet("M", [IdentityDecl("M", "s", "i")], [rule])
    assert str(exc.value) == "invalid rulesheet: rule 0: unsafe rule: head variable X is not bound by the body"


def test_validate_duplicate_identity():
    decls = [IdentityDecl("M", "s", "i"), IdentityDecl("M", "s2", "i2")]
    with pytest.raises(ParseError, match="duplicate identity declaration 'M'"):
        Rulesheet("M", decls, [])


def test_format_parse_fixpoint(booking):
    text = format_rulesheet(booking)
    again = parse_rulesheet(text, "SB")
    assert again == booking
    assert format_rulesheet(again) == text


def test_format_empty_rulesheet():
    rs = Rulesheet("M", (IdentityDecl("M", "s", "i"),), ())
    text = format_rulesheet(rs)
    assert "Subject" in text and ":-" not in text
    assert parse_rulesheet(text, "M") == rs


def test_fact_and_binding_from_the_right_round_trip():
    """A fact formats as a rule with an empty body, and `X + 1 == Y` binds
    `Y` from the right: the sheet formats, parses back equal with its
    source hash, and its KB derives `q(2)`."""
    from cyberlog.engine import GroundAtom, KnowledgeBase

    rs = parse_rulesheet("'M': Subject: 's' Issuer: 'i'\nflag(1).\nq(Y) :- flag(X), X + 1 == Y.\n", "M")
    assert rs.rules[0].body == ()
    again = parse_rulesheet(format_rulesheet(rs), "M")
    assert again == rs and again.source_hash == rs.source_hash
    kb = KnowledgeBase(again)
    kb.saturate()
    assert GroundAtom("M", "q", (2,)) in kb.claims


def test_parse_query_patterns():
    atom = parse_query("good_rtf_exists(R, A)", "DOM")
    assert atom.principal == "DOM" and atom.args == (Variable("R"), Variable("A"))
    foreign = parse_query("'MRM' attests feasible_config(R, 3)", "DOM")
    assert foreign.principal == "MRM"
    with pytest.raises(ParseError, match="queried"):
        parse_query("get_param_int(D, 'k', X)", "DOM")


def test_parse_standalone_rule_roundtrip(booking):
    rule = booking.rules[1]
    text = lang.format_rule(rule, self_id=None, oneline=True)
    assert parse_standalone_rule(text) == rule
    assert parse_standalone_rule(text) is parse_standalone_rule(text)  # memoised by text
    for _ in range(2):  # errors are raised again, not cached
        with pytest.raises(ParseError, match="name principals explicitly"):
            parse_standalone_rule("p(X) :- q(X).")
        with pytest.raises(ParseError, match="unsafe rule: head variable X is not bound by the body"):
            parse_standalone_rule("'A' attests p(X) :- 'A' attests q(Y).")


# --- property tests: random ASTs round-trip through the formatter ----------

_names = st.sampled_from(["p", "q", "r", "workflow_step"])
_principals = st.sampled_from(["SB", "MRM", "a monitor", "x'y\\z"])
_strings = st.one_of(
    st.sampled_from(["abc", "/endpoint", "", "with 'quote'", "back\\slash"]),
    st.text(max_size=8),
)
_simple_terms = st.one_of(
    st.builds(Variable, st.sampled_from(["X", "Y", "Zv"])),
    st.builds(IntConstant, st.integers(min_value=lang.INT64_MIN, max_value=lang.INT64_MAX)),
    st.builds(StringConstant, _strings),
)
_exprs = st.recursive(
    _simple_terms,
    lambda kids: st.builds(ArithExpr, st.sampled_from(["+", "-", "*"]), kids, kids),
    max_leaves=6,
)


def _relational(args_strategy):
    return st.builds(
        RelationalAtom, _principals, _names, st.tuples(*[]) | st.tuples(args_strategy) | st.tuples(args_strategy, args_strategy)
    )


@st.composite
def _rules(draw):
    body_rel = draw(st.lists(_relational(_simple_terms), min_size=1, max_size=3))
    body_vars = sorted(
        {v for atom in body_rel for arg in atom.args for v in lang.term_variables(arg)}
    )
    body: list = list(body_rel)
    if body_vars and draw(st.booleans()):
        uses = [Variable(v) for v in body_vars]
        body.append(ComparisonAtom(draw(st.sampled_from(lang.COMPARISON_OPS)), draw(st.sampled_from(uses)), draw(_exprs_bound(uses))))
    head_args = tuple(
        draw(st.sampled_from([Variable(v) for v in body_vars] if body_vars else [IntConstant(0)]))
        for _ in range(draw(st.integers(0, 2)))
    )
    head = RelationalAtom("SELF", draw(_names), head_args)
    kind = draw(st.sampled_from([RuleKind.STANDARD, RuleKind.NEXT]))
    return Rule(kind, head, tuple(body))


def _exprs_bound(uses):
    leaves = st.one_of(
        st.sampled_from(uses),
        st.builds(IntConstant, st.integers(min_value=-100, max_value=100)),
    )
    return st.recursive(
        leaves,
        lambda kids: st.builds(ArithExpr, st.sampled_from(["+", "-", "*"]), kids, kids),
        max_leaves=4,
    )


@settings(max_examples=120, deadline=None)
@given(st.lists(_rules(), max_size=4))
def test_random_rulesheets_roundtrip(rules):
    decls = [IdentityDecl(p, "s", "i") for p in ["SELF", "SB", "MRM", "a monitor", "x'y\\z"]]
    try:
        rs = Rulesheet("SELF", decls, rules)
    except ParseError:
        return  # generator occasionally builds unsafe comparisons; skip those
    text = format_rulesheet(rs)
    assert parse_rulesheet(text, "SELF") == rs


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200))
def test_parser_never_crashes_on_garbage(text):
    try:
        parse_rulesheet(text, "M")
    except ParseError:
        pass  # rejection is fine; anything else is a bug


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(BOOKING_SHEET) - 1), st.integers(1, 255))
def test_parser_never_crashes_on_mutated_sheets(pos, delta):
    mutated = BOOKING_SHEET[:pos] + chr((ord(BOOKING_SHEET[pos]) + delta) % 0x110000) + BOOKING_SHEET[pos + 1 :]
    try:
        parse_rulesheet(mutated, "SB")
    except ParseError:
        pass
