"""Saturation, builtins, queries and the evidence checked on entry, checked
against the naive fixpoint oracle."""

import os

import pytest

from cyberlog.engine import (
    CarriedByNextRule,
    Claim,
    DerivedByRule,
    DirectAssertion,
    GroundAtom,
    KnowledgeBase,
    canonical_atom,
    check_evidence,
    parse_canonical_atom,
)
from cyberlog.errors import EvaluationError, EvidenceError
from cyberlog.lang import Rulesheet, Variable, parse_query, parse_rulesheet

from conftest import at_fixpoint, claims_from_atoms
from naive_oracle import derivation_faults, naive_carry, naive_saturate, random_builtin_program, random_program

IDS = "'SB': Subject: 's' Issuer: 'i'\n'MRM': Subject: 's' Issuer: 'i'\n'OM': Subject: 's' Issuer: 'i'\n'CA': Subject: 's' Issuer: 'i'\n"
NO_RULES = parse_rulesheet(IDS, "SB")


def kb_with(rs, atoms):
    kb = KnowledgeBase(rs)
    for claim in claims_from_atoms(atoms):
        kb.assert_claim(claim)
    return kb


def atoms_of(kb):
    return {(a.principal, a.predicate, a.args) for a in kb.claims.keys()}


# --- canonical serialization ------------------------------------------------


def test_canonical_atom_shape():
    atom = GroundAtom("SB", "request", (7, "d", 5))
    assert canonical_atom(atom) == '"SB"|request(7,"d",5)'
    assert parse_canonical_atom(canonical_atom(atom)) == atom


def test_canonical_atom_escaping_roundtrip():
    atom = GroundAtom('we|ird"p', "p", ('a"b\\c', -3, ""))
    assert parse_canonical_atom(canonical_atom(atom)) == atom


def test_canonical_ids_distinct():
    """Atoms that differ only in the types of their terms have distinct
    canonical texts, which name them in signatures."""
    a = GroundAtom("A", "p", (1, "2"))
    b = GroundAtom("A", "p", ("1", 2))
    c = GroundAtom("A", "p", (1, 2))
    assert len({canonical_atom(a), canonical_atom(b), canonical_atom(c)}) == 3


def test_equal_atoms_built_apart_find_each_other():
    """An atom's hash, computed once when it is built, is its fields': an
    atom built apart from an equal one, or parsed from its text, finds it
    in a dict and in a set, and an atom that differs in a field does not."""
    args = (7, "d", "é\"\\\n")
    held = GroundAtom("SB", "request", args)
    index, keys = {held: "held"}, {held}
    for twin in (GroundAtom("SB", "request", tuple(list(args))), parse_canonical_atom(canonical_atom(held))):
        assert twin is not held and twin == held
        assert hash(twin) == hash(held) == hash(("SB", "request", args))
        assert index[twin] == "held" and twin in keys
    for other in (GroundAtom("SB", "request", (7, "d")), GroundAtom("OM", "request", args), GroundAtom("SB", "r", args)):
        assert other not in index and other not in keys


# --- assert_claim -----------------------------------------------------------


def test_assert_claim_direct():
    kb = KnowledgeBase(NO_RULES)
    atom = GroundAtom("SB", "postRequest", ("/servicerequest", 5, '{"request_id":7}'))
    assert kb.assert_claim(Claim(atom, DirectAssertion())) is True
    assert len(kb) == 1
    # same atom again: set semantics
    assert kb.assert_claim(Claim(atom, DirectAssertion())) is False
    assert len(kb) == 1


# --- saturation -------------------------------------------------------------


def test_workflow_rule_derives_verdict():
    rs = parse_rulesheet(
        IDS
        + """
good_rtf_exists(RequestId, AircraftId) :-
  'SB' attests request(RequestId, Data, TimeRequest),
  'MRM' attests feasible_config(RequestId, AircraftId),
  'OM' attests tasks_done(RequestId, AircraftId),
  'OM' attests ready_to_fly(RequestId, AircraftId, Data, TimeRTF).
""",
        "SB",
    )
    kb = kb_with(
        rs,
        [
            GroundAtom("SB", "request", (7, "d", 5)),
            GroundAtom("MRM", "feasible_config", (7, 3)),
            GroundAtom("OM", "tasks_done", (7, 3)),
            GroundAtom("OM", "ready_to_fly", (7, 3, "d", 2001)),
        ]
    )
    added = kb.saturate()
    assert [c.atom for c in added] == [GroundAtom("SB", "good_rtf_exists", (7, 3))]
    evidence = added[0].evidence
    assert isinstance(evidence, DerivedByRule)
    assert len(evidence.premises) == 4


def test_derivation_premises_are_its_rule_body_atoms():
    """A derivation names its premises by atom: its rule's relational body
    atoms under its substitution, in body order, without the builtins and
    comparisons; they are computed once and kept."""
    rs = parse_rulesheet(IDS + "v(X, N) :- 'OM' attests t(X, B), get_param_int(B, 'n', N), N > 0, 'MRM' attests u(N).", "SB")
    evidence = DerivedByRule(rs.rules[0], {"X": 7, "B": '{"n": 3}', "N": 3})
    assert evidence.premises == (GroundAtom("OM", "t", (7, '{"n": 3}')), GroundAtom("MRM", "u", (3,)))
    assert evidence.premises is evidence.premises


def test_shared_variable_blocks_mismatched_data():
    rs = parse_rulesheet(
        IDS + "v(R) :- 'SB' attests request(R, Data, T), 'OM' attests ready_to_fly(R, A, Data, T2).",
        "SB",
    )
    kb = kb_with(
        rs,
        [
            GroundAtom("SB", "request", (7, "payload-one", 5)),
            GroundAtom("OM", "ready_to_fly", (7, 3, "payload-two", 9)),
        ]
    )
    kb.saturate()
    assert GroundAtom("SB", "v", (7,)) not in kb


def test_empty_kb_stays_empty():
    rs = parse_rulesheet(IDS + "p(X) :- q(X).", "SB")
    kb = KnowledgeBase(rs)
    assert kb.saturate() == []
    assert len(kb) == 0


def test_fact_rules_fire_once():
    rs = parse_rulesheet(IDS + "seed(1).\np(X) :- seed(X).", "SB")
    kb = KnowledgeBase(rs)
    assert atoms_of(kb) == {("SB", "seed", (1,)), ("SB", "p", (1,))}
    assert at_fixpoint(kb)
    assert kb.saturate() == []
    kb.assert_claim(Claim(GroundAtom("SB", "seed", (2,)), DirectAssertion()))
    assert not at_fixpoint(kb)  # new base fact clears the flag


def test_retracted_fact_rule_head_is_rederived():
    rs = parse_rulesheet(IDS + "seed(1).\np(X) :- seed(X).", "SB")
    kb = KnowledgeBase(rs)
    before = atoms_of(kb)
    # the fact rule still yields it, and its consequence follows
    added = kb.revise([GroundAtom("SB", "seed", (1,))], [])
    assert [c.atom for c in added] == [GroundAtom("SB", "seed", (1,)), GroundAtom("SB", "p", (1,))]
    assert atoms_of(kb) == before and at_fixpoint(kb)



def test_delay_boundary():
    rs = parse_rulesheet(
        IDS
        + """
delayed_rtf(RequestId, DelayTime, SentTime) :-
  'OM' attests ready_to_fly(RequestId, AircraftId, DataRTF, TimeRTF),
  'CA' attests mission_confirmed(RequestId, Data, SentTime),
  DelayTime == TimeRTF - SentTime,
  DelayTime > 1000.
""",
        "SB",
    )
    base = [GroundAtom("CA", "mission_confirmed", (7, "d", 1000))]
    over = kb_with(rs, base + [GroundAtom("OM", "ready_to_fly", (7, 3, "d", 2001))])
    over.saturate()
    assert GroundAtom("SB", "delayed_rtf", (7, 1001, 1000)) in over

    at = kb_with(rs, base + [GroundAtom("OM", "ready_to_fly", (7, 3, "d", 2000))])
    at.saturate()
    assert not [a for a in at.claims.keys() if a.predicate == "delayed_rtf"]


def test_recursive_rules_reach_fixpoint():
    rs = parse_rulesheet(IDS + "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "edge", (i, i + 1)) for i in range(6)])
    kb.saturate()
    paths = {a.args for a in kb.claims.keys() if a.predicate == "path"}
    assert paths == {(i, j) for i in range(7) for j in range(7) if i < j}


def test_arithmetic_overflow_reported():
    rs = parse_rulesheet(IDS + f"big({2**62}).\nboom(Y) :- big(X), Y == X * 4.", "SB")
    with pytest.raises(EvaluationError, match="overflow"):
        KnowledgeBase(rs)  # the fact rule's consequence is saturated at construction


def test_saturate_matches_oracle_on_100_random_programs():
    for seed in range(100):
        rs, facts = random_program(seed)
        expected = naive_saturate(facts, rs.rules)
        kb = kb_with(rs, [GroundAtom(p, n, args) for (p, n, args) in facts])
        kb.saturate()
        assert atoms_of(kb) == expected, f"divergence at seed {seed}"


def test_saturate_idempotent_and_monotone():
    rs, facts = random_program(7)
    kb = kb_with(rs, [GroundAtom(p, n, args) for (p, n, args) in facts])
    kb.saturate()
    first = atoms_of(kb)
    assert kb.saturate() == []
    assert atoms_of(kb) == first

    # monotonicity: adding any base claim can only grow the fixpoint
    for seed in range(5):
        rs2, facts2 = random_program(seed)
        base = kb_with(rs2, [GroundAtom(p, n, args) for (p, n, args) in facts2])
        base.saturate()
        smaller = atoms_of(base)
        extra = GroundAtom("A", "q", (0, 1, 2))
        widened = [GroundAtom(p, n, args) for (p, n, args) in facts2]
        bigger = kb_with(rs2, widened + [extra])
        bigger.saturate()
        assert atoms_of(bigger) >= smaller


# --- builtins ---------------------------------------------------------------


def _param(name, data, path):
    """What builtin `name` reads at `path` of the JSON text `data`, as a
    compiled plan evaluates it (`engine._parse_data`, `engine._get_param`)."""
    from cyberlog.engine import _PARAM_TYPES, _get_param, _parse_data

    return _get_param(_PARAM_TYPES[name], _parse_data(data), path)


def test_get_param_int_binds():
    assert _param("get_param_int", '{"request_id": 7}', "request_id") == 7


def test_get_param_int_dotted_path():
    assert _param("get_param_int", '{"a":{"b":2}}', "a.b") == 2


def test_get_param_fails_silently():
    assert _param("get_param_int", "not json", "k") is None
    assert _param("get_param_int", '{"k": "str"}', "k") is None
    assert _param("get_param_int", '{"k": true}', "k") is None
    assert _param("get_param_str", '{"k": 5}', "k") is None
    assert _param("get_param_int", 5, "k") is None  # data that is not text
    assert _param("get_param_int", '{"a": 1}', "a.b") is None  # a path through a non-object


def test_get_param_test_mode():
    """A builtin whose output is bound holds only where it reads that value."""
    rs = parse_rulesheet(IDS + "ok(X) :- e(D, X), get_param_int(D, 'k', X).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "e", ('{"k": 5}', 5)), GroundAtom("SB", "e", ('{"k": 5}', 6))])
    kb.saturate()
    assert [atom for atom in kb.claims if atom.predicate == "ok"] == [GroundAtom("SB", "ok", (5,))]


def test_a_match_parses_its_event_body_once(monkeypatch):
    """OM's `tasks_done` and `ready_to_fly` read two parameters of one
    event's `Data`: a match parses that body once, and a body that is not
    JSON matches nothing."""
    import json

    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios", "rules", "om.cyberlog")) as fh:
        rs = parse_rulesheet(fh.read(), "OM")
    bodies = [json.dumps({"request_id": n, "aircraft_id": 10 + n}) for n in range(3)] + ["not json {"]
    events = [GroundAtom("OM", "postRequest", (path, n, body)) for n, body in enumerate(bodies) for path in ("/tasksdone", "/readytofly")]
    kb = kb_with(rs, events)
    loads, parsed = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text, *args, **kwargs: parsed.append(text) or loads(text, *args, **kwargs))
    kb.saturate()
    assert sorted(parsed) == sorted(bodies * 2)  # one parse per event, each matched by one rule
    assert sorted(a.args for a in kb.claims if a.predicate == "tasks_done") == [(n, 10 + n) for n in range(3)]
    assert len([a for a in kb.claims if a.predicate == "ready_to_fly"]) == 3


# --- query ------------------------------------------------------------------


@pytest.fixture
def saturated_kb():
    rs = parse_rulesheet(IDS + "p(X, Y) :- e(X, Y).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "e", (2, "b")), GroundAtom("SB", "e", (1, "a"))])
    kb.saturate()
    return kb


def test_query_orders_deterministically(saturated_kb):
    pattern = parse_query("p(X, Y)", "SB")
    assert saturated_kb.query(pattern) == [{"X": 1, "Y": "a"}, {"X": 2, "Y": "b"}]


def test_query_ground_atom(saturated_kb):
    assert saturated_kb.query(parse_query("p(1, 'a')", "SB")) == [{}]
    assert saturated_kb.query(parse_query("p(1, 'zz')", "SB")) == []


def test_ground_query_is_one_lookup(saturated_kb, monkeypatch):
    """A pattern with no variable looks its atom up: it makes no unify
    call and answers as the scan over its predicate's claims does, `[{}]`
    for a stored atom and `[]` for any other. A pattern with a variable
    still scans."""
    import cyberlog.engine as engine

    unify, calls = engine.bind_head, []
    monkeypatch.setattr(engine, "bind_head", lambda *args: calls.append(args) or unify(*args))
    for text in ("p(1, 'a')", "p(2, 'b')", "p(1, 'b')", "p('1', 'a')", "p(1)", "e(2, 'b')", "q(1, 'a')"):
        pattern = parse_query(text, "SB")
        claims = saturated_kb.claims_for("SB", pattern.predicate)
        scan = [{} for c in claims if unify(pattern, c.atom) is not None]
        assert saturated_kb.query(pattern) == scan, text
    assert calls == []
    assert saturated_kb.query(parse_query("p(1, Y)", "SB")) == [{"Y": "a"}] and len(calls) == 2


def test_query_empty_kb():
    assert KnowledgeBase(NO_RULES).query(parse_query("p(X)", "SB")) == []


# --- chain check --------------------------------------------------------------


def test_chain_check_walks_premises_by_id():
    """The chain check follows a derivation's premise atoms, its rule's
    relational body atoms under its substitution, to the stored claims."""
    rs = parse_rulesheet(
        IDS
        + """
good_rtf_exists(R, A) :-
  'SB' attests request(R, D, T),
  'MRM' attests feasible_config(R, A),
  'OM' attests tasks_done(R, A),
  'OM' attests ready_to_fly(R, A, D, T2).
""",
        "SB",
    )
    kb = kb_with(
        rs,
        [
            GroundAtom("SB", "request", (7, "d", 5)),
            GroundAtom("MRM", "feasible_config", (7, 3)),
            GroundAtom("OM", "tasks_done", (7, 3)),
            GroundAtom("OM", "ready_to_fly", (7, 3, "d", 9)),
        ]
    )
    kb.saturate()
    claim = kb.claims[GroundAtom("SB", "good_rtf_exists", (7, 3))]
    assert isinstance(claim.evidence, DerivedByRule)
    premises = [kb.claims[premise] for premise in claim.evidence.premises]
    assert [p.atom.predicate for p in premises] == ["request", "feasible_config", "tasks_done", "ready_to_fly"]
    assert all(isinstance(p.evidence, DirectAssertion) for p in premises)
    assert kb.verify_claim_chain(claim.atom) and derivation_faults(kb) == []


def _counting_checks(kb, monkeypatch, limit=50):
    """Record each claim the shared checker `engine.check_evidence` is asked
    about; fail the test past `limit` calls, so that a walk that never ends
    cannot hang it."""
    import cyberlog.engine as engine

    checked = []
    original = engine.check_evidence

    def counting(claim):
        checked.append(claim.atom)
        assert len(checked) <= limit, "the chain walk does not end"
        return original(claim)

    monkeypatch.setattr(engine, "check_evidence", counting)
    return checked


def test_chain_check_of_direct_assertion_checks_only_itself(monkeypatch):
    """A direct assertion is checked once, alone, as it enters; its chain
    is then its being stored, and asking checks nothing again."""
    atom = GroundAtom("SB", "postRequest", ("/x", 1, "{}"))
    kb = KnowledgeBase(NO_RULES)
    checked = _counting_checks(kb, monkeypatch)
    kb.revise((), claims_from_atoms([atom]))
    assert checked == [atom]
    assert kb.verify_claim_chain(atom)
    assert checked == [atom]


def test_chain_check_checks_a_shared_premise_once(monkeypatch):
    """The premise three derivations share is checked once, on entry; the
    derivations the KB makes over it are not checked at all, and rest on
    stored claims."""
    rs = parse_rulesheet(IDS + "a(X) :- p(X).\nb(X) :- p(X).\nc(X) :- a(X), b(X), p(X).", "SB")
    kb = KnowledgeBase(rs)
    checked = _counting_checks(kb, monkeypatch)
    added = kb.revise((), claims_from_atoms([GroundAtom("SB", "p", (1,))]))
    assert sorted(c.atom.predicate for c in added) == ["a", "b", "c", "p"]
    assert checked == [GroundAtom("SB", "p", (1,))]
    assert kb.verify_claim_chain(GroundAtom("SB", "c", (1,))) and derivation_faults(kb) == []


def test_chain_check_of_absent_atom_fails():
    assert KnowledgeBase(NO_RULES).verify_claim_chain(GroundAtom("SB", "p", ())) is False


OWN_DERIVATION = "a derivation is the KB's own to make"


def test_chain_check_of_missing_premise_fails():
    """A derivation whose premise is not stored is refused on entry, like
    any derivation offered to a KB, which keeps what it held."""
    rs = parse_rulesheet(IDS + "r(X) :- p(X).\ns(X) :- q(X).", "SB")
    r1, p1 = GroundAtom("SB", "r", (1,)), GroundAtom("SB", "p", (1,))
    kb = KnowledgeBase(rs)
    kb.revise((), claims_from_atoms([GroundAtom("SB", "q", (1,))]))
    before = _state(kb)
    with pytest.raises(EvidenceError, match=OWN_DERIVATION):
        kb.revise((), [Claim(r1, DerivedByRule(rs.rules[0], {"X": 1}))])
    assert _same_state(kb, before) and at_fixpoint(kb)
    assert r1 not in kb and p1 not in kb
    assert kb.verify_claim_chain(r1) is False


def test_a_stored_derivation_offered_back_is_refused():
    """A derivation is refused even when it is its atom's stored object:
    retracting p(1) while offering the stored q(1) raises, and the KB keeps
    both claims as the same objects."""
    rs = parse_rulesheet(IDS + "q(X) :- p(X).", "SB")
    p1, q1 = GroundAtom("SB", "p", (1,)), GroundAtom("SB", "q", (1,))
    kb = KnowledgeBase(rs)
    kb.revise((), claims_from_atoms([p1]))
    before = _state(kb)
    assert set(before) == {p1, q1}
    with pytest.raises(EvidenceError, match=OWN_DERIVATION):
        kb.revise([p1], [kb.claims[q1]])
    assert _same_state(kb, before) and at_fixpoint(kb)


def test_chain_check_refuses_cyclic_evidence():
    """Two derived claims whose premises name each other, each a correct
    rule instance, are refused on entry, together or next to a genuine
    claim, and the KB keeps its atoms, evidence objects and pending work.
    The oracle's check finds the cycle in a KB filled without admission."""
    rs = parse_rulesheet(IDS + "a(X) :- b(X).\nb(X) :- a(X).", "SB")
    a1, b1 = GroundAtom("SB", "a", (1,)), GroundAtom("SB", "b", (1,))
    rule_a, rule_b = rs.rules
    cyclic = [
        Claim(a1, DerivedByRule(rule_a, {"X": 1})),
        Claim(b1, DerivedByRule(rule_b, {"X": 1})),
    ]
    assert [check_evidence(claim) for claim in cyclic] == [(b1,), (a1,)]
    kb = KnowledgeBase(rs)
    for batch in (cyclic, claims_from_atoms([GroundAtom("SB", "c", (1,))]) + cyclic):
        with pytest.raises(EvidenceError, match=OWN_DERIVATION):
            kb.revise((), batch)
        assert _same_state(kb, {}) and at_fixpoint(kb)
    assert kb.verify_claim_chain(a1) is False
    kb.claims.update({claim.atom: claim for claim in cyclic})
    assert derivation_faults(kb) == [f"{canonical_atom(a)}: rests on a cycle of derivations" for a in (a1, b1)]


def test_rederivation_check_catches_tampered_substitution():
    rs = parse_rulesheet(IDS + "p(X) :- q(X).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "q", (1,))])
    kb.saturate()
    good = kb.claims[GroundAtom("SB", "p", (1,))]
    tampered = Claim(GroundAtom("SB", "p", (2,)), DerivedByRule(good.evidence.rule, good.evidence.substitution))
    with pytest.raises(EvidenceError, match="rule instance mismatch"):
        check_evidence(tampered)
    with pytest.raises(EvidenceError, match=OWN_DERIVATION):
        kb.revise((), [tampered])


def test_canonical_injectivity_over_generated_corpus():
    seen = {}
    for seed in range(40):
        _, facts = random_program(seed)
        for principal, name, args in facts:
            atom = GroundAtom(principal, name, args)
            assert seen.setdefault(canonical_atom(atom), atom) == atom


def test_saturate_matches_oracle_with_builtins_and_arithmetic():
    for seed in range(60):
        rs, facts = random_builtin_program(seed)
        expected = naive_saturate(facts, rs.rules)
        kb = kb_with(rs, [GroundAtom(p, n, args) for (p, n, args) in facts])
        kb.saturate()
        assert atoms_of(kb) == expected, f"builtin-program divergence at seed {seed}"


def test_canonical_atom_roundtrip_fuzz():
    """Decoding then encoding gives the text back; and a decoded atom, which
    may come from the decode memo, has the text of a freshly built equal
    atom. An atom whose strings hold a lone surrogate has no UTF-8 text and
    is refused."""
    from hypothesis import given, settings, strategies as st

    strings = st.text(alphabet=st.one_of(st.sampled_from('"\\|(),'), st.characters()), max_size=10)
    terms = st.one_of(st.integers(min_value=-(2**100), max_value=2**100), strings)

    @settings(max_examples=200, deadline=None)
    @given(strings, st.sampled_from(["p", "ev", "out0"]), st.lists(terms, max_size=4))
    def check(principal, predicate, args):
        strs = [principal] + [a for a in args if isinstance(a, str)]
        if any(0xD800 <= ord(ch) <= 0xDFFF for s in strs for ch in s):
            with pytest.raises(ValueError, match="not valid Unicode"):
                canonical_atom(GroundAtom(principal, predicate, tuple(args)))
            return
        text = canonical_atom(GroundAtom(principal, predicate, tuple(args)))
        decoded = parse_canonical_atom(text)
        fresh = GroundAtom(principal, predicate, tuple(args))
        assert decoded == fresh and parse_canonical_atom(text) is decoded
        assert canonical_atom(decoded) == text == canonical_atom(fresh)

    check()


@pytest.mark.parametrize("text, value", [('"SB"|p(-0)', 0), ('"SB"|p( 5)', 5)])
def test_noncanonical_text_decodes_to_canonical_text_and_id(text, value):
    """An integer written in a non-canonical form that JSON reads decodes to
    its value; the atom's text comes from its fields, never from the input,
    and a claim decoded from the wire is the claim of the canonical atom."""
    from cyberlog.wire import claim_from_obj

    atom = parse_canonical_atom(text)
    assert atom == GroundAtom("SB", "p", (value,))
    canonical = f'"SB"|p({value})'
    assert canonical_atom(atom) == canonical != text
    claim = claim_from_obj({"atom": text, "evidence": {"kind": "direct_assertion"}}, NO_RULES)
    assert claim == Claim(parse_canonical_atom(canonical), DirectAssertion())


@pytest.mark.parametrize(
    "text",
    ["", "x", '"SB"', '"SB"p(1)', '"SB"|p(', '"SB"|p(x)', '"SB"|p(1,)', '"SB"|p("a)', '"SB"|p(1)z']
    + ['"SB"|p(007)', '"SB"|p(+5)', '"SB"|p(5.5)', '"SB"|p(true)', '"SB"|p(["d"])', '5|p(1)'],
)
def test_atom_decode_error_raises_on_every_call(text):
    """A text that fails to decode is decoded afresh, and fails, on every
    call: the memo holds only atoms. The principal is a JSON string and
    each argument a JSON integer or string, so a leading zero or plus sign,
    a fraction, a boolean, a list and a principal that is no string do not
    decode."""
    before = parse_canonical_atom.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_canonical_atom(text)
    after = parse_canonical_atom.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)


def test_self_join_enumerates_all_pairs():
    rs = parse_rulesheet(IDS + "both(X, Y) :- p(X), p(Y).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "p", (i,)) for i in (1, 2, 3)])
    kb.saturate()
    pairs = {a.args for a in kb.claims.keys() if a.predicate == "both"}
    assert pairs == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}


def test_long_chain_transitive_closure():
    n = 40
    rs = parse_rulesheet(IDS + "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "edge", (i, i + 1)) for i in range(n)])
    kb.saturate()
    paths = sum(1 for a in kb.claims.keys() if a.predicate == "path")
    assert paths == n * (n + 1) // 2


# --- incremental saturation -------------------------------------------------


def _check_against_oracle(kb, rs, asserted):
    assert at_fixpoint(kb)
    assert atoms_of(kb) == naive_saturate(asserted, rs.rules)
    assert derivation_faults(kb) == []
    _consistent(kb)


# A join whose comparison raises on a string T: the generated programs get it
# so that some batches raise and are restored (`_raise_and_restore`).
RAISING_RULE = "late(R) :- lp(R, T), lq(R), T > 3."


def _with_raising_rule(rs):
    decls = "".join(f"'{d.name}': Subject: 's' Issuer: 'i'\n" for d in rs.identities)
    extra = parse_rulesheet(decls + RAISING_RULE, rs.self_id)
    return Rulesheet(rs.self_id, rs.identities, rs.rules + extra.rules)


def _raise_and_restore(kb, rs, retract, claims):
    """`revise` with a joining lp/lq pair with a string T added to the
    claims: the call must raise and leave the KB with the claim objects it
    held, a derivation that fell with a retracted premise included."""
    before = dict(kb.claims)
    n = len(kb) + 1000  # a request id no generated fact uses
    pair = claims_from_atoms([GroundAtom(rs.self_id, "lp", (n, "x")), GroundAtom(rs.self_id, "lq", (n,))])
    with pytest.raises(EvaluationError, match="ordered comparison on non-integers"):
        kb.revise(retract, [*claims, *pair])
    assert _same_state(kb, before) and at_fixpoint(kb)
    _consistent(kb)


def test_interleaved_revise_batches_match_oracle():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2000), st.booleans(), st.data())
    def check(seed, builtins, data):
        rs, facts = (random_builtin_program if builtins else random_program)(seed)
        rs = _with_raising_rule(rs)
        order = data.draw(st.permutations(sorted(facts, key=repr)))
        batch_ends = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        kb = KnowledgeBase(rs)
        asserted, batch = set(), []
        for fact, batch_ends_here in zip(order, batch_ends):
            batch.append(fact)
            if batch_ends_here:
                claims = claims_from_atoms([GroundAtom(*f) for f in batch])
                if data.draw(st.booleans()):
                    _raise_and_restore(kb, rs, (), claims)
                kb.revise((), claims)
                asserted.update(batch)
                batch = []
                _check_against_oracle(kb, rs, asserted)
        kb.revise((), claims_from_atoms([GroundAtom(*f) for f in batch]))
        asserted.update(batch)
        _check_against_oracle(kb, rs, asserted)

    check()


def test_failed_saturate_keeps_its_seed(monkeypatch):
    """A builtin evaluation that raises, injected at the compiled matcher's
    builtin hook (`engine._get_param`), leaves the seed pending."""
    import cyberlog.engine as engine

    rs = parse_rulesheet(IDS + "out(V) :- ev(P, T, D), get_param_int(D, 'a', V).", "SB")
    kb = KnowledgeBase(rs)
    kb.saturate()
    kb.assert_claim(Claim(GroundAtom("SB", "ev", ("/a", 1, '{"a": 4}')), DirectAssertion()))

    calls = []

    def fail(*args, **kwargs):
        calls.append(args)
        raise EvaluationError("injected")

    monkeypatch.setattr(engine, "_get_param", fail)
    with pytest.raises(EvaluationError, match="injected"):
        kb.saturate()
    assert len(calls) == 1 and not at_fixpoint(kb)
    monkeypatch.undo()
    assert [c.atom for c in kb.saturate()] == [GroundAtom("SB", "out", (4,))]
    assert at_fixpoint(kb)


def test_revise_whose_saturation_raises_restores_the_kb():
    """The claims retracted or replaced come back as the same objects, the
    new ones go, and the KB is at its fixpoint and keeps working."""
    rs = parse_rulesheet(IDS + "late(R) :- p(R, T), T > 3.\nr(X) :- s(X).", "SB")
    kb = KnowledgeBase(rs)
    kb.revise((), claims_from_atoms([GroundAtom("SB", "p", (1, 5)), GroundAtom("SB", "s", (1,)), GroundAtom("SB", "s", (2,))]))
    before = _state(kb)
    replacement = Claim(GroundAtom("SB", "s", (2,)), DirectAssertion())
    raising = claims_from_atoms([GroundAtom("SB", "p", (9, "x"))])  # an ordered comparison on a string
    with pytest.raises(EvaluationError, match="ordered comparison on non-integers"):
        kb.revise([GroundAtom("SB", "s", (1,))], [replacement, *raising])
    claims = before
    assert kb.claims.keys() == claims.keys()
    assert all(kb.claims[a] is claims[a] for a in (GroundAtom("SB", "s", (1,)), GroundAtom("SB", "s", (2,))))
    assert at_fixpoint(kb)
    _consistent(kb)
    added = kb.revise((), claims_from_atoms([GroundAtom("SB", "p", (2, 7))]))
    assert [c.atom for c in added] == [GroundAtom("SB", "p", (2, 7)), GroundAtom("SB", "late", (2,))]


# --- join plans: argument indexes and delta-first order ------------------------


def test_delta_first_join_raises_as_in_body_order():
    """With q's claim as the delta, q goes first and p is probed by R; the
    comparison meets the same p row as in body order, and raises."""
    rs = parse_rulesheet(IDS + "late(R) :- p(R, T), q(R), T > 3.", "SB")
    kb = KnowledgeBase(rs)
    kb.revise((), claims_from_atoms([GroundAtom("SB", "p", (1, "x")), GroundAtom("SB", "p", (2, 5))]))
    before = _state(kb)
    with pytest.raises(EvaluationError, match="ordered comparison on non-integers"):
        kb.revise((), claims_from_atoms([GroundAtom("SB", "q", (1,))]))
    assert _same_state(kb, before) and at_fixpoint(kb)
    _consistent(kb)
    added = kb.revise((), claims_from_atoms([GroundAtom("SB", "q", (2,))]))
    assert [c.atom for c in added] == [GroundAtom("SB", "q", (2,)), GroundAtom("SB", "late", (2,))]


def test_join_after_a_comparison_keeps_body_order():
    """A comparison before b keeps b's delta join in body order, so every
    a row meets `Y > 3` as before: one with a string Y and no b partner
    still raises."""
    import cyberlog.engine as engine

    rs = parse_rulesheet(IDS + "h(X) :- a(X, Y), Y > 3, b(X).", "SB")
    kb = KnowledgeBase(rs)
    ((deltas, _rederive),) = engine._sheet_plans(rs).joins
    assert [plan.body for _key, plan in deltas] == [rs.rules[0].body] * 2
    kb.revise((), claims_from_atoms([GroundAtom("SB", "b", (2,))]))
    for batch in ([GroundAtom("SB", "a", (1, "x"))], [GroundAtom("SB", "a", (1, "x")), GroundAtom("SB", "b", (3,))]):
        with pytest.raises(EvaluationError, match="ordered comparison on non-integers"):
            kb.revise((), claims_from_atoms(batch))
        assert set(kb.claims) == {GroundAtom("SB", "b", (2,))}
        _consistent(kb)


def _booking_flow(r):
    data = f'{{"request_id": {r}}}'
    return [
        GroundAtom("SB", "request", (r, data, 10 * r)),
        GroundAtom("MRM", "feasible_config", (r, 7)),
        GroundAtom("OM", "tasks_done", (r, 7)),
        GroundAtom("OM", "ready_to_fly", (r, 7, data, 10 * r + 2000)),
        GroundAtom("CA", "mission_confirmed", (r, data, 10 * r)),
    ]


def _scenario_sheet(name, self_id):
    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios", "rules", name)) as fh:
        return parse_rulesheet(fh.read(), self_id)


def _service_request(r):
    return GroundAtom("SB", "postRequest", ("/servicerequest", 10 * r, f'{{"request_id": {r}}}'))


def _counting_pool(monkeypatch):
    """Count the candidates `KnowledgeBase._pool` hands the plans, until `monkeypatch.undo()`."""
    pool, tried = KnowledgeBase._pool, [0]

    def counting(self, step, value):
        atoms = pool(self, step, value)
        tried[0] += len(atoms)
        return atoms

    monkeypatch.setattr(KnowledgeBase, "_pool", counting)
    return tried


def test_a_watchers_join_costs_what_it_derives_not_its_history(monkeypatch):
    """One booking flow's claims cost DOM's saturation as many stored
    candidates, the atoms its compiled joins are handed to try
    (`KnowledgeBase._pool`), over 96 flows of history as over 24."""
    rs = _scenario_sheet("dom.cyberlog", "DOM")
    counts = []
    for history in (24, 96):
        kb = KnowledgeBase(rs)
        kb.revise((), claims_from_atoms([a for r in range(history) for a in _booking_flow(r)]))
        tried = _counting_pool(monkeypatch)
        added = kb.revise((), claims_from_atoms(_booking_flow(history)))
        monkeypatch.undo()
        derived = {(c.atom.predicate, c.atom.args) for c in added if isinstance(c.evidence, DerivedByRule)}
        assert derived == {("good_rtf_exists", (history, 7)), ("delayed_rtf", (history, 2000, 10 * history))}
        counts.append(tried[0])
    assert counts[0] == counts[1] > 0


def test_a_rederived_head_costs_what_it_probes_not_its_history(monkeypatch):
    """Re-deriving one retracted `request` of SB's sheet probes its
    `postRequest` on the bound time: as many candidates over 96 requests
    as over 24. The index is built on that first probe, after the events
    are stored, and the KB is then the naive fixpoint."""
    rs = _scenario_sheet("sb.cyberlog", "SB")
    counts = []
    for history in (24, 96):
        events = [_service_request(r) for r in range(history)]
        kb = KnowledgeBase(rs)
        kb.revise((), claims_from_atoms(events))
        assert ("SB", "postRequest") not in kb._arg_index
        target = GroundAtom("SB", "request", (5, '{"request_id": 5}', 50))
        tried = _counting_pool(monkeypatch)
        rederived = kb.revise([target], ())
        monkeypatch.undo()
        assert [c.atom for c in rederived] == [target]
        _check_against_oracle(kb, rs, {(a.principal, a.predicate, a.args) for a in events})
        counts.append(tried[0])
    assert counts[0] == counts[1] > 0


def test_a_next_rule_carry_costs_what_it_probes_not_its_history(monkeypatch):
    """One carry of `sb_retention`'s next-rule probes `in_process` on the
    bound request id: as many candidates per request over 96 open
    requests as over 24. The index is built on that first probe, after
    the claims are stored; the carry-overs are the naive oracle's."""
    rs = _scenario_sheet("sb_retention.cyberlog", "SB")
    per_request = []
    for history in (24, 96):
        events = [_service_request(r) for r in range(history)]
        events += [
            GroundAtom("SB", "postRequest", ("/status", 10 * r + 5, f'{{"request_id": {r}, "state": "open"}}'))
            for r in range(history)
        ]
        kb = KnowledgeBase(rs)
        kb.revise((), claims_from_atoms(events))
        assert ("SB", "in_process") not in kb._arg_index
        expected = naive_carry(atoms_of(kb), rs.rules)
        tried = _counting_pool(monkeypatch)
        carried = kb.carry(events)
        monkeypatch.undo()
        assert {(c.atom.principal, c.atom.predicate, c.atom.args) for c in carried} == expected and len(carried) == history
        _check_against_oracle(kb, rs, expected)
        per_request.append(tried[0] / history)
    assert per_request[0] == per_request[1] > 0


def test_a_second_kb_over_a_rulesheet_plans_and_compiles_nothing(monkeypatch):
    """Join plans are compiled once per rulesheet: the first KB over a
    sheet plans and compiles each of its joins, two delta-first, one
    head-bound and one next-rule, and a second KB over it neither."""
    import cyberlog.engine as engine

    calls = []
    for name in ("_join_plan", "_compile"):
        original = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    rs = parse_rulesheet(
        IDS + "planned_once(X) :- 'MRM' attests a(X, Y), 'OM' attests b(Y).\nnext planned_once(X) :- planned_once(X).", "SB"
    )
    KnowledgeBase(rs)
    assert sorted(calls) == ["_compile"] * 4 + ["_join_plan"] * 4
    calls.clear()
    KnowledgeBase(rs)
    assert calls == []


# --- evidence checked on entry, by structure -----------------------------------


@pytest.fixture
def count_verify(monkeypatch):
    """Record every Ed25519 check the KB makes, as (key, signature, message)."""
    import cyberlog.identity as identity

    original = identity.verify_bytes
    calls = []

    def counting(key, signature, message):
        calls.append((key, signature, message))
        return original(key, signature, message)

    monkeypatch.setattr(identity, "verify_bytes", counting)
    return calls


@pytest.fixture
def count_inclusion(monkeypatch):
    """Record every inclusion proof the KB checks, as (root, leaf, proof)."""
    import cyberlog.claimlog as claimlog

    original = claimlog.verify_inclusion
    calls = []

    def counting(root, leaf, proof):
        calls.append((root, leaf, proof))
        return original(root, leaf, proof)

    monkeypatch.setattr(claimlog, "verify_inclusion", counting)
    return calls


def _logged_claim(atom):
    """A LogInclusion claim for `atom`, under one leaf of a three-leaf log,
    as a watcher's verified fetch makes it."""
    from cyberlog.claimlog import MerkleLog, leaf_hash, sign_tree_head
    from cyberlog.engine import LogInclusion
    from cyberlog.identity import generate_identity

    log = MerkleLog()
    payload = canonical_atom(atom).encode("utf-8")
    for entry in (b"before", payload, b"after"):
        log.append(entry)
    head = sign_tree_head(log, generate_identity("op", "s", "i", seed=b"\x09" * 32), 7)
    return Claim(atom, LogInclusion("rev", leaf_hash(payload), log.prove_inclusion(1, 3), head))


def _state(kb):
    """Atoms with their evidence objects."""
    return dict(kb.claims)


def _same_state(kb, claims):
    """The KB holds exactly `claims`, as the same objects."""
    return kb.claims == claims and all(kb.claims[a] is c for a, c in claims.items())


def test_stored_claims_are_not_verified_again(count_verify, count_inclusion, monkeypatch):
    """Each admission checks every claim it is given but a stored claim
    object, which was checked when it entered: an equal claim that is
    another object is checked, so a forged rule instance offered for a
    stored atom is refused; the chain check checks nothing. No check in the
    KB runs a signature or a proof: those ran where the claims entered."""
    rs = parse_rulesheet(IDS + "next r(X) :- p(X).", "SB")
    direct = Claim(GroundAtom("SB", "p", (1,)), DirectAssertion())
    logged = _logged_claim(GroundAtom("MRM", "q", (2,)))
    carried = Claim(GroundAtom("SB", "r", (1,)), CarriedByNextRule(rs.rules[0], {"X": 1}))
    claims = [direct, logged, carried]
    kb = KnowledgeBase(rs)
    checked = _counting_checks(kb, monkeypatch)
    assert kb.revise([], claims) == claims
    assert len(checked) == 3
    # re-admission of the stored objects checks nothing and keeps them
    assert kb.revise([c.atom for c in claims], claims) == []
    assert len(checked) == 3 and _same_state(kb, {c.atom: c for c in claims})
    # equal claims that are other objects are checked again; no atom is new
    copies = [Claim(c.atom, c.evidence) for c in claims]
    assert kb.revise([c.atom for c in claims], copies) == []
    assert len(checked) == 6 and _same_state(kb, {c.atom: c for c in copies})
    forged = Claim(carried.atom, CarriedByNextRule(rs.rules[0], {"X": 2}))
    with pytest.raises(EvidenceError, match="rule instance mismatch"):
        kb.revise([], [forged])
    assert kb.claims[carried.atom] is copies[2]
    assert all(kb.verify_claim_chain(c.atom) for c in claims) and derivation_faults(kb) == []
    assert len(checked) == 6 + 1
    assert (len(count_verify), len(count_inclusion)) == (0, 0)


class UnknownEvidence:
    pass


def test_forgeries_refused_on_entry():
    """A derivation, a carried rule instance whose head is another atom and
    evidence of no known type are refused by `revise`, alone or next to a
    genuine claim, and leave the KB as it was. The shared checker also
    refuses both derivations on its own, as the auditor asks it to."""
    rs = parse_rulesheet(IDS + "r(X) :- p(X).\nnext c(X) :- p(X).\ns(X) :- p(X), q(X, Y).", "SB")
    kb = KnowledgeBase(rs)
    kb.revise([], claims_from_atoms([GroundAtom("SB", "p", (1,))]))
    before = _state(kb)
    p1, p2 = GroundAtom("SB", "p", (1,)), GroundAtom("SB", "p", (2,))
    genuine = Claim(p2, DirectAssertion())
    derived, carried, joined = rs.rules
    forgeries = {
        "derived head of another atom": (
            Claim(GroundAtom("SB", "r", (2,)), DerivedByRule(derived, {"X": 1})),
            "rule instance mismatch",
        ),
        "derived premise left unbound": (
            Claim(GroundAtom("SB", "s", (2,)), DerivedByRule(joined, {"X": 2})),
            "rule instance unevaluable: unbound variable in body atom q",
        ),
        "carried head of another atom": (
            Claim(GroundAtom("SB", "c", (2,)), CarriedByNextRule(carried, {"X": 1})),
            "rule instance mismatch",
        ),
        "unknown evidence type": (Claim(p2, UnknownEvidence()), "unknown evidence type UnknownEvidence"),
    }
    for forged, message in forgeries.values():
        if isinstance(forged.evidence, DerivedByRule):
            with pytest.raises(EvidenceError, match=message):
                check_evidence(forged)
            message = OWN_DERIVATION
        for batch in ([forged], [genuine, forged]):
            with pytest.raises(EvidenceError, match=message):
                kb.revise([p1], batch)
            assert _same_state(kb, before) and at_fixpoint(kb)


def test_failed_revise_changes_nothing(monkeypatch):
    """A refused batch leaves atoms, evidence objects and pending work as
    they were, even when an earlier claim of the batch passed its check;
    that claim is checked again when it is admitted on its own."""
    rs = parse_rulesheet(IDS + "r(X) :- p(X).\nnext c(X) :- p(X).", "SB")
    kb = KnowledgeBase(rs)
    kb.revise([], claims_from_atoms([GroundAtom("SB", "p", (1,)), GroundAtom("SB", "p", (2,))]))
    before = _state(kb)
    [p3] = claims_from_atoms([GroundAtom("SB", "p", (3,))])
    forged = Claim(GroundAtom("SB", "c", (4,)), CarriedByNextRule(rs.rules[1], {"X": 3}))
    with pytest.raises(EvidenceError, match="rule instance mismatch"):
        kb.revise([GroundAtom("SB", "p", (1,))], [p3, forged])
    assert _same_state(kb, before) and at_fixpoint(kb)
    checked = _counting_checks(kb, monkeypatch)
    added = kb.revise([], [p3])
    assert [c.atom for c in added] == [p3.atom, GroundAtom("SB", "r", (3,))]
    assert checked == [p3.atom]  # on admission; saturation stores the r(3) it makes unchecked


def test_booking_run_makes_no_check_inside_a_kb(count_verify, count_inclusion, monkeypatch):
    """In a memory-mode booking run, where DOM watches the four other
    owners, a KB runs no signature or proof (its callers checked those
    where the claims entered the program), is offered no derivation, and
    no query answer walks a chain of evidence."""
    import os

    from cyberlog.harness import load_scenario, run_scenario

    offered, walked = [], []
    check = KnowledgeBase.check_evidence
    monkeypatch.setattr(KnowledgeBase, "check_evidence", lambda kb, claim: offered.append(claim) or check(kb, claim))
    monkeypatch.setattr(KnowledgeBase, "verify_claim_chain", lambda kb, atom: walked.append(atom))
    scenario = load_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios", "uav_booking.jsonl"))
    assert [m.watched for m in scenario.monitors if m.name == "DOM"] == [["SB", "MRM", "OM", "CA"]]
    report = run_scenario(scenario, mode="memory")
    assert report.passed
    assert offered and not [c for c in offered if isinstance(c.evidence, DerivedByRule)]
    assert walked == []
    assert (len(count_verify), len(count_inclusion)) == (0, 0)


# --- Delete-and-Rederive ------------------------------------------------------


def test_readmitted_atom_is_not_joined_again():
    rs = parse_rulesheet(IDS + "r(X) :- p(X).\nnext p(X) :- p(X).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "p", (n,)) for n in range(3)])
    kb.saturate()
    derived = kb.claims[GroundAtom("SB", "r", (0,))]
    carried = [Claim(GroundAtom("SB", "p", (n,)), CarriedByNextRule(rs.rules[1], {"X": n})) for n in range(3)]
    assert kb.revise([GroundAtom("SB", "p", (n,)) for n in range(3)], carried) == []
    assert at_fixpoint(kb)
    assert kb.claims[GroundAtom("SB", "p", (0,))] is carried[0]
    assert kb.claims[GroundAtom("SB", "r", (0,))] is derived
    assert derivation_faults(kb) == []


def test_atom_with_two_derivations_survives_losing_one():
    rs = parse_rulesheet(IDS + "r(X) :- p(X).\nr(X) :- q(X).", "SB")
    kb = kb_with(rs, [GroundAtom("SB", "p", (1,)), GroundAtom("SB", "q", (1,))])
    kb.saturate()
    r1 = GroundAtom("SB", "r", (1,))
    [recorded] = kb.claims[r1].evidence.premises
    # over-deleted with its recorded premise, and re-derived from the other
    assert [c.atom for c in kb.revise([recorded], [])] == [r1]
    assert kb.claims[r1].evidence.premises != (recorded,)
    assert derivation_faults(kb) == []
    assert atoms_of(kb) == naive_saturate({(a.principal, a.predicate, a.args) for a in kb.claims.keys() if a.predicate != "r"}, rs.rules)


def test_transitive_closure_loses_middle_edge():
    rs = parse_rulesheet(IDS + "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).", "SB")
    n = 6
    kb = kb_with(rs, [GroundAtom("SB", "edge", (i, i + 1)) for i in range(n)])
    kb.saturate()
    cut = 3  # edge(3, 4)
    kb.revise([GroundAtom("SB", "edge", (cut, cut + 1))], [])
    paths = {a.args for a in kb.claims.keys() if a.predicate == "path"}
    assert paths == {(i, j) for i in range(n + 1) for j in range(i + 1, n + 1) if not (i <= cut < j)}
    assert kb.saturate() == []
    base = {("SB", "edge", (i, i + 1)) for i in range(n) if i != cut}
    _check_against_oracle(kb, rs, base)


def _consistent(kb):
    """The KB's indexes agree with its claims: each argument index equals
    one rebuilt from `kb.claims`, as the same objects, with no empty bucket."""
    claims = list(kb.claims.values())
    assert {atom: claim for group in kb._index.values() for atom, claim in group.items()} == kb.claims
    assert sum(map(len, kb._index.values())) == len(claims)
    for claim in claims:
        if isinstance(claim.evidence, DerivedByRule):
            assert all(claim.atom in kb._dependents[p] for p in claim.evidence.premises)
    for (principal, predicate), positions in kb._arg_index.items():
        for position, buckets in positions.items():
            rebuilt: dict = {}
            for atom, claim in kb.claims.items():
                if (atom.principal, atom.predicate) == (principal, predicate) and position < len(atom.args):
                    rebuilt.setdefault(atom.args[position], {})[atom] = id(claim)
            assert {value: {a: id(c) for a, c in bucket.items()} for value, bucket in buckets.items()} == rebuilt


def test_revise_and_saturate_match_oracle():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2000), st.booleans(), st.data())
    def check(seed, builtins, data):
        rs, facts = (random_builtin_program if builtins else random_program)(seed)
        rs = _with_raising_rule(rs)
        pool = sorted(facts, key=repr)
        kb = KnowledgeBase(rs)
        base: set = set()
        for _ in range(data.draw(st.integers(1, 6))):
            retract = [GroundAtom(*f) for f in data.draw(st.lists(st.sampled_from(pool), unique=True))]
            derived = sorted((a for a, c in kb.claims.items() if isinstance(c.evidence, DerivedByRule)), key=repr)
            if derived:  # re-derived with the head bound, probing indexes that may not exist yet
                retract += data.draw(st.lists(st.sampled_from(derived), unique=True))
            admit = data.draw(st.lists(st.sampled_from(pool), unique=True))
            claims = claims_from_atoms([GroundAtom(*f) for f in admit])
            if data.draw(st.booleans()):
                _raise_and_restore(kb, rs, retract, claims)
                _check_against_oracle(kb, rs, base)
            kb.revise(retract, claims)
            base = (base - {(a.principal, a.predicate, a.args) for a in retract}) | set(admit)
            _check_against_oracle(kb, rs, base)

    check()


def test_carry_matches_naive_next_rule_oracle():
    """Random programs with some rules made next-rules, over a few KB steps
    after a commit, each retracting some of the claims not derived: each
    step admits exactly the naive oracle's next-rule heads over the claims
    held, each passing `engine.check_evidence` with premises held, a
    carry-over equal to a stored claim is that stored object, and the KB is
    then the fixpoint of its carry-overs and the claims kept."""
    import dataclasses

    from hypothesis import given, settings, strategies as st

    from cyberlog.lang import RelationalAtom, Rule, RuleKind

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2000), st.booleans(), st.data())
    def check(seed, builtins, data):
        rs, facts = (random_builtin_program if builtins else random_program)(seed)
        made_next = data.draw(st.lists(st.booleans(), min_size=len(rs.rules), max_size=len(rs.rules)))
        rules = [dataclasses.replace(r, kind=RuleKind.NEXT) if n else r for r, n in zip(rs.rules, made_next)]
        if data.draw(st.booleans()):  # a retention rule, so that later steps meet their own carry-overs
            principal, predicate, args = data.draw(st.sampled_from(sorted(facts, key=repr)))
            keep = tuple(Variable(f"K{i}") for i in range(len(args)))
            head, body = RelationalAtom(rs.self_id, predicate, keep), RelationalAtom(principal, predicate, keep)
            rules.append(Rule(RuleKind.NEXT, head, (body,)))
        rs = Rulesheet(rs.self_id, rs.identities, rules)
        kb = KnowledgeBase(rs)
        kb.revise((), claims_from_atoms([GroundAtom(*f) for f in facts]))
        for _step in range(data.draw(st.integers(1, 3))):
            held = dict(kb.claims)
            expected = naive_carry(atoms_of(kb), rs.rules)
            given_atoms = sorted((a for a, c in held.items() if not isinstance(c.evidence, DerivedByRule)), key=repr)
            retract = data.draw(st.lists(st.sampled_from(given_atoms), unique=True)) if given_atoms else []
            carried = kb.carry(retract)
            heads = [(c.atom.principal, c.atom.predicate, c.atom.args) for c in carried]
            assert len(heads) == len(expected) and set(heads) == expected
            for claim in carried:
                assert isinstance(claim.evidence, CarriedByNextRule) and kb.claims[claim.atom] is claim
                assert set(check_evidence(claim)) <= held.keys()
                if held.get(claim.atom) == claim:
                    assert held[claim.atom] is claim
            kept = {a for a in given_atoms if a not in retract} | {c.atom for c in carried}
            assert {a for a, c in kb.claims.items() if not isinstance(c.evidence, DerivedByRule)} == kept
            _check_against_oracle(kb, rs, {(a.principal, a.predicate, a.args) for a in kept})

    check()


@pytest.mark.parametrize("evidence_kind", ["derived", "carried"])
def test_rule_evidence_missing_head_variable_is_evidence_error(evidence_kind):
    """The shared checker refuses a rule instance that leaves a head
    variable unbound; `revise` refuses the claim, a derivation before any
    check of its instance, and stays empty."""
    rs = parse_rulesheet(IDS + "p(X) :- q(X).", "SB")
    atom = GroundAtom("SB", "p", (1,))
    if evidence_kind == "derived":
        evidence, refusal = DerivedByRule(rs.rules[0], {}), OWN_DERIVATION
    else:
        evidence, refusal = CarriedByNextRule(rs.rules[0], {}), "unbound head variable"
    with pytest.raises(EvidenceError, match="unbound head variable"):
        check_evidence(Claim(atom, evidence))
    kb = KnowledgeBase(NO_RULES)
    with pytest.raises(EvidenceError, match=refusal):
        kb.revise((), [Claim(atom, evidence)])
    assert _same_state(kb, {}) and at_fixpoint(kb)


# --- compiled join plans against the interpreter they replaced ------------------

# Rules drawn for the cases a compiled matcher could get wrong: a variable
# repeated inside one atom, an `==` that binds its left or its right side,
# integer overflow, an ordered comparison on a string, each raising with
# bindings whose binding order is not sorted, a builtin that misses or
# checks a bound output, and string constants holding a quote, a backslash
# and a line break.
EDGE_SHEET = parse_rulesheet(
    "'A': Subject: 's' Issuer: 'i'\n'B': Subject: 's' Issuer: 'i'\n"
    "twice(X) :- p(X, X).\n"
    "left(X, Z) :- p(X, Y), Z == Y + 1, 'B' attests q(Z).\n"
    "right(X, Z) :- p(X, Y), Y - 1 == Z, 'B' attests q(Z, X).\n"
    "big(X) :- p(X, W), W * 4611686018427387904 > 0.\n"
    "small(Z) :- 'B' attests q(Z), p(Z, Y), Y < 3.\n"
    "param(X, V) :- e(X, D), get_param_int(D, 'k', V), V >= 1.\n"
    "named(X) :- e(X, D), get_param_str(D, 'k', 'it\\'s'), q(X, 'back\\\\slash').\n"
    "one(X) :- e(X, D), get_param_int(D, 'k', 1), p(X, 'line\\nbreak').\n"
    "next kept(X, Y) :- p(X, Y), 'B' attests q(Y).\n"
    "next same(X) :- p(X, X), Y == X * 2, q(Y, 'it\\'s').\n",
    "A",
)
EDGE_VALUES = (
    -2, 0, 1, 2, 3, 4611686018427387904, "a", "it's", "back\\slash", "line\nbreak",
    '{"k": 1}', '{"k": "it\'s"}', '{"k": 2}', "not json",
)


def _compiled_matches(plan, pool, k, delta, head):
    """Every match of a compiled plan over `pool`, as (head atom, evidence
    substitution), and the text of the error it raises (None if it does
    not). Delta position k takes `delta` there, and no delta atom before
    it, as saturation does; a head-bound plan takes the `head` bindings."""

    class Every(dict):  # holds no head, so every match is recorded
        def __contains__(self, atom):
            return False

        def __setitem__(self, atom, claim):
            out.append((atom, list(claim.evidence.substitution.items())))

    def cands(j, value):
        key, position, i = plan.steps[j]
        if i == k:
            return delta
        atoms = [
            a for a in pool
            if (a.principal, a.predicate) == key and (position is None or (position < len(a.args) and a.args[position] == value))
        ]
        return atoms if k is None or i > k else [a for a in atoms if a not in delta]

    out = []
    try:
        plan.match(cands, {}, Every(), *(head or {}).values())
    except EvaluationError as exc:
        return out, str(exc)
    return out, None


def _reference_matches(plan, pool, k, delta, head):
    """`_compiled_matches` by the interpreter (`naive_oracle.match_rule_body`)
    over the plan's body order, every candidate of a predicate tried."""
    from cyberlog.engine import instantiate_head
    from cyberlog.lang import format_rule
    from naive_oracle import match_rule_body

    rule, rel = plan.rule, [i for _key, _position, i in plan.steps]

    def candidates(j, atom, _subst):
        if rel[j] == k:
            return [a.args for a in delta]
        atoms = [a for a in pool if (a.principal, a.predicate) == (atom.principal, atom.predicate)]
        return [a.args for a in atoms if k is None or rel[j] > k or a not in delta]

    out = []
    try:
        for full in match_rule_body(plan.body, candidates, dict(head or {})):
            out.append((instantiate_head(rule.head, full), [(n, full[n]) for n in rule.variables if n in full]))
            if head is not None:  # a head-bound plan stops at its first match
                break
    except EvaluationError as exc:
        return out, f"{exc} in rule: {format_rule(rule, oneline=True)}"
    return out, None


def _check_plans(rs, pool, choose):
    """Every compiled plan of the sheet, delta-first, head-bound, fact and
    next-rule, matches as the interpreter does over `pool`: the same
    matches in the same order, and the same error at the same match. A
    delta plan takes `choose(atoms)` of its delta predicate's atoms as its
    delta. Returns each plan's matches and error."""
    from cyberlog.engine import _sheet_plans, bind_head

    plans = _sheet_plans(rs)
    runs = [(plan, None, [], None) for plan in (*plans.facts, *plans.next_rules)]
    for deltas, rederive in plans.joins:
        for k, (key, plan) in enumerate(deltas):
            same = [a for a in pool if (a.principal, a.predicate) == key]
            runs.append((plan, k, choose(same) if same else [], None))
        targets = [a for a in pool if (a.principal, a.predicate) == (rederive.rule.head.principal, rederive.rule.head.predicate)]
        for target in targets or [GroundAtom(rederive.rule.head.principal, rederive.rule.head.predicate, (1,))]:
            head = bind_head(rederive.rule.head, target)
            if head is not None:
                runs.append((rederive, None, [], head))
    results = []
    for plan, k, delta, head in runs:
        results.append(_reference_matches(plan, pool, k, delta, head))
        assert _compiled_matches(plan, pool, k, delta, head) == results[-1]
    return results


def _draw_plans_check(rs, facts, data):
    """`_check_plans` over the facts in a drawn order, with drawn deltas."""
    from hypothesis import strategies as st

    pool = data.draw(st.permutations(sorted({GroundAtom(*f) for f in facts}, key=repr)))
    _check_plans(rs, pool, lambda atoms: data.draw(st.lists(st.sampled_from(atoms), unique=True)))


def test_compiled_plans_match_the_interpreter_on_random_programs():
    """Random programs, each rule also made a next-rule, over their facts
    in a random order."""
    import dataclasses

    from hypothesis import given, settings, strategies as st

    from cyberlog.lang import RuleKind

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2000), st.booleans(), st.data())
    def check(seed, builtins, data):
        rs, facts = (random_builtin_program if builtins else random_program)(seed)
        rules = rs.rules + tuple(dataclasses.replace(rule, kind=RuleKind.NEXT) for rule in rs.rules)
        facts |= {(rs.self_id, rule.head.predicate, (0,)) for rule in rs.rules}  # a few heads to re-derive
        _draw_plans_check(Rulesheet(rs.self_id, rs.identities, rules), facts, data)

    check()


def test_rule_instance_check_agrees_with_the_oracle():
    """Over random programs, each rule also made a next-rule, `check_evidence`
    accepts a rule instance the KB derives or carries, or one with an entry
    of its substitution dropped or changed, exactly when the oracle's own
    evaluation of its rule over its premises yields its atom and its whole
    substitution (`naive_oracle.rule_instance_holds`)."""
    import dataclasses

    from hypothesis import given, settings, strategies as st

    from cyberlog.lang import RuleKind
    from naive_oracle import rule_instance_holds

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2000), st.booleans())
    def check(seed, builtins):
        rs, facts = (random_builtin_program if builtins else random_program)(seed)
        rules = rs.rules + tuple(dataclasses.replace(rule, kind=RuleKind.NEXT) for rule in rs.rules)
        kb = KnowledgeBase(Rulesheet(rs.self_id, rs.identities, rules))
        kb.revise((), claims_from_atoms(GroundAtom(*fact) for fact in facts))
        instances = [c for c in kb.claims.values() if isinstance(c.evidence, DerivedByRule)] + kb.carry(())
        for claim in instances:
            ev, variants = claim.evidence, [dict(claim.evidence.substitution)]
            for name, value in ev.substitution.items():
                variants.append({n: v for n, v in ev.substitution.items() if n != name})
                for other in {value + 1 if isinstance(value, int) else value + "x", 0, "a"} - {value}:
                    variants.append({**ev.substitution, name: other})
            for subst in variants:
                try:
                    check_evidence(Claim(claim.atom, type(ev)(ev.rule, subst)))
                    accepted = True
                except EvidenceError:
                    accepted = False
                assert accepted is rule_instance_holds(ev.rule, subst, claim.atom), (ev.rule, subst, claim.atom)
            assert rule_instance_holds(ev.rule, dict(ev.substitution), claim.atom)

    check()


def test_compiled_plans_match_the_interpreter_on_edge_cases():
    """The edge-case rules over drawn pools, and over one pool on which
    each rule matches, or raises: overflow and an ordered comparison on a
    string."""
    from hypothesis import given, settings, strategies as st

    names = [("A", "p"), ("B", "q"), ("A", "q"), ("A", "e")]
    fact = st.tuples(st.sampled_from(names), st.lists(st.sampled_from(EDGE_VALUES), max_size=3))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(fact, max_size=12), st.data())
    def check(facts, data):
        _draw_plans_check(EDGE_SHEET, {(p, q, tuple(args)) for (p, q), args in facts}, data)

    check()
    pool = [
        GroundAtom("A", "p", (1, 1)), GroundAtom("B", "q", (2,)), GroundAtom("B", "q", (0, 1)), GroundAtom("A", "q", (2, "it's")),
        GroundAtom("A", "p", (5, 4611686018427387904)), GroundAtom("B", "q", (7,)), GroundAtom("A", "p", (7, "a")),
        GroundAtom("A", "e", (1, '{"k": 1}')), GroundAtom("A", "e", (2, "not json")), GroundAtom("A", "p", (1, "line\nbreak")),
        GroundAtom("A", "e", (3, '{"k": "it\'s"}')), GroundAtom("A", "q", (3, "back\\slash")),
        GroundAtom("B", "q", (1,)),
    ]
    results = _check_plans(EDGE_SHEET, pool, lambda atoms: atoms)
    matched = {atom.predicate for matches, _error in results for atom, _subst in matches}
    assert matched == {rule.head.predicate for rule in EDGE_SHEET.rules}
    raised = [error for _matches, error in results if error is not None]
    assert any("integer overflow" in e for e in raised) and any("ordered comparison on non-integers" in e for e in raised)


def test_generated_source_holds_only_constants_and_prefixed_names(monkeypatch):
    """The compiled source of every plan of the edge-case sheet names only
    Python keywords, the engine's helpers and locals with a one-letter
    prefix and a number; each string or number in it is a constant of its
    rule (a principal, predicate, term, variable name or operator)."""
    import ast
    import io
    import keyword
    import re
    import tokenize

    import cyberlog.engine as engine
    from cyberlog.lang import ArithExpr, BuiltinAtom, ComparisonAtom

    sources = []
    monkeypatch.setattr(engine, "compile", lambda text, *a: sources.append(text) or compile(text, *a), raising=False)
    engine._body_plan.cache_clear()
    engine._sheet_plans.__wrapped__(EDGE_SHEET)
    assert len(sources) == 23  # a plan per delta position, one head-bound per standard rule, one per next-rule

    def constants(node):
        if isinstance(node, Variable):
            yield node.name
        elif isinstance(node, ArithExpr):
            yield node.op
            yield from (c for side in (node.left, node.right) for c in constants(side))
        elif isinstance(node, ComparisonAtom):
            yield node.op
            yield from (c for side in (node.left, node.right) for c in constants(side))
        elif isinstance(node, BuiltinAtom):
            yield node.name
            yield from (c for arg in node.args for c in constants(arg))
        elif hasattr(node, "predicate"):
            yield from (node.principal, node.predicate)
            yield from (c for arg in node.args for c in constants(arg))
        else:
            yield node.value

    known = {c for rule in EDGE_SHEET.rules for atom in (rule.head, *rule.body) for c in constants(atom)}
    helpers = {
        "_make", "match", "rule", "cands", "claims", "sink", "h", "exc", "GroundAtom", "Claim", "DerivedByRule",
        "CarriedByNextRule", "EvaluationError", "_arith", "_parse_data", "_get_param", "_not_integers", "_with_bindings",
        "_in_rule", "int", "str", "isinstance", "len", "args",
    }
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert keyword.iskeyword(tok.string) or tok.string in helpers or re.fullmatch(r"[atvxlrd]\d+", tok.string), tok
            elif tok.type in (tokenize.STRING, tokenize.NUMBER):
                assert ast.literal_eval(tok.string) in known, tok
