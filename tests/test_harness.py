"""Scenario harness: bundled workflow runs, determinism, integration mode."""

import dataclasses
import os
import re

import pytest

from cyberlog.harness import ScenarioRun, load_scenario, run_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario_path(name):
    return os.path.join(SCENARIOS, name + ".jsonl")


@pytest.fixture(scope="module")
def booking_report():
    return run_scenario(scenario_path("uav_booking"))


def test_booking_yields_single_verdict(booking_report):
    assert booking_report.passed, booking_report.render()
    by_query = {e.query: e.actual for e in booking_report.expectations}
    assert by_query["good_rtf_exists(R, A)"] == 1
    assert by_query["delayed_rtf(R, D, S)"] == 0


# SHA-256 over every logged payload, each preceded by its length as 4
# little-endian bytes, after the booking scenario in memory mode. Any change
# to what the log holds (canonical atom text, rule references, JSON layout,
# signatures, commit order, which evidence fields are logged) changes it.
# Its value changed when evidence stopped logging a carried claim's source
# revision and the substitution entries of bare head variables: the 25
# payloads went from 23056 to 20208 bytes. It changed again when evidence
# named its rule by index into the logged rulesheet instead of logging the
# rule's text: 20208 to 16783 bytes, with every decoded claim, audit
# verdict and query answer unchanged. It changed again when a derived claim
# stopped logging its premises' ids, which its rule's body atoms give back:
# 16783 to 15540 bytes. The seven revisions holding a derived claim shrank,
# and the revisions superseding them changed only their supersedes id and
# signature. It changed again when a direct assertion stopped logging its
# signer and a signature over its atom's text, its evidence being the
# owner's signature of the revision that holds it: 15540 to 14754 bytes.
# It changed again when a commit whose snapshot equals its base revision's
# stopped logging a copy of it: 25 entries and 14754 bytes to 16 and 9640,
# each owner's sequence of logged claim arrays the same once repeats are
# collapsed.
BOOKING_LOG_DIGEST = (16, "ad905ceff5c2c05c0acb5a65699b45b9d7b81dabf4fd90e7e48da32190e104e7")
# The same digest of six uav_booking flows, one per commit window, with DOM
# watching (`steady_booking(6)`): 41 payloads, 45359 bytes. Unlike the
# booking log it holds claims carried along each owner's chain over several
# revisions and DOM's revisions over several windows of re-derivations.
STEADY_BOOKING_LOG_DIGEST = (41, "75fc2afa19825bc0a16053bd6f48d485672df2ce7fb9a98867d6b487a5939188")


def _log_digest(log):
    """The entry count of `log` and the SHA-256 of its payloads, each
    prefixed by its length as 4 little-endian bytes."""
    import hashlib

    digest = hashlib.sha256()
    for index in range(len(log)):
        payload = log.payload(index)
        digest.update(len(payload).to_bytes(4, "little") + payload)
    return len(log), digest.hexdigest()


def test_booking_claim_log_is_byte_identical():
    run = ScenarioRun(load_scenario(scenario_path("uav_booking")))
    try:
        assert run.run().passed
        assert _log_digest(run.db.log) == BOOKING_LOG_DIGEST
    finally:
        run.close()


def test_steady_booking_claim_log_is_byte_identical():
    from conftest import steady_booking

    run = ScenarioRun(steady_booking(6))
    try:
        run.finish()
        assert run.query_count("DOM", "good_rtf_exists(R, A)") == 6
        assert _log_digest(run.db.log) == STEADY_BOOKING_LOG_DIGEST
    finally:
        run.close()


def test_booking_heads_exist_for_all_monitors(booking_report):
    """Each owner logs its events' revision and then the carry-overs; DOM
    logs one revision per set of heads it includes: none, the owners'
    first heads and their second."""
    chains = {name: head["chain_length"] for name, head in booking_report.heads.items()}
    assert chains == {"SB": 2, "MRM": 2, "CA": 2, "OM": 2, "DOM": 3}


def test_commit_counters_match_the_logged_chains(monkeypatch):
    """Each monitor's `commits_logged` is its head's chain length, and its
    two commit counters sum to the commit ticks it ran; the report prints
    both."""
    from cyberlog.monitor import Monitor

    ticks = {}
    commit = Monitor.commit

    def counting(monitor):
        ticks[monitor.name] = ticks.get(monitor.name, 0) + 1
        return commit(monitor)

    monkeypatch.setattr(Monitor, "commit", counting)
    run = ScenarioRun(load_scenario(scenario_path("uav_booking")))
    try:
        report = run.run()
    finally:
        run.close()
    lines = report.render().splitlines()
    for metric in report.metrics:
        name, logged, unchanged = metric["monitor"], metric["commits_logged"], metric["commits_unchanged"]
        assert logged == report.heads[name]["chain_length"]
        assert logged + unchanged == ticks[name] and unchanged > 0
        [line] = [line for line in lines if line.startswith(f"  {name}: ")]
        assert line.endswith(f"commits logged/unchanged = {logged}/{unchanged}")


@pytest.mark.parametrize("tag", ["no_request", "no_feasible", "no_tasks", "no_rtf"])
def test_ablations_yield_zero(tag):
    report = run_scenario(scenario_path(f"uav_booking_{tag}"))
    assert report.passed, report.render()


def test_delayed_rtf_boundary():
    report = run_scenario(scenario_path("uav_delayed_rtf"))
    assert report.passed, report.render()


def test_runs_are_deterministic():
    first = run_scenario(scenario_path("uav_booking"))
    second = run_scenario(scenario_path("uav_booking"))
    assert first.heads == second.heads  # identical revision ids
    assert [e.actual for e in first.expectations] == [e.actual for e in second.expectations]


def test_report_kb_counts_match_query_side():
    scenario = load_scenario(scenario_path("uav_booking"))
    run = ScenarioRun(scenario)
    report = run.run()
    for metric in report.metrics:
        assert metric["kb_facts"] == len(run.monitors[metric["monitor"]].kb)
    run.close()


def test_stepped_supersession_retracts_verdict():
    scenario = load_scenario(scenario_path("uav_booking"))
    specs = []
    for spec in scenario.monitors:
        if spec.name == "MRM":
            with open(os.path.join(SCENARIOS, "rules", "mrm_noretain.cyberlog")) as fh:
                spec = type(spec)(spec.name, fh.read(), spec.watched, spec.authz_predicate)
        specs.append(spec)
    run = ScenarioRun(dataclasses.replace(scenario, monitors=specs))
    # first cycle: all premises land, DOM includes and derives the verdict
    run.advance_to(1000)
    assert run.query_count("DOM", "good_rtf_exists(R, A)") == 1
    # MRM's next commit supersedes the premise-bearing revision without it
    run.advance_to(2000)
    assert run.query_count("DOM", "good_rtf_exists(R, A)") == 0

    # oracle: from-scratch saturation over DOM's current base claims
    from cyberlog.engine import DerivedByRule, KnowledgeBase

    dom = run.monitors["DOM"]
    oracle = KnowledgeBase(dom.rulesheet)
    for claim in dom.kb.claims.values():
        if not isinstance(claim.evidence, DerivedByRule):
            oracle.assert_claim(claim)
    oracle.saturate()
    assert oracle.claims.keys() == dom.kb.claims.keys()
    run.close()


def test_integration_mode_over_loopback(tmp_path):
    cache = str(tmp_path / "heads.jsonl")
    report = run_scenario(scenario_path("uav_booking"), mode="integration", heads_cache_path=cache)
    assert report.mode == "integration"
    assert report.passed, report.render()

    from cyberlog.audit import load_heads_cache

    heads = load_heads_cache(cache)
    assert len(heads) == 1 and heads[0].tree_size > 0


def test_supersedes_chains_linear_and_all_revisions_audit(tmp_path):
    """Over a full run: per-owner chains are linear (single root, each
    revision superseded at most once) and every claim of every committed
    revision passes the recursive audit check."""
    import json

    from cyberlog.audit import Auditor, render_audit_tree
    from cyberlog.revision import LogReader, decode_payload

    scenario = load_scenario(scenario_path("uav_booking"))
    log_path = str(tmp_path / "claims.log")
    run = ScenarioRun(scenario, log_path=log_path)
    assert run.run().passed

    rulesheets = LogReader(run.client, run.trust_store, run.operator.public_key)
    records = []
    for index in range(len(run.db.log)):
        payload = run.db.log.payload(index).decode()
        if json.loads(payload).get("kind") != "revision":
            continue
        record, _sig, _rs = decode_payload(payload, rulesheets, run.trust_store)
        records.append(record)

    by_owner = {}
    for record in records:
        by_owner.setdefault(record.owner, []).append(record)
    for owner, chain in by_owner.items():
        roots = [r for r in chain if r.supersedes is None]
        assert len(roots) == 1, f"{owner} has {len(roots)} chain roots"
        superseded = [r.supersedes for r in chain if r.supersedes]
        assert len(superseded) == len(set(superseded)), f"{owner} chain is not linear"

    auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
    audited = 0
    for record in records:
        for claim in record.claims:
            node = auditor.audit_claim(record, claim)
            assert node.all_ok, render_audit_tree(node)
            audited += 1
    assert audited >= len(records)
    run.close()


def test_positive_answers_are_auditable():
    """Every answer to the two queries is an atom of its monitor's head
    revision, and a fresh auditor proves it from the log."""
    from cyberlog.audit import Auditor, render_audit_tree
    from cyberlog.engine import GroundAtom, resolve_term
    from cyberlog.lang import parse_query

    run = ScenarioRun(load_scenario(scenario_path("uav_booking")))
    run.run()
    auditor = Auditor(run.client, run.trust_store, run.operator.public_key)
    for monitor, query in [("DOM", "good_rtf_exists(R, A)"), ("SB", "request(R, D, T)")]:
        pattern = parse_query(query, monitor)
        answers = run.monitors[monitor].handle_query(query)
        head, _ = run.reader.revision(run.db.get_head(monitor)["revision_id"])
        assert answers
        for bindings in answers:
            args = tuple(resolve_term(arg, bindings) for arg in pattern.args)
            atom = GroundAtom(pattern.principal, pattern.predicate, args)
            assert atom in head.by_atom
            node = auditor.audit_atom(monitor, atom)
            assert node.all_ok, render_audit_tree(node)
    run.close()


def test_scenario_loader_rejects_malformed_files(tmp_path):
    import json

    from cyberlog.errors import ConfigError

    def attempt(lines):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            load_scenario(str(path))

    attempt(["not json"])
    header = {"name": "x", "monitors": [], "expected": []}
    attempt([json.dumps(header), json.dumps({"at": 5, "monitor": "GHOST", "path": "/x"})])
    # nonmonotone offsets
    rules = tmp_path / "m.cyberlog"
    rules.write_text("'M': Subject: 's' Issuer: 'i'\n")
    header = {"name": "x", "monitors": [{"name": "M", "rulesheet": "m.cyberlog"}], "expected": []}
    attempt(
        [
            json.dumps(header),
            json.dumps({"at": 50, "monitor": "M", "path": "/x"}),
            json.dumps({"at": 10, "monitor": "M", "path": "/x"}),
        ]
    )
    # expectation against unknown monitor
    header = {
        "name": "x",
        "monitors": [{"name": "M", "rulesheet": "m.cyberlog"}],
        "expected": [{"monitor": "GHOST", "query": "p(X)", "count": 1}],
    }
    attempt([json.dumps(header)])


@pytest.mark.parametrize("field", ["at", "timestamp"])
@pytest.mark.parametrize("value", [5.9, True, "7", -1, None], ids=["float", "bool", "string", "negative", "null"])
def test_scenario_event_offsets_must_be_json_integers(tmp_path, field, value):
    """`at` (checked by `Scenario`) and `timestamp` (by `EventEnvelope`)
    pass the same check: 5.9 is refused, not run as 5."""
    import json

    from cyberlog.errors import ConfigError

    (tmp_path / "m.cyberlog").write_text("'M': Subject: 's' Issuer: 'i'\n")
    header = {"name": "x", "monitors": [{"name": "M", "rulesheet": "m.cyberlog"}], "expected": []}
    event = {"at": 5, "timestamp": 7, "monitor": "M", "path": "/x"}
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(dict(event, **{field: value})) + "\n")
    with pytest.raises(ConfigError, match=f"'{field}' must be a non-negative integer"):
        load_scenario(str(path))
    path.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n")
    (loaded,) = load_scenario(str(path)).events
    assert (loaded.at_ms, loaded.envelope.timestamp_ms) == (5, 7)


@pytest.mark.parametrize(
    "field, value, refusal",
    [("method", "PATCH", "unsupported method 'PATCH'"), ("path", 5, "event path and body must be strings")],
    ids=["method", "path"],
)
def test_scenario_event_is_validated_at_load(tmp_path, field, value, refusal):
    """An event `EventEnvelope` refuses fails the load, not the run partway
    through."""
    import json

    from cyberlog.errors import ConfigError

    (tmp_path / "m.cyberlog").write_text("'M': Subject: 's' Issuer: 'i'\n")
    header = {"name": "x", "monitors": [{"name": "M", "rulesheet": "m.cyberlog"}], "expected": []}
    event = {"at": 5, "monitor": "M", "path": "/x", field: value}
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(event) + "\n")
    with pytest.raises(ConfigError, match=f"bad scenario event .*: {refusal}"):
        load_scenario(str(path))


def write_scenario(tmp_path, header=(), event=None):
    """A scenario file of one monitor M, with `header` merged into its
    header and `event`, if given, as its one event line; returns its path."""
    import json

    (tmp_path / "m.cyberlog").write_text("'M': Subject: 's' Issuer: 'i'\n")
    head = {"name": "x", "monitors": [{"name": "M", "rulesheet": "m.cyberlog"}], "expected": [], **dict(header)}
    path = tmp_path / "s.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in (head, event) if line is not None) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "field, value, refusal",
    [
        ("commit_interval_ms", 0, "positive"),
        ("commit_interval_ms", -1000, "positive"),
        ("commit_interval_ms", 1.5, "positive"),
        ("poll_interval_ms", 0, "positive"),
        ("poll_interval_ms", "1000", "positive"),
        ("drain_rounds", -1, "non-negative"),
        ("drain_rounds", 2.5, "non-negative"),
        ("drain_rounds", True, "non-negative"),
    ],
)
def test_scenario_intervals_and_drain_rounds_are_refused_not_coerced(tmp_path, field, value, refusal):
    """A zero interval would fire the same tick forever, so it is refused
    when the scenario is loaded or built, before anything runs."""
    from cyberlog.errors import ConfigError
    from cyberlog.harness import Scenario

    with pytest.raises(ConfigError, match=f"'{field}' must be a {refusal} integer, not "):
        load_scenario(write_scenario(tmp_path, {field: value}))
    with pytest.raises(ConfigError, match=f"'{field}' must be a {refusal} integer"):
        Scenario("x", [], [], [], **{field: value})


@pytest.mark.parametrize("count", [1.7, -1, "1", True, None])
def test_expected_count_must_be_a_non_negative_integer(tmp_path, count):
    """`"count": 1.7` is refused, not run as an expectation of 1."""
    from cyberlog.errors import ConfigError

    expected = [{"monitor": "M", "query": "p(X)", "count": count}]
    with pytest.raises(ConfigError, match=r"expected 'count' of 'p\(X\)' must be a non-negative integer"):
        load_scenario(write_scenario(tmp_path, {"expected": expected}))


@pytest.mark.parametrize("query", [5, None, "p(X", "p(X) q(Y)", "get_param_int(D, 'a', V)"])
def test_expected_query_that_does_not_parse_refuses_the_scenario(tmp_path, query):
    """`"query": 5` is refused at load, not after the whole run."""
    from cyberlog.errors import ConfigError

    expected = [{"monitor": "M", "query": query, "count": 1}]
    with pytest.raises(ConfigError, match=f"expected 'query' {re.escape(repr(query))} of 'M' is not a query"):
        load_scenario(write_scenario(tmp_path, {"expected": expected}))


def test_watched_owners_that_are_not_a_list_refuse_the_run_before_any_event(tmp_path):
    """`"watched": "SBOM"` is not read as the owners S, B, O and M."""
    from cyberlog.errors import ConfigError

    path = write_scenario(
        tmp_path,
        {"monitors": [{"name": "M", "rulesheet": "m.cyberlog", "watched": "SBOM"}]},
        {"at": 5, "monitor": "M", "path": "/x"},
    )
    scenario = load_scenario(path)
    assert scenario.monitors[0].watched == "SBOM"  # mapped as it stands
    with pytest.raises(ConfigError, match="'M': watched owners must be a list of names, not 'SBOM'"):
        ScenarioRun(scenario)


@pytest.mark.parametrize("predicate", [5, ["ok"], True])
def test_authz_predicate_that_is_not_a_name_refuses_the_run_before_any_event(tmp_path, predicate):
    """`"authz_predicate": 5` is refused, not taken to deny every event."""
    from cyberlog.errors import ConfigError

    path = write_scenario(
        tmp_path,
        {"monitors": [{"name": "M", "rulesheet": "m.cyberlog", "authz_predicate": predicate}]},
        {"at": 5, "monitor": "M", "path": "/x"},
    )
    scenario = load_scenario(path)
    refusal = f"'M': authz_predicate must be a predicate name, not {re.escape(repr(predicate))}"
    with pytest.raises(ConfigError, match=refusal):
        ScenarioRun(scenario)


@pytest.mark.parametrize("field", ["at", "monitor"])
def test_event_line_without_its_offset_or_monitor_names_what_is_missing(tmp_path, field):
    from cyberlog.errors import ConfigError

    event = {"at": 5, "monitor": "M", "path": "/x"}
    del event[field]
    with pytest.raises(ConfigError, match=f"bad scenario event .*: missing '{field}'$"):
        load_scenario(write_scenario(tmp_path, event=event))


def test_a_scenario_and_its_envelopes_cannot_change_after_their_checks():
    """Both are frozen; a changed copy is built, and checked, anew."""
    from cyberlog.errors import ConfigError

    scenario = load_scenario(scenario_path("uav_booking"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.commit_interval_ms = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.events[0].envelope.timestamp_ms = -1
    assert dataclasses.replace(scenario, poll_interval_ms=500).poll_interval_ms == 500
    with pytest.raises(ConfigError, match="'poll_interval_ms' must be a positive integer, not 0"):
        dataclasses.replace(scenario, poll_interval_ms=0)


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".jsonl")))
def test_every_bundled_scenario_loads(name):
    assert load_scenario(os.path.join(SCENARIOS, name)).events
