"""Command line surface: exit codes, output shapes, server round trips."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from cyberlog.claimdb import ClaimDb, HttpLogClient, serve_db_in_thread
from cyberlog.claimlog import MerkleLog
from cyberlog.cli import main
from cyberlog.harness import OPERATOR_NAME, ScenarioRun, identity_seed, load_scenario
from cyberlog.identity import TrustStore, generate_identity

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
BOOKING = os.path.join(SCENARIOS, "uav_booking.jsonl")


@pytest.mark.parametrize("name", sorted(os.listdir(os.path.join(SCENARIOS, "rules"))))
def test_every_scenario_sheet_passes_check(capsys, name):
    """Each scenario sheet keeps its contract for the principal its file
    is named after (`mrm_noretain.cyberlog` is MRM's)."""
    principal = name.split(".")[0].split("_")[0].upper()
    assert main(["check", os.path.join(SCENARIOS, "rules", name), "--self", principal]) == 0
    assert capsys.readouterr().out.startswith(f"{os.path.join(SCENARIOS, 'rules', name)}: ok (")


def test_parse_ok_and_error(tmp_path, capsys):
    """`check` parses a sheet: ok for a good one, the syntax error for a bad one."""
    good = os.path.join(SCENARIOS, "rules", "dom.cyberlog")
    assert main(["check", good, "--self", "DOM"]) == 0
    bad = tmp_path / "bad.cyberlog"
    bad.write_text("p(X) :- q(X)")  # missing terminator
    assert main(["check", str(bad), "--self", "M"]) == 1
    out = capsys.readouterr().out
    assert "ok" in out and "expected" in out


def test_check_reports_diagnostics(tmp_path, capsys):
    """`check` names every reason a sheet breaks its contract, on one line."""
    sheet = tmp_path / "undeclared.cyberlog"
    sheet.write_text("'M': Subject: 's' Issuer: 'i'\np(X) :- 'ZZ' attests q(Y).\n")
    assert main(["check", str(sheet), "--self", "M"]) == 1
    assert capsys.readouterr().out == (
        f"{sheet}: invalid rulesheet: rule 0 (line 2): unsafe rule: head variable X is not bound by the body; "
        "rule 0 (line 2): undeclared principal 'ZZ'\n"
    )


def test_fmt_refuses_an_invalid_sheet(tmp_path, capsys):
    sheet = tmp_path / "undeclared.cyberlog"
    sheet.write_text("p(1).\n")
    assert main(["fmt", str(sheet), "--self", "M"]) == 1
    assert capsys.readouterr().out.startswith(f"{sheet}: invalid rulesheet: self principal 'M' is not declared; ")


def test_fmt_emits_canonical_fixpoint(capsys):
    path = os.path.join(SCENARIOS, "rules", "sb.cyberlog")
    assert main(["fmt", path, "--self", "SB"]) == 0
    first = capsys.readouterr().out
    from cyberlog.lang import format_rulesheet, parse_rulesheet

    assert format_rulesheet(parse_rulesheet(first, "SB")) == first


def test_run_scenario_pass_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["run-scenario", BOOKING, "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert {m["monitor"] for m in report["metrics"]} == {"SB", "MRM", "CA", "OM", "DOM"}


def test_run_scenario_writes_trust_store_in_memory_mode(tmp_path, capsys):
    trust = tmp_path / "trust.jsonl"
    assert main(["run-scenario", BOOKING, "--trust-store-out", str(trust)]) == 0
    run = ScenarioRun(load_scenario(BOOKING))
    try:
        expected = tmp_path / "expected.jsonl"
        run.trust_store.save(str(expected))
        assert trust.read_bytes() == expected.read_bytes()
        assert TrustStore.load(str(trust)).names() == run.trust_store.names()
    finally:
        run.close()


def test_run_scenario_expectation_failure_exit(tmp_path, capsys):
    scenario = load_scenario(BOOKING)
    lines = open(BOOKING).read().splitlines()
    header = json.loads(lines[0])
    header["expected"] = [{"monitor": "DOM", "query": "good_rtf_exists(R, A)", "count": 3}]
    bad = tmp_path / "impossible.jsonl"
    # rulesheet paths are relative to the scenario file: keep it next to the others
    header["monitors"] = [
        {**m, "rulesheet": os.path.join(SCENARIOS, m["rulesheet"])} for m in header["monitors"]
    ]
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["run-scenario", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.fixture
def served_scenario(tmp_path):
    """Booking scenario persisted to disk, then served back over HTTP."""
    scenario = load_scenario(BOOKING)
    log_path = str(tmp_path / "claims.log")
    run = ScenarioRun(scenario, log_path=log_path)
    assert run.run().passed
    heads = str(tmp_path / "heads.jsonl")
    trust = str(tmp_path / "trust.jsonl")
    run.write_heads_cache(heads)
    store = TrustStore.from_identities([*run.identities.values(), run.operator])
    store.save(trust)
    run.close()

    operator = generate_identity(
        OPERATOR_NAME, "CN=log-operator", "CN=R3", seed=identity_seed(scenario.name, OPERATOR_NAME)
    )
    db = ClaimDb(MerkleLog(log_path), operator, TrustStore.load(trust))
    server, url = serve_db_in_thread(db)
    yield {"url": url, "heads": heads, "trust": trust, "log": log_path, "db": db}
    server.shutdown()
    server.server_close()
    db.log.close()


def test_audit_cli_full_green(served_scenario, capsys):
    code = main(
        [
            "audit",
            "--db", served_scenario["url"],
            "--trust-store", served_scenario["trust"],
            "--owner", "DOM",
            "--heads-cache", served_scenario["heads"],
            "good_rtf_exists(7, 3)",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "fully verified" in out
    assert "derived_by_rule" in out and "log_inclusion" in out


def test_audit_cli_whole_head(served_scenario, capsys):
    code = main(
        ["audit", "--db", served_scenario["url"], "--trust-store", served_scenario["trust"], "--owner", "OM"]
    )
    assert code == 0
    assert "fully verified" in capsys.readouterr().out


def test_audit_cli_missing_atom(served_scenario, capsys):
    code = main(
        [
            "audit",
            "--db", served_scenario["url"],
            "--trust-store", served_scenario["trust"],
            "--owner", "DOM",
            "good_rtf_exists(42, 42)",
        ]
    )
    assert code == 1
    assert "not in head revision" in capsys.readouterr().out


def test_verify_log_cli_pass(served_scenario, capsys):
    code = main(
        [
            "verify-log",
            "--db", served_scenario["url"],
            "--heads-cache", served_scenario["heads"],
            "--trust-store", served_scenario["trust"],
        ]
    )
    assert code == 0
    assert "append-only consistent" in capsys.readouterr().out


def test_verify_log_cli_malformed_log_root(served_scenario, monkeypatch, capsys):
    monkeypatch.setattr(served_scenario["db"], "get_log_root", lambda: {})
    code = main(
        [
            "verify-log",
            "--db", served_scenario["url"],
            "--heads-cache", served_scenario["heads"],
            "--trust-store", served_scenario["trust"],
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "verify-log failed: malformed log root from the claim database" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_audit_cli_malformed_owner_head(served_scenario, monkeypatch, capsys):
    monkeypatch.setattr(served_scenario["db"], "get_head", lambda owner: {})
    code = main(
        ["audit", "--db", served_scenario["url"], "--trust-store", served_scenario["trust"], "--owner", "OM"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "audit failed: malformed head of 'OM' from the claim database" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_query_cli(tmp_path, capsys):
    from cyberlog.monitor import Monitor, MonitorService
    from cyberlog.lang import parse_rulesheet

    ident = generate_identity("SB", seed=bytes([1]) * 32)
    trust = TrustStore.from_identities([ident])
    operator = generate_identity("op", seed=bytes([2]) * 32)
    db = ClaimDb(MerkleLog(), operator, trust)
    monitor = Monitor(
        ident,
        parse_rulesheet("'SB': Subject: 's' Issuer: 'i'\nseen(P) :- getRequest(P, T, B).\n", "SB"),
        db,
        trust,
        operator.public_key,
    )
    from cyberlog.monitor import EventEnvelope

    monitor.ingest_event(EventEnvelope("GET", "/x", "", 4))
    service = MonitorService(monitor)
    service.start()
    try:
        assert main(["query", "--url", service.url, "seen(P)"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["answers"] == [{"bindings": {"P": "/x"}}]
    finally:
        service.stop()


def spawn_server(command, config):
    """Start `cyberlog <command> --config <config>`; returns the process and
    the URL from its first line of output."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "cyberlog", command, "--config", str(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    return proc, proc.stdout.readline().strip().rsplit(" ", 1)[-1]


def terminate(proc) -> int:
    """Stop a server with SIGTERM and return its exit code; kill it if it
    has not exited within 10 s, so that none is left listening."""
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        raise


def test_serve_db_subprocess_restart_same_root(tmp_path):
    log_path = str(tmp_path / "db.log")
    trust_path = str(tmp_path / "trust.jsonl")
    sb = generate_identity("SB", "CN=SB", "CN=R3", seed=bytes([3]) * 32)
    operator_seed = bytes([4]) * 32
    operator = generate_identity("log-operator", "CN=log", "CN=R3", seed=operator_seed)
    TrustStore.from_identities([sb, operator]).save(trust_path)
    config = tmp_path / "db.json"
    config.write_text(
        json.dumps(
            {
                "listen": "127.0.0.1:0",
                "log_file": log_path,
                "trust_store": trust_path,
                "seed_hex": operator_seed.hex(),
            }
        )
    )

    def spawn():
        proc, url = spawn_server("serve-db", config)
        client = HttpLogClient(url)
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                client.get_log_root()
                return proc, client
            except Exception:
                time.sleep(0.1)
        proc.kill()
        proc.wait(timeout=10)
        raise RuntimeError(f"server did not come up at {url!r}")

    proc, client = spawn()
    try:
        from conftest import publish_rulesheet
        from cyberlog.lang import parse_rulesheet
        from cyberlog.revision import LogReader, commit_staging

        rs = parse_rulesheet("'SB': Subject: 's' Issuer: 'i'\n", "SB")
        publish_rulesheet(client, rs)
        reader = LogReader(client, TrustStore.load(trust_path), operator.public_key)
        record, receipt = commit_staging(sb, rs, reader, None, (), (), 1)
        fetched = client.get_revision(record.id)
        assert json.loads(fetched["payload"])["owner"] == "SB"
        root_before = client.get_log_root()["root_hash"]
    finally:
        code = terminate(proc)
    assert code == 0  # stopped through its own shutdown path, closing the log

    proc, client = spawn()
    try:
        assert client.get_log_root()["root_hash"] == root_before
        assert client.get_head("SB")["revision_id"] == record.id
    finally:
        code = terminate(proc)
    assert code == 0


def monitor_config(tmp_path, others):
    """Config of a monitor SB whose trust store holds SB and `others`."""
    seed = bytes([5]) * 32
    trust_path = tmp_path / "trust.jsonl"
    TrustStore.from_identities([generate_identity("SB", seed=seed), *others]).save(str(trust_path))
    sheet = tmp_path / "sb.cyberlog"
    sheet.write_text("'SB': Subject: 's' Issuer: 'i'\n")
    config = tmp_path / "sb.json"
    config.write_text(
        json.dumps(
            {
                "name": "SB",
                "seed_hex": seed.hex(),
                "trust_store": str(trust_path),
                "rulesheet": str(sheet),
                "db_url": "http://127.0.0.1:9",  # never reached: no commit or poll falls due
                "listen": "127.0.0.1:0",
                "commit_interval_ms": 600000,
                "poll_interval_ms": 600000,
            }
        )
    )
    return config


def test_serve_monitor_stops_on_sigterm(tmp_path):
    from cyberlog.monitor import HttpMonitorClient

    config = monitor_config(tmp_path, [generate_identity("log-operator", seed=bytes([6]) * 32)])
    proc, url = spawn_server("serve-monitor", config)
    try:
        assert HttpMonitorClient(url).health() == {"status": "ok", "monitor": "SB"}
    finally:
        code = terminate(proc)
    assert code == 0


# -- a missing log-operator key is a configuration error --------------------


def test_serve_monitor_without_operator_key_exits_2(tmp_path, capsys):
    config = monitor_config(tmp_path, [])
    assert main(["serve-monitor", "--config", str(config)]) == 2
    assert "no key for log operator 'log-operator'" in capsys.readouterr().out


def test_serve_monitor_refuses_an_invalid_sheet_as_a_syntax_error(tmp_path, capsys, monkeypatch):
    from cyberlog.monitor import MonitorService

    monkeypatch.setattr(MonitorService, "run_forever", lambda service: pytest.fail("the monitor started"))
    config = monitor_config(tmp_path, [generate_identity("log-operator", seed=bytes([6]) * 32)])
    sheet = tmp_path / "sb.cyberlog"
    for text, reason in [("p(1)\n", "expected '.'"), ("p(1).\n", "self principal 'SB' is not declared")]:
        sheet.write_text(text)
        assert main(["serve-monitor", "--config", str(config)]) == 1
        assert reason in capsys.readouterr().out


def test_serve_monitor_whose_trusted_key_is_not_its_own_exits_2(tmp_path, capsys, monkeypatch):
    from cyberlog.monitor import MonitorService

    # a monitor that is built anyway would serve forever
    monkeypatch.setattr(MonitorService, "run_forever", lambda service: pytest.fail("the monitor started"))
    config = monitor_config(tmp_path, [generate_identity("log-operator", seed=bytes([6]) * 32)])
    cfg = json.loads(config.read_text())
    cfg["seed_hex"] = "07" * 32  # the trust store holds SB's key of seed 05
    config.write_text(json.dumps(cfg))
    assert main(["serve-monitor", "--config", str(config)]) == 2
    assert "trust store does not hold the public key of 'SB'" in capsys.readouterr().out


BAD_LISTEN = ["127.0.0.1:abc", "127.0.0.1:70000", "127.0.0.1:-1", "127.0.0.1:8e3", 8441]


@pytest.mark.parametrize(
    "key, value, refusal",
    [
        ("commit_interval_ms", 0, "'commit_interval_ms' must be a positive integer, not 0"),
        ("commit_interval_ms", "1000", "'commit_interval_ms' must be a positive integer, not '1000'"),
        ("poll_interval_ms", -1, "'poll_interval_ms' must be a positive integer, not -1"),
        ("poll_interval_ms", 0.5, "'poll_interval_ms' must be a positive integer, not 0.5"),
        ("watched_owners", "MRM", "'SB': watched owners must be a list of names, not 'MRM'"),
        *(("listen", listen, f"'listen' must be 'host:port' with a port from 0 to 65535, not {listen!r}")
          for listen in BAD_LISTEN),
    ],
)
def test_serve_monitor_refuses_a_bad_config_value_with_exit_2(tmp_path, capsys, monkeypatch, key, value, refusal):
    """Values are checked as given, not coerced: a zero interval would make
    a timer spin, and "MRM" would watch 'M' and 'R'."""
    from cyberlog.monitor import MonitorService

    # a monitor that is built anyway would serve forever
    monkeypatch.setattr(MonitorService, "run_forever", lambda service: pytest.fail("the monitor started"))
    config = monitor_config(tmp_path, [generate_identity("log-operator", seed=bytes([6]) * 32)])
    config.write_text(json.dumps({**json.loads(config.read_text()), key: value}))
    assert main(["serve-monitor", "--config", str(config)]) == 2
    assert refusal in capsys.readouterr().out


@pytest.mark.parametrize("listen", BAD_LISTEN)
def test_serve_db_refuses_a_bad_listen_port_with_exit_2_and_opens_no_log(tmp_path, capsys, listen):
    operator_seed = bytes([4]) * 32
    trust_path = tmp_path / "trust.jsonl"
    TrustStore.from_identities([generate_identity("log-operator", seed=operator_seed)]).save(str(trust_path))
    log_path = tmp_path / "db.log"
    config = tmp_path / "db.json"
    config.write_text(json.dumps(
        {"listen": listen, "log_file": str(log_path), "trust_store": str(trust_path), "seed_hex": operator_seed.hex()}
    ))
    assert main(["serve-db", "--config", str(config)]) == 2
    assert f"'listen' must be 'host:port' with a port from 0 to 65535, not {listen!r}" in capsys.readouterr().out
    assert not log_path.exists()


def _dom_watches(header, watched):
    header["monitors"] = [{**m, "watched": watched} if m["name"] == "DOM" else m for m in header["monitors"]]


@pytest.mark.parametrize(
    "change, refusal",
    [
        (lambda h: h.update(commit_interval_ms=0), "'commit_interval_ms' must be a positive integer, not 0"),
        (lambda h: h.update(poll_interval_ms=-1000), "'poll_interval_ms' must be a positive integer, not -1000"),
        (lambda h: h.update(drain_rounds=1.5), "'drain_rounds' must be a non-negative integer, not 1.5"),
        (
            lambda h: h["expected"][0].update(count=1.7),
            "expected 'count' of 'good_rtf_exists(R, A)' must be a non-negative integer, not 1.7",
        ),
        (lambda h: _dom_watches(h, "SBOM"), "'DOM': watched owners must be a list of names, not 'SBOM'"),
    ],
    ids=["commit-interval", "poll-interval", "drain-rounds", "count", "watched"],
)
def test_run_scenario_refuses_a_bad_header_value_with_exit_2(tmp_path, capsys, monkeypatch, change, refusal):
    """The scenario is refused before it runs; with a zero interval it
    would never finish."""
    monkeypatch.setattr(ScenarioRun, "finish", lambda run: pytest.fail("the scenario ran"))
    lines = open(BOOKING).read().splitlines()
    header = json.loads(lines[0])
    header["monitors"] = [  # rulesheet paths are relative to the scenario file
        {**m, "rulesheet": os.path.join(SCENARIOS, m["rulesheet"])} for m in header["monitors"]
    ]
    change(header)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["run-scenario", str(bad)]) == 2
    assert refusal in capsys.readouterr().out


# -- a missing or unreadable configuration is a configuration error ---------


@pytest.mark.parametrize(
    "command, config, expected",
    [
        ("serve-db", {}, "claim db config needs 'seed_hex' or 'key_file'"),
        ("serve-db", {"seed_hex": "06" * 32}, "claim db config needs 'trust_store'"),
        ("serve-monitor", {}, "monitor config needs 'name'"),
        ("serve-monitor", {"name": "SB"}, "monitor config needs 'seed_hex' or 'key_file'"),
        ("serve-monitor", [], "is not a JSON object"),
        ("serve-db", {"seed_hex": "zz", "trust_store": "x"}, "claim db config 'seed_hex' does not hold a hex seed"),
        ("serve-monitor", {"name": "SB", "seed_hex": "zz"}, "monitor config 'seed_hex' does not hold a hex seed"),
        ("serve-db", {"seed_hex": 6}, "claim db config 'seed_hex' does not hold a hex seed"),
    ],
)
def test_incomplete_config_exits_2(tmp_path, capsys, command, config, expected):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path)]) == 2
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("command, role", [("serve-db", "claim db"), ("serve-monitor", "monitor")])
def test_key_file_not_hex_exits_2(tmp_path, capsys, command, role):
    key_file = tmp_path / "seed.key"
    key_file.write_text("not a hex seed\n")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"name": "SB", "key_file": str(key_file), "trust_store": "x"}))
    assert main([command, "--config", str(path)]) == 2
    assert f"{role} config 'key_file' does not hold a hex seed" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["name", "trust_store", "rulesheet", "db_url"])
def test_monitor_config_without_required_key_exits_2(tmp_path, capsys, key):
    config = monitor_config(tmp_path, [generate_identity("log-operator", seed=bytes([6]) * 32)])
    cfg = json.loads(config.read_text())
    del cfg[key]
    config.write_text(json.dumps(cfg))
    assert main(["serve-monitor", "--config", str(config)]) == 2
    assert f"monitor config needs {key!r}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["serve-db", "serve-monitor"])
def test_unreadable_config_exits_2(tmp_path, capsys, command):
    (tmp_path / "bad.json").write_text("{not json")
    for path in (tmp_path / "missing.json", tmp_path / "bad.json"):
        assert main([command, "--config", str(path)]) == 2
        assert f"cannot read config {str(path)!r}" in capsys.readouterr().out


def test_online_audit_without_operator_key_exits_2(served_scenario, capsys):
    argv = ["audit", "--db", served_scenario["url"], "--trust-store", served_scenario["trust"], "--owner", "OM"]
    assert main([*argv, "--operator", "nobody"]) == 2
    out = capsys.readouterr().out
    assert "no key for log operator 'nobody'" in out and "audit:" not in out


def test_verify_log_without_operator_key_exits_2(served_scenario, capsys):
    argv = ["verify-log", "--db", served_scenario["url"], "--heads-cache", served_scenario["heads"]]
    assert main([*argv, "--trust-store", served_scenario["trust"], "--operator", "nobody"]) == 2
    out = capsys.readouterr().out
    assert "no key for log operator 'nobody'" in out and "verdict" not in out
    with pytest.raises(SystemExit) as exc:  # every tree head is checked: a trust store is required
        main(argv)
    assert exc.value.code == 2


def test_verify_log_refuses_a_forged_extension_of_a_cached_head(served_scenario, tmp_path, capsys):
    """A database that serves the log extended by one entry under heads a
    forger signed is refused, and the forged head is not cached."""
    import shutil

    from cyberlog.revision import encode_rulesheet_payload

    forged_log = str(tmp_path / "forged.log")
    shutil.copyfile(served_scenario["log"], forged_log)
    forger = generate_identity(OPERATOR_NAME, seed=bytes([9]) * 32)
    db = ClaimDb(MerkleLog(forged_log), forger, TrustStore.load(served_scenario["trust"]))
    db.submit_revision(encode_rulesheet_payload("'EVE': Subject: 's' Issuer: 'i'\n"))
    server, url = serve_db_in_thread(db)
    with open(served_scenario["heads"], encoding="utf-8") as fh:
        cached = fh.read()
    try:
        argv = ["verify-log", "--db", url, "--heads-cache", served_scenario["heads"]]
        assert main([*argv, "--trust-store", served_scenario["trust"]]) == 1
    finally:
        server.shutdown()
        server.server_close()
        db.log.close()
    assert "append-only consistent" not in capsys.readouterr().out
    with open(served_scenario["heads"], encoding="utf-8") as fh:
        assert fh.read() == cached


def test_verify_log_with_a_malformed_trust_store_exits_2(served_scenario, tmp_path, capsys):
    trust = tmp_path / "trust.jsonl"
    trust.write_text('{"name": "SB", "subject": "s", "issuer": "i", "public_key": "00"}\n')
    argv = ["verify-log", "--db", served_scenario["url"], "--heads-cache", served_scenario["heads"]]
    assert main([*argv, "--trust-store", str(trust)]) == 2
    out = capsys.readouterr().out
    assert "malformed trust store entry" in out and "a 32-byte hex public key" in out
    assert "verdict" not in out


def test_offline_audit_needs_no_operator_key(tmp_path, capsys):
    """Offline, heads are re-signed by a scratch key, so the operator's key
    is not looked up and a trust store without it will do."""
    log_path = str(tmp_path / "claims.log")
    run = ScenarioRun(load_scenario(BOOKING), log_path=log_path)
    try:
        assert run.run().passed
        TrustStore.from_identities(run.identities.values()).save(str(tmp_path / "trust.jsonl"))
    finally:
        run.close()
    code = main(["audit", "--db", log_path, "--trust-store", str(tmp_path / "trust.jsonl"), "--owner", "DOM"])
    assert code == 0
    assert "fully verified" in capsys.readouterr().out


def test_audit_of_a_non_ground_atom_exits_2(served_scenario, capsys):
    argv = ["audit", "--db", served_scenario["url"], "--trust-store", served_scenario["trust"], "--owner", "SB"]
    assert main([*argv, "request(X)"]) == 2
    out = capsys.readouterr().out
    assert "audit needs a fully ground atom (no variables): 'request(X)'" in out and "audit:" not in out


def test_offline_audit_of_a_missing_log_file_exits_2_and_creates_nothing(tmp_path, capsys):
    missing = tmp_path / "missing.log"
    TrustStore().save(str(tmp_path / "trust.jsonl"))
    code = main(["audit", "--db", str(missing), "--trust-store", str(tmp_path / "trust.jsonl"), "--owner", "SB"])
    assert code == 2
    assert f"no log file {str(missing)!r} to audit" in capsys.readouterr().out
    assert not missing.exists()


# -- a heads cache that is not a list of tree heads --------------------------


@pytest.mark.parametrize("line", ['{"tree_size": 1}', "not json", "[1]"])
def test_malformed_heads_cache_line_fails_with_its_place(served_scenario, tmp_path, capsys, line):
    cache = tmp_path / "bad-heads.jsonl"
    with open(served_scenario["heads"], encoding="utf-8") as fh:
        cache.write_text(fh.read() + line + "\n")
    where = f"{cache}:2: not a signed tree head"
    argv = ["verify-log", "--db", served_scenario["url"], "--heads-cache", str(cache)]
    assert main([*argv, "--trust-store", served_scenario["trust"]]) == 1
    assert where in capsys.readouterr().out
    code = main(
        ["audit", "--db", served_scenario["url"], "--trust-store", served_scenario["trust"], "--owner", "OM",
         "--heads-cache", str(cache)]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert where in out and "audit:" not in out
