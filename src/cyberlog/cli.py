"""Operator command line: rulesheet tooling, servers, scenario harness,
audits, and log verification.

Exit codes: 0 success, 1 verification or expectation failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys

from .audit import Auditor, render_audit_tree, verify_log_consistency
from .claimdb import ClaimDb, HttpLogClient, make_db_server
from .claimlog import MerkleLog
from .engine import GroundAtom
from .errors import ConfigError, CyberlogError, ParseError
from .harness import load_scenario, run_scenario, scenario_identities
from .identity import TrustStore, generate_identity
from .lang import Variable, format_rulesheet, parse_query, parse_rulesheet
from .monitor import HttpMonitorClient, Monitor, MonitorService
from .revision import LogReader

DEFAULT_OPERATOR = "log-operator"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(_read(path))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} is not a JSON object")
    return cfg


def _required(cfg: dict, key: str, role: str):
    try:
        return cfg[key]
    except KeyError:
        raise ConfigError(f"{role} config needs {key!r}") from None


def _identity_from_config(cfg: dict, name: str, role: str):
    key, seed_hex = "seed_hex", cfg.get("seed_hex")
    if cfg.get("key_file"):
        key, seed_hex = "key_file", _read(cfg["key_file"]).strip()
    if not seed_hex:
        raise ConfigError(f"{role} config needs 'seed_hex' or 'key_file'")
    try:
        seed = bytes.fromhex(seed_hex)
    except (TypeError, ValueError):
        raise ConfigError(f"{role} config {key!r} does not hold a hex seed") from None
    return generate_identity(name, cfg.get("subject", f"CN={name}"), cfg.get("issuer", ""), seed)


def _operator_key(trust: TrustStore, operator: str) -> bytes:
    """The log operator's public key; without it no tree-head signature
    could be checked, so its absence is a configuration error."""
    key = trust.public_key(operator)
    if key is None:
        raise ConfigError(f"trust store has no key for log operator {operator!r}")
    return key


def _split_listen(listen: str) -> tuple[str, int]:
    """`host:port`; an empty host is 127.0.0.1, an empty port 0 (any free port)."""
    match = re.fullmatch(r"([^:]*)(?::([0-9]{0,5}))?", listen) if isinstance(listen, str) else None
    if match is None or int(match[2] or 0) > 65535:
        raise ConfigError(f"'listen' must be 'host:port' with a port from 0 to 65535, not {listen!r}")
    return match[1] or "127.0.0.1", int(match[2] or 0)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_check(args) -> int:
    try:
        sheet = parse_rulesheet(_read(args.file), args.self_id)
    except ParseError as exc:
        print(f"{args.file}: {exc}")
        return 1
    print(f"{args.file}: ok ({len(sheet.rules)} rules, {len(sheet.identities)} identities)")
    return 0


def cmd_fmt(args) -> int:
    try:
        sheet = parse_rulesheet(_read(args.file), args.self_id)
    except ParseError as exc:
        print(f"{args.file}: {exc}")
        return 1
    sys.stdout.write(format_rulesheet(sheet))
    return 0


def cmd_serve_db(args) -> int:
    cfg = _load_config(args.config)
    operator = _identity_from_config(cfg, cfg.get("operator_name", DEFAULT_OPERATOR), "claim db")
    trust = TrustStore.load(_required(cfg, "trust_store", "claim db"))
    trust.add(operator)
    host, port = _split_listen(cfg.get("listen", "127.0.0.1:8440"))  # before the log file is opened
    db = ClaimDb(MerkleLog(cfg.get("log_file")), operator, trust)
    server = make_db_server(db, host, port)
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as on Ctrl-C
    try:
        print(
            f"claim database listening on http://{server.server_address[0]}:{server.server_address[1]}",
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        db.log.close()
    return 0


def cmd_serve_monitor(args) -> int:
    cfg = _load_config(args.config)
    name = _required(cfg, "name", "monitor")
    identity = _identity_from_config(cfg, name, "monitor")
    trust = TrustStore.load(_required(cfg, "trust_store", "monitor"))
    operator_key = _operator_key(trust, cfg.get("operator_name", DEFAULT_OPERATOR))
    monitor = Monitor(
        identity,
        parse_rulesheet(_read(_required(cfg, "rulesheet", "monitor")), name),
        HttpLogClient(_required(cfg, "db_url", "monitor")),
        trust,
        operator_key=operator_key,
        watched_owners=cfg.get("watched_owners", ()),
        authz_predicate=cfg.get("authz_predicate"),
    )
    host, port = _split_listen(cfg.get("listen", "127.0.0.1:8441"))
    service = MonitorService(
        monitor,
        commit_interval_ms=cfg.get("commit_interval_ms", 1000),
        poll_interval_ms=cfg.get("poll_interval_ms", 500),
        host=host,
        port=port,
    )
    signal.signal(signal.SIGTERM, signal.default_int_handler)  # stop as on Ctrl-C
    print(f"monitor {name} listening on {service.url}", flush=True)
    service.run_forever()
    return 0


def cmd_run_scenario(args) -> int:
    scenario = load_scenario(args.file)
    mode = "integration" if args.integration else "memory"
    report = run_scenario(scenario, mode=mode, log_path=args.log_file, heads_cache_path=args.heads_cache)
    if args.trust_store_out:
        scenario_identities(scenario)[2].save(args.trust_store_out)
    print(report.render())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_obj(), fh, indent=2)
        print(f"report written to {args.report}")
    return 0 if report.passed else 1


def cmd_query(args) -> int:
    client = HttpMonitorClient(args.url)
    response = client.query(args.pattern)
    print(json.dumps(response, indent=2))
    return 0


def cmd_audit(args) -> int:
    online = args.db.startswith("http")
    if not online and not os.path.exists(args.db):
        raise ConfigError(f"no log file {args.db!r} to audit")
    atom = _ground_atom_from_text(args.atom, args.owner) if args.atom else None
    trust = TrustStore.load(args.trust_store)
    if online:
        client = HttpLogClient(args.db)
        operator_key = _operator_key(trust, args.operator)
    else:
        # offline audit from a log file: heads are re-signed by a scratch
        # key, so tree-head signature checks are skipped
        client = ClaimDb(MerkleLog(args.db), generate_identity(DEFAULT_OPERATOR, seed=bytes(32)), trust)
        operator_key = None
    auditor = Auditor(client, trust, operator_key)
    if args.heads_cache:
        ok, checks = verify_log_consistency(auditor.reader, args.heads_cache, append_current=False)
        for check in checks:
            mark = "ok  " if check.ok else "FAIL"
            print(f"[{mark}] log {check.old_size} -> {check.new_size}: {check.detail}")
        if not ok:
            print("audit aborted: log failed append-only verification")
            return 1
    try:
        if atom is not None:
            nodes = [auditor.audit_atom(args.owner, atom)]
        else:
            nodes = auditor.audit_head(args.owner)
    except CyberlogError as exc:
        print(f"audit failed: {exc}")
        return 1
    ok = True
    for node in nodes:
        print(render_audit_tree(node))
        ok = ok and node.all_ok
    print("audit: " + ("fully verified" if ok else "FAILED"))
    return 0 if ok else 1


def _ground_atom_from_text(text: str, owner: str) -> GroundAtom:
    pattern = parse_query(text, owner)
    if any(isinstance(term, Variable) for term in pattern.args):
        raise ConfigError(f"audit needs a fully ground atom (no variables): {text!r}")
    return GroundAtom(pattern.principal, pattern.predicate, tuple(term.value for term in pattern.args))


def cmd_verify_log(args) -> int:
    trust = TrustStore.load(args.trust_store)
    operator_key = _operator_key(trust, args.operator)
    try:
        ok, checks = verify_log_consistency(LogReader(HttpLogClient(args.db), trust, operator_key), args.heads_cache)
    except CyberlogError as exc:
        print(f"verify-log failed: {exc}")
        return 1
    for check in checks:
        mark = "ok  " if check.ok else "FAIL"
        print(f"[{mark}] {check.old_size} -> {check.new_size}: {check.detail}")
    print("verdict: " + ("append-only consistent" if ok else "split-view/tamper suspected"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cyberlog", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse a rulesheet and check its contract")
    p.add_argument("file")
    p.add_argument("--self", dest="self_id", required=True, help="principal executing the sheet")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fmt", help="print the canonical form of a rulesheet")
    p.add_argument("file")
    p.add_argument("--self", dest="self_id", required=True)
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("serve-db", help="run the claim database server")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_serve_db)

    p = sub.add_parser("serve-monitor", help="run a security monitor server")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_serve_monitor)

    p = sub.add_parser("run-scenario", help="replay a scenario and check expectations")
    p.add_argument("file")
    p.add_argument("--integration", action="store_true", help="run over HTTP on loopback")
    p.add_argument("--log-file", help="back the claim database with this file")
    p.add_argument("--heads-cache", help="append the final signed tree head here")
    p.add_argument("--trust-store-out", help="write the scenario trust store here")
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(fn=cmd_run_scenario)

    p = sub.add_parser("query", help="query a running monitor")
    p.add_argument("--url", required=True, help="monitor base URL")
    p.add_argument("pattern")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("audit", help="verify the evidence of claims of an owner's head revision")
    p.add_argument("--db", required=True, help="claim database URL, or a log file path for offline audit")
    p.add_argument("--trust-store", required=True)
    p.add_argument("--owner", required=True)
    p.add_argument("--operator", default=DEFAULT_OPERATOR)
    p.add_argument("--heads-cache", help="verify log consistency against these trusted heads first")
    p.add_argument("atom", nargs="?", help="ground atom text; omit to audit the whole head revision")
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("verify-log", help="append-only verification against cached tree heads")
    p.add_argument("--db", required=True)
    p.add_argument("--heads-cache", required=True)
    p.add_argument("--trust-store", required=True)
    p.add_argument("--operator", default=DEFAULT_OPERATOR)
    p.set_defaults(fn=cmd_verify_log)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except ParseError as exc:
        print(f"error: {exc}")
        return 1
    except ConfigError as exc:
        print(f"error: {exc}")
        return 2
    except CyberlogError as exc:
        print(f"error: {exc}")
        return 1
    except OSError as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
