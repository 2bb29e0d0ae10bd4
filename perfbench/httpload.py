"""Loopback HTTP workload: the claim DB and the SB, MRM, CA and OM monitors
each run as their own `cyberlog serve-db` / `serve-monitor` process, as the
README deploys them, with a 1000 ms commit interval. The benchmark process
is the load generator: an open loop that sends each event at its scheduled
time over at most two connections, and times it from that due time, so a
commit stall also delays the events queued behind it.

Configs, trust store, logs and server output live in a temporary directory
inside the checkout; every child is terminated and reaped in `finally`.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from cyberlog.claimdb import HttpLogClient
from cyberlog.claimlog import MerkleLog
from cyberlog.errors import CyberlogError
from cyberlog.harness import OPERATOR_NAME, identity_seed
from cyberlog.identity import TrustStore, generate_identity
from cyberlog.monitor import HttpMonitorClient

import memory
import workload as wl

RATE_EVENTS_PER_S = 34
CONNECTIONS = 2
COMMIT_INTERVAL_MS = 1000
SETUP_CYCLES = 3
START_TIMEOUT_S = 30.0
SCOPE = "perfbench-http"


class ClusterError(Exception):
    """A server did not start, did not answer, or could not be stopped."""


def make_workload(seed: int, seconds: float, n_flows: int | None = None) -> wl.Workload:
    step_ms = 1000.0 / RATE_EVENTS_PER_S
    n = n_flows or max(1, int(seconds * RATE_EVENTS_PER_S / 5))
    return wl.generate(seed, n, [int(i * 5 * step_ms) for i in range(n)], step_ms, with_dom=False)


@dataclass
class Server:
    name: str
    proc: subprocess.Popen
    out_path: str
    url: str = ""


@dataclass
class Cluster:
    workdir: str
    servers: list = field(default_factory=list)

    def url(self, name: str) -> str:
        return next(s.url for s in self.servers if s.name == name)

    def stop(self) -> int:
        """Terminate and reap every server; returns how many outlived it."""
        for server in self.servers:
            if server.proc.poll() is None:
                server.proc.terminate()
        left = 0
        for server in self.servers:
            try:
                server.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.proc.kill()
                try:
                    server.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    left += 1
        return left


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _spawn(cluster: Cluster, name: str, command: str, config: dict) -> Server:
    cfg_path = _write_json(os.path.join(cluster.workdir, f"{name}.json"), config)
    out_path = os.path.join(cluster.workdir, f"{name}.out")
    env = dict(os.environ, PYTHONPATH=os.path.join(wl.ROOT, "src"))
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cyberlog", command, "--config", cfg_path],
            cwd=cluster.workdir, env=env, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
    server = Server(name, proc, out_path)
    cluster.servers.append(server)
    return server


def _await_url(server: Server, deadline: float) -> None:
    """Read the server's URL from its startup line."""
    while time.monotonic() < deadline:
        with open(server.out_path, "r", encoding="utf-8", errors="replace") as fh:
            first = fh.readline()
        if " listening on http://" in first and first.endswith("\n"):
            server.url = first.split(" listening on ", 1)[1].strip()
            return
        if server.proc.poll() is not None:
            raise ClusterError(f"{server.name} exited with {server.proc.returncode}: {first.strip()}")
        time.sleep(0.01)
    raise ClusterError(f"{server.name} printed no startup line within {START_TIMEOUT_S} s")


def _await_health(server: Server, deadline: float) -> None:
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(server.url + "/health", timeout=2) as resp:
                if resp.status == 200:
                    return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.01)
    raise ClusterError(f"{server.name} did not answer /health within {START_TIMEOUT_S} s")


def start_cluster(workdir: str, seeds: dict[str, bytes], trust_path: str) -> Cluster:
    """Start the DB, then the four front-door monitors; returns once every
    server answers /health. On failure the caller still owns `cluster`."""
    cluster = Cluster(workdir)
    deadline = time.monotonic() + START_TIMEOUT_S
    try:
        db = _spawn(cluster, "db", "serve-db", {
            "listen": "127.0.0.1:0", "log_file": "claims.log", "trust_store": trust_path,
            "seed_hex": seeds[OPERATOR_NAME].hex(), "operator_name": OPERATOR_NAME,
        })
        _await_url(db, deadline)
        for name in wl.FRONT_DOOR:
            _spawn(cluster, name, "serve-monitor", {
                "name": name, "rulesheet": wl.rulesheet_path(name), "db_url": db.url,
                "trust_store": trust_path, "seed_hex": seeds[name].hex(), "operator_name": OPERATOR_NAME,
                "listen": "127.0.0.1:0", "commit_interval_ms": COMMIT_INTERVAL_MS,
                "poll_interval_ms": COMMIT_INTERVAL_MS,
            })
        for server in cluster.servers:
            _await_url(server, deadline)
            _await_health(server, deadline)
    except BaseException:
        cluster.stop()
        raise
    return cluster


@dataclass
class HttpResult:
    setup_s: list = field(default_factory=list)
    events: int = 0
    send_s: float = 0.0
    latency_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    server_delay_ms: list = field(default_factory=list)
    overhead_ms: list = field(default_factory=list)
    audit_ms: list = field(default_factory=list)
    audit_untraced_s: float = 0.0
    audit_traced_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    log_bytes: int = 0
    logged_claims: int = 0


def send_open_loop(cluster: Cluster, workload: wl.Workload, res: HttpResult) -> None:
    """Send every event at its due time; at most CONNECTIONS in flight."""
    clients = {name: HttpMonitorClient(cluster.url(name), timeout=10.0) for name in wl.FRONT_DOOR}
    events = workload.events
    lock = threading.Lock()
    cursor = [0]
    clock = time.perf_counter
    t0 = clock() + 0.05
    last_done = [t0]

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(events):
                return
            event = events[i]
            due = t0 + event.at_ms / 1000.0
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            try:
                reply = clients[event.monitor].send_event(event.envelope)
                ok = reply.get("decision") == "allow"
            except (CyberlogError, urllib.error.URLError, OSError, ValueError):
                reply, ok = None, False
            done = clock()
            with lock:
                res.attempted += 1
                res.late_ms.append((sent - due) * 1000.0)
                last_done[0] = max(last_done[0], done)
                if not ok:
                    res.failed += 1
                    continue
                res.latency_ms.append((done - due) * 1000.0)
                res.server_delay_ms.append(float(reply["delay_ms"]))
                res.overhead_ms.append((done - sent) * 1000.0 - float(reply["delay_ms"]))

    # daemon: a terminated run exits without waiting out the send schedule
    threads = [threading.Thread(target=worker, name=f"sender-{k}", daemon=True) for k in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    res.events = len(events)
    res.send_s = max(last_done[0] - t0, workload.horizon_ms / 1000.0)


def check_expectations(cluster: Cluster, workload: wl.Workload) -> None:
    for exp in workload.expected:
        actual = len(HttpMonitorClient(cluster.url(exp.monitor), timeout=30.0).query(exp.query)["answers"])
        if actual != exp.count:
            raise memory.GateError(f"{exp.monitor} {exp.query}: {actual} answers, expected {exp.count}")


def run_http(seed: int, seconds: float, tracer=None, n_flows: int | None = None) -> HttpResult:
    os.makedirs(wl.OUT_DIR, exist_ok=True)
    base = tempfile.mkdtemp(prefix="http-", dir=wl.OUT_DIR)
    res = HttpResult()
    workload = make_workload(seed, seconds, n_flows)
    cluster = None
    try:
        try:
            names = [OPERATOR_NAME, *wl.FRONT_DOOR]
            seeds = {name: identity_seed(SCOPE, name) for name in names}
            for cycle in range(SETUP_CYCLES):
                start = time.perf_counter()
                workdir = os.path.join(base, f"cycle{cycle}")
                os.makedirs(workdir)
                identities = [generate_identity(n, f"CN={n}", "CN=R3", seed=seeds[n]) for n in names]
                trust_path = os.path.join(workdir, "trust.jsonl")
                TrustStore.from_identities(identities).save(trust_path)
                cluster = start_cluster(workdir, seeds, trust_path)
                res.setup_s.append(time.perf_counter() - start)
                if cycle < SETUP_CYCLES - 1:
                    left, cluster = cluster.stop(), None
                    if left:
                        raise ClusterError(f"{left} server processes outlived set-up cycle {cycle}")
            trust = TrustStore.load(trust_path)
            operator_key = trust.public_key(OPERATOR_NAME)

            send_open_loop(cluster, workload, res)
            # let one more commit land so every event is inside a logged head
            time.sleep(1.5 * COMMIT_INTERVAL_MS / 1000.0)
            check_expectations(cluster, workload)

            db = HttpLogClient(cluster.url("db"), timeout=30.0)
            start = time.perf_counter()
            res.audit_ms = memory.audit_heads(db, trust, operator_key, wl.FRONT_DOOR)
            res.audit_untraced_s = time.perf_counter() - start
            res.attempted += len(res.audit_ms)
            if tracer is not None:
                # second, traced audit pass: the only in-process work on http
                tracer.install()
                try:
                    start = time.perf_counter()
                    memory.audit_heads(db, trust, operator_key, wl.FRONT_DOOR, tracer)
                    res.audit_traced_s = time.perf_counter() - start
                finally:
                    tracer.uninstall()
        finally:
            left = cluster.stop() if cluster is not None else 0
        if left:
            raise ClusterError(f"{left} server processes outlived the run")
        # largest peak RSS of any reaped server; the set-up cycles' idle
        # servers peak lower than the loaded ones
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        log = MerkleLog(os.path.join(cluster.workdir, "claims.log"))
        try:
            res.log_bytes, res.logged_claims = memory.log_size(log)
        finally:
            log.close()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return res
