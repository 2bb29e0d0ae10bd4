"""Span tracer that wraps cyberlog's public functions from the outside.

`Tracer.install()` replaces each listed function or method with a timing
wrapper; a module-level function is replaced under every cyberlog module
binding that holds it (`decode_payload` lives in both `revision` and
`claimdb`, `verify_bytes` in `identity`, `claimlog`, `revision` and
`audit`). Hot inner helpers such as `engine._unify_args` and
`engine.canonical_atom` are deliberately left alone: they run close to a
million times per run and wrapping them would swamp the measurement.
`uninstall()` restores every original binding.

Each span records name, start, end, parent span and a group id (one flow,
one commit tick, one owner's audit). Spans stay in memory in flat arrays
and are written out once, when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field

import cyberlog.audit
import cyberlog.claimdb
import cyberlog.claimlog
import cyberlog.engine
import cyberlog.identity
import cyberlog.lang
import cyberlog.monitor
import cyberlog.revision
import cyberlog.wire

# statistics a span reports: call count, total self time, distinct keys per call
C, S, CS, CSD = ("calls",), ("self_ms",), ("calls", "self_ms"), ("calls", "self_ms", "distinct_ratio")

# (span name, owner object, attribute, distinct-key function or None, statistics reported)
TARGETS = [
    ("lang.parse_standalone_rule", cyberlog.lang, "parse_standalone_rule", lambda a: hash(a[0]), CSD),
    ("wire.claim_from_obj", cyberlog.wire, "claim_from_obj", None, CS),
    ("wire.claim_to_obj", cyberlog.wire, "claim_to_obj", None, CS),
    ("engine.KnowledgeBase.saturate", cyberlog.engine.KnowledgeBase, "saturate", None, CS),
    ("engine.KnowledgeBase.assert_claim", cyberlog.engine.KnowledgeBase, "assert_claim", None, C),
    ("engine.KnowledgeBase.check_evidence", cyberlog.engine.KnowledgeBase, "check_evidence", None, CS),
    ("engine.KnowledgeBase.verify_claim_chain", cyberlog.engine.KnowledgeBase, "verify_claim_chain", None, CS),
    ("identity.sign_bytes", cyberlog.identity, "sign_bytes", None, CS),
    ("identity.verify_bytes", cyberlog.identity, "verify_bytes", lambda a: hash((a[0], a[1], a[2])), CSD),
    ("claimlog.MerkleLog.append", cyberlog.claimlog.MerkleLog, "append", None, CS),
    ("claimlog.MerkleLog.root", cyberlog.claimlog.MerkleLog, "root", None, CS),
    ("claimlog.MerkleLog.prove_inclusion", cyberlog.claimlog.MerkleLog, "prove_inclusion", None, CS),
    ("claimlog.verify_inclusion", cyberlog.claimlog, "verify_inclusion", None, CS),
    ("claimdb.ClaimDb.submit_revision", cyberlog.claimdb.ClaimDb, "submit_revision", None, CS),
    ("claimdb.ClaimDb.get_revision", cyberlog.claimdb.ClaimDb, "get_revision", None, CS),
    ("claimdb.ClaimDb.get_head", cyberlog.claimdb.ClaimDb, "get_head", None, C),
    ("revision.decode_payload", cyberlog.revision, "decode_payload", lambda a: hash(a[0]), CSD),
    ("revision.build_record", cyberlog.revision, "build_record", None, S),
    ("revision.apply_next_rules", cyberlog.revision, "apply_next_rules", None, S),
    ("revision.supersession_chain", cyberlog.revision, "supersession_chain", None, S),
    ("revision.commit_staging", cyberlog.revision, "commit_staging", None, CS),
    ("revision.include_revision", cyberlog.revision, "include_revision", None, CS),
    ("revision.on_superseded", cyberlog.revision, "on_superseded", None, CS),
    ("revision.fetch_verified_revision", cyberlog.revision, "fetch_verified_revision", None, C),
    ("monitor.Monitor.ingest_event", cyberlog.monitor.Monitor, "ingest_event", None, S),
    ("monitor.Monitor.commit", cyberlog.monitor.Monitor, "commit", None, S),
    ("monitor.Monitor.poll_and_include", cyberlog.monitor.Monitor, "poll_and_include", None, S),
    ("monitor.Monitor.handle_query", cyberlog.monitor.Monitor, "handle_query", None, S),
    ("audit.Auditor.audit_claim", cyberlog.audit.Auditor, "audit_claim", None, CS),
    ("audit.Auditor.fetch_revision", cyberlog.audit.Auditor, "fetch_revision", None, C),
]
NAMES = [t[0] for t in TARGETS]


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    errors: int = 0
    true_results: int = 0
    keys: set = field(default_factory=set)
    active: int = 0  # open spans of this name, to mark the outermost one


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: Stat() for name in NAMES}
        self.group = 0
        self.groups: list[str] = ["-"]
        # engine.saturate: facts at entry and claims added, summed
        self.saturate_facts_in = 0
        self.saturate_added = 0
        self.kb_facts_max = 0
        # audit.Auditor.fetch_revision calls answered from the auditor's cache
        self.fetch_hits = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._span_cols = {
            k: array("q") for k in ("id", "name", "start", "end", "parent", "group", "self_ns", "outer")
        }
        self._patched: list[tuple[object, str, object]] = []

    # -- grouping -------------------------------------------------------

    def set_group(self, label: str) -> None:
        self.groups.append(label)
        self.group = len(self.groups) - 1

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        for index, (name, owner, attr, key_fn, _) in enumerate(TARGETS):
            original = getattr(owner, attr)
            wrapper = self._wrap(index, name, original, key_fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "cyberlog" or mod_name.startswith("cyberlog.")):
                    continue
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, index: int, name: str, fn, key_fn):
        stat = self.stats[name]
        stack = self._stack
        cols = self._span_cols
        clock = time.perf_counter_ns
        tracer = self
        fetch_stat = self.stats["revision.fetch_verified_revision"]

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            outer = stat.active == 0
            stat.active += 1
            if key_fn is not None:
                stat.keys.add(key_fn(args))
            if name == "engine.KnowledgeBase.saturate":
                tracer.saturate_facts_in += len(args[0])
            elif name == "audit.Auditor.fetch_revision":
                fetches_before = fetch_stat.calls
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                duration = end - start
                own = duration - frame[1]
                stat.calls += 1
                stat.self_ns += own
                if stack:
                    stack[-1][1] += duration
                values = (span_id, index, start, end, parent, tracer.group, own, outer)
                for col, value in zip(cols.values(), values):
                    col.append(value)
            if result is True:
                stat.true_results += 1
            if name == "engine.KnowledgeBase.saturate":
                tracer.saturate_added += len(result)
                tracer.kb_facts_max = max(tracer.kb_facts_max, len(args[0]))
            elif name == "audit.Auditor.fetch_revision" and fetch_stat.calls == fetches_before:
                tracer.fetch_hits += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------

    def time_shares(self, phase: str) -> list[tuple[str, float, float]]:
        """(span, self share, inclusive share) of the traced time of one
        phase, largest self share first. A phase is the group label prefix:
        `flow` (ingests and watcher queries), `commit`, `poll` or `audit`.
        Inclusive time counts wrapped callees, outermost span per name."""
        cols = self._span_cols
        in_phase = [label.startswith(phase + ":") for label in self.groups]
        own = [0] * len(NAMES)
        inclusive = [0] * len(NAMES)
        for name, start, end, group, self_ns, outer in zip(
            cols["name"], cols["start"], cols["end"], cols["group"], cols["self_ns"], cols["outer"]
        ):
            if in_phase[group]:
                own[name] += self_ns
                if outer:
                    inclusive[name] += end - start
        total = sum(own) or 1
        rows = [(NAMES[i], own[i] / total, inclusive[i] / total) for i in range(len(NAMES)) if inclusive[i]]
        return sorted(rows, key=lambda row: -row[1])

    def write_spans(self, fh, rep: int) -> None:
        """Append every span as a tab-separated line tagged with `rep`."""
        cols = self._span_cols
        for sid, name, start, end, parent, group, self_ns in zip(
            cols["id"], cols["name"], cols["start"], cols["end"], cols["parent"], cols["group"], cols["self_ns"]
        ):
            fh.write(f"{rep}\t{sid}\t{NAMES[name]}\t{start}\t{end}\t{parent}\t{self.groups[group]}\t{self_ns}\n")
