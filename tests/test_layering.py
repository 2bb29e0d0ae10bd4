"""Module layering: no cyberlog module imports another one's private names,
and no public name of the package is there only for its tests."""

import ast
import importlib
from pathlib import Path

import cyberlog

PACKAGE = Path(cyberlog.__file__).parent


def private_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "cyberlog":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    yield f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}"


def test_no_module_imports_private_names():
    assert list(private_imports()) == []


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _referenced_names(node, own):
    """(kind, name) for each name `node` refers to, other than those in
    `own`: "bare" for loaded and imported names, "member" for attributes
    and string constants (perfbench's tracer patches by attribute name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            kind, name = "bare", sub.id
        elif isinstance(sub, ast.alias):
            kind, name = "bare", sub.name
        elif isinstance(sub, ast.Attribute):
            kind, name = "member", sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            kind, name = "member", sub.value
        else:
            continue
        if name not in own:
            yield kind, name


def _overrides(module_name: str, class_name: str, method: str) -> bool:
    """True iff the method overrides a base class's, or its class extends
    one from outside the package, which may call it by name
    (`BaseHTTPRequestHandler` calls `do_GET`)."""
    cls = getattr(importlib.import_module(f"cyberlog.{module_name}"), class_name)
    return any(method in vars(base) or not base.__module__.startswith("cyberlog") for base in cls.__mro__[1:-1])


def names_used_only_by_tests():
    """Public top-level functions and classes of the package, and public
    methods and properties of its classes, that neither the package nor
    perfbench refers to outside their own definitions. A top-level name
    counts as used through any reference, a class member only through an
    attribute or a string constant: a local variable of the same name does
    not use it. A method that overrides a base class's counts as used."""
    defined: dict[str, tuple[str, str]] = {}  # module:qualified name -> (kind of use that counts, name)
    referenced: set[tuple[str, str]] = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        ours = path.parent == PACKAGE
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                referenced.update(_referenced_names(stmt, ()))
                continue
            if ours and not stmt.name.startswith("_"):
                defined[f"{path.stem}:{stmt.name}"] = ("any", stmt.name)
            if isinstance(stmt, ast.FunctionDef):
                referenced.update(_referenced_names(stmt, {stmt.name}))
                continue
            for item in stmt.bases + stmt.keywords + stmt.decorator_list:
                referenced.update(_referenced_names(item, {stmt.name}))
            for item in stmt.body:
                if not isinstance(item, ast.FunctionDef):
                    referenced.update(_referenced_names(item, {stmt.name}))
                    continue
                if ours and not item.name.startswith("_") and not _overrides(path.stem, stmt.name, item.name):
                    defined[f"{path.stem}:{stmt.name}.{item.name}"] = ("member", item.name)
                referenced.update(_referenced_names(item, {stmt.name, item.name}))
    names = {name for _kind, name in referenced}
    return sorted(
        where
        for where, (use, name) in defined.items()
        if name not in names or (use == "member" and ("member", name) not in referenced)
    )


def test_no_public_name_is_used_only_by_tests():
    assert names_used_only_by_tests() == []


# the reader and the database with its HTTP client: nothing else calls a
# claim database, so nothing else parses what one answers or skips a check
LOG_READERS = {"revision.py", "claimdb.py"}
LOG_CLIENT_METHODS = {"submit_revision", "get_revision", "get_head", "get_log_root", "get_consistency"}


def test_log_client_methods_are_those_of_the_protocol():
    from cyberlog.revision import LogClient

    assert {name for name in vars(LogClient) if not name.startswith("_")} == LOG_CLIENT_METHODS


def log_reads_outside_the_reader():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in LOG_READERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOG_CLIENT_METHODS
            ):
                yield f"{path.name}:{node.lineno} calls {node.func.attr}"
            elif isinstance(node, ast.Attribute) and node.attr == "db" and _is_reader(node.value):
                yield f"{path.name}:{node.lineno} reads a reader's db"


def _is_reader(node) -> bool:
    """True for an expression `reader` or `….reader`."""
    return (isinstance(node, ast.Name) and node.id == "reader") or (
        isinstance(node, ast.Attribute) and node.attr == "reader"
    )


def test_only_the_reader_calls_the_claim_database():
    assert list(log_reads_outside_the_reader()) == []


# the checker of a logged claim's evidence: the engine defines it, and the
# reader runs it on every revision it accepts, so the Auditor renders that
# check and no module checks evidence of its own
EVIDENCE_CHECKERS = {"engine.py", "revision.py"}


def modules_naming_check_evidence():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(name == "check_evidence" for _kind, name in _referenced_names(tree, ())):
            yield path.name


def test_only_the_reader_checks_logged_evidence():
    assert [name for name in modules_naming_check_evidence() if name not in EVIDENCE_CHECKERS] == []


# rules are matched in one module: the knowledge base joins standard rules
# and next-rules alike through the join plans compiled once per rulesheet,
# so no module keeps a matcher or a claim pool of its own
RULE_MATCHERS = {"engine.py"}
MATCHER_NAMES = {"_sheet_plans", "_body_plan", "_compile", "_plan_source", "JoinPlan"}


def modules_naming_a_rule_matcher():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(name in MATCHER_NAMES for _kind, name in _referenced_names(tree, ())):
            yield path.name


def test_only_the_knowledge_base_matches_rules():
    assert list(modules_naming_a_rule_matcher()) == sorted(RULE_MATCHERS)


# the owner signs what it logs (revision.py) and the log operator its tree
# heads (claimlog.py): no module on the request path signs
SIGNERS = {"identity.py", "revision.py", "claimlog.py"}


def modules_naming_sign_bytes():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if any(name == "sign_bytes" for _kind, name in _referenced_names(tree, ())):
            yield path.name


def test_only_the_log_writers_sign():
    assert [name for name in modules_naming_sign_bytes() if name not in SIGNERS] == []


# the signatures checked are the owners' of their revisions (revision.py)
# and the log operator's of its tree heads (claimlog.py): an event's
# evidence is the signed revision that holds it, so no module checks a
# signature per claim
VERIFIERS = SIGNERS
# modules that may import `verify_bytes` but never use it: perfbench's
# tracer test reads the `cyberlog.audit.verify_bytes` binding
IMPORT_ONLY = {"audit.py"}


def modules_naming_verify_bytes():
    """Modules outside VERIFIERS that use `verify_bytes` (by name, attribute
    or string), or import it outside IMPORT_ONLY."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in VERIFIERS:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            imported = isinstance(node, ast.alias) and node.name == "verify_bytes"
            used = (
                (isinstance(node, ast.Name) and node.id == "verify_bytes")
                or (isinstance(node, ast.Attribute) and node.attr == "verify_bytes")
                or (isinstance(node, ast.Constant) and node.value == "verify_bytes")
            )
            if used or (imported and path.name not in IMPORT_ONLY):
                yield f"{path.name}:{node.lineno}"
                break


def test_only_the_log_writers_signatures_are_checked():
    assert list(modules_naming_verify_bytes()) == []


# the claim database admits a revision on its header: it decodes no claim
# and parses no rulesheet, so it imports neither the engine, the language
# nor the claim wire format, by any import form
HEADER_ONLY = {"claimdb.py": {"engine", "lang", "wire"}}


def package_imports(path):
    """The names of the package modules a module file imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"cyberlog.{node.module}"] if node.module else [f"cyberlog.{a.name}" for a in node.names]
        else:
            continue
        for module in modules:
            if module.startswith("cyberlog."):
                yield module.split(".")[1]


def test_the_claim_database_imports_no_claim_decoder():
    for name, forbidden in HEADER_ONLY.items():
        assert set(package_imports(PACKAGE / name)) & forbidden == set(), name


# the oracle that the compiled plans and the rule-instance check are tested
# against evaluates every term, builtin and comparison itself: of the engine
# it takes only what `derivation_faults` needs
ORACLE = Path(__file__).resolve().parent / "naive_oracle.py"
ORACLE_ENGINE_NAMES = {"check_evidence", "DerivedByRule", "canonical_atom"}


def oracle_engine_imports():
    tree = ast.parse(ORACLE.read_text(encoding="utf-8"), str(ORACLE))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.startswith("cyberlog.engine"))
        elif isinstance(node, ast.ImportFrom) and node.module == "cyberlog.engine":
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "cyberlog":
            yield from (f"cyberlog.{alias.name}" for alias in node.names if alias.name == "engine")


def test_the_oracle_takes_no_evaluator_of_the_engine():
    assert set(oracle_engine_imports()) == ORACLE_ENGINE_NAMES


# the compiled plans' evaluation helpers: only the engine that compiles
# them names them
PLAN_EVALUATORS = {"_get_param", "_arith", "_not_integers"}


def modules_naming_a_plan_evaluator():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path.name != "engine.py" and any(name in PLAN_EVALUATORS for _kind, name in _referenced_names(tree, ())):
            yield path.name


def test_only_the_engine_names_the_plan_evaluators():
    assert list(modules_naming_a_plan_evaluator()) == []
