"""Module layering: no cyberlog module imports another one's private names."""

import ast
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


def names_used_only_by_tests():
    """Public top-level functions and classes of the package that neither the
    package nor perfbench refers to, outside their own definitions. A
    reference is a loaded name, an attribute, an imported name or a string
    constant equal to the name (perfbench's tracer patches by attribute
    name)."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if path.parent == PACKAGE and not own.startswith("_"):
                    defined[own] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return sorted(f"{module}:{name}" for name, module in defined.items() if name not in referenced)


def test_no_public_name_is_used_only_by_tests():
    assert names_used_only_by_tests() == []
