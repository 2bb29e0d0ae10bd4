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
