"""Every name a module under src/mwglue imports is used in that module, and
every function and class it defines has a caller outside the tests."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mwglue"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


ROOT = PACKAGE.parents[1]
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _definitions(tree: ast.Module):
    """Every function, method and class the module defines, by node."""
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(node: ast.AST) -> list[str]:
    """The names a subtree reads: bare names, attributes, and the
    identifiers inside strings, which is how bench/spans.py names its
    targets."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out += re.findall(r"[A-Za-z_][A-Za-z0-9_]*", sub.value)
    return out


def test_every_definition_has_a_caller():
    """A function or class under src/mwglue that nothing under src/ or
    bench/ refers to, other than its own body, and that README.md does not
    name, is API only the tests call."""
    refs, own, defined = Counter(), Counter(), []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update(_references(tree))
        if path.parent == PACKAGE:
            for node in _definitions(tree):
                own[node.name] += _references(node).count(node.name)
                defined.append((path.name, node.lineno, node.name))
    readme = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", (ROOT / "README.md").read_text()))
    unused = [
        f"{name} ({path}:{line})"
        for path, line, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and refs[name] == own[name] and name not in readme
    ]
    assert not unused, "defined but never referenced under src/ or bench/: " + ", ".join(unused)
