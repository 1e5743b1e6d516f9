"""Every name a module under src/mwglue imports is used in that module,
every function and class it defines has a caller outside the tests, every
memo it keeps is one of a reviewed few, and every module but a named few
loads lazily."""

import ast
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


# Not lazy: `cli`, which `python -m mwglue.cli` runs as __main__, and
# `record`, whose `Record` the modules with value classes bind by name as
# they run, so it would load at once anyway.
EAGER = {"__init__", "cli", "record"}


def test_every_submodule_is_registered_as_lazy():
    """mwglue/__init__.py registers every other submodule as a lazy module.
    A module left out runs, and so is compiled, in every process that
    imports a module that imports it, whether or not the process uses it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    (loop,) = [node for node in tree.body if isinstance(node, ast.For)]
    lazy = set(ast.literal_eval(loop.iter))
    missing = sorted({path.stem for path in MODULES} - EAGER - lazy)
    assert not missing, "submodules not registered as lazy: " + ", ".join(missing)
    assert not lazy & EAGER


ROOT = PACKAGE.parents[1]
CALLERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def _definitions(tree: ast.Module):
    """Every function, method and class the module defines, by node, each
    with whether it is a method."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    return [(node, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(node: ast.AST, attributes_only: bool = False) -> list[str]:
    """The names a subtree reads as code: attributes, and bare names unless
    attributes_only.  Words in strings and comments do not count."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.Name) and not attributes_only:
            out.append(sub.id)
    return out


def _span_targets() -> list[str]:
    """Each part of the attribute paths in bench/spans.py's TARGETS, the
    functions the traced benchmark wraps by name."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    return [part for _, _, path in ast.literal_eval(targets) for part in path.split(".")]


def test_every_definition_has_a_caller():
    """A function or class under src/mwglue that no code under src/ or bench/
    refers to, other than its own body, and that bench/spans.py does not wrap,
    is API only the tests call.  A method counts only as an attribute, so a
    local variable of the same name does not make it used."""
    # name counts, keyed by attributes_only: all names, and attributes only
    refs = {attrs: Counter(_span_targets()) for attrs in (False, True)}
    own = {attrs: Counter() for attrs in (False, True)}
    defined = []
    for path in CALLERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for attrs in (False, True):
            refs[attrs].update(_references(tree, attrs))
        if path.parent == PACKAGE:
            for node, is_method in _definitions(tree):
                for attrs in (False, True):
                    own[attrs][node.name] += _references(node, attrs).count(node.name)
                defined.append((path.name, node.lineno, node.name, is_method))
    unused = [
        f"{name} ({path}:{line})"
        for path, line, name, is_method in defined
        if not (name.startswith("__") and name.endswith("__"))
        and refs[is_method][name] == own[is_method][name]
    ]
    assert not unused, "defined but never referenced under src/ or bench/: " + ", ".join(unused)


def test_one_home_for_exact_division():
    """No true division under src/mwglue outside poly.ratio: curves, points
    and polynomials hold ints, and an int / int is a float."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        ratio = [node for node in tree.body if path.name == "poly.py"
                 and isinstance(node, ast.FunctionDef) and node.name == "ratio"]
        exempt = {id(sub) for node in ratio for sub in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
                  and id(node) not in exempt]
    assert not found, "true division outside poly.ratio: " + ", ".join(found)


# Every memo under src/mwglue, with the comment at its site giving what it
# saves; a new memo, or a dropped one, is a change to this set.
MEMOS = {"family.FamilyParams.F_algebra", "family.FamilyParams.F_classes"}
MEMO_NAMES = {"lru_cache", "cache", "cached_property"}


def _decorator_name(dec: ast.expr) -> str:
    """`lru_cache` for @lru_cache, @lru_cache(...) and @functools.lru_cache."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def _memo_sites(tree: ast.Module, module: str) -> tuple[set[str], int]:
    """The functions a memo decorates, as module.qualified_name, and the
    number of times the module reads a memo's name, decorators included."""
    sites = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if any(_decorator_name(d) in MEMO_NAMES for d in child.decorator_list):
                    sites.add(name)
                visit(child, name)

    visit(tree, module)
    reads = sum(name in MEMO_NAMES for name in _references(tree))
    return sites, reads


def test_every_memo_is_a_reviewed_one():
    """The lru_cache and cached_property sites under src/mwglue are exactly
    MEMOS, each applied as a decorator."""
    sites, reads = set(), 0
    for path in MODULES:
        found, n = _memo_sites(ast.parse(path.read_text(), filename=str(path)), path.stem)
        sites |= found
        reads += n
    assert sites == MEMOS
    assert reads == len(sites), "a memo applied other than as a decorator"
