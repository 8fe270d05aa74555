"""The runtime imports nothing outside the standard library and the package,
every name a module imports is used, every private function and class is used
by the package itself, and few places in it decide a system's class."""

import ast
import re
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "shadowlab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert SOURCES and outside == [], f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # __init__.py is left out: its imports are the package's exports
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name} imports {unused} and never uses them"


# a solver picks its algorithm from a class-keyed table read through systems.require;
# these are the places that test a system's class by hand, entry checks included
DISPATCH = re.compile(
    r"system\.kind\b *(==|!=|in|not in)|isinstance\(system, |hasattr\(system, |getattr\(system, |type\(system\)"
)


def test_class_dispatch_sites_stay_few():
    sites = [f"{path.name}:{n}" for path in SOURCES
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if DISPATCH.search(line)]
    assert len(sites) <= 9, sites


def test_every_private_function_and_class_is_used_by_the_package():
    # a private helper that only tests call is code the package does not need
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    defined = {(path.name, node.name) for path, tree in zip(SOURCES, trees) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")}
    used = {node.id if isinstance(node, ast.Name) else node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(f"{module}: {name}" for module, name in defined if name not in used)
    assert defined and unused == [], f"defined but never referenced in the package: {unused}"
