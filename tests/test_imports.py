"""The runtime imports nothing outside the standard library and the package,
and few places in it decide a system's class."""

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


# a solver picks its algorithm from a class-keyed table read through systems.require;
# these are the places that test a system's class by hand, entry checks included
DISPATCH = re.compile(
    r"system\.kind\b *(==|!=|in|not in)|isinstance\(system, |hasattr\(system, |getattr\(system, |type\(system\)"
)


def test_class_dispatch_sites_stay_few():
    sites = [f"{path.name}:{n}" for path in SOURCES
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if DISPATCH.search(line)]
    assert len(sites) <= 12, sites
