"""The package's export lists: nothing star-imports qpl, so a stale entry
would otherwise go unnoticed."""

import ast
import importlib
import pkgutil
from pathlib import Path

import qpl

# importing __main__ runs the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(qpl.__path__)
                 if m.name != "__main__")


def test_export_lists_resolve_and_cover_the_package_imports():
    exported = {}
    for name in MODULES:
        module = importlib.import_module("qpl." + name)
        if hasattr(module, "__all__"):
            missing = [n for n in module.__all__ if not hasattr(module, n)]
            assert not missing, (name, missing)
            exported[name] = set(module.__all__)
    assert exported
    tree = ast.parse(Path(qpl.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module in exported:
            unlisted = [a.name for a in node.names
                        if a.name not in exported[node.module]]
            assert not unlisted, (node.module, unlisted)
