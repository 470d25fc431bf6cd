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


def _imported_names(tree):
    """Name -> line of each name a module's import statements bind."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    bound[a.asname or a.name] = node.lineno
    return bound


def test_every_import_is_read_or_exported():
    # an import that nothing reads costs import time and misleads a reader
    # about what a module depends on
    unused = []
    for path in sorted(Path(qpl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                read.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in _imported_names(tree).items()
                   if name not in read]
    assert not unused, unused
