"""The package's export lists, imports and module state, read from its
source: nothing star-imports qpl, so a stale entry would otherwise go
unnoticed, and no function may keep a process-wide setting."""

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


def _root_name(node):
    """The name an attribute or subscript chain such as a.b[0].c starts
    from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _scope_names(body):
    """Names the statements of one scope bind: stored or deleted names,
    imports, and the functions and classes defined there, without looking
    into those."""
    bound = set()
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            if not isinstance(node, ast.Lambda):
                bound.add(node.name)
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return bound


def _module_state_stores(tree):
    """'line name' for each store into module-level state inside a
    function: a global or nonlocal statement, or an item or attribute
    assignment (or deletion) through a module-level name that neither the
    function nor one enclosing it binds."""
    module_names = _scope_names(tree.body)
    found = []

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = (local or set()) | _scope_names(node.body) | {
                a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        elif local is not None:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.extend("%d %s" % (node.lineno, n) for n in node.names)
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            roots = {_root_name(sub) for t in targets for sub in ast.walk(t)
                     if isinstance(sub, (ast.Attribute, ast.Subscript))}
            found.extend("%d %s" % (node.lineno, name) for name in
                         sorted(roots & module_names - local))
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, None)
    return found


def test_no_function_stores_into_module_state():
    # a process-wide setting is seen by one caller and not by the next, nor
    # by a worker process; caches that grow through their own methods (or
    # lru_cache) are not stores in this sense
    stores = []
    for path in sorted(Path(qpl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        stores += ["%s:%s" % (path.name, hit)
                   for hit in _module_state_stores(tree)]
    assert not stores, stores


def test_the_module_state_scan_sees_each_kind_of_store():
    source = '''
import os
SETTING = [None]
TABLE = {}
class Box:
    pass

def item(v):
    SETTING[0] = v

def attribute(v):
    Box.value = v

def nested(v):
    os.environ["X"] = v

def declared(v):
    global SETTING
    SETTING = v

def grows(k, v):
    TABLE.setdefault(k, v)
    return TABLE.get(k)

def shadows(v):
    TABLE = {}
    TABLE[0] = v
    return TABLE

def closure():
    def inner(v, SETTING):
        SETTING[0] = v
    return inner
'''
    found = _module_state_stores(ast.parse(source))
    assert [hit.split()[1] for hit in found] == [
        "SETTING", "Box", "os", "SETTING"], found
