"""Static checks over the package source, parsed with ``ast``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "planewidth"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of ``func``'s body, not descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(tree):
    """(line, function, name) for each name a function assigns and nothing
    in the function, nested functions included, ever reads.  Names declared
    ``global`` or ``nonlocal`` are not local; names starting with ``_`` are
    exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stores, declared = {}, set()
        for node in _own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stores.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stores.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    stores.setdefault(name, node.lineno)
        reads = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                reads.add(node.id)
            elif (isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Name)):
                reads.add(node.target.id)
        found += [(line, func.name, name) for name, line in stores.items()
                  if name not in reads and name not in declared
                  and not name.startswith("_")]
    return sorted(found)


def unread_imports(tree):
    """(line, name) for each name a module-level import binds that nothing
    in the module reads; a name listed in ``__all__`` counts as read, and
    ``__future__`` imports are exempt."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    reads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                              ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            reads.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in reads)


def test_no_module_imports_a_name_it_never_reads():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems += ["%s:%d imports %r" % (path.name, line, name)
                     for line, name in unread_imports(tree)]
    assert problems == []


def test_unread_imports_sees_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import sys, json\n"
        "from math import pi, tau\n"
        "from .x import Y\n"
        "__all__ = ['Y']\n"
        "def f():\n"
        "    return sys.argv, osp, pi\n")
    assert unread_imports(tree) == [(2, "os"), (4, "json"), (5, "tau")]


def test_no_function_assigns_a_name_it_never_reads():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems += ["%s:%d %s() assigns %r" % (path.name, line, func, name)
                     for line, func, name in unread_locals(tree)]
    assert problems == []


def test_unread_locals_sees_only_unread_names():
    tree = ast.parse(
        "def f(a):\n"
        "    b, c = a\n"
        "    d = 0\n"
        "    _e = 1\n"
        "    total = 0\n"
        "    total += b\n"
        "    def g():\n"
        "        nonlocal d\n"
        "        d = c\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    return [x for x in a]\n")
    # total is read by its own +=; d is only rebound, in g
    assert unread_locals(tree) == [(3, "f", "d"), (12, "f", "exc")]
