"""Static checks over the package source, parsed with ``ast``."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planewidth"

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


def _listed_in_all(tree):
    """The names a module-level ``__all__ = [...]`` lists."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


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
    reads |= _listed_in_all(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in reads)


def unreached_names(trees, bench_text):
    """(module, line, name) for each top-level ``def`` or ``class`` that
    nothing reads.  A read is a ``Name`` load or an ``Attribute`` attr in any
    of ``trees`` (module -> tree) outside the definition's own body, a word
    in ``bench_text``, or a listing in an ``__all__``."""
    def reads(top):
        return {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                                 ast.Store)
                or isinstance(node, ast.Attribute)}

    defs, outside = [], set()
    for module, tree in trees.items():
        outside |= _listed_in_all(tree)
        for node in tree.body:
            if isinstance(node, _SCOPES):
                defs.append((module, node, reads(node)))
            else:
                outside |= reads(node)
    words = set(re.findall(r"\w+", bench_text))
    return sorted((module, node.lineno, node.name)
                  for module, node, _ in defs
                  if node.name not in outside and node.name not in words
                  and not any(node.name in other for _, d, other in defs
                              if d is not node))


def test_every_top_level_name_has_a_reader():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    bench_text = "\n".join(path.read_text()
                           for path in sorted((ROOT / "bench").glob("*.py")))
    problems = ["%s.py:%d %r is read by nothing outside the tests"
                % entry for entry in unreached_names(trees, bench_text)]
    assert problems == []


def test_unreached_names_sees_only_unread_definitions():
    trees = {
        "a": ast.parse(
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "class Kept:\n"
            "    pass\n"
            "def benched():\n"
            "    pass\n"
            "def bench():\n"
            "    pass\n"
            "def exported():\n"
            "    pass\n"
            "def stored():\n"
            "    pass\n"),
        "b": ast.parse(
            "import a\n"
            "from a import used, stored\n"
            "__all__ = ['exported', 'f']\n"
            "stored = None\n"
            "def f():\n"
            "    return used() + a.Kept\n"),
    }
    # a read inside its own body does not count, nor does a store, nor a
    # word that only contains the name
    assert unreached_names(trees, "run(benched)") == [
        ("a", 3, "recursive"), ("a", 9, "bench"), ("a", 13, "stored")]


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


def bare_assertion_raises(tree):
    """Lines that raise ``AssertionError`` itself, called or not."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return sorted(lines)


def test_no_bare_assertion_error_raised():
    # internal faults raise InternalConsistencyError, which the CLI turns
    # into one line and exit code 3; a bare AssertionError gives a traceback
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems += ["%s:%d raises AssertionError" % (path.name, line)
                     for line in bare_assertion_raises(tree)]
    assert problems == []


def test_bare_assertion_raises_sees_only_assertion_error():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise AssertionError('bad')\n"
        "    if not x:\n"
        "        raise AssertionError\n"
        "    try:\n"
        "        raise InternalConsistencyError('bad')\n"
        "    except ValueError:\n"
        "        raise\n"
        "    raise AssertionErrorLike()\n")
    assert bare_assertion_raises(tree) == [3, 5]


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


def unread_parameters(tree):
    """(line, function, name) for each parameter of a function that nothing
    in the function, nested functions included, reads.  ``self``, ``cls``
    and names starting with ``_`` are exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, [args.vararg, args.kwarg])]
        reads = {node.id for node in ast.walk(func)
                 if isinstance(node, ast.Name)
                 and not isinstance(node.ctx, ast.Store)}
        reads |= {node.target.id for node in ast.walk(func)
                  if isinstance(node, ast.AugAssign)
                  and isinstance(node.target, ast.Name)}
        found += [(p.lineno, func.name, p.arg) for p in params
                  if p.arg not in reads and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_no_function_takes_a_parameter_it_never_reads():
    problems = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        problems += ["%s:%d %s() never reads %r" % (path.name, line, func, name)
                     for line, func, name in unread_parameters(tree)]
    assert problems == []


def test_unread_parameters_sees_only_unread_names():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, a, b=1, *rest, key, _skip, **opts):\n"
        "        def inner(c):\n"
        "            return a + c\n"
        "        key += 1\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def k(cls, x, /, y):\n"
        "        return y\n"
        "f = lambda unused: 0\n")
    # a read in a nested function counts; a lambda is not checked
    assert unread_parameters(tree) == [(2, "m", "b"), (2, "m", "opts"),
                                       (2, "m", "rest"), (8, "k", "x")]


def name_reads(tree, names, attrs=()):
    """(line, function, name) for each read of a name in ``names`` (a
    ``Name`` load or an attribute load) or in ``attrs`` (an attribute load
    only), with its innermost enclosing function ('' at module level).  The
    body of a ``def`` of a listed name is not searched, so a definition may
    read itself and its fellow names."""
    listed = set(names) | set(attrs)
    found, stack = [], [(tree, "")]
    while stack:
        node, func = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in listed:
                continue
            func = node.name
        if (isinstance(node, ast.Attribute) and node.attr in listed
                and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, func, node.attr))
        elif (isinstance(node, ast.Name) and node.id in names
              and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, func, node.id))
        stack.extend((child, func) for child in ast.iter_child_nodes(node))
    return sorted(found)


def _src_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_only_evaluate_measures_edge_lengths():
    # one measurement path: every other caller goes through evaluate, and
    # so inherits its shape check and its overflow refusal
    readers = sorted({(module, func)
                      for module, tree in _src_trees().items()
                      for _, func, _ in name_reads(tree, {"edge_lengths"})})
    assert readers == [("realization", "evaluate")]


def test_only_read_edge_list_calls_fromstring():
    # one parse kernel: np.fromstring saturates on overflow, and only
    # _read_graph, the reader of both graph formats, checks its endpoints
    # for that
    readers = sorted({(module, func)
                      for module, tree in _src_trees().items()
                      for _, func, _ in name_reads(tree, {"fromstring"})})
    assert readers == [("graphs", "_read_graph")]


def test_no_src_code_reads_the_pinned_views():
    # geometry.distance, Graph.edges, Graph.sorted_edges and
    # Realization.points stay only because bench/ reads them by name, so
    # deleting them must move no src code
    problems = ["%s.py:%d %s() reads %r" % (module, line, func, name)
                for module, tree in _src_trees().items()
                for line, func, name in name_reads(
                    tree, {"distance"}, {"points", "edges", "sorted_edges"})]
    assert problems == []


def test_name_reads_sees_only_reads_outside_listed_defs():
    tree = ast.parse(
        "from m import a\n"
        "b = a\n"
        "def a(x):\n"
        "    return a(x.a)\n"
        "def f(obj, p):\n"
        "    obj.a = 1\n"
        "    def g():\n"
        "        return obj.a() + obj.p\n"
        "    a = p\n"
        "    return 'a'\n")
    # an import, a store, a string and a listed def's own body are no
    # reads, nor is a bare name that is listed as an attribute only
    assert name_reads(tree, {"a"}, {"p"}) == [
        (2, "", "a"), (8, "g", "a"), (8, "g", "p")]
