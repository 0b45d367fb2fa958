"""Source checks that need no linter: every local a function binds and every
parameter it takes is read, every module-private name is used, and every
public name is read by the program, its demos or its benchmark."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "geostab").glob("*.py"))
# the modules outside the package that read it; the tests do not count
OUTSIDE_READERS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func):
    """The nodes of ``func``'s body, without the bodies of nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _names(target):
    """The plain names a binding target binds, through tuple unpacking."""
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _names(element)
    elif isinstance(target, ast.Starred):
        yield from _names(target.value)


def _read(func):
    """Every name ``func`` reads, its nested functions included."""
    # an augmented assignment reads its target: ``row += 1`` may write
    # through a view
    read = {node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.target.id for node in ast.walk(func)
             if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
    return read


def _dead_locals(tree):
    """(function, name, line) of each name a function binds by assignment,
    tuple unpacking included (loop and comprehension targets too), and never
    reads, its nested functions included.  Augmented assignments and ``_``
    are exempt."""
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        read = _read(func)
        bound = []
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                bound += [name for t in node.targets for name in _names(t)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                bound += _names(node.target)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bound += _names(node.target)
        for target in bound:
            if target.id != "_" and target.id not in read:
                yield func.name, target.id, target.lineno


def _unread_params(tree):
    """(function, name, line) of each parameter a function never reads."""
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        read = _read(func)
        a = func.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        for p in params:
            if p.arg not in read:
                yield func.name, p.arg, p.lineno


def _definitions(tree):
    """(name, line, node) of each function, class and constant a module
    defines at its top level."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            found = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found = [(name.id, name.lineno) for t in targets for name in _names(t)]
        else:
            continue
        yield from ((name, line, node) for name, line in found)


def _references(tree):
    """Every name ``tree`` reads, by name or as an attribute, with repeats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unreferenced(trees, readers, selected):
    """(module, name, line) of each top-level name of a module in ``trees``
    (module name to syntax tree) that ``selected`` accepts and that no
    module in ``readers``, which holds ``trees``, reads outside its own
    definition."""
    uses = Counter(name for tree in readers.values() for name in _references(tree))
    for module, tree in trees.items():
        for name, line, node in _definitions(tree):
            if selected(name) and uses[name] == Counter(_references(node))[name]:
                yield module, name, line


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _unreferenced_private(trees):
    """The module-private names, one leading underscore, that no module in
    ``trees`` reads outside its own definition."""
    return _unreferenced(trees, trees, _is_private)


def _unread_public(trees, readers):
    """The public names, no leading underscore, of the modules in ``trees``
    that no module in ``readers`` reads outside its own definition.  An
    import, such as a re-export in ``__init__``, reads nothing."""
    return _unreferenced(trees, readers, lambda name: not name.startswith("_"))


def _findings(check):
    return [f"{path.name}:{line} {func}.{name}"
            for path in SOURCES
            for func, name, line in check(ast.parse(path.read_text(), str(path)))]


def test_every_assigned_local_is_read():
    assert SOURCES
    dead = _findings(_dead_locals)
    assert not dead, dead


def test_every_parameter_is_read():
    assert SOURCES
    unread = _findings(_unread_params)
    assert not unread, unread


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def test_every_private_name_is_used():
    assert SOURCES
    trees = {path.name: _parse(path) for path in SOURCES}
    unused = [f"{module}:{line} {name}" for module, name, line in _unreferenced_private(trees)]
    assert not unused, unused


def test_every_public_name_is_read_outside_the_tests():
    assert SOURCES and OUTSIDE_READERS
    trees = {path.name: _parse(path) for path in SOURCES}
    readers = {**trees, **{str(path.relative_to(ROOT)): _parse(path) for path in OUTSIDE_READERS}}
    unread = [f"{module}:{line} {name}" for module, name, line in _unread_public(trees, readers)]
    assert not unread, unread


def test_the_check_flags_a_dead_local():
    tree = ast.parse(
        "def f(x, *rest):\n"
        "    unused = x + 1\n"
        "    a, (b, c) = x\n"
        "    total = 0\n"
        "    total += a\n"
        "    _ = b\n"
        "    kept = 2\n"
        "    for i, j in rest:\n"
        "        total += j\n"
        "    return (lambda: kept)(), [v for v, w in rest]\n"
    )
    assert sorted(_dead_locals(tree), key=lambda d: d[2]) == [
        ("f", "unused", 2), ("f", "c", 3), ("f", "i", 8), ("f", "w", 10)]


def test_the_check_flags_an_unread_parameter():
    tree = ast.parse(
        "def f(x, unused, *rest, key=None):\n"
        "    def g(y):\n"
        "        return x + key\n"
        "    return g, rest\n"
    )
    assert list(_unread_params(tree)) == [("f", "unused", 1), ("g", "y", 2)]


def test_the_check_flags_an_unused_private_name():
    trees = {
        "a.py": ast.parse(
            "import b\n"
            "_LIMIT = 3\n"
            "_UNUSED, _SHOWN = 4, 5\n"
            "__version__ = '1'\n"
            "def _used():\n"
            "    def _nested():\n"
            "        return 1\n"
            "    return b._helper(_LIMIT)\n"
            "def _dead():\n"
            "    return _dead()\n"
            "class _Box:\n"
            "    pass\n"
        ),
        "b.py": ast.parse(
            "from a import _used, _SHOWN\n"
            "def _helper(x):\n"
            "    return x, _used(), _SHOWN\n"
        ),
    }
    assert list(_unreferenced_private(trees)) == [
        ("a.py", "_UNUSED", 3), ("a.py", "_dead", 9), ("a.py", "_Box", 11)]


def test_the_check_flags_a_public_name_only_tests_read():
    trees = {
        "a.py": ast.parse(
            "LIMIT = 3\n"
            "UNUSED, SHOWN = 4, 5\n"
            "__version__ = '1'\n"
            "def used():\n"
            "    return LIMIT\n"
            "def recursive():\n"
            "    return recursive()\n"
            "class Box:\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        ),
    }
    readers = {
        **trees,
        "__init__.py": ast.parse("from .a import UNUSED, Box, used\n"),
        "demo.py": ast.parse("import a\nfrom a import SHOWN\nprint(a.used(), SHOWN)\n"),
    }
    assert list(_unread_public(trees, readers)) == [
        ("a.py", "UNUSED", 2), ("a.py", "recursive", 6), ("a.py", "Box", 8)]
