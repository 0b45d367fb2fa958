"""Source checks that need no linter: every local a function assigns is read."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "geostab").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func):
    """The nodes of ``func``'s body, without the bodies of nested functions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _dead_locals(tree):
    """(function, name, line) of each plain name a function assigns and never
    reads, its nested functions included.  Tuple-unpacking targets,
    augmented assignments and ``_`` are exempt."""
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        # an augmented assignment reads its target: ``row += 1`` may write
        # through a view
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.target.id for node in ast.walk(func)
                 if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)}
        assigned = []
        for node in _own_nodes(func):
            if isinstance(node, ast.Assign):
                assigned += [t for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                assigned += [node.target] if isinstance(node.target, ast.Name) else []
        for target in assigned:
            if target.id != "_" and target.id not in read:
                yield func.name, target.id, target.lineno


def test_every_assigned_local_is_read():
    dead = [f"{path.name}:{line} {func}.{name}"
            for path in SOURCES
            for func, name, line in _dead_locals(ast.parse(path.read_text(), str(path)))]
    assert SOURCES
    assert not dead, dead


def test_the_check_flags_a_dead_local():
    tree = ast.parse(
        "def f(x):\n"
        "    unused = x + 1\n"
        "    a, b = x\n"
        "    total = 0\n"
        "    total += a\n"
        "    _ = b\n"
        "    kept = 2\n"
        "    return (lambda: kept)()\n"
    )
    assert list(_dead_locals(tree)) == [("f", "unused", 2)]
