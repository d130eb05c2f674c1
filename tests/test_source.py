import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "clbf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, __future__ features excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"nets", "verifier", "cegis", "losses"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported_names(tree) - used) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_scope(func):
    """The nodes of a function's body, nested functions and classes left out."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(func) -> set[str]:
    """Names that an assignment or a for/with target binds in func and that
    nothing in it, nested functions included, reads. An augmented
    assignment reads its target; names starting with _ and names declared
    nonlocal or global are exempt."""
    bound, declared = set(), set()
    for node in own_scope(func):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [i.optional_vars for i in node.items if i.optional_vars]
        else:
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
            continue
        bound.update(n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    read = {n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.target.id for n in ast.walk(func)
             if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
    return {name for name in bound - read - declared if not name.startswith("_")}


def dead_locals_of(tree) -> list[str]:
    return sorted(f"{func.name}: {name}" for func in ast.walk(tree)
                  if isinstance(func, FUNCTIONS[:2]) for name in dead_locals(func))


# the certificate carries its environment: only these two take an env as
# well, which callers outside the package pass positionally, and they reject
# any but cert.env
CERT_AND_ENV = ["check_robust_decrease", "total_loss_grads"]


def test_only_the_listed_functions_take_both_cert_and_env():
    both = []
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(func, FUNCTIONS):
                a = func.args
                if {"cert", "env"} <= {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                    both.append(getattr(func, "name", "<lambda>"))
    assert sorted(both) == CERT_AND_ENV


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    assert dead_locals_of(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("src, dead", [
    ("def f(xs):\n    for g, d in xs:\n        g += d\n", []),
    ("def f():\n    a = b = 1\n    c, *d = 2, 3\n    return b, d\n", ["f: a", "f: c"]),
    ("def f(p):\n    for i in p:\n        pass\n    with p as q:\n        pass\n",
     ["f: i", "f: q"]),
    ("def f():\n    x = 1\n    def g():\n        return x\n    y: int = 2\n"
     "    return g\n", ["f: y"]),
    ("def f():\n    def g():\n        w = 1\n    return g\n", ["g: w"]),
    ("def f():\n    global x\n    x = 1\n    _y = 2\n    z = 0\n"
     "    def g():\n        nonlocal z\n        z = 3\n    g()\n    return z\n", []),
])
def test_dead_locals_cases(src, dead):
    assert dead_locals_of(ast.parse(src)) == dead
