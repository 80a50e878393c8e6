"""Source hygiene: no module of the package, its tests or perfbench imports a
name it never uses, every public function of the tensor module is exported,
and no public tensor op calls another."""

import ast
import inspect
from pathlib import Path

import pytest

from bisource import tensor as T

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/bisource/*.py")) + sorted(ROOT.glob("tests/*.py"))
BENCH_MODULES = sorted(ROOT.glob("perfbench/*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.

    ``from __future__`` imports and names listed in ``__all__`` count as used.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_and_honours_all_and_future():
    src = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "from math import pi, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "print(tau, os.sep)\n"
    )
    assert unused_imports(src) == ["pi (line 4)"]


@pytest.mark.parametrize(
    "path", MODULES + BENCH_MODULES,
    ids=[p.name for p in MODULES] + [f"perfbench/{p.name}" for p in BENCH_MODULES],
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the one public function of bisource.tensor that is a helper, not an op
TENSOR_HELPERS = {"all_finite"}


def test_every_public_function_of_the_tensor_module_is_in_its_all():
    # perfbench wraps and counts the ops it finds in __all__: an op left out
    # would escape the traced op counts without any error
    public = {
        name for name, obj in vars(T).items()
        if inspect.isfunction(obj) and obj.__module__ == T.__name__ and not name.startswith("_")
    }
    assert public - set(T.__all__) == TENSOR_HELPERS


def test_no_public_tensor_op_calls_another():
    # each piece of math lives in one private kernel that an op and the fused
    # ops share; an op that called another would run, check and record twice
    tree = ast.parse(Path(T.__file__).read_text())
    calls = {
        node.name: {c.func.id for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    ops = set(T.__all__) & set(calls)
    for op in sorted(ops):
        reached, todo = set(), [op]
        while todo:  # through the module's private functions
            for name in calls.get(todo.pop(), set()) - reached:
                reached.add(name)
                if name.startswith("_"):
                    todo.append(name)
        assert reached & ops <= {op}, f"{op} calls {sorted(reached & ops - {op})}"
