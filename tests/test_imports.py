"""Every name a chainfold or test module imports is used (a stdlib
stand-in for F401), and every module-level `_private` name it defines is
read in it. Every exception chainfold defines is one the CLI maps to an
exit status, no chainfold module calls a BLAS-backed numpy routine, the
CLI leaves the trace's JSON layout to kinematics, and only the CLI reads
the environment.

An import kept on purpose, such as a re-export, carries `# noqa: F401` on
its statement. A private helper that no line of its own module reads is
left over from a change that stopped calling it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import chainfold
from chainfold.errors import DomainError

MODULES = sorted(Path(chainfold.__file__).parent.glob("*.py"))
# the tests, their oracles and conftest, so that a folded test leaves no
# dead import or helper behind
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append((node.lineno, bound))
    return unused


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .errors import A, B  # noqa: F401\n"
        "from .geometry import (\n"
        "    add,\n"
        "    sub,\n"
        ")\n"
        "os.path.join(add)\n"
    )
    assert _unused_imports(src) == [(2, "json"), (5, "sub")]


def _unread_privates(source: str) -> list[tuple[int, str]]:
    """Module-level `_name` definitions that no expression in the module loads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in defined.items() if name not in loaded)


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read_in_its_module(path):
    assert _unread_privates(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unread_private_name():
    src = (
        "import functools\n"
        "__all__ = ['run']\n"
        "_LIMIT: int = 3\n"
        "_A, _B = 1, 2\n"
        "@functools.cache\n"
        "def _orphan(x):\n"
        "    return x\n"
        "def _used():\n"
        "    return _LIMIT + _A\n"
        "class _Gone:\n"
        "    pass\n"
        "def run():\n"
        "    _local = 1\n"
        "    return _used() + _local\n"
    )
    assert _unread_privates(src) == [(4, "_B"), (6, "_orphan"), (10, "_Gone")]


def test_every_exception_reaches_the_cli_as_an_exit_status():
    """`cli.main` exits 2 on a DomainError and 1 on an OSError or
    ValueError; an exception class outside all three would escape as a
    traceback."""
    defined = []
    for path in MODULES:
        name = "chainfold" if path.stem == "__init__" else f"chainfold.{path.stem}"
        module = importlib.import_module(name)
        defined += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        ]
    assert DomainError in defined and len(defined) > 1
    mapped = (DomainError, ValueError, OSError)
    assert [c.__qualname__ for c in defined if not issubclass(c, mapped)] == []


# numpy routines that hand work to BLAS; `cli.main` starts numpy with one
# OpenBLAS thread because chainfold calls none of them
_BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _blas_uses(source: str) -> list[tuple[int, str]]:
    """`@`, `.dot`-style attributes and numpy imports that reach BLAS."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "numpy.linalg"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [node.module] + [a.name for a in node.names]
            found += [(node.lineno, n) for n in names if n.split(".")[-1] in _BLAS_NAMES]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_calls_a_blas_routine(path):
    assert _blas_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_blas_routines():
    src = (
        "import numpy as np\n"
        "from numpy import einsum, flatnonzero\n"
        "from .geometry import dot\n"
        "import numpy.linalg\n"
        "from numpy.linalg import norm\n"
        "a = np.ones((2, 2))\n"
        "b = a @ a\n"
        "b @= a\n"
        "c = a.dot(b) + np.linalg.norm(a)\n"
        "d = dot((1, 0, 0), (0, 1, 0)) + flatnonzero(a).sum()\n"
    )
    assert _blas_uses(src) == [
        (2, "einsum"), (4, "numpy.linalg"), (5, "numpy.linalg"),
        (7, "@"), (8, "@"), (9, "dot"), (9, "linalg"),
    ]


def _imported(source: str) -> set[str]:
    """Top-level modules and names that any import statement binds, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add((node.module or "").split(".")[0])
            found.update(a.name for a in node.names)
    return found


def test_the_cli_leaves_the_trace_layout_to_kinematics():
    """Kinematics builds the summary and writes the trace file, so the CLI
    needs neither `dataclasses` to blank a trace's frames nor the dict."""
    source = (Path(chainfold.__file__).parent / "cli.py").read_text(encoding="utf-8")
    assert _imported(source) & {"dataclasses", "trace_to_json_dict"} == set()


def test_the_check_sees_imports_inside_functions():
    src = (
        "import json\n"
        "def run(trace):\n"
        "    import dataclasses.x as dc\n"
        "    from .kinematics import trace_to_json_dict\n"
        "    from dataclasses import replace\n"
    )
    assert _imported(src) == {"json", "dataclasses", "kinematics", "trace_to_json_dict", "replace"}


def _environment_reads(source: str) -> list[tuple[int, str]]:
    """`os.environ`, `os.getenv` and `from os import environ` or `getenv`, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("environ", "getenv")]
    return sorted(found)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "cli.py"], ids=lambda p: p.name
)
def test_only_the_cli_reads_the_environment(path):
    """A library call's result depends only on its arguments; the fixture
    directory, for one, is `directory=` or the bundled corpus."""
    assert _environment_reads(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_environment_reads():
    src = (
        "import os\n"
        "from os import environ\n"
        "def run():\n"
        "    return os.environ.get('X'), os.getenv('Y'), os.path.sep\n"
    )
    assert _environment_reads(src) == [(2, "environ"), (4, "os.environ"), (4, "os.getenv")]
