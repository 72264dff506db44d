"""Every name a chainfold or test module imports is used (a stdlib
stand-in for F401), and every module-level `_private` name it defines is
read in it. Every public function, class and method chainfold defines is
named by chainfold, the benchmark or the acceptance tests, and every
optional parameter of its functions is passed by one of their calls. Every
exception chainfold defines is one the CLI maps to an exit status, no
chainfold module calls a BLAS-backed numpy routine or draws numpy's
typed integers itself, only `encoding` constructs a `TapeEntry`, the CLI
leaves the trace's JSON layout to kinematics, and only the CLI reads the
environment.

An import kept on purpose, such as a re-export, carries `# noqa: F401` on
its statement. A private helper that no line of its own module reads is
left over from a change that stopped calling it. A public name that only
its own unit tests call is either deleted or listed in `_TEST_ONLY` with
the reason it stays, and so is an optional parameter that only they pass,
in `_DEFAULT_ONLY`.
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


def _public_defs(source: str) -> list[str]:
    """Public module-level functions and classes, and public classes' public methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            members = node.body if isinstance(node, ast.ClassDef) else []
            found += [node.name] + [m.name for m in members if isinstance(m, defs[:2])]
    return [name for name in found if not name.startswith("_")]


def _named(source: str) -> set[str]:
    """Every name an expression, attribute or import in `source` spells."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def _unread_publics(defining: dict[str, str], readers: list[str]) -> list[str]:
    """`module.name` for each public definition that no reader names."""
    read = set().union(*map(_named, readers))
    return sorted(
        f"{module}.{name}"
        for module, source in defining.items()
        for name in _public_defs(source)
        if name not in read
    )


# public names that no command, benchmark or acceptance test calls, and why each stays
_TEST_ONLY = {
    "encoding.flip_end_over_end": "paper concept: a tape entering the machine from the wrong end",
    "folding.structure_stats": "paper concept: a structure's kind histogram and information content",
    "folding.swap_hinges_and_lr": "paper concept: the hinge-and-handedness mirror of a chain",
    "geometry.rotation_group": "paper concept: the 24 proper rotations of the cubic lattice",
    "mdl.validate": "the chain-language lint that README documents",
    "protoevolution.mhbbg_trial": "paper concept: one glued blob of the self-copy experiment",
}


def test_every_public_name_has_a_reader():
    here = Path(__file__).parent
    readers = MODULES + sorted((here.parent / "perfbench").glob("*.py"))
    readers.append(here / "test_acceptance.py")
    defining = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    unread = _unread_publics(defining, [p.read_text(encoding="utf-8") for p in readers])
    assert unread == sorted(_TEST_ONLY)


def test_the_check_sees_a_public_name_with_no_reader():
    defining = {
        "shapes": (
            "def read():\n"
            "    def inner(): ...\n"
            "def orphan(): ...\n"
            "def _private(): ...\n"
            "class Shape:\n"
            "    def area(self): ...\n"
            "    def unread(self): ...\n"
            "    def __len__(self): ...\n"
            "class _Hidden:\n"
            "    def ignored(self): ...\n"
        ),
    }
    readers = ["from shapes import read as r\n", "import shapes\nshapes.Shape().area()\n"]
    assert _unread_publics(defining, readers) == ["shapes.orphan", "shapes.unread"]


def _optional_params(source: str) -> list[tuple[str, int | None, str]]:
    """(function, position, parameter) for each parameter with a default of
    each function defined at any depth; a keyword-only one has no position,
    and a method's positions leave out the `self` or `cls` a call binds."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        for node in ast.iter_child_nodes(scope):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            bound = isinstance(scope, ast.ClassDef) and not static
            positional = (args.posonlyargs + args.args)[bound:]
            first = len(positional) - len(args.defaults)
            found += [(node.name, i, a.arg) for i, a in enumerate(positional) if i >= first]
            kwonly = zip(args.kwonlyargs, args.kw_defaults)
            found += [(node.name, None, a.arg) for a, d in kwonly if d is not None]
    return found


def _unpassed_optionals(defining: dict[str, str], readers: list[str]) -> list[str]:
    """`module.function.parameter` for each parameter with a default that no
    call in a reader passes to a function of that name, by keyword or by
    position; a `*` argument reaches every later position, and a `**`
    argument passes every parameter."""
    reach: dict[str, float] = {}  # the most positions a call to that name fills
    keywords = set()  # (name, keyword), and (name, None) for a `**`
    for source in readers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            filled = float("inf") if starred else len(call.args)
            reach[name] = max(reach.get(name, 0), filled)
            keywords.update((name, k.arg) for k in call.keywords)
    return sorted(
        f"{module}.{function}.{param}"
        for module, source in defining.items()
        for function, position, param in _optional_params(source)
        if not (
            keywords & {(function, param), (function, None)}
            or position is not None and reach.get(function, 0) > position
        )
    )


# optional parameters that no command, benchmark or acceptance test passes,
# and why each stays
_DEFAULT_ONLY = {
    "copier.run_copy.max_cycles": (
        "the same budget and errors as `seeded_copy`, to which the CLI passes --max-cycles"
    ),
    "corpus.load_fixture.directory": "it mirrors `load_manifest`'s `directory`",
    "kinematics.world_from_chain.fold_delay": "the static-fold congruence tests fold from tick 0",
    "mdl.validate.profile": "README documents it",
    "protoevolution.info_content.profile": "paper concept: a wider alphabet costs more bits",
    "protoevolution.mhbbg_trial.forced_stream": "`mhbbg_trial` is on `_TEST_ONLY`",
    "protoevolution.mhbbg_trial.rng": "`mhbbg_trial` is on `_TEST_ONLY`",
}


def test_every_optional_parameter_is_passed():
    here = Path(__file__).parent
    readers = MODULES + sorted((here.parent / "perfbench").glob("*.py"))
    readers.append(here / "test_acceptance.py")
    defining = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    unpassed = _unpassed_optionals(defining, [p.read_text(encoding="utf-8") for p in readers])
    assert unpassed == sorted(_DEFAULT_ONLY)


def test_the_check_sees_an_optional_parameter_no_call_passes():
    defining = {
        "shapes": (
            "def scale(shape, factor=1, *, unit='cm', strict=False): ...\n"
            "def draw(shape, colour=None, width=1): ...\n"
            "def fill(shape, colour=None): ...\n"
            "def _render(shape, dpi=72):\n"
            "    def pad(margin=0): ...\n"
            "class Shape:\n"
            "    def area(self, exact=False): ...\n"
            "    def grow(self, by=1): ...\n"
            "    @staticmethod\n"
            "    def unit(name='cm'): ...\n"
        ),
    }
    readers = [
        "from shapes import scale, draw, fill, Shape\n"
        "scale(s, 2, strict=True)\n"
        "draw(s, 'red')\n"
        "fill(*args)\n"
        "shapes._render(s, **opts)\n"
        "Shape().area(True)\n"
        "Shape.unit()\n"
    ]
    assert _unpassed_optionals(defining, readers) == [
        "shapes.draw.width",
        "shapes.grow.by",
        "shapes.pad.margin",
        "shapes.scale.unit",
        "shapes.unit.name",
    ]


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


def _typed_integers(source: str) -> list[int]:
    """Lines of `.integers(...)` calls that pass a `dtype`: numpy's uint8
    stream is spelled once, by `pcg64.Draws`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "integers"
        and any(kw.arg == "dtype" for kw in node.keywords)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_draws_typed_integers_from_numpy(path):
    assert _typed_integers(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_typed_integers():
    src = (
        "import numpy as np\n"
        "rng = np.random.default_rng(3)\n"
        "a = rng.integers(0, 6, size=4, dtype=np.uint8)\n"
        "b = rng.integers(0, 10)\n"
        "c = np.random.default_rng(4).integers(\n"
        "    0, 4, size=9, dtype='u1'\n"
        ")\n"
        "d = integers(0, 6, dtype=np.uint8) + stream.integers(6, 4)\n"
    )
    assert _typed_integers(src) == [3, 5]


def _entry_constructions(source: str) -> list[int]:
    """Lines of `TapeEntry(...)` calls: `encoding` alone decides which
    object stands for a (kind, flip), and hands out one shared entry each."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and "TapeEntry" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "encoding.py"], ids=lambda p: p.name
)
def test_only_encoding_constructs_tape_entries(path):
    assert _entry_constructions(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_tape_entry_constructions():
    src = (
        "from . import encoding\n"
        "from .encoding import TapeEntry, tape_from_kinds\n"
        "slot: TapeEntry = tape_from_kinds(['G0_'])[0]\n"
        "a = TapeEntry('G0_', True)\n"
        "b = encoding.TapeEntry(\n"
        "    'b__'\n"
        ")\n"
        "c = isinstance(a, TapeEntry) and TapeEntryish('H__')\n"
    )
    assert _entry_constructions(src) == [4, 5]


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
