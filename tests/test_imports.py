"""Every name a chainfold module imports is used (a stdlib stand-in for F401).

An import kept on purpose, such as a re-export, carries `# noqa: F401` on
its statement.
"""

import ast
from pathlib import Path

import pytest

import chainfold

MODULES = sorted(Path(chainfold.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
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
