"""Every module-level import in ``src/`` and ``tests/`` is read in its module.

An ``import a.b`` counts as read where the code reads ``a.b`` or an attribute of it, not ``a`` alone.
Exempt are ``from __future__`` imports, the re-exports of ``__init__.py``, and imports kept for their
side effect, whose line carries a comment starting ``# loaded``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")] if p.name != "__init__.py")


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def unused_imports(source: str) -> list[str]:
    """The names that the module-level imports of ``source`` bind and that its code never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) and (name := _dotted(node)):
            parts = name.split(".")
            reads.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if "# loaded" in lines[node.lineno - 1]:
            continue
        unused += [alias.asname or alias.name for alias in node.names if (alias.asname or alias.name) not in reads]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    ("source", "unused"),
    [
        ("import os\n", ["os"]),
        ("import os\nos.getcwd()\n", []),
        ("import os.path\nos.getcwd()\n", ["os.path"]),
        ("import os.path\nos.path.join('a')\n", []),
        ("import numpy as np\nx: np.ndarray\n", []),
        ("from math import pi, tau\nprint(tau)\n", ["pi"]),
        ("from x import y as z\ny = 1\n", ["z"]),
        ("from __future__ import annotations\n", []),
        ("import scipy.special  # loaded for its side effect\n", []),
        ("def f():\n    import os\n", []),
    ],
)
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused
