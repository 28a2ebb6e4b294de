"""No module imports a name it never uses.

A name counts as used when it is referenced anywhere in the module
(quoted annotations included) or listed in the module's ``__all__``,
which is how a module re-exports on purpose. The scan reads
``benchmarks/reference/`` like every other file and changes nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "tests")


def _names(expr: ast.AST) -> set:
    """Names ``expr`` refers to, looking inside quoted annotations."""
    names = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list:
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
        for field in ("annotation", "returns"):  # args, defs, AnnAssign
            if getattr(node, field, None) is not None:
                used |= _names(getattr(node, field))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_every_imported_name_is_used_or_exported():
    offenders = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            for line, name in unused_imports(source):
                offenders.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert offenders == []


def test_an_unused_import_is_reported_with_its_line():
    source = "import os\nfrom json import dumps, loads\nprint(loads)\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


def test_annotations_all_and_dotted_imports_count_as_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Optional, List\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Optional[int]') -> List:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == []
