"""Every module under src/, tests/ and demos/ uses what it imports, and every
public function and class of the package has a caller outside the tests.

No linter is configured, so these AST scans are the guard.  Package
``__init__.py`` files are exempt: their imports are the public re-exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(source: str) -> list[str]:
    """Names the module imports and never reads.  A name is read when it
    appears as a Name node anywhere (an attribute chain starts with one)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_guard_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.sqrt(pi))\n"
    assert _unused_imports(source) == ["os", "tau"]


def test_no_unused_imports():
    files = [
        p
        for folder in ("src", "tests", "demos")
        for p in sorted((ROOT / folder).rglob("*.py"))
        if p.name != "__init__.py"
    ]
    assert len(files) > 10
    unused = {str(p.relative_to(ROOT)): _unused_imports(p.read_text()) for p in files}
    assert {k: v for k, v in unused.items() if v} == {}


# -- dead code ------------------------------------------------------------------

#: public names that no program file reads, each kept for a stated reason
KEPT = {
    "from_json": "the load half of lossless save/load; ROADMAP item 4 gives it a reader",
    "model_sx": "test_layout.py checks it against the SX counts of built circuits",
}


def _public_defs(source: str) -> list[str]:
    """Public top-level functions and classes a module defines."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _reads(source: str) -> set[str]:
    """Names a module reads: Name loads, attribute names, and string
    constants (a ``getattr(module, "name")`` lookup)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _unread(defining: list[str], reading: list[str]) -> list[str]:
    """Public definitions in ``defining`` that no source in ``reading`` reads."""
    read = set().union(*map(_reads, reading))
    return sorted({name for src in defining for name in _public_defs(src)} - read)


def test_guard_flags_an_unread_definition():
    defining = "def used(): pass\ndef by_name(): pass\ndef unused(): pass\nclass _Private: pass\n"
    reading = "import m\nm.used()\ngetattr(m, 'by_name')\ndef unused(): pass\n"
    assert _unread([defining], [reading]) == ["unused"]


def test_no_unread_public_definitions():
    package = sorted((ROOT / "src" / "qftmcu").glob("*.py"))
    readers = package + sorted((ROOT / "bench").rglob("*.py")) + sorted((ROOT / "demos").rglob("*.py"))
    defining = [p.read_text() for p in package if p.name != "__init__.py"]
    assert len(defining) > 5
    assert _unread(defining, [p.read_text() for p in readers]) == sorted(KEPT)
