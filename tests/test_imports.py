"""Every module under src/, tests/ and demos/ uses what it imports.

No linter is configured, so this AST scan is the guard.  Package
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
