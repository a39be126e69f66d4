"""Every name a module imports is read in that module: deletions leave no dead import behind.

The package's `__init__.py` only re-exports, so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "speccut").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_guard_finds_an_unread_import():
    assert unread_imports("import os\nfrom math import pi, e as euler\nprint(pi)\n") == [
        "line 1: os", "line 2: euler",
    ]
    assert unread_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


def test_every_import_is_read():
    assert len(MODULES) > 10
    dead = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := unread_imports(path.read_text()))
    }
    assert not dead, dead
