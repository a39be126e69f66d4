"""Every module-level function, class and constant of the package is read somewhere.

A name counts as read when an expression outside its own definition, in
`src/`, `tests/` or `perfbench/`, loads it as a name or as an attribute, or
when perfbench's tracer lists it as a string in `ENTRY_POINTS`. Imports do
not count: `__init__.py` only re-exports, so it defines nothing and reads
nothing. A helper left behind by a deletion fails here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "speccut").glob("*.py") if p.name != "__init__.py")
READERS = sorted(
    path for folder in ("src", "tests", "perfbench") for path in (ROOT / folder).rglob("*.py")
)


def names_read(tree: ast.AST) -> Counter:
    """How often each identifier is loaded as a name or an attribute within `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """The module's top-level functions, classes and assigned names, each with its statement."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        defined[node.id] = stmt
    return defined


def entry_point_strings(tree: ast.Module) -> set[str]:
    """The strings inside the module's `ENTRY_POINTS = ...` assignment."""
    return {
        node.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in stmt.targets)
        for node in ast.walk(stmt.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unread_definitions(modules: dict[str, str], readers: list[str], traced=frozenset()):
    """`module: name` for each definition of `modules` that nothing outside it reads."""
    reads = sum((names_read(ast.parse(source)) for source in readers), Counter())
    dead = []
    for module, source in modules.items():
        for name, stmt in definitions(ast.parse(source)).items():
            if name not in traced and reads[name] <= names_read(stmt)[name]:
                dead.append(f"{module}: {name}")
    return dead


def test_guard_finds_an_unread_definition():
    source = (
        "LIMIT = 3\nUNUSED = 4\n"
        "def helper(n):\n    return helper(n - 1) if n else LIMIT\n"
        "def traced():\n    pass\n"
        "class Box:\n    def make(self) -> 'Box':\n        return Box()\n"
    )
    reader = "import m\nm.helper(2)\n"
    assert unread_definitions({"m": source}, [source, reader], {"traced"}) == [
        "m: UNUSED", "m: Box",
    ]
    assert unread_definitions({"m": source}, [source], {"traced"}) == [
        "m: UNUSED", "m: helper", "m: Box",
    ]


def test_every_definition_is_read():
    assert len(PACKAGE) >= 5 and len(READERS) > 15
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = entry_point_strings(tracer)
    assert {"make_problem", "select_all", "check_example1"} <= traced
    dead = unread_definitions(
        {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE},
        [p.read_text() for p in READERS],
        traced,
    )
    assert not dead, dead
