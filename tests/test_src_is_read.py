"""Every public top-level name in ``src/rieszwalk`` has a reader.

``src/`` holds what the CLI runs.  A public function, class or constant that
nothing else in ``src/`` reads, and that ``bench/`` does not reach either,
serves only the tests, so it belongs in ``tests/oracles.py``.  A name counts
as read where a statement other than its own definition loads it (as
``name`` or ``module.name``) or imports it; in ``bench/`` also where it is
spelled as a string, since the benchmark names the functions it traces as
``(module, "name")``.  The check reads the sources with ``ast`` and imports
nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rieszwalk"
BENCH = ROOT / "bench"


def sources(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(directory.glob("*.py"))}


def defined(node: ast.stmt) -> set[str]:
    """The public names a top-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {target.id for target in targets if isinstance(target, ast.Name)}
    else:
        names = set()
    return {name for name in names if not name.startswith("_")}


def read(node: ast.AST, strings: bool) -> set[str]:
    """The names ``node`` loads or imports; with ``strings``, its string constants too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unread(package: dict[str, str], bench: dict[str, str]) -> list[str]:
    """``module.name`` for each public top-level name of ``package`` that nothing reads."""
    statements = [
        (module, node)
        for module, text in package.items()
        for node in ast.parse(text).body
    ]
    reads = [read(node, strings=False) for _, node in statements]
    bench_reads = set()
    for text in bench.values():
        bench_reads |= read(ast.parse(text), strings=True)
    found = []
    for i, (module, node) in enumerate(statements):
        others = bench_reads.union(*reads[:i], *reads[i + 1 :])
        found += [f"{module}.{name}" for name in defined(node) - others]
    return sorted(found)


def test_every_public_name_in_src_is_read():
    package, bench = sources(PACKAGE), sources(BENCH)
    assert "cli" in package and "walk" in package and "layers" in bench
    assert unread(package, bench) == []


def test_the_check_sees_every_unread_name():
    package = {
        "a": (
            "X = 1\n_PRIVATE = 2\n\n"
            "def used():\n    return helper()\n\n"
            "def helper():\n    return 0\n\n"
            "def lonely():\n    return lonely()\n\n"
            "class Traced:\n    pass\n\n"
            "class Stored:\n    pass\n"
        ),
        "b": 'from .a import used\n\nY: int = used()\nprint("X")\nused.Stored = 0\n',
    }
    bench = {"run": 'import a\n\nTRACED = [(a, "Traced")]\n'}
    assert unread(package, bench) == ["a.Stored", "a.X", "a.lonely", "b.Y"]
