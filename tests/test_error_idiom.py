"""The package and its tests signal bad input with plain ``ValueError``.

Every error on the CLI's path ends in the one ``except ValueError`` of
``cli.main``, and no caller tells one kind of bad input from another, so
neither ``src/rieszwalk`` nor the test modules and oracles in ``tests``
define an exception class of their own; a test names an error by its
message.  The check reads the source with ``ast`` and imports nothing.
"""

import ast
import builtins
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "rieszwalk"

BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def base_names(node: ast.ClassDef) -> set[str]:
    """The last name of each base: ``ValueError`` for ``builtins.ValueError`` too."""
    names = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def exception_classes(sources: dict[str, str]) -> list[str]:
    """``module.Class`` for every class in ``sources`` derived from an exception.

    A class counts when a base is a built-in exception or, at any depth, a
    class that counts.
    """
    classes = [
        (module, node)
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    ]
    exceptions, found = set(BUILTIN_EXCEPTIONS), set()
    grew = True
    while grew:
        grew = False
        for module, node in classes:
            name = f"{module}.{node.name}"
            if name not in found and base_names(node) & exceptions:
                found.add(name)
                exceptions.add(node.name)
                grew = True
    return sorted(found)


def test_package_defines_no_exception_class():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli" in sources and "walk" in sources
    assert exception_classes(sources) == []


def test_tests_define_no_exception_class():
    sources = {path.stem: path.read_text() for path in sorted(TESTS.glob("*.py"))}
    assert "oracles" in sources and "test_walk" in sources
    assert exception_classes(sources) == []


def test_the_check_sees_every_exception_class():
    sources = {
        "a": "class Late(Early):\n    pass\n\nclass Plain:\n    pass\n",
        "b": (
            "import builtins\n\n"
            "class Early(ValueError):\n    pass\n\n"
            "class Qualified(builtins.LookupError):\n    pass\n\n"
            "def f():\n    class Nested(Exception):\n        pass\n"
        ),
    }
    assert exception_classes(sources) == ["a.Late", "b.Early", "b.Nested", "b.Qualified"]
