"""A stdlib stand-in for a linter: every name a module imports is used in it,
and every top-level function or class of the package, and every method of
such a class, has a caller in the package or the benchmark (a test alone
does not keep a definition alive). Importing the kit loads no YAML parser."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "poabcast").glob("*.py"))
READERS = sorted(
    path
    for top in ("src", "perfbench")
    for path in (ROOT / top).rglob("*.py")
    if "tests" not in path.relative_to(ROOT).parts
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ and quoted forward references count as uses
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    unused = (name for name in imported if name not in used)
    return sorted(f"line {imported[name]}: {name}" for name in unused)


def test_the_checker_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import Any, Dict\nx: Dict = {}\n") == [
        "line 1: os",
        "line 2: Any",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def mentions(tree: ast.AST) -> Counter:
    """Identifiers named in a tree: names, attributes, imported names and
    string constants (``getattr`` targets, ``__all__`` entries)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of those classes but the dunders, which the language calls."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def dead_definitions(modules: dict, package: list) -> list:
    """Definitions of the ``package`` modules that no module in ``modules``
    (path -> source) names outside the definition itself."""
    trees = {path: ast.parse(source) for path, source in modules.items()}
    named = sum((mentions(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{path}: {name}"
        for path in package
        for name, node in definitions(trees[path])
        if named[node.name] - mentions(node)[node.name] <= 0
    )


def test_the_checker_finds_a_dead_definition():
    modules = {
        "lib": "def used():\n    return 1\n\ndef recursive(n):\n    return recursive(n - 1)\n"
        "\nclass Spare:\n    pass\n"
        "\nclass Kept:\n    def __len__(self):\n        return 0\n"
        "\n    def called(self):\n        return 1\n"
        "\n    def spare(self):\n        return self.spare()\n",
        "user": "from lib import Kept, used\nprint(used(), Kept().called())\n",
    }
    assert dead_definitions(modules, ["lib"]) == ["lib: Kept.spare", "lib: Spare", "lib: recursive"]


def test_every_package_definition_is_named_outside_itself():
    modules = {path: path.read_text() for path in READERS}
    assert dead_definitions(modules, PACKAGE) == []


def test_importing_the_kit_loads_no_yaml_parser():
    # only Scenario.from_yaml parses YAML, so only a parse pays PyYAML's start-up
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import poabcast.bench, poabcast.checker, poabcast.runner, poabcast.scenario, "
        "poabcast.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))"
    )
    run = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
