"""Every name the package exports has a use outside the tests."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dephasim"


def exported_names() -> set[str]:
    """The names dephasim/__init__.py imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def names_used_in_code() -> set[str]:
    """Every Name and Attribute in the package's other modules."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def words_in_docs_and_tools() -> set[str]:
    """Every word of README.md and of the .py and .md files under scripts/ and perfbench/."""
    paths = [ROOT / "README.md"]
    for folder in ("scripts", "perfbench"):
        paths += [p for p in (ROOT / folder).rglob("*") if p.suffix in (".py", ".md")]
    return {word for path in paths for word in re.findall(r"\w+", path.read_text())}


def test_every_export_is_used_outside_the_tests():
    # a helper that only tests call belongs in tests/util.py, not in the package
    unused = exported_names() - names_used_in_code() - words_in_docs_and_tools()
    assert sorted(unused) == []


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one dependency pyproject.toml names: every other import is relative
    # or of a standard-library module
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            allowed = {"numpy", *sys.stdlib_module_names}
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in allowed]
    assert outside == []
