"""`src/latbool` ships only what the library runs.

Every top-level function and class, and every method, must be referenced
by name somewhere in `src/latbool` or be exported by `latbool.__all__`.
Code that only the tests call belongs under `tests/` (see `brute.py`).
"""

import ast
from pathlib import Path

import latbool

SRC = Path(__file__).resolve().parents[1] / "src" / "latbool"
# perfbench builds its workloads from the fixtures module
EXEMPT_MODULES = {"fixtures"}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class and of
    each method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item


def _is_command(node) -> bool:
    """Registered as a CLI command with `@main.command(...)`."""
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (isinstance(f, ast.Attribute) and f.attr == "command"
                and isinstance(f.value, ast.Name) and f.value.id == "main"):
            return True
    return False


def unreferenced_definitions(trees: dict[str, ast.Module]) -> list[str]:
    used = set(latbool.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        f"{module}.{qual}" for module, tree in trees.items()
        if module not in EXEMPT_MODULES
        for qual, node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and not _is_command(node) and node.name not in used)


def test_every_definition_in_src_is_used_or_exported():
    assert unreferenced_definitions(_trees()) == []


def test_layout_rule_flags_unreferenced_functions_and_methods():
    trees = _trees()
    trees["oracle"].body += ast.parse(
        "def only_tests_call_this():\n    pass\n"
        "class Holder:\n"
        "    def __init__(self):\n        pass\n"
        "    def unused_method(self):\n        pass\n").body
    assert unreferenced_definitions(trees) == [
        "oracle.Holder", "oracle.Holder.unused_method",
        "oracle.only_tests_call_this"]
