"""Every public function, class and method of `survmix` is named by the
program itself: by a module under `src/` or by the benchmark under
`perfbench/`.  Public code that only tests call is code to delete, or to
move into the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# `entrypoint` is the console script that pyproject.toml names.
KEPT = {"entrypoint"}


def parse(directory):
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(directory.rglob("*.py"))]


def public_definitions(tree):
    """Public top-level functions and classes, and public methods as
    'Class.method'."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def names_used(tree):
    """Every identifier the module reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_no_public_code_that_only_tests_use():
    sources = parse(ROOT / "src" / "survmix")
    used = {name for tree in sources + parse(ROOT / "perfbench")
            for name in names_used(tree)}
    unused = sorted(qualified for tree in sources
                    for qualified in public_definitions(tree)
                    if qualified.rsplit(".", 1)[-1] not in used
                    and qualified not in KEPT)
    assert unused == []


def test_kept_names_still_exist():
    defined = {qualified for tree in parse(ROOT / "src" / "survmix")
               for qualified in public_definitions(tree)}
    assert KEPT <= defined
