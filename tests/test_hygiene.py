"""Source hygiene of the package, checked with the standard library's `ast`.

Every module in `src/qsarbench` must use each name it imports (a name listed
in the module's `__all__` counts as used: it is re-exported), every name
in an `__all__` must be defined at the top level of its module, and every
private top-level name (one leading underscore) must be read by some module
of the package.  Every exception type in `errors.py` must be raised or caught
by name in another module, so a type that no code tells apart does not stay.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qsarbench"
MODULES = sorted(PACKAGE.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import anywhere in the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _top_level_definitions(tree: ast.Module) -> set[str]:
    defined = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return defined


def _unused_imports(tree: ast.Module) -> dict[str, int]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    return {name: line for name, line in _imported(tree).items() if name not in used}


def _undefined_exports(tree: ast.Module) -> set[str]:
    return set(_exported(tree)) - _top_level_definitions(tree)


def _unread_private_names(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Module -> its private top-level names that no module in `trees` reads."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {}
    for module, tree in trees.items():
        private = {name for name in _top_level_definitions(tree) - set(_imported(tree))
                   if name.startswith("_") and not name.startswith("__")}
        if private - read:
            unread[module] = private - read
    return unread


def _raised_or_caught(tree: ast.Module) -> set[str]:
    """Names a `raise` or an `except` clause of the module names."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            named.update(n.id for n in ast.walk(exc) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            named.update(n.id for n in ast.walk(node.type) if isinstance(n, ast.Name))
    return named


def test_package_modules_found():
    assert {"data.py", "harness.py", "__init__.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    unused = _unused_imports(_parse(path))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_exported_name_is_defined(path):
    missing = _undefined_exports(_parse(path))
    assert not missing, f"{path.name} lists undefined names in __all__: {sorted(missing)}"


def test_every_private_name_is_read():
    unread = _unread_private_names({path.name: _parse(path) for path in MODULES})
    assert not unread, f"private top-level names that no module reads: {unread}"


def test_checks_catch_an_unused_import_and_an_undefined_export():
    tree = ast.parse(
        "import os\nfrom json import dumps\nTABLE: dict = {}\n"
        "__all__ = ['TABLE', 'dumps', 'ghost']\n"
    )
    assert list(_unused_imports(tree)) == ["os"]
    assert _undefined_exports(tree) == {"ghost"}


def test_check_catches_an_unread_private_name():
    trees = {
        "a.py": ast.parse("_LIMIT = 3\n_OLD: int = 1\ndef _helper():\n    return _LIMIT\n"
                          "class _Gone:\n    pass\n__all__ = []\n"),
        "b.py": ast.parse("from a import _helper\n_helper()\ndef _unused(x):\n    return x\n"),
    }
    assert _unread_private_names(trees) == {"a.py": {"_OLD", "_Gone"}, "b.py": {"_unused"}}


def test_every_error_type_is_raised_or_caught_elsewhere():
    errors = _parse(PACKAGE / "errors.py")
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    named = set().union(*(_raised_or_caught(_parse(path)) for path in MODULES
                          if path.name != "errors.py"))
    assert defined - named == set(), f"error types no other module raises or catches: " \
        f"{sorted(defined - named)}"


def test_check_finds_raised_and_caught_names():
    tree = ast.parse(
        "try:\n    raise Bad('x')\nexcept (Worse, Other):\n    raise Plain\n"
        "except Single as exc:\n    raise Wrapped(str(exc)) from exc\nUnused = 1\n"
    )
    assert _raised_or_caught(tree) == {"Bad", "Worse", "Other", "Plain", "Single", "Wrapped"}
