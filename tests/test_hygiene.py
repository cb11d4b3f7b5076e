"""Source hygiene of the package, checked with the standard library's `ast`.

Every module in `src/qsarbench` must use each name it imports (a name listed
in the module's `__all__` counts as used: it is re-exported), every name
in an `__all__` must be defined at the top level of its module, and every
private top-level name (one leading underscore) must be read by some module
of the package.  Every function, method and class defined in the package
(dunders aside) must be read by some module other than `__init__.py`, so a
definition that only the tests call, or that is only re-exported, does not
stay; `OUTSIDE_CALLERS` lists the few that stay for a caller outside the
package.  Every exception type in `errors.py` must be raised or caught by name
in another module, so a type that no code tells apart does not stay.  No module
reads the process environment (`os.environ`, `os.getenv`), so a run's
settings come from its config and command line only.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qsarbench"
MODULES = sorted(PACKAGE.glob("*.py"))

# Definitions that no module of the package reads, as module.qualname: each
# stays for the caller outside the package, or until the ROADMAP item, named.
OUTSIDE_CALLERS = frozenset({
    "classical.mlp_predict",                  # README
    "quantum.q_predict",                      # README
    "fingerprint.tanimoto",                   # demos/01_smiles_and_fingerprints.py
    "fingerprint.morgan_fingerprint",         # demos/01 and 02, one molecule at a time
    "simulator.apply_single_array",           # demos/03_quantum_circuit.py
    "simulator.parameter_shift_gradient",     # demos/03_quantum_circuit.py, bench/tracer.py
    "quantum.q_gradient",                     # bench/tracer.py
    "pca.PcaModel.from_csv",                  # reads back `qsarbench pca --model-out`
    "harness.load_report",                    # reads back `write_report_files`
    "classical.mlp_gradient",                 # wrappers that ROADMAP item 11 keeps
    "classical.mlp_loss",
    "quantum.q_loss",
    "quantum.QuantumModelParams.from_vector",  # demos/04_train_toy_classifiers.py:71
})


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


def _read_names(trees: dict[str, ast.Module]) -> set[str]:
    """Names that some module in `trees` loads, bare or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def _unread_private_names(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Module -> its private top-level names that no module in `trees` reads."""
    read = _read_names(trees)
    unread = {}
    for module, tree in trees.items():
        private = {name for name in _top_level_definitions(tree) - set(_imported(tree))
                   if name.startswith("_") and not name.startswith("__")}
        if private - read:
            unread[module] = private - read
    return unread


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, name) of each function, method and class under `node`, dunders aside."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield prefix + child.name, child.name
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def _unread_definitions(trees: dict[str, ast.Module], allowed: frozenset[str]) -> set[str]:
    """module.qualname of each definition whose name no module but `__init__.py`
    reads (an `__all__` entry is a string, so it is no read), except `allowed`."""
    read = _read_names({module: tree for module, tree in trees.items()
                        if module != "__init__.py"})
    return {f"{Path(module).stem}.{qualname}"
            for module, tree in trees.items()
            for qualname, name in _definitions(tree) if name not in read} - allowed


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


ENVIRONMENT_NAMES = frozenset({"environ", "environb", "getenv", "getenvb"})


def _environment_reads(tree: ast.Module) -> list[int]:
    """Lines that read the process environment: an `os` environment name taken
    as an attribute or imported from `os`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and \
                any(alias.name in ENVIRONMENT_NAMES for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


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


def test_every_definition_is_read():
    unread = _unread_definitions({path.name: _parse(path) for path in MODULES}, frozenset())
    assert unread <= OUTSIDE_CALLERS, \
        f"definitions that no module of the package reads: {sorted(unread - OUTSIDE_CALLERS)}"
    # an entry whose definition gained a reader in the package, or went, leaves the list
    assert OUTSIDE_CALLERS <= unread, f"stale OUTSIDE_CALLERS: {sorted(OUTSIDE_CALLERS - unread)}"


def test_check_catches_an_unread_definition():
    trees = {
        "__init__.py": ast.parse("from .a import exported\nexported\n__all__ = ['exported']\n"),
        "a.py": ast.parse("def used():\n    pass\ndef unused():\n    pass\n"
                          "def exported():\n    pass\ndef kept():\n    pass\n"
                          "class Model:\n    def __init__(self):\n        pass\n"
                          "    def fit(self):\n        pass\n    def old(self):\n        pass\n"),
        "b.py": ast.parse("from a import Model, used\nused()\nModel().fit()\n"),
    }
    assert _unread_definitions(trees, frozenset({"a.kept"})) == {
        "a.unused", "a.exported", "a.Model.old"}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    lines = _environment_reads(_parse(path))
    assert not lines, f"{path.name} reads the process environment on lines {lines}; " \
        "a run setting belongs in ExperimentConfig or on the command line"


def test_check_catches_environment_reads():
    tree = ast.parse(
        "import os\nimport os as system\nfrom os import getenv, path\n"
        "workers = os.environ.get('WORKERS')\nthreads = system.getenv('THREADS')\n"
        "home = os.environ['HOME']\nroot = path.join('a', 'b')\n"
        "def f():\n    from os import environ\n    return os.sep\n"
    )
    assert _environment_reads(tree) == [3, 4, 5, 6, 9]
