"""Every top-level definition of the package has a consumer, every oracle
of ``tests/oracles.py`` has a test, no module imports what it never uses,
and no exception type only renames its base.

A function, class or module constant of ``src/mcqkd`` passes when another
definition of the package uses it, when ``tests/test_acceptance.py`` or the
console script in ``pyproject.toml`` uses it, when the benchmark traces it
(``perfbench.tracing.TRACED``), or when ``KEEP`` below lists it with the
ROADMAP item that will consume it.  Anything else is code that no subcommand
and no acceptance check runs; it goes, or it comes back with a consumer.
``KEEP`` is empty: a future entry must name the ROADMAP item that consumes it.

A use goes through a binding: a loaded bare name counts only where a package
import or a top-level definition of the same module binds it, and an
attribute ``alias.name`` only where ``alias`` is bound to a package module.
A field or attribute that merely shares a definition's name does not count.
"""

import ast
import importlib.util
import re
from pathlib import Path

from mcqkd import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcqkd"

# name -> the ROADMAP open item (or check) that consumes it
KEEP = {}


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _package_imports(tree) -> tuple:
    """What the package imports anywhere in ``tree`` bind: local name ->
    ``module.name`` for ``from .module import name``, and local name ->
    ``module`` for ``from . import module`` (or the ``mcqkd`` spellings)."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and node.module.partition(".")[0] == "mcqkd":
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if source is None:
                modules[local] = alias.name
            else:
                names[local] = f"{source}.{alias.name}"
    return names, modules


def _uses(node, names: dict, modules: dict) -> set:
    """The package definitions that ``node`` loads through a binding."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in names:
                used.add(names[sub.id])
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
              and sub.value.id in modules):
            used.add(f"{modules[sub.value.id]}.{sub.attr}")
    return used


def _definitions() -> dict:
    """``module.name`` -> (its node, the package definitions that node uses)."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = _package_imports(tree)
        top = [(node, _defined_names(node)) for node in tree.body]
        names.update({name: f"{path.stem}.{name}" for _, defined in top for name in defined})
        for node, defined in top:
            if defined:
                uses = _uses(node, names, modules)
                defs.update({f"{path.stem}.{name}": (node, uses) for name in defined})
    return defs


def _traced() -> dict:
    """``perfbench.tracing.TRACED``, imported from its file so that the test
    runs from any working directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def unconsumed() -> list:
    defs = _definitions()
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    roots = _uses(acceptance, *_package_imports(acceptance))
    roots |= {f"{mod}.{fn}" for mod, fn in
              re.findall(r'"mcqkd\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())}
    roots |= {f"{mod}.{fn.split('.')[0]}" for mod, fns in _traced().items() for fn in fns}
    missing = []
    for qualname, (node, _) in defs.items():
        if qualname.split(".", 1)[1].startswith("__") or qualname in roots or qualname in KEEP:
            continue
        if not any(qualname in uses for other, uses in defs.values() if other is not node):
            missing.append(qualname)
    return missing


def test_every_definition_has_a_consumer():
    assert unconsumed() == []


def test_keep_list_names_only_definitions():
    assert set(KEEP) <= set(_definitions())


def unused_oracles() -> list:
    """The top-level functions of ``tests/oracles.py`` that no test module
    uses through an import of ``oracles``."""
    tests = ROOT / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    used = set()
    for path in sorted(tests.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                names.update({a.asname or a.name: f"oracles.{a.name}" for a in node.names})
            elif isinstance(node, ast.Import):
                modules.update({a.asname or a.name: "oracles" for a in node.names
                                if a.name == "oracles"})
        used |= _uses(tree, names, modules)
    return [node.name for node in oracles.body
            if isinstance(node, ast.FunctionDef) and f"oracles.{node.name}" not in used]


def test_every_oracle_has_a_test():
    assert unused_oracles() == []


def unused_imports(path: Path) -> list:
    """``file:line: name`` for each top-level import of ``path`` that binds a
    name the module never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                   for name in bound if name not in loaded]
    return unused


def test_every_import_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [line for path in paths for line in unused_imports(path)] == []


def name_only_error_types() -> list:
    """The exception classes of ``errors`` that neither define their own
    ``__init__`` nor are named in an ``except`` clause of ``cli.main``: a
    type that adds nothing to its base and that no caller tells apart."""
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in cli.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {name.id for handler in ast.walk(main)
              if isinstance(handler, ast.ExceptHandler) and handler.type
              for name in ast.walk(handler.type) if isinstance(name, ast.Name)}
    return [name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == errors.__name__
            and "__init__" not in vars(value) and name not in caught]


def test_every_error_type_has_a_reason():
    assert name_only_error_types() == []
