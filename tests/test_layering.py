"""No module of the package reads a private name that another of its modules defines.

A private name (one leading underscore) is a module's own business, so a
reader of it elsewhere couples two modules through a detail that neither
documents.  The rule is read from the source with `ast`, so nothing is
imported or run.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qlinsys"


def _private(name: str) -> bool:
    return len(name) > 1 and name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module defines: functions, classes, methods, and names or attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {name for name in names if _private(name)}


def _from_package(node: ast.AST) -> bool:
    """Whether the node is a `from` import out of the package, relative or absolute."""
    return isinstance(node, ast.ImportFrom) and bool(node.level or (node.module or "").startswith("qlinsys"))


def _package_imports(tree: ast.Module, modules) -> set[str]:
    """Local names under which a module imports a sibling module, as in `from . import sim`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if _from_package(node)
        for alias in node.names
        if alias.name in modules
    }


def violations(sources: dict[str, str]) -> list[str]:
    """Each read of another module's private name, as "module:line name", for sources keyed by module name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = {name: _defined(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(names for other, names in defined.items() if other != name))
        siblings = _package_imports(tree, trees)
        for node in ast.walk(tree):
            if _from_package(node):
                found += [f"{name}:{node.lineno} {a.name}" for a in node.names if _private(a.name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and _private(node.attr):
                of_sibling = isinstance(node.value, ast.Name) and node.value.id in siblings
                if of_sibling or (node.attr in elsewhere and node.attr not in defined[name]):
                    found.append(f"{name}:{node.lineno} {node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert violations(sources) == []


def test_the_rule_finds_each_kind_of_read():
    sources = {
        "sim": "class Circuit:\n    @property\n    def _checked_ops(self): return ()\n_TABLE = {}\n",
        "qasm": "def export(circuit):\n    return circuit._checked_ops\n",
        "synth": "from . import sim\ndef size():\n    return len(sim._TABLE)\n",
        "tomo": "from .sim import _TABLE\n",
        "own": "class Gate:\n    def __init__(self):\n        self._kind = 1\n    def kind(self):\n        return self._kind\n",
    }
    assert violations(sources) == ["qasm:2 _checked_ops", "synth:3 _TABLE", "tomo:1 _TABLE"]


#: The sibling modules each module may import.  `cli` and `__init__` stand
#: on top and may import any; every other module must be listed here.
ALLOWED_IMPORTS = {
    "errors": set(),
    "family": {"errors"},
    "linsys": {"errors"},
    "sim": {"errors"},
    "synth": {"sim", "errors"},
    "tomo": {"sim", "errors"},
    "grover": {"sim", "errors"},
    "qasm": {"sim", "errors"},
}


def imported_modules(tree: ast.Module, modules) -> set[str]:
    """The sibling modules a module imports anywhere, function-local imports included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("qlinsys.")}
        elif _from_package(node):
            module = (node.module or "").removeprefix("qlinsys").strip(".")
            found |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return found & set(modules)


def test_modules_import_only_the_layers_below_them():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert set(sources) - {"cli", "__init__"} == set(ALLOWED_IMPORTS)
    for name, text in sources.items():
        if name in ALLOWED_IMPORTS:
            assert imported_modules(ast.parse(text), sources) <= ALLOWED_IMPORTS[name], name


def test_the_import_rule_reads_every_form():
    modules = {"sim", "errors", "family", "linsys"}
    source = (
        "from . import sim\nfrom .errors import ValidationError\nimport qlinsys.linsys\n"
        "def catalog():\n    from qlinsys import family\n"
    )
    assert imported_modules(ast.parse(source), modules) == modules
