"""Every name a package or test module imports is used in that module, every
module-level private function or class is used somewhere in the package,
every name the package exports has a user or a reason to stay, only ``linalg.py`` reaches numpy's Kronecker product, only the CLI's
``simulate`` handler builds a tensor power, only ``mixture`` and the file
loader call the checking ``DensityMatrix`` constructor, and a state carries
nothing but its shape and matrix."""

import ast
import dataclasses
import pathlib
import re

import pytest

from dsskit import DensityMatrix

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dsskit"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside string annotations such as ``"DensityMatrix | None"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def _referenced_names(node: ast.AST) -> set[str]:
    """Names, attribute names, imported names and string-annotation names
    used anywhere inside ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
        elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
            names |= _annotation_names(sub.annotation)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns is not None:
            names |= _annotation_names(sub.returns)
    return names


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no other top-level
    statement of any module references, given each module's source by name.
    A definition's references to itself, as in recursion, do not count."""
    statements = []
    for module, source in sorted(sources.items()):
        for stmt in ast.parse(source).body:
            statements.append((module, stmt, _referenced_names(stmt)))
    unused = []
    for module, stmt, _ in statements:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_") or stmt.name.startswith("__"):
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unused.append(f"{module}: {stmt.name} (line {stmt.lineno})")
    return unused


def test_detector_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Iterable, Sequence\n"
        "from .states import DensityMatrix\n"
        "def f(x: 'DensityMatrix') -> Sequence[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["Iterable (line 3)"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_private_detector_flags_unused_and_keeps_used():
    sources = {
        "a.py": (
            "def _called_here():\n    return 1\n"
            "def _imported_elsewhere():\n    return 2\n"
            "def _recursive_only(n):\n    return _recursive_only(n - 1)\n"
            "class _Annotation:\n    pass\n"
            "class _Dead:\n    pass\n"
            "def public(x: '_Annotation') -> int:\n    return _called_here()\n"
        ),
        "b.py": "from .a import _imported_elsewhere\nVALUE = _imported_elsewhere()\n",
    }
    assert unused_private_definitions(sources) == [
        "a.py: _recursive_only (line 5)",
        "a.py: _Dead (line 9)",
    ]


def test_no_unused_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unused_private_definitions(sources) == []


def exports_without_users(init_source: str, modules: dict[str, str], users: dict[str, str]) -> list[str]:
    """Names that ``init_source`` imports and nothing uses, sorted.  A
    package module uses a name when one of its top-level statements, other
    than the name's own definition, references it.  ``users`` maps other
    file names to their text: a ``.py`` file uses the names it references,
    any other file the names it contains as words."""
    exported = {
        alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()
    for source in modules.values():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            used |= _referenced_names(stmt) - own
    for name, text in users.items():
        if name.endswith(".py"):
            used |= _referenced_names(ast.parse(text))
        else:
            used |= set(re.findall(r"\w+", text))
    return sorted(exported - used)


#: Exported names with no user in the package, README, demos or acceptance
#: tests, each with the reason it stays.
UNUSED_EXPORTS_KEPT = {
    "eig_hermitian": "the checked eigensolver for raw matrices, kept until ROADMAP item 4 "
    "decides it; perfbench traces it",
}


def test_export_detector_flags_names_without_users():
    init = (
        "from .a import Result, helper, by_readme, by_demo, unused, recursive, CONSTANT\n"
    )
    modules = {
        "a.py": (
            "CONSTANT = 3\n"
            "class Result:\n    pass\n"
            "def helper() -> 'Result':\n    return Result()\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def by_readme():\n    pass\n"
            "def by_demo():\n    pass\n"
            "def unused():\n    return CONSTANT\n"
        ),
        "b.py": "from .a import helper\nVALUE = helper()\n",
    }
    users = {
        "README.md": "Call `by_readme()` first, then `recursively()`.\n",
        "demo.py": "import dsskit as dk\ndk.by_demo()\n",
    }
    assert exports_without_users(init, modules, users) == ["recursive", "unused"]


def test_every_export_has_a_user():
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    users = {
        path.name: path.read_text(encoding="utf-8")
        for path in [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py", *sorted(ROOT.glob("demos/*.py"))]
    }
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert exports_without_users(init, modules, users) == sorted(UNUSED_EXPORTS_KEPT)


def numpy_kron_uses(source: str) -> list[str]:
    """``np.kron``/``numpy.kron`` references and ``from numpy import kron``,
    called or not."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "kron"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            found.append(f"{node.value.id}.kron (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"import kron (line {node.lineno})" for a in node.names if a.name == "kron"]
    return found


def test_kron_detector_flags_numpy_kron_and_keeps_the_kernel():
    source = (
        "import numpy as np\n"
        "import numpy\n"
        "from numpy import kron\n"
        "from .linalg import kron_all\n"
        "A = np.kron(np.eye(2), np.eye(2))\n"
        "B = functools.reduce(numpy.kron, [A, A])\n"
        "C = kron_all((A, A))\n"
        "D = other.kron(A, A)\n"
    )
    assert numpy_kron_uses(source) == [
        "import kron (line 3)",
        "np.kron (line 5)",
        "numpy.kron (line 6)",
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "linalg.py"], ids=lambda p: p.name)
def test_only_linalg_uses_numpy_kron(path):
    assert numpy_kron_uses(path.read_text(encoding="utf-8")) == []


def references_outside(source: str, name: str, allowed: str) -> list[str]:
    """Uses of ``name`` (``name`` or ``module.name``, called or not) in any
    top-level statement but the function ``allowed``; imports do not count."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == allowed:
            continue
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name
            ):
                found.append(f"{name} (line {node.lineno})")
    return found


def test_reference_detector_flags_uses_outside_the_allowed_function():
    source = (
        "from .states import tensor_power\n"
        "def _cmd_simulate(args):\n    return tensor_power(args.rho, 2)\n"
        "def _cmd_dss_find(args):\n    return tensor_power(args.rho, 2)\n"
        "def helper(rho):\n    return states.tensor_power(rho, 3)\n"
        "POWER = tensor_power\n"
        "def power_rank(rho):\n    return rho\n"
    )
    assert references_outside(source, "tensor_power", "_cmd_simulate") == [
        "tensor_power (line 5)",
        "tensor_power (line 7)",
        "tensor_power (line 8)",
    ]


def test_only_simulate_builds_a_tensor_power_in_the_cli():
    """``simulate --protocol`` evolves the n-copy state; every other command
    hands the single copy and ``copies`` to the library."""
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert references_outside(source, "tensor_power", "_cmd_simulate") == []


def public_constructor_calls(source: str) -> list[str]:
    """The enclosing scope of each call of the public ``DensityMatrix``
    constructor: ``DensityMatrix(...)``, ``module.DensityMatrix(...)``, or
    ``cls(...)`` in a method of the class ``DensityMatrix``."""
    found = []

    def visit(node, scope, in_density_matrix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    public = func.id == "DensityMatrix" or (in_density_matrix and func.id == "cls")
                else:
                    public = getattr(func, "attr", None) == "DensityMatrix"
                if public:
                    found.append(f"{'.'.join(scope) or '<module>'} (line {child.lineno})")
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,), child.name == "DensityMatrix")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), in_density_matrix)
            else:
                visit(child, scope, in_density_matrix)

    visit(ast.parse(source), (), False)
    return found


def test_constructor_detector_flags_public_calls_and_keeps_the_store_only_one():
    source = (
        "from . import states\n"
        "class DensityMatrix:\n"
        "    @classmethod\n"
        "    def mixture(cls, shape, mat):\n        return cls(shape, mat)\n"
        "    @classmethod\n"
        "    def _derived(cls, shape, mat):\n        return object.__new__(cls)\n"
        "    def reduced(self):\n        return DensityMatrix._derived(self.shape, self.mat)\n"
        "class PureState:\n"
        "    @classmethod\n"
        "    def of(cls, v):\n        return cls(v)\n"
        "def load_state(doc):\n    return states.DensityMatrix(doc.shape, doc.mat)\n"
        "MIXED = DensityMatrix(SHAPE, EYE)\n"
    )
    assert public_constructor_calls(source) == [
        "DensityMatrix.mixture (line 5)",
        "load_state (line 16)",
        "<module> (line 17)",
    ]


def test_only_mixture_and_load_state_check_a_density_matrix():
    """A matrix from outside the library is checked by the public
    constructor; every state the library derives is stored through
    ``DensityMatrix._derived``."""
    calls = [
        f"{path.name}: {call.split(' (')[0]}"
        for path in SOURCES
        for call in public_constructor_calls(path.read_text(encoding="utf-8"))
    ]
    assert calls == ["fileio.py: load_state", "states.py: DensityMatrix.mixture"]


def test_density_matrix_holds_only_its_shape_and_matrix():
    assert [f.name for f in dataclasses.fields(DensityMatrix)] == ["shape", "mat"]
