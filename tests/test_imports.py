"""Each module of insiderlab uses only the public names of its siblings, and
every module of insiderlab and of its tests uses every name it imports."""

import ast
import pathlib

import pytest

import insiderlab

PACKAGE = pathlib.Path(insiderlab.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
TESTS = pathlib.Path(__file__).parent
# every module but a package's __init__, whose imports are its re-exports
IMPORTERS = sorted(str(p) for p in (*PACKAGE.glob("*.py"), *TESTS.glob("*.py")) if p.name != "__init__.py")


def private_reach_ins(source: str) -> list[str]:
    """The leading-underscore names that `source` takes from a sibling
    module, by `from .sibling import _name` or as `sibling._name` after
    `from . import sibling`; dunders do not count."""

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        within = node.level > 0 or (node.module or "").split(".")[0] == "insiderlab"
        if within and node.module not in (None, "insiderlab"):
            found += [f"{node.module}.{a.name}" for a in node.names if private(a.name)]
        elif within:
            siblings |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_check_finds_both_forms():
    source = "from . import paths\nfrom .model import _as_function, iota\npaths._generator(0, 0)\n"
    assert private_reach_ins(source) == ["model._as_function", "paths._generator"]
    assert private_reach_ins("from ._csvio import write_csv\nfrom . import bsde\nbsde.__name__\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_of_a_sibling_is_used(module):
    assert private_reach_ins((PACKAGE / module).read_text()) == []


def unused_imports(source: str) -> list[str]:
    """The names that an import of `source` binds and the module never
    reads, in order; a `from __future__` import and a name listed in
    `__all__` do not count."""
    tree = ast.parse(source)
    bound, read, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            exported |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in bound if name not in read and name not in exported]


def test_the_import_check_finds_an_unused_name():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .model import iota, validate\n__all__ = ['validate']\nnp.ones(1)\n")
    assert unused_imports(source) == ["os", "iota"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda path: pathlib.Path(path).name)
def test_every_imported_name_is_used(path):
    assert unused_imports(pathlib.Path(path).read_text()) == []


# the rows a caller hands a kernel; a default of None would let the kernel
# allocate its own
ROW_PARAMETERS = {"out", "work", "gram"}
# the fallbacks kept on purpose: ordered_mean's sort, and the information
# drift of a whole batch (PathBatch.phi) with the closure it is formed by
KEPT_FALLBACKS = {"simulate.ordered_mean(work)", "paths.information_drift(out)", "paths.signal_drift.drift(out)"}


def defaulted_rows(source: str, module: str) -> list[str]:
    """`module.function(parameter)` for every parameter named in
    ROW_PARAMETERS whose default is None, of every function and lambda of
    `source`, in order; a nested function or a method is named after the
    functions and classes that enclose it, and a lambda as `<lambda>`."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                args = child.args
                positional = args.posonlyargs + args.args
                pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                found.extend(f"{name}({arg.arg})" for arg, default in pairs
                             if arg.arg in ROW_PARAMETERS and isinstance(default, ast.Constant)
                             and default.value is None)
                visit(child, name)
            else:
                visit(child, f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix)

    visit(ast.parse(source), module)
    return found


def test_the_row_check_finds_every_defaulted_row():
    source = ("def f(x, out=None, gram=0):\n    def g(*, work=None):\n        pass\n"
              "    return lambda i, out=None: i\n\nclass C:\n    def h(self, work: int | None = None, y=None):\n"
              "        pass\n\ndef kept(x, out):\n    return x\n")
    assert defaulted_rows(source, "m") == ["m.f(out)", "m.f.g(work)", "m.f.<lambda>(out)", "m.C.h(work)"]


def test_no_kernel_allocates_a_row_its_caller_did_not_hand_it():
    found = [row for module in MODULES
             for row in defaulted_rows((PACKAGE / module).read_text(), module.removesuffix(".py"))]
    assert [row for row in found if row not in KEPT_FALLBACKS] == []
    assert sorted(set(found)) == sorted(KEPT_FALLBACKS)
