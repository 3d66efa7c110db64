"""Each module of insiderlab uses only the public names of its siblings."""

import ast
import pathlib

import pytest

import insiderlab

PACKAGE = pathlib.Path(insiderlab.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


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
