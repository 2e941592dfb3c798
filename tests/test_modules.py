"""The module boundary of `src/ietlab`: a module uses another only through
its public names, so `_record`, `_scalar` and the other underscore names
stay inside the module that defines them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "ietlab"
MODULES = sorted(SRC.glob("*.py"))


def _is_sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "ietlab"


def _private_uses(tree: ast.Module) -> list[str]:
    """Underscore names this module imports from another ietlab module,
    or reads off one it imported (`from . import iet` then `iet._record`)."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sibling(node):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                elif node.module is None or node.module == "ietlab":
                    siblings.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_uses_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), str(path))
    assert _private_uses(tree) == [], path.name


def test_the_check_sees_both_forms():
    tree = ast.parse("from .iet import _record, orbit\n"
                     "from . import iet as t, measures\n"
                     "t._scalar(None, 0.1)\nmeasures.birkhoff_average\n")
    assert _private_uses(tree) == ["iet._record", "t._scalar"]
