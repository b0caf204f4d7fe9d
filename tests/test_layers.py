"""No pauligeom module reads a private name of another pauligeom module.

A name with a leading underscore belongs to its module; a layer that needs
it from another layer gets a public name for it instead.
"""

import ast
from pathlib import Path

import pytest

import pauligeom

MODULES = sorted(Path(pauligeom.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree):
    """Each `alias._x` read through a pauligeom module imported as `alias`,
    and each `_x` imported from one, as (line, text)."""
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in (None, "pauligeom"):  # `from . import module [as alias]`
            aliases.update(a.asname or a.name for a in node.names)
        elif node.level or node.module.startswith("pauligeom."):
            reads += [(node.lineno, f"from {node.module} import {a.name}")
                      for a in node.names if _private(a.name)]
    reads += [(node.lineno, f"{node.value.id}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases and _private(node.attr)]
    return sorted(reads)


def test_the_guard_sees_both_kinds_of_read():
    tree = ast.parse("from . import polar_geometry as pg\nfrom .gf2_core import _x\n"
                     "pg._mask_lines(pg.ostar())\n")
    assert _private_reads(tree) == [(2, "from gf2_core import _x"), (3, "pg._mask_lines")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_read_no_private_name_of_another_module(path):
    assert _private_reads(ast.parse(path.read_text())) == []
