"""No pauligeom module reads a private name of another pauligeom module,
and none holds a name it never reads.

A name with a leading underscore belongs to its module; a layer that needs
it from another layer gets a public name for it instead.  So a private
name, or an imported one, that its own module does not read is dead, and
so is a public one that no module reads and the package does not export.
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


def _defined(tree):
    """Each top-level function, class or constant of the module, as (line, name)."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for target in targets for t in ast.walk(target)
                        if isinstance(t, ast.Name)]
    return defined


def _loads(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _unread_names(tree):
    """Each name bound by a top-level import, and each private top-level
    function, class or constant, that the module never reads, as (line, name)."""
    bound = [(node.lineno, (a.asname or a.name).split(".")[0]) for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for a in node.names]
    bound += [(line, name) for line, name in _defined(tree) if _private(name)]
    read = _loads(tree)
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_dead_name_guard_sees_an_unread_import_and_helper():
    tree = ast.parse("from __future__ import annotations\n"
                     "from .gf2_core import echelon, span_points\n"
                     "import os.path\n"
                     "_USED, _SPARE = 1, 2\n"
                     "def _pentad_cones(ost):\n    return span_points(ost)\n"
                     "def public():\n    return _USED\n")
    assert _unread_names(tree) == [(2, "echelon"), (3, "os"), (4, "_SPARE"),
                                   (5, "_pentad_cones")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_read_every_import_and_private_name(path):
    assert _unread_names(ast.parse(path.read_text())) == []


# (module, name): why a public name that no module reads stays.  Expected
# to be empty: a public name is read somewhere in `src` or exported.
UNREAD_PUBLIC: dict[tuple[str, str], str] = {}


def _reads_by_module(trees):
    """Per module, the names that some module reads of it: its own loads,
    each `from .module import name`, and each `alias.name` read through
    `from . import module [as alias]`."""
    reads = {module: _loads(tree) for module, tree in trees.items()}
    for tree in trees.values():
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            if node.module in (None, "pauligeom"):
                aliases.update({a.asname or a.name: a.name for a in node.names})
            else:
                module = node.module.removeprefix("pauligeom.")
                reads.setdefault(module, set()).update(a.name for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads.setdefault(aliases[node.value.id], set()).add(node.attr)
    return reads


def _unread_public(trees, exported):
    """Each public top-level function, class or constant that no module
    reads and `exported` does not list, as (module, line, name)."""
    reads = _reads_by_module(trees)
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in _defined(tree)
                  if not name.startswith("_") and name not in reads.get(module, ())
                  and name not in exported)


def test_the_public_name_guard_sees_an_unread_public_function():
    trees = {"core": ast.parse("LIMIT = 3\ndef span(): pass\ndef shown(): pass\n"
                               "def helper_for_tests(): pass\n"),
             "geometry": ast.parse("from . import core as c\nfrom .core import span\n"
                                   "def fill(): return span(), c.LIMIT\n"),
             "cli": ast.parse("from .geometry import fill\n")}
    assert _unread_public(trees, {"shown"}) == [("core", 4, "helper_for_tests")]


def test_every_public_name_is_read_or_exported():
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    unread = _unread_public(trees, set(pauligeom.__all__))
    assert [(module, name) for module, _, name in unread] == sorted(UNREAD_PUBLIC)
