"""No test-only surface in the structure modules: every public top-level
name of `cosets`, `greens` and `decompose` is read by another skewlat
module, or is listed below with the reason it stays."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "skewlat")

GUARDED = ("cosets", "greens", "decompose")

# name -> why it stays although no other module reads it
NOT_READ_ELSEWHERE = {
    "cosets": {
        **{
            f"{side}_coset_{kind}": "read through coset_map's lookup by name"
            for side in ("full", "right", "left")
            for kind in ("meet", "join")
        },
        "DClassPair": "the type of each comparable_pairs item",
        "CosetSystem": "the type of flat_cosets' result",
    },
    "greens": {
        "Partition": "the type of the Green's relations",
        "Eggbox": "the type of eggboxes' items",
        "natural_preorder": "read by dclass_order",
    },
    "decompose": {
        "KimuraDecomposition": "the type of kimura's result",
        "Sections": "the type of find_lattice_section's result",
    },
}


def _tree(module):
    with open(os.path.join(SRC, f"{module}.py"), encoding="utf-8") as f:
        return ast.parse(f.read())


def _public_names(module):
    out = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in out if not name.startswith("_")}


def _read_from(module, reader):
    """The names of `module` that `reader` imports from it or reads as
    attributes of it."""
    names, aliases = set(), set()
    for node in ast.walk(_tree(reader)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module == module:
                names.update(a.name for a in node.names)
            elif node.level == 1 and node.module is None:
                aliases.update(
                    a.asname or a.name for a in node.names if a.name == module
                )
    for node in ast.walk(_tree(reader)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", GUARDED)
def test_every_public_name_is_read_by_the_library(module):
    readers = [
        f[:-3]
        for f in sorted(os.listdir(SRC))
        if f.endswith(".py") and f[:-3] != module
    ]
    read = set().union(*(_read_from(module, r) for r in readers))
    allowed = NOT_READ_ELSEWHERE[module]
    public = _public_names(module)
    assert sorted(public - read - set(allowed)) == []
    # a listed name that is gone, or is now read, leaves the list
    assert sorted(set(allowed) - (public - read)) == []
