"""No test-only surface in the library: every public top-level name of
every skewlat module but `cli`, the entry point, is read by another skewlat
module, or belongs to one of the FAMILIES below, or is listed below with
the reason it stays."""

import ast
import os

import pytest

from skewlat import laws, varieties

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "skewlat")

GUARDED = sorted(
    f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "cli.py"
)

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
    "core": {
        "from_json_dict": "read by load_algebra",
    },
    "kernels": {
        "BACKEND": "the backend in use, which the benchmark reports",
    },
    "catalog": {
        "Catalog": "the type of enumerate_catalog's result",
        "PRUNED_MAX_ORDER": "read by check_order_cap",
        "NAIVE_MAX_ORDER": "read by check_order_cap",
        "canonical": "read by load_catalog",
        "nc5": "the five-element non-cancellative algebra, a named "
        "construction",
        "primitive_from_coset_data": "builds a primitive algebra from coset "
        "data, the step a structural enumerator builds on",
        "CosetData": "the type of primitive_from_coset_data's argument",
    },
    "matrix_rings": {
        "DEFAULT_MODULUS_CAP": "read by _field, the modulus check",
        "DEFAULT_CLOSURE_CAP": "closure's default cap",
        "PrimeFieldMatrix": "the type of the matrices",
        "MatrixSkewLattice": "the type of closure's result",
        "closure": "read by the primitive constructors",
        **{
            f"{cls}_class_matrix{hand}": "read by the primitive constructors"
            for cls in ("upper", "lower")
            for hand in ("", "_left")
        },
        "nabla": "the matrix join, which the benchmark counts",
    },
    "varieties": {
        "ARITY_CAP": "read by check_identity",
        "MEET": "a Term operation",
        "JOIN": "a Term operation",
        "Term": "the type of an identity's sides",
        "Identity": "the type of the identities check_identity reads",
        "V": "builds the identities' terms",
        "M": "builds the identities' terms",
        "J": "builds the identities' terms",
        "eval_term": "the reference check_identity is tested against",
        **{
            f"{side}_{bound}_SYMMETRIC_ALT": "the published alternative "
            "axiom, a labelled cross-check of the primary one"
            for side in ("LEFT", "RIGHT")
            for bound in ("LOWER", "UPPER")
        },
        "FLAVORED_SYMMETRY_PAIRS": "pairs each flavored-symmetry identity "
        "with its alternative",
        "ClassificationReport": "the type of classify's result",
    },
}


def _bound_in(module, registry):
    """The names under which `module` binds a value of `registry`."""
    values = set(registry.values())
    return {k for k, v in vars(module).items() if callable(v) and v in values}


# family -> why its members stay, whether or not another module reads them
FAMILIES = {
    "varieties": {
        **dict.fromkeys(
            _bound_in(varieties, varieties.PREDICATES), "bound in PREDICATES"
        ),
        **{
            k: "an identity a predicate checks"
            for k, v in vars(varieties).items()
            if isinstance(v, varieties.Identity) and not k.endswith("_ALT")
        },
    },
    "laws": dict.fromkeys(
        _bound_in(laws, laws.ALL_LAW_CHECKS), "bound in ALL_LAW_CHECKS"
    ),
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
    allowed = NOT_READ_ELSEWHERE.get(module, {})
    public = _public_names(module)
    families = FAMILIES.get(module, {})
    assert sorted(public - read - set(allowed) - set(families)) == []
    # a listed name that is gone, or is now read, leaves the list
    assert sorted(set(allowed) - (public - read)) == []
