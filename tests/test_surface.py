"""The package's public surface: every public function and class is used by
the program itself, not only by tests."""

import ast
import pathlib
from collections import Counter

import decolab

PACKAGE = pathlib.Path(decolab.__file__).parent

# the free-cat density route of ROADMAP item 3 feeds its fluctuation-
# dissipation s(t) through it; until then only tests call it
AWAITING_A_CALLER = {"tabulated_kinematics"}


def reads(tree: ast.AST) -> Counter:
    """How often code in `tree` reads each name, bare or as an attribute;
    strings and docstrings are not code."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_public_definition_has_a_caller_in_the_package():
    # __init__ only re-exports; __main__ is a caller like any other module
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    everywhere = sum((reads(tree) for tree in trees), Counter())
    unreferenced = [
        node.name
        for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and everywhere[node.name] == reads(node)[node.name]  # read only inside itself
    ]
    # an exemption goes once its name gains a caller
    assert sorted(unreferenced) == sorted(AWAITING_A_CALLER), unreferenced
