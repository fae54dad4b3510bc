"""The package's surface: every module-level function and class, private
or public, is used by the program itself, not only by tests, and every
field a class declares is read by it."""

import ast
import pathlib
from collections import Counter

import decolab

PACKAGE = pathlib.Path(decolab.__file__).parent

READ_OUTSIDE_THE_PACKAGE = {
    # perfbench's tracer counts the integrand evaluations of each quadrature
    "QuadratureResult.evaluations",
}


def reads(tree: ast.AST) -> Counter:
    """How often code in `tree` reads each name, bare or as an attribute;
    strings and docstrings are not code."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_module_level_definition_has_a_caller_in_the_package():
    # private helpers too: one only tests reach is as dead as a public one.
    # __init__ only re-exports; __main__ is a caller like any other module
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py") if path.stem != "__init__"]
    everywhere = sum((reads(tree) for tree in trees), Counter())
    unreferenced = [
        node.name
        for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and everywhere[node.name] == reads(node)[node.name]  # read only inside itself
    ]
    assert unreferenced == []


def test_every_declared_field_is_read_in_the_package():
    # a field is declared by an annotation in a class body and read as an
    # attribute of anything; a record member nothing reads is dead weight
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    attributes_read = {
        node.attr
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{cls.name}.{item.target.id}"
        for tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and item.target.id not in attributes_read
    ]
    assert sorted(unread) == sorted(READ_OUTSIDE_THE_PACKAGE), unread
