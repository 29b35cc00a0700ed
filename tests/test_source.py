"""Checks on the library source itself."""

import ast
from pathlib import Path

import kcomm2

SOURCES = sorted(Path(kcomm2.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_library_raises_instead_of_asserting():
    """``python -O`` strips ``assert``, so library invariants must raise."""
    assert len(SOURCES) > 1
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def test_every_error_class_is_raised():
    """An error class whose last raiser was deleted goes with it."""
    classes = {node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)}
    assert "Kcomm2Error" in classes and len(classes) > 1
    raised = {
        _raised_name(node)
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
    }
    assert sorted(classes - raised - {"Kcomm2Error"}) == []


# Parts of Mat2 that only matrices.py may touch: the stored entries and
# integer form, and the helpers that build a matrix without the checks of
# ``Mat2(field, entries)``.  Every matrix made elsewhere is therefore checked.
MATRICES_PRIVATE = ("_e", "_z", "_built", "_normalised", "_integer_form")


def _used_name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_only_matrices_reads_the_integer_form():
    """``Mat2._e``, ``._z`` and the unchecked builders are private to ``matrices.py``."""
    uses = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "matrices.py"
        for node in ast.walk(tree)
        if _used_name(node) in MATRICES_PRIVATE
    ]
    assert uses == []
