"""Checks on the library source itself."""

import ast
from pathlib import Path

import kcomm2


def test_library_raises_instead_of_asserting():
    """``python -O`` strips ``assert``, so library invariants must raise."""
    sources = sorted(Path(kcomm2.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
