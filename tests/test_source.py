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


def test_only_value_types_define_eq():
    """Scalars and matrices compare by value; results are NamedTuples, so no
    other module writes an ``__eq__``."""
    defined = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name not in ("fields.py", "matrices.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "__eq__"
    ]
    assert defined == []


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


def _callers(tree, callee) -> set:
    """Where tree calls callee: ``function``, ``Class.method``, or '' at module level."""
    def calls(node):
        return any(isinstance(n, ast.Call) and _used_name(n.func) == callee for n in ast.walk(node))
    found = set()
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            found |= {f"{top.name}.{getattr(node, 'name', '')}" for node in top.body if calls(node)}
        elif calls(top):
            found.add(getattr(top, "name", ""))
    return found


def test_cold_exact_matrices_come_from_the_constructor():
    """Only ``Mat2.__init__`` derives an integer form from entries, and ``outer``
    builds no form of its own: an exact matrix no hot operation made was checked."""
    tree = TREES["matrices.py"]
    assert _callers(tree, "_integer_form") == {"Mat2.__init__"}
    assert "outer" not in _callers(tree, "_normalised")


def _imported(node) -> list:
    """Dotted names an import statement loads or reads: ``from .x import y`` gives x and x.y."""
    if isinstance(node, ast.Import) or node.module is None:  # import x, from . import x
        return [alias.name for alias in node.names]
    return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]


def _imports_run_on_import(nodes):
    """The import statements among nodes that run when their module is imported:
    not in a function body, nor under ``if TYPE_CHECKING:``."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _imports_run_on_import(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _imports_run_on_import(ast.iter_child_nodes(node))


def test_no_module_imports_dataclasses():
    """``dataclasses`` (with the ``inspect`` it imports) added about 10 ms to every CLI request."""
    uses = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(m.split(".")[0] == "dataclasses" for m in _imported(node))
    ]
    assert uses == []


# Modules every CLI request imports, and the modules only some subcommands run:
# those are imported inside the functions that use them.
EAGER = ("__init__.py", "cli.py", "serialize.py")
LAZY = ("classify", "preserver", "identities", "randgen")


def test_every_request_imports_no_subcommand_module():
    uses = [
        f"{name}:{node.lineno}"
        for name in EAGER
        for node in _imports_run_on_import(TREES[name].body)
        if any(m.split(".")[-1] in LAZY for m in _imported(node))
    ]
    assert uses == []


def _owners(tree, match):
    """(top-level definition holding the node, '' at module level, line) of each match."""
    for top in tree.body:
        for node in ast.walk(top):
            if match(node):
                yield getattr(top, "name", ""), node.lineno


def _reads_power_cap(node):
    return (_used_name(node) in ("MAX_POWER_BITS", "_growth_bits")
            and not isinstance(getattr(node, "ctx", None), ast.Store))


def _catches_overflow(node):
    return (isinstance(node, ast.ExceptHandler) and node.type is not None
            and any(_used_name(t) == "OverflowError" for t in ast.walk(node.type)))


def _raises_to_a_variable(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and not isinstance(node.right, ast.Constant))


def test_one_owner_of_order_sized_powers():
    """``brackets._power`` alone bounds a power whose exponent grows with k: it
    reads the exact-size cap, turns a float overflow into ResultTooLarge, and is
    the only ``**`` whose exponent is not a constant."""
    powers = [f"{name}:{line} in {owner or 'module'}"
              for name in ("brackets.py", "preserver.py", "classify.py")
              for owner, line in _owners(TREES[name], _raises_to_a_variable)
              if (name, owner) != ("brackets.py", "_power")]
    assert powers == []
    assert list(_owners(TREES["brackets.py"], _raises_to_a_variable)) != []
    reads = [f"{name}:{line} in {owner or 'module'}"
             for name, tree in TREES.items()
             for owner, line in _owners(tree, _reads_power_cap)
             if (name, owner) != ("brackets.py", "_power")]
    assert reads == []
    handlers = [f"{name}:{line} in {owner or 'module'}"
                for name in ("brackets.py", "preserver.py")
                for owner, line in _owners(TREES[name], _catches_overflow)
                if owner != "_power"]
    assert handlers == []
    assert list(_owners(TREES["brackets.py"], _catches_overflow)) != []


def test_only_fields_reads_the_print_limit():
    """``FieldTag.encode`` refuses an exact value past the interpreter's digit
    limit, and ``fields._fraction`` an exponent past it; no other module reads
    the limit, so an unprintable result has one refusal path."""
    reads = [f"{name}:{node.lineno}"
             for name, tree in TREES.items() if name != "fields.py"
             for node in ast.walk(tree)
             if _used_name(node) == "get_int_max_str_digits"]
    assert reads == []
    assert any(_used_name(node) == "get_int_max_str_digits" for node in ast.walk(TREES["fields.py"]))

def test_sandwich_images_are_fused():
    """``matrices.unit_images`` yields each unit's image sum A E B, column times row
    on the integer form, one unit at a time in ``matrix_units`` order, so the
    solver stops at its witness; the classifiers and the solver multiply no
    matrices themselves."""
    products = [f"classify.py:{node.lineno}" for node in ast.walk(TREES["classify.py"])
                if isinstance(getattr(node, "op", None), ast.MatMult)]
    assert products == []


def test_oracle_step_is_products_and_a_difference():
    """``kcomm_recursive`` is the ground truth every evaluator is tested against,
    so it stays the bare recurrence on every field: R starts at A, and its one
    loop's whole body is the step R = R @ B - B @ R on ``Mat2`` products and a
    difference, with no branch, exit or return inside."""
    oracle = next(node for node in TREES["brackets.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "kcomm_recursive")
    values = [node.value for node in ast.walk(oracle)
              if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
              and "R" in {_used_name(t) for t in getattr(node, "targets", None) or [node.target]}]
    loops = [node for node in ast.walk(oracle) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1 and not loops[0].orelse
    assert len(loops[0].body) == 1
    step = loops[0].body[0]
    assert [ast.unparse(v) for v in values] == ["A", ast.unparse(step.value)]
    assert isinstance(step, ast.Assign) and [ast.unparse(t) for t in step.targets] == ["R"]
    kinds = {type(node).__name__ for node in ast.walk(step.value)}
    assert kinds == {"BinOp", "MatMult", "Sub", "Name", "Load"}
    forks = [f"brackets.py:{node.lineno}" for node in ast.walk(oracle)
             if isinstance(node, (ast.If, ast.IfExp, ast.Break, ast.Continue, ast.Return))
             and node is not oracle.body[-1]]
    assert forks == []
    assert ast.unparse(oracle.body[-1]) == "return R"


# The only caller of the O(k) oracle outside brackets.py: fixtures steps each
# family one order at a time.
ORACLE_CALLERS = {"cli.cmd_fixtures"}


def test_oracle_stays_off_the_request_paths():
    """Outside ``brackets.py`` only ``ORACLE_CALLERS`` name ``kcomm_recursive``
    (imports aside), so the O(k) oracle does not creep back onto a request path."""
    named = {f"{name[:-3]}.{owner or 'module'}"
             for name, tree in TREES.items() if name != "brackets.py"
             for owner, _ in _owners(tree, lambda node: isinstance(node, (ast.Name, ast.Attribute))
                                     and _used_name(node) == "kcomm_recursive")}
    assert named == ORACLE_CALLERS


def test_no_finite_helper_is_left():
    """``kcomm`` itself refuses a non-finite float bracket; no separate
    ``_finite`` check is defined, imported or called anywhere."""
    found = [name for name, tree in TREES.items() for node in ast.walk(tree)
             if "_finite" in (_used_name(node), getattr(node, "name", None), getattr(node, "asname", None))]
    assert found == []


def test_kernel_first_commutator_is_products_and_a_difference():
    """``kcomm`` builds R from both products A @ B and B @ A (and their difference
    in ``Mat2._bracket_step``), so every kernel answer passes through
    ``Mat2.__matmul__``: the bench's gate corrupts that product to show it does
    not trust ``Mat2``.  Any later assignment to R builds on R."""
    kernel = next(node for node in TREES["brackets.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "kcomm")
    assigns = sorted((node for node in ast.walk(kernel)
                      if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                      and "R" in {_used_name(t) for t in getattr(node, "targets", None) or [node.target]}),
                     key=lambda node: node.lineno)
    values = [node.value for node in assigns]
    assert values
    products = {ast.unparse(node) for node in ast.walk(values[0])
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)}
    assert products == {"A @ B", "B @ A"}
    assert all("R" in {_used_name(n) for n in ast.walk(v)} for v in values[1:])


def test_kernel_step_serves_kcomm_alone():
    """``Mat2._bracket_step`` holds the one reduction by an order-sized scalar,
    delta**m, so ``kcomm`` is its one caller: no function of ``matrices.py``
    calls it, since ``scale`` is one product and one gcd, as ``@`` is, and
    ``.entries`` reads the integer form."""
    callers = {f"{name[:-3]}.{func.name}"
               for name, tree in TREES.items()
               for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func)
               if isinstance(node, ast.Call) and _used_name(node.func) == "_bracket_step"}
    assert callers == {"brackets.kcomm"}


def test_exact_solver_reads_the_integer_forms():
    """The exact row reduction eliminates the matrices' integer forms
    (``matrices.integer_entries``): ``classify.py`` rebuilds no integer rows of
    its own, so it defines no ``_integer_rows`` and imports no ``lcm``."""
    tree = TREES["classify.py"]
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert "_integer_rows" not in defined and "solve_linear" in defined
    imported = [m for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for m in _imported(node)]
    assert not [m for m in imported if m.split(".")[-1] == "lcm"]
    assert "matrices.integer_entries" in imported
