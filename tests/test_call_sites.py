"""Where a formula lives: the package calls or reads its pieces only from
the functions named here.

The two halves of the closed-form cone roots, `cone_quadratic` and
`cone_pair`, are called only from `cone_xi0`, the closed form at points
known to be real, and `causality._cone_extremes`, the one kernel of the
causality scan, the region map, the critical-angle search and the CFL
speed.  The symbol's coefficients have one formula,
`equations.symbol_coefficients`: it and the time matrix's closed-form
inverse are the only readers of the composite cell factors, and no second
symbol assembly is defined."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vecf"
HALVES = {"cone_quadratic", "cone_pair"}
# the CellFactors fields that only the symbol's and the time matrix's formulas combine
COMPOSITE_FACTORS = {"lam_eta", "chi_eta3", "lam2chi4"}


def _owned(tree) -> list:
    """(innermost enclosing function, node) of every node of a module; a
    node outside every function is owned by "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            found.append((owner, child))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, "<module>")
    return found


def _package_nodes():
    """(module file name, owner, node) of every node of the package."""
    return [(path.name, owner, node) for path in sorted(PACKAGE.glob("*.py"))
            for owner, node in _owned(ast.parse(path.read_text()))]


def _called_name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_cone_halves_are_called_only_by_the_closed_form_and_the_kernel():
    callers = {(module, owner) for module, owner, node in _package_nodes()
               if isinstance(node, ast.Call) and _called_name(node) in HALVES}
    assert callers == {("characteristics.py", "cone_xi0"), ("causality.py", "_cone_extremes")}


def test_the_symbol_has_one_coefficient_formula():
    nodes = _package_nodes()
    readers = {(module, owner) for module, owner, node in nodes
               if isinstance(node, ast.Attribute) and node.attr in COMPOSITE_FACTORS}
    assert readers == {("equations.py", "symbol_coefficients"),
                       ("equations.py", "time_matrix_solve")}
    defined = {node.name for _, _, node in nodes if isinstance(node, ast.FunctionDef)}
    assert "symbol_components" not in defined
    assert {"symbol_coefficients", "symbol_apply", "symbol_matrix"} <= defined
