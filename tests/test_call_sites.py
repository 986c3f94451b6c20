"""The two halves of the closed-form cone roots, `cone_quadratic` and
`cone_pair`, are called in the package only from `cone_xi0`, the closed
form at points known to be real, and `causality._cone_extremes`, the one
kernel of the causality scan, the region map, the critical-angle search
and the CFL speed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vecf"
HALVES = {"cone_quadratic", "cone_pair"}


def _calls(tree) -> list:
    """(innermost enclosing function, called name) of every call in a module;
    a call outside every function is owned by "<module>"."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                found.append((owner, f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_cone_halves_are_called_only_by_the_closed_form_and_the_kernel():
    callers = {(path.name, owner)
               for path in sorted(PACKAGE.glob("*.py"))
               for owner, name in _calls(ast.parse(path.read_text())) if name in HALVES}
    assert callers == {("characteristics.py", "cone_xi0"), ("causality.py", "_cone_extremes")}
