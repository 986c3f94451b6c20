"""The package's public surface: every public definition is reached, and the
single-state wrappers stay in the tests' reference module."""

import ast
from pathlib import Path

import vecf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vecf"
# outside the package, the code that reaches it: the acceptance gate and
# the benchmark's workloads
REACHING = (ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "workloads.py")
# public definitions that nothing above reaches, and why each stays
KEPT = {
    "symbol_block": "the block view of symbol_apply, which tests check against "
                    "the full symbol; a linearized dispersion relation may need it",
}
MOVED = ("StatePoint", "fluid_symbol", "fluid_char_det", "coupled_char_det",
         "time_matrix", "det_time_matrix_formula", "_as_covector", "eval_factor_base",
         "eval_factor", "cone_roots", "RootPair", "random_lorentzian_near_minkowski")


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _referenced(path: Path) -> set:
    """Every name a module's code reads, as a bare name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _public_definitions(path: Path) -> list:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_is_reached():
    # a definition's own def statement is not a reference to it, so a name
    # in this set is read by package code, the acceptance gate or the benchmark
    reached = set().union(*(_referenced(p) for p in _modules() + list(REACHING)))
    defined = {p.name: _public_definitions(p) for p in _modules()}
    unreached = [f"{module}:{name}" for module, names in defined.items() for name in names
                 if name not in reached and name not in KEPT]
    assert unreached == []
    assert set(KEPT) <= {name for names in defined.values() for name in names}


def test_single_state_wrappers_left_the_package():
    assert not set(MOVED) & set(vecf.__all__)
    for path in _modules():
        defined = {node.name for node in ast.parse(path.read_text()).body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert not set(MOVED) & defined, path.name
    namespace = {}
    exec("from vecf import *", namespace)
    assert set(vecf.__all__) <= set(namespace)
    assert not set(MOVED) & set(namespace)
