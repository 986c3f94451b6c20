"""The package's public surface: every public definition and every defaulted
parameter of a public function is reached, and the single-state wrappers and
block views stay in the tests' reference module."""

import ast
from pathlib import Path

import vecf

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vecf"
# outside the package, the code that reaches it: the acceptance gate and
# the benchmark's workloads
REACHING = (ROOT / "tests" / "test_acceptance.py", ROOT / "perfbench" / "workloads.py")
# public definitions that nothing above reaches, and why each stays
KEPT = {}
# defaulted parameters of public functions that only tests pass, and why each stays
TEST_KNOBS = {
    ("hyperbolicity_region_map", "u_samples"):
        "the per-cell reference test samples boosts that cross the factors' edge cases",
    ("hyperbolicity_region_map", "n_theta"):
        "the per-cell reference test keeps its grids small",
    ("bisection_roots", "g"):
        "the oracle's tests check it on perturbed metrics, which the suites do not draw",
    ("divergence_residual", "t0"):
        "the full-tensor reference test checks the oracle at other times",
    ("pulse_speed_experiment", "t_first"): "the quick shear test runs to an earlier time",
    ("pulse_speed_experiment", "t_second"): "the quick shear test runs to an earlier time",
}
MOVED = ("StatePoint", "fluid_symbol", "fluid_char_det", "coupled_char_det",
         "time_matrix", "det_time_matrix_formula", "_as_covector", "eval_factor_base",
         "eval_factor", "cone_roots", "RootPair", "random_lorentzian_near_minkowski",
         "symbol_block")


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


def _defaulted_parameters(path: Path) -> list:
    """(function, parameter, position) of every defaulted parameter of a
    public function; position is None for a keyword-only parameter."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, p.arg, first + i)
                      for i, p in enumerate(positional[first:])]
            found += [(node.name, p.arg, None)
                      for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _passed(paths) -> dict:
    """Per called name, what its calls pass: keyword names, positional
    counts, and "*" for a call with *args or **kwargs, which may pass any."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            got = passed.setdefault(name, set())
            got.add(len(node.args))
            got.update(k.arg for k in node.keywords if k.arg is not None)
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                got.add("*")
    return passed


def test_every_defaulted_parameter_is_passed():
    # a default that no package module, acceptance test or benchmark
    # workload overrides is a constant, not a knob
    passed = _passed(_modules() + list(REACHING))
    unpassed = []
    for path in _modules():
        for func, param, position in _defaulted_parameters(path):
            got = passed.get(func, set())
            if "*" in got or param in got or (func, param) in TEST_KNOBS:
                continue
            if position is not None and any(isinstance(n, int) and n > position for n in got):
                continue
            unpassed.append(f"{path.name}:{func}({param})")
    assert unpassed == []
    defaulted = {(f, p) for path in _modules() for f, p, _ in _defaulted_parameters(path)}
    assert set(TEST_KNOBS) <= defaulted


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
