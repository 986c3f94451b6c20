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


def _signatures() -> dict:
    """Per public definition of the package, the names of its parameters,
    or None where it takes any keyword (**kwargs, or no signature)."""
    import importlib
    import inspect
    found = {}
    for path in _modules():
        module = importlib.import_module(f"vecf.{path.stem}")
        for name in _public_definitions(path):
            try:
                params = inspect.signature(getattr(module, name)).parameters.values()
            except ValueError:
                found[name] = None
                continue
            if any(p.kind is p.VAR_KEYWORD for p in params):
                found[name] = None
            elif found.get(name, ()) is not None:
                found[name] = found.get(name, set()) | {p.name for p in params}
    return found


def _bound_in(tree) -> tuple:
    """The names a module binds to `getattr(module, f"...")`, as regexes
    over the definitions they may name, and to dict displays, as the keys
    of those dicts (both arms of an `a if c else b`)."""
    import re
    getattrs, dicts = {}, {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        target, value = node.targets[0].id, node.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "getattr" and isinstance(value.args[1], ast.JoinedStr)):
            getattrs[target] = "".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else ".*"
                for part in value.args[1].values)
        arms = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
        if all(isinstance(arm, ast.Dict) for arm in arms):
            dicts[target] = {k.value for arm in arms for k in arm.keys
                             if isinstance(k, ast.Constant)}
    return getattrs, dicts


def test_every_keyword_passed_to_the_package_names_a_parameter():
    # a keyword that the acceptance gate or a benchmark workload passes must
    # stay a parameter of the function it reaches: removing one breaks them
    import re
    signatures = _signatures()
    unknown = []
    for path in REACHING:
        tree = ast.parse(path.read_text())
        getattrs, dicts = _bound_in(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name in signatures:
                callees = [name]
            elif name in getattrs:
                callees = [d for d in signatures if re.fullmatch(getattrs[name], d)]
                assert callees, f"{path.name}: {name} names no package definition"
            else:
                continue
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            for k in node.keywords:
                if k.arg is None and isinstance(k.value, ast.Name):
                    keywords |= dicts.get(k.value.id, set())
            unknown += [f"{path.name}:{node.lineno} {name}({kw}=)" for kw in sorted(keywords)
                        if not any(signatures[c] is None or kw in signatures[c]
                                   for c in callees)]
    assert unknown == []


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
