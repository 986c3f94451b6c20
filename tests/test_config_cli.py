import json

import pytest

from vecf import equations, experiments
from vecf.causality import SCAN_A2
from vecf.cli import MAX_SAMPLES, main
from vecf.config import SCHEMA, ConfigError, load_config
from vecf.experiments import ORDER_WINDOW
from vecf.solver1d import MAX_CELLS


def test_defaults_encode_causal_regime():
    model = load_config().transport_model()
    assert model.a1 == 4.0
    assert model.a2 == 4.0


def test_unknown_key_named(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[transport]\nviscosity = 2.0\n")
    with pytest.raises(ConfigError, match="viscosity"):
        load_config(str(p))


def test_cli_rejects_the_removed_filter_strength(tmp_path, capsys):
    assert main(["--out", str(tmp_path), "--set", "solver.filter_strength=1", "evolve"]) == 2
    assert capsys.readouterr().err == ("config error: unknown config key "
                                       "'filter_strength' in section [solver]\n")
    assert not any(tmp_path.iterdir())


def test_unknown_section_named(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[turbulence]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="turbulence"):
        load_config(str(p))


def test_range_checks(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[solver]\ncfl = 1.5\n")
    with pytest.raises(ConfigError, match="cfl"):
        load_config(str(p))


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/run.ini")


def test_overrides():
    cfg = load_config(overrides=["transport.a2=6.5", "solver.n_cells=128"])
    assert cfg["transport"]["a2"] == 6.5
    assert cfg["solver"]["n_cells"] == 128


def test_bad_override_rejected():
    with pytest.raises(ConfigError):
        load_config(overrides=["a2=6.5"])
    with pytest.raises(ConfigError):
        load_config(overrides=["transport.a2"])


def test_cli_gevrey(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "gevrey"])
    out = capsys.readouterr().out
    assert code == 0
    assert "7/6" in out and "17/16" in out
    payload = json.loads((tmp_path / "gevrey.json").read_text())
    assert payload["fluid_index"] == "7/6"
    assert payload["coupled_index"] == "17/16"
    assert payload["passed"] is True


def test_cli_verify_factorization_small(tmp_path):
    code = main(["--out", str(tmp_path), "verify-factorization",
                 "--samples", "300", "--seed", "7"])
    assert code == 0
    payload = json.loads((tmp_path / "verify_factorization.json").read_text())
    assert payload["passed"] is True
    assert payload["max_scaled_error"] < 1e-9
    assert payload["seed"] == 7
    assert payload["parameters"]["a1"] == 4.0


@pytest.mark.filterwarnings("error")
def test_cli_causality_scan(tmp_path, capsys):
    # criterion 04's scan: five a2 by 41 speeds, no violation
    code = main(["--out", str(tmp_path), "causality-scan"])
    assert code == 0
    lines = (tmp_path / "causality_scan.csv").read_text().splitlines()
    assert lines[0] == "a1,a2,u2,theta_max_p2,smax_p2,smax_p3,verdict"
    assert len(lines) == 1 + len(SCAN_A2) * 41
    payload = json.loads((tmp_path / "causality_scan.json").read_text())
    assert payload["rows"] == 205 and payload["violated_cells"] == 0
    assert payload["passed"] is True
    out = capsys.readouterr().out
    assert "205 cells" in out and out.rstrip().endswith("-> PASS")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides,passed", [
    ([], True),
    # the scan's grid is fixed: a config for the evolves leaves its verdict as it is
    (["--set", "solver.n_cells=16"], True),
])
def test_cli_causality_scan_passes_only_without_violations(tmp_path, capsys, overrides,
                                                           passed):
    code = main(["--out", str(tmp_path)] + overrides + ["causality-scan"])
    payload = json.loads((tmp_path / "causality_scan.json").read_text())
    assert payload["passed"] is passed and code == (0 if passed else 1)
    assert payload["passed"] is (payload["violated_cells"] == 0)
    rows = (tmp_path / "causality_scan.csv").read_text().splitlines()[1:]
    n_violated = sum(1 for r in rows if r.rsplit(",", 1)[1] == "violated")
    assert n_violated == payload["violated_cells"]
    assert capsys.readouterr().out.rstrip().endswith("-> PASS" if passed else "-> FAIL")


def test_cli_csv_bytes_reproducible(tmp_path):
    main(["--out", str(tmp_path / "a"), "causality-scan"])
    main(["--out", str(tmp_path / "b"), "causality-scan"])
    a = (tmp_path / "a" / "causality_scan.csv").read_bytes()
    b = (tmp_path / "b" / "causality_scan.csv").read_bytes()
    assert a == b


def test_cli_config_error_exit_code(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[solver]\nn_cells = banana\n")
    assert main(["--config", str(p), "evolve"]) == 2


def test_cli_empty_config_rejected(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    assert main(["--config", str(p), "--out", str(tmp_path), "evolve"]) == 2


def test_cli_evolve_writes_artifacts(tmp_path):
    code = main(["--out", str(tmp_path),
                 "--set", "solver.n_cells=64",
                 "--set", "solver.t_end=0.05",
                 "--set", "transport.a2=6",
                 "evolve"])
    assert code == 0
    rows = (tmp_path / "evolve.csv").read_text().splitlines()
    assert rows[0] == "t,x,u0,u1,u2,u3,eps"
    assert len(rows) > 64
    diag = [json.loads(line) for line in
            (tmp_path / "evolve_diagnostics.jsonl").read_text().splitlines()]
    assert all("constraint_drift" in d for d in diag)


def test_evolve_csv_rows_are_savetxts_bytes():
    # one %-format per block of rows writes what np.savetxt's row loop wrote,
    # on -0.0, subnormals, 1e300, integers and more rows than one block
    import io

    import numpy as np

    from vecf.cli import _CSV_BLOCK, _write_csv_rows
    tiny = np.finfo(float).tiny
    special = np.array([[0.0, -0.0, 5e-324, tiny / 3.0, 1e300, -1e300, 7.0],
                        [3.0, -2.0, 1e-310, 0.1, 2.0 ** 53, 1.0 / 3.0, -0.7],
                        [0.25, 1e16, -5e-324, np.pi, 123456789.0, -1.0,
                         1.7976931348623157e308]])
    many = np.random.default_rng(3).standard_normal((2 * _CSV_BLOCK + 5, 7))
    many[::7] = np.round(many[::7] * 1e3)
    for rows in (special, np.concatenate([special, many, special]), special[:0]):
        want, got = io.StringIO(), io.StringIO()
        np.savetxt(want, rows, fmt="%.17g", delimiter=",")
        _write_csv_rows(got, rows)
        assert got.getvalue() == want.getvalue()


def test_cli_region_map(tmp_path):
    code = main(["--out", str(tmp_path), "region-map"])
    assert code == 0
    payload = json.loads((tmp_path / "region_map.json").read_text())
    assert payload["cells"] == 11 * 12
    assert payload["a1_4_row_causal"] is True


def test_cli_roots(tmp_path):
    code = main(["--out", str(tmp_path), "roots", "--samples", "50"])
    assert code == 0
    lines = (tmp_path / "roots.csv").read_text().splitlines()
    assert lines[0].startswith("family,a2,u2")
    assert len(lines) == 101      # 50 samples x 2 families + header


def test_cli_roots_bisects_each_sample_once(tmp_path, monkeypatch):
    from vecf import verification
    scans = []
    original = verification.bisection_roots

    def counted(family, *args, **kwargs):
        result = original(family, *args, **kwargs)
        scans.extend(family for _ in result)
        return result

    monkeypatch.setattr(verification, "bisection_roots", counted)
    assert main(["--out", str(tmp_path), "roots", "--samples", "250"]) == 0
    # one batched call per family returns one scan per sample, and the
    # table reuses the suite's own scans
    assert len(scans) == 500
    assert scans.count("shear") == scans.count("sound") == 250
    lines = (tmp_path / "roots.csv").read_text().splitlines()
    assert len(lines) == 401      # the first 200 samples x 2 families + header


def test_cli_collapse(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "collapse", "--samples", "200", "--seed", "11"])
    assert code == 0
    payload = json.loads((tmp_path / "collapse.json").read_text())
    assert payload["passed"] is True
    assert payload["c_at_a1_4"] == 0.0
    assert payload["samples"] == 200 and payload["seed"] == 11
    assert capsys.readouterr().out.rstrip().endswith("-> PASS")


@pytest.mark.parametrize("command,flags", [
    ("roots", ["--samples", "-5"]),
    ("roots", ["--samples", "0"]),
    ("roots", ["--seed", "-1"]),
    ("verify-factorization", ["--samples", "-3"]),
    ("verify-factorization", ["--seed", "-2"]),
    ("collapse", ["--samples", "0"]),
    # above MAX_SAMPLES: rejected before a sample is drawn
    ("collapse", ["--samples", "100000000000"]),
    ("roots", ["--samples", str(MAX_SAMPLES + 1)]),
    ("verify-factorization", ["--samples", str(10 * MAX_SAMPLES)]),
])
def test_cli_rejects_bad_samples_and_seed(tmp_path, capsys, command, flags):
    assert main(["--out", str(tmp_path), command] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,samples,seed", [
    ("verify-factorization", 10000, 7),
    ("collapse", 1000, 11),      # criterion 02
    ("roots", 1000, 13),         # criterion 03
])
def test_cli_suites_default_to_their_own_samples_and_seed(tmp_path, command, samples,
                                                          seed):
    assert main(["--out", str(tmp_path), command]) == 0
    name = {"verify-factorization": "verify_factorization"}.get(command, command)
    payload = json.loads((tmp_path / f"{name}.json").read_text())
    assert payload["samples"] == samples and payload["seed"] == seed


def test_cli_rejects_removed_verification_section(tmp_path, capsys):
    # the suites take their samples and seed from the flags or their defaults
    assert main(["--out", str(tmp_path), "--set", "verification.seed=7", "gevrey"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "verification" in err


@pytest.mark.parametrize("override,command", [
    ("solver.t_end=inf", "evolve"),
    ("transport.a2=-inf", "evolve"),
])
def test_cli_rejects_non_finite_values(tmp_path, capsys, override, command):
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert override.split("=")[0] in err
    assert not any(tmp_path.iterdir())


def test_cli_oracle_divergence(tmp_path, monkeypatch):
    # the command reads criterion 07's ladder when it runs
    monkeypatch.setattr(equations, "ORACLE_RESOLUTIONS", (64, 128, 256))
    code = main(["--out", str(tmp_path), "--set", "transport.a2=6", "oracle-divergence"])
    assert code == 0
    payload = json.loads((tmp_path / "oracle_divergence.json").read_text())
    assert payload["passed"] is True
    assert payload["resolutions"] == [64, 128, 256]
    lo, hi = ORDER_WINDOW
    assert all(lo <= o <= hi for o in payload["orders"])
    assert payload["mutated_order"] < payload["tolerances"]["mutated_order_max"]


@pytest.mark.parametrize("override,command", [
    # no longer a key: the cone table holds at a1 = 4 only
    ("transport.a1=1", "causality-scan"),
])
def test_cli_claim_commands_reject_bad_config(tmp_path, capsys, override, command):
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["roots", "--samples", "abc"],
    ["roots", "--seed", "1.5"],
    ["--bogus", "gevrey"],
    ["gevrey", "--bogus"],
    ["no-such-command"],
    [],
    # the removed worker-count flag, before and after the command
    ["--threads", "2", "gevrey"],
    ["gevrey", "--threads", "2"],
    # only the sample suites take --samples and --seed
    ["evolve", "--samples", "5", "--seed", "3"],
    ["gevrey", "--seed", "3"],
    ["dod-test", "--samples", "5"],
])
def test_cli_malformed_arguments_are_config_errors(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not any(tmp_path.iterdir())


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--threads" not in capsys.readouterr().out


CONVERGENCE_SMALL = ["--set", "solver.t_end=0.1", "--set", "transport.a2=6"]


@pytest.fixture
def small_convergence(monkeypatch):
    # the command reads criteria 08b and 08d's ladder when it runs
    monkeypatch.setattr(experiments, "CONVERGENCE_RESOLUTIONS", (32, 64, 128))


def test_cli_convergence_judges_the_order(tmp_path, capsys, small_convergence):
    code = main(["--out", str(tmp_path)] + CONVERGENCE_SMALL + ["convergence"])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "convergence.json").read_text())
    assert payload["tolerances"]["order"] == list(ORDER_WINDOW)
    assert payload["resolutions"] == [32, 64, 128]
    # the eps order on these coarse grids reads about 4.5, outside the window
    assert payload["passed"] is False and code == 1
    assert out.rstrip().endswith("-> FAIL")


def test_cli_convergence_without_an_order_fails(tmp_path, capsys, small_convergence):
    # constant data: every field's differences sit below round-off, so no
    # order is observed, and criterion 08d's rule fails the run
    code = main(["--out", str(tmp_path), "--set", "solver.ic=constant"]
                + CONVERGENCE_SMALL + ["convergence"])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "convergence.json").read_text())
    assert all(order is None for order in payload["orders"].values())
    assert payload["passed"] is False and code == 1
    assert out.rstrip().endswith("observed order exact -> FAIL")


@pytest.mark.filterwarnings("error")
def test_cli_convergence_of_a_pulse_off_the_grid_fails(tmp_path, capsys, small_convergence):
    # a pulse centred at 1e300 rounds to the background at every cell: the
    # study evolves constant data, measures no order and fails, as above,
    # with no warning, while evolve runs the same data and exits 0
    code = main(["--out", str(tmp_path), "--set", "solver.ic_center=1e300"]
                + CONVERGENCE_SMALL + ["convergence"])
    captured = capsys.readouterr()
    payload = json.loads((tmp_path / "convergence.json").read_text())
    assert all(order is None for order in payload["orders"].values())
    assert payload["passed"] is False and code == 1
    assert captured.out.rstrip().endswith("observed order exact -> FAIL")
    assert captured.err == ""


@pytest.mark.parametrize("override,command", [
    ("solver.ic_amplitude=-2", "evolve"),
    ("solver.length=1", "dod-test"),      # the outside bump leaves [0, L)
    # keys that no longer exist: a1 = 4 and criterion 09's sample are constants
    ("transport.a1=5", "evolve"),
    ("transport.a1=5", "dod-test"),
    ("transport.a1=5", "convergence"),
    ("dod.radius=0.9", "dod-test"),
    ("dod.amplitude=0", "dod-test"),
    ("dod.probe_x=1.7", "dod-test"),
    ("dod.probe_x=1.5", "dod-test"),
])
def test_cli_solver_commands_reject_bad_config(tmp_path, capsys, override, command):
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert not any(tmp_path.iterdir())


LADDERS = {"dod": (experiments, "DOD_RESOLUTIONS"),
           "convergence": (experiments, "CONVERGENCE_RESOLUTIONS"),
           "oracle": (equations, "ORACLE_RESOLUTIONS")}


@pytest.mark.parametrize("override,command", [
    ("dod.resolutions=128,200", "dod-test"),
    ("dod.resolutions=128", "dod-test"),
    ("convergence.resolutions=256,512", "convergence"),
    ("convergence.resolutions=256,500,1000", "convergence"),
    ("oracle.resolutions=64", "oracle-divergence"),
    ("oracle.resolutions=0,0", "oracle-divergence"),
])
def test_cli_rejects_bad_resolution_ladders(tmp_path, capsys, monkeypatch, override,
                                           command):
    # every command that measures an order checks its ladder by one rule;
    # each case names the ladder constant it breaks by its old config key
    section, ladder = override.split(".resolutions=")
    module, name = LADDERS[section]
    monkeypatch.setattr(module, name, tuple(int(n) for n in ladder.split(",")))
    if section == "oracle":
        # the oracle reads no config value that its rule could reject, so a
        # bad ladder is a package bug, and main lets it escape like any other
        with pytest.raises(ValueError, match="need at least two resolutions, "
                                             "positive and each double the last"):
            main(["--out", str(tmp_path), command])
        assert not any(tmp_path.iterdir())
        return
    assert main(["--out", str(tmp_path), command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: need at least ")
    assert "positive and each double the last" in err
    assert err.count("\n") == 1          # one line, no traceback
    assert not any(tmp_path.iterdir())


# what each check samples is a constant of its module, not a config key
REMOVED_KEYS = (["transport.a1", "transport.p_exp"]
                + [f"scan.{k}" for k in ("a2_list", "u_max", "u_steps", "theta_steps",
                                         "a1_min", "a1_max", "a1_steps", "a2_min",
                                         "a2_max", "a2_steps")]
                + [f"dod.{k}" for k in ("probe_t", "probe_x", "amplitude", "radius",
                                        "margin", "probe_window", "bump_power")]
                + ["oracle.t0"])


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_cli_rejects_the_removed_criterion_keys(tmp_path, capsys, key):
    section, name = key.split(".")
    assert main(["--out", str(tmp_path), "--set", f"{key}=1", "gevrey"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    # a key of a removed section is rejected with its section, any other by its name
    assert f"[{section}]" in err and (section not in SCHEMA or f"'{name}'" in err)
    assert not any(tmp_path.iterdir())


def test_the_config_holds_the_fluid_and_the_run():
    assert {sec: sorted(keys) for sec, keys in SCHEMA.items()} == {
        "transport": ["a2", "eta0"],
        "solver": ["cfl", "eps0", "ic", "ic_amplitude", "ic_center", "ic_width",
                   "length", "n_cells", "output_every", "t_end"]}


@pytest.mark.parametrize("args,section", [
    (["--set", "dod.resolutions=64,128", "dod-test"], "dod"),
    (["--set", "convergence.resolutions=32,64,128", "convergence"], "convergence"),
    (["--set", "oracle.resolutions=64,128", "oracle-divergence"], "oracle"),
    (["--set", "output.dir=x", "gevrey"], "output"),
    (["--config", "run.ini", "gevrey"], "output"),
])
def test_cli_rejects_the_removed_ladder_and_output_sections(tmp_path, capsys, monkeypatch,
                                                            args, section):
    # the ladders are the gate's constants, and --out (default out) is the
    # one output directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[output]\ndir = x\n")
    assert main(args) == 2
    assert capsys.readouterr().err == f"config error: unknown config section [{section}]\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]


def test_cli_out_defaults_to_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["gevrey"]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["gevrey.json"]


@pytest.mark.parametrize("command", ["evolve", "dod-test", "convergence"])
def test_cli_n_cells_beyond_the_bound_is_a_config_error(tmp_path, capsys, command):
    # refused when the config loads, before any array is made
    assert main(["--out", str(tmp_path), "--set", "solver.n_cells=10000000000000",
                 command]) == 2
    assert capsys.readouterr().err == ("config error: bad value for solver.n_cells: "
                                       f"must be <= {MAX_CELLS}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("override,command,code", [
    # the pulse's profile overflows and rounds to the background
    ("solver.ic_center=1e300", "evolve", 0),
    ("solver.length=1e300", "evolve", 0),
    # the pulse fits one cell, and the run loses eps > 0
    ("solver.ic_width=1e-300", "evolve", 3),
    # the cone's coefficients overflow: the speed check names the state
    ("transport.a2=1e300", "dod-test", 2),
])
def test_cli_overflowing_values_warn_nothing(tmp_path, capsys, override, command, code):
    assert main(["--out", str(tmp_path), "--set", override, command]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(("config error: ", "solver abort: ")[code == 3])
        assert err.count("\n") == 1


@pytest.mark.parametrize("source", ["--set", "--config"])
def test_cli_rejects_the_removed_eta_form_key(tmp_path, capsys, source):
    # the fluid has one viscosity law, so its form is no key
    p = tmp_path / "run.ini"
    p.write_text("[transport]\neta_form = power\n")
    args = (["--set", "transport.eta_form=power"] if source == "--set"
            else ["--config", str(p)])
    assert main(args + ["--out", str(tmp_path / "out"), "gevrey"]) == 2
    assert capsys.readouterr().err == \
        "config error: unknown config key 'eta_form' in section [transport]\n"
    assert list(tmp_path.iterdir()) == [p]


def test_cli_rejects_the_removed_scan_section(tmp_path, capsys):
    p = tmp_path / "run.ini"
    p.write_text("[scan]\nu_max = 10\n")
    assert main(["--config", str(p), "--out", str(tmp_path / "out"), "causality-scan"]) == 2
    assert capsys.readouterr().err == "config error: unknown config section [scan]\n"
    assert list(tmp_path.iterdir()) == [p]


def test_cli_rejects_removed_speeds_section(tmp_path, capsys):
    # no command reads pulse-speed settings, so the section does not exist
    assert main(["--out", str(tmp_path), "--set", "speeds.n_cells=64", "gevrey"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "speeds" in err


@pytest.mark.parametrize("override,command", [
    ("solver.t_end=1e308", "evolve"),     # the step count overflows to inf
    ("solver.t_end=1e300", "evolve"),     # finite, about 5e302 steps
    ("solver.t_end=1e300", "convergence"),
    ("solver.cfl=1e-300", "dod-test"),    # dod-test sets t_end from dod.probe_t
])
def test_cli_step_count_beyond_the_bound_is_a_config_error(tmp_path, capsys, override,
                                                          command):
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert "steps" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_cli_large_eps0_reports_a_finite_det_shortfall(tmp_path):
    # at eps0 = 1e115 the closed-form det, about 1e232, is finite although
    # eta^4 alone is not: every diagnostic line is strict JSON
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    assert main(["--out", str(tmp_path), "--set", "solver.eps0=1e115",
                 "--set", "solver.t_end=0.01", "evolve"]) == 0
    lines = (tmp_path / "evolve_diagnostics.jsonl").read_text().splitlines()
    diags = [json.loads(line, parse_constant=reject) for line in lines]
    assert len(diags) == 2
    assert all(abs(d["det_shortfall_rel"]) < 1e-12 for d in diags)


def test_cli_dod_test_writes_non_finite_values_as_null(tmp_path, capsys, monkeypatch):
    # the bumps' amplitude 0.02 lies below the rounding of eps0 = 1e20: every
    # difference is 0, the order and the ratio are NaN, and dod.json is
    # strict JSON that writes them null
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    monkeypatch.setattr(experiments, "DOD_RESOLUTIONS", (64, 128))
    assert main(["--out", str(tmp_path), "--set", "solver.eps0=1e20", "dod-test"]) == 1
    payload = json.loads((tmp_path / "dod.json").read_text(), parse_constant=reject)
    assert payload["resolutions"] == [64, 128]
    assert payload["outside_order"] is None and payload["outside_ratios"] == [None]
    assert payload["outside_diffs"] == [0.0, 0.0] and payload["passed"] is False
    assert capsys.readouterr().out.rstrip().endswith("-> FAIL")


# (command, eps0) -> (message, step); from 1e120 up both commands abort alike
ABORTS = {(command, eps0): abort for command in ("evolve", "dod-test")
          for eps0, abort in {
              # the first stage drives eps negative
              "1e120": ("energy density lost positivity inside a stage", 1),
              # the first step's det overflows
              "1e150": ("time-coefficient matrix degenerate: det not finite", 1),
              # the det overflows at t = 0: the run aborts before its first diagnostic
              "1e300": ("time-coefficient matrix degenerate: det not finite", 0),
          }.items()}
# a large eps0 passes the t = 0 checks and is lost mid-run; no precondition
# names the cause, so these pin the aborts that catch it, the "reached zero"
# one after a step included
ABORTS.update({
    ("evolve", "1e50"): ("energy density lost positivity inside a stage", 2),
    ("evolve", "1e80"): ("energy density reached zero", 1),
    ("dod-test", "1e50"): ("energy density reached zero in member 0, 1, 2, 3", 1),
    ("dod-test", "1e80"): ("energy density reached zero in member 0, 1, 2, 3", 1),
})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command,eps0", [
    pytest.param(command, eps0, id=command if eps0 == "1e300" else f"{command}-{eps0}")
    for command, eps0 in ABORTS])
def test_cli_unsteppable_initial_state_aborts_in_one_line(tmp_path, capsys, command, eps0):
    # no floating-point warning (an error here) precedes the abort: the
    # checks that abort the run report the fault
    message, step = ABORTS[command, eps0]
    assert main(["--out", str(tmp_path), "--set", f"solver.eps0={eps0}", command]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solver abort: " + message)
    assert err.count("\n") == 1
    assert f"(step {step})" in err
