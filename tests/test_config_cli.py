import json

import pytest

from vecf.cli import main
from vecf.config import ConfigError, load_config
from vecf.experiments import ORDER_WINDOW


def test_defaults_encode_causal_regime():
    cfg = load_config()
    assert cfg["transport"]["a1"] == 4.0
    assert cfg["transport"]["a2"] == 4.0


def test_unknown_key_named(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[transport]\nviscosity = 2.0\n")
    with pytest.raises(ConfigError, match="viscosity"):
        load_config(str(p))


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


def test_cli_causality_scan(tmp_path):
    code = main(["--out", str(tmp_path),
                 "--set", "scan.a2_list=4 6",
                 "--set", "scan.u_steps=5",
                 "--set", "scan.theta_steps=180",
                 "causality-scan"])
    assert code == 0
    lines = (tmp_path / "causality_scan.csv").read_text().splitlines()
    assert lines[0] == "a1,a2,u2,theta_max_p2,smax_p2,smax_p3,verdict"
    assert len(lines) == 11


def test_cli_csv_bytes_reproducible(tmp_path):
    args = ["--set", "scan.a2_list=4 6", "--set", "scan.u_steps=5",
            "--set", "scan.theta_steps=90", "causality-scan"]
    main(["--out", str(tmp_path / "a")] + args)
    main(["--out", str(tmp_path / "b")] + args)
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
    code = main(["--out", str(tmp_path),
                 "--set", "scan.a1_steps=2", "--set", "scan.a2_steps=3",
                 "--set", "scan.a1_min=4", "--set", "scan.a1_max=4",
                 "--set", "scan.a2_min=4", "--set", "scan.a2_max=8",
                 "region-map"])
    assert code == 0
    payload = json.loads((tmp_path / "region_map.json").read_text())
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
    ("scan.a1_min=nan", "region-map"),
    ("scan.a2_min=inf", "region-map"),
    ("scan.a2_list=4 nan", "causality-scan"),
    ("oracle.t0=nan", "oracle-divergence"),
    ("transport.a2=-inf", "evolve"),
])
def test_cli_rejects_non_finite_values(tmp_path, capsys, override, command):
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert override.split("=")[0] in err
    assert not any(tmp_path.iterdir())


def test_cli_oracle_divergence(tmp_path):
    code = main(["--out", str(tmp_path),
                 "--set", "oracle.resolutions=64 128 256",
                 "--set", "transport.a2=6",
                 "oracle-divergence"])
    assert code == 0
    payload = json.loads((tmp_path / "oracle_divergence.json").read_text())
    assert payload["passed"] is True
    lo, hi = ORDER_WINDOW
    assert all(lo <= o <= hi for o in payload["orders"])
    assert payload["mutated_order"] < payload["tolerances"]["mutated_order_max"]


@pytest.mark.parametrize("override,command", [
    ("oracle.resolutions=0", "oracle-divergence"),
    ("oracle.resolutions=-64,-128", "oracle-divergence"),
    ("oracle.resolutions=64", "oracle-divergence"),
    ("oracle.resolutions=64,100", "oracle-divergence"),
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


CONVERGENCE_SMALL = ["--set", "convergence.resolutions=32 64 128",
                     "--set", "solver.t_end=0.1", "--set", "transport.a2=6"]


def test_cli_convergence_filter_off_judges_the_order(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--set", "solver.filter_strength=0"]
                + CONVERGENCE_SMALL + ["convergence"])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "convergence.json").read_text())
    assert payload["tolerances"]["order"] == list(ORDER_WINDOW)
    # the eps order on these coarse grids reads about 4.5, outside the window
    assert payload["passed"] is False and code == 1
    assert out.rstrip().endswith("-> FAIL")


def test_cli_convergence_filter_on_judges_no_order(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--set", "solver.filter_strength=1"]
                + CONVERGENCE_SMALL + ["convergence"])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "convergence.json").read_text())
    assert payload["tolerances"]["order"] is None
    assert payload["passed"] is True and code == 0
    assert out.rstrip().endswith("-> not judged (filter on)")
    assert "PASS" not in out


def test_cli_convergence_without_an_order_fails(tmp_path, capsys):
    # constant data: every field's differences sit below round-off, so no
    # order is observed, and criterion 08d's rule fails the run
    code = main(["--out", str(tmp_path), "--set", "solver.filter_strength=0",
                 "--set", "solver.ic=constant"] + CONVERGENCE_SMALL + ["convergence"])
    out = capsys.readouterr().out
    payload = json.loads((tmp_path / "convergence.json").read_text())
    assert all(order is None for order in payload["orders"].values())
    assert payload["passed"] is False and code == 1
    assert out.rstrip().endswith("observed order exact -> FAIL")


@pytest.mark.parametrize("override,command", [
    ("transport.a1=5", "evolve"),
    ("solver.ic_amplitude=-2", "evolve"),
    ("transport.a1=5", "dod-test"),
    ("dod.resolutions=128", "dod-test"),
    ("dod.resolutions=64,96", "dod-test"),
    ("dod.radius=0.9", "dod-test"),
    ("dod.amplitude=0", "dod-test"),
    ("dod.probe_x=1.7", "dod-test"),      # outside bump beyond x = L
    ("dod.probe_x=1.5", "dod-test"),      # outside bump across x = L
    ("transport.a1=5", "convergence"),
    ("convergence.resolutions=64,100,200", "convergence"),
])
def test_cli_solver_commands_reject_bad_config(tmp_path, capsys, override, command):
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("override,command", [
    ("dod.resolutions=128,200", "dod-test"),
    ("dod.resolutions=128", "dod-test"),
    ("convergence.resolutions=256,512", "convergence"),
    ("convergence.resolutions=256,500,1000", "convergence"),
    ("oracle.resolutions=64", "oracle-divergence"),
    ("oracle.resolutions=0,0", "oracle-divergence"),
])
def test_cli_rejects_bad_resolution_ladders(tmp_path, capsys, override, command):
    # every command that measures an order checks its ladder by one rule
    assert main(["--out", str(tmp_path), "--set", override, command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: need at least ")
    assert "positive and each double the last" in err
    assert err.count("\n") == 1          # one line, no traceback
    assert not any(tmp_path.iterdir())


def test_cli_rejects_removed_speeds_section(tmp_path, capsys):
    # no command reads pulse-speed settings, so the section does not exist
    assert main(["--out", str(tmp_path), "--set", "speeds.n_cells=64", "gevrey"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert "speeds" in err


def test_cli_region_map_unreadable_cell_is_a_config_error(tmp_path, capsys):
    # a2 near 1e299 overflows the sound quartic, so its coefficients cannot
    # be read; the error names the cell
    assert main(["--out", str(tmp_path), "--set", "scan.a2_max=1e300", "region-map"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1          # one line, no traceback
    assert "a1 = 1, a2 = 9.09091e+298" in err
    assert not any(tmp_path.iterdir())


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
