"""The benchmark's own tests, on smoke sizes of every workload.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import per_layer_spec  # noqa: E402
from vecf import experiments, solver1d, verification  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def result():
    cache = {}

    def get(workload: str, trace: int, repeat: int = 0) -> dict:
        key = (workload, trace, repeat)
        if key not in cache:
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            cache[key] = json.loads(proc.stdout.splitlines()[-1])
        return cache[key]
    return get


def test_spec_matches_code():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == per_layer_spec()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_result_line_names_every_metric(result, workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_exact_counts_repeat(result, workload):
    def counts(res):
        return {name: m["value"] for name, m in res["metrics"].items()
                if name.endswith((".calls", ".cell_steps")) or ".samples." in name}
    first, second = counts(result(workload, 1)), counts(result(workload, 1, repeat=1))
    assert first == second
    assert any(first.values())


def test_dod_evolve_counts(result):
    # smoke dod runs R = 2 resolutions: 3R + 2 evolves, 3R + 1 of them distinct
    metrics = result("dod", 1)["metrics"]
    r = len(workloads.Dod.SIZES["smoke"]["resolutions"])
    assert metrics["solver1d.evolve.calls"]["value"] == 3 * r + 2
    assert metrics["experiments.evolve_useful_ratio"]["value"] == (3 * r + 1) / (3 * r + 2)


def test_forced_failing_check_is_counted(monkeypatch, capsys, tmp_path):
    real = verification.collapse_suite

    def failing(**kwargs):
        return dataclasses.replace(real(**kwargs), tolerance=-1.0)
    monkeypatch.setattr(verification, "collapse_suite", failing)
    assert worker.main(["--workload", "claims", "--seed", "1", "--seconds", "0",
                        "--trace", "0", "--size", "smoke",
                        "--work-dir", str(tmp_path)]) == 0
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    ops = record["ops"]
    assert record["failed"] == len(ops) >= 1
    assert record["attempted"] == sum(len(p["checks"]) for op in ops
                                      for p in op["phases"]) > len(ops)
    for op in ops:
        assert [p["name"] for p in op["phases"] if not all(p["checks"].values())] \
            == ["collapse_suite"]


def test_raising_phase_fails_its_checks_and_the_loop_goes_on(monkeypatch, tmp_path):
    def abort(*args, **kwargs):
        raise solver1d.SolverAbort("forced", 0.0, 0, None)
    monkeypatch.setattr(experiments, "dod_experiment", abort)
    ops = worker.loop(workloads.Dod(1, "smoke", tmp_path), seconds=0.05)
    assert ops and all(op.failed == op.attempted == len(workloads.Dod.CHECKS)
                       for op in ops)
    assert "SolverAbort" in ops[0].phases[0].error


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("dod", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
