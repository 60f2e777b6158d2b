"""Tests of the benchmark itself: quick mode, output checks, determinism.

    python3 -m pytest bench/test_bench.py

The Kishino fixture takes minutes and lives in ``bench/kishino_check.py``.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN_PY = os.path.join(BENCH, "run.py")


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
MODS = run._load_library()
tracing, workloads = MODS

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def _run_cli(*args, cwd=ROOT):
    run_py = os.path.join(cwd, "bench", "run.py")
    return subprocess.run([sys.executable, run_py, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_mode_emits_every_metric(workload, trace):
    proc = _run_cli("--workload", workload, "--seed", str(run.RECORD_SEED),
                    "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: entry["unit"] for name, entry in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("base", sorted(workloads.FLAT_FIXTURES))
def test_paper_fixtures(base):
    op = workloads.Op("0:0", base, rep="flat2", word=base, flavor=workloads.FLAT)
    output, _ = workloads.closure_op(op, tracing.NullTracer(), ideals=True)
    assert output == workloads.FLAT_FIXTURES[base]


def test_checker_flags_a_wrong_output():
    checker = run.Checker(workloads.FlatIdeals(1), seed=None)
    first = workloads.Op("0:0", "l(3)", rep="flat2", word="l(3)", flavor=workloads.FLAT,
                         expect=workloads.FLAT_FIXTURES["l(3)"])
    assert not checker.check(first, "corank=0 E0=x^12 + 1 E1=1")
    twin = workloads.Op("0:1", "l(3)-n3", rep="flat2", word="s2 t1 s1 t1 s1 t1 s1 s2",
                        flavor=workloads.FLAT, twin_of="0:0")
    assert not checker.check(twin, "corank=1 E1=1")
    assert len(checker.wrong) == 2


@pytest.mark.parametrize("output", ["corank=0 det=0", "corank=2 det=5",
                                    "corank=1 E0=x + 1", "corank=0 E0=x + 1 E2=1",
                                    "corank=2 E2=0 E3=1"])
def test_self_contradicting_outputs_are_flagged(output):
    assert workloads.inconsistency(output)


@pytest.mark.parametrize("output", ["corank=0 det=3", "corank=2 det=0",
                                    "corank=0 E0=x^4 + 1 E1=1", "corank=3 E3=y^6 + y^3 + 1 E4=1"])
def test_consistent_outputs_pass(output):
    assert workloads.inconsistency(output) is None


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_runs_are_deterministic(workload):
    first, detail1 = run.run_traced(MODS, workload, seed=7, quick=True)
    second, detail2 = run.run_traced(MODS, workload, seed=7, quick=True)
    assert first["correct"] and second["correct"]
    assert detail1["outputs"] == detail2["outputs"]
    counts = [name for name, unit in run.PER_LAYER if unit not in ("s", "ratio")]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    untraced, detail3 = run.run_untraced(MODS, workload, seed=7, seconds=0, quick=True)
    assert untraced["correct"]
    assert detail3["outputs"] == detail1["outputs"]


def test_generators_repeat_for_a_seed():
    for name, cls in workloads.WORKLOADS.items():
        a, b = cls(3).rounds(), cls(3).rounds()
        assert [next(a) for _ in range(2)] == [next(b) for _ in range(2)], name


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_cli("--workload", "zp-braids", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
