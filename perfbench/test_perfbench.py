"""Tests of the benchmark itself: tiny smoke runs, a live correctness gate, the output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

regretlab = run.load_program()

import spans  # noqa: E402  (needs the package on sys.path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pass(ops, tracer=None):
    gate = run.Gate(workloads, reference=None)
    if tracer is not None:
        tracer.install()
    try:
        *_, results = run.run_pass(ops, run.SpeedProbe())
    finally:
        if tracer is not None:
            tracer.uninstall()
    gate.check(ops, results)
    return gate


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks_under_tracing(name, tmp_path):
    ops = workloads.build(name, seed=3, workdir=tmp_path, small=True)
    tracer = spans.Tracer()
    gate = _pass(ops, tracer)
    assert gate.failed == 0, gate.errors
    assert gate.attempted == len(ops)
    assert tracer.absent == []
    layer = tracer.metrics(passes=1)
    if name == "certify":
        assert layer["hindsight.calls"] == 0
        assert layer["counterexample.dare_calls"] > 0
    else:
        assert layer["hindsight.steps"] >= layer["hindsight.calls"] > 0
    # every wrapper is gone again
    assert not hasattr(regretlab.regret, "__wrapped__")
    assert not hasattr(regretlab.cli.main, "__wrapped__")
    assert not hasattr(regretlab.BallDisturbance.realize, "__wrapped__")


def test_corrupted_results_count_as_failed(tmp_path):
    ops = workloads.build("varying", seed=3, workdir=tmp_path, small=True)
    by_name = {op.name: op for op in ops}

    one_shot = by_name["one_shot_000"]
    run_one_shot = one_shot.run
    one_shot.run = lambda: run_one_shot() + 1e-3

    stability = by_name["stability"]
    run_stability = stability.run

    def corrupted_stability():
        code = run_stability()
        path = stability.out / "stability.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        report["U"]["classification"] = "AsymptoticallyStable"
        path.write_text(json.dumps(report), encoding="utf-8")
        return code

    stability.run = corrupted_stability
    gate = _pass(ops)
    assert gate.failed == 2
    assert [e.split(":")[0] for e in gate.errors] == ["one_shot_000", "stability"]


def test_reference_comparison_is_live(tmp_path):
    ops = workloads.build("varying", workloads.DEFAULT_SEED, tmp_path)
    op = next(op for op in ops if op.name == "classify_ltv_1.02")  # norm tail of order 1e4
    reference = json.loads((Path(run.__file__).parent / "reference.json").read_text())["varying"][op.name]
    checked = workloads.check(op, op.run())
    assert workloads.compare(checked, reference)[::2] == ([], True)
    tampered = json.loads(json.dumps(reference))
    tampered["tail"]["v"][0] *= 1.0 + 1e-6
    errors, rel, identical = workloads.compare(checked, tampered)
    assert errors and rel > workloads.COST_RTOL and not identical


def test_import_breakdown_charges_outermost_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |     scipy._lib",
        "import time:        30 |         50 |   scipy.linalg",
        "import time:         5 |        205 | regretlab.model",
        "import time:         7 |        262 | regretlab",
    ])
    got = run.import_breakdown(log)
    assert got["setup.numpy_s"] == pytest.approx(150e-6)
    assert got["setup.scipy_s"] == pytest.approx(50e-6)
    assert got["setup.jsonschema_s"] == 0.0
    assert got["setup.regretlab_s"] == pytest.approx(12e-6)


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_result_line_carries_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "varying", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_directory_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
