"""Tests of the benchmark itself, at the smoke size (a few seconds a run)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--size", "smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc, result


def corrupted_golden(tmp_path, edit):
    golden = json.loads((BENCH / "golden.json").read_text())
    edit(golden)
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    return str(path)


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_timed_run_prints_every_metric_with_its_unit(workload):
    proc, result = bench("--workload", workload)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["value"] > 0
        assert f"{name} = " in proc.stdout and proc.stdout.count(unit)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc, result = bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.PER_LAYER
    spans = json.loads(
        (ROOT / ".bench_out" / f"{workload}-seed0-spans.json").read_text())
    assert {s["name"] for s in spans["spans"]} >= {"item"}


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc, result = bench("--workload", "verify_table", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bits")})
    assert counts[0] == counts[1]
    assert counts[0]["zeta.repeat_counts"] > 0
    assert counts[0]["construct.calls"] == 11


@pytest.mark.parametrize("workload, edit", [
    ("census", lambda g: g["census"]["gf2-2"][0].__setitem__(3, 999)),
    ("verify_table", lambda g: g["verify_table"]["6"].pop()),
    ("identity", lambda g: g["identity"]["0"][1][0].__setitem__(0, -1)),
])
def test_a_corrupted_golden_value_fails_the_run(tmp_path, workload, edit):
    golden = corrupted_golden(tmp_path, edit)
    proc, result = bench("--workload", workload, "--golden", golden)
    assert proc.returncode == 1
    assert result["correct"] is False
    assert "CHECK FAILED" in proc.stderr


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, result = bench("--workload", "census", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
