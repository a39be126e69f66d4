"""Self-test of the benchmark at toy sizes: schema, correctness gate, trace coverage.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in run.PER_LAYER.items()
    }
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_trace_run_passes_gate_with_full_coverage(workload):
    proc, lines = _run("--smoke", "--workload", workload, "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert not any("MISSING" in line for line in lines)
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_smoke_untraced_all_reports_every_end_to_end_metric():
    proc, lines = _run("--smoke", "--workload", "all", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w}.{m}" for w in run.WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert lines[0].startswith("environment ")


def test_gate_counts_each_mismatch_and_fails_everything_on_bad_exit():
    expected = {"rc": 0, "outputs": {"a.csv": "1", "b.csv": "2", "c.csv": "3"}}
    assert run.gate(expected, 0, {"a.csv": "1", "b.csv": "2", "c.csv": "3"}) == (3, 0)
    assert run.gate(expected, 0, {"a.csv": "1", "b.csv": "x"}) == (3, 2)
    assert run.gate(expected, 1, {"a.csv": "1", "b.csv": "2", "c.csv": "3"}) == (3, 3)
    assert run.gate(expected, None, {}) == (3, 3)
    assert run.gate(None, 0, {"a.csv": "1"}) == (1, 1)


def test_missing_span_is_reported_not_zeroed():
    import numpy as np

    # one cli.main span with a select_all child; no _prefix_sq, observe, ...
    names = list(run.SPAN_NAMES)
    spans = np.array([
        [names.index("cli.main"), names.index("rules.select_all")],
        [-1, 0],
        [0, 10],
        [100, 20],
    ], dtype=np.int64)
    layer = run.layer_values(spans, [])
    inv = run.Invocation(True, True, 1.0, 0.1, 10.0, 3, 0, {}, [], layer)
    plain = run.Invocation(False, True, 0.9, 0.1, 10.0, 3, 0, {}, [])
    values, missing = run.per_layer_metrics(run.WORKLOADS["mc-synthetic"], [plain, inv])
    assert "rules.prefix_sums_per_select" in missing
    assert "sequence_model.observe_s" in missing
    assert "rules.select_all_calls" not in missing and values["rules.select_all_calls"] == 1
    assert not set(missing) & set(values)
    # the mc-synthetic workload builds no dense problem, so those metrics read 0
    assert values["problems.decompose_s"] == 0


def test_fails_without_a_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-synthetic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
