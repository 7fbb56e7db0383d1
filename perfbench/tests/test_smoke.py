"""Smoke-scale self-test of the benchmark (about half a minute).

Runs every workload tiny with ``--trace 1`` (which runs the untraced
pass in a child process first) and asserts that every metric named in
``BENCHMARK.json`` is printed with its unit and that the output checks
ran and passed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def _result_lines(text):
    return [json.loads(line) for line in text.splitlines()
            if line.startswith('{"correct"')]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_checks_outputs(workload, tmp_path):
    record = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--scale", "smoke",
         "--record", str(record)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    traced = json.loads(done.stdout.strip().splitlines()[-1])
    # The untraced child's output is forwarded to stderr.
    (untraced,) = _result_lines(done.stderr)
    for result, declared in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(untraced["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    checks = json.loads(record.read_text())["checks"]
    names = {c["name"] for c in checks}
    assert all(c["ok"] for c in checks), [c for c in checks if not c["ok"]]
    assert "trace.identical_outputs" in names
    assert any(name.startswith(workload) for name in names), names


def test_predictions_cover_every_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "predictions.json")) as handle:
        table = json.load(handle)
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    covered = [name for group in table["groups"] for name in group["metrics"]]
    assert sorted(covered) == sorted(m["name"] for m in SPEC["per_layer"])
    for group in table["groups"]:
        for workload, metric in group["moves"] + group["still"]:
            assert workload in workloads and metric in e2e
    for alias in table["aliases"].values():
        assert alias["workload"] in workloads and alias["metric"] in e2e


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
