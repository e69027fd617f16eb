"""Small runs of every workload, untraced and traced, through the real command."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# train's accuracy check fails on this few tasks; the smoke run shows it is
# counted, not raised
SMOKE_TASKS = 1500


def _run(tmp_path, *args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args, "--out", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", ["train", "serve", "replay"])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_declared_metric(tmp_path, workload, trace):
    done = _run(tmp_path, "--workload", workload, "--seed", "5", "--seconds", "3",
                "--trace", str(trace), "--tasks", str(SMOKE_TASKS))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    assert last["correct"] == (last["failed"] == 0)
    if trace == 0:
        assert all(last["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    if workload == "train":
        assert last["attempted"] == 8          # two checks per head
    else:
        assert last["correct"], done.stdout
    if workload == "serve" and trace:
        metrics = {k: v["value"] for k, v in last["metrics"].items()}
        assert metrics["service.requests_ok"] == metrics["service.requests_sent"] > 0
        assert metrics["service.predict_request_us"] > 0 and metrics["service.http_overhead_ms"] > 0
    if workload in ("train", "replay") and trace:
        assert last["metrics"]["trace.coverage"]["value"] >= 0.9
    result = json.loads(Path(done.stdout.split("result: ")[1].splitlines()[0]).read_text())
    assert {"nproc", "cpu_model", "python", "numpy", "blas"} <= set(result["machine"])
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_without_the_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path / "out", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
