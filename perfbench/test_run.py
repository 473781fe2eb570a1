"""Tests of the benchmark itself, on its smoke mode.

    python -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke():
    """(workload, trace) -> (result, report) of one smoke run, cached."""
    cache = {}

    def get(workload: str, trace: int):
        if (workload, trace) not in cache:
            proc = _run(ROOT, "--workload", workload, "--seed", "3",
                        "--seconds", "0", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            assert lines[-2].startswith("report ")
            cache[workload, trace] = (json.loads(lines[-1]),
                                      json.loads(lines[-2][len("report "):]))
        return cache[workload, trace]
    return get


def _ms(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".ms")}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(smoke, workload, trace):
    result, report = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    env = report["env"]
    assert env["blas_threads"] == 1
    assert {"numpy", "blas", "python", "nproc", "loadavg_start"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_cover_the_traced_wall_time(smoke, workload):
    metrics = smoke(workload, 1)[0]["metrics"]
    coverage = metrics["trace.coverage"]["value"]
    assert 0.9 <= coverage <= 1.0 + 1e-9
    total_ms = sum(_ms(metrics).values())
    report = smoke(workload, 1)[1]
    assert total_ms > 0 and report["traced_episodes"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(smoke, workload):
    assert smoke(workload, 0)[1]["box_digest"] == smoke(workload, 1)[1]["box_digest"]


def test_layers_run_where_the_workloads_say(smoke):
    offline = _ms(smoke("track-offline-255", 1)[0]["metrics"])
    online = _ms(smoke("track-online-128", 1)[0]["metrics"])
    train = _ms(smoke("train-track-128", 1)[0]["metrics"])
    assert max(online, key=online.get) == "online.solve.ms"
    assert offline["online.solve.ms"] == 0.0 and train["online.solve.ms"] == 0.0
    assert offline["tensor.backward.ms"] == 0.0 and online["tensor.backward.ms"] == 0.0
    assert train["tensor.backward.ms"] > 0.0
    attention = offline["tensor.softmax_rows.ms"] + sum(
        v for k, v in offline.items() if k.startswith("attention."))
    assert attention > max(v for k, v in offline.items()
                           if k != "tensor.softmax_rows.ms"
                           and not k.startswith("attention."))


def test_reference_time_scales_wall_time_by_the_kernel():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from pace import REFERENCE_MS, Pace, reference_ms
    assert reference_ms(100.0, REFERENCE_MS, REFERENCE_MS) == pytest.approx(100.0)
    # the machine ran at half speed around the op
    assert reference_ms(100.0, 2 * REFERENCE_MS, 2 * REFERENCE_MS) == pytest.approx(50.0)
    pace = Pace()
    assert pace.tick() > 0 and len(pace.kernel_ms) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wall_times_are_reported_beside_reference_times(smoke, workload):
    report = smoke(workload, 0)[1]
    assert report["op_wall_ms_p50"] > 0 and report["init_wall_ms_p50"] > 0
    assert report["op_samples"] >= 1 and len(report["kernel_ms_min_p50_max"]) == 3


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
