"""Smoke test of the benchmark: tiny runs of every workload, traced and not.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The metrics the workloads print as `metric` lines, with their units.
PRINTED = {
    "setup_s": "s", "enc_MBps": "MB/s", "dec_MBps": "MB/s", "short_p50_us": "us",
    "short_p90_us": "us", "short_msgs_per_s": "1/s", "attack_ms": "ms",
    "report_ms": "ms", "peak_rss_mib": "MiB", "failed_ratio": "ratio",
}


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module", params=[0, 1], ids=["e2e", "traced"])
def runs(request):
    return request.param, {w: _run(w, request.param) for w in WORKLOADS}


def _printed(stdout):
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name_value, unit, _n = line[len("metric "):].split(" ")
            name, value = name_value.split("=")
            out[name] = (float(value), unit)
    return out


def test_every_run_is_correct_and_prints_the_benchmark_json(runs):
    trace, results = runs
    expected = SPEC["per_layer" if trace else "end_to_end"]
    for workload, proc in results.items():
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in expected}, workload
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_prints_every_workload_metric_with_its_unit(runs):
    _trace, results = runs
    printed = {}
    for proc in results.values():
        lines = _printed(proc.stdout)
        assert lines["failed_ratio"] == (0.0, "ratio")
        printed.update(lines)
    for name, unit in PRINTED.items():
        assert printed[name][1] == unit, name


def test_traced_run_counts_the_layers_each_workload_uses(runs):
    trace, results = runs
    if not trace:
        pytest.skip("per-layer metrics come from traced runs")
    m = {w: json.loads(p.stdout.splitlines()[-1])["metrics"] for w, p in results.items()}
    value = {w: {n: v["value"] for n, v in ms.items()} for w, ms in m.items()}
    for w in ("bulk-file", "short-messages"):
        assert value[w]["cipher.encrypt_block.calls"] == 0
        assert value[w]["batch.encrypt_blocks.blocks"] > 0
    assert value["bulk-file"]["batch.useful_block_ratio"] < 1
    assert value["short-messages"]["batch.useful_block_ratio"] == 1
    assert value["analyze"]["analysis.oracle_calls"] == 512
    assert value["analyze"]["gf2.invert.calls"] == 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("short-messages", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
