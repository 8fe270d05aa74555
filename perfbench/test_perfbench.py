"""Smoke test of the benchmark harness at small size (one pass per run).

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every workload and every named metric is emitted, that
BENCHMARK.json names exactly the metrics the harness produces, that output
digests repeat (against the committed digests on the default seed, and
between two processes on another seed), and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

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


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("record: ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("record: "):])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, record = _result("--workload", workload, "--seed", str(run.DEFAULT_SEED), "--seconds", "0.1",
                             "--trace", "0")
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 and m["unit"] == run.END_TO_END[name] for name, m in result["metrics"].items())
    assert record["goldens_match"] and record["digest_stable"]
    assert record["digest_matches_committed"], "outputs changed: re-check, then update perfbench/digests.json"
    assert {"python", "nproc", "commit", "seed", "loadavg"} <= set(record)


def test_traced_run_emits_every_per_layer_metric():
    result, record = _result("--workload", "symbolic-trace", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.per_layer_units())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["shadowing.shadow_oracle.calls"] > 0
    assert metrics["systems.OdometerSystem.evaluate.calls"] > 0
    assert all(v > 0 for k, v in metrics.items() if k.startswith("scenarios."))
    assert record["digest_traced_equals_untraced"]


def test_digest_repeats_on_another_seed():
    first = run.worker("symbolic-trace", 11, 0)
    second = run.worker("symbolic-trace", 11, 0)
    assert first["digest"] == second["digest"]
    assert first["digest"] != run.worker("symbolic-trace", 12, 0)["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "pl-trace", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
