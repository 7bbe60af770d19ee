"""Self-test of the benchmark harness.  Run from the repository root:

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Enough ops of each workload for every layer the traced pass must see.
TINY = {"fock-deep": 2, "gadgets": 40, "shots": 2, "corr-scale": 3}


def _tiny(name: str, tmp: str):
    workload = generate(name, 3, ROOT, tmp)
    workload.ops = workload.ops[:TINY[name]]
    return workload


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    out = run.measure(ROOT, _tiny(name, f".bench_work/test-{name}"), seconds=0, trace=trace,
                      min_ops=1, setup_repeats=1)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert {"python", "numpy", "blas", "blas_threads", "cpu", "commit", "seed"} <= set(
        out["environment"])


@pytest.mark.parametrize("name", ["fock-deep", "corr-scale"])
def test_perturbed_probability_counts_as_a_failed_op(name, tmp_path):
    workload = _tiny(name, str(tmp_path))
    workload.ops = workload.ops[:1]
    circuit = workload.ops[0].argv[1]
    Path(circuit).write_text(workload.files[circuit], encoding="utf-8")
    sys.path.insert(0, str(ROOT / "src"))
    from feqc import cli

    _, code, stdout, stderr = run_op(cli, workload.ops[0].argv)
    report = json.loads(stdout)
    report["branches"][0]["probability"] += 1e-6
    outputs = tmp_path / "outputs.jsonl"
    with open(outputs, "w", encoding="utf-8") as fh:
        for out in (stdout, json.dumps(report)):
            fh.write(json.dumps({"pass": "untraced", "op": 0, "code": code, "out": out,
                                 "err": stderr}) + "\n")
    checked = run.check_outputs(ROOT, workload, outputs)
    assert checked["tally"]["untraced"] == [2, 1]
    metrics = run.end_to_end_metrics(
        {"untraced": [[1.0, 1.0], [1.0, 1.0]], "peak_rss_kb": 1024}, [[0.1, 0.004]], 2, 1)
    assert metrics["ok_rate"] == 0.5


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_and_differ_across_seeds(name):
    first = generate(name, 11, ROOT, "work")
    assert first == generate(name, 11, ROOT, "work")
    assert first != generate(name, 12, ROOT, "work")
