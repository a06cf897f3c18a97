"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads
from tracing import SpanIndex

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY_OPS = 6


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == [
        "served_smc", "served_disclosed", "select_sweep",
    ]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("workload", ["served_smc", "served_disclosed"])
def test_served_workload_runs_tiny_and_checks_every_operation(workload, tmp_path):
    result = workloads.run_served(
        workload, 3, 0.2, 0, ROOT, tmp_path, min_ops=TINY_OPS
    )
    assert result.correct, result.report
    assert result.failed == 0
    assert result.attempted >= TINY_OPS
    assert set(result.metrics) == END_TO_END
    assert all(value > 0 for value in result.metrics.values())

    traced = workloads.run_served(
        workload, 3, 0.2, 1, ROOT, tmp_path, min_ops=TINY_OPS
    )
    assert traced.correct, traced.report
    assert traced.failed == 0
    assert set(traced.metrics) <= PER_LAYER
    layers = traced.metrics
    assert layers["keys.ms_per_op"] > 0
    assert layers["wire.frames_per_op"] > 0
    assert 0 < layers["trace.coverage_frac"] <= 1
    if workload == "served_smc":
        assert layers["compare.calls_per_op"] > 0
        assert layers["argmax.calls_per_op"] > 0
        assert layers["shares.ms_per_op"] > 0
        assert layers["crypto.homomorphic_ops_per_op"] > 0
        assert layers["budget.ms_per_op"] == 0
    else:
        assert layers["budget.ms_per_op"] > 0
        # One priced write, then replays, per identity.
        assert 0 < layers["budget.priced_frac"] < 1
        assert layers["budget.priced_frac"] + layers["budget.replayed_frac"] == (
            pytest.approx(1.0)
        )
        assert layers["compare.calls_per_op"] == 0


def test_select_sweep_runs_tiny_and_checks_every_selection():
    result = workloads.run_select(5, 0.1, 0, min_ops=TINY_OPS)
    assert result.correct, result.report
    assert result.failed == 0
    assert result.attempted >= TINY_OPS
    assert set(result.metrics) == END_TO_END

    traced = workloads.run_select(5, 0.1, 1, min_ops=TINY_OPS)
    assert traced.correct, traced.report
    assert set(traced.metrics) <= PER_LAYER
    assert traced.metrics["costing.calls_per_op"] > 0
    assert traced.metrics["risk.evals_per_op"] > 0
    assert traced.metrics["fit.ms"] > 0


def test_check_rejects_a_flipped_label(tmp_path):
    inputs = workloads.build_served("served_smc", 4, tmp_path)
    deployed = inputs.deployed["naive_bayes"]
    row = inputs.rows[0]
    allowed = workloads.expected_labels(deployed.secure_model, row)
    workloads.check_label("naive_bayes", next(iter(allowed)), deployed.secure_model, row)
    wrong = next(
        int(c) for c in deployed.secure_model.classes if int(c) not in allowed
    )
    with pytest.raises(workloads.CheckFailed):
        workloads.check_label("naive_bayes", wrong, deployed.secure_model, row)


def test_a_flipped_served_label_makes_the_run_incorrect(tmp_path, monkeypatch):
    import repro.smc.transport as transport

    honest = transport.request_classification

    def flipped(*args, **kwargs):
        result = honest(*args, **kwargs)
        return dataclasses.replace(result, label=-1 - result.label)

    monkeypatch.setattr(transport, "request_classification", flipped)
    result = workloads.run_served(
        "served_disclosed", 3, 0.2, 0, ROOT, tmp_path, min_ops=TINY_OPS
    )
    assert not result.correct
    assert any("check failed" in line for line in result.report)


def test_seed_changes_inputs_but_not_metric_names(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    one = workloads.build_served("served_smc", 1, tmp_path / "one")
    two = workloads.build_served("served_smc", 2, tmp_path / "two")
    assert one.rows != two.rows
    assert not np.array_equal(
        one.deployed["linear"].plain_model.weights,
        two.deployed["linear"].plain_model.weights,
    )
    first, _ = workloads.sweep_pipeline(1, 0)
    second, _ = workloads.sweep_pipeline(2, 0)
    assert not np.array_equal(
        first.risk_evaluator.rows, second.risk_evaluator.rows
    )
    names = [
        set(workloads.run_select(seed, 0.1, 0, min_ops=TINY_OPS).metrics)
        for seed in (1, 2)
    ]
    assert names[0] == names[1] == END_TO_END


def test_span_arithmetic():
    spans = [
        {"id": 1, "parent": None, "request": "r", "name": "serving.worker",
         "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "request": "r", "name": "secure.classify",
         "start": 1.0, "end": 9.0},
        {"id": 3, "parent": 2, "request": "r", "name": "crypto.encrypt_batch",
         "start": 2.0, "end": 5.0},
        {"id": 4, "parent": 3, "request": "r", "name": "crypto.dot_product",
         "start": 3.0, "end": 4.0},
        {"id": 5, "parent": None, "request": "other", "name": "crypto.x",
         "start": 0.0, "end": 100.0},
    ]
    index = SpanIndex(spans, ["r"])
    assert index.self_seconds("secure.") == pytest.approx(5.0)
    # A crypto call nested in another crypto call is counted once.
    assert index.layer_seconds("crypto") == pytest.approx(3.0)
    assert index.layer_calls("crypto") == 2
    assert index.covered_seconds("serving.worker", "serving") == pytest.approx(8.0)


def test_run_prints_one_result_line_and_refuses_a_bare_directory(tmp_path):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select_sweep",
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert run.stdout.startswith("facts ")

    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    refused = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "served_smc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert refused.returncode != 0
    assert "{" not in refused.stdout
