"""Self-test of the pipeline benchmark at tiny problem sizes.

    PYTHONPATH=src python -m pytest pipebench -q
"""

import json
import math
from pathlib import Path

import pytest

import bench
import tracing
import workloads
from stabverify import cli

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, work_dir):
    return bench.run(workload, seed=3, seconds=0.01, trace=trace, work_dir=work_dir,
                     scale="tiny", setup_reps=1)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace, tmp_path):
    result, details = tiny_run(workload, trace, tmp_path)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(v for k, v in m.items() if k.endswith(".self_ms"))
        assert self_sum == pytest.approx(m["cli.main.ms"], rel=1e-9)
        assert m["cli.main.calls"] == 1
    assert not hasattr(cli.main, "__wrapped__")  # tracing removed again


def test_wrong_reference_fails_the_op(monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.PINNED["table1.json"], "f_min", (0.9, 5e-4))
    result, details = tiny_run("generator_only", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == details["cycles"] + 1  # each timed table1 op and the warm-up
    assert {f["op"] for f in details["failures"]} == {"table1"}
    assert "f_min" in details["failures"][0]["problems"][0]


def test_nan_and_nonzero_exit_fail_the_op():
    op = workloads.Op("x", [], "sdp", {})
    nan = bench.OpResult(op, 0.1, 0, '{"sdp": {"value": NaN}}', "")
    assert "strict JSON" in bench.problems_of(nan, {})[0]
    crashed = bench.OpResult(op, 0.1, 2, "", "error: bad input")
    assert "exit code 2" in bench.problems_of(crashed, {})[0]


def test_missing_layer_reports_zero_calls(monkeypatch, capsys):
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + ("kernels.removed_kernel",))
    with tracing.Tracer() as tracer:
        tracer.op = 0
        assert cli.main(["analyze", "table1.json", "--trials", "1000", "--format", "json"]) == 0
    capsys.readouterr()
    m = tracer.metrics(1)
    assert m["kernels.removed_kernel.calls"] == 0
    assert m["bounds.bound_report.calls"] == 1
