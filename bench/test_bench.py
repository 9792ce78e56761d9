"""Tests of the benchmark itself: tiny runs of every workload, the self-time
arithmetic, and the counting of wrong outputs.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import record_reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

run.import_library()
import workloads  # noqa: E402

TINY = workloads.Size(p=24, n=40, reps=2)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    return record_reference.record(TINY, workloads.FIT_SEEDS[:1], [0],
                                   tmp_path_factory.mktemp("record"))


def tiny_run(name, trace, reference, tmp_path):
    return run.run_benchmark(name, 0, 0.01, trace, size=TINY, reference=reference,
                             workdir=tmp_path / "work")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace, tiny_reference, tmp_path):
    result, details = tiny_run(name, trace, tiny_reference, tmp_path)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert details["self_sum_gap_s"] <= run.SELF_SUM_TOL_S
    assert not (tmp_path / "work").exists()


def test_perturbed_reference_counts_every_output_as_failed(tiny_reference, tmp_path):
    ref = copy.deepcopy(tiny_reference)
    for entry in ref["simulate_tuned"].values():
        entry["rse"] *= 1.0 + 1e-5
    for entry in ref["decompose_fixed"].values():
        entry["scores_sketch"][0] += 1e-6
    for entry in ref["tune"].values():
        entry["tune_json"]["lambda_hat_deg"][0] += 1.0
    for name in workloads.WORKLOADS:
        result, details = tiny_run(name, False, ref, tmp_path)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= 1, name
        assert details["failures"][0]["mismatch"]


def test_compare_tolerances():
    ref = {"rse": 0.1, "lambda_hat_deg": 20.0, "score_sketch": [1.0, 2.0],
           "structure_json": "{}"}
    same = {"rse": 0.1 * (1 + 1e-9), "lambda_hat_deg": 20.0 + 1e-12,
            "score_sketch": [1.0, 2.0 + 1e-12], "structure_json": "{}"}
    assert workloads.compare(same, ref) == []
    assert workloads.compare({"rse": 0.1001}, ref)
    assert workloads.compare({"lambda_hat_deg": 21.0}, ref)
    assert workloads.compare({"structure_json": "{ }"}, ref)
    assert workloads.compare({"theta_U": 1.0}, ref) == ["theta_U: no reference"]
    assert workloads.compare({"rse": 0.1}, None) == ["no reference for this input"]


def _tree():
    # op 1: root [0, 10] > A [1, 4] > A1 [2, 3]; root > B [5, 9]
    return [
        Span(0, "bench.op", None, 1, 0.0, 10.0),
        Span(1, "tuning.select_lambda", 0, 1, 1.0, 4.0, {"n": 200}),
        Span(2, "core.identify", 1, 1, 2.0, 3.0,
             {"n": 100, "in_key": "a", "out_key": "x", "accepted": 2}),
        Span(3, "cli.main", 0, 1, 5.0, 9.0),
    ]


def test_self_times_subtract_children_once():
    spans = _tree()
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert tracing.self_sum_gap(spans) == 0.0

    overlapping = [Span(0, "bench.op", None, 1, 0.0, 10.0),
                   Span(1, "core.identify", 0, 1, 1.0, 5.0),
                   Span(2, "core.identify", 0, 1, 3.0, 7.0),
                   Span(3, "core.identify", 0, 1, 9.0, 12.0)]
    # children cover [1, 7] and [9, 10] of the root: 7 of its 10 seconds
    assert tracing.self_times(overlapping)[0] == pytest.approx(3.0)
    # the overlap is counted twice in the sum, and the check sees it
    assert tracing.self_sum_gap(overlapping) == pytest.approx(4.0)


def test_layer_metrics_on_a_hand_built_tree():
    m = tracing.layer_metrics(_tree(), ops=[1])
    assert m["bench.op_ms"] == 10_000.0
    assert m["tuning.self_ms"] == 2_000.0
    assert m["core.self_ms"] == 1_000.0
    assert m["cli.self_ms"] == 4_000.0
    assert m["core.identify.calls"] == 1.0
    assert m["core.identify.share_pct"] == 10.0
    assert m["tuning.stage_train.ms"] == 1_000.0  # n = 100 < 200
    assert m["tuning.stage_whole.ms"] == 0.0
    assert m["tuning.sweep_useful_ratio"] == 1.0
    selfs = sum(m[f"{layer}.self_ms"] for layer in tracing.LAYERS)
    assert selfs + 3_000.0 == m["bench.op_ms"]  # plus the root's own 3 s


def test_tail_percentile():
    assert run.tail(range(20)) == (9, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_tracer_restores_every_binding():
    from psidecomp import cli, core, simgen, tuning
    before = (core.identify, tuning.identify, simgen.identify, cli.identify)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(f is not g for f, g in zip(before, (core.identify, tuning.identify,
                                                       simgen.identify, cli.identify)))
    finally:
        tracer.uninstall()
    assert (core.identify, tuning.identify, simgen.identify, cli.identify) == before


def test_compare_warns_on_different_thread_settings():
    env = {k: None for k in compare.ENV_KEYS}
    pinned = dict(env, OPENBLAS_NUM_THREADS="1")
    assert compare.env_warnings([env], [env]) == []
    (warning,) = compare.env_warnings([env], [pinned])
    assert "OPENBLAS_NUM_THREADS" in warning
