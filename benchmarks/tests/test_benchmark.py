"""Tests of the benchmark's own parts: inputs, verifier and span arithmetic.

Run with ``python3 -m pytest benchmarks/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import run
import tracing
import verify
import workloads

DECLARED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _library_bytes(seed):
    return [
        (call.function, call.algebra, call.kind, call.coefficients.tobytes())
        for call in inputs.library_calls(seed)
    ]


def test_same_seed_gives_byte_identical_inputs():
    first = [(j.command, j.fmt, j.input_text())
             for j in inputs.cli_single_jobs(7)]
    again = [(j.command, j.fmt, j.input_text())
             for j in inputs.cli_single_jobs(7)]
    assert first == again
    assert _library_bytes(7) == _library_bytes(7)


def test_other_seed_gives_other_inputs():
    texts = [j.input_text() for j in inputs.cli_single_jobs(7)]
    assert texts != [j.input_text() for j in inputs.cli_single_jobs(8)]
    assert _library_bytes(7) != _library_bytes(8)


def test_edge_slice_has_its_fixed_share():
    jobs = inputs.cli_single_jobs(3)
    edge = [j for j in jobs if j.edge is not None]
    assert len(jobs) == inputs.CLI_PASS_JOBS
    assert len(edge) == inputs.EDGE_NEAR_TOLERANCE + inputs.EDGE_NON_FINITE
    assert len(edge) / len(jobs) == inputs.EDGE_SHARE


def test_edge_inputs_run_as_untimed_probes(tmp_path):
    cli = SimpleNamespace(main=lambda argv: 0)
    package = workloads.Package({"cli_interface": cli}, None, {})
    ops = workloads.cli_single_ops(package, 3, tmp_path)
    jobs = inputs.cli_single_jobs(3)
    assert [op.probe for op in ops] == [j.edge is not None for j in jobs]
    assert not any(op.probe for op in workloads.sampling_sweep_ops(
        package, 3, tmp_path))


def test_every_single_input_command_is_generated():
    commands = {j.command for j in inputs.cli_single_jobs(0)}
    assert commands == {"calibrate"} | set(inputs.COMMAND_TYPES)


def test_w_and_v_families_are_real_with_squared_norm_two():
    for terms in (inputs.W_TERMS, inputs.V_TERMS):
        family = np.array([inputs._real_vector(t) for t in terms])
        assert np.allclose(family.imag, 0.0)
        assert np.allclose(np.sum(family.real ** 2, axis=1), 2.0)


def _json_outcome(report, code=0):
    return verify.CliOutcome(code, json.dumps(report), "")


def test_verifier_accepts_a_valid_report():
    report = {"label": "SD", "norm": 1.5}
    verdict = verify.check_cli("classify", "json", _json_outcome(report),
                               kind="SD", expect_success=True)
    assert verdict.failure is None and not verdict.wrong


def test_verifier_rejects_nan_in_json_and_csv():
    outcome = verify.CliOutcome(0, '{"label": "NONE", "norm": NaN}\n', "")
    assert verify.check_cli("classify", "json", outcome).failure
    csv_out = verify.CliOutcome(0, "label,value\nlabel,NONE\nnorm,nan\n", "")
    assert "non-finite" in verify.check_cli("classify", "csv",
                                            csv_out).failure


def test_verifier_rejects_wrong_exit_codes():
    report = {"label": "SD", "norm": 1.0}
    # a command without a gate never exits 1
    assert verify.check_cli("classify", "json",
                            _json_outcome(report, code=1)).failure
    assert verify.check_cli("classify", "json",
                            _json_outcome(report, code=3)).failure
    rejected = verify.CliOutcome(2, "", "input error: bad field\n")
    assert verify.check_cli("classify", "json", rejected).failure is None
    assert verify.check_cli("classify", "json", rejected,
                            expect_success=True).failure
    traceback = verify.CliOutcome(2, "", "Traceback (most recent call)\n"
                                  "input error: x\n")
    assert verify.check_cli("classify", "json", traceback).failure
    escaped = verify.CliOutcome(None, "", "", "CalibrationError: routes")
    assert "escaped" in verify.check_cli("classify", "json", escaped).failure


def test_verifier_rejects_a_reference_mismatch():
    report = {"label": "SD", "norm": 1.0, "residual": 1e-17}
    reference = verify.flatten({"label": "SD", "norm": 1.0 + 1e-12,
                                "residual": 3e-16})
    ok = verify.check_cli("classify", "json", _json_outcome(report),
                          reference=reference)
    assert ok.failure is None
    reference["norm"] = 1.0 + 1e-6
    bad = verify.check_cli("classify", "json", _json_outcome(report),
                           reference=reference)
    assert bad.wrong and "reference mismatch in norm" in bad.failure


def test_verifier_checks_the_generated_type():
    verdict = verify.check_cli("classify", "json",
                               _json_outcome({"label": "ASD", "norm": 1.0}),
                               kind="SD")
    assert verdict.wrong


def test_decompose_invariants_read_csv_labels():
    text = ("label,value\ndominant,8\nparts.1.fraction,0.0\n"
            "parts.6.fraction,0.0\nparts.8.fraction,1.0\n"
            "parts.vertical.fraction,0.0\nreassembly_residual,0.0\n")
    outcome = verify.CliOutcome(0, text, "")
    assert verify.check_cli("decompose", "csv", outcome,
                            kind="SD").failure is None
    assert verify.check_cli("decompose", "csv", outcome, kind="ASD").wrong


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 100) with children a [10, 40) and b [50, 90);
    # a has child c [15, 25); b has child d [60, 90)
    start = [0, 10, 15, 50, 60]
    end = [100, 40, 25, 90, 90]
    parent = [tracing.NO_PARENT, 0, 1, 0, 3]
    self_ns = tracing.self_times_ns(start, end, parent)
    assert self_ns.tolist() == [30, 20, 10, 10, 30]
    assert self_ns.sum() == 100


def test_wrapped_calls_record_nested_spans():
    recorder = tracing.SpanRecorder()

    def leaf(x):
        return x + 1

    inner = tracing._wrapper(leaf, recorder, "m.leaf")

    def outer(x):
        return inner(x) * 2

    outer_traced = tracing._wrapper(outer, recorder, "m.outer")
    recorder.begin_op(0)
    assert outer_traced(1) == 4
    spans = recorder.arrays()
    assert [recorder.names[i] for i in spans["name_id"]] == ["m.outer",
                                                            "m.leaf"]
    assert spans["parent"].tolist() == [tracing.NO_PARENT, 0]
    assert spans["op"].tolist() == [0, 0]

    failing = tracing._wrapper(lambda: 1 / 0, recorder, "m.fail")
    with pytest.raises(ZeroDivisionError):
        failing()
    assert recorder.arrays()["error"].tolist() == [0, 0, 1]


def test_nested_algebra_builds_count_once():
    recorder = tracing.SpanRecorder()
    base = tracing._wrapper(lambda: "algebra", recorder, tracing.BUILD_SPAN)
    named = tracing._wrapper(lambda: base(), recorder, tracing.BUILD_SPAN)
    named()
    assert len(recorder) == 1


def test_op_latency_is_a_high_percentile_over_passes():
    loop = workloads.LoopResult(
        kinds=["a", "b"] * 3,
        latencies=[0.3, 2.0, 0.1, 3.0, 0.2, 1.0],
        failed=[False, False, False, True, False, False],
        failures={}, wrong=0, passes=3, wall_s=6.6, flats=[None, None],
    )
    latency, failed = workloads.op_latencies(loop, 90)
    assert latency == pytest.approx([0.28, 2.8])
    assert failed.tolist() == [False, True]
    slowest, _ = workloads.op_latencies(loop, 100)
    assert slowest == pytest.approx([0.3, 3.0])
    metrics = workloads.end_to_end(loop, 90)
    assert metrics["ops_per_s"][0] == pytest.approx(2 / 3.08)
    assert metrics["op_p50_ms"][0] == pytest.approx(280.0)


def _result_line(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload",
         "library_batch", "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"),
                                             (1, "per_layer")])
def test_a_run_prints_exactly_the_declared_metrics(trace, declared):
    result = _result_line(trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in DECLARED[declared]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in DECLARED[declared]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(run.END_TO_END)
