"""Smoke-sized checks of the benchmark itself (not part of the package tests).

    python3 -m pytest -q benchmarks/check_bench.py
"""
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import selftrig  # noqa: E402
from calibrate import BRACKET, INTERVAL_S, Calibration  # noqa: E402
from pipeline import Tally, run_pass  # noqa: E402
from tracer import TARGETS, Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, make_plan  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def smoke(workload, trace, tmp_path, **kwargs):
    result, report, digest, _ = run.run_workload(
        workload, 7, 0, trace, smoke=True, setup_probes=1, work=tmp_path, **kwargs
    )
    return result, report, digest


def test_spec_matches_emitted_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_unit(workload, trace, tmp_path):
    result, report, _ = smoke(workload, trace, tmp_path)
    assert result["correct"], "\n".join(report)
    assert result["failed"] == 0 and result["attempted"] > 0
    units = run.PER_LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_corrupted_reference_gives_nonzero_error_rate(tmp_path):
    _, _, digest = smoke("sweep", False, tmp_path / "a")
    result, report, _ = smoke("sweep", False, tmp_path / "b", reference=digest)
    assert result["failed"] == 0, "\n".join(report)

    corrupt = json.loads(json.dumps(digest))
    key = next(k for k in corrupt["exact"] if "tx_log" in k)
    corrupt["exact"][key] = "0" * 64
    result, _, _ = smoke("sweep", False, tmp_path / "c", reference=corrupt)
    assert result["failed"] >= 1 and not result["correct"]

    corrupt = json.loads(json.dumps(digest))
    key = next(k for k in corrupt["floats"] if k.startswith("synth|"))
    corrupt["floats"][key][0][0] *= 1 + 1e-6
    result, _, _ = smoke("sweep", False, tmp_path / "d", reference=corrupt)
    assert result["failed"] / result["attempted"] > 0


def test_calibration_scales_to_the_reference_host():
    off = Calibration(enabled=False)
    with off.measure() as timing:
        sum(range(10_000))
    assert timing.factor == 1.0 and timing.scaled_s == timing.raw_s > 0
    assert off.factors == [] and off.stolen_ns == 0

    on = Calibration()
    with on.measure() as timing:
        deadline = time.perf_counter() + 3 * INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    # Samples before, after and at least once inside the block; the time
    # spent in the ones inside is not charged to the block.
    assert timing.samples > 2 * BRACKET and on.stolen_ns > 0
    assert timing.raw_s < 3 * INTERVAL_S + 0.05
    assert timing.factor > 0 and on.factors == [timing.factor]
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _traced_pass(workload, tmp_path, targets=TARGETS):
    plan = make_plan(workload, 7, smoke=True)
    plan.write(tmp_path / "scenarios")
    tally = Tally()
    tracer = Tracer(targets)
    run_pass(plan, tmp_path, tally, "t", tracer)
    assert tally.failed == 0, tally.failures
    return tracer


def test_sweep_trace_counts_210_riccati_solves(tmp_path):
    tracer = _traced_pass("sweep", tmp_path)
    in_sweep = summarize(tracer.spans, root_prefix="cli.sweep")
    # 10 alphas x (1 table build + 20 periodic baseline runs)
    assert in_sweep["synthesis.solve_periodic_riccati"]["calls"] == 210


def test_channel_trace_nesting_and_duplicate_feasibility(tmp_path):
    tracer = _traced_pass("channel", tmp_path)
    selfs, broken = self_times(tracer.spans)
    assert broken == 0 and min(selfs) >= 0
    in_simulate = summarize(tracer.spans, root_prefix="cli.simulate")
    decide_calls = in_simulate["controller.decide"]["calls"]
    assert decide_calls > 0
    assert in_simulate["scheduler.feasible_set"]["calls"] == 2 * decide_calls


def test_missing_or_uncalled_targets_report_zero_and_are_removed(tmp_path):
    original = selftrig.simulator.decide
    tracer = _traced_pass(
        "sweep", tmp_path, targets=("scheduler.no_such_function", "controller.partition_1d",
                                     "controller.decide")
    )
    assert selftrig.simulator.decide is original and selftrig.decide is original
    stats = summarize(tracer.spans)
    assert "scheduler.no_such_function" not in stats
    assert "controller.partition_1d" not in stats
    assert stats["controller.decide"]["calls"] > 0
