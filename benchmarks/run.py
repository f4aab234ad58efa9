#!/usr/bin/env python3
"""selftrig benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload {channel,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from the seed into ``.bench_work/``.  A
correctness gate pass comes first (reference digests at the default seed,
invariants at every seed, replay of the simulated trace); then passes
repeat for ``--seconds``.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-reference`` runs the gate pass only and stores its digests as
the workload's reference.  Only do this when outputs are meant to change,
and say so in the change that does it.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; inherited by the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from calibrate import Calibration  # noqa: E402
from tracer import EVENT_LOOPS, Tracer, self_times, summarize, write_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_plan  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9

E2E_UNITS = {
    "setup_s": "s",
    "synth_s": "s",
    "verify_s": "s",
    "simulate_s": "s",
    "sweep_s": "s",
    "loop_steps_per_s": "1/s",
    "decision_us_p50": "us",
    "decision_us_p99": "us",
    "riccati_rel_error_max": "ratio",
    "peak_rss_mb": "MB",
}

_UNIT_BY_STAT = {"calls": "count", "self_ms": "ms", "self_s": "s", "self_us_p50": "us"}
_LAYER_STATS = (
    ("model.lift_range", ("calls", "self_ms")),
    ("synthesis.solve_periodic_riccati", ("calls", "self_ms")),
    ("synthesis.build_gain_table", ("self_ms",)),
    ("synthesis.stability_certificate", ("self_ms",)),
    ("synthesis.serialize_gain_table", ("self_ms",)),
    ("synthesis.deserialize_gain_table", ("self_ms",)),
    ("controller.decide", ("calls", "self_us_p50")),
    ("scheduler.feasible_set", ("calls", "self_us_p50")),
    ("scheduler.reserve", ("self_us_p50",)),
    ("simulator.step_plant", ("calls", "self_us_p50")),
    ("simulator.run_self_triggered", ("self_s",)),
    ("simulator.run_periodic", ("self_s",)),
    ("simulator.sweep_alpha", ("self_s",)),
    ("simulator.write_trace_csv", ("self_s",)),
    ("simulator.write_txlog_csv", ("self_s",)),
    ("scenario.load_scenario", ("self_ms",)),
)
PER_LAYER_UNITS = {
    f"{fn}.{stat}": _UNIT_BY_STAT[stat] for fn, stats in _LAYER_STATS for stat in stats
}
PER_LAYER_UNITS.update({
    "controller.decide.candidates_mean": "count",
    "scheduler.override_share": "ratio",
    "scheduler.min_feasible_size": "count",
    "simulator.us_per_loop_step": "us",
    "cli.synth.s": "s",
    "cli.verify.s": "s",
    "cli.simulate.s": "s",
    "cli.sweep.s": "s",
    "trace.overhead_s": "s",
})


def import_package():
    """Import selftrig from this checkout's ``src/``; raise if it is not there."""
    if not (SRC / "selftrig" / "__init__.py").is_file():
        raise ImportError(f"no selftrig package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import selftrig

    if SRC not in Path(selftrig.__file__).resolve().parents:
        raise ImportError(f"selftrig was imported from {selftrig.__file__}, not {SRC}")
    return selftrig


def _tree_sha(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _tree_sha(SRC / "selftrig"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def pin_to_one_cpu() -> int:
    """Keep this process and its set-up probes on one CPU, so that the
    calibration samples run on the CPU that runs the measured work."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def load_reference(workload: str, seed: int):
    """The stored digests for this workload, if they were recorded at this seed."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry


def _spread(values) -> tuple[float, float, float]:
    """Median and first/third quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def setup_probe(plan, work: Path, tally, calibration, samples: list) -> None:
    """Time one fresh interpreter that imports selftrig, loads every scenario
    and deserializes every synthesized table; append its seconds, scaled to
    the reference host by calibration samples taken around it, to ``samples``."""
    from pipeline import scenario_path, tables_dir

    manifest = work / "setup.json"
    manifest.write_text(json.dumps({
        "scenarios": [str(scenario_path(work, s)) for s in plan.scenarios],
        "tables": [str(p) for s in plan.synth for p in sorted(tables_dir(work, s).glob("*.gains.json"))],
    }))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    label = tally.op(f"setup:{len(samples)}")
    try:
        with calibration.measure(sample_inside=False) as timing:
            proc = subprocess.run(
                [sys.executable, str(HERE / "probe_setup.py"), str(manifest)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
    except subprocess.TimeoutExpired:
        tally.fail(label, "set-up probe timed out")
        return
    samples.append(timing.scaled_s)
    if proc.returncode != 0:
        tally.fail(label, f"set-up probe exit {proc.returncode}: {proc.stderr[-300:]}")


def _timed_metrics(plan, work, tally, gate, seconds, setup_probes, report, samples) -> dict:
    """End-to-end metrics as medians over passes, scaled to the reference
    host; ``samples`` receives the per-pass values."""
    from pipeline import run_pass

    calibration = Calibration()
    setup = samples["setup_s"] = []
    passes = []
    start = perf_counter()
    # One set-up probe after each of the first passes, so that the probes
    # meet the same spread of host conditions as the passes.
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(plan, work, tally, f"pass{len(passes) + 1}",
                               Tracer(enabled=False), gate.digest, calibration))
        if len(passes) <= setup_probes:
            setup_probe(plan, work, tally, calibration, setup)
    for _ in range(setup_probes - len(passes)):
        setup_probe(plan, work, tally, calibration, setup)
    for key in ("synth_s", "verify_s", "simulate_s", "sweep_s"):
        samples[key] = [p.timings[key] for p in passes]
    steps = plan.simulate_loop_steps() + plan.sweep_loop_steps()
    samples["loop_steps_per_s"] = [
        steps / (p.timings["simulate_s"] + p.timings["sweep_s"]) for p in passes
    ]
    # Decision latency percentiles: per pass for the spread, and over the
    # decisions of all passes for the reported value.
    pooled = [ns for p in passes for ns in p.latencies_ns]
    for q in (50, 99):
        samples[f"decision_us_p{q}"] = [
            float(np.percentile(p.latencies_ns, q)) / 1e3 if p.latencies_ns else float("nan")
            for p in passes
        ]
    values = {}
    for key, xs in samples.items():
        med, q1, q3 = _spread(xs or [float("nan")])
        if key.startswith("decision_us_p"):
            q = int(key.removeprefix("decision_us_p"))
            values[key] = float(np.percentile(pooled, q)) / 1e3 if pooled else float("nan")
            how = f"over {len(pooled)} decisions; per-pass"
        else:
            values[key] = med
            how = f"median of {len(xs)};"
        report.append(f"  {key:<24} {values[key]:14.6g} {E2E_UNITS[key]:<6} "
                      f"{how} quartiles [{q1:.6g}, {q3:.6g}]")
    report.append(f"  decisions replayed per pass: {passes[-1].decisions}")
    report.append("  raw wall seconds (median): " + ", ".join(
        f"{key} {statistics.median(p.raw_timings[key] for p in passes):.6g}"
        for key in ("synth_s", "verify_s", "simulate_s", "sweep_s")))
    q1, med, q3 = statistics.quantiles(calibration.factors, n=4)
    report.append(f"  host scale to reference: median {med:.4f}, quartiles [{q1:.4f}, {q3:.4f}]"
                  f" over {len(calibration.factors)} timed blocks")
    return values


def _traced_metrics(plan, work, tally, gate, seconds, report) -> dict:
    from pipeline import run_pass

    light_walls, traced_walls, us_per_step, summaries, counters = [], [], [], [], []
    broken, overrides, decisions, full = 0, 0, 0, None
    start = perf_counter()
    while not summaries or perf_counter() - start < seconds:
        n = len(summaries) + 1
        light = Tracer(EVENT_LOOPS)
        p = run_pass(plan, work, tally, f"light{n}", light, gate.digest)
        light_walls.append(sum(p.timings.values()))
        loop_ns = sum(r[2] - r[1] for r in light.spans if r[0] in EVENT_LOOPS)
        us_per_step.append(loop_ns / 1e3 / max(light.counters["simulator.loop_steps"], 1))
        full = Tracer()
        p = run_pass(plan, work, tally, f"traced{n}", full, gate.digest)
        traced_walls.append(sum(p.timings.values()))
        summaries.append(summarize(full.spans))
        counters.append(dict(full.counters))
        broken += self_times(full.spans)[1]
        overrides, decisions = p.overrides, p.decisions
    write_spans(full.spans, work / "spans.csv")

    label = tally.op("trace:consistency")
    if broken:
        tally.fail(label, f"{broken} spans with negative self time or children over the parent")
    calls = [{k: v["calls"] for k, v in s.items()} for s in summaries]
    if any(c != calls[0] for c in calls):
        tally.fail(label, "call counts differ between traced passes")

    def median_of(fn, key, scale):
        return float(np.median([s.get(fn, {}).get(key, 0) for s in summaries])) / scale

    last = summaries[-1]
    values = {}
    for fn, stats in _LAYER_STATS:
        for stat in stats:
            if stat == "calls":
                values[f"{fn}.calls"] = last.get(fn, {}).get("calls", 0)
            elif stat == "self_ms":
                values[f"{fn}.self_ms"] = median_of(fn, "self_ns", 1e6)
            elif stat == "self_s":
                values[f"{fn}.self_s"] = median_of(fn, "self_ns", 1e9)
            else:
                values[f"{fn}.self_us_p50"] = median_of(fn, "self_p50_ns", 1e3)
    decide_calls = last.get("controller.decide", {}).get("calls", 0)
    values["controller.decide.candidates_mean"] = (
        counters[-1]["controller.decide.candidates"] / decide_calls if decide_calls else 0.0
    )
    values["scheduler.override_share"] = overrides / decisions if decisions else 0.0
    values["scheduler.min_feasible_size"] = counters[-1].get("scheduler.feasible_set.min_size", 0)
    values["simulator.us_per_loop_step"] = float(np.median(us_per_step))
    for command in ("synth", "verify", "simulate", "sweep"):
        values[f"cli.{command}.s"] = median_of(f"cli.{command}", "total_ns", 1e9)
    values["trace.overhead_s"] = float(np.median(traced_walls) - np.median(light_walls))
    report.append(f"  traced passes: {len(summaries)}; CLI wall untraced "
                  f"{np.median(light_walls):.4f} s, traced {np.median(traced_walls):.4f} s")
    for key, value in values.items():
        report.append(f"  {key:<44} {value:14.6g} {PER_LAYER_UNITS[key]}")
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, *, smoke=False,
                 reference="stored", setup_probes=SETUP_PROBES, work=None):
    """One benchmark run; returns (result object, report lines, gate digest,
    per-pass samples of the end-to-end metrics).

    ``reference`` is a digest dict, None (no reference check), or "stored"
    (the recorded reference; required at the default seed).
    """
    from pipeline import Tally, riccati_rel_error_max, run_pass

    plan = make_plan(workload, seed, smoke)
    work = Path(work) if work is not None else WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    plan.write(work / "scenarios")
    tally = Tally()
    samples = {}
    report = [f"selftrig benchmark: workload={workload} seed={seed} "
              f"seconds={seconds:g} trace={int(trace)}"]
    if reference == "stored":
        reference = None if smoke else load_reference(workload, seed)
        if reference is None and seed == DEFAULT_SEED and not smoke:
            tally.fail(tally.op("gate:reference"), "no stored reference at the default seed")
    gate = run_pass(plan, work, tally, "gate", Tracer(enabled=False), reference)
    report.append(f"  gate: {'reference and ' if reference else ''}invariants, "
                  f"{gate.decisions} replayed decisions, "
                  f"{'ok' if not tally.failures else 'FAILED'}")
    if trace:
        metrics = _traced_metrics(plan, work, tally, gate, seconds, report)
        units = PER_LAYER_UNITS
    else:
        metrics = _timed_metrics(plan, work, tally, gate, seconds, setup_probes, report, samples)
        metrics["riccati_rel_error_max"] = riccati_rel_error_max(plan, work)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for key in ("riccati_rel_error_max", "peak_rss_mb"):
            report.append(f"  {key:<24} {metrics[key]:14.6g} {E2E_UNITS[key]}")
        units = E2E_UNITS
    report.append(f"  error_rate {tally.failed / tally.attempted:.6g} "
                  f"({tally.failed} of {tally.attempted} operations failed)")
    for label, reasons in list(tally.failures.items())[:20]:
        report.append(f"  FAILED {label}: {'; '.join(reasons)[:400]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, report, gate.digest, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this seed's gate digests as the workload's reference")
    args = parser.parse_args(argv)
    try:
        selftrig = import_package()
    except ImportError as exc:
        print(f"benchmark: cannot import the package from this checkout: {exc}", file=sys.stderr)
        return 2
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    if args.record_reference:
        result, report, digest, _ = run_workload(args.workload, args.seed, 0, False,
                                                 reference=None, setup_probes=1)
        if not result["correct"]:
            print("\n".join(report), file=sys.stderr)
            return 1
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        refs[args.workload] = {"seed": args.seed, "selftrig": selftrig.__version__,
                               "src_sha256": env["src_sha256"], **digest}
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"reference for {args.workload} at seed {args.seed} written to {REFERENCE}")
        return 0
    result, report, _, samples = run_workload(args.workload, args.seed, args.seconds,
                                              bool(args.trace))
    out = WORK / args.workload / f"result-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, "report": report, "samples": samples,
                               **result}, indent=1) + "\n")
    print("\n".join(report))
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
