"""One pass of a workload through the ``selftrig`` command line, and the
checks on what it wrote.

A pass runs ``synth`` and ``verify`` on every synthesized scenario, then
``simulate`` and ``sweep``, each in-process through ``selftrig.cli.main``.
The outputs are then digested (compared against a stored reference or an
earlier pass), checked for invariants that hold at any seed, and the
simulated trace is replayed decision by decision through the deployed
online law (``feasible_set`` -> ``decide`` -> ``reserve``).

Every CLI command and every replayed decision is one operation; a
failed check marks the operation that produced the checked output.
"""
from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import numpy as np
import scipy.linalg

from selftrig import (
    ReservationLedger,
    SelfTrigError,
    decide,
    deserialize_gain_table,
    feasible_set,
    lift_range,
    load_scenario,
    reserve,
    verify_conflict_free,
)
from selftrig.cli import main as cli_main

from calibrate import Calibration

# Float outputs (costs, P/L checksums, epsilons) must match within this
# relative tolerance; waits, sample times, the channel log and sweep
# intervals must match exactly.
REL_TOL = 1e-9

COMMANDS = ("synth", "verify", "simulate", "sweep")


class Tally:
    """Attempted operations and the failure reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = {}

    def op(self, label: str) -> str:
        self.attempted += 1
        return label

    def fail(self, label: str, reason: str) -> None:
        self.failures.setdefault(label, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class LoopRecord:
    """What ``simulate`` wrote for one loop: state per step and samples."""

    states: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # (k, chosen wait)


@dataclass
class PassResult:
    timings: dict  # scaled to the reference host (see calibrate.py)
    raw_timings: dict
    digest: dict
    latencies_ns: list
    decisions: int
    overrides: int


def _paths(work: Path) -> dict:
    """Output directories of one pass, emptied before each pass."""
    return {"tables": work / "tables", "run": work / "run", "sweep": work / "sweep"}


def scenario_path(work: Path, stem: str) -> Path:
    return work / "scenarios" / f"{stem}.json"


def tables_dir(work: Path, stem: str) -> Path:
    return work / "tables" / stem


def _call(argv, tracer, calibration):
    """Run one CLI command in-process; returns (exit code, Measurement, output)."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        with tracer.span("cli." + argv[0]), calibration.measure() as timing:
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc()
                code = "exception"
    return code, timing, log.getvalue()


def run_commands(plan, work: Path, tracer, tally: Tally, tag: str,
                 calibration) -> tuple[dict, dict]:
    """The workload's CLI commands; returns summed seconds per command, scaled
    to the reference host and raw.

    Garbage is collected before each command, so one command's garbage is
    not charged to the next.
    """
    paths = _paths(work)
    for path in paths.values():
        shutil.rmtree(path, ignore_errors=True)
    scn = {stem: str(scenario_path(work, stem)) for stem in plan.scenarios}
    tab = {stem: str(tables_dir(work, stem)) for stem in plan.scenarios}
    commands = [("synth", s, ["synth", "-c", scn[s], "-o", tab[s]]) for s in plan.synth]
    commands += [("verify", s, ["verify", "-t", tab[s], "-c", scn[s]]) for s in plan.synth]
    commands.append(
        ("simulate", plan.simulate,
         ["simulate", "-c", scn[plan.simulate], "-t", tab[plan.simulate],
          "-o", str(paths["run"])])
    )
    commands.append(
        ("sweep", plan.sweep,
         ["sweep", "-c", scn[plan.sweep], "--alphas", ",".join(repr(a) for a in plan.alphas),
          "--runs", str(plan.runs), "--seed", str(plan.sweep_seed),
          "-o", str(paths["sweep"] / "out.csv")])
    )
    timings = {f"{c}_s": 0.0 for c in COMMANDS}
    raw = dict(timings)
    for command, stem, argv in commands:
        label = tally.op(f"{tag}:{command}:{stem}")
        gc.collect()
        code, timing, log = _call(argv, tracer, calibration)
        timings[f"{command}_s"] += timing.scaled_s
        raw[f"{command}_s"] += timing.raw_s
        if code != 0:
            tally.fail(label, f"exit code {code}: {log.strip()[-300:]}")
    return timings, raw


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _matrix_checksums(flat) -> list:
    """Signed sum and Frobenius norm, each as (value, scale) for comparison."""
    v = np.asarray(flat, dtype=float)
    frob = float(np.sqrt(np.sum(v * v)))
    return [[float(np.sum(v)), frob], [frob, frob]]


def read_trace(work: Path, scn) -> tuple[dict, list]:
    """Per-loop states and samples from ``*.trace.csv``, and the channel log."""
    run = _paths(work)["run"]
    loops = {}
    for spec in scn.loops:
        rec = LoopRecord()
        n = spec.system.n
        for row in _read_csv(run / f"{spec.name}.trace.csv"):
            rec.states.append(np.array([float(row[f"x_{j + 1}"]) for j in range(n)]))
            if row["sampled"] == "1":
                rec.samples.append((int(row["k"]), int(row["i_chosen"])))
        loops[spec.name] = rec
    tx_log = [
        (int(r["k"]), r["loop_id"], int(r["i_chosen"]),
         tuple(int(i) for i in r["feasible_set"].split(";")))
        for r in _read_csv(run / "tx_log.csv")
    ]
    return loops, tx_log


def digest_outputs(plan, work: Path, loops: dict, tx_log: list) -> dict:
    """Exact digests and float checksums of every command's outputs.

    Keys are ``command|stem|detail`` so a mismatch names its operation.
    """
    exact, floats = {}, {}
    for stem in plan.synth:
        for path in sorted(tables_dir(work, stem).glob("*.gains.json")):
            doc = json.loads(path.read_text())
            values = [[doc["epsilon"], abs(doc["epsilon"])]]
            for rec in doc["entries"]:
                values += _matrix_checksums(rec["P"]) + _matrix_checksums(rec["L"])
            floats[f"synth|{stem}|{doc['loop_id']}"] = values
    for name, rec in loops.items():
        exact[f"simulate|{plan.simulate}|samples:{name}"] = _sha(rec.samples)
    exact[f"simulate|{plan.simulate}|tx_log"] = _sha(tx_log)
    summary = json.loads((_paths(work)["run"] / "summary.json").read_text())
    for name, stats in summary.items():
        floats[f"simulate|{plan.simulate}|summary:{name}"] = [
            [float(stats[key]), abs(float(stats[key]))]
            for key in ("avg_interval", "empiric_cost", "final_value", "final_state_norm")
        ]
    for path in sorted(_paths(work)["sweep"].glob("*.csv")):
        rows = _read_csv(path)
        exact[f"sweep|{plan.sweep}|mean_interval:{path.name}"] = _sha(
            (r["alpha"], r["mean_interval"]) for r in rows
        )
        floats[f"sweep|{plan.sweep}|mean_cost:{path.name}"] = [
            [float(r["mean_cost"]), abs(float(r["mean_cost"]))] for r in rows
        ]
    return {"exact": exact, "floats": floats}


def compare_digests(digest: dict, reference: dict) -> list:
    """(key, reason) for every output that differs from the reference."""
    bad = []
    for key in sorted(set(digest["exact"]) | set(reference["exact"])):
        if digest["exact"].get(key) != reference["exact"].get(key):
            bad.append((key, "digest differs from reference"))
    for key in sorted(set(digest["floats"]) | set(reference["floats"])):
        got, ref = digest["floats"].get(key), reference["floats"].get(key)
        if got is None or ref is None or len(got) != len(ref):
            bad.append((key, "output missing or reshaped"))
            continue
        for (a, _), (b, scale) in zip(got, ref):
            if not abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale):
                bad.append((key, f"{a!r} differs from reference {b!r}"))
                break
    return bad


def check_invariants(scn, loops: dict, tx_log: list) -> list:
    """Reasons the simulated run breaks a seed-independent invariant."""
    bad = []
    if not verify_conflict_free(sorted((k, loop) for k, loop, _, _ in tx_log)):
        bad.append("slot collision in the channel log")
    for name, rec in loops.items():
        for (k0, wait), (k1, _) in zip(rec.samples, rec.samples[1:]):
            gap = k1 - k0
            if not (1 <= gap <= scn.p) or gap != wait:
                bad.append(f"loop {name}: gap {gap} after k={k0} (wait {wait}, p={scn.p})")
                break
    return bad


def replay(work: Path, plan, scn, loops: dict, tx_log: list, tally: Tally, tag: str,
           latencies_ns: list, calibration) -> tuple[int, int]:
    """Re-run every sampling instant of the simulated trace through the online law.

    Instants are visited in time order (loop order at equal times); each
    decision is timed from ``feasible_set`` to ``reserve``.  A decision
    fails when its wait or feasible set differs from the trace.  Returns
    (decisions, overrides), where an override is a decision whose
    unconstrained argmin over all of I0 was excluded by the ledger.  The
    latencies exclude calibration samples taken during a decision and are
    scaled to the reference host.
    """
    tables = {}
    for path in sorted(tables_dir(work, plan.simulate).glob("*.gains.json")):
        gt, _, _ = deserialize_gain_table(path.read_text())
        tables[gt.loop_id] = gt
    names = tuple(spec.name for spec in scn.loops)
    logged = {(k, loop): feas for k, loop, _, feas in tx_log}
    events = sorted(
        (k, idx, wait) for idx, name in enumerate(names) for k, wait in loops[name].samples
    )
    ledger = ReservationLedger(p=scn.p, I0=scn.I0, loop_order=names, next_tx={})
    overrides = 0
    timed = []
    gc.collect()
    with calibration.measure() as timing:
        for k, idx, wait in events:
            name = names[idx]
            x = loops[name].states[k]
            label = tally.op(f"{tag}:decision:{name}:{k}")
            try:
                # Read the sample counter inside the timed interval, so a
                # sample between the reads is subtracted only if it was timed.
                start = perf_counter_ns()
                stolen = calibration.stolen_ns
                feas = feasible_set(ledger, name, k)
                dec = decide(tables[name], x, feas)
                ledger = reserve(ledger, name, k, dec.i_star)
                stolen = calibration.stolen_ns - stolen
                timed.append(perf_counter_ns() - start - stolen)
            except (SelfTrigError, KeyError) as exc:
                tally.fail(label, f"replay raised {exc!r}")
                continue
            expected = logged.get((k, name))
            if dec.i_star != wait or (expected is not None and tuple(sorted(feas)) != expected):
                tally.fail(label, f"replay chose {dec.i_star} from {sorted(feas)}; trace has "
                                  f"{wait} from {expected}")
            if decide(tables[name], x, scn.I0).i_star != dec.i_star:
                overrides += 1
    latencies_ns.extend(ns * timing.factor for ns in timed)
    return len(events), overrides


def run_pass(plan, work: Path, tally: Tally, tag: str, tracer, reference=None,
             calibration=None) -> PassResult:
    """Commands (with ``tracer`` installed), then digests, invariants and replay.

    Outputs are compared with ``reference`` when one is given.  Without a
    ``calibration`` the times are not scaled.
    """
    calibration = calibration or Calibration(enabled=False)
    with tracer.installed():
        timings, raw = run_commands(plan, work, tracer, tally, tag, calibration)
    latencies, decisions, overrides = [], 0, 0
    digest = {"exact": {}, "floats": {}}
    scn, _ = load_scenario(scenario_path(work, plan.simulate))
    try:
        loops, tx_log = read_trace(work, scn)
        digest = digest_outputs(plan, work, loops, tx_log)
    except (OSError, KeyError, ValueError) as exc:
        tally.fail(f"{tag}:simulate:{plan.simulate}", f"outputs unreadable: {exc!r}")
        return PassResult(timings, raw, digest, latencies, decisions, overrides)
    if reference is not None:
        for key, reason in compare_digests(digest, reference):
            command, stem, detail = key.split("|", 2)
            tally.fail(f"{tag}:{command}:{stem}", f"{detail}: {reason}")
    for reason in check_invariants(scn, loops, tx_log):
        tally.fail(f"{tag}:simulate:{plan.simulate}", reason)
    decisions, overrides = replay(work, plan, scn, loops, tx_log, tally, tag, latencies,
                                  calibration)
    return PassResult(timings, raw, digest, latencies, decisions, overrides)


def riccati_rel_error_max(plan, work: Path) -> float:
    """Largest max-norm distance of a stored ``Pp`` from scipy's DARE solution,
    relative to the latter, over every synthesized table.

    Distances below one unit of float64 round-off are reported as that unit,
    so the metric never reads zero.
    """
    worst = 0.0
    for stem in plan.synth:
        scn, _ = load_scenario(scenario_path(work, stem))
        specs = {spec.name: spec for spec in scn.loops}
        for path in sorted(tables_dir(work, stem).glob("*.gains.json")):
            gt, _, _ = deserialize_gain_table(path.read_text())
            spec = specs[gt.loop_id]
            lm = lift_range(spec.system, spec.weights, gt.p)[-1]
            ref = scipy.linalg.solve_discrete_are(lm.Ai, lm.Bi, lm.Qi, lm.Ri, s=lm.Ni)
            worst = max(worst, float(np.max(np.abs(gt.Pp - ref)) / np.max(np.abs(ref))))
    return max(worst, float(np.finfo(float).eps))
