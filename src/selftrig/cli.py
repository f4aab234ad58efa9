"""Command-line front end.

Subcommands: ``synth`` (offline table synthesis with persistence),
``simulate`` (closed-loop runs with CSV traces), ``sweep`` (sampling-cost
sweeps with periodic baselines) and ``verify`` (certificate checks on
persisted tables).

Exit codes: 0 success, 2 configuration error, 3 numeric/synthesis error,
4 certificate failure, 5 scheduling violation.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    CertificateError,
    ConfigurationError,
    SchedulingError,
    SelfTrigError,
    SynthesisError,
)
from .scenario import load_scenario
from .scheduler import verify_conflict_free
from .simulator import (
    MODE_PERIODIC,
    _build_tables,
    _check_tables,
    average_sampling_interval,
    empiric_cost,
    periodic_baseline,
    run_periodic,
    run_self_triggered,
    sweep_alpha,
    write_sweep_csv,
    write_trace_csv,
    write_txlog_csv,
)
from .synthesis import (
    deserialize_gain_table,
    select_pstar,
    serialize_gain_table,
    stability_certificate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATE = 4
EXIT_SCHEDULING = 5

# Largest accepted distance between a stored and a recomputed epsilon.
EPSILON_ATOL = 1e-9


def _table_path(out_dir: Path, loop_id: str) -> Path:
    """The one file of a loop's table: synth writes it, simulate and verify read it."""
    return out_dir / f"{loop_id}.gains.json"


def _print_table(gt, cert) -> None:
    print(
        f"loop {gt.loop_id}: n={gt.n} m={gt.m} alpha={gt.alpha:g} "
        f"p={gt.p} gamma={gt.gamma} epsilon={cert.epsilon:.5f}"
    )
    header = f"  {'i':>3}  {'L(i)':>24}  {'P(i)':>24}"
    print(header)
    for i in gt.I0:
        P, L = gt.entries[i][0], gt.entries[i][1]
        l_str = " ".join(f"{v:.2f}" for v in L.ravel())
        p_str = " ".join(f"{v:.2f}" for v in P.ravel())
        print(f"  {i:>3}  {l_str:>24}  {p_str:>24}")


def cmd_synth(args) -> int:
    scn, _ = load_scenario(args.scenario)
    tables = _build_tables(scn)
    systems = [spec.system for spec in scn.loops]
    pstar = select_pstar(systems, scn.I0)
    if scn.p != pstar:
        raise SynthesisError(
            f"scenario period p={scn.p} differs from the admissible terminal "
            f"period {pstar}; the stability construction requires p == {pstar}"
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec, gt in zip(scn.loops, tables):
        cert = stability_certificate(gt, spec.system, pstar)
        path = _table_path(out_dir, spec.name)
        path.write_text(serialize_gain_table(gt, cert))
        _print_table(gt, cert)
        print(f"  written: {path}")
    return EXIT_OK


def _load_tables(tables_dir: Path, scn) -> dict:
    """Each loop's ``(table, stored epsilon, stored pstar)``, read from
    its :func:`_table_path` only; other files in ``tables_dir`` are not read."""
    tables = {}
    for spec in scn.loops:
        path = _table_path(tables_dir, spec.name)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigurationError(f"cannot read table {path}: {exc}") from exc
        gt, eps, pstar = deserialize_gain_table(text)
        if gt.loop_id != spec.name:
            raise ConfigurationError(f"table {path} holds loop {gt.loop_id!r}, not {spec.name!r}")
        tables[spec.name] = (gt, eps, pstar)
    return tables


def _write_gnuplot(out_dir: Path, loops) -> None:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'k'",
    ]
    for spec in loops:
        n, m = spec.system.n, spec.system.m
        sampled_col = 1 + n + m + 1  # k, x_1..x_n, u_1..u_m, sampled
        # gnuplot writes a quote inside a single-quoted string as two.
        name = spec.name.replace("'", "''")
        curves = [
            f"'{name}.trace.csv' using 1:{1 + j} with steps"
            for j in range(1, n + 1)
        ]
        curves.append(
            f"'{name}.trace.csv' using 1:(${sampled_col}==1?$2:1/0) "
            f"with points pt 7 title 'samples'"
        )
        lines.append(f"set title 'loop {name}'")
        lines.append("plot " + ", \\\n     ".join(curves))
        lines.append("pause -1")
    (out_dir / "plot.gp").write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    scn, _ = load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if scn.mode == MODE_PERIODIC:
        trace = run_periodic(scn)
    else:
        if not args.tables:
            raise ConfigurationError(
                "self-triggered scenarios need -t/--tables (run synth first)"
            )
        stored = _load_tables(Path(args.tables), scn)
        tables = {name: gt for name, (gt, _, _) in stored.items()}
        trace = run_self_triggered(scn, tables)
    if not verify_conflict_free(trace.tx_log):
        raise SchedulingError("simulated transmission log has a slot conflict")
    summary = {}
    for spec in scn.loops:
        tr = trace.loops[spec.name]
        write_trace_csv(tr, out_dir / f"{spec.name}.trace.csv")
        final_x = tr.states[-1]
        summary[spec.name] = {
            "first_wait": int(tr.waits[0]),
            "final_wait": int(tr.waits[-1]),
            "n_samples": int(tr.sample_times.size),
            "avg_interval": average_sampling_interval(tr),
            "empiric_cost": empiric_cost(tr, spec.weights.Q, spec.weights.R),
            "final_value": float(tr.values[-1]),
            "final_state_norm": float(np.linalg.norm(final_x)),
        }
    write_txlog_csv(trace, out_dir / "tx_log.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if args.gnuplot:
        _write_gnuplot(out_dir, scn.loops)
    for name, stats in summary.items():
        print(
            f"loop {name}: first_wait={stats['first_wait']} "
            f"final_wait={stats['final_wait']} samples={stats['n_samples']} "
            f"avg_interval={stats['avg_interval']:.3f} "
            f"cost={stats['empiric_cost']:.6g} final_V={stats['final_value']:.6g}"
        )
    print(f"outputs written to {out_dir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scn, _ = load_scenario(args.scenario)
    try:
        alphas = [float(a) for a in args.alphas.split(",") if a.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(
            f"--alphas must be comma-separated numbers: {exc}"
        ) from exc
    if args.seed is not None:
        scn = replace(scn, seed=args.seed)
    summary = sweep_alpha(scn, alphas, args.runs)
    for alpha, msg in summary.errors.items():
        print(f"alpha={alpha:g}: synthesis failed: {msg}", file=sys.stderr)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    single = len(summary.loop_names) == 1
    suffix = out.suffix or ".csv"
    stem = str(out.with_suffix(""))

    def out_path(loop_name: str, periodic: bool) -> Path:
        parts = [] if single else [loop_name]
        if periodic:
            parts.append("periodic")
        tag = "." + ".".join(parts) if parts else ""
        return Path(stem + tag + suffix)

    for name in summary.loop_names:
        write_sweep_csv(summary, name, out_path(name, periodic=False))

    baseline = periodic_baseline(scn, summary)
    for name in summary.loop_names:
        write_sweep_csv(baseline, name, out_path(name, periodic=True))
    print(f"sweep written to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    scn, _ = load_scenario(args.scenario)
    stored = _load_tables(Path(args.tables), scn)
    _check_tables(scn, {name: gt for name, (gt, _, _) in stored.items()})
    systems = [spec.system for spec in scn.loops]
    pstar = select_pstar(systems, scn.I0)
    print(f"terminal period {pstar}; equals max wait gamma: "
          f"{'yes' if pstar == scn.gamma else 'no'}")
    s = len(scn.loops)
    if s >= 2:
        print(f"network admissibility (s={s} <= p={scn.p}, waits 1..{s} available): ok")
    failures = []
    for spec in scn.loops:
        gt, eps_stored, pstar_stored = stored[spec.name]
        try:
            cert = stability_certificate(gt, spec.system, pstar)
        except (CertificateError, ConfigurationError) as exc:
            failures.append(str(exc))  # names the loop already
            print(f"loop {spec.name}: CERTIFICATE FAILED: {exc}")
            continue
        collapse = math.isclose(cert.lower_bound, cert.upper_bound, rel_tol=1e-12)
        print(
            f"loop {spec.name}: epsilon={cert.epsilon:.17g} "
            f"(stored {eps_stored:.17g}), bounds=[{cert.lower_bound:.6g}, "
            f"{cert.upper_bound:.6g}]{' (collapsed)' if collapse else ''}, "
            f"pstar={cert.pstar} (stored {pstar_stored})"
        )
        if cert.lower_bound > cert.upper_bound + 1e-15:
            failures.append(f"loop {spec.name!r}: bound ordering violated")
        # epsilon is 1 minus a ratio, so its rounding error is absolute.
        if not abs(cert.epsilon - eps_stored) <= EPSILON_ATOL:
            failures.append(
                f"loop {spec.name!r}: stored epsilon {eps_stored:.17g} differs from "
                f"recomputed {cert.epsilon:.17g}"
            )
        if pstar_stored != cert.pstar:
            failures.append(
                f"loop {spec.name!r}: stored pstar {pstar_stored} differs from "
                f"selected {cert.pstar}"
            )
    if failures:
        raise CertificateError("; ".join(failures))
    print("all certificates pass")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selftrig",
        description="Self-triggered MPC: offline synthesis, simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize gain tables from a scenario")
    p_synth.add_argument("-c", "--scenario", required=True)
    p_synth.add_argument("-o", "--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser("simulate", help="run a scenario against stored tables")
    p_sim.add_argument("-c", "--scenario", required=True)
    p_sim.add_argument("-t", "--tables", help="directory of the tables synth wrote")
    p_sim.add_argument("-o", "--out", required=True, help="output directory")
    p_sim.add_argument("--gnuplot", action="store_true", help="emit plot.gp")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep the sampling cost alpha")
    p_sweep.add_argument("-c", "--scenario", required=True)
    p_sweep.add_argument("--alphas", required=True, help="comma-separated ascending list")
    p_sweep.add_argument("--runs", type=int, default=20)
    p_sweep.add_argument("--seed", type=int, help="default: the scenario's seed")
    p_sweep.add_argument("-o", "--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check certificates of stored tables")
    p_verify.add_argument("-t", "--tables", required=True)
    p_verify.add_argument("-c", "--scenario", required=True)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except SynthesisError as exc:
        print(f"synthesis error: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        code = EXIT_CERTIFICATE
    except SchedulingError as exc:
        print(f"scheduling violation: {exc}", file=sys.stderr)
        code = EXIT_SCHEDULING
    except SelfTrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
