"""Command-line front end.

Subcommands: ``synth`` (offline table synthesis with persistence),
``simulate`` (closed-loop runs with CSV traces), ``sweep`` (sampling-cost
sweeps with periodic baselines) and ``verify`` (certificate checks on
persisted tables).

Exit codes: 0 success, 2 configuration error (a run that does not fit in
memory and an output that cannot be written included), 3 numeric/synthesis
error, 4 certificate failure, 5 scheduling violation.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    CertificateError,
    ConfigurationError,
    SchedulingError,
    SelfTrigError,
    SynthesisError,
)
from .model import _read_text
from .scenario import MODE_PERIODIC, load_scenario
from .scheduler import verify_conflict_free
from .simulator import (
    _build_tables,
    _check_tables,
    _refuse_nonfinite,
    _row_statistics,
    run_periodic,
    run_self_triggered,
    sweep,
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
    """The table's header line and one line per wait, ``L(i)`` and ``P(i)``
    row-major to two decimals, in one ``print``."""
    k, n, m = len(gt.I0), gt.n, gt.m
    cell = "{:.2f}".format
    lines = [
        f"loop {gt.loop_id}: n={n} m={m} alpha={gt.alpha:g} "
        f"p={gt.p} gamma={gt.gamma} epsilon={cert.epsilon:.5f}",
        f"  {'i':>3}  {'L(i)':>24}  {'P(i)':>24}",
    ]
    lines += [
        f"  {i:>3}  {' '.join(map(cell, L)):>24}  {' '.join(map(cell, P)):>24}"
        for i, L, P in zip(gt.I0, gt.L_stack.reshape(k, m * n).tolist(),
                           gt.P_stack.reshape(k, n * n).tolist())
    ]
    print("\n".join(lines))


def cmd_synth(args) -> int:
    scn, _ = load_scenario(args.scenario)
    out_dir = Path(args.out)
    _check_outputs(out_dir, [_table_path(out_dir, spec.name) for spec in scn.loops])
    systems = [spec.system for spec in scn.loops]
    pstar = select_pstar(systems, scn.I0)
    if scn.p != pstar:
        raise SynthesisError(
            f"scenario period p={scn.p} differs from the admissible terminal "
            f"period {pstar}; the stability construction requires p == {pstar}"
        )
    tables = _build_tables(scn)
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
        text = _read_text(path, "table")
        try:
            gt, eps, pstar = deserialize_gain_table(text)
        except ConfigurationError as exc:
            raise ConfigurationError(f"table {path}: {exc}") from exc
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


def _state_norm(name: str, x: np.ndarray) -> float:
    """The norm of loop ``name``'s finite state ``x``: numpy's, or where that
    overflows, rescaled by ``max|x|``; past the largest float, refused."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if math.isinf(norm):
        scale = float(np.abs(x).max())
        norm = scale * float(np.linalg.norm(x / scale))
    if math.isinf(norm):
        raise ConfigurationError(f"loop {name!r}: the final state norm overflows")
    return norm


def _check_outputs(out_dir: Path, paths) -> None:
    """Refuse, before any work and without making anything, outputs that
    cannot be written: a directory ``out_dir`` whose nearest existing path
    (itself or a parent) is not a directory, and any of ``paths`` where
    something other than a regular file stands.  The one-line message names
    the path in the way."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigurationError(
                    f"cannot write the output: not a directory: {str(path)!r}")
            break
    for path in paths:
        if path.exists() and not path.is_file():
            raise ConfigurationError(
                f"cannot write the output: not a regular file: {str(path)!r}")


def _simulate_paths(out_dir: Path, scn, gnuplot: bool) -> list:
    """The files ``simulate`` writes into ``out_dir``, in writing order."""
    names = [f"{spec.name}.trace.csv" for spec in scn.loops]
    names += ["tx_log.csv", "summary.json", *(["plot.gp"] if gnuplot else [])]
    return [out_dir / name for name in names]


def cmd_simulate(args) -> int:
    scn, _ = load_scenario(args.scenario)
    out_dir = Path(args.out)
    _check_outputs(out_dir, _simulate_paths(out_dir, scn, args.gnuplot))
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
        waits = np.zeros((1, tr.horizon), dtype=int)
        waits[0, tr.sample_times] = tr.waits
        stage, intervals, costs = _row_statistics(tr.states[None], tr.inputs[None], waits,
                                                  spec.weights.Q, spec.weights.R, scn.gamma)
        # A state near the float limit can square to a value or stage cost that
        # is not finite: as a sweep does, refuse the run before any output.
        finite = np.isfinite(stage)
        finite[0, tr.sample_times] &= np.isfinite(tr.values)
        _refuse_nonfinite(spec.name, "value or stage cost", finite)
        if not np.isfinite(costs[0]):
            raise ConfigurationError(f"loop {spec.name!r}: the empiric cost overflows")
        summary[spec.name] = {
            "first_wait": int(tr.waits[0]),
            "final_wait": int(tr.waits[-1]),
            "n_samples": int(tr.sample_times.size),
            "avg_interval": float(intervals[0]),
            "empiric_cost": float(costs[0]),
            "final_value": float(tr.values[-1]),
            "final_state_norm": _state_norm(spec.name, tr.states[-1]),
        }
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec in scn.loops:
        write_trace_csv(trace.loops[spec.name], out_dir / f"{spec.name}.trace.csv")
    write_txlog_csv(trace, out_dir / "tx_log.csv")
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n")
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


def _sweep_paths(out: Path, names) -> dict:
    """Each loop's adaptive and periodic CSV paths: ``out`` with the loop's
    name (unless it is the only loop) and ``periodic`` put before the
    suffix.  Two loops whose paths coincide, such as ``a`` and
    ``a.periodic``, raise ConfigurationError naming both, and so does a
    path that cannot be written (see :func:`_check_outputs`)."""
    suffix = out.suffix or ".csv"
    stem = str(out.with_suffix(""))
    writer, paths = {}, {}
    for name in names:
        paths[name] = []
        for law in ([], ["periodic"]):
            parts = law if len(names) == 1 else [name, *law]
            path = Path(stem + "".join("." + part for part in parts) + suffix)
            if path in writer:
                raise ConfigurationError(
                    f"loops {writer[path]!r} and {name!r} would both write the sweep CSV {path}"
                )
            writer[path] = name
            paths[name].append(path)
    _check_outputs(out.parent, writer)
    return paths


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
    out = Path(args.out)
    paths = _sweep_paths(out, [spec.name for spec in scn.loops])
    summary, baseline = sweep(scn, alphas, args.runs)
    for alpha, msg in summary.errors.items():
        print(f"alpha={alpha:g}: synthesis failed: {msg}", file=sys.stderr)

    out.parent.mkdir(parents=True, exist_ok=True)
    for name, (adaptive_path, periodic_path) in paths.items():
        write_sweep_csv(summary, name, adaptive_path)
        write_sweep_csv(baseline, name, periodic_path)
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


def _synth_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--scenario", required=True)
    parser.add_argument("-o", "--out", required=True, help="output directory")


def _simulate_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--scenario", required=True)
    parser.add_argument("-t", "--tables", help="directory of the tables synth wrote")
    parser.add_argument("-o", "--out", required=True, help="output directory")
    parser.add_argument("--gnuplot", action="store_true", help="emit plot.gp")


def _sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--scenario", required=True)
    parser.add_argument("--alphas", required=True, help="comma-separated ascending list")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--seed", type=int, help="default: the scenario's seed")
    parser.add_argument("-o", "--out", required=True, help="output CSV path")


def _verify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-t", "--tables", required=True)
    parser.add_argument("-c", "--scenario", required=True)


class Command(NamedTuple):
    """One subcommand: its name, its help line, the function that adds its
    options to a parser, and the function that runs it."""

    name: str
    help: str
    add_options: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


COMMANDS = {command.name: command for command in (
    Command("synth", "synthesize gain tables from a scenario", _synth_options, cmd_synth),
    Command("simulate", "run a scenario against stored tables", _simulate_options, cmd_simulate),
    Command("sweep", "sweep the sampling cost alpha", _sweep_options, cmd_sweep),
    Command("verify", "check certificates of stored tables", _verify_options, cmd_verify),
)}


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and one subparser per command.  The
    command is optional here: :func:`_parse_args` requires it after the
    arguments the parser does not know, so that ``selftrig -x`` names
    ``-x``, not the missing command."""
    parser = argparse.ArgumentParser(
        prog="selftrig",
        description="Self-triggered MPC: offline synthesis, simulation and verification",
    )
    sub = parser.add_subparsers(dest="command")
    for command in COMMANDS.values():
        command.add_options(sub.add_parser(command.name, help=command.help))
    return parser


@functools.cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, the one the full parser would hand the
    rest of ``argv`` to, built once per process.  Each parse fills a new
    namespace from the parser's defaults, so no call sees another's
    arguments."""
    parser = argparse.ArgumentParser(prog=f"selftrig {name}")
    COMMANDS[name].add_options(parser)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """The arguments of one run; ``command`` names the command.

    When ``argv`` starts with a command, only that command's parser is
    used (see :func:`_command_parser`).  Anything else goes to
    :func:`build_parser`, which prints the help, usage and errors of the
    top level: no arguments, ``-h``, an unknown command, or arguments the
    command does not know.  Unknown arguments are refused before a missing
    command.
    """
    name = argv[0] if argv else None
    if name in COMMANDS:
        args, extras = _command_parser(name).parse_known_args(argv[1:])
        if not extras:
            args.command = name
            return args
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    if args.command is None:
        parser.error("the following arguments are required: command")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        code = COMMANDS[args.command].run(args)
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
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate.
        print(f"configuration error: not enough memory: {str(exc) or 'an allocation failed'}",
              file=sys.stderr)
        code = EXIT_CONFIG
    except OSError as exc:
        # Every file a command reads goes through model._read_text, which
        # raises ConfigurationError, so this one is an output; the message
        # names the path.
        print(f"configuration error: cannot write the output: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
