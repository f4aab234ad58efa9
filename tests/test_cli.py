"""End-to-end CLI checks: exit codes, file outputs, round trips."""
import argparse
import copy
import csv
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from selftrig import (
    GainTable,
    StabilityCertificate,
    SynthesisError,
    cli,
    deserialize_gain_table,
    run_periodic,
    run_self_triggered,
    simulator,
)
from selftrig.cli import main
from selftrig.scenario import load_scenario

from conftest import (
    bits,
    oracle_average_sampling_interval,
    oracle_empiric_cost,
    oracle_print_table,
    oracle_write_trace_csv,
    oracle_write_txlog_csv,
    random_stored_table,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv):
    return main(list(argv))


# Address space of the child in _run_cli_capped: room for the interpreter,
# numpy and a sweep's small arrays, far less than the runs below would take.
_ADDRESS_SPACE = 2 * 1024**3


def _run_child(code, *argv, timeout=300):
    """The Python source ``code`` in a child interpreter that imports this
    package, with ``argv`` as its arguments: the finished process, with
    its output as text.  A child that runs past ``timeout`` seconds fails
    the test."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_cli_capped(*argv, timeout=300):
    """``selftrig argv`` in a child interpreter whose address space is
    capped by RLIMIT_AS, so that a run too large for memory fails there
    at once, not in the test process; returns ``(exit code, stderr)``."""
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({_ADDRESS_SPACE}, {_ADDRESS_SPACE})); "
            "from selftrig.cli import main; sys.exit(main(sys.argv[1:]))")
    child = _run_child(code, *argv, timeout=timeout)
    return child.returncode, child.stderr


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("tables")
    code = run_cli("synth", "-c", str(SCENARIOS / "two_loop.json"),
                   "-o", str(out))
    assert code == 0
    return out


class TestSynth:
    def test_prints_two_decimal_table(self, tmp_path, capsys):
        code = run_cli("synth", "-c", str(SCENARIOS / "integrator_transient.json"),
                       "-o", str(tmp_path))
        captured = capsys.readouterr().out
        assert code == 0
        for fragment in ("0.70", "1.70", "0.46", "1.73", "0.34", "1.89",
                         "0.28", "2.08", "0.23", "2.30"):
            assert fragment in captured
        assert (tmp_path / "integrator.gains.json").exists()

    def test_printed_table_bytes_equal_the_oracle(self, capsys):
        rng = np.random.default_rng(29)
        for _ in range(300):
            gt, cert = random_stored_table(rng)
            oracle_print_table(gt, cert)
            want = capsys.readouterr().out
            cli._print_table(gt, cert)
            assert capsys.readouterr().out == want

    def test_a_value_that_rounds_to_minus_zero_prints_as_minus_zero(self, capsys):
        P, L = np.array([[2.0]]), np.array([[-0.004]])
        gt = GainTable(loop_id="a", alpha=0.25, P_stack=[P, P], L_stack=[L, -L],
                       p=3, Pp=P, Lp=L, I0=(1, 2))
        cert = StabilityCertificate(pstar=3, epsilon=np.float64(0.125), lower_bound=0.0,
                                    upper_bound=1.0, per_i_ratio={}, Si={})
        cli._print_table(gt, cert)
        out = capsys.readouterr().out
        oracle_print_table(gt, cert)
        assert out == capsys.readouterr().out == (
            "loop a: n=1 m=1 alpha=0.25 p=3 gamma=2 epsilon=0.12500\n"
            "    i                      L(i)                      P(i)\n"
            "    1                     -0.00                      2.00\n"
            "    2                      0.00                      2.00\n"
        )

    def test_a_lift_too_large_for_memory_exits_2_at_once(self, tmp_path):
        # The lift allocates its stacks before its first step, so the capped
        # child fails on the first stack that does not fit, not after
        # filling memory one step at a time.  p is the admissible terminal
        # period, so the period check passes and the tables are built.
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["I0"] = [*doc["I0"], 10**8]
        doc["p"] = 10**8
        scen = tmp_path / "huge.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "tables"
        code, err = _run_cli_capped("synth", "-c", str(scen), "-o", str(out), timeout=20)
        assert code == 2
        assert err.startswith("configuration error: not enough memory: Unable to allocate ")
        assert "for an array with shape (100000000, " in err
        assert not out.exists()

    def test_idempotent_outputs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for d in (a_dir, b_dir):
            assert run_cli("synth", "-c", str(SCENARIOS / "two_loop.json"),
                           "-o", str(d)) == 0
        for name in ("integrator", "double_integrator"):
            assert (a_dir / f"{name}.gains.json").read_text() \
                == (b_dir / f"{name}.gains.json").read_text()

    def test_inadmissible_network_exits_2(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["p"] = 1
        doc["I0"] = [1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out"))
        assert code == 2
        assert "inadmissible" in capsys.readouterr().err

    @pytest.mark.parametrize("I0, message", [
        # The period is checked before any table is built, so a root of
        # unity at p reads as the other admissible period.
        ([1, 2], "scenario period p=2 differs from the admissible terminal period 1; "
                 "the stability construction requires p == 1"),
        ([2], "no admissible terminal period in I0=[2]; offending eigenvalues: i=2: -1+0j"),
    ])
    def test_root_of_unity_period_exits_3(self, I0, message, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "oscillator",
            "loops": [{
                "name": "osc", "n": 1, "m": 1,
                "A": [-1.0], "B": [1.0], "Q": [1.0], "R": [1.0],
                "alpha": 0.1, "x0": [1.0],
            }],
            "I0": I0, "p": 2, "horizon": 20, "seed": 0,
            "mode": "self_triggered",
        }
        bad = tmp_path / "osc.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out"))
        assert code == 3
        assert capsys.readouterr().err == f"synthesis error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_a_period_that_is_not_admissible_exits_3_before_any_table(
            self, tmp_path, capsys, monkeypatch):
        # Building the tables would lift both loops 10**6 steps first.
        def refuse(scn, alpha=None):
            raise AssertionError("tables built before the period check")

        monkeypatch.setattr(cli, "_build_tables", refuse)
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["I0"] = [*doc["I0"], 10**6]
        scen = tmp_path / "long_wait.json"
        scen.write_text(json.dumps(doc))
        assert run_cli("synth", "-c", str(scen), "-o", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "synthesis error: scenario period p=5 differs from the admissible terminal "
            "period 1000000; the stability construction requires p == 1000000\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["a/b", "../escaped", "", "a\\b", "bell\x07"])
    def test_loop_name_that_is_not_a_file_stem_exits_2(self, name, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["loops"][0]["name"] = name
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out" / "tables"
        assert run_cli("synth", "-c", str(bad), "-o", str(out)) == 2
        assert "plain file stem" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json"]

    def test_singular_doubling_exits_3_and_a_sweep_records_it(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["loops"][1]["A"] = [1.0, 1e6, 1.0, 1.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out")) == 3
        refusal = "loop 'double_integrator': doubling at period 5 failed: Singular matrix"
        assert capsys.readouterr().err == f"synthesis error: {refusal}\n"
        assert run_cli("sweep", "-c", str(bad), "--alphas", "0,0.5", "--runs", "2",
                       "-o", str(tmp_path / "s.csv")) == 0
        assert capsys.readouterr().err == "".join(
            f"alpha={alpha}: synthesis failed: {refusal}\n" for alpha in ("0", "0.5"))

    def test_unknown_scenario_field_exits_2(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["surprise"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out")) == 2

    def test_period_other_than_pstar_exits_3(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["p"] = 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out")) == 3
        assert "period p=4 differs from the admissible terminal period 5" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_a_weight_whose_symmetric_part_overflows_exits_2_at_load(tmp_path, capsys):
    doc = json.loads((SCENARIOS / "two_loop.json").read_text())
    doc["loops"][1]["Q"] = [1e308, 0.0, 0.0, 1e308]
    scen = tmp_path / "huge_q.json"
    scen.write_text(json.dumps(doc))
    for argv in (("synth", "-c", str(scen), "-o", str(tmp_path / "tables")),
                 ("sweep", "-c", str(scen), "--alphas", "0,1", "--runs", "2",
                  "-o", str(tmp_path / "s.csv"))):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            "configuration error: loop 'double_integrator': Q is too large: its "
            "symmetric part is not finite\n")
    assert list(tmp_path.iterdir()) == [scen]


class TestSimulate:
    def test_single_loop_transient_summary(self, tmp_path, capsys):
        tables = tmp_path / "tables"
        assert run_cli("synth", "-c", str(SCENARIOS / "integrator_transient.json"),
                       "-o", str(tables)) == 0
        out = tmp_path / "run"
        code = run_cli("simulate", "-c", str(SCENARIOS / "integrator_transient.json"),
                       "-t", str(tables), "-o", str(out), "--gnuplot")
        captured = capsys.readouterr().out
        assert code == 0
        assert "first_wait=1" in captured and "final_wait=5" in captured
        assert (out / "integrator.trace.csv").exists()
        assert (out / "tx_log.csv").exists()
        assert (out / "plot.gp").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["integrator"]["first_wait"] == 1
        assert summary["integrator"]["final_wait"] == 5
        assert summary["integrator"]["final_state_norm"] < 1e-3

    def test_gnuplot_script_doubles_quotes_in_loop_names(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["loops"][0]["name"] = "it's"
        scen = tmp_path / "quoted.json"
        scen.write_text(json.dumps(doc))
        tables, out = tmp_path / "tables", tmp_path / "run"
        assert run_cli("synth", "-c", str(scen), "-o", str(tables)) == 0
        assert run_cli("simulate", "-c", str(scen), "-t", str(tables), "-o", str(out),
                       "--gnuplot") == 0
        assert (out / "it's.trace.csv").exists()
        script = (out / "plot.gp").read_text()
        assert "set title 'loop it''s'" in script
        assert script.count("'it''s.trace.csv'") == 2
        assert "'it's" not in script

    def test_two_loop_schedule_and_log(self, synth_out, tmp_path):
        out = tmp_path / "run"
        code = run_cli("simulate", "-c", str(SCENARIOS / "two_loop.json"),
                       "-t", str(synth_out), "-o", str(out))
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["integrator"]["first_wait"] == 1
        assert summary["double_integrator"]["first_wait"] == 2
        with open(out / "tx_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        times = [int(r["k"]) for r in rows]
        assert len(times) == len(set(times))
        assert all(int(r["i_chosen"]) in range(1, 6) for r in rows)
        assert all(r["feasible_set"] for r in rows)

    def test_repeated_runs_byte_identical(self, synth_out, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("simulate", "-c", str(SCENARIOS / "two_loop.json"),
                           "-t", str(synth_out), "-o", str(out)) == 0
            outs.append(out)
        for name in ("integrator.trace.csv", "double_integrator.trace.csv",
                     "tx_log.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_zero_state_costs_nothing(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["loops"][0]["x0"] = [0.0]
        scen = tmp_path / "zero.json"
        scen.write_text(json.dumps(doc))
        tables = tmp_path / "tables"
        assert run_cli("synth", "-c", str(scen), "-o", str(tables)) == 0
        out = tmp_path / "run"
        assert run_cli("simulate", "-c", str(scen), "-t", str(tables),
                       "-o", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["integrator"]["empiric_cost"] == 0.0

    @pytest.mark.parametrize("edit, message", [
        ({"x0": [1e308]}, "value or stage cost is not finite from step k=0"),
        ({"x0": [1e308], "mode": "periodic", "ts": 2},
         "value or stage cost is not finite from step k=0"),
        # Every step's stage cost is finite, their sum is not.
        ({"noise_variance": 1e306, "horizon": 1000}, "the empiric cost overflows"),
    ], ids=["self-triggered", "periodic", "sum"])
    def test_a_cost_that_overflows_exits_2(self, tmp_path, capsys, edit, message):
        # As a sweep does, simulate refuses a run whose value or stage cost
        # left the floats, before it writes anything, and no overflow
        # warning escapes on the way.
        tables = tmp_path / "tables"
        assert run_cli("synth", "-c", str(SCENARIOS / "integrator_transient.json"),
                       "-o", str(tables)) == 0
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        loop = {key: edit[key] for key in ("x0", "noise_variance") if key in edit}
        doc["loops"][0].update(loop)
        doc.update({key: value for key, value in edit.items() if key not in loop})
        scen = tmp_path / "huge.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "run"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "-c", str(scen), "-t", str(tables),
                           "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"configuration error: loop 'integrator': {message}\n")
        assert not out.exists()

    @staticmethod
    def _summary(out):
        """``summary.json`` of a run, refusing the tokens NaN and Infinity."""
        def refuse(token):
            raise AssertionError(f"summary.json holds {token}")
        return json.loads((out / "summary.json").read_text(), parse_constant=refuse)

    @pytest.mark.parametrize("name", ["integrator_transient", "two_loop", "integrator_sweep"])
    def test_statistics_equal_the_one_run_oracles(self, name, tmp_path):
        # Each loop's avg_interval and empiric_cost, bit for bit, under the
        # self-triggered law and under every period ts in [s, p], at
        # horizons 1, 2 and the scenario's own (periodic ones need T >= s).
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        tables = tmp_path / "tables"
        assert run_cli("synth", "-c", str(SCENARIOS / f"{name}.json"), "-o", str(tables)) == 0
        gts = {}
        for path in tables.glob("*.gains.json"):
            gt, _, _ = deserialize_gain_table(path.read_text())
            gts[gt.loop_id] = gt
        s = len(doc["loops"])
        modes = [{"mode": "self_triggered"}]
        modes += [{"mode": "periodic", "ts": ts} for ts in range(s, doc["p"] + 1)]
        scen, out = tmp_path / "scenario.json", tmp_path / "run"
        checked = 0
        for horizon in (1, 2, doc["horizon"]):
            for mode in modes:
                periodic = mode["mode"] == "periodic"
                if periodic and horizon < s:
                    continue
                scen.write_text(json.dumps({**doc, **mode, "horizon": horizon}))
                assert run_cli("simulate", "-c", str(scen), "-t", str(tables),
                               "-o", str(out)) == 0
                summary = self._summary(out)
                scn = load_scenario(scen)[0]
                trace = run_periodic(scn) if periodic else run_self_triggered(scn, gts)
                for spec in scn.loops:
                    tr = trace.loops[spec.name]
                    stats = summary[spec.name]
                    assert bits(stats["avg_interval"]) \
                        == bits(oracle_average_sampling_interval(tr, scn.gamma))
                    assert bits(stats["empiric_cost"]) \
                        == bits(oracle_empiric_cost(tr, spec.weights.Q, spec.weights.R))
                    checked += 1
        assert checked == {"integrator_transient": 18, "two_loop": 22,
                           "integrator_sweep": 48}[name]

    def test_a_state_norm_whose_square_overflows_is_rescaled(self, tmp_path):
        # The state decays from 1e200 to about 1e182; its square overflows,
        # its norm does not.
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["loops"][0].update(A=[0.5], Q=[1e-300], x0=[1e200])
        scen = tmp_path / "big.json"
        scen.write_text(json.dumps(doc))
        tables, out = tmp_path / "tables", tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("synth", "-c", str(scen), "-o", str(tables)) == 0
            assert run_cli("simulate", "-c", str(scen), "-t", str(tables),
                           "-o", str(out)) == 0
        norm = self._summary(out)["integrator"]["final_state_norm"]
        final = float(np.loadtxt(out / "integrator.trace.csv", delimiter=",", skiprows=1,
                                 usecols=1)[-1])
        assert 1e150 < norm < 1e200
        assert norm == pytest.approx(abs(0.5 * final), rel=1e-6)

    def test_a_state_norm_past_the_largest_float_exits_2(self, tmp_path, capsys):
        # Both entries of the final state are near 1.48e308, finite, and the
        # state's norm is not; only the last disturbance reaches that state,
        # so the stage costs and the value stay finite.
        doc = {"schema_version": 1, "name": "norm", "loops": [{
            "name": "a", "n": 2, "m": 1, "w": 1, "A": [0.5, 1.0, 0.0, 0.5], "B": [0.0, 1.0],
            "E": [1.1e154, 1.1e154], "Q": [1.0, 0.0, 0.0, 1.0], "R": [1.0], "alpha": 0.0,
            "x0": [0.0, 0.0], "noise_variance": 1e308}],
            "I0": [1, 2], "p": 2, "horizon": 1, "seed": 2, "mode": "periodic", "ts": 1}
        scen = tmp_path / "norm.json"
        scen.write_text(json.dumps(doc))
        final = run_periodic(load_scenario(scen)[0]).loops["a"].states[-1]
        assert np.isfinite(final).all() and abs(final).min() > 1.3e308
        out = tmp_path / "run"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "-c", str(scen), "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            "configuration error: loop 'a': the final state norm overflows\n")
        assert not out.exists()

    def test_the_state_norm_is_numpys_where_it_does_not_overflow(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 5):
            for scale in (1e-300, 1e-5, 1.0, 1e100, 1e150):
                x = scale * rng.standard_normal(n)
                assert bits(cli._state_norm("a", x)) == bits(np.linalg.norm(x))
        assert cli._state_norm("a", np.array([3e200, -4e200])) == pytest.approx(5e200)

    def test_periodic_mode_runs_without_tables(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["mode"] = "periodic"
        doc["ts"] = 5
        scen = tmp_path / "periodic.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = run_cli("simulate", "-c", str(scen), "-o", str(out))
        assert code == 0
        assert "final_wait=5" in capsys.readouterr().out

    def test_periodic_horizon_shorter_than_the_loop_count_exits_2(self, tmp_path, capsys):
        # Loop j first samples at k = j: with horizon 1 the second loop never samples.
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc.update(mode="periodic", ts=2, horizon=1)
        scen = tmp_path / "periodic.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run_cli("simulate", "-c", str(scen), "-o", str(out)) == 2
        assert "horizon >= s=2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", [2**63, 2**62])
    def test_a_horizon_numpy_cannot_address_exits_2(self, synth_out, tmp_path, capsys,
                                                    horizon):
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["horizon"] = horizon
        scen = tmp_path / "long.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run_cli("simulate", "-c", str(scen), "-t", str(synth_out),
                       "-o", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: loop 'integrator': horizon {horizon} with largest wait 5 "
            "needs an array of ")
        assert not out.exists()

    def test_a_run_too_large_for_memory_exits_2(self, synth_out, tmp_path):
        # numpy can address the 74.5 GiB of states, but the capped child
        # cannot allocate them.
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["horizon"] = 10**10
        scen = tmp_path / "long.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code, err = _run_cli_capped("simulate", "-c", str(scen), "-t", str(synth_out),
                                    "-o", str(out))
        assert (code, err) == (2, "configuration error: not enough memory: Unable to "
                                  "allocate 74.5 GiB for an array with shape "
                                  "(1, 10000000006, 1) and data type float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("error, message", [
        (MemoryError(), "an allocation failed"),
        (MemoryError("Unable to allocate 8 EiB"), "Unable to allocate 8 EiB"),
    ])
    def test_a_memory_error_exits_2_with_its_message(self, monkeypatch, capsys,
                                                     error, message):
        def run(args):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "simulate", cli.COMMANDS["simulate"]._replace(run=run))
        assert run_cli("simulate", "-c", "a.json", "-o", "out") == 2
        assert capsys.readouterr().err == f"configuration error: not enough memory: {message}\n"

    def test_missing_tables_flag_exits_2(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "-c", str(SCENARIOS / "integrator_transient.json"),
                       "-o", str(out)) == 2

    def test_table_dimension_mismatch_exits_2(self, synth_out, tmp_path):
        # Two-loop tables against the single-loop scenario: missing loop names.
        out = tmp_path / "run"
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["loops"][0]["name"] = "not_in_tables"
        scen = tmp_path / "renamed.json"
        scen.write_text(json.dumps(doc))
        assert run_cli("simulate", "-c", str(scen), "-t", str(synth_out),
                       "-o", str(out)) == 2


class TestOutputBytes:
    """``simulate`` writes the bytes of the csv.writer reference writers."""

    @pytest.mark.parametrize("stem, edits", [
        *((path.stem, {}) for path in sorted(SCENARIOS.glob("*.json"))),
        ("two_loop", {"mode": "periodic", "ts": 3}),
    ])
    def test_simulate_matches_the_csv_writer(self, stem, edits, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**json.loads((SCENARIOS / f"{stem}.json").read_text()),
                                    **edits}))
        tables, out, ref = tmp_path / "tables", tmp_path / "run", tmp_path / "ref"
        assert run_cli("synth", "-c", str(scen), "-o", str(tables)) == 0
        assert run_cli("simulate", "-c", str(scen), "-t", str(tables), "-o", str(out)) == 0
        scn, _ = load_scenario(scen)
        if edits:
            trace = run_periodic(scn)
            # The second loop holds a zero input until its first sample.
            assert not trace.loops["double_integrator"].inputs[0].any()
        else:
            stored = (deserialize_gain_table(p.read_text())[0]
                      for p in tables.glob("*.gains.json"))
            trace = run_self_triggered(scn, {gt.loop_id: gt for gt in stored})
        ref.mkdir()
        for name, tr in trace.loops.items():
            oracle_write_trace_csv(tr, ref / f"{name}.trace.csv")
        oracle_write_txlog_csv(trace, ref / "tx_log.csv")
        for path in ref.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name


class TestVerify:
    def test_round_trip_verification_passes(self, synth_out, capsys):
        code = run_cli("verify", "-t", str(synth_out),
                       "-c", str(SCENARIOS / "two_loop.json"))
        captured = capsys.readouterr().out
        assert code == 0
        assert "equals max wait gamma: yes" in captured
        assert "all certificates pass" in captured
        # Stored and recomputed margins agree to the last serialized digit.
        for line in captured.splitlines():
            if "epsilon=" in line:
                recomputed = line.split("epsilon=")[1].split(" ")[0]
                stored = line.split("(stored ")[1].split(")")[0]
                assert recomputed == stored

    def test_corrupted_gain_exits_4(self, synth_out, tmp_path, capsys):
        broken_dir = tmp_path / "broken"
        broken_dir.mkdir()
        for path in synth_out.glob("*.gains.json"):
            doc = json.loads(path.read_text())
            if doc["loop_id"] == "integrator":
                doc["entries"][0]["L"] = [doc["entries"][0]["L"][0] + 5.0]
            (broken_dir / path.name).write_text(json.dumps(doc))
        code = run_cli("verify", "-t", str(broken_dir),
                       "-c", str(SCENARIOS / "two_loop.json"))
        assert code == 4

    def test_missing_tables_exit_2(self, tmp_path):
        assert run_cli("verify", "-t", str(tmp_path),
                       "-c", str(SCENARIOS / "two_loop.json")) == 2

    @pytest.mark.parametrize("edit,code,fragment", [
        pytest.param(lambda doc: doc["entries"][0].update(P=[-doc["entries"][0]["P"][0]]),
                     4, "P(1) at wait 1 is not positive definite", id="P1-negated"),
        pytest.param(lambda doc: doc["entries"][0].update(P=[0.0]),
                     4, "P(1) at wait 1 is not positive definite", id="P1-zero"),
        pytest.param(lambda doc: doc.update(epsilon=0.999),
                     4, "stored epsilon", id="epsilon-0.999"),
        pytest.param(lambda doc: doc.update(epsilon=doc["epsilon"] + 2e-9),
                     4, "stored epsilon", id="epsilon-off-2e-9"),
        pytest.param(lambda doc: doc.update(epsilon=doc["epsilon"] + 5e-10),
                     0, None, id="epsilon-off-5e-10"),
        pytest.param(lambda doc: doc.update(pstar=1), 4, "stored pstar", id="pstar-1"),
        pytest.param(lambda doc: doc.update(alpha=3 * doc["alpha"]),
                     2, "alpha", id="alpha-tripled"),
        pytest.param(lambda doc: doc.update(I0=doc["I0"][:-1], entries=doc["entries"][:-1]),
                     2, "I0", id="I0-without-gamma"),
    ])
    def test_tampered_table(self, edit, code, fragment, synth_out, tmp_path, capsys):
        tables = tmp_path / "tables"
        tables.mkdir()
        for path in synth_out.glob("*.gains.json"):
            doc = json.loads(path.read_text())
            if doc["loop_id"] == "integrator":
                edit(doc)
            (tables / path.name).write_text(json.dumps(doc))
        assert run_cli("verify", "-t", str(tables),
                       "-c", str(SCENARIOS / "two_loop.json")) == code
        err = capsys.readouterr().err
        if fragment is not None:
            assert "'integrator'" in err and fragment in err
            assert "'double_integrator'" not in err


def _double_integrator_tables(synth_out, tables, change):
    """The tables ``synth_out`` holds, copied to ``tables``, with ``change``
    applied to the double integrator's table document."""
    tables.mkdir()
    for path in synth_out.glob("*.gains.json"):
        doc = json.loads(path.read_text())
        if doc["loop_id"] == "double_integrator":
            change(doc)
        (tables / path.name).write_text(json.dumps(doc))


def test_a_ratio_that_is_not_finite_exits_4(synth_out, tmp_path, capsys):
    # B L(2) overflows, so the contraction ratio at wait 2 is NaN.
    tables = tmp_path / "tables"
    _double_integrator_tables(synth_out, tables,
                              lambda doc: doc["entries"][1]["L"].__setitem__(0, 1e308))
    assert run_cli("verify", "-t", str(tables), "-c", str(SCENARIOS / "two_loop.json")) == 4
    captured = capsys.readouterr()
    assert "all certificates pass" not in captured.out
    assert captured.err == ("certificate failure: loop 'double_integrator': contraction "
                            "ratio at wait 2 is not finite\n")


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("target", ["P(1)", "Pp"])
def test_an_asymmetric_value_matrix_exits_2(command, target, synth_out, tmp_path, capsys):
    def change(doc):
        matrix = doc["entries"][0]["P"] if target == "P(1)" else doc["Pp"]
        matrix[1] = 0.0  # row 0, column 1 of a 2x2 matrix

    tables = tmp_path / "tables"
    _double_integrator_tables(synth_out, tables, change)
    scen, out = str(SCENARIOS / "two_loop.json"), tmp_path / "run"
    argv = {"simulate": ("simulate", "-c", scen, "-t", str(tables), "-o", str(out)),
            "verify": ("verify", "-t", str(tables), "-c", scen)}[command]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        f"configuration error: table {tables / 'double_integrator.gains.json'}: "
        f"table 'double_integrator': {target} must be symmetric\n")
    assert not out.exists()


@pytest.mark.parametrize("command, options, out, named", [
    ("simulate", ["-t", "{tables}"], "f", "f"),
    ("synth", [], "f/x", "f"),
    ("sweep", ["--alphas", "0", "--runs", "2"], "f/s.csv", "f"),
])
def test_an_output_that_cannot_be_written_exits_2(command, options, out, named, synth_out,
                                                   tmp_path):
    # The file f stands where simulate's output directory, or a parent of
    # synth's directory or sweep's CSV, must go.
    (tmp_path / "f").write_text("kept")
    options = [option.format(tables=synth_out) for option in options]
    code, err = _run_cli_capped(command, "-c", str(SCENARIOS / "two_loop.json"), *options,
                                "-o", str(tmp_path / out))
    assert code == 2
    assert err.startswith("configuration error: cannot write the output: ")
    assert err.endswith(f"{str(tmp_path / named)!r}\n") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (tmp_path / "f").read_text() == "kept"


def _tree(root: Path) -> dict:
    """Every path under ``root`` with its kind, and a file's bytes."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file()
            else "dir" if path.is_dir() else "other" for path in sorted(root.rglob("*"))}


_SYNTH_NAMES = ["integrator.gains.json", "double_integrator.gains.json"]
_SIMULATE_NAMES = ["integrator.trace.csv", "double_integrator.trace.csv", "tx_log.csv",
                   "summary.json", "plot.gp"]
_SWEEP_NAMES = ["s.integrator.csv", "s.integrator.periodic.csv", "s.double_integrator.csv",
                "s.double_integrator.periodic.csv"]


class TestOutputsRefusedBeforeTheWork:
    """``synth``, ``simulate`` and ``sweep`` refuse an output they could not
    write before any work: the work is replaced by a stub that fails the
    test if it runs.  Each refusal exits 2 with one line naming the path in
    the way, and leaves the target directory as it was."""

    @staticmethod
    def _run(command, target, monkeypatch, capsys, synth_out):
        def work(*args, **kwargs):
            raise AssertionError(f"{command} ran its work before refusing the output")

        monkeypatch.setattr(cli, {"synth": "_build_tables", "simulate": "run_self_triggered",
                                  "sweep": "sweep"}[command], work)
        argv = {"synth": [], "simulate": ["-t", str(synth_out), "--gnuplot"],
                "sweep": ["--alphas", "0,0.5", "--runs", "100000"]}[command]
        code = run_cli(command, "-c", str(SCENARIOS / "two_loop.json"), *argv,
                       "-o", str(target))
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    @pytest.mark.parametrize("command, name", [
        *(("synth", name) for name in _SYNTH_NAMES),
        *(("simulate", name) for name in _SIMULATE_NAMES),
        *(("sweep", name) for name in _SWEEP_NAMES),
    ])
    def test_an_output_name_that_is_not_a_regular_file(self, command, name, kind, tmp_path,
                                                       monkeypatch, capsys, synth_out):
        run = tmp_path / "run"
        run.mkdir()
        (run / "kept.txt").write_text("kept")
        if kind == "directory":
            (run / name).mkdir()
        else:
            if not hasattr(os, "mkfifo"):
                pytest.skip("no named pipes on this platform")
            os.mkfifo(run / name)
        before = _tree(tmp_path)
        target = run / "s.csv" if command == "sweep" else run
        code, err = self._run(command, target, monkeypatch, capsys, synth_out)
        assert code == 2
        assert err == (f"configuration error: cannot write the output: not a regular file: "
                       f"{str(run / name)!r}\n")
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize("command, out, named", [
        ("synth", "f", "f"),
        ("synth", "f/tables", "f"),
        ("synth", "f/x/tables", "f"),
        ("simulate", "f", "f"),
        ("simulate", "f/run", "f"),
        ("simulate", "f/x/run", "f"),
        ("sweep", "f/s.csv", "f"),
        ("sweep", "f/x/s.csv", "f"),
    ])
    def test_an_output_directory_under_a_file(self, command, out, named, tmp_path,
                                              monkeypatch, capsys, synth_out):
        (tmp_path / "f").write_text("kept")
        before = _tree(tmp_path)
        code, err = self._run(command, tmp_path / out, monkeypatch, capsys, synth_out)
        assert code == 2
        assert err == (f"configuration error: cannot write the output: not a directory: "
                       f"{str(tmp_path / named)!r}\n")
        assert _tree(tmp_path) == before

    def test_regular_files_in_the_way_are_written_over(self, tmp_path, synth_out):
        run = tmp_path / "run"
        run.mkdir()
        for name in _SIMULATE_NAMES:
            (run / name).write_text("old")
        assert run_cli("simulate", "-c", str(SCENARIOS / "two_loop.json"), "-t",
                       str(synth_out), "--gnuplot", "-o", str(run)) == 0
        assert all((run / name).read_text() != "old" for name in _SIMULATE_NAMES)


@pytest.mark.parametrize("scenario, loaded", [
    ("two_loop.json", [False, False, False, False]),
    ("integrator_sweep.json", [False, False, False, True]),
], ids=["fixed-x0-noiseless", "random-x0-noisy"])
def test_numpy_random_is_imported_by_the_first_draw(scenario, loaded):
    # synth and verify draw nothing, so they do not pay for numpy.random;
    # simulate imports it with its first draw, and only a scenario with a
    # random x0 or noise draws.
    code = """if True:
        import sys, tempfile
        import selftrig, selftrig.cli
        loaded = ["numpy.random" in sys.modules]
        with tempfile.TemporaryDirectory() as out:
            scenario = sys.argv[1]
            for argv in (["synth", "-c", scenario, "-o", out + "/t"],
                         ["verify", "-c", scenario, "-t", out + "/t"],
                         ["simulate", "-c", scenario, "-t", out + "/t", "-o", out + "/r"]):
                assert selftrig.cli.main(argv) == 0
                loaded.append("numpy.random" in sys.modules)
        print(loaded)
    """
    child = _run_child(code, str(SCENARIOS / scenario))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == str(loaded)


class TestTableAddress:
    """``simulate`` and ``verify`` read each loop's table from
    ``<loop>.gains.json`` and from no other file."""

    @staticmethod
    def _copy(synth_out, tables):
        tables.mkdir()
        for name in ("integrator", "double_integrator"):
            text = (synth_out / f"{name}.gains.json").read_text()
            (tables / f"{name}.gains.json").write_text(text)

    @staticmethod
    def _argv(command, tables, out):
        scen = str(SCENARIOS / "two_loop.json")
        return {"simulate": ("simulate", "-c", scen, "-t", str(tables), "-o", str(out)),
                "verify": ("verify", "-t", str(tables), "-c", scen)}[command]

    def test_stale_second_copy_does_not_win(self, synth_out, tmp_path):
        tables = tmp_path / "tables"
        self._copy(synth_out, tables)
        doc = json.loads((tables / "integrator.gains.json").read_text())
        doc["entries"][0]["L"] = [0.0]
        (tables / "zz_stale.gains.json").write_text(json.dumps(doc))
        for src, out in ((synth_out, tmp_path / "clean"), (tables, tmp_path / "stale")):
            assert run_cli(*self._argv("simulate", src, out)) == 0
        assert sorted(p.name for p in (tmp_path / "stale").iterdir()) \
            == sorted(p.name for p in (tmp_path / "clean").iterdir())
        for path in (tmp_path / "clean").iterdir():
            assert (tmp_path / "stale" / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_unrelated_malformed_file_is_not_read(self, command, synth_out, tmp_path):
        tables = tmp_path / "tables"
        self._copy(synth_out, tables)
        (tables / "notes.gains.json").write_text("not a table")
        assert run_cli(*self._argv(command, tables, tmp_path / "run")) == 0

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_table_of_another_loop_exits_2(self, command, synth_out, tmp_path, capsys):
        tables = tmp_path / "tables"
        tables.mkdir()
        for name, other in (("integrator", "double_integrator"),
                            ("double_integrator", "integrator")):
            text = (synth_out / f"{other}.gains.json").read_text()
            (tables / f"{name}.gains.json").write_text(text)
        assert run_cli(*self._argv(command, tables, tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "integrator.gains.json holds loop 'double_integrator', not 'integrator'" in err


class TestSweep:
    def test_deterministic_and_writes_baseline(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_sweep.json").read_text())
        doc["horizon"] = 200
        doc["loops"][0]["noise_variance"] = 0.0
        doc["loops"][0].pop("x0_variance")
        doc["loops"][0]["x0"] = [40.0]
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps(doc))
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            code = run_cli("sweep", "-c", str(scen), "--alphas", "0,2.5",
                           "--runs", "1", "--seed", "7", "-o", str(out))
            assert code == 0
        assert out_a.read_text() == out_b.read_text()
        assert (tmp_path / "a.periodic.csv").exists()
        with open(out_a) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["alpha"] for r in rows] == ["0.0", "2.5"]
        assert all(float(r["mean_interval"]) >= 1.0 for r in rows)
        with open(tmp_path / "a.periodic.csv") as fh:
            baseline = list(csv.DictReader(fh))
        assert [r["alpha"] for r in baseline] == ["0.0", "2.5"]
        s, p = len(doc["loops"]), doc["p"]
        for row, matched in zip(rows, baseline):
            ts = min(max(round(float(row["mean_interval"])), s), p)
            assert matched["mean_interval"] == repr(float(ts))
            assert matched["n_runs"] == row["n_runs"] == "1"

    @pytest.mark.parametrize("scenario,options,builds", [
        ("integrator_sweep.json", ["--alphas", "0,0.05,0.25,1.3,5,25,50,500,1e4,1e6",
                                   "--runs", "20", "--seed", "20260810"], 2),
        ("two_loop.json", ["--alphas", "0,0.5,5", "--runs", "3"], 4),
    ])
    def test_segment_map_built_once_per_loop_per_event_loop(self, scenario, options, builds,
                                                            tmp_path, monkeypatch):
        # One event loop for the adaptive rows and one for the baseline's.
        built, segment_map = [], simulator._segment_map

        def counted(sys, gamma, noisy):
            built.append(gamma)
            return segment_map(sys, gamma, noisy)

        monkeypatch.setattr(simulator, "_segment_map", counted)
        assert run_cli("sweep", "-c", str(SCENARIOS / scenario), *options,
                       "-o", str(tmp_path / "s.csv")) == 0
        assert len(built) == builds

    @pytest.mark.parametrize("scenario,noisy,options,substreams", [
        ("integrator_sweep.json", (), ["--alphas", "0,0.05,0.25,1.3,5,25,50,500,1e4,1e6",
                                       "--runs", "20", "--seed", "20260810"], 10 * 20),
        # Both loops of two_loop.json start at a fixed x0 without noise.
        ("two_loop.json", (), ["--alphas", "0,0.5,5", "--runs", "3"], 0),
        ("two_loop.json", (1,), ["--alphas", "0,0.5,5", "--runs", "3"], 3 * 3),
    ], ids=["integrator-sweep", "two-loop", "two-loop-one-noisy"])
    def test_each_substream_is_drawn_once(self, scenario, noisy, options, substreams,
                                          tmp_path, monkeypatch):
        # One key per (alpha, run, loop) that draws, all of a draw's keys in
        # one pass: the baseline replays the adaptive rows' draws instead of
        # keying them again, a loop that draws nothing keys nothing, and a
        # draw in which no loop draws makes no pass.
        doc = json.loads((SCENARIOS / scenario).read_text())
        for j in noisy:
            doc["loops"][j]["noise_variance"] = 0.1
        scen = tmp_path / scenario
        scen.write_text(json.dumps(doc))
        keys, passes, draws = [], [], []
        substream_keys, draw = simulator._substream_keys, simulator._draws

        def counted_keys(seed, spawn_keys):
            keys.extend(spawn_keys)
            passes.append(len(spawn_keys))
            return substream_keys(seed, spawn_keys)

        def counted_draws(scn, rows):
            draws.append(len(rows))
            return draw(scn, rows)

        monkeypatch.setattr(simulator, "_substream_keys", counted_keys)
        monkeypatch.setattr(simulator, "_draws", counted_draws)
        assert run_cli("sweep", "-c", str(scen), *options,
                       "-o", str(tmp_path / "s.csv")) == 0
        assert len(keys) == len(set(keys)) == substreams
        assert len(draws) == 1
        assert passes == ([substreams] if substreams else [])

    def test_colliding_csv_paths_exit_2_before_the_sweep(self, tmp_path, capsys,
                                                         monkeypatch):
        # Loop a's baseline and loop a.periodic's adaptive CSV would share
        # one file, the second write overwriting the first.
        doc = json.loads((SCENARIOS / "two_loop.json").read_text())
        doc["loops"][0]["name"], doc["loops"][1]["name"] = "a", "a.periodic"
        scen = tmp_path / "names.json"
        scen.write_text(json.dumps(doc))
        out = tmp_path / "out"
        monkeypatch.setattr(simulator, "_sweep_rows", None)  # the sweep never starts
        assert run_cli("sweep", "-c", str(scen), "--alphas", "0,5", "--runs", "2",
                       "-o", str(out / "s.csv")) == 2
        assert capsys.readouterr().err == (
            f"configuration error: loops 'a' and 'a.periodic' would both write the sweep "
            f"CSV {out / 's.a.periodic.csv'}\n")
        assert not out.exists()

    def test_a_refused_baseline_writes_no_csv(self, tmp_path, monkeypatch, capsys):
        def refuse(sys, weights, p):
            raise SynthesisError(f"refused at period {p} for this test")

        monkeypatch.setattr(simulator, "solve_periodic_riccati", refuse)
        assert run_cli("sweep", "-c", str(SCENARIOS / "two_loop.json"), "--alphas", "0,5",
                       "--runs", "2", "-o", str(tmp_path / "s.csv")) == 3
        assert capsys.readouterr().err.startswith("synthesis error: refused at period ")
        assert list(tmp_path.iterdir()) == []

    def test_seed_defaults_to_the_scenario_seed(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_sweep.json").read_text())
        doc["horizon"] = 200
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps(doc))
        texts = {}
        for seed in (None, doc["seed"], 0):
            out = tmp_path / f"{seed}.csv"
            flags = () if seed is None else ("--seed", str(seed))
            assert run_cli("sweep", "-c", str(scen), "--alphas", "0,2.5", "--runs", "2",
                           *flags, "-o", str(out)) == 0
            texts[seed] = [out.read_text(), (tmp_path / f"{seed}.periodic.csv").read_text()]
        assert texts[None] == texts[doc["seed"]]
        assert texts[None][0] != texts[0][0] and texts[None][1] != texts[0][1]


_README_ALPHAS = "0,0.05,0.25,1.3,5,25,50,500,1e4,1e6"


@pytest.mark.parametrize("scenario, runs, digests", [
    pytest.param("integrator_sweep.json", "4", {
        "out.csv": "7755bf54a8f8ddcb958f08afc5087621f08560affa4c865c095e25265fe06c0e",
        "out.periodic.csv": "59bdf53d8328f298e9a6701cfd8e417ba15c6097562f730b0526dbc4798d450f",
    }, id="integrator-sweep"),
    pytest.param("two_loop.json", "3", {
        "out.double_integrator.csv":
            "905c8efc1ade34b4b899386f5181d24f00e265a31a6b8334cab320086b44f465",
        "out.double_integrator.periodic.csv":
            "57f522a850e1c94c8ddfc6d74bf086ba8c046800e0c2558b050c9e46358541b9",
        "out.integrator.csv":
            "bacfcf67c83ff7bfbfc9f640564db0d513295ef1ca7db5e62cb2f576ad16a01d",
        "out.integrator.periodic.csv":
            "05f979613fe808bde71c8ec35b1069a379f94b24bb93438f894a526784455a05",
    }, id="two-loop"),
])
def test_sweep_csv_bytes_are_pinned(scenario, runs, digests, tmp_path):
    """Every byte of the adaptive and the periodic CSVs of two sweeps, by
    SHA-256: a change that moves one bit of a sweep's statistics (the lift,
    the Riccati solve, the table, the event loop) fails here."""
    assert run_cli("sweep", "-c", str(SCENARIOS / scenario), "--alphas", _README_ALPHAS,
                   "--runs", runs, "-o", str(tmp_path / "out.csv")) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
    assert written == digests


def test_a_run_count_numpy_cannot_address_exits_2(tmp_path):
    # Refused before the sweep builds a list or an array of its runs.
    runs = 2**62
    out = tmp_path / "s.csv"
    code, err = _run_cli_capped("sweep", "-c", str(SCENARIOS / "two_loop.json"),
                                "--alphas", "0,0.5", "--runs", str(runs), "-o", str(out))
    assert (code, err) == (2, f"configuration error: loop 'integrator': {runs} runs "
                              "(n_runs, --runs) of horizon 60 with largest wait 5 needs an "
                              f"array of {8 * runs * 66} bytes, more than numpy can address "
                              f"({2**63 - 1})\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("alphas", ["abc", "nan", "1,inf"])
def test_malformed_sweep_alphas_exit_2(alphas, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "-c", str(SCENARIOS / "integrator_transient.json"),
                   "--alphas", alphas, "--runs", "1", "-o", str(out))
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alphas", ["", ","], ids=["empty", "comma"])
def test_empty_sweep_alphas_exit_2(alphas, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "-c", str(SCENARIOS / "integrator_transient.json"),
                   "--alphas", alphas, "--runs", "1", "-o", str(out))
    assert code == 2
    assert "at least one alpha" in capsys.readouterr().err
    assert not out.exists()


def _edit_doc(change):
    """A file edit that parses the text, applies ``change`` to the document
    and writes it back; json.dumps writes a NaN or an infinity as a token."""
    def edit(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def _first_entry(change):
    return _edit_doc(lambda doc: change(doc["entries"][0]))


_UNREADABLE = "unreadable"  # the file is replaced by a directory

# Refusals of a scenario or table file: (id, file, edit, words of its message).
_FILE_FAULTS = [
    ("scn-x0-string", "scenario", _edit_doc(lambda d: d["loops"][0].update(x0=["a"])),
     "loops[0]: x0 must be a flat list of numbers"),
    ("scn-alpha-string", "scenario", _edit_doc(lambda d: d["loops"][0].update(alpha="abc")),
     "loop 'integrator': alpha must be a number, got 'abc'"),
    ("scn-alpha-huge-int", "scenario", _edit_doc(lambda d: d["loops"][0].update(alpha=10**400)),
     "loop 'integrator': alpha must be finite, got 1000"),
    ("scn-x0-and-null-variance", "scenario",
     _edit_doc(lambda d: d["loops"][0].update(x0_variance=None)),
     "loops[0]: fields ['x0_variance'] must not be null"),
    ("scn-n-string", "scenario", _edit_doc(lambda d: d["loops"][0].update(n="one")),
     "loops[0]: n must be an integer, got 'one'"),
    ("scn-p-null", "scenario", _edit_doc(lambda d: d.update(p=None)),
     "scenario: fields ['p'] must not be null"),
    ("scn-p-huge-int", "scenario", _edit_doc(lambda d: d.update(p=10**400)),
     "exceeds the largest wait 5"),
    ("scn-I0-string", "scenario", _edit_doc(lambda d: d.update(I0=["x"])),
     "I0 entries must be integers, got ['x']"),
    ("scn-horizon-fraction", "scenario", _edit_doc(lambda d: d.update(horizon=60.7)),
     "horizon must be an integer, got 60.7"),
    ("scn-schema-version-bool", "scenario", _edit_doc(lambda d: d.update(schema_version=True)),
     "unsupported scenario schema version True (expected 1)"),
    ("scn-missing", "scenario", _edit_doc(lambda d: d.pop("p")),
     "scenario fields mismatch (missing ['p'], unknown [])"),
    ("scn-unknown", "scenario", _edit_doc(lambda d: d.update(bogus=1)),
     "scenario fields mismatch (missing [], unknown ['bogus'])"),
    ("scn-unknown-and-null", "scenario", _edit_doc(lambda d: d.update(bogus=1, ts=None)),
     "scenario fields mismatch (missing [], unknown ['bogus'])"),
    ("scn-loop-fields", "scenario",
     _edit_doc(lambda d: d["loops"][1].update(bogus=d["loops"][1].pop("R"))),
     "loops[1] fields mismatch (missing ['R'], unknown ['bogus'])"),
    ("scn-null-top", "scenario", _edit_doc(lambda d: d.update(ts=None)),
     "scenario: fields ['ts'] must not be null"),
    ("scn-null-loop", "scenario", _edit_doc(lambda d: d["loops"][0].update(E=None, w=None)),
     "loops[0]: fields ['E', 'w'] must not be null"),
    ("scn-NaN", "scenario", _edit_doc(lambda d: d["loops"][0].update(alpha=float("nan"))),
     "holds the non-finite number NaN"),
    ("scn-minus-Infinity", "scenario",
     _edit_doc(lambda d: d["loops"][1].update(x0=[1.0, -float("inf")])),
     "holds the non-finite number -Infinity"),
    ("scn-version", "scenario", _edit_doc(lambda d: d.update(schema_version=2)),
     "unsupported scenario schema version 2 (expected 1)"),
    ("scn-version-float", "scenario", _edit_doc(lambda d: d.update(schema_version=1.0)),
     "unsupported scenario schema version 1.0 (expected 1)"),
    ("scn-dimension", "scenario", _edit_doc(lambda d: d["loops"][1].update(w=0)),
     "loops[1]: dimensions must be positive"),
    ("scn-dimension-bool", "scenario", _edit_doc(lambda d: d["loops"][0].update(n=True)),
     "loops[0]: n must be an integer, got True"),
    ("scn-loop-not-object", "scenario", _edit_doc(lambda d: d["loops"].append([])),
     "loops[2] must be a JSON object"),
    ("scn-loops-empty", "scenario", _edit_doc(lambda d: d.update(loops=[])),
     "scenario: loops must be a non-empty list"),
    ("scn-outputs-not-object", "scenario", _edit_doc(lambda d: d.update(outputs=["out"])),
     "outputs must be a JSON object"),
    ("scn-outputs-unknown", "scenario", _edit_doc(lambda d: d.update(outputs={"plots": "p"})),
     "outputs fields mismatch (missing [], unknown ['plots'])"),
    ("scn-outputs-not-string", "scenario",
     _edit_doc(lambda d: d.update(outputs={"sweep_csv": "s.csv", "tables_dir": 5})),
     "outputs: tables_dir must be a string, got 5"),
    ("scn-not-object", "scenario", lambda text: "[" + text + "]",
     "scenario must be a JSON object"),
    ("scn-invalid-json", "scenario", lambda text: text[:-3], "is not valid JSON"),
    ("scn-unreadable", "scenario", _UNREADABLE, "cannot read scenario"),
    ("tab-n-fraction", "table", _edit_doc(lambda d: d.update(n=1.5)),
     "gain table: n must be an integer, got 1.5"),
    ("tab-n-negative", "table", _edit_doc(lambda d: d.update(n=-1)),
     "gain table: dimensions must be positive, got {'n': -1, 'm': 1}"),
    ("tab-schema-version-bool", "table", _edit_doc(lambda d: d.update(schema_version=True)),
     "unsupported gain table schema version True (expected 1)"),
    ("tab-I0-empty", "table", _edit_doc(lambda d: d.update(I0=[])),
     "table 'integrator': I0 is empty"),
    ("tab-p-zero", "table", _edit_doc(lambda d: d.update(p=0)), "p must be >= 1, got 0"),
    ("tab-P-string", "table", _first_entry(lambda e: e.update(P=["x"])),
     "P(1) must be a flat list of numbers"),
    ("tab-missing", "table", _edit_doc(lambda d: d.pop("epsilon")),
     "gain table fields mismatch (missing ['epsilon'], unknown [])"),
    ("tab-unknown", "table", _edit_doc(lambda d: d.update(bogus=1)),
     "gain table fields mismatch (missing [], unknown ['bogus'])"),
    ("tab-null-top", "table", _edit_doc(lambda d: d.update(alpha=None)),
     "gain table: fields ['alpha'] must not be null"),
    ("tab-null-entry", "table", _first_entry(lambda e: e.update(P=None)),
     "gain table entries[0]: fields ['P'] must not be null"),
    ("tab-NaN", "table", _first_entry(lambda e: e.update(P=[float("nan")])),
     "gain table holds the non-finite number NaN"),
    ("tab-Infinity", "table", _edit_doc(lambda d: d.update(epsilon=float("inf"))),
     "gain table holds the non-finite number Infinity"),
    ("tab-version", "table", _edit_doc(lambda d: d.update(schema_version=2)),
     "unsupported gain table schema version 2 (expected 1)"),
    ("tab-dimension", "table", _edit_doc(lambda d: d.update(m=0)),
     "gain table: dimensions must be positive"),
    ("tab-not-object", "table", lambda text: "[" + text + "]",
     "gain table must be a JSON object"),
    ("tab-invalid-json", "table", lambda text: text[:-3], "gain table is not valid JSON"),
    ("tab-unreadable", "table", _UNREADABLE, "cannot read table"),
    ("tab-entries-not-list", "table", _edit_doc(lambda d: d.update(entries={"1": d["entries"][0]})),
     "gain table: entries must be a list"),
    ("tab-entry-not-object", "table", _edit_doc(lambda d: d["entries"].__setitem__(1, [1, 2])),
     "gain table entries[1] must be a JSON object"),
    ("tab-entry-fields", "table", _first_entry(lambda e: e.update(V=e.pop("L"))),
     "gain table entries[0] fields mismatch (missing ['L'], unknown ['V'])"),
    ("tab-entry-twice", "table", _edit_doc(lambda d: d["entries"].append(d["entries"][0])),
     "gain table entries[5]: a second entry for wait 1"),
    ("tab-I0-short", "table", _edit_doc(lambda d: d.update(I0=d["I0"][:-1])),
     "table 'integrator': entries [1, 2, 3, 4, 5] do not match I0 [1, 2, 3, 4]"),
    ("tab-entry-not-in-I0", "table", _edit_doc(lambda d: d["entries"][4].update(i=6)),
     "table 'integrator': entries [1, 2, 3, 4, 6] do not match I0 [1, 2, 3, 4, 5]"),
    ("tab-I0-zero", "table", _edit_doc(lambda d: d.update(I0=[1, 2, 3, 4, 0])),
     "table 'integrator': I0 must hold positive integers, got [1, 2, 3, 4, 0]"),
    ("tab-entry-i-fraction", "table", _edit_doc(lambda d: d["entries"][1].update(i=2.5)),
     "gain table entries[1]: i must be an integer, got 2.5"),
    ("tab-P-length", "table", _first_entry(lambda e: e.update(P=[1.0, 2.0])),
     "P(1) needs 1 row-major entries (1x1), got 2"),
    ("tab-L-length", "table", _edit_doc(lambda d: d["entries"][2].update(L=[])),
     "L(3) needs 1 row-major entries (1x1), got 0"),
]
_COMMANDS = {"scenario": ("synth", "verify", "simulate"), "table": ("verify", "simulate")}


@pytest.mark.parametrize("command,target,edit,fragment", [
    pytest.param(command, target, edit, fragment, id=f"{name}-{command}")
    for name, target, edit, fragment in _FILE_FAULTS for command in _COMMANDS[target]
])
def test_malformed_field_exits_2(command, target, edit, fragment, synth_out, tmp_path, capsys):
    tables = tmp_path / "tables"
    tables.mkdir()
    scen = tmp_path / "scenario.json"
    sources = {scen: SCENARIOS / "two_loop.json",
               **{tables / path.name: path for path in synth_out.glob("*.gains.json")}}
    faulty = scen if target == "scenario" else tables / "integrator.gains.json"
    for dest, source in sources.items():
        if dest != faulty:
            dest.write_text(source.read_text())
        elif edit == _UNREADABLE:
            dest.mkdir()
        else:
            dest.write_text(edit(source.read_text()))
    out = tmp_path / "out"
    argv = {"synth": ("synth", "-c", str(scen), "-o", str(out)),
            "verify": ("verify", "-t", str(tables), "-c", str(scen)),
            "simulate": ("simulate", "-c", str(scen), "-t", str(tables), "-o", str(out))}
    assert run_cli(*argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_table_refusal_names_its_file(command, synth_out, tmp_path, capsys):
    # The second loop's table is the broken one, so only the path tells the
    # two tables apart.
    tables = tmp_path / "tables"
    tables.mkdir()
    for path in synth_out.glob("*.gains.json"):
        text = path.read_text()
        (tables / path.name).write_text(text[:-3] if path.name.startswith("double") else text)
    scen = str(SCENARIOS / "two_loop.json")
    out = tmp_path / "run"
    argv = {"simulate": ("simulate", "-c", scen, "-t", str(tables), "-o", str(out)),
            "verify": ("verify", "-t", str(tables), "-c", scen)}[command]
    assert run_cli(*argv) == 2
    broken = tables / "double_integrator.gains.json"
    assert capsys.readouterr().err.startswith(
        f"configuration error: table {broken}: gain table is not valid JSON: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_non_finite_table_exits_2(command, synth_out, tmp_path, capsys):
    # The text is edited because json.dumps writes an infinity as Infinity,
    # which the table parser refuses already; 1e400 parses to inf.
    tables = tmp_path / "tables"
    tables.mkdir()
    for path in synth_out.glob("*.gains.json"):
        text = path.read_text()
        if path.name == "integrator.gains.json":
            text = re.sub(r'("P": \[\s*)[^,\s]+', r"\g<1>1e400", text, count=1)
            assert json.loads(text)["entries"][0]["P"] == [float("inf")]
        (tables / path.name).write_text(text)
    scen = str(SCENARIOS / "two_loop.json")
    argv = {"simulate": ("simulate", "-c", scen, "-t", str(tables), "-o", str(tmp_path / "run")),
            "verify": ("verify", "-t", str(tables), "-c", scen)}[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "'integrator'" in err and "non-finite" in err


# Values a field of a scenario or table file is set to by the mutation test.
_PROBE_VALUES = (0, -1, 1, 1.5, 1e308, -1e308, 1e-320, 2**63, 2**64, 10**6, -10**6, "x", "",
                 [], [0], [[1.0]], {}, True, False, None, float("nan"))
# Fields that size an array or a run, named by their innermost member name.
_SIZE_FIELDS = {"I0", "p", "horizon", "n", "m", "w", "i"}
# (command, field) pairs that run for a long time when the field is 10**6.
_SLOW_BY_DESIGN = {("sweep", "I0"), ("sweep", "horizon"), ("simulate", "horizon")}


def _field_paths(doc, path=()):
    """The path of every field below the root of ``doc``, depth first: each
    object member and each list element."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _field_paths(value, path + (key,))


def _with_field(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_every_field_mutation_exits_with_a_documented_code(synth_out, tmp_path):
    """Each field of ``two_loop.json``, ``integrator_transient.json`` and of
    the integrator's table of ``two_loop.json``, set to one value of
    :data:`_PROBE_VALUES` drawn by a seeded generator, goes through every
    command that reads the file: ``synth``, ``simulate`` and ``sweep`` for a
    scenario, ``verify`` and ``simulate`` for a table.  Every call returns
    0, 2, 3, 4 or 5 and raises nothing.  A size field set to 2**63 or more
    runs in a child whose memory is capped.  A value near the float limit
    may overflow on the way to its refusal or its result, silently: every
    warning is recorded, and the test fails on any.

    Left out because they are slow by design, not refused: a ``sweep`` with
    a wait (an ``I0`` entry) or a ``horizon`` of 10**6, which lifts each
    plant or runs each row 10**6 steps, and a ``simulate`` with a
    ``horizon`` of 10**6.
    """
    rng = random.Random(2015)
    transient_tables = tmp_path / "transient_tables"
    assert run_cli("synth", "-c", str(SCENARIOS / "integrator_transient.json"),
                   "-o", str(transient_tables)) == 0
    scen, tables, out = tmp_path / "scenario.json", tmp_path / "tables", tmp_path / "out"
    shutil.copytree(synth_out, tables)
    table = tables / "integrator.gains.json"
    # Per file: the file the mutation is written to, its source, and the
    # commands that read it.
    files = [(scen, SCENARIOS / name, {
        "synth": ("synth", "-c", str(scen), "-o", str(out)),
        "simulate": ("simulate", "-c", str(scen), "-t", str(stored), "-o", str(out)),
        "sweep": ("sweep", "-c", str(scen), "--alphas", "0,1", "--runs", "2",
                  "-o", str(out / "s.csv")),
    }) for name, stored in (("two_loop.json", synth_out),
                            ("integrator_transient.json", transient_tables))]
    files.append((table, synth_out / table.name, {
        "verify": ("verify", "-t", str(tables), "-c", str(scen)),
        "simulate": ("simulate", "-c", str(scen), "-t", str(tables), "-o", str(out)),
    }))
    codes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for target, source, commands in files:
            # A table's commands read the scenario it was built for.
            scen.write_text((SCENARIOS / "two_loop.json").read_text())
            doc = json.loads(source.read_text())
            for path in _field_paths(doc):
                value = rng.choice(_PROBE_VALUES)
                target.write_text(json.dumps(_with_field(doc, path, value)))
                field = next(key for key in reversed(path) if isinstance(key, str))
                integer = isinstance(value, int) and not isinstance(value, bool)
                for command, argv in commands.items():
                    if integer and value == 10**6 and (command, field) in _SLOW_BY_DESIGN:
                        continue
                    if integer and value >= 2**63 and field in _SIZE_FIELDS:
                        code, _ = _run_cli_capped(*argv, timeout=60)
                    else:
                        code = run_cli(*argv)
                    assert code in (0, 2, 3, 4, 5), (source.name, path, value, command)
                    shutil.rmtree(out, ignore_errors=True)
                    codes.append(code)
    assert len(codes) > 300 and {0, 2, 3} <= set(codes)
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []


@pytest.mark.parametrize("q", [1e-6, 1e-9])
def test_slow_integrator_synth_then_verify(q, tmp_path):
    # A closed loop near the unit circle: the certificate margin is small
    # (epsilon ~ 2e-3 at q = 1e-6) and the bounds collapse at pstar = gamma.
    doc = {
        "schema_version": 1,
        "name": "slow",
        "loops": [{
            "name": "slow", "n": 1, "m": 1,
            "A": [1.0], "B": [1.0], "Q": [q], "R": [1.0],
            "alpha": 0.2, "x0": [1.0],
        }],
        "I0": [1, 2, 3], "p": 3, "horizon": 20, "seed": 0,
    }
    scen = tmp_path / "slow.json"
    scen.write_text(json.dumps(doc))
    tables = tmp_path / "tables"
    assert run_cli("synth", "-c", str(scen), "-o", str(tables)) == 0
    assert run_cli("verify", "-t", str(tables), "-c", str(scen)) == 0


@pytest.mark.parametrize("gamma,alpha", [(15, 1000.0), (9, 1e6)])
def test_collapsed_bounds_pass_verify(gamma, alpha, tmp_path, capsys):
    # At pstar = gamma the lower and upper bounds are equal.
    doc = json.loads((SCENARIOS / "integrator_sweep.json").read_text())
    doc["loops"][0].update(R=[10.0], alpha=alpha)
    doc.update(I0=list(range(1, gamma + 1)), p=gamma)
    scen = tmp_path / "bound.json"
    scen.write_text(json.dumps(doc))
    tables = tmp_path / "tables"
    assert run_cli("synth", "-c", str(scen), "-o", str(tables)) == 0
    assert run_cli("verify", "-t", str(tables), "-c", str(scen)) == 0
    out = capsys.readouterr().out
    assert "(collapsed)" in out and "all certificates pass" in out


# The front end's text under COLUMNS=80, as the full parser tree prints it:
# each command's usage line, help and errors, and the top-level usage for
# everything that does not start with a known command or leaves arguments over.
_TOP_USAGE = "usage: selftrig [-h] {synth,simulate,sweep,verify} ...\n"
_TOP_ERROR = _TOP_USAGE + "selftrig: error: "
_USAGE = {
    "synth": "usage: selftrig synth [-h] -c SCENARIO -o OUT\n",
    "simulate": "usage: selftrig simulate [-h] -c SCENARIO [-t TABLES] -o OUT [--gnuplot]\n",
    "sweep": ("usage: selftrig sweep [-h] -c SCENARIO --alphas ALPHAS [--runs RUNS]\n"
              "                      [--seed SEED] -o OUT\n"),
    "verify": "usage: selftrig verify [-h] -t TABLES -c SCENARIO\n",
}
_OPTIONS = ("\noptions:\n"
            "  -h, --help            show this help message and exit\n")
_SCENARIO = "  -c SCENARIO, --scenario SCENARIO\n"
_HELP = {
    "synth": _SCENARIO + "  -o OUT, --out OUT     output directory\n",
    "simulate": (_SCENARIO
                 + "  -t TABLES, --tables TABLES\n"
                 "                        directory of the tables synth wrote\n"
                 "  -o OUT, --out OUT     output directory\n"
                 "  --gnuplot             emit plot.gp\n"),
    "sweep": (_SCENARIO
              + "  --alphas ALPHAS       comma-separated ascending list\n"
              "  --runs RUNS\n"
              "  --seed SEED           default: the scenario's seed\n"
              "  -o OUT, --out OUT     output CSV path\n"),
    "verify": "  -t TABLES, --tables TABLES\n" + _SCENARIO,
}
_TOP_HELP = (
    _TOP_USAGE
    + "\nSelf-triggered MPC: offline synthesis, simulation and verification\n"
    "\npositional arguments:\n"
    "  {synth,simulate,sweep,verify}\n"
    "    synth               synthesize gain tables from a scenario\n"
    "    simulate            run a scenario against stored tables\n"
    "    sweep               sweep the sampling cost alpha\n"
    "    verify              check certificates of stored tables\n"
    + _OPTIONS
)
_FRONT_END = [
    ([], 2, "", _TOP_ERROR + "the following arguments are required: command\n"),
    (["-h"], 0, _TOP_HELP, ""),
    (["-x"], 2, "", _TOP_ERROR + "unrecognized arguments: -x\n"),
    *[([name, "-h"], 0, _USAGE[name] + _OPTIONS + _HELP[name], "") for name in _USAGE],
    (["synth"], 2, "", _USAGE["synth"] + "selftrig synth: error: the following "
                                         "arguments are required: -c/--scenario, -o/--out\n"),
    (["simulate", "-c"], 2, "", _USAGE["simulate"] + "selftrig simulate: error: "
                                                     "argument -c/--scenario: expected one argument\n"),
    (["sweep", "--runs", "x"], 2, "", _USAGE["sweep"] + "selftrig sweep: error: "
                                                        "argument --runs: invalid int value: 'x'\n"),
    (["bogus"], 2, "", _TOP_ERROR + "argument command: invalid choice: 'bogus' "
                                    "(choose from 'synth', 'simulate', 'sweep', 'verify')\n"),
    (["synth", "-c", "a.json", "-o", "out", "extra"], 2, "",
     _TOP_ERROR + "unrecognized arguments: extra\n"),
    (["verify", "-t", "x", "-c", "y", "extra"], 2, "",
     _TOP_ERROR + "unrecognized arguments: extra\n"),
]


class TestFrontEnd:
    """A command named first is parsed by its own parser alone; the text,
    streams and exit codes are those of the full parser tree."""

    @pytest.mark.parametrize("argv,code,out,err", _FRONT_END,
                             ids=[" ".join(case[0]) or "none" for case in _FRONT_END])
    def test_help_usage_and_errors(self, argv, code, out, err, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (code, out, err)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _counted_parsers(monkeypatch) -> list:
        made, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return made

    def test_a_command_builds_only_its_own_parser(self, synth_out, monkeypatch, capsys):
        cli._command_parser.cache_clear()
        made = self._counted_parsers(monkeypatch)
        for _ in range(2):
            assert run_cli("verify", "-t", str(synth_out),
                           "-c", str(SCENARIOS / "two_loop.json")) == 0
        assert made == ["selftrig verify"]
        assert capsys.readouterr().out.count("all certificates pass") == 2

    def test_top_level_help_builds_the_whole_tree(self, monkeypatch, capsys):
        made = self._counted_parsers(monkeypatch)
        with pytest.raises(SystemExit):
            main(["-h"])
        assert len(made) == 5
        assert capsys.readouterr().out.startswith(_TOP_USAGE)

    @pytest.mark.parametrize("argv", [
        ["synth", "-c", "a.json", "-o", "out"],
        ["simulate", "-c", "a.json", "-o", "out", "--gnuplot"],
        ["simulate", "-c", "a.json", "-t", "tables", "-o", "out"],
        ["sweep", "-c", "a.json", "--alphas", "0,1", "--runs", "3", "--seed", "7", "-o", "s.csv"],
        ["sweep", "-o", "s.csv", "--alphas", "1", "-c", "a.json"],
        ["verify", "--tables", "tables", "--scenario", "a.json"],
    ])
    def test_the_namespace_is_the_full_trees(self, argv):
        assert cli._parse_args(argv) == cli.build_parser().parse_args(argv)


class TestParserCache:
    """Each command's parser is built once per process; in-process
    ``cli.main`` calls still parse independently of each other."""

    def test_a_flag_does_not_carry_over(self, synth_out, tmp_path):
        scen = str(SCENARIOS / "two_loop.json")
        for out, flags in ((tmp_path / "with", ("--gnuplot",)), (tmp_path / "without", ())):
            assert run_cli("simulate", "-c", scen, "-t", str(synth_out), "-o", str(out),
                           *flags) == 0
        assert (tmp_path / "with" / "plot.gp").exists()
        assert not (tmp_path / "without" / "plot.gp").exists()

    def test_a_seed_does_not_carry_over(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_sweep.json").read_text())
        doc["horizon"] = 200
        scen = tmp_path / "sweep.json"
        scen.write_text(json.dumps(doc))
        texts = {}
        for seed in (5, None, doc["seed"]):
            out = tmp_path / f"{seed}.csv"
            flags = () if seed is None else ("--seed", str(seed))
            assert run_cli("sweep", "-c", str(scen), "--alphas", "0,2.5", "--runs", "2",
                           *flags, "-o", str(out)) == 0
            texts[seed] = out.read_text()
        assert texts[None] == texts[doc["seed"]] != texts[5]

    def test_usage_errors_after_a_good_call(self, synth_out, tmp_path, monkeypatch, capsys):
        assert run_cli("verify", "-t", str(synth_out), "-c", str(SCENARIOS / "two_loop.json")) == 0
        capsys.readouterr()
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)
        for argv, code, out, err in _FRONT_END:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out, captured.err) == (code, out, err), argv
        assert list(tmp_path.iterdir()) == []
