"""End-to-end CLI checks: exit codes, file outputs, round trips."""
import csv
import json
from pathlib import Path

import pytest

from selftrig.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*argv):
    return main(list(argv))


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

    def test_root_of_unity_period_exits_3(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "name": "oscillator",
            "loops": [{
                "name": "osc", "n": 1, "m": 1,
                "A": [-1.0], "B": [1.0], "Q": [1.0], "R": [1.0],
                "alpha": 0.1, "x0": [1.0],
            }],
            "I0": [1, 2], "p": 2, "horizon": 20, "seed": 0,
            "mode": "self_triggered",
        }
        bad = tmp_path / "osc.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert "power 2" in err and "-1" in err

    def test_unknown_scenario_field_exits_2(self, tmp_path):
        doc = json.loads((SCENARIOS / "integrator_transient.json").read_text())
        doc["surprise"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("synth", "-c", str(bad), "-o", str(tmp_path / "out")) == 2


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


def _set_field(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize("target,path,value", [
    pytest.param("scenario", ("loops", 0, "x0"), ["a"], id="x0-string"),
    pytest.param("scenario", ("loops", 0, "alpha"), "abc", id="alpha-string"),
    pytest.param("scenario", ("loops", 0, "n"), "one", id="n-string"),
    pytest.param("scenario", ("p",), None, id="p-null"),
    pytest.param("scenario", ("I0",), ["x"], id="I0-string"),
    pytest.param("scenario", ("horizon",), 60.7, id="horizon-fraction"),
    pytest.param("table", ("n",), 1.5, id="table-n-fraction"),
    pytest.param("table", ("I0",), [], id="table-I0-empty"),
    pytest.param("table", ("entries", 0, "P"), ["x"], id="table-P-string"),
])
def test_malformed_field_exits_2(target, path, value, synth_out, tmp_path, capsys):
    scen_doc = json.loads((SCENARIOS / "two_loop.json").read_text())
    tables = tmp_path / "tables"
    tables.mkdir()
    for table in synth_out.glob("*.gains.json"):
        doc = json.loads(table.read_text())
        if target == "table" and doc["loop_id"] == "integrator":
            _set_field(doc, path, value)
        (tables / table.name).write_text(json.dumps(doc))
    scen = tmp_path / "scenario.json"
    if target == "scenario":
        _set_field(scen_doc, path, value)
        argv = ("synth", "-c", str(scen), "-o", str(tmp_path / "out"))
    else:
        argv = ("verify", "-t", str(tables), "-c", str(scen))
    scen.write_text(json.dumps(scen_doc))
    assert run_cli(*argv) == 2
    assert "configuration error" in capsys.readouterr().err
