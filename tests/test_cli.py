"""End-to-end CLI checks: exit codes, file outputs, round trips."""
import csv
import hashlib
import json
import re
from pathlib import Path

import pytest

from selftrig import deserialize_gain_table, run_periodic, run_self_triggered
from selftrig.cli import main
from selftrig.scenario import load_scenario

from conftest import oracle_write_trace_csv, oracle_write_txlog_csv

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
