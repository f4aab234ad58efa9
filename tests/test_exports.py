"""The public name list is the pinned one, sorted, unique and resolvable;
importing the package needs numpy alone and loads only the table and
scenario readers until a name of another module is used."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import selftrig


# Adding or removing a public name restates this list.
PUBLIC_NAMES = [
    "CertificateError",
    "ConfigurationError",
    "Decision",
    "GainLookupError",
    "GainTable",
    "LiftedModel",
    "LoopSpec",
    "LoopTrace",
    "LtiSystem",
    "ReservationLedger",
    "Scenario",
    "SchedulingError",
    "SelfTrigError",
    "SimTrace",
    "StabilityCertificate",
    "SweepSummary",
    "SynthesisError",
    "TxEvent",
    "WeightSpec",
    "build_gain_table",
    "decide",
    "deserialize_gain_table",
    "feasible_set",
    "is_controllable",
    "lift_range",
    "load_scenario",
    "partition_1d",
    "reserve",
    "rng_substream",
    "run_periodic",
    "run_self_triggered",
    "scenario_from_dict",
    "select_pstar",
    "serialize_gain_table",
    "solve_periodic_riccati",
    "stability_certificate",
    "sweep",
    "uncontrollable_reason",
    "verify_conflict_free",
]


def test_all_is_the_pinned_public_surface():
    assert selftrig.__all__ == PUBLIC_NAMES


def test_all_is_sorted_unique_and_resolves():
    names = selftrig.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(selftrig, name)]
    assert not missing


def test_import_loads_no_scipy():
    # A fresh interpreter, so that modules the test suite imported do not count.
    src = str(Path(selftrig.__file__).resolve().parent.parent)
    code = (
        "import sys, selftrig, selftrig.cli; "
        "print(','.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == ""


def _run_child(code: str) -> str:
    """The output of ``code`` in a fresh interpreter that imports this
    package, with every warning an error."""
    src = str(Path(selftrig.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return child.stdout


def _loaded_modules(code: str) -> set:
    """The ``selftrig`` modules a fresh interpreter holds after ``code``."""
    code += "; import sys; print(','.join(m for m in sys.modules if m.startswith('selftrig')))"
    return set(_run_child(code).strip().split(","))


_EVERY_MODULE = {f"selftrig.{name}" for name in (
    "cli", "controller", "errors", "model", "scenario", "scheduler", "simulator", "synthesis")}


def test_the_readers_load_no_simulator_controller_or_scheduler():
    loaded = _loaded_modules("from selftrig import load_scenario, deserialize_gain_table")
    assert loaded == {"selftrig", "selftrig.errors", "selftrig.model", "selftrig.scenario",
                      "selftrig.synthesis"}


def test_the_deployment_set_loads_no_simulator():
    loaded = _loaded_modules(
        "from selftrig import decide, feasible_set, reserve, deserialize_gain_table")
    assert "selftrig.simulator" not in loaded
    assert {"selftrig.controller", "selftrig.scheduler"} <= loaded


def test_the_command_line_loads_every_module():
    assert _loaded_modules("import selftrig.cli") == {"selftrig"} | _EVERY_MODULE


def test_each_public_name_is_its_home_modules_object():
    # A fresh interpreter, so that dir() is read before any lazy name is
    # bound, and every lazy name is bound here first.
    code = """if True:
        import importlib, selftrig
        assert set(selftrig.__all__) <= set(dir(selftrig))
        homes = set()
        for name in selftrig.__all__:
            value = getattr(selftrig, name)
            home = importlib.import_module(value.__module__)
            assert getattr(home, name) is value is vars(selftrig)[name], name
            homes.add(home.__name__)
        assert set(selftrig.__all__) <= set(dir(selftrig))
        print(sorted(homes))
    """
    assert _run_child(code).strip() == str(sorted(_EVERY_MODULE - {"selftrig.cli"}))


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="module 'selftrig' has no attribute 'no_such_name'"):
        selftrig.no_such_name
    assert not hasattr(selftrig, "sweep_alpha")
