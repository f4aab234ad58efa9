"""The public name list is the pinned one, sorted, unique and resolvable;
importing the package needs numpy alone."""
import os
import subprocess
import sys
from pathlib import Path

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
