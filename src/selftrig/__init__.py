"""Self-triggered MPC toolkit.

Offline: synthesize per-loop lookup tables of value matrices and feedback
gains over a set of admissible sampling waits, plus a contraction
certificate.  Online: at every sample jointly pick the input and the time
until the next sample, coordinating many loops on one shared channel with
conflict-free slot reservations.
"""

import importlib

from .errors import (
    CertificateError,
    ConfigurationError,
    GainLookupError,
    SchedulingError,
    SelfTrigError,
    SynthesisError,
)
from .model import LiftedModel, LtiSystem, WeightSpec, lift_range
from .scenario import LoopSpec, Scenario, load_scenario, scenario_from_dict
from .synthesis import (
    GainTable,
    StabilityCertificate,
    build_gain_table,
    deserialize_gain_table,
    is_controllable,
    select_pstar,
    serialize_gain_table,
    solve_periodic_riccati,
    stability_certificate,
    uncontrollable_reason,
)

# The names of these modules are bound on first access, so that reading
# scenarios and tables loads none of them.
_LAZY = {
    "controller": ("Decision", "decide", "partition_1d"),
    "scheduler": ("ReservationLedger", "feasible_set", "reserve", "verify_conflict_free"),
    "simulator": ("LoopTrace", "SimTrace", "SweepSummary", "TxEvent", "rng_substream",
                  "run_periodic", "run_self_triggered", "sweep"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import the home module of a lazy public name and keep the name."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
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
