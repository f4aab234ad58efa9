"""Self-triggered MPC toolkit.

Offline: synthesize per-loop lookup tables of value matrices and feedback
gains over a set of admissible sampling waits, plus a contraction
certificate.  Online: at every sample jointly pick the input and the time
until the next sample, coordinating many loops on one shared channel with
conflict-free slot reservations.
"""

from .controller import Decision, decide, partition_1d
from .errors import (
    CertificateError,
    ConfigurationError,
    GainLookupError,
    SchedulingError,
    SelfTrigError,
    SynthesisError,
)
from .model import LiftedModel, LtiSystem, WeightSpec, lift_range
from .scenario import load_scenario, scenario_from_dict
from .scheduler import (
    ReservationLedger,
    feasible_set,
    reserve,
    verify_conflict_free,
)
from .simulator import (
    LoopSpec,
    LoopTrace,
    Scenario,
    SimTrace,
    SweepSummary,
    TxEvent,
    rng_substream,
    run_periodic,
    run_self_triggered,
    sweep,
)
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
