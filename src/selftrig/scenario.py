"""Scenario files: strict JSON schema for experiments.

A scenario document mirrors :class:`selftrig.simulator.Scenario` plus
optional output paths.  Matrices are flat row-major lists against the
declared dimensions.  The file rules (no ``NaN`` or ``Infinity`` token,
exact fields, no null, the schema version, positive dimensions) are the
ones of table files, in :mod:`selftrig.model`.
"""
from __future__ import annotations

from .errors import ConfigurationError
from .model import (
    LtiSystem,
    WeightSpec,
    _dimensions,
    _json_matrix,
    _json_numbers,
    _json_object,
    _json_string,
    _parse_json,
    _read_text,
    _schema_version,
)
from .simulator import MODE_SELF_TRIGGERED, LoopSpec, Scenario

SCENARIO_SCHEMA_VERSION = 1

_TOP_FIELDS = ("schema_version", "loops", "I0", "p", "horizon", "seed")
_TOP_OPTIONAL = ("name", "mode", "ts", "outputs")
_LOOP_FIELDS = ("name", "n", "m", "A", "B", "Q", "R", "alpha")
_LOOP_OPTIONAL = ("w", "E", "x0", "x0_variance", "noise_variance")
_OUTPUT_OPTIONAL = ("tables_dir", "traces_dir", "sweep_csv")


def _loop_from_dict(doc: dict, index: int) -> LoopSpec:
    """One loop object: JSON token types and matrix shapes are checked here,
    every value rule by the types built from it."""
    context = f"loops[{index}]"
    doc = _json_object(doc, _LOOP_FIELDS, _LOOP_OPTIONAL, context)
    name = _json_string(doc["name"], f"{context}: name")
    n, m, w = _dimensions(context, n=doc["n"], m=doc["m"], w=doc.get("w", 1))

    def matrix(key, rows, cols):
        return _json_matrix(doc[key], rows, cols, f"{context}: {key}")

    A, B, Q, R = matrix("A", n, n), matrix("B", n, m), matrix("Q", n, n), matrix("R", m, m)
    E = matrix("E", n, w) if "E" in doc else None
    x0 = _json_numbers(doc["x0"], f"{context}: x0") if "x0" in doc else None
    try:
        system, weights = LtiSystem(A=A, B=B, E=E), WeightSpec(Q=Q, R=R, alpha=doc["alpha"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"loop {name!r}: {exc}") from None
    return LoopSpec(
        name=name,
        system=system,
        weights=weights,
        x0=x0,
        x0_variance=doc.get("x0_variance"),
        noise_variance=doc.get("noise_variance", 0.0),
    )


def scenario_from_dict(doc: dict) -> tuple[Scenario, dict]:
    """Build a Scenario from a parsed document; returns (scenario, outputs)."""
    doc = _json_object(doc, _TOP_FIELDS, _TOP_OPTIONAL, "scenario")
    _schema_version(doc, SCENARIO_SCHEMA_VERSION, "scenario")
    if not isinstance(doc["loops"], list) or not doc["loops"]:
        raise ConfigurationError("scenario: loops must be a non-empty list")
    loops = tuple(_loop_from_dict(lp, i) for i, lp in enumerate(doc["loops"]))
    outputs = _json_object(doc.get("outputs", {}), (), _OUTPUT_OPTIONAL, "outputs")
    outputs = {key: _json_string(path, f"outputs: {key}") for key, path in outputs.items()}
    # Scenario itself refuses non-integer waits, p, horizon, seed and ts,
    # and an unknown mode.
    scenario = Scenario(
        loops=loops,
        I0=doc["I0"],
        p=doc["p"],
        horizon=doc["horizon"],
        seed=doc["seed"],
        mode=doc.get("mode", MODE_SELF_TRIGGERED),
        ts=doc.get("ts"),
        name=_json_string(doc.get("name", "scenario"), "scenario: name"),
    )
    return scenario, outputs


def load_scenario(path) -> tuple[Scenario, dict]:
    """Read and validate a scenario file; returns (scenario, outputs)."""
    return scenario_from_dict(_parse_json(_read_text(path, "scenario"), f"scenario {path}"))
