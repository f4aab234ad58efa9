"""Scenario files: strict JSON schema for experiments.

A scenario document mirrors :class:`selftrig.simulator.Scenario` plus
optional output paths.  Matrices are flat row-major lists against the
declared dimensions; unknown fields anywhere in the document are
rejected, and the schema version is checked.
"""
from __future__ import annotations

import json

from .errors import ConfigurationError
from .model import (
    LtiSystem,
    WeightSpec,
    _integer,
    _json_matrix,
    _json_numbers,
    _json_string,
)
from .simulator import MODE_SELF_TRIGGERED, LoopSpec, Scenario

SCENARIO_SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema_version", "name", "loops", "I0", "p", "horizon", "seed",
    "mode", "ts", "outputs",
}
_LOOP_KEYS = {
    "name", "n", "m", "w", "A", "B", "E", "Q", "R", "alpha",
    "x0", "x0_variance", "noise_variance",
}
_OUTPUT_KEYS = {"tables_dir", "traces_dir", "sweep_csv"}


def _require_keys(doc: dict, allowed: set, context: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigurationError(f"{context}: unknown fields {sorted(unknown)}")


def _get(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigurationError(f"{context}: missing required field {key!r}")
    return doc[key]


def _loop_from_dict(doc: dict, index: int) -> LoopSpec:
    """One loop object: JSON token types and matrix shapes are checked here,
    every value rule by the types built from it."""
    context = f"loops[{index}]"
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{context}: must be an object")
    _require_keys(doc, _LOOP_KEYS, context)
    nulls = sorted(key for key, value in doc.items() if value is None)
    if nulls:
        raise ConfigurationError(f"{context}: fields {nulls} must not be null")
    name = _json_string(_get(doc, "name", context), f"{context}: name")
    n = _integer(_get(doc, "n", context), f"{context}: n")
    m = _integer(_get(doc, "m", context), f"{context}: m")
    w = _integer(doc.get("w", 1), f"{context}: w")
    if n < 1 or m < 1 or w < 1:
        raise ConfigurationError(f"{context}: dimensions must be positive")

    def matrix(key, rows, cols):
        return _json_matrix(_get(doc, key, context), rows, cols, f"{context}: {key}")

    A, B, Q, R = matrix("A", n, n), matrix("B", n, m), matrix("Q", n, n), matrix("R", m, m)
    E = matrix("E", n, w) if "E" in doc else None
    x0 = _json_numbers(doc["x0"], f"{context}: x0") if "x0" in doc else None
    alpha = _get(doc, "alpha", context)
    try:
        system, weights = LtiSystem(A=A, B=B, E=E), WeightSpec(Q=Q, R=R, alpha=alpha)
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
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "scenario")
    version = _get(doc, "schema_version", "scenario")
    if version != SCENARIO_SCHEMA_VERSION or type(version) is not int:
        raise ConfigurationError(
            f"unsupported scenario schema version {version!r} "
            f"(expected {SCENARIO_SCHEMA_VERSION})"
        )
    loops_doc = _get(doc, "loops", "scenario")
    if not isinstance(loops_doc, list) or not loops_doc:
        raise ConfigurationError("scenario: loops must be a non-empty list")
    loops = tuple(_loop_from_dict(lp, i) for i, lp in enumerate(loops_doc))
    outputs = doc.get("outputs", {})
    if not isinstance(outputs, dict):
        raise ConfigurationError("scenario: outputs must be an object")
    _require_keys(outputs, _OUTPUT_KEYS, "outputs")
    # Scenario itself refuses non-integer waits, p, horizon, seed and ts,
    # and an unknown mode.
    scenario = Scenario(
        loops=loops,
        I0=_get(doc, "I0", "scenario"),
        p=_get(doc, "p", "scenario"),
        horizon=_get(doc, "horizon", "scenario"),
        seed=_get(doc, "seed", "scenario"),
        mode=doc.get("mode", MODE_SELF_TRIGGERED),
        ts=doc.get("ts"),
        name=_json_string(doc.get("name", "scenario"), "scenario: name"),
    )
    return scenario, dict(outputs)


def load_scenario(path) -> tuple[Scenario, dict]:
    """Read and validate a scenario file; returns (scenario, outputs)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)
