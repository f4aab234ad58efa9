"""Scenario files: strict JSON schema for experiments.

A scenario document mirrors :class:`selftrig.simulator.Scenario` plus
optional output paths.  Matrices are flat row-major lists against the
declared dimensions; unknown fields anywhere in the document are
rejected, and the schema version is checked.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import ConfigurationError
from .model import (
    LtiSystem,
    WeightSpec,
    _integer,
    _json_numbers,
    _json_string,
    _number,
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


def _matrix(doc: dict, key: str, rows: int, cols: int, context: str) -> np.ndarray:
    arr = _json_numbers(_get(doc, key, context), f"{context}: {key}")
    if arr.size != rows * cols:
        raise ConfigurationError(
            f"{context}: {key} needs {rows * cols} row-major entries "
            f"({rows}x{cols}), got {arr.size}"
        )
    return arr.reshape(rows, cols)


def _loop_from_dict(doc: dict, index: int) -> LoopSpec:
    context = f"loops[{index}]"
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{context}: must be an object")
    _require_keys(doc, _LOOP_KEYS, context)
    name = _json_string(_get(doc, "name", context), f"{context}: name")
    n = _integer(_get(doc, "n", context), f"{context}: n")
    m = _integer(_get(doc, "m", context), f"{context}: m")
    w = _integer(doc.get("w", 1), f"{context}: w")
    if n < 1 or m < 1 or w < 1:
        raise ConfigurationError(f"{context}: dimensions must be positive")
    A = _matrix(doc, "A", n, n, context)
    B = _matrix(doc, "B", n, m, context)
    E = _matrix(doc, "E", n, w, context) if "E" in doc else None
    Q = _matrix(doc, "Q", n, n, context)
    R = _matrix(doc, "R", m, m, context)
    alpha = _number(_get(doc, "alpha", context), f"{context}: alpha")
    x0 = None
    x0_variance = None
    if "x0" in doc and "x0_variance" in doc:
        raise ConfigurationError(f"{context}: give x0 or x0_variance, not both")
    if "x0" in doc:
        x0 = _json_numbers(doc["x0"], f"{context}: x0")
        if x0.size != n:
            raise ConfigurationError(f"{context}: x0 must have length {n}")
    elif "x0_variance" in doc:
        x0_variance = _number(doc["x0_variance"], f"{context}: x0_variance")
    else:
        raise ConfigurationError(f"{context}: one of x0 or x0_variance is required")
    return LoopSpec(
        name=name,
        system=LtiSystem(A=A, B=B, E=E),
        weights=WeightSpec(Q=Q, R=R, alpha=alpha),
        x0=x0,
        x0_variance=x0_variance,
        noise_variance=_number(
            doc.get("noise_variance", 0.0), f"{context}: noise_variance"
        ),
    )


def scenario_from_dict(doc: dict) -> tuple[Scenario, dict]:
    """Build a Scenario from a parsed document; returns (scenario, outputs)."""
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a JSON object")
    _require_keys(doc, _TOP_KEYS, "scenario")
    version = _get(doc, "schema_version", "scenario")
    if version != SCENARIO_SCHEMA_VERSION:
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
    I0 = _get(doc, "I0", "scenario")
    if not isinstance(I0, list):
        raise ConfigurationError("scenario: I0 must be a list of integers")
    # Scenario itself refuses non-integer waits, p, horizon, seed and ts.
    scenario = Scenario(
        loops=loops,
        I0=I0,
        p=_get(doc, "p", "scenario"),
        horizon=_get(doc, "horizon", "scenario"),
        seed=_get(doc, "seed", "scenario"),
        mode=_json_string(doc.get("mode", MODE_SELF_TRIGGERED), "scenario: mode"),
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
