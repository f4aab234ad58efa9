"""Scenarios: the experiment types and their strict JSON schema.

:class:`LoopSpec` and :class:`Scenario` hold everything one experiment
needs and refuse, when built, every value the simulator could not run.
A scenario document holds the fields of a :class:`Scenario` plus optional
output paths.  Matrices are flat row-major lists against the declared
dimensions.  The file rules (no ``NaN`` or ``Infinity`` token, exact
fields, no null, the schema version, positive dimensions) are the ones of
table files, in :mod:`selftrig.model`.  This module loads neither the
simulator nor the controller, so reading a scenario costs only its types.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .model import (
    LtiSystem,
    WeightSpec,
    _check_admissible,
    _count,
    _dimensions,
    _integer,
    _json_matrix,
    _json_numbers,
    _json_object,
    _json_string,
    _nonnegative,
    _parse_json,
    _read_text,
    _schema_version,
    _wait_set,
    as_vector,
)

MODE_SELF_TRIGGERED = "self_triggered"
MODE_PERIODIC = "periodic"

# A loop's name is the stem of its table and trace file names.
_NOT_IN_STEM = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]")

# The most bytes numpy addresses in one array: 2**63 - 1 on 64-bit builds.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True, eq=False)
class LoopSpec:
    """One plant with its weights, initial condition and disturbance level.

    Exactly one of ``x0`` (fixed initial state) or ``x0_variance`` (each
    component drawn i.i.d. zero-mean normal) must be given.  ``name`` must
    be a plain file stem: non-empty, without ``/``, ``\\`` or control
    characters.
    """

    name: str
    system: LtiSystem
    weights: WeightSpec
    x0: np.ndarray | None = None
    x0_variance: float | None = None
    noise_variance: float = 0.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or _NOT_IN_STEM.search(self.name):
            raise ConfigurationError(
                f"loop name {self.name!r} is not a plain file stem: give a non-empty "
                "name without '/', '\\' or control characters"
            )
        if (self.x0 is None) == (self.x0_variance is None):
            raise ConfigurationError(
                f"loop {self.name!r}: give exactly one of x0 or x0_variance"
            )
        context = f"loop {self.name!r}"
        if self.x0 is not None:
            x0 = as_vector(self.x0, f"{context}: x0", self.system.n)
            object.__setattr__(self, "x0", x0)
        else:
            x0_variance = _nonnegative(self.x0_variance, f"{context}: x0_variance")
            object.__setattr__(self, "x0_variance", x0_variance)
        noise = _nonnegative(self.noise_variance, f"{context}: noise_variance")
        object.__setattr__(self, "noise_variance", noise)
        if self.weights.Q.shape[0] != self.system.n:
            raise ConfigurationError(f"{context}: Q does not match state dim")
        if self.weights.R.shape[0] != self.system.m:
            raise ConfigurationError(f"{context}: R does not match input dim")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Everything needed to reproduce one experiment: the one home of the
    seed of its runs and of the fixed-interval baseline's period ``ts``."""

    loops: tuple
    I0: tuple
    p: int
    horizon: int
    seed: int
    mode: str = MODE_SELF_TRIGGERED
    ts: int | None = None
    name: str = "scenario"

    def __post_init__(self):
        loops = tuple(self.loops)
        if not loops:
            raise ConfigurationError("scenario needs at least one loop")
        names = [lp.name for lp in loops]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate loop names: {names}")
        object.__setattr__(self, "loops", loops)
        object.__setattr__(self, "I0", _wait_set(self.I0))
        for field in ("p", "horizon", "seed"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if self.ts is not None:
            object.__setattr__(self, "ts", _integer(self.ts, "ts"))
        _count(self.p, "p")
        _check_admissible(len(loops), self.I0, self.p)
        if self.p > self.gamma:
            raise ConfigurationError(f"p={self.p} exceeds the largest wait {self.gamma}")
        _count(self.horizon, "horizon")
        if self.mode not in (MODE_SELF_TRIGGERED, MODE_PERIODIC):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.ts is None and self.mode == MODE_PERIODIC:
            raise ConfigurationError("periodic mode needs ts")
        # Phase offsets 0..s-1 give each loop its own slot when s <= ts.
        if self.ts is not None and not len(loops) <= self.ts <= self.p:
            raise ConfigurationError(f"ts must lie in [s={len(loops)}, p={self.p}], "
                                     f"got {self.ts}")
        # Loop j first samples at k = j, so each loop samples once when T >= s.
        if self.mode == MODE_PERIODIC and self.horizon < len(loops):
            raise ConfigurationError(f"periodic mode needs horizon >= s={len(loops)}, "
                                     f"got {self.horizon}")
        _check_addressable(self)

    @property
    def gamma(self) -> int:
        return max(self.I0)


def _check_addressable(scn: Scenario, n_runs: int = 1) -> None:
    """Refuse, before any array is made, a size numpy cannot address.

    For ``n_runs`` runs, the simulator's event loop holds each loop's
    states, inputs and noise in float64 arrays of at most ``n_runs x
    (horizon + 1 + gamma) x max(n, m, w)``, and its segment map (see
    :func:`selftrig.simulator._segment_map`) once; numpy refuses an array
    past its index limit.  A scenario is checked
    for one run; a sweep passes ``n_runs``, the rows of one alpha, and the
    refusal names it.
    """
    T, G = scn.horizon, scn.gamma
    runs = f"{n_runs} runs (n_runs, --runs) of " if n_runs > 1 else ""
    for spec in scn.loops:
        n, m, w = spec.system.n, spec.system.m, spec.system.w
        noise_rows = G * n if spec.noise_variance > 0.0 else 0
        for what, size in ((f"{runs}horizon {T} with largest wait {G}",
                            n_runs * (T + 1 + G) * max(n, m, w)),
                           (f"largest wait {G} in I0", (n + m + noise_rows) * G * n)):
            if 8 * size > _MAX_ARRAY_BYTES:
                raise ConfigurationError(
                    f"loop {spec.name!r}: {what} needs an array of {8 * size} bytes, "
                    f"more than numpy can address ({_MAX_ARRAY_BYTES})"
                )


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
