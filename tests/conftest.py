"""Shared fixtures and independent reference oracles.

The scalar unit-integrator oracle below never touches the package's own
lifting or Riccati code: lifted weights come from explicit power sums and
the periodic value is the positive root of the quadratic obtained by
eliminating the gain from the fixed-point equations.  The ``csv.writer``
trace and channel-log writers below are the byte references of the
package's text writers.
"""
import csv
import math

import numpy as np
import pytest

from selftrig import (
    GainTable,
    LoopSpec,
    LtiSystem,
    Scenario,
    WeightSpec,
    build_gain_table,
)


@pytest.fixture(scope="session")
def integrator():
    return LtiSystem(A=[[1.0]], B=[[1.0]], E=[[1.0]])


@pytest.fixture(scope="session")
def integrator_weights():
    return WeightSpec(Q=[[1.0]], R=[[1.0]], alpha=0.2)


@pytest.fixture(scope="session")
def integrator_table(integrator, integrator_weights) -> GainTable:
    return build_gain_table(integrator, integrator_weights, range(1, 6), 5,
                            loop_id="integrator")


@pytest.fixture(scope="session")
def double_integrator():
    return LtiSystem(A=[[1.0, 0.0], [1.0, 1.0]], B=[[1.0], [0.5]], E=[[1.0], [1.0]])


@pytest.fixture(scope="session")
def double_integrator_weights():
    return WeightSpec(Q=np.eye(2), R=[[0.1]], alpha=1.0)


@pytest.fixture(scope="session")
def double_integrator_table(double_integrator, double_integrator_weights) -> GainTable:
    return build_gain_table(
        double_integrator, double_integrator_weights, range(1, 6), 5,
        loop_id="double_integrator",
    )


@pytest.fixture
def transient_scenario(integrator, integrator_weights):
    return Scenario(
        loops=(
            LoopSpec(name="integrator", system=integrator,
                     weights=integrator_weights, x0=[2.0]),
        ),
        I0=range(1, 6),
        p=5,
        horizon=60,
        seed=1,
    )


@pytest.fixture
def two_loop_scenario(integrator, integrator_weights,
                      double_integrator, double_integrator_weights):
    return Scenario(
        loops=(
            LoopSpec(name="integrator", system=integrator,
                     weights=integrator_weights, x0=[2.0]),
            LoopSpec(name="double_integrator", system=double_integrator,
                     weights=double_integrator_weights, x0=[2.0, 2.0]),
        ),
        I0=range(1, 6),
        p=5,
        horizon=60,
        seed=1,
    )


# ---------------------------------------------------------------------------
# Independent scalar oracle for the unit integrator with Q = R = 1, p = 5.


def scalar_lifted_weights(i: int) -> tuple[float, float, float]:
    """(q_i, r_i, n_i) for the unit integrator from explicit power sums."""
    q = float(i)
    r = sum(float(l) ** 2 for l in range(i)) + i  # held input enters l times by step l
    n = sum(float(l) for l in range(i))
    return q, r, n


def scalar_periodic_value() -> float:
    """Positive root of P^2 - P - 3 = 0, the period-5 fixed point.

    Eliminating the gain from P = q5 + P - (5P + n5) L and
    L = (5P + n5) / (r5 + 25 P) with (q5, r5, n5) = (5, 35, 10) gives
    (5P + 10)^2 = 5 (35 + 25P), i.e. P^2 - P - 3 = 0.
    """
    return (1.0 + math.sqrt(13.0)) / 2.0


def scalar_table(i: int) -> tuple[float, float]:
    """(P_i, L_i) for the unit integrator table with terminal period 5."""
    P5 = scalar_periodic_value()
    q, r, n = scalar_lifted_weights(i)
    g = i * P5 + n  # lifted transition is (1, i)
    h = r + i * i * P5
    L = g / h
    P = q + P5 - g * L
    return P, L


# ---------------------------------------------------------------------------
# Reference CSV writers: every row through csv.writer, every entry formatted
# on every step.


def oracle_write_trace_csv(trace, path) -> None:
    """The per-step trace of ``trace`` as ``csv.writer`` writes it."""
    n = trace.states.shape[1]
    m = trace.inputs.shape[1]
    tail = [(0, "", "")] * trace.horizon
    for k, i, v in zip(trace.sample_times.tolist(), trace.waits.tolist(),
                       trace.values.tolist()):
        tail[k] = (1, i, v)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k"]
            + [f"x_{j + 1}" for j in range(n)]
            + [f"u_{j + 1}" for j in range(m)]
            + ["sampled", "i_chosen", "V"]
        )
        writer.writerows(
            [k, *x, *u, *t] for k, (x, u, t) in
            enumerate(zip(trace.states.tolist(), trace.inputs.tolist(), tail))
        )


def oracle_write_txlog_csv(trace, path) -> None:
    """The channel log of ``trace`` as ``csv.writer`` writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "loop_id", "i_chosen", "feasible_set"])
        for ev in trace.tx_events:
            writer.writerow(
                [ev.k, ev.loop_id, ev.i_chosen, ";".join(str(i) for i in ev.feasible)]
            )


# ---------------------------------------------------------------------------
# Random problem generators.


def random_system(rng, n_max=4, m_max=2, ensure_controllable=True,
                  max_spectral_radius=None) -> LtiSystem:
    """Random finite plant; optionally resampled until (A, B) is controllable.

    ``max_spectral_radius`` rescales A when its spectrum is larger; tests
    that solve Riccati equations use it to keep the value matrices well
    conditioned (strongly expansive plants make them ill conditioned, and
    comparisons with other solvers then measure conditioning, not error).
    """
    from selftrig import is_controllable

    while True:
        n = int(rng.integers(1, n_max + 1))
        m = int(rng.integers(1, min(m_max, n) + 1))
        A = rng.normal(0, 1.0, (n, n))
        if max_spectral_radius is not None:
            rho = max(abs(np.linalg.eigvals(A)))
            if rho > max_spectral_radius:
                A *= max_spectral_radius / rho
        B = rng.normal(0, 1.0, (n, m))
        sys = LtiSystem(A=A, B=B)
        if not ensure_controllable or is_controllable(sys.A, sys.B):
            return sys


def random_weights(rng, n: int, m: int, alpha=None) -> WeightSpec:
    """Random symmetric positive definite weights."""
    MQ = rng.normal(0, 1.0, (n, n))
    MR = rng.normal(0, 1.0, (m, m))
    Q = MQ @ MQ.T + 0.5 * np.eye(n)
    R = MR @ MR.T + 0.5 * np.eye(m)
    if alpha is None:
        alpha = float(rng.uniform(0.0, 2.0))
    return WeightSpec(Q=Q, R=R, alpha=alpha)
