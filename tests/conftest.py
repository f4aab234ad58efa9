"""Shared fixtures and independent reference oracles.

The scalar unit-integrator oracle below never touches the package's own
lifting or Riccati code: lifted weights come from explicit power sums and
the periodic value is the positive root of the quadratic obtained by
eliminating the gain from the fixed-point equations.  The step-by-step
lift is the bit reference of the package's stacked lift; the per-wait
table entries and certificate, built on it, are the bit references of the
package's stacked synthesis; and the ``csv.writer`` trace, channel-log and
sweep writers are the byte references of its text writers.  The online
law of one decision, ``feasible_set`` -> ``decide`` -> ``reserve``, is
kept with every entry check in its general form, as the bit and refusal
reference of the package's law.
"""
import csv
import math

import numpy as np
import pytest

from selftrig import (
    CertificateError,
    ConfigurationError,
    GainLookupError,
    GainTable,
    LoopSpec,
    LtiSystem,
    Scenario,
    SchedulingError,
    SynthesisError,
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
# Reference lift: one wait at a time, each lifted matrix its own array.


def bits(x) -> bytes:
    """The float64 bytes of an array or a list of equal-shape arrays, for
    bit-for-bit comparisons that also match NaN and inf positions."""
    return np.ascontiguousarray(x, dtype=float).tobytes()


def _sym(M):
    return 0.5 * (M + M.T)


def oracle_transition_pairs(sys, gamma) -> list:
    """The i-step pairs ``(A_i, B_i)`` for i = 1..gamma:
    ``A_{i+1} = A A_i``, ``B_{i+1} = A B_i + B``."""
    A, B = sys.A, sys.B
    pairs = [(A, B)]
    for _ in range(gamma - 1):
        Ai, Bi = pairs[-1]
        pairs.append((A @ Ai, A @ Bi + B))
    return pairs


def oracle_lift(sys, weights, gamma) -> list:
    """``(A_i, B_i, Q_i, R_i, N_i)`` for i = 1..gamma, with the weights
    accumulated along the pairs of :func:`oracle_transition_pairs`."""
    Q, R = weights.Q, weights.R
    Qi, Ri, Ni = Q, R, np.zeros((sys.n, sys.m))
    lifts = []
    for Ai, Bi in oracle_transition_pairs(sys, gamma):
        lifts.append((Ai, Bi, Qi, Ri, Ni))
        if len(lifts) == gamma:
            break
        Qi, Ri, Ni = (
            _sym(Qi + Ai.T @ Q @ Ai),
            _sym(Ri + Bi.T @ Q @ Bi + R),
            Ni + Ai.T @ Q @ Bi,
        )
    return lifts


# ---------------------------------------------------------------------------
# Reference synthesis: one backward step and one certificate check per wait,
# in I0 order, each stage a call on one matrix.


def oracle_gain_entries(sys, weights, I0, Pp) -> dict:
    """Each wait's (P(i), L(i)) by one backward step from ``Pp``."""
    lifts = oracle_lift(sys, weights, max(I0))
    entries = {}
    for i in sorted(I0):
        Ai, Bi, Qi, Ri, Ni = lifts[i - 1]
        G = Ai.T @ Pp @ Bi + Ni
        H = Ri + Bi.T @ Pp @ Bi
        try:
            L = np.linalg.solve(H, G.T)
        except np.linalg.LinAlgError as exc:
            raise SynthesisError(f"singular input-cost matrix at factor {i}: {exc}") from exc
        entries[i] = (_sym(Qi + Ai.T @ Pp @ Ai - G @ L), L)
    return entries


def oracle_certificate(gt, sys, pstar):
    """(per_i_ratio, Si, epsilon, lower_bound, upper_bound) of ``gt``, or
    the CertificateError of the first failing wait."""
    ratios, Si = {}, {}
    pairs = oracle_transition_pairs(sys, gt.gamma)
    for i in gt.I0:
        Ai, Bi = pairs[i - 1]
        Pi, Li = gt.entries[i]
        F = Ai - Bi @ Li
        G = _sym(F.T @ gt.Pp @ F)
        try:
            C = np.linalg.cholesky(Pi)
        except np.linalg.LinAlgError:
            raise CertificateError(
                f"loop {gt.loop_id!r}: value matrix P({i}) at wait {i} is not "
                f"positive definite (its Cholesky factorization fails)"
            ) from None
        M = np.linalg.solve(C, np.linalg.solve(C, G).T)
        ratios[i] = float(np.linalg.eigvalsh(_sym(M))[-1])
        S = _sym(Pi - G)
        s_eigs = np.linalg.eigvalsh(S)
        if s_eigs[0] < -1e-10 * max(1.0, abs(s_eigs[-1])):
            raise CertificateError(
                f"loop {gt.loop_id!r}: accumulated-cost form at wait {i} is "
                f"indefinite (min eigenvalue {s_eigs[0]:.3e})"
            )
        Si[i] = S
    rho_max = max(ratios.values())
    if rho_max >= 1.0:
        worst = max(ratios, key=ratios.get)
        raise CertificateError(
            f"loop {gt.loop_id!r}: contraction fails at wait {worst} "
            f"(ratio {ratios[worst]:.6g} >= 1)"
        )
    epsilon = min(1.0, 1.0 - rho_max)
    gamma = gt.gamma
    upper = gt.alpha * ((gamma - pstar) + pstar * epsilon) / (epsilon * pstar * gamma)
    return ratios, Si, epsilon, gt.alpha / gamma, upper


# ---------------------------------------------------------------------------
# Reference online law: one decision through the feasible set, the argmin
# and the booking, each entry check in its general form and the decision a
# plain tuple.  Vectors are coerced by numpy alone, so only refusals of
# numeric input are references.


_FLOAT_MAX = float(np.finfo(float).max)


def _oracle_integer(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _oracle_wait_set(I0, what, empty):
    try:
        values = tuple(I0)
    except TypeError:
        raise ConfigurationError(f"{what} must be a set of integers, got {I0!r}") from None
    if not values:
        raise empty(f"{what} is empty")
    if not all(type(i) is int or isinstance(i, np.integer) for i in values):
        raise ConfigurationError(f"{what} entries must be integers, got {I0!r}")
    waits = tuple(sorted(set(map(int, values))))
    if waits[0] < 1:
        raise ConfigurationError(f"{what} must hold positive integers, got {I0!r}")
    return waits


def _oracle_vector(x, name, length):
    try:
        out = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name} must be a vector of numbers: {exc}") from None
    if out.ndim != 1:
        raise ConfigurationError(f"{name} must be a vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ConfigurationError(f"{name} has non-finite entries")
    if length is not None and out.size != length:
        raise ConfigurationError(f"{name} must have length {length}, got {out.size}")
    return out


def oracle_feasible_set(ledger, loop_id, k) -> frozenset:
    """The waits ``loop_id`` may choose at ``k``: those whose residue modulo
    ``p`` no other reserved loop's slot shares."""
    if loop_id not in ledger.loop_order:
        raise ConfigurationError(f"unknown loop {loop_id!r}")
    k = _oracle_integer(k, "decision time k")
    own = ledger.next_tx.get(loop_id)
    if own is not None and own < k:
        raise SchedulingError(
            f"loop {loop_id!r} decides at k={k}, past its reserved slot {own}"
        )
    p = ledger.p
    taken = {(kq - k) % p for q, kq in ledger.next_tx.items() if q != loop_id}
    feas = frozenset(i for i in ledger.I0 if i % p not in taken)
    if not feas:
        raise SchedulingError(
            f"internal invariant violation: loop {loop_id!r} has no feasible wait "
            f"at k={k} (reservations {dict(ledger.next_tx)})"
        )
    return feas


def oracle_decide(gt, x, feasible) -> tuple:
    """``(i_star, u, value, values_by_i)`` of the least score
    ``alpha/i + x' P(i) x`` over the feasible waits, ties to the larger wait
    and an overflowed or NaN score ranked as the largest float."""
    feas = _oracle_wait_set(feasible, "feasible set", SchedulingError)
    unknown = [i for i in feas if i not in gt.rows]
    if unknown:
        raise GainLookupError(
            f"loop {gt.loop_id!r}: feasible waits {unknown} have no table entry"
        )
    x = _oracle_vector(x, "x", gt.n)
    scores = (gt.costs + ((x @ gt.P_stack) * x).sum(axis=-1).T).tolist()
    values = {i: scores[gt.rows[i]] for i in feas}
    i_star, best = feas[0], float("inf")
    for i, v in values.items():
        v = v if v < _FLOAT_MAX else _FLOAT_MAX
        if v <= best:
            best, i_star = v, i
    return i_star, -(gt.L_stack[gt.rows[i_star]] @ x), values[i_star], values


def oracle_reserve(ledger, loop_id, k, i) -> dict:
    """The reservations after ``loop_id`` books slot ``k + i``; the wait must
    be feasible."""
    i = _oracle_integer(i, "wait")
    if i not in oracle_feasible_set(ledger, loop_id, k):
        raise SchedulingError(
            f"loop {loop_id!r} attempted infeasible wait {i} at k={k}"
        )
    return {**ledger.next_tx, loop_id: k + i}


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


def oracle_write_sweep_csv(summary, loop_name, path) -> None:
    """The sweep CSV of ``loop_name`` in ``summary`` as ``csv.writer`` writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "mean_interval", "mean_cost", "se_cost", "n_runs"])
        for ai, alpha in enumerate(summary.alphas):
            if ai not in summary.mean_interval[loop_name]:
                continue
            writer.writerow(
                [
                    repr(alpha),
                    repr(summary.mean_interval[loop_name][ai]),
                    repr(summary.mean_cost[loop_name][ai]),
                    repr(summary.se_cost[loop_name][ai]),
                    summary.n_runs,
                ]
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
