"""Shared fixtures and independent reference oracles.

The scalar unit-integrator oracle below never touches the package's own
lifting or Riccati code: lifted weights come from explicit power sums and
the periodic value is the positive root of the quadratic obtained by
eliminating the gain from the fixed-point equations.  The step-by-step
lift is the bit reference of the package's stacked lift, and one plant
step at a time, with the held-input stage cost summed along it, is the
reference of the event loop's segment map and of the lift's collapsed
cost; the per-wait table entries and certificate, built on the lift, are
the bit references of the package's stacked synthesis; and the
``csv.writer`` trace, channel-log and
sweep writers, the ``json.dumps`` table file and the table printout of
numpy scalars are the byte references of its text writers.  The online
law of one decision, ``feasible_set`` -> ``decide`` -> ``reserve``, is
kept with every entry check in its general form, as the bit and refusal
reference of the package's law.  The sweep with one event loop per alpha,
each alpha's runs scored by its own tables, and the fixed-interval
baseline with one event loop per run, each with its statistics taken one
run at a time, are the bit references of the package's sweep, which runs
every (alpha, run) row in one event loop and takes each statistic in one
stacked pass; one run's empiric cost and mean sampling interval, taken
from its trace, are the bit references of what ``simulate`` reports.
One ``SeedSequence`` -> ``Philox`` generator per (row,
loop), drawing x0 and then the disturbances, is the bit reference of the
package's draws, which key every substream of a draw in one pass.
"""
import csv
import json
import math
from dataclasses import replace

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
    SelfTrigError,
    StabilityCertificate,
    SynthesisError,
    WeightSpec,
    build_gain_table,
    simulator,
    solve_periodic_riccati,
)
from selftrig.controller import _pick, _scores
from selftrig.scheduler import _RunLedger


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


def oracle_is_symmetric(M) -> bool:
    """The symmetry test ``WeightSpec`` applies to ``Q`` and ``R``."""
    return bool(np.allclose(M, M.T, rtol=1e-10, atol=1e-12))


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


def oracle_step(sys, x, u, omega=None):
    """One plant update ``A x + B u``, plus ``E omega`` when given."""
    x_next = sys.A @ x + sys.B @ u
    return x_next if omega is None else x_next + sys.E @ omega


def oracle_held_cost(sys, weights, x, u, i) -> float:
    """The stage costs ``x'Qx + u'Ru`` of holding ``u`` for ``i`` steps from
    ``x``, summed step by step along :func:`oracle_step`."""
    Q, R = weights.Q, weights.R
    total = 0.0
    for _ in range(i):
        total += float(x @ Q @ x + u @ R @ u)
        x = oracle_step(sys, x, u)
    return total


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
        Pi, Li = gt.P(i), gt.L(i)
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
    lower = gt.alpha / gamma
    upper = lower + gt.alpha * (gamma - pstar) / (epsilon * pstar * gamma)
    return ratios, Si, epsilon, lower, upper


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
    return {**ledger.next_tx, loop_id: int(k) + i}


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
# Reference table writers: the whole document through json.dumps, and every
# printed entry formatted as a numpy scalar with one print per line.


def oracle_serialize_gain_table(gt, cert) -> str:
    """The table file of ``gt`` and ``cert`` as ``json.dumps(doc, indent=2)``
    writes it, with the refusal of a non-finite number."""
    def flat(M):
        return [float(v) for v in np.asarray(M, dtype=float).ravel(order="C")]

    doc = {
        "schema_version": 1,
        "loop_id": gt.loop_id,
        "n": gt.n,
        "m": gt.m,
        "alpha": gt.alpha,
        "p": gt.p,
        "I0": list(gt.I0),
        "entries": [
            {"i": i, "P": flat(gt.P(i)), "L": flat(gt.L(i))}
            for i in gt.I0
        ],
        "Pp": flat(gt.Pp),
        "Lp": flat(gt.Lp),
        "epsilon": cert.epsilon,
        "pstar": cert.pstar,
    }
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ConfigurationError(f"cannot serialize table {gt.loop_id!r}: {exc}") from None


def oracle_print_table(gt, cert) -> None:
    """The table ``synth`` prints: a header, then each wait's L(i) and P(i)."""
    print(
        f"loop {gt.loop_id}: n={gt.n} m={gt.m} alpha={gt.alpha:g} "
        f"p={gt.p} gamma={gt.gamma} epsilon={cert.epsilon:.5f}"
    )
    print(f"  {'i':>3}  {'L(i)':>24}  {'P(i)':>24}")
    for i in gt.I0:
        P, L = gt.P(i), gt.L(i)
        l_str = " ".join(f"{v:.2f}" for v in L.ravel())
        p_str = " ".join(f"{v:.2f}" for v in P.ravel())
        print(f"  {i:>3}  {l_str:>24}  {p_str:>24}")


# ---------------------------------------------------------------------------
# Reference sweeps: one event loop per alpha, and one per periodic run, and
# their statistics one run at a time.


def oracle_empiric_cost(trace, Q, R) -> float:
    """The time-averaged stage cost (1/T) sum x'Qx + u'Ru of one run's trace."""
    x, u = trace.states[:trace.horizon], trace.inputs
    return float(np.mean(np.einsum("ki,ij,kj->k", x, Q, x) + np.einsum("ki,ij,kj->k", u, R, u)))


def oracle_average_sampling_interval(trace, gamma) -> float:
    """The mean gap between one run's samples; ``gamma`` with fewer than two."""
    if trace.sample_times.size < 2:
        return float(gamma)
    return float(np.mean(np.diff(trace.sample_times)))


def oracle_cost_refusal(name, ai, stage) -> str:
    """Why the cost statistics of loop ``name`` at alpha index ``ai`` are not
    finite, given the stage costs ``stage``, one row per run."""
    for run, c in enumerate(stage):
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            return (f"loop {name!r}: stage cost is not finite from step k={bad[0]} "
                    f"of run {run}, alpha index {ai}")
    return f"loop {name!r}: the stage-cost statistics overflow at alpha index {ai}"


def oracle_record_runs(stats, ai, scn, per_loop) -> None:
    """What ``simulator._record_chunk`` stores at alpha index ``ai`` from
    that alpha's rows ``per_loop``, one run at a time: each run's stage
    costs and the mean of the gaps between its samples (gamma with fewer
    than two samples), then each statistic's mean and standard error over
    runs, and the same refusal, in the same order of loops, when one is not
    finite."""
    for spec, (states, inputs, waits) in zip(scn.loops, per_loop):
        n_runs = len(waits)
        intervals = []
        for w in waits:
            times = np.flatnonzero(w)
            intervals.append(float(np.mean(np.diff(times))) if times.size > 1
                             else float(scn.gamma))
        Q, R = spec.weights.Q, spec.weights.R
        stage = [np.einsum("ki,ij,kj->k", x[:len(u)], Q, x[:len(u)])
                 + np.einsum("ki,ij,kj->k", u, R, u) for x, u in zip(states, inputs)]
        with np.errstate(over="ignore", invalid="ignore"):
            costs = [float(np.mean(c)) for c in stage]
            for key, v in (("interval", intervals), ("cost", costs)):
                mean = float(np.mean(v))
                se = float(np.std(v, ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0
                if not np.isfinite([mean, se]).all():
                    raise ConfigurationError(oracle_cost_refusal(spec.name, ai, stage))
                stats["mean_" + key][spec.name][ai] = mean
                stats["se_" + key][spec.name][ai] = se


def oracle_record_chunk(stats, scn, chunk, n_runs, per_loop) -> None:
    """``simulator._record_chunk`` one alpha at a time: each alpha index of
    ``chunk`` recorded by :func:`oracle_record_runs` on its own ``n_runs``
    rows, in chunk order."""
    for i, ai in enumerate(chunk):
        rows = slice(i * n_runs, (i + 1) * n_runs)
        oracle_record_runs(stats, ai, scn, [[field[rows] for field in loop] for loop in per_loop])


def oracle_sweep_alpha(scn, alphas, n_runs):
    """The adaptive sweep one alpha at a time: the runs of each alpha in an
    event loop of their own, scored and fed back by that alpha's tables."""
    names = tuple(spec.name for spec in scn.loops)
    stats = simulator._empty_stats(names)
    errors = {}
    for ai, alpha in enumerate(alphas):
        try:
            tables = simulator._build_tables(scn, alpha)
        except SelfTrigError as exc:
            errors[alpha] = str(exc)
            continue
        ledger = _RunLedger(scn.p, scn.I0, len(names), n_runs)

        def policy(j, k, rows, x, tables=tables, ledger=ledger):
            pick = _pick(_scores(tables[j], x), ledger.taken(j, k, rows))
            wait = ledger.book(j, k, rows, pick)
            return wait, -(tables[j].L_stack[pick] @ x[..., None])[..., 0]

        keys = [(ai, r) for r in range(n_runs)]
        oracle_record_runs(stats, ai, scn, simulator._event_loop(
            scn, [0] * len(names), policy, keys, simulator._draws(scn, keys)))
    return simulator.SweepSummary(alphas=tuple(alphas), loop_names=names, n_runs=n_runs,
                                  errors=errors, **stats)


def oracle_rng_substream(seed, alpha_index=0, run_index=0, loop_index=0):
    """The generator of one (alpha, run, loop) substream, keyed by numpy's
    own ``SeedSequence``."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(int(alpha_index), int(run_index), int(loop_index)),
    )
    return np.random.Generator(np.random.Philox(seed=ss))


def oracle_draws(scn, keys):
    """Each loop's ``(x0, Ew)`` for the rows ``keys``, one generator per
    (row, loop) that draws: x0 first when it is random, then the
    disturbances, each scaled as it is drawn."""
    T, R, G = scn.horizon, len(keys), scn.gamma
    draws = []
    for j, spec in enumerate(scn.loops):
        sys = spec.system
        noisy = spec.noise_variance > 0.0
        x0 = np.empty((R, sys.n))
        if spec.x0 is not None:
            x0[:] = spec.x0
        noise = np.empty((R, T, sys.w)) if noisy else None
        for i, (alpha_index, run_index) in enumerate(keys if spec.x0 is None or noisy else ()):
            rng = oracle_rng_substream(scn.seed, alpha_index, run_index, j)
            if spec.x0 is None:
                x0[i] = rng.standard_normal(sys.n) * np.sqrt(spec.x0_variance)
            if noisy:
                noise[i] = rng.standard_normal((T, sys.w)) * np.sqrt(spec.noise_variance)
        Ew = None
        if noisy:
            Ew = np.zeros((R, T + G, sys.n))
            Ew[:, :T] = noise @ sys.E.T
        draws.append((x0, Ew))
    return draws


def oracle_periodic_run(scn, alpha_index=0, run_index=0):
    """One run of the fixed-interval baseline at period ``scn.ts``, in an
    event loop of its own: what the event loop returns, and each loop's
    periodic ``(P, L)``."""
    gains = [solve_periodic_riccati(spec.system, spec.weights, scn.ts) for spec in scn.loops]

    def policy(j, k, rows, x):
        return scn.ts, -(gains[j][1] @ x)

    keys = [(alpha_index, run_index)]
    return simulator._event_loop(scn, range(len(gains)), policy, keys,
                                 simulator._draws(scn, keys)), gains


def oracle_periodic_baseline(scn, summary):
    """The fixed-interval baseline of ``summary`` one run at a time."""
    names = summary.loop_names
    stats = simulator._empty_stats(names)
    s = len(scn.loops)
    for ai in range(len(summary.alphas)):
        if ai not in summary.mean_interval[names[0]]:
            continue
        interval = np.mean([summary.mean_interval[name][ai] for name in names])
        matched = replace(scn, ts=int(min(max(round(interval), s), scn.p)))
        runs = [oracle_periodic_run(matched, ai, r)[0] for r in range(summary.n_runs)]
        # Per loop, each field of the one-run results joined on the run axis.
        oracle_record_runs(stats, ai, scn, [[np.concatenate(field) for field in zip(*loop)]
                                            for loop in zip(*runs)])
        for name in names:
            stats["mean_interval"][name][ai] = float(matched.ts)
    return replace(summary, **stats)


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


# Loop ids that json and the printout must escape or pass through as they are.
TABLE_LOOP_IDS = ("plain", 'say "hi"', "back\\slash", "tab\there", "line\nbreak",
                  "ünïcødé", "\u2603 snow", "")
# Entries that stress the float text: a negative zero, the smallest
# subnormal, a huge value, and one that prints as -0.00.
TABLE_SPECIAL_VALUES = (-0.0, 5e-324, 1e300, -0.004)


def random_stored_table(rng) -> tuple:
    """A hand-built ``(GainTable, StabilityCertificate)`` of the shapes a
    table file holds: n in 1..6, m in 1..2 and up to 20 waits, with entries
    over many decades and some of :data:`TABLE_SPECIAL_VALUES`, a loop id
    of :data:`TABLE_LOOP_IDS`, and ``alpha`` and ``epsilon`` given as
    Python or numpy floats.  Each P(i) is exactly symmetric, and the row of
    the terminal period, when there is one, is the terminal pair."""
    n, m, k = (int(rng.integers(1, hi + 1)) for hi in (6, 2, 20))

    def draw(shape, symmetric=False):
        M = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 10, size=shape)
        special = rng.random(shape) < 0.15
        M[special] = rng.choice(TABLE_SPECIAL_VALUES, size=int(special.sum()))
        if symmetric:
            lower = np.tril_indices(shape[0], -1)
            M[lower] = M.T[lower]
        return M

    I0 = sorted((rng.choice(40, size=k, replace=False) + 1).tolist())
    pairs = {i: (draw((n, n), True), draw((m, n))) for i in I0}
    p = int(rng.choice(I0)) if rng.random() < 0.5 else I0[-1] + 1
    Pp, Lp = pairs.get(p) or (draw((n, n), True), draw((m, n)))
    as_float = [float, np.float64][int(rng.integers(2))]
    gt = GainTable(loop_id=str(rng.choice(TABLE_LOOP_IDS)),
                   alpha=as_float(rng.choice([0.0, rng.uniform(0, 2), 1e300])),
                   P_stack=[pairs[i][0] for i in I0], L_stack=[pairs[i][1] for i in I0],
                   p=p, Pp=Pp, Lp=Lp, I0=I0)
    epsilon = as_float(rng.choice([rng.uniform(0, 1), 1.0, 5e-324]))
    cert = StabilityCertificate(pstar=p, epsilon=epsilon, lower_bound=0.0,
                                upper_bound=1.0, per_i_ratio={}, Si={})
    return gt, cert


def random_weights(rng, n: int, m: int, alpha=None) -> WeightSpec:
    """Random symmetric positive definite weights."""
    MQ = rng.normal(0, 1.0, (n, n))
    MR = rng.normal(0, 1.0, (m, m))
    Q = MQ @ MQ.T + 0.5 * np.eye(n)
    R = MR @ MR.T + 0.5 * np.eye(m)
    if alpha is None:
        alpha = float(rng.uniform(0.0, 2.0))
    return WeightSpec(Q=Q, R=R, alpha=alpha)
