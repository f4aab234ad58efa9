"""Closed-loop simulation of the joint control-and-scheduling law and its
periodic baseline.

One event loop advances the plants from one decision to the next, for the
rows of a leading row axis: one row is one (alpha index, run index) pair,
so a single run and every run of a sweep take the same path.  Whenever a
loop's next sample comes up in a row, its state is "transmitted" and a
decision policy picks the input to hold and the wait until the next
sample.  A held input makes the steps up to the largest wait one lifted
linear map, so a decision costs one product, not one plant update per
step.  There are three policies: the self-triggered law through the
reservation ledger for one run (table argmin over the waits the ledger
allows, then a reservation), and two row-form policies that serve the
sweeps: the self-triggered law over every row of every alpha (the
scheduler's residue mask and the controller's argmin, each row scored with
its alpha's sampling costs) and fixed-interval sampling with each row's
periodic Riccati gain, which also serves a single periodic run.  Initial
states are assumed known to the controller at k = 0 without consuming
channel slots, so coordinated start-up needs no transmissions.  Sweeps
over the sampling cost aggregate both laws through one per-run statistics
path.

Randomness is fully reproducible: every (alpha index, run index, loop
index) triple keys its own Philox counter-based substream, so sweep
aggregation is order-independent.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np

from .controller import _pick, _scores, decide
from .errors import ConfigurationError, SelfTrigError, SynthesisError
from .model import (
    LtiSystem,
    WeightSpec,
    _count,
    _integer,
    _lift,
    _nonnegative,
    _wait_set,
    as_vector,
)
from .scheduler import (
    ReservationLedger,
    _check_admissible,
    _RunLedger,
    feasible_set,
    reserve,
)
from .synthesis import build_gain_table, solve_periodic_riccati

MODE_SELF_TRIGGERED = "self_triggered"
MODE_PERIODIC = "periodic"

# A loop's name is the stem of its table and trace file names.
_NOT_IN_STEM = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]")


def rng_substream(
    seed: int, alpha_index: int = 0, run_index: int = 0, loop_index: int = 0
) -> np.random.Generator:
    """Philox generator for one (alpha, run, loop) triple.

    Splitting rule: SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=(alpha_index, run_index, loop_index)) keys a Philox 4x64
    counter-based bit generator; normal draws use numpy's standard_normal.
    Per run and loop, the initial state (when random) is drawn first,
    then the whole disturbance sequence.
    """
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(int(alpha_index), int(run_index), int(loop_index)),
    )
    return np.random.Generator(np.random.Philox(seed=ss))


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

    @property
    def gamma(self) -> int:
        return max(self.I0)


@dataclass(frozen=True)
class TxEvent:
    """One scheduled sensor transmission with its scheduling context."""

    k: int
    loop_id: str
    i_chosen: int
    feasible: tuple


@dataclass(frozen=True, eq=False)
class LoopTrace:
    """Per-loop record of one run.

    ``states`` has horizon + 1 rows (terminal state included); ``inputs``
    has one row per step and is piecewise constant between samples.
    ``sample_times``, ``waits``, ``values`` and ``feasible_sets`` are
    aligned per sampling instant.
    """

    name: str
    gamma: int
    states: np.ndarray
    inputs: np.ndarray
    sample_times: np.ndarray
    waits: np.ndarray
    values: np.ndarray
    feasible_sets: tuple

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    def stage_costs(self, Q, R) -> np.ndarray:
        """Per-step quadratic stage cost x'Qx + u'Ru over the horizon."""
        return _stage_costs(self.states, self.inputs, Q, R)


def _stage_costs(states, inputs, Q, R) -> np.ndarray:
    """The stage costs of one run, or of each run of a leading run axis."""
    x = states[..., : inputs.shape[-2], :]
    return (np.einsum("...ki,ij,...kj->...k", x, Q, x)
            + np.einsum("...ki,ij,...kj->...k", inputs, R, inputs))


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Full record of one run: per-loop traces plus the channel log."""

    loops: dict
    tx_events: tuple
    mode: str

    @property
    def tx_log(self) -> list:
        return [(ev.k, ev.loop_id) for ev in self.tx_events]


def step_plant(sys: LtiSystem, x, u, omega=None) -> np.ndarray:
    """One exact plant update x+ = A x + B u (+ E w)."""
    x = as_vector(x, "x", sys.n)
    u = as_vector(u, "u", sys.m)
    x_next = sys.A @ x + sys.B @ u
    if omega is not None:
        x_next = x_next + sys.E @ as_vector(omega, "omega", sys.w)
    return x_next


def _build_tables(scn: Scenario, alpha: float | None = None) -> list:
    """Every loop's gain table, in loop order, at the loop's own alpha or,
    for a sweep, at ``alpha``; the inverse of :func:`_check_tables`.  A
    synthesis error names its loop."""
    tables = []
    for spec in scn.loops:
        weights = spec.weights if alpha is None else replace(spec.weights, alpha=alpha)
        try:
            tables.append(build_gain_table(spec.system, weights, scn.I0, scn.p,
                                           loop_id=spec.name))
        except SynthesisError as exc:
            raise SynthesisError(f"loop {spec.name!r}: {exc}") from exc
    return tables


def _check_tables(scn: Scenario, tables: dict) -> list:
    ordered = []
    for spec in scn.loops:
        if spec.name not in tables:
            raise ConfigurationError(f"no gain table for loop {spec.name!r}")
        gt = tables[spec.name]
        if gt.n != spec.system.n or gt.m != spec.system.m:
            raise ConfigurationError(
                f"table/scenario dimension mismatch for loop {spec.name!r}"
            )
        if tuple(gt.I0) != tuple(scn.I0) or gt.p != scn.p:
            raise ConfigurationError(
                f"table for loop {spec.name!r} was built for I0={gt.I0}, p={gt.p}; "
                f"scenario has I0={scn.I0}, p={scn.p}"
            )
        if abs(gt.alpha - spec.weights.alpha) > 1e-15 * max(1.0, abs(gt.alpha)):
            raise ConfigurationError(
                f"table alpha {gt.alpha} does not match loop {spec.name!r} "
                f"alpha {spec.weights.alpha}"
            )
        ordered.append(gt)
    return ordered


def _check_finite(name: str, states: np.ndarray, keys) -> None:
    """Refuse rows whose state left the finite floats, naming the first bad
    step (and its run and alpha index, when several rows were advanced
    together)."""
    finite = np.isfinite(states).all(axis=-1)
    if not finite.all():
        row, k = np.argwhere(~finite)[0]
        alpha_index, run = keys[row]
        of_row = f" of run {run}, alpha index {alpha_index}" if len(keys) > 1 else ""
        raise ConfigurationError(
            f"loop {name!r}: state is not finite from step k={k}{of_row}"
        )


def _segment_map(sys: LtiSystem, gamma: int, noisy: bool) -> np.ndarray:
    """The ``gamma``-step map of one held input, in row form.

    ``[x(k), u, Ew(k), ..., Ew(k+gamma-1)] @ Phi = [x(k+1), ..., x(k+gamma)]``,
    with shape ``(n + m + gamma*n, gamma*n)``; a noiseless loop drops the
    ``Ew`` rows.  Column block ``l - 1`` gives ``x(k+l) = A_l x(k) + B_l u +
    sum_{q<l} A^(l-1-q) Ew(k+q)``, with ``A_l`` and ``B_l`` from the stacks
    of :func:`_lift`; the noise rows are one block-Toeplitz gather from the
    stacked powers ``[I, A_1, ..., A_{gamma-1}, 0]``.  A decision
    keeps only the blocks up to its wait, so the blocks beyond it may
    overflow for an unstable plant, silently.
    """
    n, m = sys.n, sys.m
    with np.errstate(over="ignore", invalid="ignore"):
        A, B = _lift(sys, gamma)
    # [A_l | B_l] (n, n+m) for each l, moved to rows (n+m) x blocks (l, n).
    lifted = np.concatenate([A, B], axis=2)
    phi = lifted.transpose(2, 0, 1).reshape(n + m, gamma * n)
    if not noisy:
        return phi
    powers = np.concatenate([np.eye(n)[None], A[:-1], np.zeros((1, n, n))])
    lag = np.arange(gamma) - np.arange(gamma)[:, None]  # [q, l]: power of A
    blocks = powers[np.where(lag < 0, gamma, lag)]  # [q, l, out, in]
    return np.vstack([phi, blocks.transpose(0, 3, 1, 2).reshape(gamma * n, gamma * n)])


def _event_loop(scn: Scenario, first_samples, policy, keys) -> list:
    """Advance every plant from one sample to the next in each row, and
    sample each loop of each row on its own clock.

    Row ``r`` is the run keyed ``keys[r] = (alpha_index, run_index)``, and
    draws from the substream ``(alpha_index, run_index, j)`` of each loop
    ``j``.  Rows share a leading axis and never interact.  Loop ``j``
    first samples at ``first_samples[j]``.  At ``k`` the decision rule
    ``policy(j, k, rows, x) -> (waits, u)`` gets the states ``x`` of the
    rows ``rows`` whose loop ``j`` samples then, and picks the inputs to
    hold and the waits until their next samples.  Loops sampling at the
    same ``k`` decide in increasing index order.

    The loop jumps from one decision time to the next.  Each decision
    writes the next ``gamma`` states of its rows with one product by the
    loop's :func:`_segment_map`, and their next decision, at most
    ``gamma`` steps on, overwrites whatever lies beyond it; a zero-input
    segment at ``k = 0`` covers the steps before a loop's first sample.
    The scenario and the drawn noise are finite when the rows start, so
    the segments run without checks; one finiteness check per loop follows
    the rows, on the kept steps only.  A policy's error is raised again
    naming its step and loop, unless a state so far is not finite: then
    that state's finiteness error is raised instead, as after the rows.
    Returns, per loop, the states
    ``(R, T+1, n)``, the inputs ``(R, T, m)`` and the chosen waits
    ``(R, T)``, 0 where the loop did not sample; each row's entries are
    contiguous.
    """
    T, R, G = scn.horizon, len(keys), scn.gamma
    maps, states, inputs, waits, Ews = [], [], [], [], []
    for j, spec in enumerate(scn.loops):
        sys = spec.system
        noisy = spec.noise_variance > 0.0
        # Padded by G: the segment of a decision may reach past the horizon.
        states.append(np.empty((R, T + 1 + G, sys.n)))
        noise = np.empty((R, T, sys.w)) if noisy else None
        for i, (alpha_index, run_index) in enumerate(keys):
            rng = rng_substream(scn.seed, alpha_index, run_index, j)
            if spec.x0 is None:
                states[j][i, 0] = rng.standard_normal(sys.n) * np.sqrt(spec.x0_variance)
            else:
                states[j][i, 0] = spec.x0
            if noisy:
                noise[i] = rng.standard_normal((T, sys.w)) * np.sqrt(spec.noise_variance)
        Ew = None
        if noisy:
            Ew = np.zeros((R, T + G, sys.n))
            Ew[:, :T] = noise @ sys.E.T
        Ews.append(Ew)
        maps.append(_segment_map(sys, G, noisy))
        inputs.append(np.zeros((R, T + G, sys.m)))
        waits.append(np.zeros((R, T), dtype=int))

    def advance(j, rows, k):
        """Hold the input at ``k`` of ``rows`` for the next G steps."""
        Ew, n = Ews[j], states[j].shape[2]
        z = [states[j][rows, k], inputs[j][rows, k]]
        if Ew is not None:
            z.append(Ew[rows, k:k + G].reshape(-1, G * n))
        # einsum rounds each row alike whatever the row count, so a row's
        # states do not depend on how many rows advance with it.  It also
        # raises no floating-point warnings: the discarded tail of an
        # unstable plant may overflow silently.
        segment = np.einsum("ri,ij->rj", np.concatenate(z, axis=1), maps[j])
        states[j][rows, k + 1:k + 1 + G] = segment.reshape(-1, G, n)

    for j in range(len(maps)):
        advance(j, slice(None), 0)
    next_sample = [np.full(R, k0) for k0 in first_samples]
    due = list(first_samples)
    k = min(due)
    # Overflow is part of the pick rule and of the finiteness checks.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < T:
            for j in range(len(maps)):
                if due[j] != k:
                    continue
                # When every row decides, basic slicing stands in for the index
                # array; one row also keeps a scalar clock.
                rows = slice(None)
                if R > 1:
                    deciding = (next_sample[j] == k).nonzero()[0]
                    if deciding.size < R:
                        rows = deciding
                try:
                    wait, u = policy(j, k, rows, states[j][rows, k])
                except SelfTrigError as exc:
                    # A state that left the floats fails the policy first; the
                    # first non-finite step so far is the cause to report.
                    for spec, loop_states in zip(scn.loops, states):
                        _check_finite(spec.name, loop_states[:, :k + 1], keys)
                    raise type(exc)(f"at step k={k}, loop {scn.loops[j].name!r}: {exc}") from exc
                inputs[j][rows, k:k + G] = u[..., None, :]
                advance(j, rows, k)
                waits[j][rows, k] = wait
                if R == 1:
                    due[j] = k + int(waits[j][0, k])
                else:
                    next_sample[j][rows] = k + wait
                    due[j] = next_sample[j].min()
            k = min(due)

    kept = [(x[:, :T + 1], u[:, :T], w) for x, u, w in zip(states, inputs, waits)]
    for spec, (loop_states, _, _) in zip(scn.loops, kept):
        _check_finite(spec.name, loop_states, keys)
    return kept


def _sim_trace(scn: Scenario, mode: str, run, values, feasible) -> SimTrace:
    """The traces of a one-run :func:`_event_loop` result ``run``, with the
    ``values`` and ``feasible`` sets its policy recorded per loop and sample.
    Every sample at ``k > 0`` is logged as a transmission, in (k, loop
    index) order."""
    loops = {}
    for j, (spec, (states, inputs, waits)) in enumerate(zip(scn.loops, run)):
        times = np.flatnonzero(waits[0])
        states, inputs = states[0], inputs[0]
        states.setflags(write=False)
        inputs.setflags(write=False)
        loops[spec.name] = LoopTrace(
            name=spec.name,
            gamma=scn.gamma,
            states=states,
            inputs=inputs,
            sample_times=times,
            waits=waits[0, times],
            values=np.array(values[j], dtype=float),
            feasible_sets=tuple(feasible[j]),
        )
    # Every sample of every loop, loop after loop, then ordered by (k, j);
    # a loop samples at most once per step, so the order is unique.
    traces = loops.values()
    k = np.concatenate([tr.sample_times for tr in traces])
    j = np.repeat(np.arange(len(loops)), [tr.sample_times.size for tr in traces])
    chosen = np.concatenate([tr.waits for tr in traces])
    order = np.lexsort((j, k))
    order = order[k[order] > 0].tolist()
    sets = [feas for tr in traces for feas in tr.feasible_sets]
    names = list(loops)
    tx_events = []
    for ev_k, ev_j, ev_i, e in zip(k[order].tolist(), j[order].tolist(),
                                   chosen[order].tolist(), order):
        # Every field is known good, so the frozen dataclass's per-field
        # __setattr__ is skipped.
        ev = object.__new__(TxEvent)
        ev.__dict__.update(k=ev_k, loop_id=names[ev_j], i_chosen=ev_i,
                           feasible=tuple(sorted(sets[e])))
        tx_events.append(ev)
    return SimTrace(loops=loops, tx_events=tuple(tx_events), mode=mode)


def run_self_triggered(
    scn: Scenario,
    tables: dict,
    alpha_index: int = 0,
    run_index: int = 0,
) -> SimTrace:
    """Simulate the joint control-and-scheduling law over the horizon.

    At k = 0 every loop decides in increasing loop order, seeing the
    reservations already made by lower-index loops; these initial samples
    consume no channel slots.  Afterwards each loop re-decides exactly at
    its reserved slots, which are logged as transmissions.
    """
    gts = _check_tables(scn, tables)
    names = tuple(spec.name for spec in scn.loops)
    ledger = ReservationLedger(p=scn.p, I0=scn.I0, loop_order=names, next_tx={})
    values, feasible = ([[] for _ in names] for _ in range(2))

    def policy(j, k, rows, x):
        nonlocal ledger
        name = names[j]
        feas = feasible_set(ledger, name, k)
        dec = decide(gts[j], x[0], feas)
        ledger = reserve(ledger, name, k, dec.i_star)
        values[j].append(dec.value)
        feasible[j].append(feas)
        return dec.i_star, dec.u

    run = _event_loop(scn, [0] * len(names), policy, [(alpha_index, run_index)])
    return _sim_trace(scn, MODE_SELF_TRIGGERED, run, values, feasible)


def _periodic_runs(scn: Scenario, keys, periods) -> tuple:
    """The fixed-interval baseline on every row of ``keys``, row ``r`` at
    period ``periods[r]``: what :func:`_event_loop` returns, and per loop
    each row's periodic ``(P, L)``, from a Riccati solve of its own."""
    gains = [[solve_periodic_riccati(spec.system, spec.weights, ts) for ts in periods]
             for spec in scn.loops]
    L = [np.array([gain for _, gain in loop]) for loop in gains]
    waits = np.array(periods)

    def policy(j, k, rows, x):
        return waits[rows], -(L[j][rows] @ x[:, :, None])[:, :, 0]

    return _event_loop(scn, range(len(scn.loops)), policy, keys), gains


def run_periodic(scn: Scenario, alpha_index: int = 0, run_index: int = 0) -> SimTrace:
    """Fixed-interval baseline: sample every ``scn.ts`` steps, feedback from
    the periodic value matrix at that period.

    Loops are phase-offset by their index (0, 1, ..., s-1), so each keeps
    its own slot (the Scenario holds ``s <= ts <= p``); inputs are zero
    before a loop's first sample.  Substream indices match those of
    :func:`run_self_triggered` so baselines share noise realizations.
    """
    if scn.ts is None:
        raise ConfigurationError("the periodic baseline needs a scenario with ts")
    run, gains = _periodic_runs(scn, [(alpha_index, run_index)], [scn.ts])
    values = [
        [float(x @ P @ x) for x in states[0, np.flatnonzero(waits[0])]]
        for ((P, _),), (states, _, waits) in zip(gains, run)
    ]
    feasible = [[frozenset({scn.ts})] * len(v) for v in values]
    return _sim_trace(scn, MODE_PERIODIC, run, values, feasible)


def _self_triggered_runs(scn: Scenario, tables: dict, keys) -> list:
    """The self-triggered law on every row of ``keys``, advanced together
    by :func:`_event_loop`; ``tables`` maps each alpha index of ``keys`` to
    its tables in loop order.

    The law, the substreams and the decision order are those of
    :func:`run_self_triggered`, in their row-axis forms: the scheduler's
    :class:`~selftrig.scheduler._RunLedger` masks the waits the channel
    leaves no room for and books the chosen ones, and the controller's
    :func:`~selftrig.controller._pick` picks.  A table's alpha enters only
    its sampling costs ``alpha / i``, so each row is scored with its own
    alpha's costs and the value and gain stacks of the first row's alpha.
    Returns what :func:`_event_loop` returns.
    """
    ledger = _RunLedger(scn.p, scn.I0, len(scn.loops), len(keys))
    stacks = tables[keys[0][0]]
    costs = [np.array([tables[ai][j].costs for ai, _ in keys]) for j in range(len(stacks))]

    def policy(j, k, rows, x):
        taken = ledger.taken(j, k, rows)
        pick = _pick(_scores(stacks[j], x, costs[j][rows]), taken)
        wait = ledger.book(j, k, rows, pick)
        return wait, -(stacks[j].L_stack[pick] @ x[:, :, None])[:, :, 0]

    return _event_loop(scn, [0] * len(scn.loops), policy, keys)


def empiric_cost(trace: LoopTrace, Q, R) -> float:
    """Time-averaged quadratic stage cost (1/T) sum x'Qx + u'Ru."""
    return float(np.mean(trace.stage_costs(Q, R)))


def average_sampling_interval(trace: LoopTrace) -> float:
    """Mean gap between consecutive sampling instants.

    Undefined with fewer than two samples; reported as gamma (the
    guaranteed maximum wait) in that case.
    """
    return _mean_interval(trace.sample_times, trace.gamma)


def _mean_interval(sample_times: np.ndarray, gamma: int) -> float:
    if sample_times.size < 2:
        return float(gamma)
    return float(np.mean(np.diff(sample_times)))


@dataclass(frozen=True, eq=False)
class SweepSummary:
    """Aggregated statistics of an alpha sweep.

    Per-loop maps hold, for each alpha index, the across-run mean of the
    sampling interval and empiric cost plus standard errors.  Alphas whose
    synthesis failed are recorded in ``errors`` and skipped.
    """

    alphas: tuple
    loop_names: tuple
    mean_interval: dict
    se_interval: dict
    mean_cost: dict
    se_cost: dict
    n_runs: int
    errors: dict


def _empty_stats(names) -> dict:
    keys = ("mean_interval", "se_interval", "mean_cost", "se_cost")
    return {key: {name: {} for name in names} for key in keys}


def _record_runs(stats: dict, ai: int, scn: Scenario, per_loop: list) -> None:
    """Store, at alpha index ``ai`` of ``stats``, each loop's mean and
    standard error over runs of the sampling interval and the empiric cost.
    ``per_loop`` holds what :func:`_event_loop` returns; each statistic
    takes one stacked pass over the runs.  A run's mean interval is the
    span from its first to its last sample over the gaps between them, as
    :func:`_mean_interval` gives.  Finite states near the float limit can
    square to an infinite cost, so a statistic that is not finite raises
    ConfigurationError, naming the first step, run and alpha index whose
    stage cost is not finite."""
    for spec, (states, inputs, waits) in zip(scn.loops, per_loop):
        n_runs = len(waits)
        sampled = waits != 0
        gaps = np.count_nonzero(sampled, axis=1) - 1
        span = (waits.shape[1] - 1 - sampled[:, ::-1].argmax(axis=1)) - sampled.argmax(axis=1)
        intervals = np.where(gaps > 0, span / np.maximum(gaps, 1), float(scn.gamma))
        Q, R = spec.weights.Q, spec.weights.R
        with np.errstate(over="ignore", invalid="ignore"):
            if waits.shape[1] > 1:
                stage = _stage_costs(states, inputs, Q, R)
            else:  # einsum sums a lone step in another order than a run of steps
                stage = np.array([_stage_costs(x, u, Q, R) for x, u in zip(states, inputs)])
            costs = stage.mean(axis=1)
            for key, v in (("interval", intervals), ("cost", costs)):
                mean = float(np.mean(v))
                se = float(np.std(v, ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0
                if not np.isfinite([mean, se]).all():
                    raise ConfigurationError(_cost_overflow(spec.name, ai, stage))
                stats["mean_" + key][spec.name][ai] = mean
                stats["se_" + key][spec.name][ai] = se


def _cost_overflow(name: str, ai: int, stage: np.ndarray) -> str:
    """Why the cost statistics of loop ``name`` at alpha index ``ai`` are not
    finite, given the stage costs ``stage``, one row per run."""
    for run, c in enumerate(stage):
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            return (f"loop {name!r}: stage cost is not finite from step k={bad[0]} "
                    f"of run {run}, alpha index {ai}")
    return f"loop {name!r}: the stage-cost statistics overflow at alpha index {ai}"


# Rows times steps that one event loop of a sweep advances, unless one
# alpha's runs alone take more.
_ROW_STEPS = 2**20


def _sweep_rows(scn: Scenario, alpha_indices: list, n_runs: int, stats: dict, run) -> None:
    """Run the ``n_runs`` rows of each alpha index, and record each alpha's
    statistics on its own rows.

    ``run(keys)`` advances the rows ``keys`` together and returns what
    :func:`_event_loop` returns.  The rows go in chunks of whole alphas,
    at least one alpha and otherwise at most :data:`_ROW_STEPS` row-steps
    each, in alpha-major order; rows never interact, so the chunking
    changes no bit.
    """
    size = max(1, _ROW_STEPS // (n_runs * scn.horizon))
    for c in range(0, len(alpha_indices), size):
        chunk = alpha_indices[c:c + size]
        per_loop = run([(ai, r) for ai in chunk for r in range(n_runs)])
        for i, ai in enumerate(chunk):
            rows = slice(i * n_runs, (i + 1) * n_runs)
            _record_runs(stats, ai, scn, [[field[rows] for field in loop] for loop in per_loop])


def sweep_alpha(scn: Scenario, alphas, n_runs: int) -> SweepSummary:
    """Re-synthesize and re-run the scenario across a grid of sampling costs.

    For each alpha every loop's table is rebuilt with that alpha; then the
    ``n_runs`` independent noisy runs of every alpha execute together, on
    substreams keyed by (alpha index, run index, loop index).  Results are
    reproducible from ``scn.seed`` alone and equal those of
    :func:`run_self_triggered` run by run.
    """
    alphas = [_nonnegative(a, "sweep alpha") for a in alphas]
    if not alphas:
        raise ConfigurationError("a sweep needs at least one alpha")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ConfigurationError("alphas must be ascending")
    n_runs = _count(n_runs, "n_runs")

    names = tuple(spec.name for spec in scn.loops)
    stats = _empty_stats(names)
    errors, tables = {}, {}
    for ai, alpha in enumerate(alphas):
        try:
            tables[ai] = _build_tables(scn, alpha)
        except SelfTrigError as exc:
            errors[alpha] = str(exc)
    _sweep_rows(scn, list(tables), n_runs, stats,
                lambda keys: _self_triggered_runs(scn, tables, keys))

    return SweepSummary(
        alphas=tuple(alphas), loop_names=names, n_runs=n_runs, errors=errors, **stats
    )


def periodic_baseline(scn: Scenario, summary: SweepSummary) -> SweepSummary:
    """Fixed-interval baseline matched to each alpha of an adaptive sweep.

    At every alpha the sweep has results for, the period ``ts`` is the mean
    sampling interval over loops, rounded and clamped to ``[s, p]``;
    ``summary.n_runs`` periodic runs per alpha then execute together on
    the sweep's substreams (those of ``scn.seed``).  The returned
    ``mean_interval`` holds the matched ``float(ts)``.  A summary of other
    loops than the scenario's raises ConfigurationError.
    """
    names = tuple(spec.name for spec in scn.loops)
    if summary.loop_names != names:
        raise ConfigurationError(
            f"the sweep summary holds loops {list(summary.loop_names)} but the "
            f"scenario has loops {list(names)}"
        )
    stats = _empty_stats(names)
    s = len(scn.loops)
    periods = {}
    for ai in range(len(summary.alphas)):
        if ai in summary.mean_interval[names[0]]:
            interval = np.mean([summary.mean_interval[name][ai] for name in names])
            periods[ai] = int(min(max(round(interval), s), scn.p))
    _sweep_rows(scn, list(periods), summary.n_runs, stats,
                lambda keys: _periodic_runs(scn, keys, [periods[ai] for ai, _ in keys])[0])
    for ai, ts in periods.items():
        for name in names:
            stats["mean_interval"][name][ai] = float(ts)
    return replace(summary, **stats)


def write_trace_csv(trace: LoopTrace, path) -> None:
    """Per-step CSV: k, state, input, sampled flag, chosen wait, value.

    The text is what ``csv.writer`` writes for these rows: lines end in
    ``\\r\\n`` and a float is its ``repr``, the shortest text that reads
    back to it.  An input row is formatted once per run of steps that hold
    it; rows are compared by their bytes, so ``-0.0`` after ``0.0`` starts
    a new run.
    """
    T = trace.horizon
    states, inputs = trace.states[:T], trace.inputs
    n, m = states.shape[1], inputs.shape[1]
    raw = np.ascontiguousarray(inputs).view(np.uint8)
    starts = np.ones(T, dtype=bool)
    starts[1:] = (raw[1:] != raw[:-1]).any(axis=1)
    held = [",".join(map(repr, u)) for u in inputs[starts].tolist()]
    tail = ["0,,"] * T
    for k, i, v in zip(trace.sample_times.tolist(), trace.waits.tolist(),
                       trace.values.tolist()):
        tail[k] = f"1,{i},{v!r}"
    x = list(map(repr, states.ravel().tolist()))
    rows = zip(map(str, range(T)), *(x[c::n] for c in range(n)),
               map(held.__getitem__, (np.cumsum(starts) - 1).tolist()), tail)
    header = ["k", *(f"x_{c + 1}" for c in range(n)), *(f"u_{c + 1}" for c in range(m)),
              "sampled", "i_chosen", "V"]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, rows), ""]))


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes one field: quoted, with its quotes
    doubled, when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_txlog_csv(trace: SimTrace, path) -> None:
    """Channel log CSV: k, loop_id, i_chosen, feasible set (semicolon-joined).

    The text is what ``csv.writer`` writes for these rows, as in
    :func:`write_trace_csv`; each loop id is quoted once, when it needs it.
    """
    ids = {ev.loop_id for ev in trace.tx_events}
    field = {loop_id: _csv_field(str(loop_id)) for loop_id in ids}
    lines = ["k,loop_id,i_chosen,feasible_set"]
    lines += [f"{ev.k},{field[ev.loop_id]},{ev.i_chosen},{';'.join(map(str, ev.feasible))}"
              for ev in trace.tx_events]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*lines, ""]))


def write_sweep_csv(summary: SweepSummary, loop_name: str, path) -> None:
    """Sweep summary CSV for one loop: alpha, mean_interval, mean_cost, se_cost, n_runs,
    as ``csv.writer`` writes it; an alpha whose synthesis failed has no row."""
    if loop_name not in summary.loop_names:
        raise ConfigurationError(f"no sweep results for loop {loop_name!r}")
    interval, cost, se = (stat[loop_name] for stat in
                          (summary.mean_interval, summary.mean_cost, summary.se_cost))
    lines = ["alpha,mean_interval,mean_cost,se_cost,n_runs"]
    lines += [f"{alpha!r},{interval[ai]!r},{cost[ai]!r},{se[ai]!r},{summary.n_runs}"
              for ai, alpha in enumerate(summary.alphas) if ai in interval]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*lines, ""]))
