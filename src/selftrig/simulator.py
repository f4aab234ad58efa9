"""Closed-loop simulation of the joint control-and-scheduling law and its
periodic baseline.

One event loop advances all plants one step at a time.  Whenever a loop's
next sample comes up, its state is "transmitted" and a decision policy
picks the input to hold and the wait until the next sample.  There are two
policies: the self-triggered law (table argmin over the waits the
reservation ledger allows, then a reservation) and fixed-interval sampling
with the periodic Riccati gain.  Initial states are assumed known to the
controller at k = 0 without consuming channel slots, so coordinated
start-up needs no transmissions.  Sweeps over the sampling cost aggregate
both laws through one per-run statistics path.

Randomness is fully reproducible: every (alpha index, run index, loop
index) triple keys its own Philox counter-based substream, so sweep
aggregation is order-independent.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .controller import decide
from .errors import ConfigurationError, SelfTrigError
from .model import LtiSystem, WeightSpec, _integer, _number, _wait_set, as_vector
from .scheduler import ReservationLedger, _check_admissible, feasible_set, reserve
from .synthesis import solve_periodic_riccati

MODE_SELF_TRIGGERED = "self_triggered"
MODE_PERIODIC = "periodic"

_FLOAT_MAX = np.finfo(float).max


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


@dataclass(frozen=True)
class LoopSpec:
    """One plant with its weights, initial condition and disturbance level.

    Exactly one of ``x0`` (fixed initial state) or ``x0_variance`` (each
    component drawn i.i.d. zero-mean normal) must be given.
    """

    name: str
    system: LtiSystem
    weights: WeightSpec
    x0: np.ndarray | None = None
    x0_variance: float | None = None
    noise_variance: float = 0.0

    def __post_init__(self):
        if (self.x0 is None) == (self.x0_variance is None):
            raise ConfigurationError(
                f"loop {self.name!r}: give exactly one of x0 or x0_variance"
            )
        if self.x0 is not None:
            object.__setattr__(
                self, "x0", as_vector(self.x0, f"{self.name}.x0", self.system.n)
            )
        else:
            object.__setattr__(self, "x0_variance", self._variance("x0_variance"))
        object.__setattr__(self, "noise_variance", self._variance("noise_variance"))
        if self.weights.Q.shape[0] != self.system.n:
            raise ConfigurationError(f"loop {self.name!r}: Q does not match state dim")
        if self.weights.R.shape[0] != self.system.m:
            raise ConfigurationError(f"loop {self.name!r}: R does not match input dim")

    def _variance(self, field: str) -> float:
        value = _number(getattr(self, field), f"loop {self.name!r}: {field}")
        if value < 0:
            raise ConfigurationError(f"loop {self.name!r}: {field} must be nonnegative")
        return value


@dataclass(frozen=True)
class Scenario:
    """Everything needed to reproduce one experiment."""

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
        if self.p < 1:
            raise ConfigurationError(f"p must be >= 1, got {self.p}")
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if self.mode not in (MODE_SELF_TRIGGERED, MODE_PERIODIC):
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_PERIODIC:
            if self.ts is None or not (1 <= self.ts <= self.p):
                raise ConfigurationError(
                    f"periodic mode needs ts in [1, p={self.p}], got {self.ts}"
                )

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


@dataclass(frozen=True)
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
    x = states[: inputs.shape[0]]
    return np.einsum("ki,ij,kj->k", x, Q, x) + np.einsum("ki,ij,kj->k", inputs, R, inputs)


@dataclass(frozen=True)
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


def _draw_initial_and_noise(spec: LoopSpec, horizon: int, rng) -> tuple[np.ndarray, np.ndarray | None]:
    if spec.x0 is not None:
        x0 = spec.x0.copy()
    else:
        x0 = rng.standard_normal(spec.system.n) * np.sqrt(spec.x0_variance)
    if spec.noise_variance > 0.0:
        noise = rng.standard_normal((horizon, spec.system.w)) * np.sqrt(
            spec.noise_variance
        )
    else:
        noise = None
    return x0, noise


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


def _check_finite(name: str, states: np.ndarray) -> None:
    """Refuse a run whose state left the finite floats, naming the first bad
    step (and run, for states stacked over runs)."""
    finite = np.isfinite(states).all(axis=-1)
    if not finite.all():
        *run, k = np.argwhere(~finite)[0]
        of_run = f" of run {run[0]}" if run else ""
        raise ConfigurationError(
            f"loop {name!r}: state is not finite from step k={k}{of_run}"
        )


def _event_loop(
    scn: Scenario, first_samples, policy, mode: str, alpha_index: int, run_index: int
) -> SimTrace:
    """Advance every plant one step at a time and sample each loop on its own
    clock.

    Loop ``j`` first samples at ``first_samples[j]``.  At a sample the
    decision rule ``policy(j, k, x) -> (wait, u, value, feasible_waits)``
    picks the input to hold and the wait until the loop's next sample.
    Loops sampling at the same ``k`` decide in increasing index order.
    Every sample at ``k > 0`` is logged as a transmission.

    The scenario and the drawn noise are finite when the run starts, so the
    plants step as ``A x + B u (+ E w)`` without checks, in the order of
    :func:`step_plant`; one finiteness check per loop follows the run.
    """
    T = scn.horizon
    specs = scn.loops
    plants, x, u, noise, states, inputs = [], [], [], [], [], []
    for j, spec in enumerate(specs):
        x0, w = _draw_initial_and_noise(
            spec, T, rng_substream(scn.seed, alpha_index, run_index, j)
        )
        sys = spec.system
        plants.append((sys.A, sys.B, sys.E))
        x.append(x0)
        u.append(np.zeros(spec.system.m))
        noise.append(w)
        states.append(np.empty((T + 1, spec.system.n)))
        inputs.append(np.empty((T, spec.system.m)))
        states[j][0] = x0
    next_sample = list(first_samples)
    samples, waits, values, feas_log = ([[] for _ in specs] for _ in range(4))
    tx_events = []

    for k in range(T + 1):
        if k > 0:
            for j, (A, B, E) in enumerate(plants):
                inputs[j][k - 1] = u[j]
                x[j] = A @ x[j] + B @ u[j]
                if noise[j] is not None:
                    x[j] = x[j] + E @ noise[j][k - 1]
                states[j][k] = x[j]
        if k == T:
            break
        for j, spec in enumerate(specs):
            if next_sample[j] != k:
                continue
            wait, u[j], value, feas = policy(j, k, x[j])
            next_sample[j] = k + wait
            samples[j].append(k)
            waits[j].append(wait)
            values[j].append(value)
            feas_log[j].append(feas)
            if k > 0:
                tx_events.append(TxEvent(k, spec.name, wait, tuple(sorted(feas))))

    loops = {}
    for j, spec in enumerate(specs):
        _check_finite(spec.name, states[j])
        states[j].setflags(write=False)
        inputs[j].setflags(write=False)
        loops[spec.name] = LoopTrace(
            name=spec.name,
            gamma=scn.gamma,
            states=states[j],
            inputs=inputs[j],
            sample_times=np.array(samples[j], dtype=int),
            waits=np.array(waits[j], dtype=int),
            values=np.array(values[j], dtype=float),
            feasible_sets=tuple(feas_log[j]),
        )
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

    def policy(j, k, x):
        nonlocal ledger
        name = names[j]
        feas = feasible_set(ledger, name, k)
        try:
            dec = decide(gts[j], x, feas)
        except SelfTrigError as exc:
            raise type(exc)(f"at step k={k}, loop {name!r}: {exc}") from exc
        ledger = reserve(ledger, name, k, dec.i_star)
        return dec.i_star, dec.u, dec.value, feas

    return _event_loop(scn, [0] * len(names), policy, scn.mode, alpha_index, run_index)


def run_periodic(
    scn: Scenario,
    ts: int | None = None,
    alpha_index: int = 0,
    run_index: int = 0,
) -> SimTrace:
    """Fixed-interval baseline: sample every ``ts`` steps, feedback from the
    periodic value matrix at period ``ts``.

    Loops are phase-offset by their index (0, 1, ..., s-1) so the one-slot
    rule survives whenever the loop count does not exceed ``ts``; inputs are
    zero before a loop's first sample.  Substream indices match those of
    :func:`run_self_triggered` so baselines share noise realizations.
    """
    ts = _integer(scn.ts if ts is None else ts, "ts")
    if not (1 <= ts <= scn.p):
        raise ConfigurationError(f"ts must lie in [1, p={scn.p}], got {ts}")
    s = len(scn.loops)
    if s > ts:
        raise ConfigurationError(
            f"{s} loops cannot share the channel at period ts={ts}; "
            f"phase offsets need s <= ts"
        )
    gains = [
        solve_periodic_riccati(spec.system, spec.weights, ts) for spec in scn.loops
    ]
    feas = frozenset({ts})

    def policy(j, k, x):
        P, L = gains[j]
        return ts, -(L @ x), float(x @ P @ x), feas

    return _event_loop(scn, range(s), policy, MODE_PERIODIC, alpha_index, run_index)


def _self_triggered_runs(scn: Scenario, tables: list, alpha_index: int, n_runs: int) -> list:
    """``n_runs`` runs of the self-triggered law, advanced together on one
    leading run axis.

    The law, the substreams and the decision order are those of
    :func:`run_self_triggered`, vectorized over runs: each run's
    reservations are a row of ``next_tx`` (booked once its loop decided),
    wait ``i`` is feasible for loop ``j`` at ``k`` when
    ``(i - (next_tx[q] - k)) % p != 0`` for every other booked loop ``q``,
    and the argmin of ``alpha/i + x' P(i) x`` runs over the reversed waits
    so that ties go to the larger wait.  Loops sampling at the same ``k``
    decide in increasing index order.  Returns, per loop, the states
    ``(R, T+1, n)``, the inputs ``(R, T, m)`` and the sampled steps
    ``(R, T)`` as a boolean mask; each run's rows are contiguous.
    """
    T, s, R, p = scn.horizon, len(scn.loops), n_runs, scn.p
    _check_admissible(s, scn.I0, p)
    waits = np.array(scn.I0)
    last = waits.size - 1
    next_tx = np.zeros((R, s), dtype=int)
    booked = np.zeros((R, s), dtype=bool)
    loops = []
    for j, (spec, gt) in enumerate(zip(scn.loops, tables)):
        sys = spec.system
        states = np.empty((R, T + 1, sys.n))
        noise = np.zeros((R, T, sys.w)) if spec.noise_variance > 0.0 else None
        for r in range(R):
            states[r, 0], w = _draw_initial_and_noise(
                spec, T, rng_substream(scn.seed, alpha_index, r, j)
            )
            if noise is not None:
                noise[r] = w
        loops.append(SimpleNamespace(
            states=states,
            inputs=np.empty((R, T, sys.m)),
            sampled=np.zeros((R, T), dtype=bool),
            x=states[:, 0].copy(),
            u=np.zeros((R, sys.m)),
            AT=sys.A.T,
            BT=sys.B.T,
            Ew=None if noise is None else noise @ sys.E.T,
            P=np.stack([gt.P(i) for i in scn.I0]),
            L=np.stack([gt.L(i) for i in scn.I0]),
            cost=gt.alpha / waits,
            due=0,
        ))

    for k in range(T + 1):
        if k > 0:
            for lp in loops:
                lp.inputs[:, k - 1] = lp.u
                # x A' + u B' (+ w E') has the products and sums of A x + B u (+ E w).
                x = lp.x @ lp.AT + lp.u @ lp.BT
                if lp.Ew is not None:
                    x = x + lp.Ew[:, k - 1]
                lp.states[:, k] = lp.x = x
        if k == T:
            break
        for j, lp in enumerate(loops):
            if lp.due != k:
                continue
            rows = (next_tx[:, j] == k).nonzero()[0]
            x = lp.x[rows]
            value = lp.cost + ((x @ lp.P) * x).sum(axis=-1).T
            if s > 1:  # a single loop has no opponents
                others = booked[rows]
                others[:, j] = False
                offset = next_tx[rows] - k
                taken = ((waits - offset[:, :, None]) % p == 0) & others[:, :, None]
                # Clamped, an overflowed value still beats an infeasible wait.
                value = np.where(taken.any(axis=1), np.inf, np.minimum(value, _FLOAT_MAX))
            pick = last - value[:, ::-1].argmin(axis=1)
            lp.u[rows] = -(lp.L[pick] @ x[:, :, None])[:, :, 0]
            next_tx[rows, j] = k + waits[pick]
            booked[rows, j] = True
            lp.sampled[rows, k] = True
            lp.due = next_tx[:, j].min()

    for spec, lp in zip(scn.loops, loops):
        _check_finite(spec.name, lp.states)
    return [(lp.states, lp.inputs, lp.sampled) for lp in loops]


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


@dataclass(frozen=True)
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


def _record_runs(stats: dict, ai: int, scn: Scenario, runs: list) -> None:
    """Store, at alpha index ``ai`` of ``stats``, each loop's mean and
    standard error of the sampling interval and the empiric cost over
    ``runs``.  A run maps each loop name to its ``(states, inputs,
    sample_times)``."""
    n_runs = len(runs)
    intervals = {spec.name: np.empty(n_runs) for spec in scn.loops}
    costs = {spec.name: np.empty(n_runs) for spec in scn.loops}
    for r, run in enumerate(runs):
        for spec in scn.loops:
            states, inputs, sample_times = run[spec.name]
            intervals[spec.name][r] = _mean_interval(sample_times, scn.gamma)
            costs[spec.name][r] = float(
                np.mean(_stage_costs(states, inputs, spec.weights.Q, spec.weights.R))
            )
    for key, per_loop in (("interval", intervals), ("cost", costs)):
        for name, v in per_loop.items():
            stats["mean_" + key][name][ai] = float(np.mean(v))
            stats["se_" + key][name][ai] = (
                float(np.std(v, ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0
            )


def sweep_alpha(scn: Scenario, alphas, n_runs: int, seed: int) -> SweepSummary:
    """Re-synthesize and re-run the scenario across a grid of sampling costs.

    For each alpha every loop's table is rebuilt with that alpha, then
    ``n_runs`` independent noisy runs execute together on substreams keyed
    by (alpha index, run index, loop index); results are reproducible from
    ``seed`` alone and equal those of :func:`run_self_triggered` run by run.
    """
    from .synthesis import build_gain_table

    alphas = [float(a) for a in alphas]
    if not np.all(np.isfinite(alphas)):
        raise ConfigurationError(f"alphas must be finite, got {alphas}")
    if any(a < 0 for a in alphas):
        raise ConfigurationError("alphas must be nonnegative")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ConfigurationError("alphas must be ascending")
    n_runs = _integer(n_runs, "n_runs")
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")

    scn = replace(scn, seed=seed)
    names = tuple(spec.name for spec in scn.loops)
    stats = _empty_stats(names)
    errors = {}

    for ai, alpha in enumerate(alphas):
        try:
            tables = [
                build_gain_table(
                    spec.system,
                    replace(spec.weights, alpha=alpha),
                    scn.I0,
                    scn.p,
                    loop_id=spec.name,
                )
                for spec in scn.loops
            ]
        except SelfTrigError as exc:
            errors[alpha] = str(exc)
            continue
        per_loop = _self_triggered_runs(scn, tables, ai, n_runs)
        runs = [
            {
                spec.name: (states[r], inputs[r], np.flatnonzero(sampled[r]))
                for spec, (states, inputs, sampled) in zip(scn.loops, per_loop)
            }
            for r in range(n_runs)
        ]
        _record_runs(stats, ai, scn, runs)

    return SweepSummary(
        alphas=tuple(alphas), loop_names=names, n_runs=n_runs, errors=errors, **stats
    )


def periodic_baseline(scn: Scenario, summary: SweepSummary, seed: int) -> SweepSummary:
    """Fixed-interval baseline matched to each alpha of an adaptive sweep.

    At every alpha the sweep has results for, the period ``ts`` is the mean
    sampling interval over loops, rounded and clamped to ``[s, p]``;
    ``summary.n_runs`` periodic runs then execute on the sweep's substreams.
    The returned ``mean_interval`` holds the matched ``float(ts)``.
    """
    scn = replace(scn, seed=seed)
    names = summary.loop_names
    stats = _empty_stats(names)
    s = len(scn.loops)
    for ai in range(len(summary.alphas)):
        if ai not in summary.mean_interval[names[0]]:
            continue
        interval = np.mean([summary.mean_interval[name][ai] for name in names])
        ts = int(min(max(round(interval), s), scn.p))
        runs = []
        for r in range(summary.n_runs):
            trace = run_periodic(scn, ts, alpha_index=ai, run_index=r)
            runs.append({name: (tr.states, tr.inputs, tr.sample_times)
                         for name, tr in trace.loops.items()})
        _record_runs(stats, ai, scn, runs)
        for name in names:
            stats["mean_interval"][name][ai] = float(ts)
    return replace(summary, **stats)


def write_trace_csv(trace: LoopTrace, path) -> None:
    """Per-step CSV: k, state, input, sampled flag, chosen wait, value."""
    n = trace.states.shape[1]
    m = trace.inputs.shape[1]
    by_k = {int(k): j for j, k in enumerate(trace.sample_times)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k"]
            + [f"x_{j + 1}" for j in range(n)]
            + [f"u_{j + 1}" for j in range(m)]
            + ["sampled", "i_chosen", "V"]
        )
        for k in range(trace.horizon):
            row = [k]
            row += [repr(float(v)) for v in trace.states[k]]
            row += [repr(float(v)) for v in trace.inputs[k]]
            if k in by_k:
                j = by_k[k]
                row += [1, int(trace.waits[j]), repr(float(trace.values[j]))]
            else:
                row += [0, "", ""]
            writer.writerow(row)


def write_txlog_csv(trace: SimTrace, path) -> None:
    """Channel log CSV: k, loop_id, i_chosen, feasible set (semicolon-joined)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "loop_id", "i_chosen", "feasible_set"])
        for ev in sorted(trace.tx_events, key=lambda e: (e.k, e.loop_id)):
            writer.writerow(
                [ev.k, ev.loop_id, ev.i_chosen, ";".join(str(i) for i in ev.feasible)]
            )


def write_sweep_csv(summary: SweepSummary, loop_name: str, path) -> None:
    """Sweep summary CSV for one loop: alpha, mean_interval, mean_cost, se_cost, n_runs."""
    if loop_name not in summary.loop_names:
        raise ConfigurationError(f"no sweep results for loop {loop_name!r}")
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
