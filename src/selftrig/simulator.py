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

import numpy as np

from .controller import decide
from .errors import ConfigurationError, SelfTrigError
from .model import LtiSystem, WeightSpec, _integer, _wait_set, as_vector
from .scheduler import ReservationLedger, feasible_set, reserve
from .synthesis import solve_periodic_riccati

MODE_SELF_TRIGGERED = "self_triggered"
MODE_PERIODIC = "periodic"


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
            if self.x0_variance < 0:
                raise ConfigurationError(
                    f"loop {self.name!r}: x0_variance must be nonnegative"
                )
        if self.noise_variance < 0:
            raise ConfigurationError(
                f"loop {self.name!r}: noise_variance must be nonnegative"
            )
        if self.weights.Q.shape[0] != self.system.n:
            raise ConfigurationError(f"loop {self.name!r}: Q does not match state dim")
        if self.weights.R.shape[0] != self.system.m:
            raise ConfigurationError(f"loop {self.name!r}: R does not match input dim")


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
        x = self.states[: self.horizon]
        u = self.inputs
        return np.einsum("ki,ij,kj->k", x, Q, x) + np.einsum("ki,ij,kj->k", u, R, u)


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
    """
    T = scn.horizon
    specs = scn.loops
    x, u, noise, states, inputs = [], [], [], [], []
    for j, spec in enumerate(specs):
        x0, w = _draw_initial_and_noise(
            spec, T, rng_substream(scn.seed, alpha_index, run_index, j)
        )
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
            for j, spec in enumerate(specs):
                w = None if noise[j] is None else noise[j][k - 1]
                inputs[j][k - 1] = u[j]
                x[j] = step_plant(spec.system, x[j], u[j], w)
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


def empiric_cost(trace: LoopTrace, Q, R) -> float:
    """Time-averaged quadratic stage cost (1/T) sum x'Qx + u'Ru."""
    return float(np.mean(trace.stage_costs(Q, R)))


def average_sampling_interval(trace: LoopTrace) -> float:
    """Mean gap between consecutive sampling instants.

    Undefined with fewer than two samples; reported as gamma (the
    guaranteed maximum wait) in that case.
    """
    if trace.sample_times.size < 2:
        return float(trace.gamma)
    return float(np.mean(np.diff(trace.sample_times)))


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


def _record_runs(stats: dict, ai: int, loops, n_runs: int, run) -> None:
    """Run ``run(r)`` for r < n_runs and store, at alpha index ``ai`` of
    ``stats``, each loop's mean and standard error of the sampling interval
    and the empiric cost."""
    intervals = {spec.name: np.empty(n_runs) for spec in loops}
    costs = {spec.name: np.empty(n_runs) for spec in loops}
    for r in range(n_runs):
        trace = run(r)
        for spec in loops:
            tr = trace.loops[spec.name]
            intervals[spec.name][r] = average_sampling_interval(tr)
            costs[spec.name][r] = empiric_cost(tr, spec.weights.Q, spec.weights.R)
    for key, per_loop in (("interval", intervals), ("cost", costs)):
        for name, v in per_loop.items():
            stats["mean_" + key][name][ai] = float(np.mean(v))
            stats["se_" + key][name][ai] = (
                float(np.std(v, ddof=1) / np.sqrt(n_runs)) if n_runs > 1 else 0.0
            )


def sweep_alpha(scn: Scenario, alphas, n_runs: int, seed: int) -> SweepSummary:
    """Re-synthesize and re-run the scenario across a grid of sampling costs.

    For each alpha every loop's table is rebuilt with that alpha, then
    ``n_runs`` independent noisy runs execute on substreams keyed by
    (alpha index, run index, loop index); results are reproducible from
    ``seed`` alone and independent of execution order.
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

    names = tuple(spec.name for spec in scn.loops)
    stats = _empty_stats(names)
    errors = {}

    for ai, alpha in enumerate(alphas):
        try:
            tables = {
                spec.name: build_gain_table(
                    spec.system,
                    replace(spec.weights, alpha=alpha),
                    scn.I0,
                    scn.p,
                    loop_id=spec.name,
                )
                for spec in scn.loops
            }
        except SelfTrigError as exc:
            errors[alpha] = str(exc)
            continue
        swept = replace(
            scn,
            loops=tuple(
                replace(spec, weights=replace(spec.weights, alpha=alpha))
                for spec in scn.loops
            ),
            seed=seed,
        )
        _record_runs(
            stats, ai, swept.loops, n_runs,
            lambda r: run_self_triggered(swept, tables, alpha_index=ai, run_index=r),
        )

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
        _record_runs(
            stats, ai, scn.loops, summary.n_runs,
            lambda r: run_periodic(scn, ts, alpha_index=ai, run_index=r),
        )
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
