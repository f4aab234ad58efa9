"""Closed-loop simulation of the joint control-and-scheduling law and its
periodic baseline.

One event loop advances the plants from one decision to the next, for the
rows of a leading row axis: one row is one (alpha index, run index) pair,
so a single run and every run of a sweep share one event loop.  Whenever a
loop's next sample comes up in a row, its state is "transmitted" and a
decision policy picks the input to hold and the wait until the next
sample.  A held input makes the steps up to the largest wait one lifted
linear map, so a decision costs one product, not one plant update per
step.  A policy gets the states ``x`` ``(R', n)`` of the deciding rows and
returns their waits and inputs ``u`` ``(R', m)``; with one row (a single
run, or a sweep of one alpha and one run) the loop takes a one-row body,
and the policy gets ``x`` ``(n,)`` and returns one scalar wait and ``u``
``(m,)``.  There are three policies: the self-triggered law through the
reservation ledger for one run (table argmin over the waits the ledger
allows, then a reservation), and two row-form policies that serve the
sweeps: the self-triggered law over every row of every alpha (the
scheduler's residue mask and the controller's argmin, each row scored with
its alpha's sampling costs) and fixed-interval sampling with each row's
periodic Riccati gain, which also serves a single periodic run.  Initial
states are assumed known to the controller at k = 0 without consuming
channel slots, so coordinated start-up needs no transmissions.  One
stacked pass takes each loop's per-run statistics, for a single run as
for every run of a sweep, and one helper raises every "is not finite"
refusal of a step.

Randomness is fully reproducible: every (alpha index, run index, loop
index) triple keys its own Philox counter-based substream, so sweep
aggregation is order-independent.  The keys are numpy's ``SeedSequence``
keys: ``SeedSequence`` hashes the seed and keys a call with an index of
2**32 or more itself; otherwise the three one-word indices of every
substream of a draw mix in at once.  One re-keyed generator draws them.
``numpy.random`` is imported on the first draw, not with this module, so
commands and runs that draw nothing do not pay for it.  Each substream is drawn
once, into read-only per-loop arrays of initial states and disturbances
that the event loop takes from its caller: a sweep goes chunk by chunk of
whole alphas, and runs the self-triggered rows of a chunk, derives each
alpha's matched period from their statistics, then runs the periodic rows
of the chunk on the same draws.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .controller import _pick, _scores, decide
from .errors import ConfigurationError, SelfTrigError, SynthesisError
from .model import LtiSystem, WeightSpec, _count, _integer, _lift, _nonnegative
from .scenario import MODE_PERIODIC, MODE_SELF_TRIGGERED, Scenario, _check_addressable
from .scheduler import ReservationLedger, _RunLedger, feasible_set, reserve
from .synthesis import build_gain_table, solve_periodic_riccati

# numpy's SeedSequence hash, for its pool of 4 uint32 words.  Its hashmix
# call c xors INIT_A * MULT_A**c into a word and multiplies by the next
# power; the state words take the powers of MULT_B the same way.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SHIFT = 16
_MASK32 = 0xFFFFFFFF
_KEY_WORDS = 3  # a spawn key's entries: alpha, run and loop index


def _powers(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """``init * mult**c`` mod 2**32 for ``c`` in ``[first, first + count)``."""
    return np.uint32(init) * np.uint32(mult) ** np.arange(first, first + count, dtype=np.uint32)


# The hashmix calls that mix key word t into pool lane d, (words, lanes):
# they follow the seed's 16 (4 fill the pool, 12 mix it lane into lane).
_WORD_HASH = _powers(_INIT_A, _MULT_A, _POOL * _POOL, _POOL * _KEY_WORDS + 1)
_WORD_XOR = _WORD_HASH[:-1].reshape(_KEY_WORDS, _POOL)
_WORD_MUL = _WORD_HASH[1:].reshape(_KEY_WORDS, _POOL)
_STATE_HASH = _powers(_INIT_B, _MULT_B, 0, _POOL + 1)


def _substream_keys(seed: int, spawn_keys) -> list:
    """The Philox key of each spawn key (three non-negative ints) in
    ``spawn_keys``: what ``SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=key).generate_state(2, np.uint64)`` returns, as two ints.

    numpy's ``SeedSequence`` hashes the seed into the pool every key
    starts from.  A call with an entry of 2**32 or more, which takes more
    than one word, is keyed by ``SeedSequence`` itself.  Otherwise the
    three one-word entries mix into the 4 pool lanes of all keys at once,
    in uint32 arithmetic, which wraps as numpy's does.
    """
    if not spawn_keys:
        return []
    seed &= 0xFFFFFFFFFFFFFFFF
    try:
        entries = np.fromiter(chain.from_iterable(spawn_keys), dtype=np.int64)
    except OverflowError:
        entries = None
    if entries is None or entries.max() > _MASK32:
        return [np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64).tolist()
                for key in spawn_keys]
    words = entries.astype(np.uint32).reshape(len(spawn_keys), _KEY_WORDS)
    # Each word hashed once per lane, (keys, words, lanes), then mixed in turn.
    h = (words[:, :, None] ^ _WORD_XOR) * _WORD_MUL
    h ^= h >> _SHIFT
    h *= _MIX_R
    pool = np.random.SeedSequence(seed).pool
    for t in range(_KEY_WORDS):
        pool = pool * _MIX_L - h[:, t]
        pool ^= pool >> _SHIFT
    pool ^= _STATE_HASH[:-1]
    pool *= _STATE_HASH[1:]
    pool ^= pool >> _SHIFT
    # Numpy reads each uint64 word of the key from two little-endian words.
    return pool.astype("<u4", copy=False).view("<u8").tolist()


def _substream_index(value, what: str) -> int:
    """A substream index: an integer (see :func:`_integer`) of at least 0."""
    value = _integer(value, what)
    if value < 0:
        raise ConfigurationError(f"{what} must be >= 0, got {value}")
    return value


def _run_keys(alpha_index, run_index) -> list:
    """The one row ``[(alpha_index, run_index)]`` of a single run."""
    return [(_substream_index(alpha_index, "alpha_index"),
             _substream_index(run_index, "run_index"))]


def rng_substream(
    seed: int, alpha_index: int = 0, run_index: int = 0, loop_index: int = 0
) -> np.random.Generator:
    """Philox generator for one (alpha, run, loop) triple.

    Splitting rule: SeedSequence(entropy=seed & (2**64 - 1),
    spawn_key=(alpha_index, run_index, loop_index)) keys a Philox 4x64
    counter-based bit generator; normal draws use numpy's standard_normal.
    Per run and loop, the initial state (when random) is drawn first,
    then the whole disturbance sequence.  :func:`_substream_keys` gives
    the key: numpy's ``SeedSequence`` hashes the seed and keys an index of
    2**32 or more; else the three one-word indices mix in at once.  With
    no SeedSequence of its own, the generator cannot ``spawn``.

    ``seed`` is an integer and each index a non-negative integer (an
    ``int`` or ``numpy.integer``, not a bool or float); anything else is a
    ConfigurationError naming the argument.
    """
    seed = _integer(seed, "seed")
    spawn_key = tuple(_substream_index(value, what) for value, what in (
        (alpha_index, "alpha_index"), (run_index, "run_index"), (loop_index, "loop_index")))
    key, = _substream_keys(seed, [spawn_key])
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


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
    states: np.ndarray
    inputs: np.ndarray
    sample_times: np.ndarray
    waits: np.ndarray
    values: np.ndarray
    feasible_sets: tuple

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


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


def _build_tables(scn: Scenario, alpha: float | None = None) -> list:
    """Every loop's gain table, in loop order, at the loop's own alpha or,
    for a sweep, at ``alpha``; the inverse of :func:`_check_tables`.  A
    synthesis error names its loop."""
    tables = []
    for spec in scn.loops:
        weights = spec.weights
        if alpha is not None:
            # The loop's Q and R were checked when it was built, and a
            # sweep's alpha when the sweep began (GainTable checks it again),
            # so the copy skips WeightSpec's checks.
            weights = object.__new__(WeightSpec)
            weights.__dict__.update(spec.weights.__dict__, alpha=alpha)
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


def _refuse_nonfinite(name: str, what: str, finite: np.ndarray, keys=None) -> None:
    """Refuse loop ``name`` when ``finite`` ``(R, T)`` is False anywhere: the one
    "is not finite" refusal.  It names the first step of the first such row
    and, given ``keys`` (one ``(alpha_index, run_index)`` per row), its run
    and alpha index."""
    if not finite.all():
        row, k = np.argwhere(~finite)[0]
        of_row = "" if keys is None else " of run {1}, alpha index {0}".format(*keys[row])
        raise ConfigurationError(f"loop {name!r}: {what} is not finite from step k={k}{of_row}")


def _check_finite(name: str, states: np.ndarray, keys) -> None:
    """Refuse rows whose state left the finite floats, naming the first bad
    step (and its run and alpha index, when several rows were advanced
    together)."""
    _refuse_nonfinite(name, "state", np.isfinite(states).all(axis=-1),
                      keys if len(keys) > 1 else None)


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


def _draws(scn: Scenario, keys) -> list:
    """Each loop's random inputs for the rows ``keys``, read-only: the
    initial states ``x0`` ``(R, n)`` and the disturbances ``Ew``
    ``(R, T+G, n)``, zero past the horizon, or None for a noiseless loop.

    Row ``r`` is the run keyed ``keys[r] = (alpha_index, run_index)`` and
    draws from the substream ``(alpha_index, run_index, j)`` of each loop
    ``j``, in the order :func:`rng_substream` states.  A loop with a fixed
    ``x0`` and no noise draws nothing and keys no substream; when no loop
    draws, no generator is built.  One pass of :func:`_substream_keys` keys
    every substream of the call; one Philox generator is then re-keyed per
    (row, loop), with its counter and buffer reset, and draws that row's
    x0 and disturbances in one call into a per-loop block, which is scaled
    per loop.  With one disturbance
    (``w == 1``) the map through ``E`` is one product per state column,
    bit for bit what ``noise @ E.T`` gives; otherwise it is that matmul.
    """
    T, R, G = scn.horizon, len(keys), scn.gamma
    drawing = [j for j, spec in enumerate(scn.loops)
               if spec.x0 is None or spec.noise_variance > 0.0]
    if drawing:
        substreams = iter(_substream_keys(scn.seed, [(alpha_index, run_index, j)
                                                     for j in drawing
                                                     for alpha_index, run_index in keys]))
        bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        rng = np.random.Generator(bitgen)
        # A new generator's state: counter 0 and an empty buffer.  Setting
        # it with a substream's key starts that substream afresh.
        state = bitgen.state
    draws = []
    for spec in scn.loops:
        sys = spec.system
        noisy = spec.noise_variance > 0.0
        x0 = np.empty((R, sys.n))
        if spec.x0 is not None:
            x0[:] = spec.x0
        n0 = sys.n if spec.x0 is None else 0
        if n0 or noisy:
            block = np.empty((R, n0 + (T * sys.w if noisy else 0)))
            for row in block:
                state["state"]["key"] = next(substreams)
                bitgen.state = state
                rng.standard_normal(out=row)
            if n0:
                x0[:] = block[:, :n0] * np.sqrt(spec.x0_variance)
        x0.setflags(write=False)
        Ew = None
        if noisy:
            noise = block[:, n0:].reshape(R, T, sys.w) * np.sqrt(spec.noise_variance)
            Ew = np.zeros((R, T + G, sys.n))
            if sys.w == 1:
                # What noise @ E.T computes with one disturbance, 0.0 + e*w
                # (so -0.0 reads 0.0), one state column at a time, in place.
                mapped = Ew[:, :T]
                for c, e in enumerate(sys.E[:, 0].tolist()):
                    np.multiply(noise[:, :, 0], e, out=mapped[:, :, c])
                mapped += 0.0
            else:
                Ew[:, :T] = noise @ sys.E.T
            Ew.setflags(write=False)
        draws.append((x0, Ew))
    return draws


def _event_loop(scn: Scenario, first_samples, policy, keys, draws) -> list:
    """Advance every plant from one sample to the next in each row, and
    sample each loop of each row on its own clock.

    Row ``r`` is the run keyed ``keys[r] = (alpha_index, run_index)``,
    whose initial states and disturbances ``draws`` holds, as
    :func:`_draws` returns them; the caller draws, so two laws can run on
    one draw.  Rows share a leading axis and never interact.  Loop ``j``
    first samples at ``first_samples[j]``.  At ``k`` the decision rule
    ``policy(j, k, rows, x) -> (waits, u)`` gets the states ``x`` ``(R', n)``
    of the rows ``rows`` whose loop ``j`` samples then, and picks the inputs
    ``u`` ``(R', m)`` to hold and the waits until their next samples.  With
    one row (``R == 1``) the rule gets ``rows = 0`` and the state ``x``
    ``(n,)``, and returns one scalar wait and ``u`` ``(m,)``.
    Loops sampling at the same ``k`` decide in increasing index order.

    The loop jumps from one decision time to the next.  Each decision
    writes the next ``gamma`` states of its rows with one product by the
    loop's :func:`_segment_map`, and their next decision, at most
    ``gamma`` steps on, overwrites whatever lies beyond it; a zero-input
    segment at ``k = 0`` covers the steps before a loop's first sample.
    The operand of a product is the rows' states, their inputs and, for a
    noisy loop, their next ``gamma`` disturbances, read from one read-only
    strided view of ``Ew`` built once per loop.  One row takes its own
    body (:func:`_one_row`), which keeps each decision and writes the
    inputs and waits once, after the run.
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
    maps, states, inputs, waits, windows = [], [], [], [], []
    for spec, (x0, Ew) in zip(scn.loops, draws):
        sys = spec.system
        # Padded by G: the segment of a decision may reach past the horizon.
        states.append(np.empty((R, T + 1 + G, sys.n)))
        states[-1][:, 0] = x0
        maps.append(_segment_map(sys, G, Ew is not None))
        inputs.append(np.zeros((R, T + G, sys.m)))
        waits.append(np.zeros((R, T), dtype=int))
        if Ew is not None:
            # Row r, step k: Ew(k), ..., Ew(k+G-1) of row r, one read-only
            # view; its strides hold for the C layout only.
            Ew = np.ascontiguousarray(Ew)
            Ew = np.lib.stride_tricks.as_strided(Ew, (R, T, G * sys.n), Ew.strides,
                                                 writeable=False)
        windows.append(Ew)

    def failed(j, k, exc):
        """Raise the policy error ``exc`` of loop ``j`` at ``k`` again, with
        its step and loop, after the finiteness check of every state so far."""
        # A state that left the floats fails the policy first; the first
        # non-finite step so far is the cause to report.
        for spec, loop_states in zip(scn.loops, states):
            _check_finite(spec.name, loop_states[:, :k + 1], keys)
        raise type(exc)(f"at step k={k}, loop {scn.loops[j].name!r}: {exc}") from exc

    # Overflow is part of the pick rule and of the finiteness checks.
    with np.errstate(over="ignore", invalid="ignore"):
        if R == 1:
            _one_row(T, G, first_samples, policy, failed, maps, states, inputs, waits, windows)
        else:
            _rows(T, G, first_samples, policy, failed, maps, states, inputs, waits, windows)

    kept = [(x[:, :T + 1], u[:, :T], w) for x, u, w in zip(states, inputs, waits)]
    for spec, (loop_states, _, _) in zip(scn.loops, kept):
        _check_finite(spec.name, loop_states, keys)
    return kept


def _rows(T, G, first_samples, policy, failed, maps, states, inputs, waits, windows) -> None:
    """The body of :func:`_event_loop` for ``R > 1`` rows, on its arrays."""
    R = states[0].shape[0]

    def advance(j, rows, k, x, u):
        """Hold the inputs ``u`` from ``k`` on in ``rows``, whose states at
        ``k`` are ``x``, for the next G steps."""
        Ew = windows[j]
        z = (x, u) if Ew is None else (x, u, Ew[rows, k])
        # einsum rounds each row alike whatever the row count, so a row's
        # states do not depend on how many rows advance with it.  It also
        # raises no floating-point warnings: the discarded tail of an
        # unstable plant may overflow silently.
        segment = np.einsum("ri,ij->rj", np.concatenate(z, axis=1), maps[j])
        states[j][rows, k + 1:k + 1 + G] = segment.reshape(len(x), G, -1)

    for j in range(len(maps)):
        advance(j, slice(None), 0, states[j][:, 0], inputs[j][:, 0])
    next_sample = [np.full(R, k0) for k0 in first_samples]
    due = list(first_samples)
    k = min(due)
    while k < T:
        for j in range(len(maps)):
            if due[j] != k:
                continue
            # When every row decides, basic slicing stands in for the index
            # array.
            rows = slice(None)
            deciding = (next_sample[j] == k).nonzero()[0]
            if deciding.size < R:
                rows = deciding
            x = states[j][rows, k]
            try:
                wait, u = policy(j, k, rows, x)
            except SelfTrigError as exc:
                failed(j, k, exc)
            inputs[j][rows, k:k + G] = u[:, None]
            advance(j, rows, k, x, u)
            waits[j][rows, k] = wait
            next_sample[j][rows] = k + wait
            due[j] = next_sample[j].min()
        k = min(due)


def _one_row(T, G, first_samples, policy, failed, maps, states, inputs, waits, windows) -> None:
    """The body of :func:`_event_loop` for one row, on its arrays: each
    loop's states ``(T+1+G, n)`` with a scalar clock, one ``einsum`` per
    decision, and each decision's ``(k, wait, u)`` kept in a list; the
    inputs and waits are written once, after the run."""
    xs = [loop_states[0] for loop_states in states]
    noise = [None if Ew is None else Ew[0] for Ew in windows]
    made = [[] for _ in maps]

    def advance(j, k, x, u):
        """Hold the input ``u`` from ``k`` on, from the state ``x`` at ``k``,
        for the next G steps."""
        Ew = noise[j]
        z = (x, u) if Ew is None else (x, u, Ew[k])
        # The one-row form of the rows' product; it too raises no
        # floating-point warnings.
        xs[j][k + 1:k + 1 + G] = np.einsum("i,ij->j", np.concatenate(z),
                                           maps[j]).reshape(G, -1)

    for j in range(len(maps)):
        advance(j, 0, xs[j][0], inputs[j][0, 0])
    due = list(first_samples)
    k = min(due)
    while k < T:
        for j in range(len(maps)):
            if due[j] != k:
                continue
            x = xs[j][k]
            try:
                wait, u = policy(j, k, 0, x)
            except SelfTrigError as exc:
                failed(j, k, exc)
            advance(j, k, x, u)
            made[j].append((k, wait, u))
            due[j] = k + wait
        k = min(due)
    for j, decisions in enumerate(made):
        if decisions:
            ks, chosen, us = zip(*decisions)
            waits[j][0, list(ks)] = chosen
            # Each input holds from its decision to the next, the last to T.
            inputs[j][0, ks[0]:T] = np.repeat(us, np.diff([*ks, T]), axis=0)


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
    # Each distinct feasible set is sorted once.
    ordered = {feas: tuple(sorted(feas)) for feas in set(sets)}
    names = list(loops)
    tx_events = []
    for ev_k, ev_j, ev_i, e in zip(k[order].tolist(), j[order].tolist(),
                                   chosen[order].tolist(), order):
        # Every field is known good, so the frozen dataclass's per-field
        # __setattr__ is skipped.
        ev = object.__new__(TxEvent)
        ev.__dict__.update(k=ev_k, loop_id=names[ev_j], i_chosen=ev_i,
                           feasible=ordered[sets[e]])
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
    its reserved slots, which are logged as transmissions.  The run draws
    from the substreams ``(alpha_index, run_index, j)``; each index follows
    the rule of :func:`rng_substream`.
    """
    keys = _run_keys(alpha_index, run_index)
    gts = _check_tables(scn, tables)
    names = tuple(spec.name for spec in scn.loops)
    ledger = ReservationLedger(p=scn.p, I0=scn.I0, loop_order=names, next_tx={})
    values, feasible = ([[] for _ in names] for _ in range(2))

    def policy(j, k, rows, x):
        nonlocal ledger
        name = names[j]
        feas = feasible_set(ledger, name, k)
        dec = decide(gts[j], x, feas)
        ledger = reserve(ledger, name, k, dec.i_star)
        values[j].append(dec.value)
        feasible[j].append(feas)
        return dec.i_star, dec.u

    run = _event_loop(scn, [0] * len(names), policy, keys, _draws(scn, keys))
    return _sim_trace(scn, MODE_SELF_TRIGGERED, run, values, feasible)


def _periodic_runs(scn: Scenario, keys, periods, draws) -> tuple:
    """The fixed-interval baseline on every row of ``keys``, row ``r`` at
    period ``periods[r]``, on the :func:`_draws` ``draws``: what
    :func:`_event_loop` returns, and per loop each row's periodic
    ``(P, L)``, from a Riccati solve of its own."""
    gains = [[solve_periodic_riccati(spec.system, spec.weights, ts) for ts in periods]
             for spec in scn.loops]
    L = [np.array([gain for _, gain in loop]) for loop in gains]
    waits = np.array(periods)

    def policy(j, k, rows, x):
        return waits[rows], -(L[j][rows] @ x[..., None])[..., 0]

    return _event_loop(scn, range(len(scn.loops)), policy, keys, draws), gains


def run_periodic(scn: Scenario, alpha_index: int = 0, run_index: int = 0) -> SimTrace:
    """Fixed-interval baseline: sample every ``scn.ts`` steps, feedback from
    the periodic value matrix at that period.

    Loops are phase-offset by their index (0, 1, ..., s-1), so each keeps
    its own slot (the Scenario holds ``s <= ts <= p``); inputs are zero
    before a loop's first sample.  Substream indices match those of
    :func:`run_self_triggered` so baselines share noise realizations.
    """
    keys = _run_keys(alpha_index, run_index)
    if scn.ts is None:
        raise ConfigurationError("the periodic baseline needs a scenario with ts")
    run, gains = _periodic_runs(scn, keys, [scn.ts], _draws(scn, keys))
    with np.errstate(over="ignore", invalid="ignore"):  # a value may overflow, as decide's may
        values = [[float(x @ P @ x) for x in states[0, np.flatnonzero(waits[0])]]
                  for ((P, _),), (states, _, waits) in zip(gains, run)]
    feasible = [[frozenset({scn.ts})] * len(v) for v in values]
    return _sim_trace(scn, MODE_PERIODIC, run, values, feasible)


def _self_triggered_runs(scn: Scenario, tables: dict, keys, draws) -> list:
    """The self-triggered law on every row of ``keys``, advanced together
    by :func:`_event_loop` on the :func:`_draws` ``draws``; ``tables`` maps
    each alpha index of ``keys`` to its tables in loop order.

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
        return wait, -(stacks[j].L_stack[pick] @ x[..., None])[..., 0]

    return _event_loop(scn, [0] * len(scn.loops), policy, keys, draws)


def _row_statistics(states, inputs, waits, Q, R, gamma: int) -> tuple:
    """One loop's statistics on the rows of an :func:`_event_loop` result, in
    one stacked pass: the stage costs ``x'Qx + u'Ru`` ``(R, T)``, which may
    overflow silently, and each row's mean sampling interval and empiric
    cost (its mean stage cost), ``(R,)`` each.  A mean interval is the span
    from the first to the last sample over the gaps between them, or
    ``gamma``, the largest wait, with fewer than two samples."""
    sampled = waits != 0
    gaps = np.count_nonzero(sampled, axis=1) - 1
    span = (waits.shape[1] - 1 - sampled[:, ::-1].argmax(axis=1)) - sampled.argmax(axis=1)
    intervals = np.where(gaps > 0, span / np.maximum(gaps, 1), float(gamma))
    with np.errstate(over="ignore", invalid="ignore"):
        if waits.shape[1] > 1:
            stage = _stage_costs(states, inputs, Q, R)
        else:  # einsum sums a lone step in another order than a run of steps
            stage = np.array([_stage_costs(x, u, Q, R) for x, u in zip(states, inputs)])
        return stage, intervals, stage.mean(axis=1)


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


# Rows times steps that one event loop of a sweep advances, unless one
# alpha's runs alone take more.
_ROW_STEPS = 2**20


def _matched_period(scn: Scenario, intervals: dict, ai: int) -> int:
    """The baseline's period at alpha index ``ai``: the mean over loops of
    the mean sampling intervals ``intervals[name][ai]``, rounded and
    clamped to ``[s, p]``."""
    interval = np.mean([intervals[spec.name][ai] for spec in scn.loops])
    return int(min(max(round(interval), len(scn.loops)), scn.p))


def _record_chunk(stats: dict, scn: Scenario, chunk: list, n_runs: int, per_loop: list) -> None:
    """Store, at each alpha index of ``chunk``, each loop's mean and
    standard error over that alpha's own ``n_runs`` rows of ``per_loop``,
    what :func:`_event_loop` returns, of the sampling interval and the
    empiric cost.  One :func:`_row_statistics` pass per loop covers every
    row of the chunk; the means and standard errors of every alpha are
    then taken along a run axis.  Finite states near the float limit can
    square to an infinite cost, so a statistic that is not finite raises
    ConfigurationError for the first alpha of the chunk, then loop, that
    has one, naming the first step and run of that alpha whose stage cost
    is not finite."""
    stages, moments = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for spec, (states, inputs, waits) in zip(scn.loops, per_loop):
            stage, intervals, costs = _row_statistics(states, inputs, waits, spec.weights.Q,
                                                      spec.weights.R, scn.gamma)
            stages.append(stage)
            for v in (intervals, costs):
                v = v.reshape(len(chunk), n_runs)
                se = (np.std(v, axis=1, ddof=1) / np.sqrt(n_runs) if n_runs > 1
                      else np.zeros(len(chunk)))
                moments.append((np.mean(v, axis=1), se))
    # [loop, interval or cost, mean or standard error, alpha]
    moments = np.array(moments).reshape(len(scn.loops), 2, 2, len(chunk))
    finite = np.isfinite(moments).all(axis=(1, 2))
    if not finite.all():
        i, j = np.argwhere(~finite.T)[0]
        ai, name, rows = chunk[i], scn.loops[j].name, slice(i * n_runs, (i + 1) * n_runs)
        _refuse_nonfinite(name, "stage cost", np.isfinite(stages[j][rows]),
                          [(ai, run) for run in range(n_runs)])
        raise ConfigurationError(f"loop {name!r}: the stage-cost statistics overflow "
                                 f"at alpha index {ai}")
    for spec, loop_moments in zip(scn.loops, moments.tolist()):
        for key, (mean, se) in zip(("interval", "cost"), loop_moments):
            stats["mean_" + key][spec.name].update(zip(chunk, mean))
            stats["se_" + key][spec.name].update(zip(chunk, se))


def _sweep_rows(scn: Scenario, tables: dict, n_runs: int, adaptive: dict,
                periodic: dict) -> None:
    """Run the ``n_runs`` rows of each alpha index of ``tables`` under both
    laws, and record each alpha's statistics on its own rows.

    The self-triggered rows of alpha index ``ai`` run with ``tables[ai]``
    and are recorded in ``adaptive``.  The fixed-interval rows of ``ai``
    then run at :func:`_matched_period` of ``adaptive``'s mean sampling
    intervals, which depend on ``ai``'s adaptive rows alone, and are
    recorded in ``periodic``, whose ``mean_interval`` then holds each
    period.

    The rows go in chunks of whole alphas, at least one alpha and
    otherwise at most :data:`_ROW_STEPS` row-steps each, in alpha-major
    order.  Each chunk's rows are drawn once, by :func:`_draws`, and both
    laws run on those draws; rows never interact, so the chunking changes
    no bit.
    """
    alpha_indices = list(tables)
    size = max(1, _ROW_STEPS // (n_runs * scn.horizon))
    for c in range(0, len(alpha_indices), size):
        chunk = alpha_indices[c:c + size]
        keys = [(ai, r) for ai in chunk for r in range(n_runs)]
        draws = _draws(scn, keys)
        _record_chunk(adaptive, scn, chunk, n_runs,
                      _self_triggered_runs(scn, tables, keys, draws))
        periods = {ai: _matched_period(scn, adaptive["mean_interval"], ai) for ai in chunk}
        per_loop, _ = _periodic_runs(scn, keys, [periods[ai] for ai, _ in keys], draws)
        _record_chunk(periodic, scn, chunk, n_runs, per_loop)
        for ai, ts in periods.items():
            for spec in scn.loops:
                periodic["mean_interval"][spec.name][ai] = float(ts)


def sweep(scn: Scenario, alphas, n_runs: int) -> tuple[SweepSummary, SweepSummary]:
    """Re-synthesize and re-run the scenario across a grid of sampling
    costs, under the self-triggered law and under fixed-interval sampling
    matched to it; returns the pair ``(adaptive, periodic)`` of summaries.

    For each alpha every loop's table is rebuilt with that alpha; an alpha
    whose synthesis fails is recorded in ``errors`` and skipped.  The
    ``n_runs`` independent noisy runs of every alpha then execute together,
    on substreams keyed by (alpha index, run index, loop index), and equal
    those of :func:`run_self_triggered` run by run.  At each alpha the
    periodic runs use the same substreams with the period ``ts``: the mean
    sampling interval over loops, rounded and clamped to ``[s, p]``; the
    periodic summary's ``mean_interval`` holds ``float(ts)``.  Results are
    reproducible from ``scn.seed`` alone.
    """
    alphas = [_nonnegative(a, "sweep alpha") for a in alphas]
    if not alphas:
        raise ConfigurationError("a sweep needs at least one alpha")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ConfigurationError("alphas must be ascending")
    n_runs = _count(n_runs, "n_runs")
    _check_addressable(scn, n_runs)

    names = tuple(spec.name for spec in scn.loops)
    adaptive, periodic = _empty_stats(names), _empty_stats(names)
    errors, tables = {}, {}
    for ai, alpha in enumerate(alphas):
        try:
            tables[ai] = _build_tables(scn, alpha)
        except SelfTrigError as exc:
            errors[alpha] = str(exc)
    _sweep_rows(scn, tables, n_runs, adaptive, periodic)

    summary = SweepSummary(
        alphas=tuple(alphas), loop_names=names, n_runs=n_runs, errors=errors, **adaptive
    )
    return summary, replace(summary, **periodic)


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
    :func:`write_trace_csv`; each loop id is quoted once, when it needs it,
    and each distinct feasible set is joined once.
    """
    ids = {ev.loop_id for ev in trace.tx_events}
    field = {loop_id: _csv_field(str(loop_id)) for loop_id in ids}
    sets = {ev.feasible for ev in trace.tx_events}
    joined = {waits: ";".join(map(str, waits)) for waits in sets}
    lines = ["k,loop_id,i_chosen,feasible_set"]
    lines += [f"{ev.k},{field[ev.loop_id]},{ev.i_chosen},{joined[ev.feasible]}"
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
