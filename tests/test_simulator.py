"""Closed-loop runs: event sequencing, baselines, costs, determinism, sweeps."""
import re
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from selftrig import (
    CertificateError,
    ConfigurationError,
    SchedulingError,
    SynthesisError,
    LoopSpec,
    LoopTrace,
    LtiSystem,
    ReservationLedger,
    Scenario,
    WeightSpec,
    build_gain_table,
    decide,
    feasible_set,
    lift_range,
    reserve,
    rng_substream,
    run_periodic,
    run_self_triggered,
    select_pstar,
    stability_certificate,
    sweep,
    simulator,
    verify_conflict_free,
)
from selftrig.scenario import load_scenario
from selftrig.simulator import (
    SimTrace,
    TxEvent,
    _draws,
    _event_loop,
    _row_statistics,
    _self_triggered_runs,
    _stage_costs,
    write_sweep_csv,
    write_trace_csv,
    write_txlog_csv,
)

from conftest import (
    bits,
    oracle_average_sampling_interval,
    oracle_decide,
    oracle_draws,
    oracle_empiric_cost,
    oracle_feasible_set,
    oracle_periodic_baseline,
    oracle_periodic_run,
    oracle_record_chunk,
    oracle_reserve,
    oracle_rng_substream,
    oracle_step,
    oracle_sweep_alpha,
    oracle_write_sweep_csv,
    oracle_write_trace_csv,
    oracle_write_txlog_csv,
    random_system,
    random_weights,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def transient_run(transient_scenario, integrator_table):
    return run_self_triggered(transient_scenario, {"integrator": integrator_table})


class TestStepOracle:
    """The plant step that the segment replays below take as reference."""

    def test_integrator_arithmetic(self, integrator):
        x = oracle_step(integrator, np.array([2.0]), np.array([-1.4]))
        assert x[0] == pytest.approx(0.6, abs=1e-15)

    def test_rest_state(self, integrator):
        assert oracle_step(integrator, np.zeros(1), np.zeros(1))[0] == 0.0

    def test_disturbance_enters_through_gain(self):
        sys = LtiSystem(A=[[1.0]], B=[[1.0]], E=[[1.0]])
        x = oracle_step(sys, np.array([1.0]), np.array([0.0]), np.array([0.3]))
        assert x[0] == pytest.approx(1.3, abs=1e-15)


class TestSingleLoopTransient:
    def test_wait_sequence(self, transient_run):
        tr = transient_run.loops["integrator"]
        assert tr.waits[0] == 1
        assert all(b >= a for a, b in zip(tr.waits, tr.waits[1:]))
        assert tr.waits[-1] == 5

    def test_state_settles(self, transient_run):
        tr = transient_run.loops["integrator"]
        assert abs(tr.states[60, 0]) < 1e-3

    def test_values_decrease_to_sampling_floor(self, transient_run):
        tr = transient_run.loops["integrator"]
        assert all(b <= a + 1e-12 for a, b in zip(tr.values[1:], tr.values[2:]))
        assert abs(tr.values[-1] - 0.04) <= 1e-6

    def test_interval_strictly_inside_range(self, transient_run, transient_scenario):
        tr = transient_run.loops["integrator"]
        assert 1.0 < oracle_average_sampling_interval(tr, transient_scenario.gamma) < 5.0

    def test_trace_shapes_and_gaps(self, transient_run, transient_scenario):
        tr = transient_run.loops["integrator"]
        assert tr.states.shape == (61, 1)
        assert tr.inputs.shape == (60, 1)
        gaps = np.diff(tr.sample_times)
        assert gaps.min() >= 1 and gaps.max() <= transient_scenario.gamma

    def test_input_constant_between_samples(self, transient_run):
        tr = transient_run.loops["integrator"]
        sample_set = set(int(k) for k in tr.sample_times)
        for k in range(1, tr.horizon):
            if k not in sample_set:
                assert tr.inputs[k, 0] == tr.inputs[k - 1, 0]


class TestZeroState:
    def test_everything_stays_at_rest(self, integrator, integrator_weights,
                                      integrator_table):
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator,
                            weights=integrator_weights, x0=[0.0]),),
            I0=range(1, 6), p=5, horizon=40, seed=0,
        )
        tr = run_self_triggered(scn, {"integrator": integrator_table})
        lt = tr.loops["integrator"]
        assert np.all(lt.waits == 5)
        assert np.all(lt.inputs == 0.0)
        assert np.all(lt.states == 0.0)


class TestTwoLoops:
    def test_initial_feasible_sets_and_choices(self, two_loop_scenario,
                                               integrator_table,
                                               double_integrator_table):
        tr = run_self_triggered(
            two_loop_scenario,
            {"integrator": integrator_table,
             "double_integrator": double_integrator_table},
        )
        l1 = tr.loops["integrator"]
        l2 = tr.loops["double_integrator"]
        assert l1.feasible_sets[0] == frozenset({1, 2, 3, 4, 5})
        assert l1.waits[0] == 1
        assert l2.feasible_sets[0] == frozenset({2, 3, 4, 5})
        assert l2.waits[0] == 2

    def test_first_loop_trace_identical_to_solo_run(self, two_loop_scenario,
                                                    transient_scenario,
                                                    integrator_table,
                                                    double_integrator_table):
        solo = run_self_triggered(transient_scenario, {"integrator": integrator_table})
        both = run_self_triggered(
            two_loop_scenario,
            {"integrator": integrator_table,
             "double_integrator": double_integrator_table},
        )
        a, b = solo.loops["integrator"], both.loops["integrator"]
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.sample_times, b.sample_times)
        np.testing.assert_array_equal(a.waits, b.waits)
        np.testing.assert_array_equal(a.values, b.values)

    def test_both_loops_settle_on_shared_period(self, two_loop_scenario,
                                                integrator_table,
                                                double_integrator_table):
        tr = run_self_triggered(
            two_loop_scenario,
            {"integrator": integrator_table,
             "double_integrator": double_integrator_table},
        )
        assert tr.loops["integrator"].waits[-1] == 5
        assert tr.loops["double_integrator"].waits[-1] == 5

    def test_transmissions_conflict_free(self, two_loop_scenario,
                                         integrator_table,
                                         double_integrator_table):
        tr = run_self_triggered(
            two_loop_scenario,
            {"integrator": integrator_table,
             "double_integrator": double_integrator_table},
        )
        assert verify_conflict_free(sorted(tr.tx_log))
        assert min(k for k, _ in tr.tx_log) >= 1

    def test_trace_mode_is_self_triggered_whatever_the_scenario_mode(
            self, two_loop_scenario, integrator_table, double_integrator_table):
        tables = {"integrator": integrator_table,
                  "double_integrator": double_integrator_table}
        tr = run_self_triggered(replace(two_loop_scenario, mode="periodic", ts=2), tables)
        assert tr.mode == "self_triggered"
        np.testing.assert_array_equal(tr.loops["integrator"].waits[:6], [1, 2, 5, 5, 5, 5])

    def test_logged_events_equal_the_constructed_ones(self, two_loop_scenario,
                                                      integrator_table,
                                                      double_integrator_table):
        tr = run_self_triggered(
            two_loop_scenario,
            {"integrator": integrator_table,
             "double_integrator": double_integrator_table},
        )
        built = tuple(TxEvent(k=ev.k, loop_id=ev.loop_id, i_chosen=ev.i_chosen,
                              feasible=ev.feasible) for ev in tr.tx_events)
        assert len(built) > 20 and tr.tx_events == built
        for ev, ref in zip(tr.tx_events, built):
            assert type(ev) is TxEvent and vars(ev) == vars(ref) and hash(ev) == hash(ref)
            assert [type(v) for v in vars(ev).values()] == [int, str, int, tuple]
            assert all(type(i) is int for i in ev.feasible)
        with pytest.raises(FrozenInstanceError):
            tr.tx_events[0].k = 0


def _saturated_channel_scenario():
    """The shape of the benchmark's channel workload with a short horizon:
    three scalar loops and the double integrator, noisy, on one p = 5
    channel, so each decision meets three opposing reservations."""
    two_loop, _ = load_scenario(SCENARIOS / "two_loop.json")
    double = replace(two_loop.loops[1], x0=None, x0_variance=25.0, noise_variance=0.1)
    scalars = tuple(
        LoopSpec(name=f"scalar_a{a}", system=LtiSystem(A=[[a]], B=[[1.0]], E=[[1.0]]),
                 weights=WeightSpec(Q=[[1.0]], R=[[1.0]], alpha=0.2),
                 x0_variance=25.0, noise_variance=0.1)
        for a in (0.8, 1.0, 1.1))
    return Scenario(loops=(*scalars, double), I0=range(1, 6), p=5, horizon=400, seed=1)


class TestReplayThroughThePublicLaw:
    """A simulated run, replayed sample by sample in (k, loop) order on fresh
    ledgers, through ``feasible_set -> decide -> reserve`` and through the
    oracle law in ``conftest``: both give the trace's waits, sorted feasible
    sets and values bit for bit, and its held inputs."""

    @pytest.mark.parametrize("case", ["two_loop", "two_loop_ties", "saturated_channel"])
    def test_every_sample_replays(self, case):
        scn, _ = load_scenario(SCENARIOS / "two_loop.json")
        if case == "two_loop_ties":
            # At x = 0 with alpha = 0 every wait scores 0.0: each of the
            # integrator's decisions is a tie, which goes to the larger wait.
            integrator = replace(scn.loops[0], x0=[0.0],
                                 weights=replace(scn.loops[0].weights, alpha=0.0))
            scn = replace(scn, loops=(integrator, scn.loops[1]))
        elif case == "saturated_channel":
            scn = _saturated_channel_scenario()
        tables = {gt.loop_id: gt for gt in simulator._build_tables(scn)}
        trace = run_self_triggered(scn, tables)
        names = tuple(trace.loops)
        events = sorted((k, j) for j, name in enumerate(names)
                        for k in trace.loops[name].sample_times.tolist())
        ledger = ReservationLedger(p=scn.p, I0=scn.I0, loop_order=names, next_tx={})
        # The oracle reads only these four fields of a ledger.
        oracle = SimpleNamespace(p=scn.p, I0=scn.I0, loop_order=names, next_tx={})
        seen = dict.fromkeys(names, 0)
        for k, j in events:
            name = names[j]
            tr, sample = trace.loops[name], seen[name]
            seen[name] += 1
            x = tr.states[k]
            feas = feasible_set(ledger, name, k)
            dec = decide(tables[name], x, feas)
            ledger = reserve(ledger, name, k, dec.i_star)
            oracle_feas = oracle_feasible_set(oracle, name, k)
            i_star, u, value, _ = oracle_decide(tables[name], x, oracle_feas)
            oracle.next_tx = oracle_reserve(oracle, name, k, i_star)
            for got in ((feas, dec.i_star, dec.u, dec.value), (oracle_feas, i_star, u, value)):
                assert sorted(got[0]) == sorted(tr.feasible_sets[sample]), (case, k, name)
                assert got[1] == tr.waits[sample]
                assert bits(got[2]) == bits(tr.inputs[k])
                assert bits([got[3]]) == bits(tr.values[sample:sample + 1])
        assert seen == {name: trace.loops[name].sample_times.size for name in names}
        assert dict(ledger.next_tx) == oracle.next_tx
        if case == "saturated_channel":
            # Three opposing reservations leave as few as two waits.
            assert min(len(feas) for tr in trace.loops.values()
                       for feas in tr.feasible_sets[1:]) <= 2


class TestPeriodicBaseline:
    def test_unit_period_matches_classical_regulator(self, transient_scenario):
        trace = run_periodic(replace(transient_scenario, ts=1))
        P = scipy.linalg.solve_discrete_are(
            np.array([[1.0]]), np.array([[1.0]]), np.eye(1), np.eye(1)
        )
        gain = float(P[0, 0] / (1.0 + P[0, 0]))
        x, xs = 2.0, [2.0]
        for _ in range(60):
            x -= gain * x
            xs.append(x)
        np.testing.assert_allclose(trace.loops["integrator"].states[:, 0], xs,
                                   rtol=1e-9, atol=1e-12)

    def test_slow_period_degrades_transient(self, transient_scenario, integrator_table,
                                            integrator_weights):
        self_trace = run_self_triggered(transient_scenario,
                                        {"integrator": integrator_table})
        slow_trace = run_periodic(replace(transient_scenario, ts=5))
        Q, R = integrator_weights.Q, integrator_weights.R
        self_tr = self_trace.loops["integrator"]
        slow_tr = slow_trace.loops["integrator"]
        # Identical initial states make step 0 equal; compare afterwards.
        assert _stage_costs(slow_tr.states, slow_tr.inputs, Q, R)[1:].max() \
            > _stage_costs(self_tr.states, self_tr.inputs, Q, R)[1:].max()
        assert oracle_empiric_cost(slow_tr, Q, R) > oracle_empiric_cost(self_tr, Q, R)

    def test_zero_state_stays_zero(self, integrator, integrator_weights):
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator,
                            weights=integrator_weights, x0=[0.0]),),
            I0=range(1, 6), p=5, horizon=30, seed=0,
        )
        trace = run_periodic(replace(scn, ts=5))
        assert np.all(trace.loops["integrator"].states == 0.0)

    def test_singleton_wait_set_equals_periodic(self, integrator,
                                                integrator_weights):
        ts = 3
        gt = build_gain_table(integrator, integrator_weights, [ts], ts,
                              loop_id="integrator")
        # The noisy loop checks that both laws draw the same substreams.
        for initial in ({"x0": [2.0]}, {"x0_variance": 4.0, "noise_variance": 0.1}):
            scn = Scenario(
                loops=(LoopSpec(name="integrator", system=integrator,
                                weights=integrator_weights, **initial),),
                I0=[ts], p=ts, horizon=30, seed=0,
            )
            a = run_self_triggered(scn, {"integrator": gt}).loops["integrator"]
            b = run_periodic(replace(scn, ts=ts)).loops["integrator"]
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.inputs, b.inputs)
            np.testing.assert_array_equal(a.sample_times, b.sample_times)
            np.testing.assert_array_equal(a.waits, b.waits)

    @pytest.mark.parametrize("law", ["self_triggered", "periodic"])
    def test_each_later_sample_is_one_tx_event(self, law, two_loop_scenario,
                                               integrator_table,
                                               double_integrator_table):
        if law == "periodic":
            trace = run_periodic(replace(two_loop_scenario, ts=5))
        else:
            trace = run_self_triggered(
                two_loop_scenario,
                {"integrator": integrator_table,
                 "double_integrator": double_integrator_table},
            )
        expected = []
        for name, tr in trace.loops.items():
            for k, wait, feas in zip(tr.sample_times, tr.waits, tr.feasible_sets):
                if k > 0:
                    expected.append((int(k), name, int(wait), tuple(sorted(feas))))
        logged = [(ev.k, ev.loop_id, ev.i_chosen, ev.feasible)
                  for ev in trace.tx_events]
        assert trace.loops["integrator"].sample_times[0] == 0
        assert all(k > 0 for k, _, _, _ in logged)
        assert sorted(logged) == sorted(expected)
        index = {name: j for j, name in enumerate(trace.loops)}
        order = [(k, index[name]) for k, name, _, _ in logged]
        assert order == sorted(order)

    def test_multi_loop_offsets_stay_conflict_free(self, two_loop_scenario):
        trace = run_periodic(replace(two_loop_scenario, ts=5))
        assert verify_conflict_free(sorted(trace.tx_log))
        l2 = trace.loops["double_integrator"]
        assert l2.sample_times[0] == 1  # second loop starts one slot later
        assert np.all(l2.inputs[0] == 0.0)

    @pytest.mark.parametrize("case", ["transient-ts1", "transient-ts5", "zero-state",
                                      "singleton", "singleton-noisy", "two-loop",
                                      "channel", "overflowing-tail"])
    def test_traces_equal_the_one_run_oracle(self, case, request):
        scn, keys = _periodic_case(case, request)
        trace = run_periodic(scn, *keys)
        run, gains = oracle_periodic_run(scn, *keys)
        for spec, (states, inputs, waits), (P, _) in zip(scn.loops, run, gains):
            tr = trace.loops[spec.name]
            assert bits(tr.states) == bits(states[0]) and bits(tr.inputs) == bits(inputs[0])
            np.testing.assert_array_equal(tr.sample_times, np.flatnonzero(waits[0]))
            assert (tr.waits == scn.ts).all()
            assert tr.values.tolist() == [float(x @ P @ x) for x in tr.states[tr.sample_times]]

    def test_too_many_loops_for_period_rejected(self, two_loop_scenario):
        with pytest.raises(ConfigurationError):
            run_periodic(replace(two_loop_scenario, ts=1))

    def test_scenario_without_ts_rejected(self, transient_scenario):
        with pytest.raises(ConfigurationError, match="needs a scenario with ts"):
            run_periodic(transient_scenario)


def _periodic_case(case, request):
    """A scenario that a test of this module runs ``run_periodic`` on, with
    the (alpha index, run index) of the run."""
    integrator = request.getfixturevalue("integrator")
    weights = request.getfixturevalue("integrator_weights")
    if case.startswith("transient"):
        return replace(request.getfixturevalue("transient_scenario"), ts=int(case[-1])), (0, 0)
    if case == "zero-state":
        return Scenario(loops=(LoopSpec(name="integrator", system=integrator, weights=weights,
                                        x0=[0.0]),),
                        I0=range(1, 6), p=5, horizon=30, seed=0, ts=5), (0, 0)
    if case.startswith("singleton"):
        initial = {"x0_variance": 4.0, "noise_variance": 0.1} if "noisy" in case else {"x0": [2.0]}
        return Scenario(loops=(LoopSpec(name="integrator", system=integrator, weights=weights,
                                        **initial),),
                        I0=[3], p=3, horizon=30, seed=0, ts=3), (0, 0)
    if case == "two-loop":
        return replace(request.getfixturevalue("two_loop_scenario"), ts=5), (0, 0)
    if case == "channel":
        return replace(_channel_scenario(), ts=5), (2, 1)
    spec = LoopSpec(name="a", system=LtiSystem(A=[[1e7]], B=[[1.0]]),
                    weights=WeightSpec(Q=[[1.0]], R=[[1.0]]), x0=[1e100])
    return Scenario(loops=(spec,), I0=range(1, 51), p=1, horizon=2, seed=0,
                    mode="periodic", ts=1), (0, 0)


class TestCostStatistics:
    def test_empty_trace_costs_nothing(self, integrator, integrator_weights,
                                       integrator_table):
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator,
                            weights=integrator_weights, x0=[0.0]),),
            I0=range(1, 6), p=5, horizon=20, seed=0,
        )
        tr = run_self_triggered(scn, {"integrator": integrator_table})
        assert oracle_empiric_cost(tr.loops["integrator"], integrator_weights.Q,
                                   integrator_weights.R) == 0.0

    def test_single_step_arithmetic(self, integrator, integrator_table):
        w = WeightSpec(Q=[[1.0]], R=[[0.1]], alpha=0.2)
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator, weights=w,
                            x0=[2.0]),),
            I0=range(1, 6), p=5, horizon=1, seed=0,
        )
        gt = build_gain_table(integrator, w, range(1, 6), 5, loop_id="integrator")
        tr = run_self_triggered(scn, {"integrator": gt}).loops["integrator"]
        u = tr.inputs[0, 0]
        assert oracle_empiric_cost(tr, w.Q, w.R) == pytest.approx(4.0 + 0.1 * u * u,
                                                                  rel=1e-12)

    def test_against_independent_accumulation(self, transient_run, integrator_weights):
        tr = transient_run.loops["integrator"]
        total = 0.0
        for k in range(tr.horizon):
            x, u = tr.states[k], tr.inputs[k]
            total += float(x @ integrator_weights.Q @ x + u @ integrator_weights.R @ u)
        assert oracle_empiric_cost(tr, integrator_weights.Q, integrator_weights.R) \
            == pytest.approx(total / tr.horizon, rel=1e-12)

    @staticmethod
    def _intervals(tr, weights, rows, gamma):
        """The mean sampling intervals of ``tr``'s states and inputs sampled
        at each row of sample times ``rows``."""
        waits = np.zeros((len(rows), tr.horizon), dtype=int)
        for r, times in enumerate(rows):
            waits[r, times] = 1
        n = len(rows)
        _, intervals, _ = _row_statistics(np.repeat(tr.states[None], n, axis=0),
                                          np.repeat(tr.inputs[None], n, axis=0),
                                          waits, weights.Q, weights.R, gamma)
        return intervals.tolist()

    def test_average_interval_arithmetic(self, transient_run, integrator_weights):
        tr = transient_run.loops["integrator"]
        intervals = self._intervals(tr, integrator_weights, [[0, 1, 3, 8], [2, 9]], 5)
        assert intervals == [pytest.approx(8.0 / 3.0), 7.0]

    def test_single_sample_reports_gamma(self, transient_run, integrator_weights):
        tr = transient_run.loops["integrator"]
        assert self._intervals(tr, integrator_weights, [[0], [9]], 5) == [5.0, 5.0]


class TestDeterminism:
    def test_identical_seed_reproduces_bitwise(self, integrator,
                                               integrator_weights):
        w = WeightSpec(Q=[[1.0]], R=[[0.1]], alpha=0.5)
        scn = Scenario(
            loops=(LoopSpec(name="noisy", system=integrator, weights=w,
                            x0_variance=25.0, noise_variance=0.1),),
            I0=range(1, 6), p=5, horizon=400, seed=97,
        )
        gt = build_gain_table(integrator, w, range(1, 6), 5, loop_id="noisy")
        a = run_self_triggered(scn, {"noisy": gt}).loops["noisy"]
        b = run_self_triggered(scn, {"noisy": gt}).loops["noisy"]
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.sample_times, b.sample_times)

    def test_different_substream_keys_differ(self):
        base = rng_substream(42).standard_normal(8)
        for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            other = rng_substream(42, *key).standard_normal(8)
            assert not np.array_equal(base, other)

    def test_same_substream_key_repeats(self):
        a = rng_substream(42, 3, 1, 2).standard_normal(8)
        b = rng_substream(42, 3, 1, 2).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_golden_substream_bits(self):
        # Pins the documented splitting rule: Philox keyed by
        # SeedSequence(seed, spawn_key=(alpha, run, loop)).  The raw counter
        # stream is version-stable, so these words must never change.
        raw = rng_substream(42, 3, 1, 2).bit_generator.random_raw(4)
        assert [hex(int(v)) for v in raw] == [
            "0xfff5c4c0127ef121",
            "0x43d03fe6513c88b7",
            "0xcccf31bca866490c",
            "0x90c9cede64858d12",
        ]


# Seeds and spawn-key entries at the edges of SeedSequence's 32-bit words:
# -1 is masked to 2**64 - 1, and an entry of 2**32 or more takes more words.
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1]
_EDGE_ENTRIES = [0, 2**32 - 1, 2**32 + 5, 2**40]


def _random_draw_scenario(rng, n_loops, horizon):
    """A scenario of ``n_loops`` loops with n and w from 1 to 3, each noisy
    or noiseless, with a fixed or a random x0."""
    loops = []
    for j in range(n_loops):
        n, w = (int(v) for v in rng.integers(1, 4, size=2))
        sys = LtiSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)),
                        E=rng.normal(size=(n, w)))
        random_x0, noisy = rng.integers(0, 2, size=2)
        start = ({"x0_variance": float(rng.uniform(0.1, 4.0))} if random_x0
                 else {"x0": rng.normal(size=n)})
        loops.append(LoopSpec(name=f"l{j}", system=sys, weights=random_weights(rng, n, 1),
                              noise_variance=float(rng.uniform(0.1, 2.0)) if noisy else 0.0,
                              **start))
    return Scenario(loops=tuple(loops), I0=range(1, 6), p=5, horizon=horizon,
                    seed=int(rng.integers(-2**63, 2**63)))


def _assert_same_draws(got, want):
    assert len(got) == len(want)
    for (x0, Ew), (x0_want, Ew_want) in zip(got, want):
        assert bits(x0) == bits(x0_want)
        assert (Ew is None) == (Ew_want is None)
        if Ew is not None:
            assert Ew.shape == Ew_want.shape and bits(Ew) == bits(Ew_want)


class TestSubstreamKeys:
    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_keys_equal_the_seed_sequence(self, seed):
        # Keys of one, two and three words per entry, in one call and in
        # no particular order.
        spawn_keys = [(a, r, loop) for a in _EDGE_ENTRIES for r in _EDGE_ENTRIES
                      for loop in (0, 3)]
        spawn_keys = spawn_keys[::-1] + [(2**64, 0, 2**200), (1, 2, 3)]
        got = simulator._substream_keys(seed, spawn_keys)
        assert len(got) == len(spawn_keys)
        for key, pair in zip(spawn_keys, got):
            want = np.random.SeedSequence(seed & (2**64 - 1), spawn_key=key)
            assert pair == want.generate_state(2, np.uint64).tolist(), key

    @staticmethod
    def _count_seed_sequences(monkeypatch):
        """The spawn key of every ``SeedSequence`` built from here on, ``()``
        for none, and numpy's own class."""
        built, seed_sequence = [], np.random.SeedSequence

        def counted(*args, **kwargs):
            built.append(tuple(kwargs.get("spawn_key", ())))
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counted)
        return built, seed_sequence

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1])
    def test_one_word_entries_build_one_seed_sequence(self, seed, monkeypatch):
        # numpy hashes the seed once, and 200 keys mix into its pool at once.
        spawn_keys = [(a, r, 2**32 - 1 - a) for a in range(10) for r in range(20)]
        built, seed_sequence = self._count_seed_sequences(monkeypatch)
        got = simulator._substream_keys(seed, spawn_keys)
        assert built == [()]
        for key, pair in zip(spawn_keys, got, strict=True):
            want = seed_sequence(seed & (2**64 - 1), spawn_key=key)
            assert pair == want.generate_state(2, np.uint64).tolist(), key

    def test_an_entry_of_two_words_keys_each_by_the_seed_sequence(self, monkeypatch):
        spawn_keys = [(a, r, 1) for a in range(3) for r in range(4)] + [(2, 2**32, 0)]
        built, seed_sequence = self._count_seed_sequences(monkeypatch)
        got = simulator._substream_keys(42, spawn_keys)
        assert built == spawn_keys
        for key, pair in zip(spawn_keys, got, strict=True):
            want = seed_sequence(42, spawn_key=key)
            assert pair == want.generate_state(2, np.uint64).tolist(), key

    def test_no_keys_build_nothing(self, monkeypatch):
        built, _ = self._count_seed_sequences(monkeypatch)
        assert simulator._substream_keys(42, []) == []
        assert built == []

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_generator_equals_the_oracle(self, seed):
        for key in [(0, 0, 0), (3, 1, 2), (2**32 - 1, 2**32 + 5, 2**40)]:
            got, want = rng_substream(seed, *key), oracle_rng_substream(seed, *key)
            assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
            assert bits(got.standard_normal(9)) == bits(want.standard_normal(9))

    @pytest.mark.parametrize("args,message", [
        ((42, 1.5), "alpha_index must be an integer, got 1.5"),
        ((42, 0, True), "run_index must be an integer, got True"),
        ((42, 0, 0, 2.0), "loop_index must be an integer, got 2.0"),
        ((42.9,), "seed must be an integer, got 42.9"),
        ((False,), "seed must be an integer, got False"),
        ((42, -1), "alpha_index must be >= 0, got -1"),
        ((42, 0, 0, np.int64(-3)), "loop_index must be >= 0, got -3"),
    ])
    def test_rng_substream_refuses_what_is_not_an_index(self, args, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            rng_substream(*args)

    def test_numpy_integers_are_indices(self):
        got = rng_substream(np.int32(42), np.int64(3), np.uint8(1), np.int16(2))
        assert bits(got.standard_normal(4)) == bits(rng_substream(42, 3, 1, 2).standard_normal(4))

    @pytest.mark.parametrize("run", [run_self_triggered, run_periodic])
    @pytest.mark.parametrize("index,message", [
        ({"alpha_index": 1.5}, "alpha_index must be an integer, got 1.5"),
        ({"run_index": -2}, "run_index must be >= 0, got -2"),
    ])
    def test_single_runs_refuse_what_is_not_an_index(self, run, index, message,
                                                      transient_scenario, integrator_table):
        # A noiseless loop with a fixed x0 draws nothing; the index is
        # refused all the same.
        scn = replace(transient_scenario, ts=3)
        args = (scn, {"integrator": integrator_table}) if run is run_self_triggered else (scn,)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run(*args, **index)

    def test_a_substream_generator_cannot_spawn(self):
        with pytest.raises(TypeError, match="spawn"):
            rng_substream(42, 3, 1, 2).spawn(1)

    @pytest.mark.parametrize("name", ["integrator_sweep", "integrator_transient", "two_loop"])
    @pytest.mark.parametrize("noisy", [False, True])
    def test_draws_of_shipped_scenarios_equal_the_oracle(self, name, noisy):
        scn, _ = load_scenario(SCENARIOS / f"{name}.json")
        if noisy:
            scn = replace(scn, loops=tuple(replace(spec, noise_variance=0.3)
                                           for spec in scn.loops))
        keys = [(ai, r) for ai in range(3) for r in range(4)]
        keys = keys[5:] + keys[:5]
        _assert_same_draws(_draws(scn, keys), oracle_draws(scn, keys))

    def test_draws_of_random_shapes_equal_the_oracle(self):
        rng = np.random.default_rng(30)
        for case in range(40):
            scn = _random_draw_scenario(rng, int(rng.integers(1, 4)), int(rng.integers(1, 30)))
            n_rows = 1 if case % 2 else 200
            keys = [(int(a), int(r)) for a, r in rng.permutation(
                [(a, r) for a in range(10) for r in range(40)])[:n_rows]]
            _assert_same_draws(_draws(scn, keys), oracle_draws(scn, keys))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 200])
    def test_one_disturbance_with_zero_gains_draws_as_the_oracle(self, n, n_rows):
        # A negative draw times a zero entry of E is -0.0; the oracle's
        # matmul adds it to 0.0, so every zero of Ew is +0.0.
        rng = np.random.default_rng(34 + n)
        E = rng.normal(size=(n, 1))
        E[0, 0] = 0.0
        if n > 1:
            E[-1, 0] = -0.0
        sys = LtiSystem(A=rng.normal(size=(n, n)), B=rng.normal(size=(n, 1)), E=E)
        loops = (LoopSpec(name="zero_gain", system=sys, weights=random_weights(rng, n, 1),
                          x0_variance=2.0, noise_variance=0.7),
                 LoopSpec(name="plain", system=replace(sys, E=np.ones((n, 1))),
                          weights=random_weights(rng, n, 1), x0=np.ones(n), noise_variance=0.3))
        scn = Scenario(loops=loops, I0=range(1, 6), p=5, horizon=40, seed=34)
        keys = [(ai, r) for ai in range(4) for r in range(50)][:n_rows]
        got = _draws(scn, keys)
        _assert_same_draws(got, oracle_draws(scn, keys))
        Ew = got[0][1]
        assert not Ew.flags.writeable
        assert (Ew[:, :, 0] == 0.0).all() and not np.signbit(Ew[:, :, 0]).any()

    def test_large_indices_draw_as_the_oracle(self):
        scn = replace(_noisy_two_loop(), horizon=7)
        keys = [(2**32 + 5, 0), (0, 2**40), (1, 1), (2**64, 2**32 - 1)]
        _assert_same_draws(_draws(scn, keys), oracle_draws(scn, keys))

    def test_two_draws_in_one_process_are_equal(self):
        # The generator of one draw is re-keyed for each substream; nothing
        # carries over to the next draw, whatever was drawn in between.
        rng = np.random.default_rng(31)
        scn = _random_draw_scenario(rng, 3, 12)
        scn = replace(scn, loops=tuple(replace(spec, noise_variance=0.5)
                                       for spec in scn.loops))
        keys = [(0, 0), (4, 2), (1, 7)]
        first = _draws(scn, keys)
        _draws(replace(scn, seed=scn.seed + 1), keys[::-1])
        rng_substream(scn.seed, 0, 0, 0).standard_normal(5)
        _assert_same_draws(_draws(scn, keys), first)
        _assert_same_draws(first, oracle_draws(scn, keys))


class TestScenarioValidation:
    def test_periodic_mode_needs_ts(self, integrator, integrator_weights):
        with pytest.raises(ConfigurationError):
            Scenario(
                loops=(LoopSpec(name="a", system=integrator,
                                weights=integrator_weights, x0=[1.0]),),
                I0=[1, 2], p=2, horizon=10, seed=0, mode="periodic",
            )

    @pytest.mark.parametrize("field, value", [
        pytest.param("noise_variance", float("nan"), id="noise-nan"),
        pytest.param("noise_variance", float("inf"), id="noise-inf"),
        pytest.param("noise_variance", True, id="noise-bool"),
        pytest.param("noise_variance", "0.1", id="noise-string"),
        pytest.param("noise_variance", -0.1, id="noise-negative"),
        pytest.param("x0_variance", float("nan"), id="x0-variance-nan"),
        pytest.param("x0_variance", float("inf"), id="x0-variance-inf"),
        pytest.param("x0_variance", True, id="x0-variance-bool"),
        pytest.param("x0_variance", "4", id="x0-variance-string"),
        pytest.param("noise_variance", 10**400, id="noise-huge-int"),
        pytest.param("x0", "a", id="x0-string"),
    ])
    def test_variance_must_be_a_finite_nonnegative_number(self, integrator,
                                                         integrator_weights,
                                                         field, value):
        initial = {"x0_variance": 4.0} if field == "noise_variance" else {}
        with pytest.raises(ConfigurationError, match=field):
            LoopSpec(name="a", system=integrator, weights=integrator_weights,
                     **initial, **{field: value})

    @pytest.mark.parametrize("Q,R,message", [
        pytest.param(np.eye(2), [[1.0]], "Q does not match state dim", id="Q"),
        pytest.param([[1.0]], np.eye(2), "R does not match input dim", id="R"),
    ])
    def test_weights_must_match_the_plant(self, integrator, Q, R, message):
        with pytest.raises(ConfigurationError, match=f"^loop 'a': {message}$"):
            LoopSpec(name="a", system=integrator, weights=WeightSpec(Q=Q, R=R), x0=[1.0])

    def test_numpy_variances_are_stored_as_floats(self, integrator, integrator_weights):
        spec = LoopSpec(name="a", system=integrator, weights=integrator_weights,
                        x0_variance=np.int64(4), noise_variance=np.float32(0.25))
        assert type(spec.x0_variance) is float and spec.x0_variance == 4.0
        assert type(spec.noise_variance) is float and spec.noise_variance == 0.25

    @pytest.mark.parametrize("name", ["", "a/b", "../escaped", "a\\b", "tab\tname",
                                      "nul\x00", "del\x7f", "c1\x85"])
    def test_loop_name_must_be_a_plain_file_stem(self, integrator, integrator_weights,
                                                 name):
        with pytest.raises(ConfigurationError, match="plain file stem"):
            LoopSpec(name=name, system=integrator, weights=integrator_weights, x0=[1.0])

    def test_loop_name_must_be_a_string(self, integrator, integrator_weights):
        with pytest.raises(ConfigurationError, match="plain file stem"):
            LoopSpec(name=7, system=integrator, weights=integrator_weights, x0=[1.0])

    def test_initial_state_spec_is_exclusive(self, integrator, integrator_weights):
        with pytest.raises(ConfigurationError):
            LoopSpec(name="a", system=integrator, weights=integrator_weights,
                     x0=[1.0], x0_variance=4.0)
        with pytest.raises(ConfigurationError):
            LoopSpec(name="a", system=integrator, weights=integrator_weights)

    @pytest.mark.parametrize("s, fields, message", [
        pytest.param(1, dict(ts=99), "ts must lie in", id="ts-above-p"),
        pytest.param(2, dict(mode="periodic", ts=1), "ts must lie in", id="ts-below-s"),
        pytest.param(1, dict(p=6), "exceeds the largest wait", id="p-above-largest-wait"),
    ])
    def test_period_bounds(self, integrator, integrator_weights, s, fields, message):
        loops = tuple(LoopSpec(name=name, system=integrator, weights=integrator_weights,
                               x0=[1.0]) for name in "ab"[:s])
        base = dict(loops=loops, I0=range(1, 6), p=5, horizon=10, seed=0)
        with pytest.raises(ConfigurationError, match=message):
            Scenario(**{**base, **fields})
        # Each loop of s keeps its own slot at any ts in [s, p], in either mode.
        for mode in ("self_triggered", "periodic"):
            for ts in (s, 5):
                assert Scenario(**base, mode=mode, ts=ts).ts == ts

    @pytest.mark.parametrize("I0, p", [
        pytest.param((1, 2), 3, id="waits-1-to-s-missing"),
        pytest.param((1, 2, 3), 2, id="more-loops-than-p"),
    ])
    def test_inadmissible_network_rejected(self, integrator, integrator_weights, I0, p):
        loops = tuple(LoopSpec(name=name, system=integrator, weights=integrator_weights,
                               x0=[1.0]) for name in "abc")
        with pytest.raises(ConfigurationError, match="inadmissible"):
            Scenario(loops=loops, I0=I0, p=p, horizon=10, seed=0)

    @pytest.mark.parametrize("horizon, I0, noise, message", [
        pytest.param(2**63, range(1, 6), 0.0,
                     f"horizon {2**63} with largest wait 5 needs an array of "
                     f"{8 * (2**63 + 6)} bytes", id="horizon-2**63"),
        pytest.param(2**62, range(1, 6), 0.0,
                     f"horizon {2**62} with largest wait 5 needs an array of "
                     f"{8 * (2**62 + 6)} bytes", id="horizon-2**62"),
        pytest.param(60, (1, 2, 2**63), 0.0,
                     f"horizon 60 with largest wait {2**63} needs an array of "
                     f"{8 * (2**63 + 61)} bytes", id="wait-2**63"),
        # (1 + 1 + G) * G float64 exceeds 2**63 - 1 bytes from G = 2**30.
        pytest.param(60, (1, 2, 2**30), 0.1,
                     f"largest wait {2**30} in I0 needs an array of "
                     f"{8 * (2 + 2**30) * 2**30} bytes", id="noisy-wait-2**30"),
    ])
    def test_sizes_numpy_cannot_address_are_refused(self, integrator, integrator_weights,
                                                    horizon, I0, noise, message):
        # Every size here is refused before an array is made.
        loop = LoopSpec(name="a", system=integrator, weights=integrator_weights,
                        x0=[1.0], noise_variance=noise)
        with pytest.raises(ConfigurationError,
                           match=rf"^loop 'a': {re.escape(message)}, more than numpy "
                                 rf"can address \({np.iinfo(np.intp).max}\)$"):
            Scenario(loops=(loop,), I0=I0, p=2, horizon=horizon, seed=0)

    def test_a_noiseless_loop_keeps_no_noise_rows_in_its_segment_map(self, integrator,
                                                                    integrator_weights):
        # The noisy case above, without noise: its map (2, 2**30) is addressable.
        loop = LoopSpec(name="a", system=integrator, weights=integrator_weights, x0=[1.0])
        assert Scenario(loops=(loop,), I0=(1, 2, 2**30), p=2, horizon=60, seed=0).gamma == 2**30

    def test_table_mismatch_rejected(self, transient_scenario, integrator,
                                     integrator_weights):
        other = build_gain_table(integrator, integrator_weights, range(1, 4), 3,
                                 loop_id="integrator")
        with pytest.raises(ConfigurationError):
            run_self_triggered(transient_scenario, {"integrator": other})


class TestTraceCsv:
    def test_exact_text(self, tmp_path):
        trace = LoopTrace(
            name="a",
            states=np.array([[0.1, -2.5], [1e-05, 0.0], [2.0, 0.1 + 0.2], [9.0, 9.0]]),
            inputs=np.array([[-2.5], [-2.5], [1e-05]]),
            sample_times=np.array([0, 2]), waits=np.array([2, 1]),
            values=np.array([0.1, -1 / 3]),
            feasible_sets=(frozenset({1, 2}), frozenset({1})),
        )
        path = tmp_path / "a.trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == (
            b"k,x_1,x_2,u_1,sampled,i_chosen,V\r\n"
            b"0,0.1,-2.5,-2.5,1,2,0.1\r\n"
            b"1,1e-05,0.0,-2.5,0,,\r\n"
            b"2,2.0,0.30000000000000004,1e-05,1,1,-0.3333333333333333\r\n"
        )

    # Floats whose repr takes exponent form or is otherwise easy to mangle.
    AWKWARD = [1e-05, 1e+16, 5e-324, -0.0, 0.0, 0.1 + 0.2, 1e22, -2.5e-300, 123456789.0]

    @classmethod
    def _held_trace(cls, rng, n, m, horizon, dtype):
        """A hand-built trace whose inputs are held between random samples,
        with a run of held 0.0 that flips to -0.0 and back."""
        states = rng.choice(cls.AWKWARD + rng.standard_normal(9).tolist(),
                            size=(horizon + 1, n))
        times = np.union1d([0], np.flatnonzero(rng.random(horizon) < 0.3))
        held = np.diff(np.append(times, horizon))
        if np.issubdtype(dtype, np.integer):
            levels = rng.integers(-3, 4, size=(times.size, m))
        else:
            levels = rng.choice(cls.AWKWARD, size=(times.size, m))
        inputs = np.repeat(levels, held, axis=0).astype(dtype)
        if horizon >= 6 and not np.issubdtype(dtype, np.integer):
            inputs[1:5] = np.array([0.0, -0.0, -0.0, 0.0])[:, None]
        return LoopTrace(
            name="a", states=states, inputs=inputs, sample_times=times,
            waits=held, values=rng.choice(cls.AWKWARD, size=times.size),
            feasible_sets=(frozenset({1}),) * times.size,
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("horizon", [1, 60])
    @pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
    def test_bytes_equal_the_csv_writer(self, tmp_path, n, m, horizon, dtype):
        rng = np.random.default_rng([n, m, horizon])
        for draw in range(3):
            trace = self._held_trace(rng, n, m, horizon, dtype)
            write_trace_csv(trace, tmp_path / "new.csv")
            oracle_write_trace_csv(trace, tmp_path / "oracle.csv")
            assert (tmp_path / "new.csv").read_bytes() \
                == (tmp_path / "oracle.csv").read_bytes(), draw


class TestTxLogCsv:
    def test_loop_ids_are_quoted_as_the_csv_writer_quotes_them(self, tmp_path):
        ids = ["plain", "a,b", 'say "hi"', '",', "line\nbreak", "cr\rid", ""]
        events = tuple(
            TxEvent(k, ids[k % len(ids)], 1 + k % 5, tuple(range(1, 1 + k % 4)))
            for k in range(1, 30)
        )
        trace = SimTrace(loops={}, tx_events=events, mode="self_triggered")
        write_txlog_csv(trace, tmp_path / "new.csv")
        oracle_write_txlog_csv(trace, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert b'\r\n1,"a,b",2,1\r\n2,"say ""hi""",3,1;2\r\n' \
            in (tmp_path / "new.csv").read_bytes()

    def test_empty_log_is_the_header(self, tmp_path):
        write_txlog_csv(SimTrace(loops={}, tx_events=(), mode="periodic"),
                        tmp_path / "log.csv")
        assert (tmp_path / "log.csv").read_bytes() == b"k,loop_id,i_chosen,feasible_set\r\n"


class TestSweepCsv:
    def test_readme_sweep_with_a_failed_alpha_bytes_equal_the_csv_writer(
            self, tmp_path, monkeypatch):
        _refuse_alpha_1_3(monkeypatch)
        scn, _ = load_scenario(SCENARIOS / "integrator_sweep.json")
        alphas = _README_ALPHAS
        summary, baseline = sweep(scn, alphas, n_runs=20)
        assert list(summary.errors) == list(baseline.errors) == [1.3]
        for result in (summary, baseline):
            write_sweep_csv(result, "integrator", tmp_path / "new.csv")
            oracle_write_sweep_csv(result, "integrator", tmp_path / "oracle.csv")
            text = (tmp_path / "new.csv").read_bytes()
            assert text == (tmp_path / "oracle.csv").read_bytes()
            assert text.count(b"\r\n") == len(alphas) and b"\r\n1.3," not in text


class TestSweep:
    def test_sweep_is_reproducible_and_reports_errors(self, integrator):
        w = WeightSpec(Q=[[1.0]], R=[[0.1]], alpha=0.0)
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator, weights=w,
                            x0_variance=25.0, noise_variance=0.1),),
            I0=range(1, 6), p=5, horizon=200, seed=11,
        )
        for a, b in zip(sweep(scn, [0.0, 1.0], n_runs=3), sweep(scn, [0.0, 1.0], n_runs=3)):
            assert a.mean_cost == b.mean_cost
            assert a.mean_interval == b.mean_interval
            assert not a.errors

    def test_synthesis_failure_recorded_and_sweep_continues(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        w = WeightSpec(Q=[[1.0]], R=[[1.0]], alpha=0.0)
        scn = Scenario(
            loops=(LoopSpec(name="osc", system=sys, weights=w, x0=[1.0]),),
            I0=[1, 2], p=2, horizon=50, seed=0,
        )
        for summary in sweep(scn, [0.0, 1.0], n_runs=1):
            assert set(summary.errors) == {0.0, 1.0}
            assert summary.mean_cost["osc"] == {}

    def test_rejects_descending_alphas(self, transient_scenario):
        with pytest.raises(ConfigurationError):
            sweep(transient_scenario, [1.0, 0.5], n_runs=1)

    def test_rejects_an_empty_sweep(self, transient_scenario):
        with pytest.raises(ConfigurationError, match="at least one alpha"):
            sweep(transient_scenario, [], n_runs=1)

    def test_synthesis_error_names_its_loop(self, integrator, integrator_weights):
        osc = LtiSystem(A=[[-1.0]], B=[[1.0]])
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator,
                            weights=integrator_weights, x0=[1.0]),
                   LoopSpec(name="osc", system=osc, weights=integrator_weights, x0=[1.0])),
            I0=[1, 2], p=2, horizon=20, seed=0,
        )
        summary, _ = sweep(scn, [0.0, 1.0], n_runs=1)
        assert set(summary.errors) == {0.0, 1.0}
        assert all(msg.startswith("loop 'osc': ") for msg in summary.errors.values())


def test_array_holding_values_compare_by_identity(
    two_loop_scenario, double_integrator, double_integrator_weights,
    integrator_table, double_integrator_table,
):
    # Two equal values with n = 2 compare without an array truth test, and
    # every value hashes.
    tables = {gt.loop_id: gt for gt in (integrator_table, double_integrator_table)}

    def values():
        trace = run_self_triggered(two_loop_scenario, tables)
        return (
            lift_range(double_integrator, double_integrator_weights, 2)[1],
            stability_certificate(double_integrator_table, double_integrator, 5),
            decide(double_integrator_table, [0.3, -1.2], [1, 2, 5]),
            trace.loops["double_integrator"],
            trace,
            ReservationLedger(p=5, I0=range(1, 6), loop_order=("a", "b"),
                              next_tx={"a": 3}),
            *sweep(two_loop_scenario, [0.0], n_runs=1),
        )

    for a, b in zip(values(), values()):
        assert a != b and a == a
        assert hash(a) == hash(a)


class TestFiniteStates:
    """A run whose state overflows is refused naming the loop and the first
    non-finite step, whether the check after the run finds it or a decision
    that the overflowed state reaches."""

    @staticmethod
    def _scenario(horizon):
        sys = LtiSystem(A=[[2.0]], B=[[1.0]])
        w = WeightSpec(Q=[[1.0]], R=[[1.0]])
        return Scenario(loops=(LoopSpec(name="a", system=sys, weights=w, x0=[1e308]),),
                        I0=[1, 2, 3], p=3, horizon=horizon, seed=0)

    def test_periodic(self):
        with pytest.raises(ConfigurationError, match=r"loop 'a'.* from step k=1$"):
            run_periodic(replace(self._scenario(6), ts=3))

    def test_self_triggered(self):
        # At horizon 6 the overflowed state reaches the next decision, whose
        # refusal must still name the first non-finite step.
        for horizon in (2, 6):
            scn = self._scenario(horizon)
            gt = build_gain_table(scn.loops[0].system, scn.loops[0].weights, [1, 2, 3], 3,
                                  loop_id="a")
            with pytest.raises(ConfigurationError, match=r"^loop 'a'.* from step k=1$"):
                run_self_triggered(scn, {"a": gt})

    @pytest.mark.parametrize("horizon, context", [
        (1, None),
        (3, "x has non-finite entries"),
    ])
    def test_two_loops_name_the_loop_that_failed_first(self, horizon, context):
        # Loop a stays finite (2e290) and b overflows (2e308) at k = 1.  At
        # horizon 1 the check after the run refuses b; at horizon 3 b's next
        # decision meets its state first, and decide's refusal is the context.
        sys = LtiSystem(A=[[2.0]], B=[[1.0]])
        w = WeightSpec(Q=[[1.0]], R=[[1.0]])
        scn = Scenario(loops=tuple(LoopSpec(name=name, system=sys, weights=w, x0=[x0])
                                   for name, x0 in (("a", 1e290), ("b", 1e308))),
                       I0=[1, 2, 3], p=3, horizon=horizon, seed=0)
        tables = {spec.name: build_gain_table(sys, w, [1, 2, 3], 3, loop_id=spec.name)
                  for spec in scn.loops}
        with pytest.raises(ConfigurationError) as excinfo:
            run_self_triggered(scn, tables)
        assert str(excinfo.value) == "loop 'b': state is not finite from step k=1"
        cause = excinfo.value.__context__
        if context is None:
            assert cause is None
        else:
            assert type(cause) is ConfigurationError and str(cause) == context

    def test_sweep(self):
        with pytest.raises(ConfigurationError, match=r"loop 'a'.* from step k=1 of run 0"):
            sweep(self._scenario(2), [0.0], n_runs=2)

    def test_sweep_cost_overflow(self):
        # The states stay finite near 1e308, so the event loop accepts them;
        # their stage costs overflow, and the statistics must refuse them
        # rather than warn and record NaN.
        spec = LoopSpec(name="big", system=LtiSystem(A=[[1.0]], B=[[1.0]], E=[[1e158]]),
                        weights=WeightSpec(Q=[[1.0]], R=[[1.0]]), x0=[0.0],
                        noise_variance=1e300)
        scn = Scenario(loops=(spec,), I0=(1, 2), p=2, horizon=2, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=r"^loop 'big': stage cost is not "
                               r"finite from step k=1 of run 0, alpha index 0$"):
                sweep(scn, [0.0], 2)


def test_policy_errors_name_their_step_and_loop(transient_scenario):
    def policy(j, k, rows, x):
        if k == 3:
            raise SchedulingError("no wait left")
        return 3, np.zeros(1)

    keys = [(0, 0)]
    with pytest.raises(SchedulingError, match=r"^at step k=3, loop 'integrator': no wait left$"):
        _event_loop(transient_scenario, [0], policy, keys, _draws(transient_scenario, keys))


def _value_bound_excess(scn):
    """Largest relative excess, over a noiseless run of ``scn``, of
    ``V(l+1)`` over the paper's one-step bound
    ``alpha/p + (1 - eps)(V(l) - alpha/i(l))``, at every sample ``l + 1``
    whose feasible set holds ``p``; tables are built at ``p``, which must be
    each loop's ``pstar``, and ``eps`` is their certificate's margin."""
    tables, margins = {}, {}
    for spec in scn.loops:
        assert spec.noise_variance == 0.0 and select_pstar([spec.system], scn.I0) == scn.p
        gt = build_gain_table(spec.system, spec.weights, scn.I0, scn.p, loop_id=spec.name)
        tables[spec.name] = gt
        margins[spec.name] = stability_certificate(gt, spec.system, scn.p).epsilon
    trace = run_self_triggered(scn, tables)
    excess, checked = 0.0, 0
    for name, tr in trace.loops.items():
        alpha, eps = tables[name].alpha, margins[name]
        for l in range(len(tr.values) - 1):
            if scn.p not in tr.feasible_sets[l + 1]:
                continue
            bound = alpha / scn.p + (1.0 - eps) * (tr.values[l] - alpha / tr.waits[l])
            excess = max(excess, (tr.values[l + 1] - bound) / bound)
            checked += 1
    assert checked > 0
    return excess


class TestOneStepValueBound:
    """Wherever the terminal period ``p`` is feasible at the next sample, the
    value falls by the certificate's margin: ``V(l+1) <= alpha/p +
    (1 - eps)(V(l) - alpha/i(l))``.  Noiseless loops only: a disturbance
    between samples is outside the bound."""

    @pytest.mark.parametrize("name", ["integrator_transient", "two_loop"])
    def test_shipped_scenarios(self, name):
        scn, _ = load_scenario(SCENARIOS / f"{name}.json")
        assert _value_bound_excess(scn) <= 1e-12

    @pytest.mark.parametrize("name", ["integrator_transient", "two_loop"])
    def test_shipped_scenarios_settle_where_the_bounds_collapse(self, name):
        # With pstar = gamma both value bounds equal alpha/gamma, and each
        # loop ends holding the largest wait at that value.
        scn, _ = load_scenario(SCENARIOS / f"{name}.json")
        assert select_pstar([spec.system for spec in scn.loops], scn.I0) == scn.p == scn.gamma
        tables = {spec.name: build_gain_table(spec.system, spec.weights, scn.I0, scn.p,
                                              loop_id=spec.name) for spec in scn.loops}
        trace = run_self_triggered(scn, tables)
        for spec in scn.loops:
            assert spec.noise_variance == 0.0
            cert = stability_certificate(tables[spec.name], spec.system, scn.p)
            assert cert.lower_bound == spec.weights.alpha / scn.gamma
            assert cert.upper_bound == pytest.approx(cert.lower_bound, rel=1e-12)
            tr = trace.loops[spec.name]
            assert tr.waits[-4:].tolist() == [scn.gamma] * 4
            assert tr.values[-1] == pytest.approx(cert.lower_bound, rel=1e-9)

    def test_random_single_loop_plants(self):
        rng = np.random.default_rng(61)
        tested = 0
        for _ in range(40):
            sys = random_system(rng, max_spectral_radius=1.2)
            w = random_weights(rng, sys.n, sys.m)
            I0 = tuple(range(1, int(rng.integers(2, 7)) + 1))
            try:
                pstar = select_pstar([sys], I0)
                scn = Scenario(
                    loops=(LoopSpec(name="a", system=sys, weights=w,
                                    x0=rng.normal(0.0, 2.0, sys.n)),),
                    I0=I0, p=pstar, horizon=60, seed=0,
                )
                excess = _value_bound_excess(scn)
            except (SynthesisError, CertificateError):
                continue
            assert excess <= 1e-12
            tested += 1
        assert tested >= 20


def _channel_scenario():
    """Four noisy loops on one p = 5 channel; loop c has two states."""
    rng = np.random.default_rng(3)
    loops = []
    for name in "abcd":
        n = 2 if name == "c" else 1
        A = rng.normal(size=(n, n))
        A *= 1.1 / max(abs(np.linalg.eigvals(A)))
        loops.append(LoopSpec(
            name=name,
            system=LtiSystem(A=A, B=rng.normal(size=(n, 1)), E=np.eye(n)),
            weights=WeightSpec(Q=np.eye(n), R=[[0.5]]),
            x0_variance=4.0, noise_variance=0.05,
        ))
    return Scenario(loops=tuple(loops), I0=range(1, 6), p=5, horizon=300, seed=0)


def _integrator_sweep_scenario():
    scn, _ = load_scenario(SCENARIOS / "integrator_sweep.json")
    return replace(scn, horizon=400)


def _tables(scn, alpha):
    return [build_gain_table(spec.system, replace(spec.weights, alpha=alpha), scn.I0,
                             scn.p, loop_id=spec.name) for spec in scn.loops]


def _self_triggered_rows(scn, tables, keys):
    """``_self_triggered_runs`` on the draws of its own rows."""
    return _self_triggered_runs(scn, tables, keys, _draws(scn, keys))


def _per_run_reference(scn, tables, ai, r):
    swept = replace(scn, loops=tuple(
        replace(spec, weights=replace(spec.weights, alpha=gt.alpha))
        for spec, gt in zip(scn.loops, tables)
    ))
    return run_self_triggered(swept, {gt.loop_id: gt for gt in tables},
                              alpha_index=ai, run_index=r)


class TestBatchedSweep:
    """The sweep runs its runs together; each must equal the per-run law."""

    @pytest.mark.parametrize("case, alphas, n_runs", [
        pytest.param("integrator_sweep", [0.0, 1.3, 50.0, 1e6], 6, id="integrator-sweep"),
        pytest.param("two_loop", [0.0, 0.2, 5.0], 3, id="two-loop"),
        pytest.param("channel", [0.0, 0.5, 20.0], 4, id="channel-p5-n2"),
    ])
    def test_runs_equal_the_per_run_law(self, case, alphas, n_runs):
        scn = {
            "integrator_sweep": _integrator_sweep_scenario,
            "two_loop": lambda: load_scenario(SCENARIOS / "two_loop.json")[0],
            "channel": _channel_scenario,
        }[case]()
        for ai, alpha in enumerate(alphas):
            tables = _tables(scn, alpha)
            batch = _self_triggered_rows(scn, {ai: tables}, [(ai, r) for r in range(n_runs)])
            for r in range(n_runs):
                ref = _per_run_reference(scn, tables, ai, r)
                for spec, (states, inputs, sampled) in zip(scn.loops, batch):
                    tr = ref.loops[spec.name]
                    np.testing.assert_array_equal(np.flatnonzero(sampled[r]),
                                                  tr.sample_times)
                    assert states[r].flags.c_contiguous and inputs[r].flags.c_contiguous
                    if spec.system.n == 1:
                        np.testing.assert_array_equal(states[r], tr.states)
                        np.testing.assert_array_equal(inputs[r], tr.inputs)
                    else:
                        scale = np.max(np.abs(tr.states))
                        np.testing.assert_allclose(states[r], tr.states, rtol=0,
                                                   atol=1e-12 * scale)
                        np.testing.assert_allclose(inputs[r], tr.inputs, rtol=0,
                                                   atol=1e-12 * scale)

    @pytest.mark.parametrize("case", ["integrator_sweep", "channel"])
    def test_summary_equals_per_run_aggregation(self, case):
        scn = {"integrator_sweep": _integrator_sweep_scenario,
               "channel": _channel_scenario}[case]()
        alphas, n_runs, seed = [0.0, 0.25, 25.0], 5, 11
        scn = replace(scn, seed=seed)
        summary, _ = sweep(scn, alphas, n_runs)
        for ai, alpha in enumerate(alphas):
            tables = _tables(scn, alpha)
            traces = [_per_run_reference(scn, tables, ai, r) for r in range(n_runs)]
            for spec in scn.loops:
                loop = [t.loops[spec.name] for t in traces]
                interval = float(np.mean([oracle_average_sampling_interval(t, scn.gamma)
                                          for t in loop]))
                cost = float(np.mean([oracle_empiric_cost(t, spec.weights.Q, spec.weights.R)
                                      for t in loop]))
                assert summary.mean_interval[spec.name][ai] == interval
                if case == "integrator_sweep":
                    assert summary.mean_cost[spec.name][ai] == cost
                else:
                    assert summary.mean_cost[spec.name][ai] == pytest.approx(cost,
                                                                             rel=1e-12)

    def test_zero_state_ties_go_to_the_largest_feasible_wait(self, integrator,
                                                            integrator_weights):
        loops = tuple(LoopSpec(name=name, system=integrator, weights=integrator_weights,
                               x0=[0.0]) for name in ("a", "b"))
        scn = Scenario(loops=loops, I0=range(1, 6), p=5, horizon=40, seed=0)
        tables = _tables(scn, 0.0)
        (a_states, _, a_sampled), (_, _, b_sampled) = _self_triggered_rows(
            scn, {0: tables}, [(0, 0), (0, 1)])
        ref = _per_run_reference(scn, tables, 0, 0)
        # a takes the largest wait 5; b then finds 5 taken at k = 0 and
        # takes 4, after which both keep the full period.
        np.testing.assert_array_equal(ref.loops["a"].sample_times, range(0, 40, 5))
        np.testing.assert_array_equal(ref.loops["b"].sample_times, [0, *range(4, 40, 5)])
        for r in range(2):
            np.testing.assert_array_equal(np.flatnonzero(a_sampled[r]),
                                          ref.loops["a"].sample_times)
            np.testing.assert_array_equal(np.flatnonzero(b_sampled[r]),
                                          ref.loops["b"].sample_times)
        assert np.all(a_states == 0.0)

    def test_overflowed_values_still_pick_a_feasible_wait(self, integrator_weights):
        # x'P(i)x overflows for every wait of loop b at k = 0, so all its
        # waits tie; the largest feasible one, 4, must win over the 5 that
        # loop a booked.
        sys = LtiSystem(A=[[0.5]], B=[[1.0]])
        loops = tuple(LoopSpec(name=name, system=sys, weights=integrator_weights, x0=[x0])
                      for name, x0 in (("a", 0.0), ("b", 1e200)))
        scn = Scenario(loops=loops, I0=range(1, 6), p=5, horizon=30, seed=0)
        tables = _tables(scn, 0.0)
        (_, _, a_sampled), (b_states, _, b_sampled) = _self_triggered_rows(scn, {0: tables},
                                                                           [(0, 0)])
        ref = _per_run_reference(scn, tables, 0, 0)
        assert ref.loops["b"].waits[0] == 4
        np.testing.assert_array_equal(np.flatnonzero(a_sampled[0]),
                                      ref.loops["a"].sample_times)
        np.testing.assert_array_equal(np.flatnonzero(b_sampled[0]),
                                      ref.loops["b"].sample_times)
        np.testing.assert_array_equal(b_states[0], ref.loops["b"].states)


_README_ALPHAS = [0, 0.05, 0.25, 1.3, 5, 25, 50, 500, 1e4, 1e6]


def _refuse_alpha_1_3(monkeypatch):
    def build(sys, weights, *args, **kwargs):
        if weights.alpha == 1.3:
            raise SynthesisError("refused for this test")
        return build_gain_table(sys, weights, *args, **kwargs)

    monkeypatch.setattr(simulator, "build_gain_table", build)


def _noisy_two_loop():
    scn, _ = load_scenario(SCENARIOS / "two_loop.json")
    return replace(scn, loops=tuple(replace(spec, x0=None, x0_variance=4.0, noise_variance=0.1)
                                    for spec in scn.loops))


def _assert_same_statistics(summary, expected):
    for field in ("alphas", "n_runs", "mean_interval", "se_interval", "mean_cost", "se_cost",
                  "errors"):
        assert getattr(summary, field) == getattr(expected, field), field


class TestMergedSweep:
    """Every (alpha, run) row of a sweep, and of its periodic baseline, runs
    in one event loop; the statistics equal those of one event loop per
    alpha and one per periodic run, to the bit."""

    @pytest.mark.parametrize("case", ["integrator-sweep", "two-loop-noisy", "channel",
                                      "readme-refused"])
    def test_statistics_equal_the_oracles(self, case, monkeypatch):
        if case == "readme-refused":
            _refuse_alpha_1_3(monkeypatch)
        scn, alphas, n_runs = {
            "integrator-sweep": lambda: (replace(_integrator_sweep_scenario(), horizon=200),
                                         _README_ALPHAS, 20),
            "two-loop-noisy": lambda: (_noisy_two_loop(), [0.0, 0.2, 1.0, 5.0, 20.0], 8),
            "channel": lambda: (_channel_scenario(), [0.0, 0.5, 5.0, 20.0], 4),
            "readme-refused": lambda: (load_scenario(SCENARIOS / "integrator_sweep.json")[0],
                                       _README_ALPHAS, 20),
        }[case]()
        summary, baseline = sweep(scn, alphas, n_runs)
        expected = oracle_sweep_alpha(scn, alphas, n_runs)
        _assert_same_statistics(summary, expected)
        _assert_same_statistics(baseline, oracle_periodic_baseline(scn, expected))
        assert list(summary.errors) == ([1.3] if case == "readme-refused" else [])

    def test_chunks_of_whole_alphas_equal_the_oracles(self, monkeypatch):
        scn, alphas, n_runs = _channel_scenario(), [0.0, 0.5, 5.0], 3
        expected = oracle_sweep_alpha(scn, alphas, n_runs)
        expected = expected, oracle_periodic_baseline(scn, expected)
        rows = []
        event_loop = simulator._event_loop

        def counted(scn, first_samples, policy, keys, draws):
            rows.append([ai for ai, _ in keys])
            return event_loop(scn, first_samples, policy, keys, draws)

        monkeypatch.setattr(simulator, "_event_loop", counted)
        for per_chunk in (None, 2, 1):
            if per_chunk is not None:
                monkeypatch.setattr(simulator, "_ROW_STEPS", per_chunk * n_runs * scn.horizon)
            rows.clear()
            summary, baseline = sweep(scn, alphas, n_runs)
            _assert_same_statistics(summary, expected[0])
            _assert_same_statistics(baseline, expected[1])
            chunks = {None: [[0, 1, 2]], 2: [[0, 1], [2]], 1: [[0], [1], [2]]}[per_chunk]
            assert rows == [[ai for ai in chunk for _ in range(n_runs)]
                            for chunk in chunks for _ in range(2)]

    def test_one_sweep_of_both_laws_in_chunks_equals_the_oracles(self, monkeypatch):
        # Each chunk is drawn once, then runs its adaptive rows and, on the
        # same draws, its periodic rows.
        scn, alphas, n_runs = replace(_noisy_two_loop(), horizon=30), [0.0, 0.5, 5.0], 3
        expected = oracle_sweep_alpha(scn, alphas, n_runs)
        expected = expected, oracle_periodic_baseline(scn, expected)
        calls, event_loop, draws = [], simulator._event_loop, simulator._draws

        def counted_loop(scn, first_samples, policy, keys, drawn):
            calls.append(("loop", [ai for ai, _ in keys], id(drawn)))
            return event_loop(scn, first_samples, policy, keys, drawn)

        def counted_draws(scn, keys):
            drawn = draws(scn, keys)
            calls.append(("draws", [ai for ai, _ in keys], id(drawn)))
            return drawn

        monkeypatch.setattr(simulator, "_event_loop", counted_loop)
        monkeypatch.setattr(simulator, "_draws", counted_draws)
        for per_chunk in (None, 2, 1):
            if per_chunk is not None:
                monkeypatch.setattr(simulator, "_ROW_STEPS", per_chunk * n_runs * scn.horizon)
            calls.clear()
            summary, baseline = sweep(scn, alphas, n_runs)
            _assert_same_statistics(summary, expected[0])
            _assert_same_statistics(baseline, expected[1])
            chunks = {None: [[0, 1, 2]], 2: [[0, 1], [2]], 1: [[0], [1], [2]]}[per_chunk]
            assert len(calls) == 3 * len(chunks)
            for c, chunk in enumerate(chunks):
                rows = [ai for ai in chunk for _ in range(n_runs)]
                drawn = calls[3 * c][2]
                assert calls[3 * c:3 * c + 3] == [("draws", rows, drawn), ("loop", rows, drawn),
                                                  ("loop", rows, drawn)]

    def test_draws_are_read_only(self):
        scn = _noisy_two_loop()
        keys = [(0, 0), (0, 1), (2, 0)]
        for spec, (x0, Ew) in zip(scn.loops, _draws(scn, keys)):
            n = spec.system.n
            assert x0.shape == (3, n) and Ew.shape == (3, scn.horizon + scn.gamma, n)
            for drawn in (x0, Ew):
                assert not drawn.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    drawn[0] = 1.0
            assert np.all(Ew[:, scn.horizon:] == 0.0)
        noiseless, _ = load_scenario(SCENARIOS / "two_loop.json")
        for spec, (x0, Ew) in zip(noiseless.loops, _draws(noiseless, keys)):
            assert Ew is None and not x0.flags.writeable
            np.testing.assert_array_equal(x0, np.broadcast_to(spec.x0, x0.shape))

    @staticmethod
    def _assert_stacks_do_not_depend_on_alpha(sys, weights, I0, p):
        first, *others = [build_gain_table(sys, replace(weights, alpha=alpha), I0, p)
                          for alpha in _README_ALPHAS]
        for gt in others:
            assert bits(gt.P_stack) == bits(first.P_stack)
            assert bits(gt.L_stack) == bits(first.L_stack)

    @pytest.mark.parametrize("name", ["integrator_sweep", "integrator_transient", "two_loop"])
    def test_stacks_do_not_depend_on_alpha_in_shipped_scenarios(self, name):
        scn, _ = load_scenario(SCENARIOS / f"{name}.json")
        for spec in scn.loops:
            self._assert_stacks_do_not_depend_on_alpha(spec.system, spec.weights, scn.I0, scn.p)

    def test_stacks_do_not_depend_on_alpha_in_random_plants(self):
        rng = np.random.default_rng(21)
        tested = 0
        for _ in range(40):
            sys = random_system(rng, max_spectral_radius=1.2)
            weights = random_weights(rng, sys.n, sys.m)
            I0 = tuple(range(1, int(rng.integers(2, 7)) + 1))
            try:
                self._assert_stacks_do_not_depend_on_alpha(sys, weights, I0, max(I0))
            except SynthesisError:
                continue
            tested += 1
        assert tested >= 20

    def test_overflow_names_its_alpha_index_and_run(self):
        # Each row waits 2 at k = 0 from x = 0, so x(2) = Ew(0) + Ew(1), and
        # each Ew is finite; at seed 2 the sum leaves the floats in run 0 of
        # alpha index 1 only.
        spec = LoopSpec(name="a", system=LtiSystem(A=[[1.0]], B=[[1.0]], E=[[1e158]]),
                        weights=WeightSpec(Q=[[1.0]], R=[[1.0]]), x0=[0.0],
                        noise_variance=1e300)
        scn = Scenario(loops=(spec,), I0=[1, 2], p=2, horizon=2, seed=2)
        (states, _, _), = _self_triggered_rows(scn, {0: _tables(scn, 0.0)}, [(0, 0), (0, 1)])
        assert np.isfinite(states).all()
        with pytest.raises(ConfigurationError, match=r"^loop 'a': state is not finite from "
                                                     r"step k=2 of run 0, alpha index 1$"):
            sweep(scn, [0.0, 1.0], n_runs=2)



class TestStackedStatistics:
    """``_record_chunk`` takes each statistic of every alpha of a chunk in
    one stacked pass over the chunk's rows; the four statistics, and each
    refusal, equal those taken one alpha and one run at a time, to the bit,
    on rows with no sample, one sample and many."""

    @pytest.mark.parametrize("name, horizon", [
        ("integrator_sweep.json", None), ("integrator_sweep.json", 10),
        ("integrator_transient.json", None), ("two_loop.json", None), ("two_loop.json", 1),
    ])
    def test_sweep_and_baseline_equal_the_per_run_oracle(self, name, horizon, monkeypatch):
        scn, _ = load_scenario(SCENARIOS / name)
        scn = replace(scn, horizon=horizon or min(scn.horizon, 300))
        summary, baseline = sweep(scn, _README_ALPHAS, 6)
        monkeypatch.setattr(simulator, "_record_chunk", oracle_record_chunk)
        expected, expected_baseline = sweep(scn, _README_ALPHAS, 6)
        _assert_same_statistics(summary, expected)
        _assert_same_statistics(baseline, expected_baseline)
        if horizon is not None:
            # The largest alpha waits past the horizon: one sample per row.
            assert summary.mean_interval[scn.loops[0].name][9] == scn.gamma

    # Alpha indices of one chunk, out of step with their positions.
    _CHUNK = [0, 1, 3, 4, 7, 9]

    @staticmethod
    def _scenario(horizon, names="c"):
        # One off-diagonal weight makes the order of the stage-cost sums
        # show in the last bit, which some of the 20 draws carry into the
        # statistics.
        specs = tuple(LoopSpec(name=name, system=LtiSystem(A=np.eye(2), B=[[0.0], [1.0]]),
                               weights=WeightSpec(Q=[[2.0, 0.3], [0.3, 1.0]], R=[[0.7]]),
                               x0=[1.0, 0.0]) for name in names)
        return Scenario(loops=specs, I0=range(1, 4), p=3, horizon=horizon, seed=0)

    @staticmethod
    def _waits(rows, horizon):
        """Row ``r`` samples on the ``r % 6``-th of six patterns: never, at
        the first step, at the last, at both, every other step, every step."""
        waits = np.zeros((rows, horizon), dtype=int)
        patterns = [[], [0], [horizon - 1], [0, horizon - 1], range(0, horizon, 2),
                    range(horizon)]
        for r in range(rows):
            waits[r, list(patterns[r % 6])] = 1
        return waits

    @staticmethod
    def _outcome(record, scn, n_runs, per_loop):
        """The statistics ``record`` stores for :attr:`_CHUNK`, or the text
        of its refusal."""
        stats = simulator._empty_stats([spec.name for spec in scn.loops])
        try:
            record(stats, scn, TestStackedStatistics._CHUNK, n_runs, per_loop)
        except ConfigurationError as exc:
            return str(exc)
        return stats

    @pytest.mark.parametrize("n_runs", [1, 6, 20])
    @pytest.mark.parametrize("horizon", [1, 2, 9])
    def test_rows_with_any_sample_count(self, horizon, n_runs):
        scn = self._scenario(horizon)
        rows = len(self._CHUNK) * n_runs
        waits = self._waits(rows, horizon)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            per_loop = [[rng.normal(size=(rows, horizon + 1, 2)),
                         rng.normal(size=(rows, horizon, 1)), waits]]
            got = self._outcome(simulator._record_chunk, scn, n_runs, per_loop)
            assert isinstance(got, dict)
            assert got == self._outcome(oracle_record_chunk, scn, n_runs, per_loop)

    @pytest.mark.parametrize("n_runs", [1, 2, 5])
    def test_refusals_name_the_first_alpha_then_loop(self, n_runs):
        # A state of 1e200 squares past the largest float in one step; a
        # state of 9e153 squares to 1.62e308, so a row of them has finite
        # stage costs whose sum overflows.
        horizon = 3
        scn = self._scenario(horizon, names="ab")
        rows = len(self._CHUNK) * n_runs
        waits = self._waits(rows, horizon)
        refusals = set()
        for seed in range(40):
            rng = np.random.default_rng(seed)
            per_loop = [[rng.normal(size=(rows, horizon + 1, 2)),
                         rng.normal(size=(rows, horizon, 1)), waits] for _ in "ab"]
            for _ in range(rng.integers(1, 4)):
                states = per_loop[rng.integers(2)][0]
                row = rng.integers(rows)
                if rng.integers(2):
                    states[row, rng.integers(horizon), 0] = 1e200
                else:
                    states[row, :, 0] = 9e153
            got = self._outcome(simulator._record_chunk, scn, n_runs, per_loop)
            assert isinstance(got, str)
            assert got == self._outcome(oracle_record_chunk, scn, n_runs, per_loop)
            refusals.add("statistics overflow" in got)
        assert refusals == {False, True}


def _step_replay(scn, per_loop, alpha_index, runs):
    """Replay each held interval of each loop and run with ``oracle_step``, from
    the state at its start and the run's own substream draws, and compare
    the states it reaches."""
    for j, (spec, (states, inputs, waits)) in enumerate(zip(scn.loops, per_loop)):
        sys = spec.system
        for i, r in enumerate(runs):
            rng = rng_substream(scn.seed, alpha_index, r, j)
            if spec.x0 is None:
                x0 = rng.standard_normal(sys.n) * np.sqrt(spec.x0_variance)
                np.testing.assert_array_equal(states[i][0], x0)
            w = rng.standard_normal((scn.horizon, sys.w)) * np.sqrt(spec.noise_variance)
            starts = sorted({0, *np.flatnonzero(waits[i]).tolist()})
            replay = states[i].copy()
            for k0, k1 in zip(starts, starts[1:] + [scn.horizon]):
                x = states[i][k0]
                for k in range(k0, k1):
                    omega = w[k] if spec.noise_variance > 0.0 else None
                    replay[k + 1] = x = oracle_step(sys, x, inputs[i][k], omega)
            scale = np.max(np.abs(states[i]))
            np.testing.assert_allclose(states[i], replay, rtol=0, atol=1e-12 * scale)


def _as_rows(tr):
    """A one-run trace in the per-loop layout of ``_self_triggered_runs``."""
    waits = np.zeros((1, tr.horizon), dtype=int)
    waits[0, tr.sample_times] = tr.waits
    return [tr.states], [tr.inputs], waits


class TestSegmentStepping:
    """Each decision advances its runs by one lifted map over the largest
    wait; a step-by-step replay of the same inputs and noise agrees."""

    @staticmethod
    def _held_between_samples(inputs, sample_times):
        held = np.ones(len(inputs), dtype=bool)
        held[sample_times] = False
        held[0] = False
        np.testing.assert_array_equal(inputs[held], inputs[np.flatnonzero(held) - 1])

    def test_ledger_run_matches_step_replay(self):
        scn = _channel_scenario()
        trace = _per_run_reference(scn, _tables(scn, 0.5), 0, 0)
        assert {spec.system.n for spec in scn.loops} == {1, 2}
        loops = [trace.loops[spec.name] for spec in scn.loops]
        _step_replay(scn, [_as_rows(tr) for tr in loops], 0, [0])
        for tr in loops:
            self._held_between_samples(tr.inputs, tr.sample_times)

    def test_phase_offset_periodic_run_matches_step_replay(self):
        scn = replace(_channel_scenario(), ts=5)
        trace = run_periodic(scn, alpha_index=2, run_index=1)
        loops = [trace.loops[spec.name] for spec in scn.loops]
        assert [tr.sample_times[0] for tr in loops] == [0, 1, 2, 3]
        _step_replay(scn, [_as_rows(tr) for tr in loops], 2, [1])
        for j, tr in enumerate(loops):
            assert np.all(tr.inputs[:j] == 0.0)
            self._held_between_samples(tr.inputs, tr.sample_times)

    def test_sweep_rows_match_step_replay(self):
        scn = _channel_scenario()
        batch = _self_triggered_rows(scn, {1: _tables(scn, 0.5)}, [(1, r) for r in range(3)])
        _step_replay(scn, batch, 1, range(3))
        for _, inputs, waits in batch:
            for r in range(3):
                self._held_between_samples(inputs[r], np.flatnonzero(waits[r]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_tail_past_the_horizon_is_discarded_silently(self):
        # At ts = 1 the gain shrinks x by about 1e7 a step, but with the
        # input held past the last decision x grows by 1e7 a step, so the
        # segment overflows past the horizon, within the largest wait 50;
        # so do the lifted map's blocks from A^45 on.
        sys = LtiSystem(A=[[1e7]], B=[[1.0]])
        spec = LoopSpec(name="a", system=sys, weights=WeightSpec(Q=[[1.0]], R=[[1.0]]),
                        x0=[1e100])
        scn = Scenario(loops=(spec,), I0=range(1, 51), p=1, horizon=2, seed=0,
                       mode="periodic", ts=1)
        tr = run_periodic(scn).loops["a"]
        assert np.isfinite(tr.states).all() and tr.states.shape == (3, 1)
        x, u = tr.states[-1], tr.inputs[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            tail = [x := sys.A @ x + sys.B @ u for _ in range(scn.gamma)]
        assert not np.isfinite(tail).all()


class TestOneRowBody:
    """One row runs in the event loop's one-row body, chosen by the row
    count alone: a row keyed alone equals the same row of a multi-row event
    loop, bit for bit for a scalar state and within 1e-12 of the state's
    scale for two states, and its policy gets one state vector."""

    @staticmethod
    def _assert_row(scn, alone, rows, r):
        for spec, (states, inputs, waits), (all_states, all_inputs, all_waits) in zip(
                scn.loops, alone, rows):
            assert states.shape[0] == inputs.shape[0] == waits.shape[0] == 1
            np.testing.assert_array_equal(waits[0], all_waits[r])
            if spec.system.n == 1:
                assert bits(states[0]) == bits(all_states[r])
                assert bits(inputs[0]) == bits(all_inputs[r])
            else:
                scale = np.max(np.abs(all_states[r]))
                np.testing.assert_allclose(states[0], all_states[r], rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(inputs[0], all_inputs[r], rtol=0, atol=1e-12 * scale)

    @pytest.mark.parametrize("case", ["channel", "integrator_sweep"])
    def test_periodic_rows(self, case):
        scn = {"channel": _channel_scenario, "integrator_sweep": _integrator_sweep_scenario}[case]()
        s, p = len(scn.loops), scn.p
        keys = [(ai, r) for ai in (0, 2) for r in range(3)]
        periods = [s + (i % (p - s + 1)) for i in range(len(keys))]
        rows, _ = simulator._periodic_runs(scn, keys, periods, _draws(scn, keys))
        for r, key in enumerate(keys):
            alone, _ = simulator._periodic_runs(scn, [key], [periods[r]], _draws(scn, [key]))
            self._assert_row(scn, alone, rows, r)

    @pytest.mark.parametrize("case", ["channel", "two_loop", "integrator_sweep"])
    def test_sweep_law_rows(self, case):
        scn = {"channel": _channel_scenario, "integrator_sweep": _integrator_sweep_scenario,
               "two_loop": lambda: load_scenario(SCENARIOS / "two_loop.json")[0]}[case]()
        tables = {1: _tables(scn, 0.5)}
        keys = [(1, r) for r in range(4)]
        rows = _self_triggered_rows(scn, tables, keys)
        for r, key in enumerate(keys):
            self._assert_row(scn, _self_triggered_rows(scn, tables, [key]), rows, r)

    def test_a_one_row_policy_gets_a_state_vector(self):
        scn = _channel_scenario()
        seen = []

        def policy(j, k, rows, x):
            seen.append((rows, x.shape))
            m = scn.loops[j].system.m
            return (5, np.zeros(m)) if x.ndim == 1 else (np.full(len(x), 5), np.zeros((len(x), m)))

        for keys in ([(0, 0)], [(0, 0), (0, 1)]):
            seen.clear()
            run = _event_loop(scn, [0, 1, 2, 3], policy, keys, _draws(scn, keys))
            shapes = {(spec.system.n,) if len(keys) == 1 else (len(keys), spec.system.n)
                      for spec in scn.loops}
            assert {shape for _, shape in seen} == shapes
            if len(keys) == 1:
                assert {rows for rows, _ in seen} == {0}
            for j, (_, inputs, waits) in enumerate(run):
                np.testing.assert_array_equal(np.flatnonzero(waits[0]),
                                              range(j, scn.horizon, 5))
