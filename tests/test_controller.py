"""Online decision law: cost evaluation, argmin, tie-breaking, partition."""
import dataclasses
import heapq
import json
import warnings

import numpy as np
import pytest

from selftrig import (
    ConfigurationError,
    GainLookupError,
    GainTable,
    LtiSystem,
    ReservationLedger,
    SchedulingError,
    StabilityCertificate,
    SynthesisError,
    WeightSpec,
    build_gain_table,
    decide,
    feasible_set,
    partition_1d,
    reserve,
    serialize_gain_table,
    uncontrollable_reason,
)
from selftrig.controller import _pick, _scores

from conftest import (
    bits,
    oracle_decide,
    oracle_feasible_set,
    oracle_reserve,
    random_system,
    random_weights,
    scalar_table,
)


class TestValues:
    """The predicted cost ``alpha/i + x' P(i) x`` of each wait, as ``decide``
    reports it."""

    def test_scalar_fixture_wait_one(self, integrator_table):
        v = decide(integrator_table, [2.0], integrator_table.I0).values_by_i[1]
        P1, _ = scalar_table(1)
        assert v == pytest.approx(0.2 + 4.0 * P1, rel=1e-12)
        assert abs(v - 7.00) < 0.02

    def test_zero_state_pure_sampling_cost(self, integrator_table):
        v = decide(integrator_table, [0.0], integrator_table.I0).values_by_i[5]
        assert v == pytest.approx(0.04, abs=1e-15)

    def test_scalar_fixture_wait_three(self, integrator_table):
        P3, _ = scalar_table(3)
        v = decide(integrator_table, [2.0], integrator_table.I0).values_by_i[3]
        assert v == pytest.approx(0.2 / 3 + 4.0 * P3, rel=1e-12)
        assert v == pytest.approx(7.6067498, abs=1e-6)

    def test_unknown_wait_raises_lookup_error(self, integrator_table):
        for lookup in (integrator_table.P, integrator_table.L):
            with pytest.raises(GainLookupError, match="no table entry for wait 7"):
                lookup(7)


class TestDecide:
    def test_large_state_prefers_shortest_wait(self, integrator_table):
        dec = decide(integrator_table, [2.0], integrator_table.I0)
        assert dec.i_star == 1
        assert abs(dec.u[0] - (-1.40)) < 0.01
        assert dec.value == dec.values_by_i[1] == min(dec.values_by_i.values())

    def test_zero_state_takes_longest_wait_with_zero_input(self, integrator_table):
        dec = decide(integrator_table, [0.0], [1, 3, 5])
        assert dec.i_star == 5
        assert dec.u[0] == 0.0

    def test_restricted_set(self, integrator_table):
        dec = decide(integrator_table, [2.0], [2, 3, 4, 5])
        assert dec.i_star == 2

    def test_exact_u_matches_gain_row(self, integrator_table):
        x = np.array([0.731])
        dec = decide(integrator_table, x, integrator_table.I0)
        np.testing.assert_array_equal(dec.u, -(integrator_table.L(dec.i_star) @ x))

    def test_empty_feasible_set_is_scheduling_error(self, integrator_table):
        with pytest.raises(SchedulingError):
            decide(integrator_table, [1.0], [])

    def test_feasible_outside_table_is_lookup_error(self, integrator_table):
        with pytest.raises(GainLookupError):
            decide(integrator_table, [1.0], [1, 9])

    def test_state_of_other_dimension_rejected(self, integrator_table):
        with pytest.raises(ConfigurationError, match="x must have length 1, got 2"):
            decide(integrator_table, [1.0, 2.0], integrator_table.I0)

    def test_ties_break_toward_larger_wait(self, integrator, integrator_weights):
        # With zero sampling cost and zero state every wait costs exactly 0.
        w0 = WeightSpec(Q=integrator_weights.Q, R=integrator_weights.R, alpha=0.0)
        gt = build_gain_table(integrator, w0, range(1, 6), 5)
        dec = decide(gt, [0.0], [1, 2, 3])
        assert dec.i_star == 3

    def test_optimality_over_random_subsets(self, integrator_table,
                                            double_integrator_table):
        rng = np.random.default_rng(77)
        for gt in (integrator_table, double_integrator_table):
            for _ in range(50):
                x = rng.normal(0, 3.0, gt.n)
                size = int(rng.integers(1, len(gt.I0) + 1))
                feasible = sorted(rng.choice(gt.I0, size=size, replace=False))
                dec = decide(gt, x, feasible)
                assert dec.i_star in feasible
                for j in feasible:
                    assert dec.value <= oracle_decide(gt, x, [j])[2]

    def test_restriction_never_improves_value(self, double_integrator_table):
        rng = np.random.default_rng(78)
        gt = double_integrator_table
        for _ in range(50):
            x = rng.normal(0, 3.0, gt.n)
            full = decide(gt, x, gt.I0)
            size = int(rng.integers(1, len(gt.I0) + 1))
            subset = sorted(rng.choice(gt.I0, size=size, replace=False))
            assert decide(gt, x, subset).value >= full.value - 1e-15

    def test_argmin_nondecreasing_in_alpha(self, integrator, integrator_weights):
        x = [2.0]
        previous = 0
        for alpha in np.linspace(0.0, 40.0, 60):
            w = WeightSpec(Q=integrator_weights.Q, R=integrator_weights.R,
                           alpha=float(alpha))
            gt = build_gain_table(integrator, w, range(1, 6), 5)
            i_star = decide(gt, x, gt.I0).i_star
            assert i_star >= previous
            previous = i_star


class TestPartition:
    def test_far_state_uses_shortest_wait(self, integrator_table):
        assert partition_1d(integrator_table, [10.0])[0] == 1
        assert partition_1d(integrator_table, [-10.0])[0] == 1

    def test_origin_uses_longest_wait(self, integrator_table):
        assert partition_1d(integrator_table, [0.0])[0] == 5

    def test_switch_between_one_and_two_matches_closed_form(self, integrator_table):
        # The waits 1 and 2 trade places where alpha/1 + P1 x^2 = alpha/2 + P2 x^2,
        # i.e. |x| = sqrt(0.1 / (P2 - P1)).
        P1, _ = scalar_table(1)
        P2, _ = scalar_table(2)
        boundary = np.sqrt(0.1 / (P2 - P1))
        grid = np.linspace(1.0, 2.5, 3001)
        regions = partition_1d(integrator_table, grid)
        switches = np.nonzero(np.diff(regions))[0]
        assert len(switches) == 1
        crossing = 0.5 * (grid[switches[0]] + grid[switches[0] + 1])
        assert regions[switches[0]] == 2 and regions[switches[0] + 1] == 1
        assert abs(crossing - boundary) <= grid[1] - grid[0]

    def test_matches_brute_force_argmin(self, integrator_table):
        grid = np.linspace(-3.0, 3.0, 101)
        regions = partition_1d(integrator_table, grid)
        for x, i_star in zip(grid, regions):
            values = oracle_decide(integrator_table, [x], integrator_table.I0)[3]
            best = min(values.values())
            winners = [i for i, v in values.items() if v == best]
            assert i_star == max(winners)

    def test_rejects_vector_states(self, double_integrator_table):
        with pytest.raises(ConfigurationError):
            partition_1d(double_integrator_table, [0.0, 1.0])


def test_decisions_invariant_under_joint_weight_scaling():
    rng = np.random.default_rng(55)
    for _ in range(10):
        sys = random_system(rng, n_max=3, max_spectral_radius=1.2)
        w = random_weights(rng, sys.n, sys.m)
        p = 3
        if uncontrollable_reason(sys, p) is not None:
            continue
        c = float(rng.uniform(0.01, 100.0))
        scaled = WeightSpec(Q=c * w.Q, R=c * w.R, alpha=c * w.alpha)
        gt = build_gain_table(sys, w, range(1, p + 1), p)
        gt_c = build_gain_table(sys, scaled, range(1, p + 1), p)
        for _ in range(10):
            x = rng.normal(0, 2.0, sys.n)
            assert decide(gt, x, gt.I0).i_star == decide(gt_c, x, gt_c.I0).i_star


def _random_tables(n, count=3, seed=0):
    """Tables of random controllable plants with exactly ``n`` states."""
    rng = np.random.default_rng(seed + 10 * n)
    tables = []
    while len(tables) < count:
        A = rng.normal(0, 1.0, (n, n))
        A *= min(1.0, 1.2 / max(abs(np.linalg.eigvals(A))))
        sys = LtiSystem(A=A, B=rng.normal(0, 1.0, (n, int(rng.integers(1, 3)))))
        p = int(rng.integers(2, 7))
        if uncontrollable_reason(sys, p) is not None:
            continue
        w = random_weights(rng, sys.n, sys.m)
        tables.append(build_gain_table(sys, w, range(1, p + 1), p))
    return tables


def _run_axis_picks(gt, states, feasible_sets):
    """The run-axis pick of each row of ``states``, each within its own
    feasible waits."""
    taken = np.array([[i not in feas for i in gt.I0] for feas in feasible_sets])
    return [gt.I0[row] for row in _pick(_scores(gt, np.asarray(states, dtype=float)), taken)]


class TestStackedScores:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decide_and_the_oracle_compare_the_same_floats(self, n):
        rng = np.random.default_rng(90 + n)
        for gt in _random_tables(n):
            states, sets, picks = [], [], []
            for _ in range(20):
                x = rng.normal(0, 3.0, n)
                size = int(rng.integers(1, len(gt.I0) + 1))
                feasible = sorted(rng.choice(gt.I0, size=size, replace=False))
                dec = decide(gt, x, feasible)
                assert sorted(dec.values_by_i) == [int(i) for i in feasible]
                assert dec.values_by_i == oracle_decide(gt, x, feasible)[3]
                states.append(x)
                sets.append(feasible)
                picks.append(dec.i_star)
            # The run-axis pick of all the states at once chooses alike.
            assert _run_axis_picks(gt, states, sets) == picks

    def test_scalar_values_are_the_table_formula_bit_for_bit(self, integrator_table):
        rng = np.random.default_rng(93)
        for gt in (integrator_table, *_random_tables(1)):
            for x0 in (0.0, *rng.normal(0, 3.0, 20)):
                dec = decide(gt, [x0], gt.I0)
                for i in gt.I0:
                    expected = gt.alpha / i + x0 * gt.P(i)[0, 0] * x0
                    assert dec.values_by_i[i] == expected
                    assert _scores(gt, np.array([x0]))[gt.rows[i]] == expected

    def test_stacks_are_read_only_rows_of_the_table(self, double_integrator_table):
        gt = double_integrator_table
        assert gt.P_stack.shape == (len(gt.I0), gt.n, gt.n)
        assert gt.L_stack.shape == (len(gt.I0), gt.m, gt.n)
        assert dict(gt.rows) == {i: r for r, i in enumerate(gt.I0)}
        for i in gt.I0:
            r = gt.rows[i]
            np.testing.assert_array_equal(gt.P_stack[r], gt.P(i))
            np.testing.assert_array_equal(gt.L_stack[r], gt.L(i))
            assert gt.costs[r] == gt.alpha / i
        for stack in (gt.P_stack, gt.L_stack, gt.costs):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0] = 0.0
        with pytest.raises(TypeError):
            gt.rows[99] = 0

    def test_costs_are_derived_and_stacks_take_no_part_in_equality(
        self, integrator_table, double_integrator, double_integrator_weights
    ):
        # Tables compare by identity, so two builds with n > 1 compare
        # without an array truth test, and every table hashes.
        a, b = (build_gain_table(double_integrator, double_integrator_weights,
                                 range(1, 6), 5) for _ in range(2))
        assert a != b and a == a
        assert hash(a) == hash(a)
        gt = integrator_table
        assert "P_stack" not in repr(gt)
        with pytest.raises(TypeError):
            GainTable(loop_id="x", alpha=0.0, P_stack=gt.P_stack, L_stack=gt.L_stack,
                      p=gt.p, Pp=gt.Pp, Lp=gt.Lp, I0=gt.I0, costs=gt.costs)
        doubled = dataclasses.replace(gt, alpha=2.0 * gt.alpha)
        np.testing.assert_array_equal(doubled.costs, 2.0 * gt.alpha / np.array(gt.I0))
        assert doubled.P_stack is not gt.P_stack

    def test_serialization_is_unchanged(self):
        P, L = np.array([[2.0]]), np.array([[0.5]])
        gt = GainTable(loop_id="a", alpha=0.25, P_stack=[P, 2 * P], L_stack=[L, L],
                       p=2, Pp=2 * P, Lp=L, I0=(1, 2))
        cert = StabilityCertificate(pstar=2, epsilon=0.125, lower_bound=0.0,
                                    upper_bound=1.0, per_i_ratio={}, Si={})
        assert json.loads(serialize_gain_table(gt, cert)) == {
            "schema_version": 1, "loop_id": "a", "n": 1, "m": 1, "alpha": 0.25,
            "p": 2, "I0": [1, 2],
            "entries": [{"i": 1, "P": [2.0], "L": [0.5]},
                        {"i": 2, "P": [4.0], "L": [0.5]}],
            "Pp": [4.0], "Lp": [0.5], "epsilon": 0.125, "pstar": 2,
        }

    def test_decision_holds_python_scalars(self, double_integrator_table):
        gt = double_integrator_table
        dec = decide(gt, np.array([0.3, -1.2]), np.array([1, 2, 4]))
        assert type(dec.i_star) is int
        assert type(dec.value) is float
        assert all(type(i) is int and type(v) is float
                   for i, v in dec.values_by_i.items())
        assert "np." not in repr(dec.value) + repr(dec.values_by_i)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_partition_is_decide_over_the_whole_table(self):
        rng = np.random.default_rng(94)
        for gt in _random_tables(1):
            # At +-1e200 every score overflows to inf.
            grid = np.concatenate([[0.0, 1e200, -1e200], rng.normal(0, 5.0, 200)])
            expected = [decide(gt, [x], gt.I0).i_star for x in grid]
            assert partition_1d(gt, grid).tolist() == expected

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [[0.0], [1.0]]],
                             ids=["non-finite", "not-a-vector"])
    def test_partition_refuses_bad_grids(self, integrator_table, grid):
        with pytest.raises(ConfigurationError):
            partition_1d(integrator_table, grid)


@pytest.mark.parametrize("x", [[np.inf, -np.inf], [np.nan, 0.0], [np.inf]],
                         ids=["inf-and-minus-inf", "nan", "inf-of-the-wrong-length"])
@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
def test_decide_refuses_a_state_that_is_not_finite(double_integrator_table, x, as_array):
    # The refusal comes before the length check and before any score, so no
    # floating-point warning escapes, whatever the form of x.
    gt = double_integrator_table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=r"^x has non-finite entries$"):
            decide(gt, np.array(x) if as_array else x, gt.I0)


def _fixed_table(P_by_wait):
    """A table over the waits 1..len(P_by_wait) holding the given ``P(i)``
    and zero gains."""
    k, n = len(P_by_wait), len(P_by_wait[0])
    return GainTable(loop_id="fixed", alpha=0.0, P_stack=P_by_wait,
                     L_stack=np.zeros((k, 1, n)), p=k, Pp=P_by_wait[-1],
                     Lp=np.zeros((1, n)), I0=tuple(range(1, k + 1)))


# The state and the P(i) of the two-state cases with undefined scores.
_HUGE_X = [1e160, 3e160]
_COUPLED = [[2.0, -1.0], [-1.0, 2.0]]
_TINY = (1e-200 * np.eye(2)).tolist()


class TestTwoFormsOfThePick:
    """One state takes ``decide``'s scalar loop, a run axis takes ``_pick``;
    both must choose the same wait."""

    @pytest.mark.parametrize("table, x, feasible, i_star", [
        pytest.param([[[1.0]]] * 4, [0.0], [1, 2, 3, 4], 4, id="exact-tie"),
        pytest.param([[[1.0]]] * 4, [0.0], [1, 3], 3, id="exact-tie-subset"),
        pytest.param([[[1.0]], [[2.0]], [[1.0]]], [1.0], [1, 2, 3], 3,
                     id="tie-beyond-a-worse-wait"),
        pytest.param([[[1.0]]] * 3, [1e200], [1, 2, 3], 3, id="all-inf"),
        pytest.param([[[1.0]]] * 3, [1e200], [1, 2], 2, id="all-inf-subset"),
        pytest.param([_COUPLED] * 3, _HUGE_X, [1, 2, 3], 3, id="all-nan"),
        pytest.param([_COUPLED] * 3, _HUGE_X, [1, 2], 2, id="all-nan-subset"),
        pytest.param([_COUPLED, _TINY, _TINY], _HUGE_X, [1, 2, 3], 3, id="mixed-nan"),
        pytest.param([_COUPLED, _TINY, _COUPLED], _HUGE_X, [1, 2, 3], 2,
                     id="mixed-nan-finite-in-between"),
        pytest.param([_COUPLED, _TINY, _COUPLED], _HUGE_X, [1, 3], 3,
                     id="nan-only-left"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_ties_and_undefined_scores(self, table, x, feasible, i_star):
        gt = _fixed_table(table)
        dec = decide(gt, x, feasible)
        assert dec.i_star == i_star
        assert _run_axis_picks(gt, [x], [feasible]) == [i_star]
        # The decision still reports the raw score of its wait.
        np.testing.assert_equal(dec.value, oracle_decide(gt, x, [i_star])[2])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_undefined_scores_lose_to_finite_ones_and_beat_taken_waits(self):
        gt = _fixed_table([_COUPLED, _TINY, _COUPLED])
        scores = _scores(gt, np.array([_HUGE_X] * 3))
        assert np.isnan(scores[:, [0, 2]]).all() and np.isfinite(scores[:, 1]).all()
        taken = np.array([[False, False, False], [False, True, False], [True, True, True]])
        # A taken wait ranks above every score; with every wait taken the
        # rule still names a row, the largest wait.
        assert _pick(scores, taken).tolist() == [1, 2, 2]


def _outcome(call):
    """``('ok', result)``, or ``('raised', type, message)``."""
    try:
        return "ok", call()
    except Exception as exc:  # every refusal is compared, whatever its type
        return "raised", type(exc), str(exc)


def _decided(gt, x, feasible) -> tuple:
    """``decide``'s decision as the oracle's tuple; its input is read-only."""
    dec = decide(gt, x, feasible)
    assert not dec.u.flags.writeable
    return dec.i_star, dec.u, dec.value, dec.values_by_i


def _decision_bits(i_star, u, value, values) -> tuple:
    """A decision with each number as its repr or its float bytes."""
    return (repr(i_star), bits(u), bits([value]), repr(list(values)),
            bits(list(values.values())))


def _set_repr(feas) -> str:
    """A feasible set by its type and its sorted waits, each with its type."""
    return f"{type(feas).__name__}{sorted(feas)!r}"


def _law_outcomes(ledger, name, k, gt, x, feasible, wait):
    """The outcomes of one decision's three calls through the package and
    through the oracle, with the feasible set, decision and booking as
    plain data."""
    def calls(fs, dec, book):
        return (
            _outcome(lambda: _set_repr(fs(ledger, name, k))),
            _outcome(lambda: _decision_bits(*dec(gt, x, feasible))),
            _outcome(lambda: repr(dict(book(ledger, name, k, wait)))),
        )
    new = calls(feasible_set, _decided, lambda *a: reserve(*a).next_tx)
    return new, calls(oracle_feasible_set, oracle_decide, oracle_reserve)


def _draw_state(rng, n):
    """Zero, ordinary, huge with random signs (scores overflow to inf or
    NaN), or of any magnitude from 1e-300 to 1e300."""
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return np.zeros(n)
    if kind == 1:
        return rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == 2:
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(150.0, 300.0)
    return rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-300.0, 300.0)


def _as_given(rng, x):
    """``x`` as a 1-D float64 array, a strided view of one, or one of the
    other accepted forms."""
    form = int(rng.integers(0, 6))
    return (x, np.stack([x, x], axis=1)[:, 0], x.tolist(), tuple(x.tolist()),
            x.astype(np.float32), x.astype(np.int64))[form]


def _feasible_as_given(rng, feas, gt):
    """The feasible set as ``feasible_set`` returns it or in another form,
    sometimes widened to waits the table has or lacks."""
    form = int(rng.integers(0, 7))
    if form == 5:
        return gt.I0
    if form == 6:
        return feas | {gt.gamma + 1}
    waits = sorted(feas)
    return (feas, feas, waits, tuple(reversed(waits)), np.array(waits),
            {np.int64(i) for i in waits})[form]


class TestOnlineLawMatchesOracle:
    """``feasible_set`` -> ``decide`` -> ``reserve`` against the oracle law in
    ``conftest``: equal sets, bit-identical decisions and bookings, and the
    same refusal, type and message, wherever either refuses."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_random_tables_ledgers_and_states(self):
        rng = np.random.default_rng(19)
        tables = refused = 0
        while tables < 40:
            sys = random_system(rng, n_max=4, m_max=2, max_spectral_radius=1.5)
            s = int(rng.integers(1, 5))
            gamma = int(rng.integers(max(s, 2), 9))
            I0 = [i for i in range(1, gamma + 1) if i <= s or i == gamma or rng.random() < 0.5]
            p = int(rng.choice([i for i in I0 if i >= s]))
            try:
                gt = build_gain_table(sys, random_weights(rng, sys.n, sys.m), I0, p)
            except SynthesisError:
                continue
            tables += 1
            names = ("a", "b", "c", "d")[:s]
            ledger = ReservationLedger(p=p, I0=I0, loop_order=names, next_tx={})
            # The event loop's order: at k = 0 every loop in turn, then each
            # loop at its reserved slot.
            events = [(0, j) for j in range(s)]
            for _ in range(60):
                k, j = heapq.heappop(events)
                name = names[j]
                x = _draw_state(rng, gt.n)
                feas = oracle_feasible_set(ledger, name, k)
                i_star = oracle_decide(gt, x, feas)[0]
                # Now and then a decision past its own slot, or a wait
                # that may be infeasible.
                k_call = k + int(rng.integers(1, 3)) if rng.random() < 0.1 else k
                wait = int(rng.choice(I0)) if rng.random() < 0.2 else i_star
                new, old = _law_outcomes(ledger, name, k_call, gt, _as_given(rng, x),
                                         _feasible_as_given(rng, feas, gt), wait)
                assert new == old, (k_call, name, x, feas, wait)
                refused += sum(outcome[0] == "raised" for outcome in new)
                if new[2][0] != "ok":
                    k_call, wait = k, i_star
                ledger = reserve(ledger, name, k_call, wait)
                heapq.heappush(events, (k_call + wait, j))
        assert refused > 0

    def test_ledgers_made_by_replace_and_reserve_chains(self):
        # p up to three times the largest wait, so that residues modulo p
        # are missing from I0; ledgers come from chains of reserve (which
        # share one residue table) and from dataclasses.replace (which
        # builds its own), now and then with another p or I0.
        rng = np.random.default_rng(28)
        replaced = 0
        for _ in range(60):
            s = int(rng.integers(1, 5))
            gamma = int(rng.integers(max(s, 2), 13))
            I0 = [i for i in range(1, gamma + 1) if i <= s or i == gamma or rng.random() < 0.4]
            p = int(rng.integers(s, 3 * gamma + 1))
            names = ("a", "b", "c", "d")[:s]
            ledger = ReservationLedger(p=p, I0=I0, loop_order=names, next_tx={})
            events = [(0, j) for j in range(s)]
            for _ in range(40):
                k, j = heapq.heappop(events)
                for name in names:
                    assert _outcome(lambda: _set_repr(feasible_set(ledger, name, k))) \
                        == _outcome(lambda: _set_repr(oracle_feasible_set(ledger, name, k)))
                wait = int(rng.choice(sorted(oracle_feasible_set(ledger, names[j], k))))
                ledger = reserve(ledger, names[j], k, wait)
                heapq.heappush(events, (k + wait, j))
                if rng.random() < 0.2:
                    # Any p of at least s and any I0 holding 1..s keep the
                    # reservations admissible.
                    change = [{}, {"p": int(rng.integers(s, 3 * gamma + 1))},
                              {"I0": sorted({*range(1, s + 1), *rng.choice(I0, 2).tolist()})}]
                    ledger = dataclasses.replace(ledger, **change[int(rng.integers(0, 3))])
                    replaced += 1
        assert replaced > 0

    @pytest.mark.parametrize("next_tx, k", [
        ({}, 0),
        ({"b": 10**12 + 1}, 0),
        ({"b": 10**12 + 1}, 10**12),
        ({"a": 5, "b": 3 * 10**12 + 2}, 5),
        ({"a": 2 * 10**12, "b": 7}, 7),
    ])
    def test_a_period_far_past_the_waits_builds_at_once(self, next_tx, k):
        # The residue table is sized by |I0|, not by p.
        ledger = ReservationLedger(p=10**12, I0=(1, 2), loop_order=("a", "b"),
                                   next_tx=next_tx)
        for name in ("a", "b"):
            assert _outcome(lambda: _set_repr(feasible_set(ledger, name, k))) \
                == _outcome(lambda: _set_repr(oracle_feasible_set(ledger, name, k)))

    @pytest.mark.parametrize("law, args", [
        ("feasible_set", ("zz", 0)),
        ("feasible_set", ("a", 2.5)),
        ("feasible_set", ("a", True)),
        ("feasible_set", ("a", np.float64(1.0))),
        ("feasible_set", ("a", 4)),
        ("feasible_set", ("b", np.int64(3))),
        ("decide", ([1.0, 2.0], [])),
        ("decide", ([1.0, 2.0], frozenset())),
        ("decide", ([1.0, 2.0], 3)),
        ("decide", ([1.0, 2.0], [1.5])),
        ("decide", ([1.0, 2.0], [True, 1])),
        ("decide", ([1.0, 2.0], frozenset({True, 2}))),
        ("decide", ([1.0, 2.0], frozenset({np.int64(1), 2}))),
        ("decide", ([1.0, 2.0], [0, 1])),
        ("decide", ([1.0, 2.0], frozenset({0, 1}))),
        ("decide", ([1.0, 2.0], frozenset({-1, 2}))),
        ("decide", ([1.0, 2.0], [9])),
        ("decide", ([1.0, 2.0], frozenset({1, 9, 8}))),
        ("decide", ([np.nan, 2.0], [9])),
        ("decide", ([1.0], [1])),
        ("decide", ([1.0, 2.0, 3.0], frozenset({1}))),
        ("decide", ([np.nan, 2.0], frozenset({1}))),
        ("decide", (np.array([np.inf, 2.0]), frozenset({1}))),
        ("decide", ([[1.0, 2.0]], frozenset({1}))),
        ("decide", ([[1.0], [1.0, 2.0]], frozenset({1}))),
        ("decide", ([10**400, 1.0], frozenset({1}))),
        ("reserve", ("a", 3, 2.0)),
        ("reserve", ("a", 3, True)),
        ("reserve", ("a", 3, "1")),
        ("reserve", ("b", 3, 5)),
        ("reserve", ("b", 3, 9)),
        ("reserve", ("zz", 3, 1)),
        ("reserve", ("a", 2.5, 1)),
        ("reserve", ("a", 4, 1)),
        ("reserve", ("b", np.int64(3), np.int64(2))),
    ])
    def test_each_refusal_keeps_its_type_and_message(self, double_integrator_table,
                                                     law, args):
        ledger = ReservationLedger(p=5, I0=range(1, 6), loop_order=("a", "b"),
                                   next_tx={"a": 3, "b": 6})
        laws = {
            "feasible_set": (lambda *a: _set_repr(feasible_set(ledger, *a)),
                             lambda *a: _set_repr(oracle_feasible_set(ledger, *a))),
            "decide": (lambda *a: _decision_bits(*_decided(double_integrator_table, *a)),
                       lambda *a: _decision_bits(*oracle_decide(double_integrator_table, *a))),
            "reserve": (lambda *a: repr(dict(reserve(ledger, *a).next_tx)),
                        lambda *a: repr(oracle_reserve(ledger, *a))),
        }
        new, old = laws[law]
        assert _outcome(lambda: new(*args)) == _outcome(lambda: old(*args))
