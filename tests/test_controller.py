"""Online decision law: cost evaluation, argmin, tie-breaking, partition."""
import dataclasses
import json

import numpy as np
import pytest

from selftrig import (
    ConfigurationError,
    GainLookupError,
    GainTable,
    LtiSystem,
    SchedulingError,
    StabilityCertificate,
    WeightSpec,
    build_gain_table,
    decide,
    downsampled_controllable,
    partition_1d,
    serialize_gain_table,
    value_of,
)

from conftest import random_system, random_weights, scalar_table


class TestValueOf:
    def test_scalar_fixture_wait_one(self, integrator_table):
        v = value_of(integrator_table, [2.0], 1)
        P1, _ = scalar_table(1)
        assert v == pytest.approx(0.2 + 4.0 * P1, rel=1e-12)
        assert abs(v - 7.00) < 0.02

    def test_zero_state_pure_sampling_cost(self, integrator_table):
        assert value_of(integrator_table, [0.0], 5) == pytest.approx(0.04, abs=1e-15)

    def test_scalar_fixture_wait_three(self, integrator_table):
        P3, _ = scalar_table(3)
        v = value_of(integrator_table, [2.0], 3)
        assert v == pytest.approx(0.2 / 3 + 4.0 * P3, rel=1e-12)
        assert v == pytest.approx(7.6067498, abs=1e-6)

    def test_unknown_wait_raises_lookup_error(self, integrator_table):
        with pytest.raises(GainLookupError):
            value_of(integrator_table, [1.0], 7)


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
                    assert dec.value <= value_of(gt, x, j)

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
            values = {i: value_of(integrator_table, [x], i)
                      for i in integrator_table.I0}
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
        if not downsampled_controllable(sys, p):
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
        if not downsampled_controllable(sys, p):
            continue
        w = random_weights(rng, sys.n, sys.m)
        tables.append(build_gain_table(sys, w, range(1, p + 1), p))
    return tables


class TestStackedScores:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decide_and_value_of_compare_the_same_floats(self, n):
        rng = np.random.default_rng(90 + n)
        for gt in _random_tables(n):
            for _ in range(20):
                x = rng.normal(0, 3.0, n)
                size = int(rng.integers(1, len(gt.I0) + 1))
                feasible = sorted(rng.choice(gt.I0, size=size, replace=False))
                dec = decide(gt, x, feasible)
                assert sorted(dec.values_by_i) == [int(i) for i in feasible]
                for i in feasible:
                    assert dec.values_by_i[i] == value_of(gt, x, i)

    def test_scalar_values_are_the_table_formula_bit_for_bit(self, integrator_table):
        rng = np.random.default_rng(93)
        for gt in (integrator_table, *_random_tables(1)):
            for x0 in (0.0, *rng.normal(0, 3.0, 20)):
                dec = decide(gt, [x0], gt.I0)
                for i in gt.I0:
                    expected = gt.alpha / i + x0 * gt.P(i)[0, 0] * x0
                    assert dec.values_by_i[i] == expected
                    assert value_of(gt, [x0], i) == expected

    def test_stacks_are_read_only_rows_of_the_entries(self, double_integrator_table):
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

    def test_stacks_take_no_part_in_construction_or_equality(
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
            GainTable(loop_id="x", alpha=0.0, entries=gt.entries, p=gt.p, Pp=gt.Pp,
                      Lp=gt.Lp, I0=gt.I0, costs=gt.costs)
        doubled = dataclasses.replace(gt, alpha=2.0 * gt.alpha)
        np.testing.assert_array_equal(doubled.costs, 2.0 * gt.alpha / np.array(gt.I0))
        assert doubled.P_stack is not gt.P_stack

    def test_serialization_is_unchanged(self):
        P, L = np.array([[2.0]]), np.array([[0.5]])
        gt = GainTable(loop_id="a", alpha=0.25, entries={1: (P, L), 2: (2 * P, L)},
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
        assert type(value_of(gt, [0.3, -1.2], np.int64(2))) is float

    def test_partition_is_decide_over_the_whole_table(self):
        rng = np.random.default_rng(94)
        for gt in _random_tables(1):
            grid = np.concatenate([[0.0], rng.normal(0, 5.0, 200)])
            expected = [decide(gt, [x], gt.I0).i_star for x in grid]
            assert partition_1d(gt, grid).tolist() == expected

    @pytest.mark.parametrize("grid", [[0.0, np.nan], [[0.0], [1.0]]],
                             ids=["non-finite", "not-a-vector"])
    def test_partition_refuses_bad_grids(self, integrator_table, grid):
        with pytest.raises(ConfigurationError):
            partition_1d(integrator_table, grid)
