"""Synthesis: Riccati solve, gain tables, admissibility, certificates, serialization."""
import dataclasses
import json
import re
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from selftrig import (
    CertificateError,
    ConfigurationError,
    GainLookupError,
    GainTable,
    LtiSystem,
    SynthesisError,
    WeightSpec,
    build_gain_table,
    deserialize_gain_table,
    is_controllable,
    lift_range,
    select_pstar,
    serialize_gain_table,
    solve_periodic_riccati,
    stability_certificate,
    uncontrollable_reason,
)
from selftrig import model, simulator, synthesis
from selftrig.scenario import load_scenario
from selftrig.simulator import _segment_map, sweep
from selftrig.synthesis import _accept_riccati, _gain_from

from conftest import (
    bits,
    oracle_certificate,
    oracle_gain_entries,
    oracle_held_cost,
    oracle_is_symmetric,
    oracle_lift,
    oracle_serialize_gain_table,
    oracle_transition_pairs,
    random_stored_table,
    random_system,
    random_weights,
    scalar_periodic_value,
    scalar_table,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def random_lift_controllable(rng, p_max=4, n_max=3):
    """Random controllable system that stays controllable at a random period."""
    while True:
        sys = random_system(rng, n_max=n_max, max_spectral_radius=1.2)
        p = int(rng.integers(1, p_max + 1))
        if uncontrollable_reason(sys, p) is None:
            return sys, p


class TestControllability:
    def test_unit_integrator_all_factors(self, integrator):
        for i in range(1, 6):
            assert uncontrollable_reason(integrator, i) is None

    def test_minus_one_fails_at_even_powers(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        assert uncontrollable_reason(sys, 1) is None
        reason = uncontrollable_reason(sys, 2)
        assert "eigenvalue" in reason and "power 2" in reason

    def test_uncontrollable_base_pair_reported_distinctly(self):
        sys = LtiSystem(A=[[1.0, 0.0], [0.0, 2.0]], B=[[0.0], [1.0]])
        assert not is_controllable(sys.A, sys.B)
        assert uncontrollable_reason(sys, 3) == "base pair (A, B) is not controllable"

    def test_double_integrator_at_five_matches_rank_oracle(self, double_integrator):
        Ai, Bi = oracle_transition_pairs(double_integrator, 5)[-1]
        ctrb = np.hstack([Bi, Ai @ Bi])
        assert np.linalg.matrix_rank(ctrb) == 2
        assert uncontrollable_reason(double_integrator, 5) is None


class TestSelectPstar:
    def test_single_integrator(self, integrator):
        assert select_pstar([integrator], range(1, 6)) == 5

    def test_integrator_pair(self, integrator, double_integrator):
        assert select_pstar([integrator, double_integrator], range(1, 6)) == 5

    def test_skips_roots_of_unity(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        assert select_pstar([sys], [1, 2, 3]) == 3
        assert select_pstar([sys], [1, 2, 4]) == 1

    def test_error_names_offending_eigenvalue(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        with pytest.raises(SynthesisError, match="-1"):
            select_pstar([sys], [2, 4])

    def test_a_power_that_overflows_is_no_root_of_unity(self):
        # 1e200**i overflows from i = 2; the suite turns warnings into
        # errors, so an overflow warning would fail this test.
        sys = LtiSystem(A=[[1e200]], B=[[1.0]])
        assert select_pstar([sys], range(1, 6)) == 5
        assert [uncontrollable_reason(sys, i) for i in range(1, 6)] == [None] * 5
        # On and near the unit circle the list is the direct test's.
        near = np.array([-1.0, 1j, -1j, np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 5),
                         1.0, 1.0 + 1e-9, -1.0 + 1e-10, -1.0 + 1e-6, 1j * (1.0 + 1e-12),
                         0.5, 2.0, 1e200, -1e200 + 1e200j])
        for i in range(1, 7):
            with np.errstate(over="ignore", invalid="ignore"):
                want = [complex(lam) for lam in near if not abs(lam - 1.0) < 1e-8
                        and abs(lam**i - 1.0) < 1e-8]
            assert synthesis._unit_root_eigenvalues(near, i) == want
        assert synthesis._unit_root_eigenvalues(near, 4) == [-1.0, 1j, -1j, -1.0 + 1e-10,
                                                             1j * (1.0 + 1e-12)]


class TestPeriodicRiccati:
    def test_unit_integrator_period_five(self, integrator, integrator_weights):
        P, L = solve_periodic_riccati(integrator, integrator_weights, 5)
        P5 = scalar_periodic_value()
        assert P[0, 0] == pytest.approx(P5, rel=1e-12)
        assert L[0, 0] == pytest.approx((5 * P5 + 10) / (35 + 25 * P5), rel=1e-12)

    def test_unit_integrator_period_one_is_classical(self, integrator, integrator_weights):
        # At period 1 the lifted problem is the plain one-step problem; the
        # fixed point is the golden ratio and the gain P/(1+P).
        P, L = solve_periodic_riccati(integrator, integrator_weights, 1)
        phi = (1.0 + np.sqrt(5.0)) / 2.0
        assert P[0, 0] == pytest.approx(phi, rel=1e-12)
        assert L[0, 0] == pytest.approx(phi / (1.0 + phi), rel=1e-12)

    def test_deadbeat_plant(self):
        sys = LtiSystem(A=[[0.0]], B=[[1.0]])
        w = WeightSpec(Q=[[1.0]], R=[[1.0]])
        P, L = solve_periodic_riccati(sys, w, 1)
        assert P[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert L[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_scipy_dare_on_lifted_model(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            sys, p = random_lift_controllable(rng)
            w = random_weights(rng, sys.n, sys.m)
            P, L = solve_periodic_riccati(sys, w, p)
            Ai, Bi, Qi, Ri, Ni = oracle_lift(sys, w, p)[-1]
            P_ref = scipy.linalg.solve_discrete_are(Ai, Bi, Qi, Ri, s=Ni)
            np.testing.assert_allclose(P, P_ref, rtol=1e-8, atol=1e-8)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sys, p = random_lift_controllable(rng)
            w = random_weights(rng, sys.n, sys.m)
            P, L = solve_periodic_riccati(sys, w, p)
            Ai, Bi, Qi, Ri, Ni = oracle_lift(sys, w, p)[-1]
            G = Ai.T @ P @ Bi + Ni
            rhs = Qi + Ai.T @ P @ Ai - G @ np.linalg.solve(Ri + Bi.T @ P @ Bi, G.T)
            residual = np.max(np.abs(P - rhs)) / np.max(np.abs(P))
            assert residual <= 1e-10

    def test_closed_loop_is_stable(self, integrator, integrator_weights):
        P, L = solve_periodic_riccati(integrator, integrator_weights, 5)
        Ai, Bi = oracle_transition_pairs(integrator, 5)[-1]
        assert max(abs(np.linalg.eigvals(Ai - Bi @ L))) < 1.0

    def test_uncontrollable_period_rejected(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        w = WeightSpec(Q=[[1.0]], R=[[1.0]])
        with pytest.raises(SynthesisError, match="power 2"):
            solve_periodic_riccati(sys, w, 2)

    def test_tiny_state_weight_matches_closed_form(self, integrator):
        # Closed loop 1 - L is within 3e-5 of the unit circle; the value is
        # the positive root of P^2 - q P - q r = 0.
        q, r = 1e-9, 1.0
        P, L = solve_periodic_riccati(integrator, WeightSpec(Q=[[q]], R=[[r]]), 1)
        exact = (q + np.sqrt(q * q + 4.0 * q * r)) / 2.0
        assert P[0, 0] == pytest.approx(exact, rel=1e-10)
        assert L[0, 0] == pytest.approx(exact / (r + exact), rel=1e-10)

    @pytest.mark.parametrize("p", [2, 3])
    def test_tiny_state_weight_matches_dare_on_lifted_model(self, integrator, p):
        w = WeightSpec(Q=[[1e-9]], R=[[1.0]])
        P, _ = solve_periodic_riccati(integrator, w, p)
        Ai, Bi, Qi, Ri, Ni = oracle_lift(integrator, w, p)[-1]
        P_ref = scipy.linalg.solve_discrete_are(Ai, Bi, Qi, Ri, s=Ni)
        np.testing.assert_allclose(P, P_ref, rtol=1e-9)

    @pytest.mark.parametrize("P, reason", [
        pytest.param((1.0 + np.sqrt(5.0)) / 2.0 * (1.0 + 1e-6), "residual",
                     id="golden-ratio-scaled"),
        # Solves P^2 - P - 1 = 0 like the golden ratio, but its closed loop
        # 1/(1 + P) lies outside the unit circle.
        pytest.param((1.0 - np.sqrt(5.0)) / 2.0, "not stabilizing",
                     id="non-stabilizing-root"),
    ])
    def test_acceptance_refuses(self, integrator, integrator_weights, P, reason):
        lm = lift_range(integrator, integrator_weights, 1)[-1]
        with pytest.raises(SynthesisError, match=reason):
            _accept_riccati(np.array([[P]]), lm.i, lm.Ai, lm.Bi, lm.Qi, lm.Ri, lm.Ni)

    def test_a_singular_doubling_solve_names_the_period(self, double_integrator_weights):
        # A(1, 2) = 1e6 makes I + G H singular in floating point at p = 5.
        sys = LtiSystem(A=[[1.0, 1e6], [1.0, 1.0]], B=[[1.0], [0.5]])
        with pytest.raises(SynthesisError,
                           match=r"^doubling at period 5 failed: Singular matrix$"):
            solve_periodic_riccati(sys, double_integrator_weights, 5)
        assert not any(key[0] == "riccati" for key in sys._memo)


class TestGainTable:
    def test_unit_integrator_full_precision(self, integrator_table):
        for i in integrator_table.I0:
            P_ref, L_ref = scalar_table(i)
            assert integrator_table.P(i)[0, 0] == pytest.approx(P_ref, rel=1e-10)
            assert integrator_table.L(i)[0, 0] == pytest.approx(L_ref, rel=1e-10)

    def test_row_at_terminal_period_equals_periodic_pair(self, integrator_table):
        assert abs(integrator_table.P(5)[0, 0] - integrator_table.Pp[0, 0]) <= 1e-8
        assert abs(integrator_table.L(5)[0, 0] - integrator_table.Lp[0, 0]) <= 1e-8

    def test_integrator_value_matrix_nondecreasing(self, integrator_table):
        values = [integrator_table.P(i)[0, 0] for i in integrator_table.I0]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_one_step_value_identity(self):
        # alpha/i + x'P(i)x equals alpha/i plus the held-input stage cost plus
        # the terminal value at the post-wait state.
        rng = np.random.default_rng(17)
        for _ in range(25):
            sys, p = random_lift_controllable(rng)
            w = random_weights(rng, sys.n, sys.m)
            I0 = tuple(range(1, int(rng.integers(p, p + 3)) + 1))
            gt = build_gain_table(sys, w, I0, p)
            x = rng.normal(0, 1.5, sys.n)
            for i in gt.I0:
                u = -(gt.L(i) @ x)
                Ai, Bi = oracle_transition_pairs(sys, i)[-1]
                x_end = Ai @ x + Bi @ u
                direct = float(x @ gt.P(i) @ x)
                composed = oracle_held_cost(sys, w, x, u, i) + float(
                    x_end @ gt.Pp @ x_end
                )
                assert direct == pytest.approx(composed, rel=1e-9, abs=1e-9)

    def test_double_integrator_cost_oracle(self, double_integrator,
                                           double_integrator_weights,
                                           double_integrator_table):
        # Simulate: hold -L(i)x for i steps, then the periodic gain forever
        # (truncated); the accumulated raw stage cost must equal x'P(i)x.
        sys, w, gt = double_integrator, double_integrator_weights, double_integrator_table
        rng = np.random.default_rng(2)
        for _ in range(5):
            x0 = rng.normal(0, 2.0, 2)
            for i in gt.I0:
                cost = 0.0
                x = x0.copy()
                u = -(gt.L(i) @ x)
                for _ in range(i):
                    cost += float(x @ w.Q @ x + u @ w.R @ u)
                    x = sys.A @ x + sys.B @ u
                for _ in range(400):
                    u = -(gt.Lp @ x)
                    for _ in range(gt.p):
                        cost += float(x @ w.Q @ x + u @ w.R @ u)
                        x = sys.A @ x + sys.B @ u
                assert cost == pytest.approx(float(x0 @ gt.P(i) @ x0), rel=1e-8)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            sys, p = random_lift_controllable(rng)
            w = random_weights(rng, sys.n, sys.m)
            c = float(rng.uniform(0.1, 50.0))
            scaled = WeightSpec(Q=c * w.Q, R=c * w.R, alpha=c * w.alpha)
            gt = build_gain_table(sys, w, range(1, p + 1), p)
            gt_c = build_gain_table(sys, scaled, range(1, p + 1), p)
            for i in gt.I0:
                np.testing.assert_allclose(gt.L(i), gt_c.L(i), atol=1e-10)
                np.testing.assert_allclose(c * gt.P(i), gt_c.P(i), rtol=1e-9)

    def test_missing_entry_for_p_is_allowed(self, integrator, integrator_weights):
        gt = build_gain_table(integrator, integrator_weights, [1, 2], 5)
        assert gt.I0 == (1, 2) and gt.p == 5

    def test_stacks_need_one_row_per_wait(self, integrator_table):
        gt = integrator_table
        with pytest.raises(ConfigurationError, match=re.escape(
                "table 'x': P_stack and L_stack must have shapes (2, 1, 1) and (2, 1, 1), "
                "got (1, 1, 1) and (1, 1, 1)")):
            GainTable(loop_id="x", alpha=0.0, P_stack=gt.P_stack[:1], L_stack=gt.L_stack[:1],
                      p=5, Pp=gt.Pp, Lp=gt.Lp, I0=(1, 2))

    @pytest.mark.parametrize("waits, message", [
        ([2], "table 'integrator': P_stack and L_stack must be stacks of numeric matrices"),
        ([1, 2, 3, 4, 5], "table 'integrator': P_stack and L_stack must have shapes "
                          "(5, 1, 1) and (5, 1, 1), got (5, 2, 2) and (5, 1, 1)"),
    ], ids=["ragged", "uniform"])
    def test_stacks_must_match_terminal_shapes(self, integrator_table, waits, message):
        gt = integrator_table
        P = [np.eye(2) if i in waits else gt.P(i) for i in gt.I0]
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(gt, P_stack=P)

    @pytest.mark.parametrize("I0", [(2, 1, 3, 4, 5), (1, 2, 2, 3, 4, 5), range(5, 0, -1)],
                             ids=repr)
    def test_I0_must_be_strictly_increasing(self, integrator_table, I0):
        # Row r holds the r-th wait, so a wait set out of order would pair
        # rows with the wrong waits.
        with pytest.raises(ConfigurationError, match=re.escape(
                f"table 'integrator': I0 must be strictly increasing, got {I0!r}")):
            dataclasses.replace(integrator_table, I0=I0)
        # In order, any iterable of ints passes, a one-shot iterator too.
        for waits in ([1, 2, 3, 4, 5], np.arange(1, 6), range(1, 6), iter(range(1, 6))):
            assert dataclasses.replace(integrator_table, I0=waits).I0 == (1, 2, 3, 4, 5)

    def test_replace_rederives_rows_and_costs(self, double_integrator_table):
        gt = double_integrator_table
        tail = dataclasses.replace(gt, I0=gt.I0[2:], P_stack=gt.P_stack[2:],
                                   L_stack=gt.L_stack[2:], alpha=2.0 * gt.alpha)
        assert tail.I0 == gt.I0[2:] and dict(tail.rows) == {i: r for r, i in enumerate(tail.I0)}
        assert tail.costs.tolist() == [2.0 * gt.alpha / i for i in tail.I0]
        for i in tail.I0:
            assert bits(tail.P(i)) == bits(gt.P(i)) and bits(tail.L(i)) == bits(gt.L(i))
        with pytest.raises(GainLookupError):
            tail.P(gt.I0[0])

    @pytest.mark.parametrize("target", ["P(1)", "P(3)", "Pp"])
    def test_value_matrices_must_be_symmetric(self, double_integrator_table, target):
        # The law scores with all of P(i) and the certificate reads one
        # triangle of it, so each table holds one symmetric matrix per wait.
        gt = double_integrator_table
        P_stack, Pp = np.array(gt.P_stack), np.array(gt.Pp)
        M = Pp if target == "Pp" else P_stack[gt.rows[int(target[2])]]
        M[0, 1] = 0.0
        with pytest.raises(ConfigurationError, match=rf"^table 'double_integrator': "
                                                     rf"{re.escape(target)} must be symmetric$"):
            dataclasses.replace(gt, P_stack=P_stack, Pp=Pp)

    def test_symmetry_is_weightspecs_rule(self, double_integrator_table):
        # Off-diagonal perturbations on both sides of the tolerance: a table
        # loads exactly when the oracle calls its perturbed P(2) symmetric.
        gt = double_integrator_table
        outcomes = set()
        for rel in (0.0, 1e-12, 5e-11, 9e-11, 2e-10, 1e-8, 1e-3):
            P = np.array(gt.P(2))
            P[1, 0] *= 1.0 + rel
            try:
                _with_rows(gt, P={2: P})
                loaded = True
            except ConfigurationError:
                loaded = False
            assert loaded == oracle_is_symmetric(P), rel
            outcomes.add(loaded)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("loop_id", [5, None, ["a"], b"a"], ids=repr)
    def test_loop_id_must_be_a_string(self, integrator, integrator_table, loop_id):
        # The rule of a table file's loop_id, so every table serializes to a
        # file that loads.
        with pytest.raises(ConfigurationError, match=re.escape(
                f"gain table loop_id must be a string, got {loop_id!r}")):
            dataclasses.replace(integrator_table, loop_id=loop_id)
        gt = dataclasses.replace(integrator_table, loop_id="ok")
        text = serialize_gain_table(gt, stability_certificate(gt, integrator, 5))
        assert deserialize_gain_table(text)[0].loop_id == "ok"

    @pytest.mark.parametrize("n, m", [(0, 1), (2, 0)])
    def test_dimensions_must_be_positive(self, n, m):
        # A table file's dimensions are positive, so every table loads back.
        Pp, Lp = np.eye(n), np.zeros((m, n))
        with pytest.raises(ConfigurationError, match=re.escape(
                f"table 'x': dimensions must be positive, got {{'n': {n}, 'm': {m}}}")):
            GainTable(loop_id="x", alpha=0.0, P_stack=[Pp], L_stack=[Lp], p=2, Pp=Pp, Lp=Lp,
                      I0=(1,))


def _with_rows(gt, P=(), L=()):
    """``gt`` with the ``P(i)`` of each wait ``i`` of the mapping ``P`` and
    the ``L(i)`` of each wait of ``L`` replaced, through its stacks."""
    stacks = np.array(gt.P_stack), np.array(gt.L_stack)
    for stack, rows in zip(stacks, (dict(P), dict(L))):
        for i, M in rows.items():
            stack[gt.rows[i]] = M
    return dataclasses.replace(gt, P_stack=stacks[0], L_stack=stacks[1])


def _table_from(source, sys, gt):
    """``gt`` as built by ``build_gain_table``, read back by
    ``deserialize_gain_table``, or rebuilt by the constructor from writable
    copies of its matrices; the constructor case also returns those copies."""
    if source == "build":
        return gt, None
    if source == "deserialize":
        text = serialize_gain_table(gt, stability_certificate(gt, sys, gt.p))
        return deserialize_gain_table(text)[0], None
    given = {name: np.array(getattr(gt, name)) for name in ("P_stack", "L_stack", "Pp", "Lp")}
    return GainTable(loop_id=gt.loop_id, alpha=gt.alpha, p=gt.p, I0=gt.I0, **given), given


class TestGainTableStorage:
    """A table holds one read-only copy of its matrices: the stacks, whose
    rows ``P(i)`` and ``L(i)`` return, and the terminal pair."""

    @pytest.mark.parametrize("source", ["build", "deserialize", "constructor"])
    def test_matrices_are_read_only(self, source, double_integrator,
                                    double_integrator_table):
        gt, _ = _table_from(source, double_integrator, double_integrator_table)
        rows = [M for i in gt.I0 for M in (gt.P(i), gt.L(i))]
        for M in (gt.P_stack, gt.L_stack, gt.Pp, gt.Lp, gt.costs, *rows):
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[(0,) * M.ndim] = 7.0
        for M in rows:
            assert np.shares_memory(M, gt.P_stack) or np.shares_memory(M, gt.L_stack)
        with pytest.raises(TypeError):
            gt.rows[99] = 0

    def test_caller_arrays_stay_the_callers(self, double_integrator,
                                            double_integrator_table):
        gt, given = _table_from("constructor", double_integrator, double_integrator_table)
        cert = stability_certificate(gt, double_integrator, gt.p)
        text = serialize_gain_table(gt, cert)
        before = {name: getattr(gt, name).copy() for name in given}
        for name, M in given.items():
            assert not np.shares_memory(M, getattr(gt, name))
            M[...] = 7.0
        for name, M in before.items():
            assert bits(getattr(gt, name)) == bits(M)
        assert serialize_gain_table(gt, cert) == text

    @pytest.mark.parametrize("case, message", [pytest.param(*case, id=case[0]) for case in [
        ("ragged-stack", "P_stack and L_stack must be stacks of numeric matrices"),
        ("non-numeric", "P_stack and L_stack must be stacks of numeric matrices"),
        ("stack-string", "P_stack and L_stack must be stacks of numeric matrices"),
        ("one-matrix", "P_stack and L_stack must have shapes (5, 1, 1) and (5, 1, 1), "
                       "got (1, 1) and (5, 1, 1)"),
        ("L-transposed", "P_stack and L_stack must have shapes (5, 1, 1) and (5, 1, 1), "
                         "got (5, 1, 1) and (1, 5, 1)"),
        ("non-finite-stack", "entries have non-finite values"),
        ("object-strings", "Pp must be a matrix of numbers"),
        ("non-finite-Pp", "Pp has non-finite entries"),
        ("Lp-columns", "Pp must be square and Lp must have as many columns"),
    ]])
    def test_malformed_input_is_refused(self, case, message, integrator_table):
        gt = integrator_table
        fields = dict(loop_id="x", alpha=gt.alpha, p=gt.p, I0=gt.I0, Pp=gt.Pp, Lp=gt.Lp,
                      P_stack=gt.P_stack.tolist(), L_stack=gt.L_stack)
        if case == "ragged-stack":
            fields["P_stack"][2] = [[1.0, 0.0]]
        elif case == "non-numeric":
            fields["P_stack"][2] = [["a"]]
        elif case == "stack-string":
            fields["L_stack"] = "x"
        elif case == "one-matrix":
            fields["P_stack"] = gt.P(2)
        elif case == "L-transposed":
            fields["L_stack"] = gt.L_stack.swapaxes(0, 1)
        elif case == "non-finite-stack":
            fields["P_stack"][2] = [[np.inf]]
        elif case == "object-strings":
            fields["Pp"] = np.array([["1.0x"]], dtype=object)
        elif case == "non-finite-Pp":
            fields["Pp"] = [[np.inf]]
        else:
            fields["Lp"] = [[1.0, 2.0]]
        with pytest.raises(ConfigurationError, match=f"^table 'x': {re.escape(message)}"):
            GainTable(**fields)

    def test_nested_lists_are_accepted(self, double_integrator_table):
        gt = double_integrator_table
        listed = GainTable(
            loop_id=gt.loop_id, alpha=gt.alpha, p=gt.p, I0=list(gt.I0),
            P_stack=gt.P_stack.tolist(), L_stack=gt.L_stack.tolist(),
            Pp=gt.Pp.tolist(), Lp=gt.Lp.tolist(),
        )
        for name in ("P_stack", "L_stack", "Pp", "Lp", "costs"):
            np.testing.assert_array_equal(getattr(listed, name), getattr(gt, name))
            assert getattr(listed, name).dtype == np.float64


class TestCertificate:
    def test_unit_integrator_ratio_oracle(self, integrator, integrator_table):
        cert = stability_certificate(integrator_table, integrator, 5)
        P5 = scalar_periodic_value()
        expected = {}
        for i in integrator_table.I0:
            P_i, L_i = scalar_table(i)
            expected[i] = (1.0 - i * L_i) ** 2 * P5 / P_i
        for i, rho in cert.per_i_ratio.items():
            assert rho == pytest.approx(expected[i], rel=1e-9)
        assert cert.epsilon == pytest.approx(1.0 - max(expected.values()), rel=1e-9)
        assert 0.85 < cert.epsilon < 0.91

    def test_deadbeat_every_wait_gives_unit_margin(self):
        # A = 0 zeroes every closed-loop map, so the contraction is total.
        sys = LtiSystem(A=[[0.0]], B=[[1.0]])
        w = WeightSpec(Q=[[1.0]], R=[[1.0]], alpha=0.3)
        gt = build_gain_table(sys, w, range(1, 4), 3)
        cert = stability_certificate(gt, sys, 3)
        assert cert.epsilon == 1.0
        assert all(r == pytest.approx(0.0, abs=1e-14) for r in cert.per_i_ratio.values())

    def test_bounds_collapse_when_terminal_period_is_gamma(
        self, integrator, integrator_table
    ):
        cert = stability_certificate(integrator_table, integrator, 5)
        assert cert.lower_bound == pytest.approx(0.2 / 5, abs=1e-15)
        assert cert.upper_bound == pytest.approx(cert.lower_bound, rel=1e-12)

    def test_bound_ordering(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            sys, p = random_lift_controllable(rng)
            w = random_weights(rng, sys.n, sys.m)
            I0 = tuple(range(1, p + 1))
            gt = build_gain_table(sys, w, I0, p)
            if select_pstar([sys], I0) != p:
                continue
            cert = stability_certificate(gt, sys, p)
            assert 0.0 < cert.epsilon <= 1.0
            assert cert.lower_bound <= cert.upper_bound + 1e-15
            assert all(
                r <= 1.0 - cert.epsilon + 1e-10 for r in cert.per_i_ratio.values()
            )
            for S in cert.Si.values():
                assert np.linalg.eigvalsh(S).min() > -1e-9

    def test_bounds_are_ordered_on_a_grid(self, integrator):
        # upper = lower + alpha (gamma - pstar) / (eps pstar gamma): equal at
        # pstar = gamma, ordered below it.
        for R in (0.1, 10.0, 100.0):
            for gamma in range(1, 16):
                for p in sorted({gamma, max(1, gamma // 2)}):
                    table = build_gain_table(integrator, WeightSpec(Q=[[1.0]], R=[[R]]),
                                             range(1, gamma + 1), p)
                    for alpha in np.geomspace(1e-3, 1e7, 21):
                        cert = stability_certificate(dataclasses.replace(table, alpha=alpha),
                                                     integrator, p)
                        assert cert.lower_bound == alpha / gamma
                        if p == gamma:
                            assert cert.upper_bound == cert.lower_bound
                        else:
                            assert cert.upper_bound > cert.lower_bound

    def test_contraction_refusal_names_the_wait(self, integrator, integrator_table):
        # P(3) a hair below F(3)' Pp F(3): S(3) is within the indefiniteness
        # tolerance, so the contraction check is the one that refuses.
        A3, B3 = oracle_transition_pairs(integrator, 3)[-1]
        F3 = A3 - B3 @ integrator_table.L(3)
        gt = _with_rows(integrator_table,
                        P={3: (1.0 - 1e-12) * (F3.T @ integrator_table.Pp @ F3)})
        message = r"^loop 'integrator': contraction fails at wait 3 \(ratio 1 >= 1\)$"
        with pytest.raises(CertificateError, match=message) as got:
            stability_certificate(gt, integrator, 5)
        with pytest.raises(CertificateError) as want:
            oracle_certificate(gt, integrator, 5)
        assert str(got.value) == str(want.value)

    def test_ratios_match_scipy_generalized_eigh(self):
        # scipy.linalg.eigh(G, P(i)) is the independent reference.  Both it
        # and the Cholesky reduction lose up to about eps * cond(P(i))
        # relative; these plants keep cond(P(i)) below 1e6.
        rng = np.random.default_rng(31)
        for plant in range(120):
            sys, p = random_lift_controllable(rng, p_max=5, n_max=6)
            w = random_weights(rng, sys.n, sys.m)
            gt = build_gain_table(sys, w, range(1, p + 1), p)
            cert = stability_certificate(gt, sys, p)
            for i, ratio in cert.per_i_ratio.items():
                Ai, Bi = oracle_transition_pairs(sys, i)[-1]
                Pi, Li = gt.P(i), gt.L(i)
                F = Ai - Bi @ Li
                G = F.T @ gt.Pp @ F
                G = 0.5 * (G + G.T)
                ref = scipy.linalg.eigh(G, Pi, eigvals_only=True)[-1]
                assert abs(ratio - ref) <= 1e-12 * abs(ref), (plant, i)

    def test_corrupted_gain_fails_certificate(self, integrator, integrator_table):
        L_stack = np.array(integrator_table.L_stack)
        L_stack[integrator_table.rows[1]] += 5.0
        bad = GainTable(
            loop_id="bad",
            alpha=integrator_table.alpha,
            P_stack=integrator_table.P_stack,
            L_stack=L_stack,
            p=integrator_table.p,
            Pp=integrator_table.Pp,
            Lp=integrator_table.Lp,
            I0=integrator_table.I0,
        )
        with pytest.raises(CertificateError):
            stability_certificate(bad, integrator, 5)

    def test_a_ratio_that_is_not_finite_names_the_wait(self, double_integrator,
                                                        double_integrator_table):
        # B(2) L(2) overflows, so the ratio at wait 2 is NaN, which max()
        # would skip; no RuntimeWarning may escape either.
        gt = double_integrator_table
        L = np.array(gt.L(2))
        L[0, 0] = 1e308
        bad = _with_rows(gt, L={2: L})
        with pytest.raises(CertificateError, match=r"^loop 'double_integrator': contraction "
                                                   r"ratio at wait 2 is not finite$"):
            stability_certificate(bad, double_integrator, 5)

    def test_period_mismatch_rejected(self, integrator, integrator_table):
        with pytest.raises(ConfigurationError):
            stability_certificate(integrator_table, integrator, 4)

    @pytest.mark.parametrize("plant, shapes", [
        pytest.param(LtiSystem(A=np.eye(2), B=[[1.0], [0.0]]), "n=2, m=1", id="two-states"),
        pytest.param(LtiSystem(A=[[1.0]], B=[[1.0, 1.0]]), "n=1, m=2", id="two-inputs"),
    ])
    def test_plant_must_match_the_table(self, integrator_table, plant, shapes):
        with pytest.raises(ConfigurationError,
                           match=rf"^loop 'integrator': the plant has {shapes} "
                                 r"but the table has n=1, m=1$"):
            stability_certificate(integrator_table, plant, 5)

    @pytest.mark.parametrize("pstar", [5.0, np.float64(5.0), True, "5"])
    def test_pstar_must_be_an_integer(self, integrator, integrator_table, pstar):
        with pytest.raises(ConfigurationError,
                           match=r"^loop 'integrator': pstar must be an integer"):
            stability_certificate(integrator_table, integrator, pstar)


def _shipped_loops():
    for path in sorted(SCENARIOS.glob("*.json")):
        scn, _ = load_scenario(path)
        for spec in scn.loops:
            yield spec.system, spec.weights, scn.I0, scn.p


def _random_loops(count):
    rng = np.random.default_rng(41)
    for _ in range(count):
        sys = random_system(rng, n_max=6, m_max=3, max_spectral_radius=1.5)
        w = random_weights(rng, sys.n, sys.m)
        gamma = int(rng.integers(1, 9))
        I0 = tuple(sorted({gamma, *rng.integers(1, gamma + 1, size=gamma).tolist()}))
        yield sys, w, I0, int(rng.choice(I0))


def _matches_oracles(sys, w, I0, p) -> bool:
    """Whether ``sys`` is synthesized; if so, the stacked table and
    certificate must equal the per-wait oracles bit for bit, or raise the
    oracle's error."""
    try:
        gt = build_gain_table(sys, w, I0, p)
    except SynthesisError:
        return False
    entries = oracle_gain_entries(sys, w, I0, gt.Pp)
    assert bits(gt.P_stack) == bits([entries[i][0] for i in gt.I0])
    assert bits(gt.L_stack) == bits([entries[i][1] for i in gt.I0])
    try:
        ratios, Si, epsilon, lower, upper = oracle_certificate(gt, sys, p)
    except CertificateError as exc:
        with pytest.raises(CertificateError) as got:
            stability_certificate(gt, sys, p)
        assert str(got.value) == str(exc)
        return True
    cert = stability_certificate(gt, sys, p)
    assert list(cert.per_i_ratio) == list(ratios) == list(cert.Si) == list(gt.I0)
    assert bits(list(cert.per_i_ratio.values())) == bits(list(ratios.values()))
    assert bits(list(cert.Si.values())) == bits(list(Si.values()))
    assert bits([cert.epsilon, cert.lower_bound, cert.upper_bound]) == bits(
        [epsilon, lower, upper])
    return True


class TestStackedSynthesis:
    """The table build and the certificate run each stage once on the
    stacks of all waits; every bit equals the per-wait oracles."""

    def test_shipped_scenarios(self):
        assert all(_matches_oracles(*loop) for loop in _shipped_loops())

    def test_random_plants(self):
        assert sum(_matches_oracles(*loop) for loop in _random_loops(60)) >= 40

    def test_si_are_read_only_views_of_one_stack(self, double_integrator,
                                                double_integrator_table):
        cert = stability_certificate(double_integrator_table, double_integrator, 5)
        stack = cert.Si[1].base
        assert stack.shape == (5, 2, 2) and not stack.flags.writeable
        for S in cert.Si.values():
            assert S.base is stack and not S.flags.writeable
        with pytest.raises(TypeError):
            cert.Si[1] = None


# The alphas of the README's sweep.
_README_ALPHAS = [0, 0.05, 0.25, 1.3, 5, 25, 50, 500, 1e4, 1e6]


def _synthesized(sys, w, I0, p) -> list:
    """The bytes of what synthesis and simulation derive from ``sys``: the
    periodic solve, the table, its certificate and both segment maps; or
    the text of the error that refuses the plant."""
    try:
        Pp, Lp = solve_periodic_riccati(sys, w, p)
        gt = build_gain_table(sys, w, I0, p)
    except SynthesisError as exc:
        return [str(exc)]
    out = [bits(Pp), bits(Lp), bits(gt.P_stack), bits(gt.L_stack)]
    try:
        cert = stability_certificate(gt, sys, p)
    except CertificateError as exc:
        out.append(str(exc))
    else:
        out += [bits(list(cert.per_i_ratio.values())), bits(list(cert.Si.values())),
                bits([cert.epsilon, cert.upper_bound])]
    with np.errstate(all="ignore"):
        return out + [bits(_segment_map(sys, max(I0), noisy)) for noisy in (False, True)]


class TestLiftMemo:
    """A plant whose memo already holds longer lifts, at other alphas and
    other weights too, synthesizes bit for bit what a fresh copy does; and a
    sweep lifts each (plant, Q, R) once per new longest length."""

    @staticmethod
    def _warm(sys, w, I0, p):
        gamma = max(I0)
        with np.errstate(all="ignore"):
            model._lift(sys, gamma + 3, dataclasses.replace(w, alpha=w.alpha + 1.0))
            model._lift(sys, gamma + 5)
            model._lift(sys, gamma + 2, WeightSpec(Q=2.0 * w.Q, R=w.R))
        try:
            solve_periodic_riccati(sys, dataclasses.replace(w, alpha=0.0), p)
        except SynthesisError:
            pass

    def _check(self, loops) -> int:
        synthesized = 0
        for sys, w, I0, p in loops:
            fresh = _synthesized(LtiSystem(A=sys.A, B=sys.B, E=sys.E), w, I0, p)
            self._warm(sys, w, I0, p)
            assert _synthesized(sys, w, I0, p) == fresh
            synthesized += len(fresh) > 1
        return synthesized

    def test_shipped_scenarios(self):
        assert self._check(_shipped_loops()) == 4

    def test_random_plants(self):
        assert self._check(_random_loops(40)) >= 25

    @pytest.mark.parametrize("name, p", [("integrator_sweep.json", None),
                                         ("two_loop.json", None), ("two_loop.json", 3)])
    def test_a_sweep_lifts_each_plant_once(self, name, p, monkeypatch):
        scn, _ = load_scenario(SCENARIOS / name)
        scn = dataclasses.replace(scn, horizon=100, p=p or scn.p)
        lifts = defaultdict(list)
        recursion = model._lift_recursion

        def counted(sys, gamma, weights=None):
            key = (id(sys),) if weights is None else (id(sys), weights.Q.tobytes(),
                                                      weights.R.tobytes())
            lifts[key].append(gamma)
            return recursion(sys, gamma, weights)

        monkeypatch.setattr(model, "_lift_recursion", counted)
        sweep(scn, _README_ALPHAS, 20)
        # One weighted lift to gamma per plant serves the 10 tables, the
        # solves at p, the 200 baseline solves and the segment maps.
        assert dict(lifts) == {
            (id(spec.system), spec.weights.Q.tobytes(), spec.weights.R.tobytes()): [scn.gamma]
            for spec in scn.loops
        }


def _riccati_keys(sys) -> list:
    return [key for key in sys._memo if key[0] == "riccati"]


def _counted_doublings(monkeypatch) -> list:
    """The periods at which ``synthesis._doubling`` runs from now on."""
    periods, doubling = [], synthesis._doubling

    def counted(p, lift):
        periods.append(p)
        return doubling(p, lift)

    monkeypatch.setattr(synthesis, "_doubling", counted)
    return periods


def _solved(sys, w, p) -> list:
    """The bytes of the periodic solve at ``p``, or the text of its refusal."""
    try:
        return [bits(M) for M in solve_periodic_riccati(sys, w, p)]
    except SynthesisError as exc:
        return [str(exc)]


class TestRiccatiMemo:
    """Each plant's memo holds one accepted periodic Riccati solution per
    (p, Q, R); a call that finds it checks only the wait, every other call
    checks the plant and the weights, and a refused solve is refused
    again."""

    @staticmethod
    def _check(loops) -> int:
        solved = 0
        for sys, w, I0, _ in loops:
            fresh = LtiSystem(A=sys.A, B=sys.B, E=sys.E)
            expected = {p: _solved(fresh, w, p) for p in I0}
            for warm in (dataclasses.replace(w, alpha=w.alpha + 1.0),
                         WeightSpec(Q=2.0 * w.Q, R=w.R)):
                for p in I0:
                    _solved(sys, warm, p)
            for p in I0:
                assert _solved(sys, w, p) == expected[p]
                if len(expected[p]) > 1:
                    solved += 1
                    assert not any(M.flags.writeable for M in solve_periodic_riccati(sys, w, p))
        return solved

    def test_shipped_scenarios(self):
        assert self._check(_shipped_loops()) == 15 + 5 + 2 * 5

    def test_random_plants(self):
        assert self._check(_random_loops(40)) >= 100

    def test_a_sweep_runs_the_doubling_once_per_distinct_period(self, monkeypatch):
        scn, _ = load_scenario(SCENARIOS / "integrator_sweep.json")
        doublings, calls = _counted_doublings(monkeypatch), []
        solve = synthesis.solve_periodic_riccati

        def counted_solve(sys, weights, p):
            calls.append(p)
            return solve(sys, weights, p)

        monkeypatch.setattr(synthesis, "solve_periodic_riccati", counted_solve)
        monkeypatch.setattr(simulator, "solve_periodic_riccati", counted_solve)
        _, baseline = sweep(scn, _README_ALPHAS, 20)
        periods = [int(ts) for ts in baseline.mean_interval["integrator"].values()]
        assert periods == [1, 3, 5, 7, 9, 12, 13, 15, 15, 15]
        # 10 table builds at p and one baseline solve per (alpha, run), but
        # one doubling per distinct period; the tables' p = 15 is among them.
        assert len(calls) == 210
        assert sorted(doublings) == [1, 3, 5, 7, 9, 12, 13, 15]

    def test_a_sweep_leaves_only_lifts_and_solutions_in_the_memo(self):
        scn, _ = load_scenario(SCENARIOS / "integrator_sweep.json")
        sweep(scn, _README_ALPHAS, 20)
        for spec in scn.loops:
            kinds = {key if isinstance(key, str) else key[0] for key in spec.system._memo}
            assert kinds == {"AB", "QRN", "riccati"}

    def test_a_hit_checks_only_the_wait(self, integrator, integrator_weights, monkeypatch):
        plant = LtiSystem(A=integrator.A, B=integrator.B)
        solved = {p: solve_periodic_riccati(plant, integrator_weights, p) for p in (3, 7, 15)}
        calls = []
        for name in ("uncontrollable_reason", "_lift"):
            def counted(*args, _name=name, _real=getattr(synthesis, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(synthesis, name, counted)
        for p, (Pp, Lp) in solved.items():
            hit = solve_periodic_riccati(plant, dataclasses.replace(integrator_weights,
                                                                    alpha=2.0), p)
            assert hit[0] is Pp and hit[1] is Lp
        assert calls == []
        solve_periodic_riccati(plant, integrator_weights, 4)
        assert calls == ["uncontrollable_reason", "_lift"]

    def test_a_warmed_plant_is_refused_at_an_uncontrollable_period(self):
        plant = LtiSystem(A=[[1.0, 0.0], [0.0, -1.0]], B=[[1.0], [1.0]])
        w = WeightSpec(Q=np.eye(2), R=[[1.0]])
        refusal = _solved(LtiSystem(A=plant.A, B=plant.B), w, 2)
        assert refusal[0].startswith("cannot synthesize at period 2: eigenvalue(s) -1")
        solve_periodic_riccati(plant, w, 3)
        assert _solved(plant, w, 2) == refusal
        assert len(_riccati_keys(plant)) == 1

    def test_alpha_shares_an_entry_and_each_weight_pair_has_its_own(self, monkeypatch):
        sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.0], [1.0]])
        w = WeightSpec(Q=np.eye(2), R=[[1.0]], alpha=0.5)
        doublings = _counted_doublings(monkeypatch)
        first = solve_periodic_riccati(sys, w, 3)
        assert solve_periodic_riccati(sys, dataclasses.replace(w, alpha=7.0), 3) is first
        assert len(_riccati_keys(sys)) == 1 and doublings == [3]
        others = [WeightSpec(Q=2.0 * w.Q, R=w.R), WeightSpec(Q=w.Q, R=2.0 * w.R)]
        for other in others:
            Pp, _ = solve_periodic_riccati(sys, other, 3)
            assert bits(Pp) != bits(first[0])
        solve_periodic_riccati(sys, w, 4)
        assert len(_riccati_keys(sys)) == 4 and doublings == [3, 3, 3, 4]

    def test_a_refusal_is_not_stored(self):
        kinds = set()
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                sys = random_system(rng, n_max=6, m_max=2)
                w = random_weights(rng, sys.n, sys.m)
                for p in range(1, 7):
                    first = _solved(sys, w, p)
                    if len(first) == 1:
                        assert _solved(sys, w, p) == first
                        assert ("riccati", p, w.Q.tobytes(), w.R.tobytes()) not in sys._memo
                        kinds.update(kind for kind in ("residual", "not stabilizing",
                                                       "not positive definite")
                                     if kind in first[0])
        assert kinds == {"residual", "not stabilizing", "not positive definite"}

    def test_bad_input_is_refused_on_a_warmed_plant(self, integrator, integrator_weights):
        plant = LtiSystem(A=integrator.A, B=integrator.B)
        solve_periodic_riccati(plant, integrator_weights, 1)
        solve_periodic_riccati(plant, integrator_weights, 5)
        # True equals the key's 1, so the wait is checked before the memo.
        with pytest.raises(ConfigurationError, match=r"must be an integer, got True$"):
            solve_periodic_riccati(plant, integrator_weights, True)
        with pytest.raises(ConfigurationError, match=r"^Q is 2x2 but the state dimension is 1$"):
            solve_periodic_riccati(plant, WeightSpec(Q=np.eye(2), R=[[1.0]]), 5)
        with pytest.raises(ConfigurationError, match=r"^R is 2x2 but the input dimension is 1$"):
            solve_periodic_riccati(plant, WeightSpec(Q=[[1.0]], R=np.eye(2)), 5)
        assert len(_riccati_keys(plant)) == 2


class TestStackedErrors:
    """A failure names the first failing wait in I0 order; within one wait
    the Cholesky check of P(i) comes before the check of the form S."""

    @pytest.mark.parametrize("non_pd, bad_gain, message", [
        pytest.param((2, 4), (), r"P\(2\) at wait 2 is not positive definite",
                     id="first-of-two-cholesky"),
        # A negative P(3) makes S at wait 3 indefinite too.
        pytest.param((3,), (), r"P\(3\) at wait 3 is not positive definite",
                     id="cholesky-before-form-in-one-wait"),
        pytest.param((4,), (2,), r"form at wait 2 is indefinite",
                     id="form-before-later-cholesky"),
        pytest.param((2,), (4,), r"P\(2\) at wait 2 is not positive definite",
                     id="cholesky-before-later-form"),
        pytest.param((), (2, 4), r"form at wait 2 is indefinite",
                     id="first-of-two-forms"),
    ])
    def test_certificate_names_the_first_failing_wait(
        self, integrator, integrator_table, non_pd, bad_gain, message
    ):
        gt = integrator_table
        bad = _with_rows(gt, P={i: [[-1.0]] for i in non_pd},
                         L={i: gt.L(i) + 5.0 for i in bad_gain})
        with pytest.raises(CertificateError) as want:
            oracle_certificate(bad, integrator, 5)
        with pytest.raises(CertificateError, match=message) as got:
            stability_certificate(bad, integrator, 5)
        assert str(got.value) == str(want.value)

    def test_singular_input_cost_names_the_first_such_wait(self):
        # With P = 0 the input-cost matrix is R itself, singular at 2 and 4.
        ones = np.ones((4, 1, 1))
        R = np.array([1.0, 0.0, 1.0, 0.0]).reshape(4, 1, 1)
        with pytest.raises(SynthesisError,
                           match=r"^singular input-cost matrix at factor 2: Singular matrix$"):
            _gain_from(np.zeros((1, 1)), ones, ones, R, 0.0 * ones, (1, 2, 3, 4))

    def test_build_names_a_singular_input_cost(self, monkeypatch, integrator,
                                               integrator_weights):
        # For the unit integrator R(2) + B(2)' Pp B(2) = 3 + 4 Pp vanishes
        # at Pp = -0.75, and only at wait 2.
        Pp = np.array([[-0.75]])
        monkeypatch.setattr(synthesis, "solve_periodic_riccati",
                            lambda sys, weights, p: (Pp, np.zeros((1, 1))))
        with pytest.raises(SynthesisError) as want:
            oracle_gain_entries(integrator, integrator_weights, range(1, 6), Pp)
        with pytest.raises(SynthesisError,
                           match=r"^singular input-cost matrix at factor 2: ") as got:
            build_gain_table(integrator, integrator_weights, range(1, 6), 5)
        assert str(got.value) == str(want.value)


class TestSerialization:
    def test_round_trip_is_bitwise(self, integrator, integrator_table):
        cert = stability_certificate(integrator_table, integrator, 5)
        text = serialize_gain_table(integrator_table, cert)
        gt, eps, pstar = deserialize_gain_table(text)
        assert eps == cert.epsilon and pstar == cert.pstar
        for i in integrator_table.I0:
            np.testing.assert_array_equal(gt.P(i), integrator_table.P(i))
            np.testing.assert_array_equal(gt.L(i), integrator_table.L(i))
        np.testing.assert_array_equal(gt.Pp, integrator_table.Pp)
        # Re-serializing the reload reproduces the exact same digits, and a
        # recomputed certificate lands on the identical epsilon.
        cert2 = stability_certificate(gt, integrator, 5)
        assert cert2.epsilon == cert.epsilon
        assert serialize_gain_table(gt, cert2) == text

    def test_round_trip_matrix_case(self, double_integrator, double_integrator_table):
        cert = stability_certificate(double_integrator_table, double_integrator, 5)
        text = serialize_gain_table(double_integrator_table, cert)
        gt, eps, _ = deserialize_gain_table(text)
        cert2 = stability_certificate(gt, double_integrator, 5)
        assert cert2.epsilon == eps
        assert serialize_gain_table(gt, cert2) == text

    def test_unknown_fields_rejected(self, integrator, integrator_table):
        cert = stability_certificate(integrator_table, integrator, 5)
        text = serialize_gain_table(integrator_table, cert).replace(
            '"schema_version"', '"bogus": 1,\n  "schema_version"'
        )
        with pytest.raises(ConfigurationError, match="bogus"):
            deserialize_gain_table(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            deserialize_gain_table("{not json")

    def test_reader_orders_the_entries_by_wait(self, double_integrator,
                                               double_integrator_table):
        # The file format pairs each entry with its wait, so a file listing
        # I0 and the entries in any order loads as the ordered table.
        gt = double_integrator_table
        cert = stability_certificate(gt, double_integrator, 5)
        text = serialize_gain_table(gt, cert)
        doc = json.loads(text)
        doc["I0"].reverse()
        doc["entries"] = doc["entries"][2:] + doc["entries"][:2]
        back = deserialize_gain_table(json.dumps(doc))[0]
        assert back.I0 == gt.I0 and dict(back.rows) == dict(gt.rows)
        for name in ("P_stack", "L_stack", "Pp", "Lp", "costs"):
            assert bits(getattr(back, name)) == bits(getattr(gt, name))
        assert serialize_gain_table(back, cert) == text

    def test_bytes_equal_the_json_module_on_random_tables(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            gt, cert = random_stored_table(rng)
            text = serialize_gain_table(gt, cert)
            assert text == oracle_serialize_gain_table(gt, cert)
            assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_numpy_scalars_in_the_header(self, integrator, integrator_table):
        cert = stability_certificate(integrator_table, integrator, 5)
        gt = dataclasses.replace(integrator_table, alpha=np.float64(0.1) + np.float64(0.2))
        for epsilon in (np.float64(cert.epsilon), np.float64(1.0) / 3):
            cert = dataclasses.replace(cert, epsilon=epsilon)
            text = serialize_gain_table(gt, cert)
            assert text == oracle_serialize_gain_table(gt, cert)
            assert '"alpha": 0.30000000000000004,\n' in text
            assert f'"epsilon": {float(epsilon)!r},\n' in text

    @pytest.mark.parametrize("pstar", [2.0, True, 2.5, "2", None])
    def test_a_certificate_refuses_a_pstar_a_table_file_cannot_hold(self, integrator,
                                                                    integrator_table, pstar):
        cert = stability_certificate(integrator_table, integrator, 5)
        with pytest.raises(ConfigurationError,
                           match=f"^certificate pstar must be an integer, got {re.escape(repr(pstar))}$"):
            dataclasses.replace(cert, pstar=pstar)

    def test_a_numpy_integer_pstar_is_kept_as_an_int(self, integrator, integrator_table):
        cert = dataclasses.replace(stability_certificate(integrator_table, integrator, 5),
                                   pstar=np.int64(5))
        assert type(cert.pstar) is int and cert.pstar == 5
        text = serialize_gain_table(integrator_table, cert)
        assert text == oracle_serialize_gain_table(integrator_table, cert)
        assert deserialize_gain_table(text)[2] == 5

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -np.inf])
    def test_a_non_finite_epsilon_is_refused_with_the_json_message(self, integrator,
                                                                   integrator_table, epsilon):
        cert = dataclasses.replace(stability_certificate(integrator_table, integrator, 5),
                                   epsilon=epsilon)
        with pytest.raises(ConfigurationError) as want:
            oracle_serialize_gain_table(integrator_table, cert)
        with pytest.raises(ConfigurationError) as got:
            serialize_gain_table(integrator_table, cert)
        assert str(got.value) == str(want.value) == (
            "cannot serialize table 'integrator': Out of range float values are not "
            f"JSON compliant: {epsilon!r}"
        )
