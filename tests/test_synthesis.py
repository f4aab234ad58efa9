"""Synthesis: Riccati solve, gain tables, admissibility, certificates, serialization."""
import dataclasses

import numpy as np
import pytest
import scipy.linalg

from selftrig import (
    CertificateError,
    ConfigurationError,
    GainTable,
    LtiSystem,
    SynthesisError,
    WeightSpec,
    build_gain_table,
    deserialize_gain_table,
    downsampled_controllable,
    is_controllable,
    lift_dynamics,
    lift_range,
    lift_weights,
    pstar_is_gamma,
    select_pstar,
    serialize_gain_table,
    solve_periodic_riccati,
    stability_certificate,
    stage_cost_sum,
    uncontrollable_reason,
)
from selftrig.synthesis import _accept_riccati

from conftest import (
    random_system,
    random_weights,
    scalar_periodic_value,
    scalar_table,
)


def random_lift_controllable(rng, p_max=4, n_max=3):
    """Random controllable system that stays controllable at a random period."""
    while True:
        sys = random_system(rng, n_max=n_max, max_spectral_radius=1.2)
        p = int(rng.integers(1, p_max + 1))
        if downsampled_controllable(sys, p):
            return sys, p


class TestControllability:
    def test_unit_integrator_all_factors(self, integrator):
        for i in range(1, 6):
            assert downsampled_controllable(integrator, i)

    def test_minus_one_fails_at_even_powers(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        assert downsampled_controllable(sys, 1)
        assert not downsampled_controllable(sys, 2)
        reason = uncontrollable_reason(sys, 2)
        assert "eigenvalue" in reason and "power 2" in reason

    def test_uncontrollable_base_pair_reported_distinctly(self):
        sys = LtiSystem(A=[[1.0, 0.0], [0.0, 2.0]], B=[[0.0], [1.0]])
        assert not is_controllable(sys.A, sys.B)
        assert uncontrollable_reason(sys, 3) == "base pair (A, B) is not controllable"

    def test_double_integrator_at_five_matches_rank_oracle(self, double_integrator):
        Ai, Bi = lift_dynamics(double_integrator, 5)
        ctrb = np.hstack([Bi, Ai @ Bi])
        assert np.linalg.matrix_rank(ctrb) == 2
        assert downsampled_controllable(double_integrator, 5)


class TestSelectPstar:
    def test_single_integrator(self, integrator):
        assert select_pstar([integrator], range(1, 6)) == 5

    def test_integrator_pair(self, integrator, double_integrator):
        assert select_pstar([integrator, double_integrator], range(1, 6)) == 5
        assert pstar_is_gamma([integrator, double_integrator], range(1, 6))

    def test_skips_roots_of_unity(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        assert select_pstar([sys], [1, 2, 3]) == 3
        assert not pstar_is_gamma([sys], [1, 2, 4])

    def test_error_names_offending_eigenvalue(self):
        sys = LtiSystem(A=[[-1.0]], B=[[1.0]])
        with pytest.raises(SynthesisError, match="-1"):
            select_pstar([sys], [2, 4])


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
            Ai, Bi = lift_dynamics(sys, p)
            Qi, Ri, Ni = lift_weights(sys, w, p)
            P_ref = scipy.linalg.solve_discrete_are(Ai, Bi, Qi, Ri, s=Ni)
            np.testing.assert_allclose(P, P_ref, rtol=1e-8, atol=1e-8)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sys, p = random_lift_controllable(rng)
            w = random_weights(rng, sys.n, sys.m)
            P, L = solve_periodic_riccati(sys, w, p)
            Ai, Bi = lift_dynamics(sys, p)
            Qi, Ri, Ni = lift_weights(sys, w, p)
            G = Ai.T @ P @ Bi + Ni
            rhs = Qi + Ai.T @ P @ Ai - G @ np.linalg.solve(Ri + Bi.T @ P @ Bi, G.T)
            residual = np.max(np.abs(P - rhs)) / np.max(np.abs(P))
            assert residual <= 1e-10

    def test_closed_loop_is_stable(self, integrator, integrator_weights):
        P, L = solve_periodic_riccati(integrator, integrator_weights, 5)
        Ai, Bi = lift_dynamics(integrator, 5)
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
        Ai, Bi = lift_dynamics(integrator, p)
        Qi, Ri, Ni = lift_weights(integrator, w, p)
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
            _accept_riccati(np.array([[P]]), lm)


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
                Ai, Bi = lift_dynamics(sys, i)
                x_end = Ai @ x + Bi @ u
                direct = float(x @ gt.P(i) @ x)
                composed = stage_cost_sum(sys, w, x, u, i) + float(
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

    def test_entries_must_match_index_set(self, integrator_table):
        with pytest.raises(ConfigurationError):
            GainTable(
                loop_id="x",
                alpha=0.0,
                entries={1: (integrator_table.P(1), integrator_table.L(1))},
                p=5,
                Pp=integrator_table.Pp,
                Lp=integrator_table.Lp,
                I0=(1, 2),
            )


    @pytest.mark.parametrize("waits", [[2], [1, 2, 3, 4, 5]], ids=["ragged", "uniform"])
    def test_entries_must_match_terminal_shapes(self, integrator_table, waits):
        entries = dict(integrator_table.entries)
        for i in waits:
            entries[i] = (np.eye(2), integrator_table.L(i))
        with pytest.raises(ConfigurationError, match="shapes"):
            dataclasses.replace(integrator_table, entries=entries)


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
                Ai, Bi = lift_dynamics(sys, i)
                Pi, Li = gt.entries[i]
                F = Ai - Bi @ Li
                G = F.T @ gt.Pp @ F
                G = 0.5 * (G + G.T)
                ref = scipy.linalg.eigh(G, Pi, eigvals_only=True)[-1]
                assert abs(ratio - ref) <= 1e-12 * abs(ref), (plant, i)

    def test_corrupted_gain_fails_certificate(self, integrator, integrator_table):
        bad_entries = dict(integrator_table.entries)
        bad_entries[1] = (integrator_table.P(1), integrator_table.L(1) + 5.0)
        bad = GainTable(
            loop_id="bad",
            alpha=integrator_table.alpha,
            entries=bad_entries,
            p=integrator_table.p,
            Pp=integrator_table.Pp,
            Lp=integrator_table.Lp,
            I0=integrator_table.I0,
        )
        with pytest.raises(CertificateError):
            stability_certificate(bad, integrator, 5)

    def test_period_mismatch_rejected(self, integrator, integrator_table):
        with pytest.raises(ConfigurationError):
            stability_certificate(integrator_table, integrator, 4)


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
