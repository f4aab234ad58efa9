"""Synthesis: Riccati solve, gain tables, admissibility, certificates, serialization."""
import dataclasses
from collections import defaultdict
from pathlib import Path

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
from selftrig import model, simulator, synthesis
from selftrig.scenario import load_scenario
from selftrig.simulator import _segment_map, periodic_baseline, sweep_alpha
from selftrig.synthesis import _accept_riccati, _gain_from

from conftest import (
    bits,
    oracle_certificate,
    oracle_gain_entries,
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
            _accept_riccati(np.array([[P]]), lm.i, lm.Ai, lm.Bi, lm.Qi, lm.Ri, lm.Ni)


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


def _table_from(source, sys, gt):
    """``gt`` as built by ``build_gain_table``, read back by
    ``deserialize_gain_table``, or rebuilt by the constructor from writable
    copies of its matrices; the constructor case also returns those copies."""
    if source == "build":
        return gt, None
    if source == "deserialize":
        text = serialize_gain_table(gt, stability_certificate(gt, sys, gt.p))
        return deserialize_gain_table(text)[0], None
    given = dict(
        entries={i: (np.array(gt.P(i)), np.array(gt.L(i))) for i in gt.I0},
        Pp=np.array(gt.Pp), Lp=np.array(gt.Lp),
    )
    return GainTable(loop_id=gt.loop_id, alpha=gt.alpha, p=gt.p, I0=gt.I0, **given), given


class TestGainTableStorage:
    """A table holds one read-only copy of its matrices: the stacks, which
    ``entries`` views."""

    @pytest.mark.parametrize("source", ["build", "deserialize", "constructor"])
    def test_entries_are_read_only_views_of_the_stacks(
        self, source, double_integrator, double_integrator_table
    ):
        gt, _ = _table_from(source, double_integrator, double_integrator_table)
        for i in gt.I0:
            P, L = gt.entries[i]
            assert np.shares_memory(P, gt.P_stack) and np.shares_memory(L, gt.L_stack)
            for M in (P, L):
                assert not M.flags.writeable
                with pytest.raises(ValueError):
                    M[0, 0] = 7.0
        for M in (gt.Pp, gt.Lp):
            assert not M.flags.writeable
        with pytest.raises(TypeError):
            gt.entries[gt.I0[0]] = None
        with pytest.raises(TypeError):
            gt.entries[99] = None

    def test_caller_arrays_stay_the_callers(self, double_integrator,
                                            double_integrator_table):
        gt, given = _table_from("constructor", double_integrator, double_integrator_table)
        cert = stability_certificate(gt, double_integrator, gt.p)
        text = serialize_gain_table(gt, cert)
        before = {i: (gt.P(i).copy(), gt.L(i).copy()) for i in gt.I0}
        for P, L in given["entries"].values():
            P[0, 0] = L[0, 0] = 7.0
        given["Pp"][0, 0] = given["Lp"][0, 0] = 7.0
        given["entries"][3] = None
        given["entries"][99] = None
        for i in gt.I0:
            for M, ref in zip((gt.P(i), gt.L(i)), before[i]):
                np.testing.assert_array_equal(M, ref)
            for M, ref in zip(gt.entries[i], before[i]):
                np.testing.assert_array_equal(M, ref)
        assert set(gt.entries) == set(gt.I0)
        assert serialize_gain_table(gt, cert) == text

    @pytest.mark.parametrize("case", ["not-a-pair", "one-matrix", "non-numeric",
                                      "object-strings", "non-finite-Pp", "not-a-mapping",
                                      "Lp-columns"])
    def test_malformed_input_is_refused(self, case, integrator_table):
        gt = integrator_table
        fields = dict(loop_id="x", alpha=gt.alpha, p=gt.p, I0=gt.I0, Pp=gt.Pp, Lp=gt.Lp,
                      entries=dict(gt.entries))
        if case == "not-a-pair":
            fields["entries"][2] = (gt.P(2), gt.L(2), gt.L(2))
        elif case == "one-matrix":
            fields["entries"][2] = gt.P(2)
        elif case == "non-numeric":
            fields["entries"][2] = ([["a"]], gt.L(2))
        elif case == "object-strings":
            fields["Pp"] = np.array([["1.0x"]], dtype=object)
        elif case == "non-finite-Pp":
            fields["Pp"] = [[np.inf]]
        elif case == "not-a-mapping":
            fields["entries"] = [fields["entries"][i] for i in gt.I0]
        else:
            fields["Lp"] = [[1.0, 2.0]]
        with pytest.raises(ConfigurationError):
            GainTable(**fields)

    def test_nested_lists_are_accepted(self, double_integrator_table):
        gt = double_integrator_table
        listed = GainTable(
            loop_id=gt.loop_id, alpha=gt.alpha, p=gt.p, I0=list(gt.I0),
            entries={i: (gt.P(i).tolist(), gt.L(i).tolist()) for i in gt.I0},
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
        A3, B3 = lift_dynamics(integrator, 3)
        F3 = A3 - B3 @ integrator_table.L(3)
        entries = dict(integrator_table.entries)
        entries[3] = ((1.0 - 1e-12) * (F3.T @ integrator_table.Pp @ F3), integrator_table.L(3))
        gt = dataclasses.replace(integrator_table, entries=entries)
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
        summary = sweep_alpha(scn, _README_ALPHAS, 20)
        periodic_baseline(scn, summary)
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
        summary = sweep_alpha(scn, _README_ALPHAS, 20)
        baseline = periodic_baseline(scn, summary)
        periods = [int(ts) for ts in baseline.mean_interval["integrator"].values()]
        assert periods == [1, 3, 5, 7, 9, 12, 13, 15, 15, 15]
        # 10 table builds at p and one baseline solve per (alpha, run), but
        # one doubling per distinct period; the tables' p = 15 is among them.
        assert len(calls) == 210
        assert sorted(doublings) == [1, 3, 5, 7, 9, 12, 13, 15]

    def test_a_sweep_leaves_only_lifts_and_solutions_in_the_memo(self):
        scn, _ = load_scenario(SCENARIOS / "integrator_sweep.json")
        periodic_baseline(scn, sweep_alpha(scn, _README_ALPHAS, 20))
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
        entries = dict(gt.entries)
        for i in non_pd:
            entries[i] = ([[-1.0]], entries[i][1])
        for i in bad_gain:
            entries[i] = (entries[i][0], gt.L(i) + 5.0)
        bad = dataclasses.replace(gt, entries=entries)
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
