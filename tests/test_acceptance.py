"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  Frozen expected values come from the independent oracles in
conftest or are computed inline by the stated oracle; nothing is asserted
that was not derived or cross-checked.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from selftrig import (
    LoopSpec,
    LtiSystem,
    Scenario,
    WeightSpec,
    build_gain_table,
    decide,
    run_self_triggered,
    select_pstar,
    stability_certificate,
    sweep,
    uncontrollable_reason,
    verify_conflict_free,
)
from selftrig.model import _lift

from conftest import (
    oracle_transition_pairs,
    random_system,
    random_weights,
    scalar_periodic_value,
    scalar_table,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_reference_gain_table(integrator, integrator_weights):
    expected_L = (0.70, 0.46, 0.34, 0.28, 0.23)
    expected_P = (1.70, 1.73, 1.89, 2.08, 2.30)
    with criterion("unit-integrator gain table matches the reference two-decimal "
                   "values within ±0.005, synthesized in under 1 s"):
        # The frozen references are the oracle rounded to two decimals; a
        # mis-rounded reference fails here as a data error, before any
        # comparison with the synthesized table.
        for i, (eL, eP) in enumerate(zip(expected_L, expected_P), start=1):
            P_ref, L_ref = scalar_table(i)
            assert eL == round(L_ref, 2), \
                f"reference L({i}) = {eL} is not oracle {L_ref:.6f} rounded"
            assert eP == round(P_ref, 2), \
                f"reference P({i}) = {eP} is not oracle {P_ref:.6f} rounded"
        t0 = time.perf_counter()
        gt = build_gain_table(integrator, integrator_weights, range(1, 6), 5,
                              loop_id="integrator")
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"synthesis took {elapsed:.3f} s"
        deviations = []
        for i, (eL, eP) in enumerate(zip(expected_L, expected_P), start=1):
            P = gt.P(i)[0, 0]
            L = gt.L(i)[0, 0]
            P_ref, L_ref = scalar_table(i)
            # Synthesized values first agree with the independent closed-form
            # oracle; the reference-digit bands are then checked element-wise.
            assert abs(P - P_ref) < 1e-9 and abs(L - L_ref) < 1e-9
            if abs(P - eP) > 0.005:
                deviations.append(
                    f"P({i}) = {P:.6f} vs reference {eP} "
                    f"(exact oracle {P_ref:.6f}, off band by {abs(P - eP) - 0.005:.2e})"
                )
            if abs(L - eL) > 0.005:
                deviations.append(
                    f"L({i}) = {L:.6f} vs reference {eL} "
                    f"(exact oracle {L_ref:.6f}, off band by {abs(L - eL) - 0.005:.2e})"
                )
        assert not deviations, "; ".join(deviations)


def test_single_loop_transient(transient_scenario, integrator_table):
    with criterion("noiseless single-loop run from x0=2: first wait 1, waits "
                   "nondecreasing to 5, |x| < 1e-3 by k=60, values nonincreasing "
                   "to alpha/gamma within 1e-6"):
        trace = run_self_triggered(transient_scenario, {"integrator": integrator_table})
        tr = trace.loops["integrator"]
        assert tr.waits[0] == 1
        assert all(b >= a for a, b in zip(tr.waits, tr.waits[1:]))
        assert tr.waits[-1] == 5
        assert abs(tr.states[60, 0]) < 1e-3
        assert all(b <= a + 1e-12 for a, b in zip(tr.values[1:], tr.values[2:]))
        assert abs(tr.values[-1] - 0.2 / 5) <= 1e-6


def test_two_loop_schedule(transient_scenario, two_loop_scenario,
                           integrator_table, double_integrator_table):
    with criterion("two-loop run: initial feasible sets full / minus-first-slot, "
                   "first waits (1, 2), loop-1 trace bitwise equal to its solo "
                   "run, both waits converge to 5, log conflict-free"):
        tables = {"integrator": integrator_table,
                  "double_integrator": double_integrator_table}
        both = run_self_triggered(two_loop_scenario, tables)
        solo = run_self_triggered(transient_scenario,
                                  {"integrator": integrator_table})
        l1 = both.loops["integrator"]
        l2 = both.loops["double_integrator"]
        assert l1.feasible_sets[0] == frozenset({1, 2, 3, 4, 5})
        assert l1.waits[0] == 1
        assert l2.feasible_sets[0] == frozenset({2, 3, 4, 5})
        assert l2.waits[0] == 2
        s1 = solo.loops["integrator"]
        assert np.array_equal(l1.states, s1.states)
        assert np.array_equal(l1.inputs, s1.inputs)
        assert np.array_equal(l1.sample_times, s1.sample_times)
        assert np.array_equal(l1.waits, s1.waits)
        assert np.array_equal(l1.values, s1.values)
        assert l1.waits[-1] == 5 and l2.waits[-1] == 5
        assert verify_conflict_free(sorted(both.tx_log))


def test_oracle_lifted_cost_equivalence():
    with criterion("held-input cost collapse equals step-by-step simulation on "
                   "500 random instances (n <= 4, i <= 10) within 1e-9 relative"):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            sys = random_system(rng, n_max=4, ensure_controllable=False)
            w = random_weights(rng, sys.n, sys.m)
            i = int(rng.integers(1, 11))
            x = rng.normal(0, 2.0, sys.n)
            u = rng.normal(0, 2.0, sys.m)
            total = 0.0
            xs = x.copy()
            for _ in range(i):
                total += float(xs @ w.Q @ xs + u @ w.R @ u)
                xs = sys.A @ xs + sys.B @ u
            Ai, Bi, Qi, Ri, Ni = (M[-1] for M in _lift(sys, i, w))
            collapsed = float(x @ Qi @ x + u @ Ri @ u + 2.0 * x @ Ni @ u)
            assert collapsed == pytest.approx(total, rel=1e-9, abs=1e-12)
            terminal = Ai @ x + Bi @ u
            np.testing.assert_allclose(
                xs, terminal,
                rtol=1e-10, atol=1e-10 * max(1.0, float(np.abs(xs).max())),
            )


def test_oracle_value_function():
    with criterion("predicted cost alpha/i + x'P(i)x equals the truncated "
                   "simulated closed-loop cost (2000 held-input periods) on "
                   "100 random instances within 1e-6 relative"):
        rng = np.random.default_rng(77)
        done = 0
        while done < 100:
            sys = random_system(rng, n_max=3, max_spectral_radius=1.2)
            p = int(rng.integers(1, 5))
            if uncontrollable_reason(sys, p) is not None:
                continue
            w = random_weights(rng, sys.n, sys.m)
            gt = build_gain_table(sys, w, range(1, p + 1), p)
            Ai, Bi = oracle_transition_pairs(sys, p)[-1]
            # The truncation bound needs a real stability margin to make the
            # 1e-6 tolerance meaningful after 2000 periods.
            if max(abs(np.linalg.eigvals(Ai - Bi @ gt.Lp))) > 0.97:
                continue
            x0 = rng.normal(0, 1.0, sys.n)
            if np.linalg.norm(x0) < 0.3:
                continue
            i = int(rng.integers(1, p + 1))
            # Hold -L(i)x for i steps, then the periodic gain forever.
            cost = 0.0
            x = x0.copy()
            u = -(gt.L(i) @ x)
            for _ in range(i):
                cost += float(x @ w.Q @ x + u @ w.R @ u)
                x = sys.A @ x + sys.B @ u
            for _ in range(2000):
                u = -(gt.Lp @ x)
                for _ in range(p):
                    cost += float(x @ w.Q @ x + u @ w.R @ u)
                    x = sys.A @ x + sys.B @ u
            predicted = w.alpha / i + float(x0 @ gt.P(i) @ x0)
            assert w.alpha / i + cost == pytest.approx(predicted, rel=1e-6)
            done += 1


def test_oracle_conflict_freedom():
    with criterion("randomized shared-channel runs (1e5 steps, 2..5 loops): "
                   "zero slot collisions and zero empty feasible sets"):
        rng = np.random.default_rng(31415)
        a_pool = (0.8, 0.9, 1.0, 1.05, 1.1)
        for s in (2, 3, 4, 5):
            p = 5
            loops = []
            tables = {}
            for j in range(s):
                sys = LtiSystem(A=[[float(a_pool[j % len(a_pool)])]], B=[[1.0]],
                                E=[[1.0]])
                w = WeightSpec(Q=[[1.0]], R=[[float(rng.choice((0.1, 1.0)))]],
                               alpha=float(rng.uniform(0.05, 2.0)))
                name = f"loop{j}"
                loops.append(LoopSpec(name=name, system=sys, weights=w,
                                      x0_variance=25.0, noise_variance=0.1))
                tables[name] = build_gain_table(sys, w, range(1, p + 1), p,
                                                loop_id=name)
            scn = Scenario(loops=tuple(loops), I0=range(1, p + 1), p=p,
                           horizon=100_000, seed=int(rng.integers(2**32)))
            trace = run_self_triggered(scn, tables)  # raises on empty sets
            assert verify_conflict_free(sorted(trace.tx_log))
            for tr in trace.loops.values():
                gaps = np.diff(tr.sample_times)
                assert gaps.min() >= 1 and gaps.max() <= p


def test_oracle_scaling_invariance():
    with criterion("jointly scaling (Q, R, alpha) by c > 0 leaves every gain "
                   "within 1e-10 and every argmin decision exactly unchanged, "
                   "50 random instances"):
        rng = np.random.default_rng(999)
        done = 0
        while done < 50:
            sys = random_system(rng, n_max=3, max_spectral_radius=1.2)
            p = int(rng.integers(1, 5))
            if uncontrollable_reason(sys, p) is not None:
                continue
            w = random_weights(rng, sys.n, sys.m)
            c = float(rng.uniform(1e-3, 1e3))
            scaled = WeightSpec(Q=c * w.Q, R=c * w.R, alpha=c * w.alpha)
            I0 = range(1, p + 1)
            gt = build_gain_table(sys, w, I0, p)
            gt_c = build_gain_table(sys, scaled, I0, p)
            for i in gt.I0:
                np.testing.assert_allclose(gt.L(i), gt_c.L(i), atol=1e-10)
            for _ in range(5):
                x = rng.normal(0, 2.0, sys.n)
                assert decide(gt, x, gt.I0).i_star == decide(gt_c, x, gt_c.I0).i_star
            done += 1


def test_sweep_monotonicity(integrator):
    with criterion("desk-scale sampling-cost sweep (10 points, 20 runs x 2000 "
                   "steps): mean interval weakly increasing (<= 1 adjacent "
                   "violation), < 1.5 at alpha=0, > 0.95 p* at alpha=1e6, "
                   "under 2 minutes"):
        w = WeightSpec(Q=[[1.0]], R=[[0.1]], alpha=0.0)
        scn = Scenario(
            loops=(LoopSpec(name="integrator", system=integrator, weights=w,
                            x0_variance=2500.0, noise_variance=0.1),),
            I0=range(1, 16), p=15, horizon=2000, seed=20260810,
        )
        alphas = [0.0, 0.05, 0.25, 1.3, 5.0, 25.0, 50.0, 500.0, 1e4, 1e6]
        t0 = time.perf_counter()
        summary, _ = sweep(scn, alphas, n_runs=20)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"
        assert not summary.errors
        iv = [summary.mean_interval["integrator"][ai] for ai in range(len(alphas))]
        violations = sum(1 for a, b in zip(iv, iv[1:]) if b < a)
        assert violations <= 1, f"intervals {iv}"
        assert iv[0] < 1.5
        assert iv[-1] > 0.95 * 15


def test_certificates(integrator, integrator_table,
                      double_integrator, double_integrator_table):
    with criterion("certificates: integrator margin in (0.85, 0.91) matching the "
                   "scalar-ratio oracle, terminal period equals gamma for both "
                   "fixtures, bounds ordered and collapsing to alpha/gamma"):
        cert1 = stability_certificate(integrator_table, integrator, 5)
        P5 = scalar_periodic_value()
        oracle = 1.0 - max(
            (1.0 - i * scalar_table(i)[1]) ** 2 * P5 / scalar_table(i)[0]
            for i in integrator_table.I0
        )
        assert abs(cert1.epsilon - oracle) < 1e-9
        assert 0.85 < cert1.epsilon < 0.91
        assert select_pstar([integrator], range(1, 6)) == 5
        assert select_pstar([integrator, double_integrator], range(1, 6)) == 5
        cert2 = stability_certificate(double_integrator_table,
                                      double_integrator, 5)
        for cert, alpha in ((cert1, 0.2), (cert2, 1.0)):
            assert cert.lower_bound <= cert.upper_bound + 1e-15
            assert cert.lower_bound == pytest.approx(alpha / 5, abs=1e-15)
            assert cert.upper_bound == pytest.approx(alpha / 5, rel=1e-12)
