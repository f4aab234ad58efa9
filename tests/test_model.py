"""Lifted-model recursions against explicit power-sum, step-by-step and
simulation oracles."""
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from selftrig import (
    ConfigurationError,
    GainTable,
    LoopSpec,
    LtiSystem,
    ReservationLedger,
    Scenario,
    WeightSpec,
    decide,
    feasible_set,
    lift_range,
    build_gain_table,
    partition_1d,
    reserve,
    select_pstar,
    solve_periodic_riccati,
    sweep,
    uncontrollable_reason,
)
from selftrig.model import _SMALL_VECTOR, _all_finite, _lift, symmetrize
from selftrig.scenario import load_scenario

from conftest import (
    bits,
    oracle_held_cost,
    oracle_is_symmetric,
    oracle_lift,
    oracle_transition_pairs,
    random_system,
    random_weights,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def brute_force_lift(sys, weights, i):
    """Lifted quantities from explicit sums of matrix powers (no recursion)."""
    n, m = sys.n, sys.m
    Ai = np.linalg.matrix_power(sys.A, i)
    Bi = sum(
        (np.linalg.matrix_power(sys.A, q) @ sys.B for q in range(i)),
        start=np.zeros((n, m)),
    )
    Qi = np.zeros((n, n))
    Ri = np.zeros((m, m))
    Ni = np.zeros((n, m))
    for l in range(i):
        Al = np.linalg.matrix_power(sys.A, l)
        Bl = sum(
            (np.linalg.matrix_power(sys.A, q) @ sys.B for q in range(l)),
            start=np.zeros((n, m)),
        )
        Qi += Al.T @ weights.Q @ Al
        Ri += Bl.T @ weights.Q @ Bl + weights.R
        Ni += Al.T @ weights.Q @ Bl
    return Ai, Bi, Qi, Ri, Ni


def lift_row(sys, i, weights=None) -> tuple:
    """The last row of each stack ``_lift`` returns: the lift of wait ``i``."""
    return tuple(M[-1] for M in _lift(sys, i, weights))


def collapsed_cost(sys, weights, x, u, i) -> float:
    """The held-input stage cost collapsed by the lift of wait ``i``:
    ``x'Q_i x + u'R_i u + 2 x'N_i u``."""
    _, _, Qi, Ri, Ni = lift_row(sys, i, weights)
    return float(x @ Qi @ x + u @ Ri @ u + 2.0 * x @ Ni @ u)


class TestLiftDynamics:
    def test_unit_integrator_three_steps(self, integrator):
        Ai, Bi = lift_row(integrator, 3)
        assert Ai[0, 0] == pytest.approx(1.0, abs=0)
        assert Bi[0, 0] == pytest.approx(3.0, abs=0)

    def test_base_case_returns_system_matrices(self):
        rng = np.random.default_rng(7)
        sys = random_system(rng, ensure_controllable=False)
        Ai, Bi = lift_row(sys, 1)
        np.testing.assert_array_equal(Ai, sys.A)
        np.testing.assert_array_equal(Bi, sys.B)

    def test_two_by_two_against_direct_products(self):
        sys = LtiSystem(A=[[1.0, 0.0], [1.0, 1.0]], B=[[1.0], [0.5]])
        Ai, Bi = lift_row(sys, 2)
        np.testing.assert_allclose(Ai, [[1.0, 0.0], [2.0, 1.0]], atol=1e-15)
        np.testing.assert_allclose(Bi, [[2.0], [2.0]], atol=1e-15)

    def test_matches_matrix_power_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sys = random_system(rng, ensure_controllable=False)
            w = random_weights(rng, sys.n, sys.m)
            i = int(rng.integers(1, 9))
            Ai, Bi = lift_row(sys, i)
            Ai_ref, Bi_ref, *_ = brute_force_lift(sys, w, i)
            np.testing.assert_allclose(Ai, Ai_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(Bi, Bi_ref, rtol=1e-12, atol=1e-12)

    def test_rejects_nonpositive_factor(self, integrator):
        with pytest.raises(ConfigurationError):
            _lift(integrator, 0)


class TestLiftWeights:
    def test_unit_integrator_reference_values(self, integrator, integrator_weights):
        _, _, Qi, Ri, Ni = lift_row(integrator, 2, integrator_weights)
        assert (Qi[0, 0], Ri[0, 0], Ni[0, 0]) == (2.0, 3.0, 1.0)
        _, _, Qi, Ri, Ni = lift_row(integrator, 5, integrator_weights)
        assert (Qi[0, 0], Ri[0, 0], Ni[0, 0]) == (5.0, 35.0, 10.0)

    def test_base_case(self):
        rng = np.random.default_rng(3)
        sys = random_system(rng, ensure_controllable=False)
        w = random_weights(rng, sys.n, sys.m)
        _, _, Qi, Ri, Ni = lift_row(sys, 1, w)
        np.testing.assert_array_equal(Qi, w.Q)
        np.testing.assert_array_equal(Ri, w.R)
        np.testing.assert_array_equal(Ni, np.zeros((sys.n, sys.m)))

    def test_matches_power_sum_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sys = random_system(rng, ensure_controllable=False)
            w = random_weights(rng, sys.n, sys.m)
            i = int(rng.integers(1, 9))
            _, _, Qi, Ri, Ni = lift_row(sys, i, w)
            _, _, Qr, Rr, Nr = brute_force_lift(sys, w, i)
            np.testing.assert_allclose(Qi, Qr, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(Ri, Rr, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(Ni, Nr, rtol=1e-10, atol=1e-10)

    def test_rejects_non_positive_definite_weights(self, integrator):
        with pytest.raises(ConfigurationError):
            WeightSpec(Q=[[0.0]], R=[[1.0]])
        with pytest.raises(ConfigurationError):
            WeightSpec(Q=[[1.0]], R=[[-2.0]])



class TestWeightSymmetry:
    """``Q`` and ``R`` pass exactly when ``oracle_is_symmetric`` holds, and a
    passing matrix is stored as its symmetric part, bit for bit."""

    @staticmethod
    def _near_symmetric(rng):
        """Seeded SPD matrices, n = 1..6 at three scales, with one entry or
        every upper entry moved by a multiple of the allowed asymmetry
        ``1e-12 + 1e-10 |M|`` on either side of 1; and diagonal ones with
        one entry at, just below or just above the absolute bound."""
        for n in range(2, 7):
            for d in (np.nextafter(1e-12, 0.0), 1e-12, np.nextafter(1e-12, 1.0)):
                M = np.diag(rng.uniform(1.0, 2.0, n))
                M[n - 1, 0] = -d
                yield M
        for n in range(1, 7):
            for scale in (1e-8, 1.0, 1e8):
                MQ = rng.normal(0.0, 1.0, (n, n))
                base = scale * (MQ @ MQ.T + 0.5 * np.eye(n))
                allowed = 1e-12 + 1e-10 * np.abs(base)
                upper = np.triu_indices(n, 1)
                for factor in (0.5, 0.9999, 1.0, 1.0001, 2.0):
                    for every in (False, True):
                        M = base.copy()
                        if every:
                            f = factor * rng.uniform(0.5, 1.5, len(upper[0]))
                            M[upper] += f * allowed[upper]
                        elif n > 1:
                            k = int(rng.integers(len(upper[0])))
                            i, j = upper[0][k], upper[1][k]
                            M[i, j] += factor * allowed[i, j]
                        yield M

    def test_refuses_and_accepts_what_allclose_does(self):
        verdicts = []
        for M in self._near_symmetric(np.random.default_rng(25)):
            symmetric = oracle_is_symmetric(M)
            verdicts.append(symmetric)
            for name, kwargs in (("Q", dict(Q=M, R=[[1.0]])), ("R", dict(Q=[[1.0]], R=M))):
                if symmetric:
                    stored = getattr(WeightSpec(**kwargs), name)
                    assert stored.tobytes() == symmetrize(M).tobytes()
                else:
                    with pytest.raises(ConfigurationError, match=f"^{name} must be symmetric$"):
                        WeightSpec(**kwargs)
        assert 0.2 < np.mean(verdicts) < 0.8

    @pytest.mark.parametrize("name", ["Q", "R"])
    @pytest.mark.parametrize("M", [[[1e308, 0.0], [0.0, 1e308]], [[9e307]]],
                             ids=["diagonal-1e308", "9e307"])
    def test_refuses_a_symmetric_part_past_the_largest_float(self, name, M):
        # M + M' overflows, so the symmetric part is not finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match=f"^{name} is too large: its "
                               "symmetric part is not finite$"):
                WeightSpec(**{"Q": [[1.0]], "R": [[1.0]], name: M})

    def test_refuses_a_huge_asymmetry_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="^Q must be symmetric$"):
                WeightSpec(Q=[[1.0, 1e308], [-1e308, 1.0]], R=[[1.0]])

    def test_keeps_a_large_finite_weight(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = WeightSpec(Q=[[1e307]], R=[[1.0]])
        assert w.Q.tobytes() == np.array([[1e307]]).tobytes()

class TestCollapsedStageCost:
    """The lifted weights collapse the held-input stage costs into one
    quadratic form, equal to the step-by-step sum."""

    def test_unit_integrator_state_only(self, integrator, integrator_weights):
        x, u = np.array([1.0]), np.array([0.0])
        assert collapsed_cost(integrator, integrator_weights, x, u, 3) \
            == pytest.approx(3.0, abs=1e-14)

    def test_zero_state_zero_input(self, integrator, integrator_weights):
        zero = np.zeros(1)
        for i in (1, 4, 7):
            assert collapsed_cost(integrator, integrator_weights, zero, zero, i) == 0.0

    def test_constant_input_two_steps(self, integrator, integrator_weights):
        # x=1, u=1 for 2 steps: states 1, 2 -> 1 + 4 state cost, 2 input cost.
        one = np.ones(1)
        assert collapsed_cost(integrator, integrator_weights, one, one, 2) \
            == pytest.approx(7.0, abs=1e-12)

    def test_collapse_identity_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            sys = random_system(rng, n_max=4, ensure_controllable=False)
            w = random_weights(rng, sys.n, sys.m)
            i = int(rng.integers(1, 11))
            x = rng.normal(0, 2.0, sys.n)
            u = rng.normal(0, 2.0, sys.m)
            total = oracle_held_cost(sys, w, x, u, i)
            assert collapsed_cost(sys, w, x, u, i) == pytest.approx(total, rel=1e-9, abs=1e-12)
            Ai, Bi = lift_row(sys, i)
            Ar, Br = oracle_transition_pairs(sys, i)[-1]
            terminal = Ar @ x + Br @ u
            np.testing.assert_allclose(
                Ai @ x + Bi @ u, terminal, rtol=1e-10,
                atol=1e-10 * max(1.0, np.abs(terminal).max())
            )

    @pytest.mark.parametrize("Q,R,message", [
        pytest.param(np.eye(2), [[1.0]], "Q is 2x2 but the state dimension is 1", id="Q"),
        pytest.param([[1.0]], np.eye(3), "R is 3x3 but the input dimension is 1", id="R"),
    ])
    def test_weights_of_other_dimensions_rejected(self, integrator, Q, R, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            lift_range(integrator, WeightSpec(Q=Q, R=R), 3)


class TestRecursionStructure:
    def test_transition_recursion_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sys = random_system(rng, ensure_controllable=False)
            for i in range(1, 7):
                Ai, Bi = lift_row(sys, i)
                Ai1, Bi1 = lift_row(sys, i + 1)
                np.testing.assert_allclose(Ai1, sys.A @ Ai, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(
                    Bi1, sys.A @ Bi + sys.B, rtol=1e-12, atol=1e-12
                )

    def test_lifted_weights_stay_symmetric_positive_definite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            sys = random_system(rng, ensure_controllable=False)
            w = random_weights(rng, sys.n, sys.m)
            for lm in lift_range(sys, w, 10):
                for M in (lm.Qi, lm.Ri):
                    np.testing.assert_allclose(M, M.T, atol=1e-12)
                    assert np.linalg.eigvalsh(M).min() > -1e-10

    def test_range_matches_single_queries(self, integrator, integrator_weights):
        models = lift_range(integrator, integrator_weights, 5)
        for lm in models:
            Ai, Bi, Qi, Ri, Ni = lift_row(integrator, lm.i, integrator_weights)
            np.testing.assert_array_equal(lm.Ai, Ai)
            np.testing.assert_array_equal(lm.Bi, Bi)
            np.testing.assert_array_equal(lm.Qi, Qi)
            np.testing.assert_array_equal(lm.Ri, Ri)
            np.testing.assert_array_equal(lm.Ni, Ni)


def _lift_matches_oracle(sys, w, gamma) -> bool:
    """Every lift entry point equals the step-by-step oracle bit for bit,
    non-finite entries included; returns whether the lift overflowed."""
    ref = oracle_lift(sys, w, gamma)
    stacks = _lift(sys, gamma, w)
    for M, rows in zip(stacks, zip(*ref)):
        assert M.shape == (gamma, *rows[0].shape) and bits(M) == bits(rows)
    assert all(bits(M) == bits(R) for M, R in zip(_lift(sys, gamma), stacks))
    models = lift_range(sys, w, gamma)
    assert [lm.i for lm in models] == list(range(1, gamma + 1))
    for lm, row in zip(models, ref):
        assert [bits(M) for M in (lm.Ai, lm.Bi, lm.Qi, lm.Ri, lm.Ni)] == list(map(bits, row))
    return not all(np.isfinite(M).all() for M in stacks)


class TestLiftMatchesStepOracle:
    """``_lift`` and the public lifts built on it equal the step-by-step
    recursion of ``conftest.oracle_lift`` bit for bit."""

    def test_shipped_scenarios(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            scn, _ = load_scenario(path)
            for spec in scn.loops:
                assert not _lift_matches_oracle(spec.system, spec.weights, scn.gamma)

    def test_random_plants_up_to_overflow(self):
        rng = np.random.default_rng(23)
        overflowed = 0
        with np.errstate(all="ignore"):
            for _ in range(60):
                sys = random_system(rng, n_max=5, m_max=3, ensure_controllable=False)
                # Spectral radius drawn in [0.5, 5]: past about 3.3 the lifted
                # weights overflow within the drawn waits.
                rho = max(abs(np.linalg.eigvals(sys.A)))
                sys = LtiSystem(A=sys.A * (rng.uniform(0.5, 5.0) / rho), B=sys.B)
                w = random_weights(rng, sys.n, sys.m)
                overflowed += _lift_matches_oracle(sys, w, int(rng.integers(1, 400)))
        assert overflowed >= 10

    def test_lifts_are_read_only_views_of_one_stack(self, double_integrator,
                                                   double_integrator_weights):
        models = lift_range(double_integrator, double_integrator_weights, 4)
        for f in ("Ai", "Bi", "Qi", "Ri", "Ni"):
            stack = getattr(models[0], f).base
            assert stack.shape[0] == 4 and not stack.flags.writeable
            assert all(getattr(lm, f).base is stack for lm in models)
        for M in (*_lift(double_integrator, 3),
                  *_lift(double_integrator, 3, double_integrator_weights)):
            assert not M.flags.writeable


class TestLiftMemo:
    """Each plant keeps its longest lifts in a memo; every request, in any
    order, equals a fresh step-by-step lift bit for bit and is read-only."""

    @staticmethod
    def _assert_oracle(sys, gamma, weights, oracle_weights):
        stacks = _lift(sys, gamma, weights)
        assert len(stacks) == (2 if weights is None else 5)
        for M, rows in zip(stacks, zip(*oracle_lift(sys, oracle_weights, gamma))):
            assert M.shape[0] == gamma and bits(M) == bits(rows)
            assert not M.flags.writeable
        return stacks

    def test_interleaved_requests_equal_the_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            sys = random_system(rng, n_max=4, m_max=2, ensure_controllable=False,
                                max_spectral_radius=1.3)
            w = random_weights(rng, sys.n, sys.m)
            other = random_weights(rng, sys.n, sys.m)
            # Lengths up, down and equal; with and without weights; the same
            # Q and R under other alphas; another Q, another R, or both.
            requests = [(3, None), (5, w), (2, w), (5, w), (8, None), (4, None),
                        (4, replace(w, alpha=7.5)), (9, w), (6, other), (9, None),
                        (1, other), (12, replace(other, alpha=0.5)), (12, w), (7, w),
                        (10, WeightSpec(Q=w.Q, R=other.R)), (12, None),
                        (10, WeightSpec(Q=other.Q, R=w.R)), (11, w)]
            for gamma, weights in requests:
                oracle_weights = w if weights is None else weights
                self._assert_oracle(sys, gamma, weights, oracle_weights)

    def test_alphas_share_one_held_lift(self, double_integrator_weights):
        sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]])
        held = _lift(sys, 6, double_integrator_weights)
        again = _lift(sys, 6, replace(double_integrator_weights, alpha=25.0))
        assert all(a is b for a, b in zip(held, again))
        # A shorter request copies the first rows rather than viewing them.
        for M, full in zip(_lift(sys, 4, double_integrator_weights), held):
            assert M.base is None or M.base.shape[0] == 4
            assert bits(M) == bits(full[:4])

    @pytest.mark.parametrize("Q, R, message", [
        ([[1.0]], [[1.0]], "Q is 1x1 but the state dimension is 2"),
        (np.eye(2), np.eye(2), "R is 2x2 but the input dimension is 1"),
    ])
    def test_weights_dimension_refusal_on_every_call(self, double_integrator_weights,
                                                     Q, R, message):
        sys = LtiSystem(A=[[1.0, 1.0], [0.0, 1.0]], B=[[0.5], [1.0]])
        bad = WeightSpec(Q=Q, R=R)
        for gamma in (3, 3, 8, 1, 8):
            _lift(sys, gamma, double_integrator_weights)
            _lift(sys, gamma)
            with pytest.raises(ConfigurationError, match=f"^{message}$"):
                _lift(sys, gamma, bad)


class TestSystemValidation:
    def test_rejects_nonsquare_a(self):
        with pytest.raises(ConfigurationError):
            LtiSystem(A=[[1.0, 0.0]], B=[[1.0]])

    def test_rejects_mismatched_b(self):
        with pytest.raises(ConfigurationError):
            LtiSystem(A=[[1.0]], B=[[1.0], [2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigurationError):
            LtiSystem(A=[[np.nan]], B=[[1.0]])

    def test_disturbance_gain_defaults_to_zero(self):
        sys = LtiSystem(A=[[1.0]], B=[[1.0]])
        np.testing.assert_array_equal(sys.E, [[0.0]])
        assert sys.w == 1

    def test_matrices_are_read_only(self, integrator):
        with pytest.raises(ValueError):
            integrator.A[0, 0] = 2.0


def _scenario(**overrides):
    loop = LoopSpec(name="loop", system=LtiSystem(A=[[1.0]], B=[[1.0]]),
                    weights=WeightSpec(Q=[[1.0]], R=[[1.0]]), x0=[1.0])
    fields = dict(loops=(loop,), I0=(1, 2, 3), p=3, horizon=10, seed=1)
    fields.update(overrides)
    return Scenario(**fields)


def _table(I0):
    P, L = np.eye(1), np.eye(1)
    return GainTable(loop_id="loop", alpha=0.0, P_stack=[P, P], L_stack=[L, L],
                     p=2, Pp=P, Lp=L, I0=I0)


_UNIT = LtiSystem(A=[[1.0]], B=[[1.0]])
_UNIT_WEIGHTS = WeightSpec(Q=[[1.0]], R=[[1.0]])


def _booked_ledger():
    return ReservationLedger(p=5, I0=range(1, 6), loop_order=("a", "b"), next_tx={"a": 3})


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _scenario(I0=[1.5, 2.9, 5]), id="scenario-I0-fraction"),
    pytest.param(lambda: _scenario(I0=[True, 2]), id="scenario-I0-bool"),
    pytest.param(lambda: _scenario(I0=[0, 1]), id="scenario-I0-zero"),
    pytest.param(lambda: _scenario(horizon=10.5), id="scenario-horizon-fraction"),
    pytest.param(lambda: _scenario(p=3.0), id="scenario-p-float"),
    pytest.param(lambda: _scenario(mode="periodic", ts=2.5), id="scenario-ts-fraction"),
    pytest.param(lambda: _table([1, 2.0]), id="table-I0-float"),
    pytest.param(lambda: ReservationLedger(p=3, I0=[1, 2.5], loop_order=("a",),
                                           next_tx={}), id="ledger-I0-fraction"),
    pytest.param(lambda: ReservationLedger(p=2.5, I0=[1, 2], loop_order=("a",),
                                           next_tx={}), id="ledger-p-fraction"),
    pytest.param(lambda: ReservationLedger(p=3, I0=[1, 2], loop_order=("a",),
                                           next_tx={"a": 1.5}),
                 id="ledger-slot-fraction"),
    pytest.param(lambda: reserve(ReservationLedger(p=3, I0=[1, 2], loop_order=("a",),
                                                   next_tx={}), "a", 0, 2.0),
                 id="reserve-wait-float"),
    pytest.param(lambda: feasible_set(_booked_ledger(), "b", 2.5), id="feasible-set-k-fraction"),
    pytest.param(lambda: reserve(_booked_ledger(), "b", 2.5, 1), id="reserve-k-fraction"),
    pytest.param(lambda: sweep(_scenario(), [0.1], n_runs=2.5),
                 id="sweep-n-runs-fraction"),
    pytest.param(lambda: decide(_table([1, 2]), [0.0], [1.5]), id="decide-wait-fraction"),
    pytest.param(lambda: build_gain_table(LtiSystem(A=[[1.0]], B=[[1.0]]),
                                          WeightSpec(Q=[[1.0]], R=[[1.0]]),
                                          [1, 1.5], 1), id="build-I0-fraction"),
    pytest.param(lambda: select_pstar([LtiSystem(A=[[1.0]], B=[[1.0]])], [2.5]),
                 id="select-pstar-I0-fraction"),
    pytest.param(lambda: _scenario(I0=5), id="scenario-I0-not-a-set"),
    pytest.param(lambda: ReservationLedger(p=3, I0=5, loop_order=("a",), next_tx={}),
                 id="ledger-I0-not-a-set"),
    pytest.param(lambda: build_gain_table(LtiSystem(A=[[1.0]], B=[[1.0]]),
                                          WeightSpec(Q=[[1.0]], R=[[1.0]]), 3, 3),
                 id="build-I0-not-a-set"),
    pytest.param(lambda: decide(_table([1, 2]), [0.0], 3), id="decide-waits-not-a-set"),
    pytest.param(lambda: sweep(_scenario(), ["x"], n_runs=1),
                 id="sweep-alpha-string"),
    pytest.param(lambda: WeightSpec(Q=[[1.0]], R=[[1.0]], alpha="0.2"),
                 id="weights-alpha-string"),
    pytest.param(lambda: WeightSpec(Q=[[1.0]], R=[[1.0]], alpha=True), id="weights-alpha-bool"),
    pytest.param(lambda: WeightSpec(Q=[[1.0]], R=[[1.0]], alpha=10**400),
                 id="weights-alpha-huge-int"),
    pytest.param(lambda: replace(_table([1, 2]), alpha=float("nan")), id="table-alpha-nan"),
    pytest.param(lambda: LtiSystem(A=[[1.0, 2.0], [3.0]], B=[[1.0], [1.0]]),
                 id="system-A-ragged"),
    pytest.param(lambda: lift_range(_UNIT, _UNIT_WEIGHTS, 2.0), id="lift-range-float"),
    pytest.param(lambda: lift_range(_UNIT, _UNIT_WEIGHTS, 0), id="lift-range-zero"),
    pytest.param(lambda: _lift(_UNIT, 2.5), id="lift-fraction"),
    pytest.param(lambda: _lift(_UNIT, True), id="lift-bool"),
    pytest.param(lambda: _lift(_UNIT, np.float64(2.0), _UNIT_WEIGHTS), id="lift-weights-float"),
    pytest.param(lambda: _lift(_UNIT, -1, _UNIT_WEIGHTS), id="lift-weights-negative"),
    pytest.param(lambda: solve_periodic_riccati(_UNIT, _UNIT_WEIGHTS, 2.0),
                 id="riccati-p-float"),
    pytest.param(lambda: build_gain_table(_UNIT, _UNIT_WEIGHTS, range(1, 6), p=3.0),
                 id="build-p-float"),
    pytest.param(lambda: uncontrollable_reason(_UNIT, 2.5), id="uncontrollable-fraction"),
    pytest.param(lambda: uncontrollable_reason(_UNIT, True), id="uncontrollable-bool"),
])
def test_non_integer_waits_and_counts_refused(make):
    with pytest.raises(ConfigurationError):
        make()


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: _lift(_UNIT, 0), "downsampling factor must be >= 1, got 0",
                 id="lift-factor"),
    pytest.param(lambda: solve_periodic_riccati(_UNIT, _UNIT_WEIGHTS, 0),
                 "downsampling factor must be >= 1, got 0", id="riccati-p"),
    pytest.param(lambda: _scenario(p=0), "p must be >= 1, got 0", id="scenario-p"),
    pytest.param(lambda: _scenario(horizon=0), "horizon must be >= 1, got 0",
                 id="scenario-horizon"),
    pytest.param(lambda: sweep(_scenario(), [0.1], n_runs=0),
                 "n_runs must be >= 1, got 0", id="sweep-n-runs"),
    pytest.param(lambda: ReservationLedger(p=0, I0=[1, 2], loop_order=("a",), next_tx={}),
                 "shared period p must be >= 1, got 0", id="ledger-p"),
    pytest.param(lambda: replace(_table([1, 2]), p=0), "table 'loop': p must be >= 1, got 0",
                 id="table-p"),
    pytest.param(lambda: replace(_table([1, 2]), p=-3), "table 'loop': p must be >= 1, got -3",
                 id="table-p-negative"),
])
def test_each_count_is_at_least_one(make, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        make()


def _loop(x0):
    return LoopSpec(name="loop", system=_UNIT, weights=_UNIT_WEIGHTS, x0=x0)


def _entry_table(P, L):
    return GainTable(loop_id="loop", alpha=0.0, P_stack=[P], L_stack=[L], p=2,
                     Pp=np.eye(1), Lp=np.eye(1), I0=(1,))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: LtiSystem(A=[["1"]], B=[[True]]), id="system-string-and-bool"),
    pytest.param(lambda: LtiSystem(A=[["1"]], B=[[1.0]]), id="system-A-string"),
    pytest.param(lambda: LtiSystem(A=[[1.0]], B=[[True]]), id="system-B-bool"),
    pytest.param(lambda: LtiSystem(A=np.eye(2), B=[[1.0], [True]]), id="system-B-bool-among-floats"),
    pytest.param(lambda: LtiSystem(A=np.array([[True]]), B=[[1.0]]), id="system-A-bool-array"),
    pytest.param(lambda: LtiSystem(A=[[1 + 1j]], B=[[1.0]]), id="system-A-complex"),
    pytest.param(lambda: LtiSystem(A=[[1.0]], B=[[1.0]], E=[[b"1"]]), id="system-E-bytes"),
    pytest.param(lambda: WeightSpec(Q=np.array([[True]], dtype=object), R=[[1.0]]),
                 id="weights-Q-object-bool"),
    pytest.param(lambda: WeightSpec(Q=[[1.0]], R=[[None]]), id="weights-R-none"),
    pytest.param(lambda: _loop(["5"]), id="loop-x0-string"),
    pytest.param(lambda: _loop([True]), id="loop-x0-bool"),
    pytest.param(lambda: _loop(np.array([1 + 0j])), id="loop-x0-complex-array"),
    pytest.param(lambda: _entry_table([["2"]], [[True]]), id="table-entry-string-and-bool"),
    pytest.param(lambda: _entry_table([[2.0]], [[True]]), id="table-entry-L-bool"),
    pytest.param(lambda: _entry_table(np.array([[2.0]], dtype=object), [[1j]]),
                 id="table-entry-L-complex"),
    pytest.param(lambda: _entry_table(np.array([["2"]]), [[1.0]]), id="table-entry-P-string-array"),
    pytest.param(lambda: replace(_table([1, 2]), Pp=[[1 + 0j]]), id="table-Pp-complex"),
    pytest.param(lambda: decide(_table([1, 2]), "3", [1]), id="decide-x-string"),
    pytest.param(lambda: decide(_table([1, 2]), True, [1]), id="decide-x-bool"),
    pytest.param(lambda: decide(_table([1, 2]), [1 + 2j], [1]), id="decide-x-complex"),
    pytest.param(lambda: decide(_table([1, 2]), np.array([True], dtype=object), [1]),
                 id="decide-x-object-bool"),
    pytest.param(lambda: decide(_table([1, 2]), np.complex128(1.0), [1]),
                 id="decide-x-numpy-complex"),
    pytest.param(lambda: decide(_table([1, 2]), [np.True_], [1]), id="decide-x-numpy-bool"),
    pytest.param(lambda: partition_1d(_table([1, 2]), ["1"]), id="partition-grid-string"),
])
def test_non_numeric_matrices_and_vectors_refused(make):
    # Complex values are refused before numpy would drop their imaginary
    # parts, so no ComplexWarning is raised on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError):
            make()


def test_ints_floats_and_numpy_numbers_are_accepted_as_floats():
    sys = LtiSystem(A=[[1, np.float32(0.5)], [np.int8(0), 1.0]],
                    B=np.array([[1], [2]], dtype=np.uint8))
    assert sys.A.dtype == sys.B.dtype == np.float64
    assert sys.A.tolist() == [[1.0, 0.5], [0.0, 1.0]] and sys.B.tolist() == [[1.0], [2.0]]
    gt = _entry_table(np.array([[2]], dtype=object), [[np.float16(0.5)]])
    assert gt.P(1).tolist() == [[2.0]] and gt.L(1).tolist() == [[0.5]]
    assert _loop((np.int64(3),)).x0.tolist() == [3.0]
    x = np.array([0.5])
    assert decide(gt, x, [1]).u.tolist() == [-0.25]
    assert decide(gt, 2, [1]).u.tolist() == [-1.0]
    assert decide(gt, np.float64(2.0), [1]).u.tolist() == [-1.0]


def test_numpy_integers_are_accepted_as_plain_ints():
    scn = _scenario(I0=np.arange(3, 0, -1), p=np.int64(3), horizon=np.int32(10))
    assert scn.I0 == (1, 2, 3) and scn.p == 3 and scn.horizon == 10
    assert all(type(v) is int for v in (*scn.I0, scn.p, scn.horizon))
    assert [lm.i for lm in lift_range(_UNIT, _UNIT_WEIGHTS, np.int64(3))] == [1, 2, 3]
    assert uncontrollable_reason(_UNIT, np.int32(2)) is None


_SMALLEST_SUBNORMAL = 5e-324


@pytest.mark.parametrize("size", [1, 2, _SMALL_VECTOR - 1, _SMALL_VECTOR, 3 * _SMALL_VECTOR])
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, -0.0, _SMALLEST_SUBNORMAL,
                                   -2.5e-310, 1.7976931348623157e308, None])
def test_all_finite_is_numpys_finiteness_test(size, entry):
    # Either side of the size cut, and as a vector or a matrix, the answer
    # is np.isfinite(a).all() exactly.
    rng = np.random.default_rng(size)
    for position in sorted({0, size // 2, size - 1}):
        a = rng.normal(size=size)
        if entry is not None:
            a[position] = entry
        for arr in (a, a[::-1].copy(), a.reshape(1, -1), a.reshape(-1, 1)):
            assert _all_finite(arr) == np.isfinite(arr).all()
