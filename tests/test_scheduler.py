"""Slot reservations, feasible wait sets, conflict audits."""
import numpy as np
import pytest

from selftrig import (
    ConfigurationError,
    ReservationLedger,
    SchedulingError,
    feasible_set,
    reserve,
    verify_conflict_free,
)


def ledger_two_loops(**next_tx):
    return ReservationLedger(
        p=5, I0=range(1, 6), loop_order=("l1", "l2"), next_tx=next_tx
    )


class TestFeasibleSet:
    def test_no_other_reservations_gives_full_set(self):
        ledger = ledger_two_loops()
        assert feasible_set(ledger, "l1", 0) == frozenset({1, 2, 3, 4, 5})

    def test_single_opposing_reservation_removes_one_residue(self):
        ledger = ledger_two_loops(l1=1)
        assert feasible_set(ledger, "l2", 0) == frozenset({2, 3, 4, 5})

    def test_future_reservation_excluded_modulo_period(self):
        ledger = ReservationLedger(
            p=5, I0=range(1, 6), loop_order=("l", "q"), next_tx={"q": 17}
        )
        assert feasible_set(ledger, "l", 10) == frozenset({1, 3, 4, 5})

    def test_own_reservation_is_ignored(self):
        ledger = ledger_two_loops(l1=3, l2=7)
        # At its own slot, l1 is only constrained by l2's slot at 7: 7-3=4.
        assert feasible_set(ledger, "l1", 3) == frozenset({1, 2, 3, 5})

    def test_matches_bounded_enumeration(self):
        # Wait i is excluded iff k + i == next_tx[q] + r*p for some other
        # loop q and some |r| <= R; R covers every offset drawn below.
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(300):
            p = int(rng.integers(2, 7))
            s = int(rng.integers(2, p + 1))
            extra = rng.integers(s + 1, 3 * p + 2, size=int(rng.integers(0, 4)))
            I0 = set(range(1, s + 1)) | {int(i) for i in extra}
            gamma = max(I0)
            names = tuple(f"l{j}" for j in range(s))
            k = int(rng.integers(0, 50))
            offsets = rng.choice(3 * gamma + 1, size=s, replace=False)
            booked = rng.random(s) < 0.8
            next_tx = {q: k + int(d) for q, d, b in zip(names, offsets, booked) if b}
            ledger = ReservationLedger(p=p, I0=I0, loop_order=names, next_tx=next_tx)
            loop = names[int(rng.integers(s))]
            R = (4 * gamma) // p + 1
            want = {
                i for i in I0
                if not any(k + i == kq + r * p
                           for q, kq in next_tx.items() if q != loop
                           for r in range(-R, R + 1))
            }
            assert feasible_set(ledger, loop, k) == want
            others = [kq - k for q, kq in next_tx.items() if q != loop]
            if gamma > p:
                seen.add("gamma > p")
            if 0 in others:
                seen.add("reservation at k")
            if any(d > gamma for d in others):
                seen.add("reservation beyond gamma")
        assert len(seen) == 3

    def test_unknown_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            feasible_set(ledger_two_loops(), "nope", 0)


class TestReserve:
    def test_reservation_lands_at_k_plus_i(self):
        ledger = ledger_two_loops()
        ledger = reserve(ledger, "l1", 0, 1)
        assert ledger.next_tx["l1"] == 1
        ledger = reserve(ledger, "l2", 0, 2)
        assert ledger.next_tx["l2"] == 2

    def test_infeasible_wait_rejected(self):
        ledger = ledger_two_loops(l1=2)
        with pytest.raises(SchedulingError):
            reserve(ledger, "l2", 0, 2)

    def test_shared_period_stays_available_after_own_slot(self):
        # After consuming its own reservation at k + i, the loop can always
        # wait the full shared period again.
        ledger = ledger_two_loops()
        ledger = reserve(ledger, "l1", 0, 1)
        ledger = reserve(ledger, "l2", 0, 2)
        for _ in range(30):
            k = min(ledger.next_tx.values())
            loop = min(q for q, kq in ledger.next_tx.items() if kq == k)
            feas = feasible_set(ledger, loop, k)
            assert ledger.p in feas
            ledger = reserve(ledger, loop, k, max(feas))

    def test_infeasible_wait_rejected_after_reservation(self):
        ledger = reserve(ledger_two_loops(), "l1", 0, 2)
        with pytest.raises(SchedulingError):
            reserve(ledger, "l2", 0, 2)
        with pytest.raises(SchedulingError):
            reserve(ledger, "l2", 1, 1)
        assert dict(ledger.next_tx) == {"l1": 2}
        assert reserve(ledger, "l2", 1, 2).next_tx == {"l1": 2, "l2": 3}

    def test_reserve_does_not_revalidate(self, monkeypatch):
        ledger = ledger_two_loops(l1=2)

        def refuse(self):
            raise AssertionError("ledger validated again")

        monkeypatch.setattr(ReservationLedger, "__post_init__", refuse)
        updated = reserve(ledger, "l2", 0, 3)
        assert (updated.p, updated.I0) == (5, (1, 2, 3, 4, 5))
        assert updated.loop_order == ("l1", "l2")
        assert updated.next_tx == {"l1": 2, "l2": 3}

    def test_original_ledger_unchanged(self):
        ledger = ledger_two_loops()
        updated = reserve(ledger, "l1", 0, 3)
        assert "l1" not in ledger.next_tx
        assert updated.next_tx["l1"] == 3


class TestLedgerAdmissibility:
    def test_duplicate_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            ledger_two_loops(l1=4, l2=4)

    def test_too_many_loops_for_period(self):
        with pytest.raises(ConfigurationError, match="inadmissible"):
            ReservationLedger(
                p=2, I0=range(1, 6), loop_order=("a", "b", "c"), next_tx={}
            )

    def test_missing_short_waits(self):
        with pytest.raises(ConfigurationError, match="inadmissible"):
            ReservationLedger(
                p=5, I0=[3, 4, 5], loop_order=("a", "b"), next_tx={}
            )

    def test_single_loop_exempt_from_network_rules(self):
        ReservationLedger(p=3, I0=[3], loop_order=("solo",), next_tx={})


class TestConflictAudit:
    def test_disjoint_times_pass(self):
        assert verify_conflict_free([(1, "a"), (2, "b"), (6, "a"), (7, "b")])

    def test_shared_time_fails(self):
        assert not verify_conflict_free([(3, "a"), (3, "b")])

    def test_empty_log_passes(self):
        assert verify_conflict_free([])


def test_randomized_reservation_cycles_stay_nonempty():
    rng = np.random.default_rng(123)
    for s in (2, 3, 4):
        p = s + int(rng.integers(0, 3))
        names = tuple(f"loop{j}" for j in range(s))
        ledger = ReservationLedger(p=p, I0=range(1, p + 1), loop_order=names,
                                   next_tx={})
        for name in names:
            feas = feasible_set(ledger, name, 0)
            assert feas
            ledger = reserve(ledger, name, 0, int(rng.choice(sorted(feas))))
        log = []
        for _ in range(3000):
            k = min(ledger.next_tx.values())
            loop = min(q for q, kq in ledger.next_tx.items() if kq == k)
            log.append((k, loop))
            feas = feasible_set(ledger, loop, k)
            assert feas, "feasible set must never be empty"
            ledger = reserve(ledger, loop, k, int(rng.choice(sorted(feas))))
        assert verify_conflict_free(log)
