"""Slot reservations, feasible wait sets, conflict audits."""
import dataclasses

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
from selftrig.scheduler import _RunLedger


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

    def test_decision_past_own_reservation_rejected(self):
        ledger = ledger_two_loops(l1=3, l2=5)
        with pytest.raises(SchedulingError, match="past its reserved slot 3"):
            feasible_set(ledger, "l1", 7)
        with pytest.raises(SchedulingError, match="past its reserved slot 3"):
            reserve(ledger, "l1", 7, 1)
        assert feasible_set(ledger, "l1", 3) == frozenset({1, 3, 4, 5})


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


class TestFeasibilityMemo:
    """``feasible_set`` keeps its result in a private memo of the ledger;
    every check still runs on every call, and nothing else sees the memo."""

    def test_a_second_call_returns_the_first_set(self):
        ledger = ledger_two_loops(l1=3, l2=7)
        first = feasible_set(ledger, "l1", 3)
        assert feasible_set(ledger, "l1", np.int64(3)) is first
        assert feasible_set(ledger, "l2", 3) == frozenset({1, 2, 3, 4})

    def test_a_reserved_ledger_starts_an_empty_memo(self):
        ledger = ledger_two_loops(l2=7)
        feasible_set(ledger, "l1", 0)
        assert ledger._feasible
        booked = reserve(ledger, "l1", 0, 3)
        assert booked._feasible == {} and booked._feasible is not ledger._feasible
        # The derived ledger computes its own set: l1's slot at 3 now
        # excludes a residue for l2.
        assert feasible_set(booked, "l2", 1) == frozenset({1, 3, 4, 5})
        assert feasible_set(ledger, "l2", 1) == frozenset({1, 2, 3, 4, 5})

    @pytest.mark.parametrize("loop_id, k, error, message", [
        ("zz", 3, ConfigurationError, "unknown loop 'zz'"),
        ("l1", True, ConfigurationError, "decision time k must be an integer, got True"),
        ("l1", 1.0, ConfigurationError, "decision time k must be an integer, got 1.0"),
        ("l1", 3.0, ConfigurationError, "decision time k must be an integer, got 3.0"),
        ("l1", 4, SchedulingError, "loop 'l1' decides at k=4, past its reserved slot 3"),
    ])
    def test_refusals_are_kept_with_a_memo_present(self, loop_id, k, error, message):
        ledger = ledger_two_loops(l1=3, l2=7)
        for memo_k in (1, 3):
            feasible_set(ledger, "l1", memo_k)
        with pytest.raises(error) as excinfo:
            feasible_set(ledger, loop_id, k)
        assert str(excinfo.value) == message

    def test_an_infeasible_reservation_is_refused_with_a_memo_present(self):
        ledger = ledger_two_loops(l1=3, l2=7)
        assert 4 not in feasible_set(ledger, "l1", 3)
        for _ in range(2):
            with pytest.raises(SchedulingError) as excinfo:
                reserve(ledger, "l1", 3, 4)
            assert str(excinfo.value) == "loop 'l1' attempted infeasible wait 4 at k=3"

    def test_repr_equality_and_replace_ignore_the_memo(self):
        ledger = ledger_two_loops(l1=3)
        before = repr(ledger)
        feasible_set(ledger, "l2", 0)
        assert repr(ledger) == before and "_feasible" not in before
        assert "_feasible" not in {f.name for f in dataclasses.fields(ledger)}
        replaced = dataclasses.replace(ledger)
        assert ledger == ledger and replaced != ledger
        assert replaced._feasible == {} and repr(replaced) == before


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


class TestRunAxisLedger:
    """``_RunLedger`` is the ledger of many runs at once: its mask is the
    complement of ``feasible_set`` and its booking that of ``reserve``."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 7])
    def test_mask_and_booking_equal_the_ledger_run_by_run(self, p):
        rng = np.random.default_rng(200 + p)
        for s in range(1, p + 1):
            extra = rng.integers(s + 1, 3 * p + 2, size=int(rng.integers(0, 4)))
            I0 = tuple(sorted(set(range(1, max(s, p) + 1)) | {int(i) for i in extra}))
            gamma = max(I0)
            names = tuple(f"l{j}" for j in range(s))
            for _ in range(10):
                k, j, n_runs = int(rng.integers(0, 50)), int(rng.integers(s)), 6
                runs = _RunLedger(p, I0, s, n_runs)
                ledgers = []
                for r in range(n_runs):
                    offsets = rng.choice(3 * gamma + 1, size=s, replace=False)
                    booked = rng.random(s) < 0.8
                    runs.next_tx[r] = k + offsets
                    runs.booked[r] = booked
                    ledgers.append(ReservationLedger(
                        p=p, I0=I0, loop_order=names,
                        next_tx={q: k + int(d) for q, d, b in zip(names, offsets, booked)
                                 if b}))
                rows = np.flatnonzero(rng.random(n_runs) < 0.7)
                # The event loop passes a slice when every run decides.
                index = rows if rows.size < n_runs else slice(None)
                taken = runs.taken(j, k, index)
                if taken is None:
                    assert s == 1
                    taken = np.zeros((rows.size, len(I0)), dtype=bool)
                sets = [feasible_set(ledgers[r], names[j], k) for r in rows]
                for feas, mask in zip(sets, taken):
                    assert feas == {i for i, t in zip(I0, mask) if not t}
                picks = np.array([I0.index(int(rng.choice(sorted(feas)))) for feas in sets],
                                 dtype=int)
                waits = runs.book(j, k, index, picks)
                for r, wait in zip(rows, waits):
                    booked = reserve(ledgers[r], names[j], k, int(wait)).next_tx
                    assert runs.booked[r, j]
                    assert runs.next_tx[r, j] == booked[names[j]]
