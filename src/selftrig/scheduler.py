"""Conflict-free coordination of one shared channel across loops.

Each sensor owns at most one reserved future slot.  Once the network
settles into the shared terminal period ``p``, a sensor whose next slot is
``next_tx[q]`` occupies every slot congruent to it modulo ``p``.  A loop
deciding at time ``k`` therefore keeps wait ``i`` exactly when
``(i - (next_tx[q] - k)) % p != 0`` for every other reserved sensor ``q``:
one residue class modulo ``p`` is excluded per opposing sensor.  With at
most ``p`` loops and waits ``{1..s}`` available the resulting feasible set
is never empty.

A ledger is validated once, when a caller builds it.  :func:`reserve`
derives the next ledger from a feasible wait without validating again:
membership in the feasible set already rules out a shared slot.
:class:`_RunLedger` is the same ledger for many runs on a leading run
axis, for callers that have already checked their input.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError, SchedulingError
from .model import _count, _integer, _wait_set


def _check_admissible(s: int, I0, p: int) -> None:
    """Admissibility of ``s`` loops sharing one channel.

    With s >= 2 loops the waits 1..s must all be in I0 and s must not
    exceed p; otherwise non-emptiness of the feasible sets is not
    guaranteed.
    """
    if s < 2:
        return
    missing = [i for i in range(1, s + 1) if i not in I0]
    if missing or s > p:
        raise ConfigurationError(
            f"inadmissible network: {s} loops sharing one channel need waits "
            f"{{1..{s}}} in I0 and s <= p (I0={list(I0)}, p={p})"
        )


@dataclass(frozen=True, eq=False)
class ReservationLedger:
    """Next reserved transmission slot per sensor, plus the shared parameters.

    Single-writer by convention: the simulation event loop mutates it via
    :func:`reserve` (which returns a new ledger); audits read snapshots.
    """

    p: int
    I0: tuple
    loop_order: tuple
    next_tx: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "p", _count(self.p, "shared period p"))
        object.__setattr__(self, "I0", _wait_set(self.I0))
        order = tuple(self.loop_order)
        if len(set(order)) != len(order):
            raise ConfigurationError(f"duplicate loop ids in {order}")
        object.__setattr__(self, "loop_order", order)
        tx = {q: _integer(slot, f"reserved slot of loop {q!r}")
              for q, slot in dict(self.next_tx).items()}
        for q in tx:
            if q not in order:
                raise ConfigurationError(f"reservation for unknown loop {q!r}")
        slots = list(tx.values())
        if len(set(slots)) != len(slots):
            raise ConfigurationError(f"two sensors share a reserved slot: {tx}")
        object.__setattr__(self, "next_tx", MappingProxyType(tx))
        _check_admissible(len(order), self.I0, self.p)

    @property
    def gamma(self) -> int:
        return max(self.I0)


def feasible_set(ledger: ReservationLedger, loop_id: str, k: int) -> frozenset:
    """Waits loop ``loop_id`` may choose at time ``k`` without collisions.

    Guaranteed non-empty for admissible ledgers; an empty result indicates
    a broken internal invariant and raises.
    """
    if loop_id not in ledger.loop_order:
        raise ConfigurationError(f"unknown loop {loop_id!r}")
    k = _integer(k, "decision time k")
    next_tx = ledger.next_tx
    own = next_tx.get(loop_id)
    if own is not None and own < k:
        raise SchedulingError(
            f"loop {loop_id!r} decides at k={k}, past its reserved slot {own}"
        )
    p = ledger.p
    # (i - (kq - k)) % p == 0 exactly when i and kq - k share a residue.
    taken = {(kq - k) % p for q, kq in next_tx.items() if q != loop_id}
    feas = frozenset([i for i in ledger.I0 if i % p not in taken])
    if not feas:
        raise SchedulingError(
            f"internal invariant violation: loop {loop_id!r} has no feasible wait "
            f"at k={k} (reservations {dict(ledger.next_tx)})"
        )
    return feas


def reserve(ledger: ReservationLedger, loop_id: str, k: int, i: int) -> ReservationLedger:
    """Book loop ``loop_id``'s next transmission at slot k + i.

    Returns a new ledger and leaves ``ledger`` unchanged.  The wait must be
    feasible at time k, which is the only collision check: a feasible wait
    never lands on another sensor's slot, so the new ledger is derived
    without validating it again.
    """
    i = _integer(i, "wait")
    if i not in feasible_set(ledger, loop_id, k):
        raise SchedulingError(
            f"loop {loop_id!r} attempted infeasible wait {i} at k={k}"
        )
    next_tx = ledger.next_tx.copy()
    next_tx[loop_id] = int(k) + i
    booked = object.__new__(ReservationLedger)
    booked.__dict__.update(ledger.__dict__, next_tx=MappingProxyType(next_tx))
    return booked


class _RunLedger:
    """The reservations of ``s`` loops in each of ``n_runs`` runs, unchecked.

    Row ``r`` of ``next_tx`` holds run ``r``'s reserved slots, one column
    per loop, and ``booked`` marks the loops that have reserved one.
    :meth:`taken` is the residue test of :func:`feasible_set` and
    :meth:`book` the booking of :func:`reserve`, for the runs ``rows``
    (an index array or a slice) at once.
    """

    def __init__(self, p: int, I0: tuple, s: int, n_runs: int):
        self.p = p
        self.waits = np.array(I0)
        self.next_tx = np.zeros((n_runs, s), dtype=int)
        self.booked = np.zeros((n_runs, s), dtype=bool)

    def taken(self, j: int, k: int, rows):
        """Mask ``(R, |I0|)`` of the waits that loop ``j`` may not take at
        ``k``: wait ``i`` is taken when ``(i - (next_tx[q] - k)) % p == 0``
        for a booked loop ``q != j``.  ``None`` when there is one loop."""
        if self.next_tx.shape[1] == 1:
            return None
        offset = (self.next_tx[rows] - k)[:, :, None]
        taken = ((self.waits - offset) % self.p == 0) & self.booked[rows][:, :, None]
        taken[:, j] = False
        return taken.any(axis=1)

    def book(self, j: int, k: int, rows, pick) -> np.ndarray:
        """Book loop ``j``'s next slot at ``k`` plus the wait in row
        ``pick`` of ``I0``, per run, and return those waits."""
        wait = self.waits[pick]
        self.next_tx[rows, j] = k + wait
        self.booked[rows, j] = True
        return wait


def verify_conflict_free(tx_log) -> bool:
    """True iff no two transmissions in the log share a time instant.

    The log holds (time, loop_id) pairs sorted by time; it is re-sorted
    defensively before the adjacent-duplicate scan.
    """
    times = sorted(t for t, _ in tx_log)
    return all(a != b for a, b in zip(times, times[1:]))
