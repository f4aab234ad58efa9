"""Conflict-free coordination of one shared channel across loops.

Each sensor owns at most one reserved future slot.  Once the network
settles into the shared terminal period ``p``, a sensor whose next slot is
``next_tx[q]`` occupies every slot congruent to it modulo ``p``.  A loop
deciding at time ``k`` therefore keeps wait ``i`` exactly when
``(i - (next_tx[q] - k)) % p != 0`` for every other reserved sensor ``q``:
one residue class modulo ``p`` is excluded per opposing sensor.  With at
most ``p`` loops and waits ``{1..s}`` available the resulting feasible set
is never empty.

Each ledger builds its residue table once: ``I0`` as a set, and the waits
of ``I0`` in each residue class modulo ``p`` that ``I0`` meets.  The table
is sized by ``|I0|``, not by ``p``, and every ledger that :func:`reserve`
derives shares it.  The feasible set is then ``I0`` minus the classes of
the opposing reservations, one set difference, kept in the ledger's
private memo: :func:`reserve`'s feasibility check asks for the set the
deciding loop has just asked for, and finds it there.

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
from .model import _check_admissible, _count, _integer, _wait_set


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
        # The residue table of feasible_set; reserve shares it with the
        # ledgers it derives.
        classes = {}
        for i in self.I0:
            classes.setdefault(i % self.p, []).append(i)
        object.__setattr__(self, "_waits", frozenset(self.I0))
        object.__setattr__(self, "_classes", {r: frozenset(c) for r, c in classes.items()})
        # The memo of feasible_set, per (loop_id, k); each ledger has its own.
        object.__setattr__(self, "_feasible", {})


def feasible_set(ledger: ReservationLedger, loop_id: str, k: int) -> frozenset:
    """Waits loop ``loop_id`` may choose at time ``k`` without collisions.

    Guaranteed non-empty for admissible ledgers; an empty result indicates
    a broken internal invariant and raises.  Every call checks its
    arguments; the result is then kept in the ledger's private memo, keyed
    by ``(loop_id, k)``, so asking again (as :func:`reserve` does) returns
    the same set without recomputing it.  The memo is not a field: it takes
    no part in ``repr`` or ``replace``, and a replaced or derived ledger
    starts an empty one.  Threads may share a ledger: two that fill one
    memo entry at once store equal sets.
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
    memo = ledger._feasible
    feas = memo.get((loop_id, k))
    if feas is not None:
        return feas
    p, classes = ledger.p, ledger._classes
    # (i - (kq - k)) % p == 0 exactly when i and kq - k share a residue.
    feas = ledger._waits.difference(
        *[classes.get((kq - k) % p, ()) for q, kq in next_tx.items() if q != loop_id]
    )
    if not feas:
        raise SchedulingError(
            f"internal invariant violation: loop {loop_id!r} has no feasible wait "
            f"at k={k} (reservations {dict(ledger.next_tx)})"
        )
    memo[loop_id, k] = feas
    return feas


def reserve(ledger: ReservationLedger, loop_id: str, k: int, i: int) -> ReservationLedger:
    """Book loop ``loop_id``'s next transmission at slot k + i.

    Returns a new ledger and leaves ``ledger`` unchanged.  The wait must be
    feasible at time k, which is the only collision check: a feasible wait
    never lands on another sensor's slot, so the new ledger is derived
    without validating it again.  The check calls :func:`feasible_set`,
    which answers from ``ledger``'s memo when the loop has just asked; the
    new ledger starts an empty memo.
    """
    i = _integer(i, "wait")
    if i not in feasible_set(ledger, loop_id, k):
        raise SchedulingError(
            f"loop {loop_id!r} attempted infeasible wait {i} at k={k}"
        )
    next_tx = ledger.next_tx.copy()
    next_tx[loop_id] = int(k) + i
    booked = object.__new__(ReservationLedger)
    booked.__dict__.update(ledger.__dict__, next_tx=MappingProxyType(next_tx), _feasible={})
    return booked


class _RunLedger:
    """The reservations of ``s`` loops in each of ``n_runs`` runs, unchecked.

    Row ``r`` of ``next_tx`` holds run ``r``'s reserved slots, one column
    per loop, and ``booked`` marks the loops that have reserved one.
    :meth:`taken` is the residue test of :func:`feasible_set` and
    :meth:`book` the booking of :func:`reserve`, for the runs ``rows``
    (an index array or a slice) at once, or for the one run ``rows`` (an
    int), without its run axis.
    """

    def __init__(self, p: int, I0: tuple, s: int, n_runs: int):
        self.p = p
        self.waits = np.array(I0)
        self.next_tx = np.zeros((n_runs, s), dtype=int)
        self.booked = np.zeros((n_runs, s), dtype=bool)

    def taken(self, j: int, k: int, rows):
        """Mask ``(R, |I0|)`` (``(|I0|,)`` for one run) of the waits that
        loop ``j`` may not take at ``k``: wait ``i`` is taken when
        ``(i - (next_tx[q] - k)) % p == 0`` for a booked loop ``q != j``.
        ``None`` when there is one loop."""
        if self.next_tx.shape[1] == 1:
            return None
        offset = (self.next_tx[rows] - k)[..., None]
        taken = ((self.waits - offset) % self.p == 0) & self.booked[rows][..., None]
        taken[..., j, :] = False
        return taken.any(axis=-2)

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
