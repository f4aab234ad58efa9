"""Conflict-free coordination of one shared channel across loops.

Each sensor owns at most one reserved future slot.  A loop choosing its
next wait must avoid, for every other sensor, the whole arithmetic
progression that sensor will occupy once the network settles into the
shared terminal period ``p``.  Excluding one residue class modulo ``p``
per opposing sensor achieves that, and with at most ``p`` loops and waits
``{1..s}`` available the resulting feasible set is never empty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType

from .errors import ConfigurationError, SchedulingError


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


@dataclass(frozen=True)
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
        if self.p < 1:
            raise ConfigurationError(f"shared period must be >= 1, got {self.p}")
        I0 = tuple(sorted(set(int(i) for i in self.I0)))
        if not I0 or I0[0] < 1:
            raise ConfigurationError(f"I0 must be positive integers, got {self.I0}")
        object.__setattr__(self, "I0", I0)
        order = tuple(self.loop_order)
        if len(set(order)) != len(order):
            raise ConfigurationError(f"duplicate loop ids in {order}")
        object.__setattr__(self, "loop_order", order)
        tx = dict(self.next_tx)
        for q in tx:
            if q not in order:
                raise ConfigurationError(f"reservation for unknown loop {q!r}")
        slots = list(tx.values())
        if len(set(slots)) != len(slots):
            raise ConfigurationError(f"two sensors share a reserved slot: {tx}")
        object.__setattr__(self, "next_tx", MappingProxyType(tx))
        _check_admissible(len(order), I0, self.p)

    @property
    def gamma(self) -> int:
        return max(self.I0)


def excluded_waits(ledger: ReservationLedger, loop_id: str, k: int) -> dict:
    """Waits loop ``loop_id`` must avoid at time ``k``, with witnesses.

    Returns a map i -> (other_loop, r) such that i = next_tx[other] - k + r*p,
    i.e. waiting i steps would land on a slot the other sensor will occupy.
    """
    if loop_id not in ledger.loop_order:
        raise ConfigurationError(f"unknown loop {loop_id!r}")
    gamma = ledger.gamma
    p = ledger.p
    out = {}
    for q in ledger.loop_order:
        if q == loop_id or q not in ledger.next_tx:
            continue
        d = ledger.next_tx[q] - k
        r_lo = math.ceil((1 - d) / p)
        r_hi = math.floor((gamma - d) / p)
        for r in range(r_lo, r_hi + 1):
            out.setdefault(d + r * p, (q, r))
    return out


def feasible_set(ledger: ReservationLedger, loop_id: str, k: int) -> frozenset:
    """Waits loop ``loop_id`` may choose at time ``k`` without collisions.

    Guaranteed non-empty for admissible ledgers; an empty result indicates
    a broken internal invariant and raises.
    """
    excluded = excluded_waits(ledger, loop_id, k)
    feas = frozenset(i for i in ledger.I0 if i not in excluded)
    if not feas:
        raise SchedulingError(
            f"internal invariant violation: loop {loop_id!r} has no feasible wait "
            f"at k={k} (reservations {dict(ledger.next_tx)})"
        )
    return feas


def reserve(ledger: ReservationLedger, loop_id: str, k: int, i: int) -> ReservationLedger:
    """Book loop ``loop_id``'s next transmission at slot k + i.

    The wait must be feasible at time k; a collision with an existing slot
    is unreachable when that holds and is asserted defensively.
    """
    if i not in feasible_set(ledger, loop_id, k):
        raise SchedulingError(
            f"loop {loop_id!r} attempted infeasible wait {i} at k={k}"
        )
    slot = k + i
    for q, kq in ledger.next_tx.items():
        if q != loop_id and kq == slot:
            raise SchedulingError(
                f"reservation conflict: loops {loop_id!r} and {q!r} both at slot {slot}"
            )
    tx = dict(ledger.next_tx)
    tx[loop_id] = slot
    return replace(ledger, next_tx=MappingProxyType(tx))


def verify_conflict_free(tx_log) -> bool:
    """True iff no two transmissions in the log share a time instant.

    The log holds (time, loop_id) pairs sorted by time; it is re-sorted
    defensively before the adjacent-duplicate scan.
    """
    times = sorted(t for t, _ in tx_log)
    return all(a != b for a, b in zip(times, times[1:]))


def feasible_waits_heterogeneous(I0, own_period: int, k: int, reservations) -> set:
    """Audit-only feasible waits when loops run different periods.

    ``reservations`` holds (next_slot, period) pairs for the other loops.
    A wait i collides when i + m*own_period = (next_slot - k) + n*period
    for some m, n >= 0, i.e. exactly when own_period and the other period
    generate a lattice containing i - (next_slot - k).  Online scheduling
    does not use this form because non-emptiness is not guaranteed.
    """
    if own_period < 1:
        raise ConfigurationError(f"own period must be >= 1, got {own_period}")
    feasible = set()
    for i in set(int(v) for v in I0):
        collides = False
        for next_slot, period in reservations:
            if period < 1:
                raise ConfigurationError(f"reservation period must be >= 1, got {period}")
            if (i - (next_slot - k)) % math.gcd(own_period, period) == 0:
                collides = True
                break
        if not collides:
            feasible.add(i)
    return feasible
