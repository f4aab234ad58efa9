"""Online decision law: pick the wait and the input from the lookup table.

Given a fresh sample and the set of waits the channel allows, the
controller scores ``alpha/i + x' P(i) x`` for every wait of the table at
once, as one quadratic form over the table's stacked ``P(i)``, picks the
minimizing wait within that set and applies the matching state feedback,
one matrix-vector product.  The pick has two forms of one rule: a scalar
loop for one state (:func:`decide`) and an argmin over a run axis
(:func:`_pick`, for :func:`partition_1d` and the sweep's runs).
Everything is a pure function of an immutable gain table.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GainLookupError, SchedulingError
from .model import _wait_set, as_vector
from .synthesis import GainTable

_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, eq=False)
class Decision:
    """Outcome of one online decision.

    ``i_star`` is the chosen wait, ``u`` the held input ``-L(i_star) x``,
    ``value`` the achieved cost and ``values_by_i`` the cost of every
    candidate wait (kept for diagnostics and trace output).
    """

    i_star: int
    u: np.ndarray
    value: float
    values_by_i: dict


def _scores(gt: GainTable, x: np.ndarray) -> np.ndarray:
    """Cost ``alpha/i + x' P(i) x`` of every wait in ``gt.I0``, in row order.

    One stacked quadratic form, for ``x`` of shape ``(n,)`` (scores
    ``(|I0|,)``) or ``(R, n)`` (scores ``(R, |I0|)``).  It is the single
    evaluation path of the law, so every argmin compares the same floats.
    """
    return gt.costs + ((x @ gt.P_stack) * x).sum(axis=-1).T


def value_of(gt: GainTable, x, i: int) -> float:
    """Predicted cost ``alpha/i + x' P(i) x`` of waiting ``i`` steps."""
    x = as_vector(x, "x", gt.n)
    return float(_scores(gt, x)[gt._row(i)])


def decide(gt: GainTable, x, feasible) -> Decision:
    """Minimize the predicted cost over the feasible waits.

    The pick follows the rule of :func:`_pick`, one wait at a time: ties
    go to the larger wait, and a score that overflowed or is not a number
    ranks as the largest float.  With x = 0 the quadratic terms vanish and
    the rule reduces to the largest feasible wait with u = 0.
    ``value`` is the raw score of the chosen wait.
    """
    feas = _wait_set(feasible, "feasible set", empty=SchedulingError)
    rows = gt.rows
    try:
        picked = [rows[i] for i in feas]
    except KeyError:
        unknown = [i for i in feas if i not in rows]
        raise GainLookupError(
            f"loop {gt.loop_id!r}: feasible waits {unknown} have no table entry"
        ) from None
    x = as_vector(x, "x", gt.n)
    scores = _scores(gt, x).tolist()
    values = {}
    best = _FLOAT_MAX  # no ranked score exceeds it, so the first wait sets it
    for i, r in zip(feas, picked):
        v = values[i] = scores[r]
        v = v if v < _FLOAT_MAX else _FLOAT_MAX
        if v <= best:
            best, i_star, r_star = v, i, r
    u = -(gt.L_stack[r_star] @ x)
    u.setflags(write=False)
    # Built as reserve builds its ledger: the fields are known good, so the
    # frozen dataclass's per-field __setattr__ is skipped.
    dec = object.__new__(Decision)
    dec.__dict__.update(i_star=i_star, u=u, value=values[i_star], values_by_i=values)
    return dec


def _pick(scores: np.ndarray, taken=None) -> np.ndarray:
    """Row of the chosen wait for each run of ``scores`` ``(R, |I0|)``.

    The rule of the online law: the least score among the waits not
    ``taken`` (a boolean mask shaped like ``scores``; ``None`` takes none),
    ties going to the larger wait.  A score that overflowed or is not a
    number ranks as the largest float, so it loses to every finite score
    and still beats every taken wait.
    """
    ranked = np.fmin(scores, _FLOAT_MAX)
    if taken is not None:
        ranked[taken] = np.inf
    # Argmin over the reversed waits, so that ties go to the larger wait.
    return ranked.shape[1] - 1 - ranked[:, ::-1].argmin(axis=1)


def partition_1d(gt: GainTable, x_grid) -> np.ndarray:
    """Unrestricted optimal wait at each point of a scalar-state grid.

    Diagnostic reproduction of the switching curve between waits; only
    defined for scalar-state tables.
    """
    if gt.n != 1:
        raise ConfigurationError(
            f"state-space partition is only available for scalar states (n={gt.n})"
        )
    grid = as_vector(x_grid, "x_grid")
    return np.array(gt.I0)[_pick(_scores(gt, grid[:, None]))]
