"""Online decision law: pick the wait and the input from the lookup table.

Given a fresh sample and the set of waits the channel allows, the
controller scores ``alpha/i + x' P(i) x`` for the waits, picks the
minimizing wait within that set and applies the matching state feedback
``-L(i) x``.  The scores have two forms of one formula: one stacked
quadratic form over the table's ``P(i)`` (:func:`_scores`, for states of
two or more entries and for every run axis), and Python floats over the
feasible waits for a scalar state (:func:`decide`).  With one state
entry every term is one product: numpy's add.reduce adds the quadratic
term of a score to a 0.0 start, its matmul each entry of an input, and
the scalar form adds to 0.0 alike; so both forms give the same floats,
bit for bit, down to the sign of a zero.  The pick has two forms of one
rule: a scalar loop for one state (:func:`decide`) and an argmin over a
run axis (:func:`_pick`, for :func:`partition_1d` and the sweep's runs).
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


def _scores(gt: GainTable, x: np.ndarray, costs=None) -> np.ndarray:
    """Cost ``alpha/i + x' P(i) x`` of every wait in ``gt.I0``, in row order.

    One stacked quadratic form, for ``x`` of shape ``(n,)`` (scores
    ``(|I0|,)``) or ``(R, n)`` (scores ``(R, |I0|)``).  Every argmin
    compares these floats: :func:`decide`'s scalar form for ``n == 1``
    forms each of them bit for bit, one product per term added to a 0.0
    start as add.reduce adds it.
    ``costs`` ``(R, |I0|)``, when given, stands in for ``gt.costs``: row
    ``r``'s sampling costs, for rows of tables that differ only in alpha.
    """
    # add.reduce is what ndarray.sum calls, without its Python wrapper.
    return (gt.costs if costs is None else costs) + np.add.reduce((x @ gt.P_stack) * x, -1).T


def decide(gt: GainTable, x, feasible) -> Decision:
    """Minimize the predicted cost over the feasible waits.

    The pick follows the rule of :func:`_pick`, one wait at a time: ties
    go to the larger wait, and a score that overflowed or is not a number
    ranks as the largest float.  With x = 0 the quadratic terms vanish and
    the rule reduces to the largest feasible wait with u = 0.
    ``value`` is the raw score of the chosen wait.

    A table with ``n == 1`` is scored in Python floats from its derived
    scalars, each wait as ``alpha/i + (0.0 + x P(i) x)`` and the input as
    ``-(0.0 + L(i) x)``: one product per term, added to a 0.0 start as
    numpy's add.reduce and matmul add it, so the floats equal
    :func:`_scores`' and ``-(L(i) @ x)``'s bit for bit.  Larger states go
    through :func:`_scores`.  Either way, the public law raises no
    floating-point warning: an overflow is ranked, not reported.
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
    values = {}
    best = _FLOAT_MAX  # no ranked score exceeds it, so the first wait sets it
    scalar = gt._scalar
    if scalar is not None:
        # The 0.0 starts are add.reduce's and matmul's (see the docstring).
        costs, P, L = scalar
        (x0,) = x.tolist()
        for i, r in zip(feas, picked):
            v = values[i] = costs[r] + (0.0 + x0 * P[r] * x0)
            v = v if v < _FLOAT_MAX else _FLOAT_MAX
            if v <= best:
                best, i_star, r_star = v, i, r
        u = np.array([-(0.0 + l * x0) for l in L[r_star]])
    else:
        # A score or an input may overflow; the pick rule ranks such a score.
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _scores(gt, x).tolist()
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
    """Row of the chosen wait for each run of ``scores`` ``(R, |I0|)``, or
    for the one run of ``scores`` ``(|I0|,)``.

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
    return ranked.shape[-1] - 1 - ranked[..., ::-1].argmin(axis=-1)


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
    with np.errstate(over="ignore", invalid="ignore"):  # as decide's scores may overflow
        return np.array(gt.I0)[_pick(_scores(gt, grid[:, None]))]
