"""Online decision law: pick the wait and the input from the lookup table.

Given a fresh sample and the set of waits the channel allows, the
controller scores ``alpha/i + x' P(i) x`` for every wait of the table at
once, as one quadratic form over the table's stacked ``P(i)``, picks the
minimizing wait within that set and applies the matching state feedback,
one matrix-vector product.  Everything is a pure function of an immutable
gain table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GainLookupError, SchedulingError
from .model import _wait_set, as_vector
from .synthesis import GainTable


@dataclass(frozen=True)
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

    Ties are broken toward the larger wait: equal cost at less
    communication.  With x = 0 the quadratic terms vanish and the rule
    reduces to the largest feasible wait with u = 0.
    """
    feas = _wait_set(feasible, "feasible set", empty=SchedulingError)
    unknown = [i for i in feas if i not in gt.rows]
    if unknown:
        raise GainLookupError(
            f"loop {gt.loop_id!r}: feasible waits {unknown} have no table entry"
        )
    x = as_vector(x, "x", gt.n)
    scores = _scores(gt, x).tolist()
    values = {i: scores[gt.rows[i]] for i in feas}
    i_star = feas[0]
    best = values[i_star]
    for i in feas[1:]:
        if values[i] <= best:
            best, i_star = values[i], i
    u = -(gt.L_stack[gt.rows[i_star]] @ x)
    u.setflags(write=False)
    return Decision(i_star=i_star, u=u, value=best, values_by_i=values)


def partition_1d(gt: GainTable, x_grid) -> np.ndarray:
    """Unrestricted optimal wait at each point of a scalar-state grid.

    Diagnostic reproduction of the switching curve between waits; only
    defined for scalar-state tables.
    """
    if gt.n != 1:
        raise ConfigurationError(
            f"state-space partition is only available for scalar states (n={gt.n})"
        )
    grid = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if grid.ndim != 1 or not np.isfinite(grid).all():
        raise ConfigurationError("x_grid must be a finite vector of scalar states")
    # Argmin over the reversed waits, so that ties go to the larger wait.
    scores = _scores(gt, grid[:, None])[:, ::-1]
    return np.array(gt.I0)[len(gt.I0) - 1 - scores.argmin(axis=1)]
