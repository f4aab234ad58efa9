"""Discrete-time LTI plants and their multi-step (lifted) models.

When the control input is held constant for ``i`` consecutive steps, the
``i``-step transition collapses to a single linear map and the accumulated
quadratic stage cost collapses to one quadratic form with a state/input
cross term.  This module owns that recursion, :func:`_lift_recursion`,
and each plant's memo of its longest lifts, :func:`_lift`; synthesis,
control and simulation all consume these stacks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# Relative smallest-eigenvalue threshold for positive-definiteness checks.
PD_EIG_RTOL = 1e-12


def _readonly(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float)
    out.setflags(write=False)
    return out


# The element types of a matrix or vector; bool, a subclass of int, is
# refused apart.
_NUMBER_TYPES = (int, float, np.integer, np.floating)
_F64 = np.dtype(float)


def _float_array(value) -> np.ndarray:
    """``value`` as a float array, under the one numeric rule of matrices and
    vectors: ints, floats and numpy integers and floats pass, alone or
    nested in lists and arrays.  A bool, string, bytes, complex or other
    value, in an array of its own dtype or of dtype object or mixed into a
    list of numbers, raises TypeError rather than being coerced; a ragged
    nesting raises ValueError.
    """
    arr = np.asarray(value)
    if arr.dtype.kind not in "iufO":
        raise TypeError(f"{arr.dtype} values are not numbers")
    # numpy would promote a bool mixed into a list of numbers, say.
    if arr.dtype.kind == "O" or type(value) is not np.ndarray:
        for v in np.asarray(value, dtype=object).flat:
            if isinstance(v, bool) or not isinstance(v, _NUMBER_TYPES):
                raise TypeError(f"{v!r} is not a number")
    return np.asarray(value, dtype=float)


# Below this many entries a vector's finiteness is tested in Python, which
# beats one numpy pass there (0.3 against 0.9 us at 2 entries, 0.8 against
# 0.9 us at 16).
_SMALL_VECTOR = 16


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite, exactly as ``np.isfinite(a).all()``
    says: for a vector of fewer than :data:`_SMALL_VECTOR` entries by
    ``math.isfinite`` over its floats, otherwise in one numpy pass, which on
    a state-sized array costs half of ``np.isfinite(a).all()``."""
    if a.ndim == 1 and a.size < _SMALL_VECTOR:
        return all(map(math.isfinite, a.tolist()))
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_matrix(M, name: str, shape=None) -> np.ndarray:
    """Coerce to a finite 2-D float array, optionally checking its shape."""
    try:
        out = np.atleast_2d(_float_array(M))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name} must be a matrix of numbers: {exc}") from None
    if not _all_finite(out):
        raise ConfigurationError(f"{name} has non-finite entries")
    if shape is not None and out.shape != shape:
        raise ConfigurationError(f"{name} must have shape {shape}, got {out.shape}")
    return out


def as_vector(x, name: str, length: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length;
    a 1-D float64 array is returned as it is."""
    if type(x) is np.ndarray and x.dtype is _F64 and x.ndim == 1:
        out = x
    else:
        try:
            out = np.atleast_1d(_float_array(x))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"{name} must be a vector of numbers: {exc}") from None
        if out.ndim != 1:
            raise ConfigurationError(f"{name} must be a vector, got shape {out.shape}")
    if not _all_finite(out):
        raise ConfigurationError(f"{name} has non-finite entries")
    if length is not None and out.size != length:
        raise ConfigurationError(f"{name} must have length {length}, got {out.size}")
    return out


def _integer(value, what: str) -> int:
    """An ``int`` or ``numpy.integer`` field; floats and booleans are rejected."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _count(value, what: str) -> int:
    """A count field, such as a downsampling factor, a period or a number of
    runs: an integer (see :func:`_integer`) of at least 1."""
    value = _integer(value, what)
    if value < 1:
        raise ConfigurationError(f"{what} must be >= 1, got {value}")
    return value


def _wait_set(I0, what: str = "I0", empty=ConfigurationError, increasing=False) -> tuple:
    """The one wait-set rule: sorted distinct positive ints, no bool or float;
    with ``increasing``, they must also be listed in increasing order.

    An empty set raises ``empty``; every other refusal is a
    ConfigurationError.  A frozenset of plain ints, as ``feasible_set``
    returns, takes a shorter path to the same result.
    """
    if type(I0) is frozenset and I0 and set(map(type, I0)) == {int}:
        values = waits = tuple(sorted(I0))
    else:
        try:
            values = tuple(I0)
        except TypeError:
            raise ConfigurationError(f"{what} must be a set of integers, got {I0!r}") from None
        if not values:
            raise empty(f"{what} is empty")
        if not all(type(i) is int or isinstance(i, np.integer) for i in values):
            raise ConfigurationError(f"{what} entries must be integers, got {I0!r}")
        waits = tuple(sorted(set(map(int, values))))
    if waits[0] < 1:
        raise ConfigurationError(f"{what} must hold positive integers, got {I0!r}")
    if increasing and waits != values:
        raise ConfigurationError(f"{what} must be strictly increasing, got {I0!r}")
    return waits


def _check_admissible(s: int, I0, p: int) -> None:
    """Admissibility of ``s`` loops sharing one channel, the one home of
    the rule for scenarios and ledgers alike.

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


def _number(value, what: str) -> float:
    """A finite ``int``, ``float`` or numpy number field; booleans and
    strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigurationError(f"{what} must be finite, got {value!r}")
    return float(value)


def _nonnegative(value, what: str) -> float:
    """A finite nonnegative number field (see :func:`_number`)."""
    value = _number(value, what)
    if value < 0.0:
        raise ConfigurationError(f"{what} must be nonnegative, got {value!r}")
    return value


def _json_numbers(value, what: str) -> np.ndarray:
    """A parsed JSON flat list of numbers, as a float array.

    Finiteness of a number such as ``1e400`` is left to the consumer
    (``as_matrix``, ``as_vector`` or ``GainTable``).
    """
    # json yields exact int and float objects; bool is its own type.
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise ConfigurationError(f"{what} must be a flat list of numbers")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError as exc:
        raise ConfigurationError(f"{what}: {exc}") from None


def _json_matrix(value, rows: int, cols: int, what: str) -> np.ndarray:
    """A parsed JSON flat row-major list of ``rows * cols`` numbers, as a
    ``(rows, cols)`` float array."""
    arr = _json_numbers(value, what)
    if arr.size != rows * cols:
        raise ConfigurationError(
            f"{what} needs {rows * cols} row-major entries ({rows}x{cols}), got {arr.size}"
        )
    return arr.reshape(rows, cols)


def _json_string(value, what: str) -> str:
    """A parsed JSON string field."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{what} must be a string, got {value!r}")
    return value


# Scenario and table files share these rules, one function each.
def _read_text(path, what: str) -> str:
    """The text of the ``what`` file at ``path``."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc


def _parse_json(text: str, what: str):
    """Parsed JSON text; the tokens ``NaN`` and ``[-]Infinity`` are refused."""
    def refuse(token):
        raise ConfigurationError(f"{what} holds the non-finite number {token}")
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc


def _json_object(value, required, optional, what: str) -> dict:
    """A parsed JSON object with every field of ``required``, no field
    outside ``required`` and ``optional``, and no null field."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    missing = sorted(set(required) - value.keys())
    unknown = sorted(value.keys() - set(required) - set(optional))
    if missing or unknown:
        raise ConfigurationError(f"{what} fields mismatch (missing {missing}, unknown {unknown})")
    nulls = sorted(key for key, field in value.items() if field is None)
    if nulls:
        raise ConfigurationError(f"{what}: fields {nulls} must not be null")
    return value


def _schema_version(doc: dict, expected: int, what: str) -> None:
    """The document's ``schema_version``: the ``int`` ``expected``."""
    version = doc["schema_version"]
    if type(version) is not int or version != expected:
        raise ConfigurationError(
            f"unsupported {what} schema version {version!r} (expected {expected})"
        )


def _dimensions(what: str, **dims) -> tuple:
    """The dimension fields ``dims``, each a positive integer, in order."""
    values = tuple(_integer(value, f"{what}: {key}") for key, value in dims.items())
    if min(values) < 1:
        raise ConfigurationError(f"{what}: dimensions must be positive, got {dims}")
    return values


def symmetrize(M: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix, or of each matrix of a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def _symmetric(M: np.ndarray) -> bool:
    """Whether a finite matrix, or every matrix of a finite stack, passes
    the test ``np.allclose(M, M.T, rtol=1e-10, atol=1e-12)`` makes on one
    matrix.  An exactly symmetric one, as synthesis writes them, passes on
    the first comparison."""
    T = M.swapaxes(-1, -2)
    return bool((M == T).all() or (np.abs(M - T) <= 1e-12 + 1e-10 * np.abs(T)).all())


def check_positive_definite(M: np.ndarray, name: str) -> None:
    """Require min eigenvalue > PD_EIG_RTOL * max eigenvalue of a symmetric ``M``."""
    eigs = np.linalg.eigvalsh(M)
    if eigs[-1] <= 0.0 or eigs[0] <= PD_EIG_RTOL * eigs[-1]:
        raise ConfigurationError(
            f"{name} must be symmetric positive definite "
            f"(eigenvalues in [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """Discrete-time plant ``x(k+1) = A x(k) + B u(k) + E w(k)``.

    ``E`` is the disturbance gain and defaults to an n-by-1 zero matrix so
    that noiseless scenarios need not mention it.  Each plant keeps a
    private memo of what depends on its matrices alone: its longest lifts
    (see :func:`_lift`) and, per period and pair of weight matrices, its
    accepted periodic Riccati solution (see
    :func:`selftrig.synthesis.solve_periodic_riccati`).  The memo
    is not a field, so it takes no part in ``repr`` or ``replace``, and a
    replaced plant starts an empty one.  Threads may share a plant: two
    that fill one memo entry at once store the same bits.
    """

    A: np.ndarray
    B: np.ndarray
    E: np.ndarray | None = None

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        if A.shape[0] != A.shape[1]:
            raise ConfigurationError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        B = as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ConfigurationError(
                f"B must have {n} rows to match A, got {B.shape[0]}"
            )
        E = np.zeros((n, 1)) if self.E is None else as_matrix(self.E, "E")
        if E.shape[0] != n:
            raise ConfigurationError(
                f"E must have {n} rows to match A, got {E.shape[0]}"
            )
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "B", _readonly(B))
        object.__setattr__(self, "E", _readonly(E))
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def w(self) -> int:
        return self.E.shape[1]


@dataclass(frozen=True, eq=False)
class WeightSpec:
    """Quadratic stage weights plus the per-sample communication cost.

    ``alpha`` enters the online decision as ``alpha / i`` for a wait of
    ``i`` steps; larger values push the closed loop toward longer waits.
    """

    Q: np.ndarray
    R: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        Q = as_matrix(self.Q, "Q")
        R = as_matrix(self.R, "R")
        for M, name in ((Q, "Q"), (R, "R")):
            if M.shape[0] != M.shape[1]:
                raise ConfigurationError(f"{name} must be square, got {M.shape}")
            with np.errstate(over="ignore", invalid="ignore"):  # near the float limit
                if not _symmetric(M):
                    raise ConfigurationError(f"{name} must be symmetric")
                S = symmetrize(M)
            if not _all_finite(S):
                raise ConfigurationError(f"{name} is too large: its symmetric part is not finite")
            check_positive_definite(S, name)
            object.__setattr__(self, name, _readonly(S))
        object.__setattr__(self, "alpha", _nonnegative(self.alpha, "alpha"))


@dataclass(frozen=True, eq=False)
class LiftedModel:
    """Transition and accumulated-cost matrices for a wait of ``i`` steps."""

    i: int
    Ai: np.ndarray
    Bi: np.ndarray
    Qi: np.ndarray
    Ri: np.ndarray
    Ni: np.ndarray


def _lift_recursion(sys: LtiSystem, gamma: int, weights: WeightSpec | None = None) -> tuple:
    """The read-only stacks ``(A, B)`` of the lifts for waits 1..gamma, and with
    ``weights`` also ``(Q, R, N)``; row ``i - 1`` holds wait ``i``.

    The transition recursion is ``A_{i+1} = A A_i``, ``B_{i+1} = A B_i + B``
    and the weight recursion accumulates the held-input stage costs:

        Q_{i+1} = Q_i + A_i' Q A_i
        R_{i+1} = R_i + B_i' Q B_i + R
        N_{i+1} = N_i + A_i' Q B_i

    with base case ``(A, B, Q, R, 0)``.  Q_i and R_i are re-symmetrized at
    every step to suppress accumulated floating-point asymmetry.  Row ``i``
    depends on rows ``1..i`` alone, so the first rows of a longer lift are
    those of a shorter one, bit for bit.  Every stack is allocated before
    the first step is taken, so a lift too large for memory fails at once,
    naming the shape of the stack that did not fit.
    """
    A, B = sys.A, sys.B
    n, m = sys.n, sys.m
    shapes = [(n, n), (n, m)] + ([] if weights is None else [(n, n), (m, m), (n, m)])
    stacks = [np.empty((gamma, *shape)) for shape in shapes]
    As, Bs = stacks[:2]
    Ai, Bi = As[0], Bs[0] = A, B
    # An unstable plant's long lift may overflow silently; its readers refuse it.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, gamma):
            Ai, Bi = A @ Ai, A @ Bi + B
            As[j], Bs[j] = Ai, Bi
        if weights is not None:
            Q, R = weights.Q, weights.R
            Qs, Rs, Ns = stacks[2:]
            Qi, Ri, Ni = Qs[0], Rs[0], Ns[0] = Q, R, np.zeros((n, m))
            for j, Ai, Bi in zip(range(1, gamma), As, Bs):
                Qi = symmetrize(Qi + Ai.T @ Q @ Ai)
                Ri = symmetrize(Ri + Bi.T @ Q @ Bi + R)
                Ni = Ni + Ai.T @ Q @ Bi
                Qs[j], Rs[j], Ns[j] = Qi, Ri, Ni
    for M in stacks:
        M.setflags(write=False)
    return tuple(stacks)


def _prefix(stacks: tuple, gamma: int) -> tuple:
    """The first ``gamma`` rows of each stack: the stacks themselves at their
    full length, read-only copies otherwise."""
    if stacks[0].shape[0] == gamma:
        return stacks
    return tuple(_readonly(M[:gamma]) for M in stacks)


def _lift(sys: LtiSystem, gamma: int, weights: WeightSpec | None = None) -> tuple:
    """The read-only stacks ``(A, B)`` of the lifts for waits 1..gamma, and with
    ``weights`` also ``(Q, R, N)``, of :func:`_lift_recursion`.

    Every lift in the package goes through here, so all of them agree bit
    for bit.  The plant's memo holds its longest dynamics lift and, per
    pair of weight matrices (``alpha`` plays no part), its longest weight
    lift; a request no longer than the held one is served from its first
    rows, and a longer one runs the recursion and replaces it.
    """
    gamma = _count(gamma, "downsampling factor")
    memo = sys._memo
    held = memo.get("AB")
    if weights is None:
        if held is None or held[0].shape[0] < gamma:
            held = memo["AB"] = _lift_recursion(sys, gamma)
        return _prefix(held, gamma)
    Q, R = weights.Q, weights.R
    if Q.shape[0] != sys.n:
        raise ConfigurationError(
            f"Q is {Q.shape[0]}x{Q.shape[0]} but the state dimension is {sys.n}"
        )
    if R.shape[0] != sys.m:
        raise ConfigurationError(
            f"R is {R.shape[0]}x{R.shape[0]} but the input dimension is {sys.m}"
        )
    key = ("QRN", Q.tobytes(), R.tobytes())
    cost = memo.get(key)
    if cost is None or cost[0].shape[0] < gamma:
        lift = _lift_recursion(sys, gamma, weights)
        if held is None or held[0].shape[0] < gamma:
            held = memo["AB"] = lift[:2]
        cost = memo[key] = lift[2:]
    return _prefix(held, gamma) + _prefix(cost, gamma)


def lift_range(sys: LtiSystem, weights: WeightSpec, gamma: int) -> list[LiftedModel]:
    """All lifted models for factors 1..gamma, read-only views of :func:`_lift`'s rows."""
    return [LiftedModel(i, *M) for i, M in enumerate(zip(*_lift(sys, gamma, weights)), 1)]

