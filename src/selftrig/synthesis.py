"""Offline synthesis of per-loop gain/cost lookup tables.

For each admissible wait ``i`` the online controller needs a value matrix
``P(i)`` and a feedback gain ``L(i)``.  Both come from a single periodic
Riccati solve at the terminal period ``p`` (structure-preserving doubling,
accepted only on its residual) followed by one backward step per ``i``;
no optimization runs online.  This module also computes the
contraction certificate ``epsilon`` that bounds the closed-loop value
function, and (de)serializes tables so that deployment never re-solves
anything.
"""
from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import (
    CertificateError,
    ConfigurationError,
    GainLookupError,
    SynthesisError,
)
from .model import (
    LtiSystem,
    WeightSpec,
    _count,
    _dimensions,
    _float_array,
    _integer,
    _json_matrix,
    _json_object,
    _json_string,
    _lift,
    _nonnegative,
    _number,
    _parse_json,
    _readonly,
    _schema_version,
    _symmetric,
    _wait_set,
    as_matrix,
    symmetrize,
)

# |lambda^i - 1| below this counts as a root of unity; |lambda - 1| below it
# counts as the eigenvalue one.
ROOT_OF_UNITY_TOL = 1e-8
# Singular values below this fraction of the largest count as rank deficiency.
CTRB_RANK_RTOL = 1e-10

# Doubling steps before giving up; step k covers 2**k backward steps.
RICCATI_MAX_DOUBLINGS = 64
# Largest accepted Riccati residual, relative to the largest of its terms.
RICCATI_RESIDUAL_TOL = 1e-8

TABLE_SCHEMA_VERSION = 1
_TABLE_FIELDS = (
    "schema_version", "loop_id", "n", "m", "alpha", "p", "I0",
    "entries", "Pp", "Lp", "epsilon", "pstar",
)


def controllability_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def is_controllable(A: np.ndarray, B: np.ndarray) -> bool:
    """Rank test on [B, AB, ..., A^{n-1}B] with a relative singular-value cut."""
    sv = np.linalg.svd(controllability_matrix(A, B), compute_uv=False)
    if sv[0] == 0.0:
        return False
    return int(np.sum(sv > CTRB_RANK_RTOL * sv[0])) == A.shape[0]


def _unit_root_eigenvalues(eigenvalues, i: int) -> list[complex]:
    """The ``eigenvalues`` other than 1 whose i-th power is 1 (within tolerance)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed power is not 1
        return [complex(lam) for lam in eigenvalues if not abs(lam - 1.0) < ROOT_OF_UNITY_TOL
                and abs(lam**i - 1.0) < ROOT_OF_UNITY_TOL]


def uncontrollable_reason(sys: LtiSystem, i: int) -> str | None:
    """Human-readable cause when the lifted pair is uncontrollable, else None.

    Distinguishes an uncontrollable base pair from a root-of-unity failure.
    """
    i = _count(i, "downsampling factor")
    if not is_controllable(sys.A, sys.B):
        return "base pair (A, B) is not controllable"
    bad = _unit_root_eigenvalues(np.linalg.eigvals(sys.A), i)
    if bad:
        lams = ", ".join(f"{lam:.6g}" for lam in bad)
        return f"eigenvalue(s) {lams} raised to the power {i} equal 1"
    return None


def select_pstar(systems, I0) -> int:
    """Largest wait in I0 at which every system stays controllable when lifted.

    A factor qualifies when, for every system, no eigenvalue other than 1
    is an i-th root of unity.  Raises when no factor qualifies, naming the
    offending eigenvalues.
    """
    factors = _wait_set(I0)
    spectra = [np.linalg.eigvals(sys.A) for sys in systems]
    failures = {i: [lam for eigenvalues in spectra
                    for lam in _unit_root_eigenvalues(eigenvalues, i)] for i in factors}
    qualifying = [i for i in factors if not failures[i]]
    if not qualifying:
        detail = "; ".join(
            f"i={i}: {', '.join(f'{lam:.6g}' for lam in bad)}" for i, bad in failures.items()
        )
        raise SynthesisError(
            f"no admissible terminal period in I0={list(factors)}; offending eigenvalues: {detail}"
        )
    return max(qualifying)


def _mT(M: np.ndarray) -> np.ndarray:
    """Each matrix of a stack, transposed."""
    return M.swapaxes(-1, -2)


def _gain_from(P: np.ndarray, A, B, R, N, waits) -> tuple[np.ndarray, np.ndarray]:
    """Feedback gains and cross matrices of one backward step from value
    matrix P, for the lifts of ``waits`` stacked in A, B, R and N; numpy
    makes one LAPACK or BLAS call per matrix of a stack.  An error names the
    first wait whose input-cost matrix is singular."""
    G = _mT(A) @ P @ B + N
    H = R + _mT(B) @ P @ B
    try:
        return np.linalg.solve(H, _mT(G)), G
    except np.linalg.LinAlgError:
        for i, Hi, Gi in zip(waits, H, G):
            try:
                np.linalg.solve(Hi, Gi.T)
            except np.linalg.LinAlgError as exc:
                raise SynthesisError(f"singular input-cost matrix at factor {i}: {exc}") from exc


def _accept_riccati(P: np.ndarray, p: int, Ap, Bp, Qp, Rp, Np) -> np.ndarray:
    """The gain of P, once P passes as the stabilizing solution at period
    ``p``, whose lift is ``(Ap, Bp, Qp, Rp, Np)``.

    The residual ``Qp + Ap'P Ap - G L - P`` must be at most
    RICCATI_RESIDUAL_TOL of the largest of its four terms (max norm: scale
    free, and fair to a badly conditioned P), the lifted closed loop
    ``Ap - Bp L`` strictly stable, and P positive definite.
    """
    (L,), (G,) = _gain_from(P, Ap[None], Bp[None], Rp[None], Np[None], (p,))
    terms = (Qp, Ap.T @ P @ Ap, G @ L, P)
    residual = np.max(np.abs(terms[0] + terms[1] - terms[2] - terms[3]))
    residual /= max(np.max(np.abs(T)) for T in terms)
    if not residual <= RICCATI_RESIDUAL_TOL:  # NaN fails too
        raise SynthesisError(
            f"Riccati solution at period {p} has relative residual {residual:.3e}"
        )
    rho = max(abs(np.linalg.eigvals(Ap - Bp @ L)))
    if rho >= 1.0:
        raise SynthesisError(
            f"Riccati solution at period {p} is not stabilizing "
            f"(closed-loop spectral radius {rho:.6g})"
        )
    min_eig = np.linalg.eigvalsh(P)[0]
    if min_eig <= 0.0:
        raise SynthesisError(
            f"Riccati solution is not positive definite (min eigenvalue {min_eig:.3e})"
        )
    return L


def solve_periodic_riccati(
    sys: LtiSystem, weights: WeightSpec, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solution of the lifted Riccati equation at period ``p``.

    Structure-preserving doubling (Chu, Fan & Lin, 2005) on the p-step
    lifted model, after ``u = v - Ri^-1 Ni' x`` removes the cross term.
    Doubling step k covers 2**k backward steps; it stops once the value
    matrix no longer moves, and the result must then pass
    :func:`_accept_riccati`.

    Returns (Pp, Lp), read-only, with Pp symmetric positive definite and
    the lifted closed loop Ap - Bp Lp strictly stable.  The plant's memo
    holds one accepted solution per ``(p, Q, R)``, whatever ``alpha``; a
    call that finds it checks only the wait, since the plant, ``p`` and the
    byte lengths of Q and R decide the controllability and weight checks
    that the entry passed.  Other calls run both checks and the doubling;
    a refused solve stores nothing and is refused again.
    """
    p = _count(p, "downsampling factor")
    key = ("riccati", p, weights.Q.tobytes(), weights.R.tobytes())
    solution = sys._memo.get(key)
    if solution is None:
        reason = uncontrollable_reason(sys, p)
        if reason is not None:
            raise SynthesisError(f"cannot synthesize at period {p}: {reason}")
        lift = [M[-1] for M in _lift(sys, p, weights)]
        solution = sys._memo[key] = _doubling(p, lift)
    return solution


def _doubling(p: int, lift) -> tuple[np.ndarray, np.ndarray]:
    """The read-only pair (Pp, Lp) that doubling finds at period ``p`` from the
    lift ``(Ap, Bp, Qp, Rp, Np)``, once it passes :func:`_accept_riccati`.
    A solve that finds a matrix singular raises SynthesisError naming ``p``."""
    Ap, Bp, Qp, Rp, Np = lift
    n = Ap.shape[0]
    eye = np.eye(n)
    try:
        K = np.linalg.solve(Rp, np.hstack([Np.T, Bp.T]))
        A = Ap - Bp @ K[:, :n]
        G = symmetrize(Bp @ K[:, n:])
        H = symmetrize(Qp - Np @ K[:, :n])
        for _ in range(RICCATI_MAX_DOUBLINGS):
            # I + G H is nonsingular in exact arithmetic, as G and H are
            # positive semidefinite; rounding can still make it singular.
            W = np.linalg.solve(eye + G @ H, np.hstack([A, G]))
            H, H_prev = symmetrize(H + A.T @ H @ W[:, :n]), H
            G = symmetrize(G + A @ W[:, n:] @ A.T)
            A = A @ W[:, :n]
            if np.array_equal(H, H_prev):
                break
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"doubling at period {p} failed: {exc}") from exc
    return _readonly(H), _readonly(_accept_riccati(H, p, *lift))


@dataclass(frozen=True, eq=False)
class GainTable:
    """Per-loop lookup table of value matrices and feedback gains.

    Row ``r`` of ``P_stack`` (|I0|, n, n) and of ``L_stack`` (|I0|, m, n)
    holds P(i) and L(i) of the ``r``-th wait of ``I0``, which must be
    strictly increasing; (Pp, Lp) is the terminal-period pair the closed
    loop reverts to.  ``costs`` (``alpha / i``) and ``rows`` (each wait's
    row) are derived, not constructor arguments; ``gamma`` is the largest
    wait.  As in a table file, ``loop_id`` must be a ``str`` and ``n`` and
    ``m`` positive.  Matrices may be arrays or nested lists; one that is
    not numeric, not finite or not of the terminal pair's shape (a stack
    with one row per wait), or a ``Pp`` or ``P(i)`` that is not symmetric
    (the rule of ``WeightSpec``), raises ConfigurationError.  The
    constructor copies each matrix once; all arrays are read-only, tables
    are safe to share across threads, and compare by identity.
    A table with ``n == 1`` also keeps, derived and not a field, its costs
    and P(i) and L(i) columns as tuples of Python floats, which ``decide``
    scores with.
    """

    loop_id: str
    alpha: float
    P_stack: np.ndarray = field(repr=False)
    L_stack: np.ndarray = field(repr=False)
    p: int
    Pp: np.ndarray
    Lp: np.ndarray
    I0: tuple
    costs: np.ndarray = field(init=False, repr=False)
    rows: MappingProxyType = field(init=False, repr=False)

    def __post_init__(self):
        context = f"table {_json_string(self.loop_id, 'gain table loop_id')!r}"
        I0 = _wait_set(self.I0, f"{context}: I0", increasing=True)
        p = _count(self.p, f"{context}: p")
        alpha = _nonnegative(self.alpha, f"{context}: alpha")
        Pp = as_matrix(self.Pp, f"{context}: Pp")
        Lp = as_matrix(self.Lp, f"{context}: Lp")
        n = Pp.shape[0]
        if Pp.shape != (n, n) or Lp.ndim != 2 or Lp.shape[1] != n:
            raise ConfigurationError(
                f"{context}: Pp must be square and Lp must have as many columns, "
                f"got shapes {Pp.shape} and {Lp.shape}"
            )
        _dimensions(context, n=n, m=Lp.shape[0])
        try:
            P_stack, L_stack = (_readonly(_float_array(S)) for S in (self.P_stack, self.L_stack))
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(
                f"{context}: P_stack and L_stack must be stacks of numeric matrices"
            ) from None
        shapes = (len(I0), *Pp.shape), (len(I0), *Lp.shape)
        if (P_stack.shape, L_stack.shape) != shapes:
            raise ConfigurationError(
                f"{context}: P_stack and L_stack must have shapes {shapes[0]} and "
                f"{shapes[1]}, got {P_stack.shape} and {L_stack.shape}"
            )
        if not (np.isfinite(P_stack).all() and np.isfinite(L_stack).all()):
            raise ConfigurationError(f"{context}: entries have non-finite values")
        # The law scores with all of each P(i), the certificate reads one
        # triangle: the two see one matrix only when it is symmetric.
        if not _symmetric(Pp):
            raise ConfigurationError(f"{context}: Pp must be symmetric")
        if not _symmetric(P_stack):
            i = next(i for i, P in zip(I0, P_stack) if not _symmetric(P))
            raise ConfigurationError(f"{context}: P({i}) must be symmetric")
        rows = MappingProxyType({i: r for r, i in enumerate(I0)})
        if p in rows:
            drift = max(
                np.max(np.abs(P_stack[rows[p]] - Pp)) / max(1.0, np.max(np.abs(Pp))),
                np.max(np.abs(L_stack[rows[p]] - Lp)) / max(1.0, np.max(np.abs(Lp))),
            )
            if drift > 1e-8:
                raise SynthesisError(
                    f"table row at i=p={p} deviates from the periodic solution "
                    f"by {drift:.3e} (relative)"
                )
        costs = alpha / np.array(I0)
        # A frozen dataclass refuses assignment, so the checked fields and
        # the derived scalars go in directly.
        self.__dict__.update(
            I0=I0, p=p, alpha=alpha, Pp=_readonly(Pp), Lp=_readonly(Lp), P_stack=P_stack,
            L_stack=L_stack, costs=_readonly(costs), rows=rows,
            _scalar=None if n > 1 else (
                tuple(costs.tolist()), tuple(P_stack[:, 0, 0].tolist()),
                tuple(map(tuple, L_stack[:, :, 0].tolist())),
            ),
        )

    @property
    def n(self) -> int:
        return self.Pp.shape[0]

    @property
    def m(self) -> int:
        return self.Lp.shape[0]

    @property
    def gamma(self) -> int:
        return self.I0[-1]

    def _row(self, i: int) -> int:
        """The stack row of wait ``i``."""
        try:
            return self.rows[i]
        except KeyError:
            raise GainLookupError(
                f"loop {self.loop_id!r}: no table entry for wait {i}"
            ) from None

    def P(self, i: int) -> np.ndarray:
        return self.P_stack[self._row(i)]

    def L(self, i: int) -> np.ndarray:
        return self.L_stack[self._row(i)]


def build_gain_table(
    sys: LtiSystem,
    weights: WeightSpec,
    I0,
    p: int,
    loop_id: str = "loop",
) -> GainTable:
    """Synthesize the full lookup table for one loop.

    Solves the periodic Riccati equation once at period ``p`` and derives
    every (P(i), L(i)) pair by a single backward step from the periodic
    value matrix, all waits in one stacked pass.  The lift to the largest
    wait comes first, so the solve at ``p <= gamma`` reads its rows from
    the plant's memo.
    """
    factors = _wait_set(I0)
    lift = _lift(sys, factors[-1], weights)
    Pp, Lp = solve_periodic_riccati(sys, weights, p)
    rows = np.array(factors) - 1
    A, B, Q, R, N = (M[rows] for M in lift)
    L, G = _gain_from(Pp, A, B, R, N, factors)
    P = symmetrize(Q + _mT(A) @ Pp @ A - G @ L)
    return GainTable(
        loop_id=loop_id,
        alpha=weights.alpha,
        P_stack=P,
        L_stack=L,
        p=p,
        Pp=Pp,
        Lp=Lp,
        I0=factors,
    )


@dataclass(frozen=True, eq=False)
class StabilityCertificate:
    """Contraction certificate for one synthesized loop.

    ``epsilon`` is the largest margin in (0, 1] such that every held-input
    closed-loop map contracts the value function:

        F(i)' Pp F(i) <= (1 - epsilon) P(i),   F(i) = A(i) - B(i) L(i)

    ``per_i_ratio`` holds the largest generalized eigenvalue of each pair
    (F(i)' Pp F(i), P(i)); epsilon = 1 - max ratio.  ``lower_bound`` and
    ``upper_bound`` bracket the limiting value of the online cost; they
    collapse to alpha/gamma when the terminal period equals gamma.
    ``Si`` maps i to P(i) - F(i)' Pp F(i), the accumulated-stage-cost
    quadratic form (positive semidefinite); it is a read-only mapping of
    read-only views of one stack.  ``pstar`` is an integer, kept as an
    ``int``, as a table file stores it (a bool or float is refused).
    """

    pstar: int
    epsilon: float
    lower_bound: float
    upper_bound: float
    per_i_ratio: dict
    Si: Mapping

    def __post_init__(self):
        object.__setattr__(self, "pstar", _integer(self.pstar, "certificate pstar"))


def stability_certificate(
    gt: GainTable, sys: LtiSystem, pstar: int
) -> StabilityCertificate:
    """Compute the contraction margin and value bounds for one table.

    The table must have been synthesized with ``p == pstar``.  Each ratio
    is the largest generalized eigenvalue of ``(G, P(i))``, with
    ``G = F(i)' Pp F(i)``, taken by Cholesky reduction: with
    ``P(i) = C C'``, it is the largest eigenvalue of ``C^-1 G C^-T``.
    Raises CertificateError when a P(i) is not positive definite (its
    Cholesky factorization fails) or when any contraction ratio reaches 1
    or is not finite, reporting the offending wait rather than silently
    clipping.
    """
    pstar = _integer(pstar, f"loop {gt.loop_id!r}: pstar")
    if gt.p != pstar:
        raise ConfigurationError(
            f"table for loop {gt.loop_id!r} was built with p={gt.p}, not pstar={pstar}"
        )
    if (sys.n, sys.m) != (gt.n, gt.m):
        raise ConfigurationError(
            f"loop {gt.loop_id!r}: the plant has n={sys.n}, m={sys.m} "
            f"but the table has n={gt.n}, m={gt.m}"
        )
    # Only the transition part of the lift is needed here, so the weights
    # are not lifted.  Each stage is one call on the stacks of all waits.
    rows = np.array(gt.I0) - 1
    A, B = (M[rows] for M in _lift(sys, gt.gamma))
    P = gt.P_stack
    # A gain that overflows F makes its ratio NaN, refused below, so
    # overflow warns nowhere in the stages.
    with np.errstate(over="ignore", invalid="ignore"):
        F = A - B @ gt.L_stack
        G = symmetrize(_mT(F) @ gt.Pp @ F)
        S = _readonly(symmetrize(P - G))
        s_eigs = np.linalg.eigvalsh(S)
        indefinite = s_eigs[:, 0] < -1e-10 * np.maximum(1.0, np.abs(s_eigs[:, -1]))
        try:
            C = np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            C = None
        # Name the first failing wait in I0 order, its Cholesky check first.
        for r, i in enumerate(gt.I0 if C is None or indefinite.any() else ()):
            try:
                np.linalg.cholesky(P[r])
            except np.linalg.LinAlgError:
                raise CertificateError(
                    f"loop {gt.loop_id!r}: value matrix P({i}) at wait {i} is not "
                    f"positive definite (its Cholesky factorization fails)"
                ) from None
            if indefinite[r]:
                raise CertificateError(
                    f"loop {gt.loop_id!r}: accumulated-cost form at wait {i} is "
                    f"indefinite (min eigenvalue {s_eigs[r, 0]:.3e})"
                )
        # Cholesky reduction of each pencil (G, P(i)), as in LAPACK's sygv.
        M = np.linalg.solve(C, _mT(np.linalg.solve(C, G)))
        ratios = dict(zip(gt.I0, np.linalg.eigvalsh(symmetrize(M))[:, -1].tolist()))
    # NaN is not below 1 either, and max() would skip it.
    for i, ratio in ratios.items():
        if not math.isfinite(ratio):
            raise CertificateError(
                f"loop {gt.loop_id!r}: contraction ratio at wait {i} is not finite"
            )
    rho_max = max(ratios.values())
    if rho_max >= 1.0:
        worst = max(ratios, key=ratios.get)
        raise CertificateError(
            f"loop {gt.loop_id!r}: contraction fails at wait {worst} "
            f"(ratio {ratios[worst]:.6g} >= 1)"
        )
    epsilon = min(1.0, 1.0 - rho_max)
    gamma = gt.gamma
    lower = gt.alpha / gamma
    # (alpha/eps)(1/pstar - (1-eps)/gamma), written as lower plus a term that
    # is not negative for pstar <= gamma: the bounds are then ordered by
    # construction, and equal bit for bit at pstar = gamma.
    upper = lower + gt.alpha * (gamma - pstar) / (epsilon * pstar * gamma)
    return StabilityCertificate(
        pstar=pstar,
        epsilon=epsilon,
        lower_bound=lower,
        upper_bound=upper,
        per_i_ratio=ratios,
        Si=MappingProxyType({i: S[r] for r, i in enumerate(gt.I0)}),
    )


def _json_list(values, pad: str) -> str:
    """The text ``json.dumps(values, indent=2)`` writes for a non-empty list
    of finite floats or ints nested at indent ``pad``: one ``repr`` per
    number."""
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(map(repr, values)) + "\n" + pad + "]"


def serialize_gain_table(gt: GainTable, cert: StabilityCertificate) -> str:
    """Render one loop's table plus certificate scalars as JSON text.

    The text is ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"`` of
    the document ``{schema_version, loop_id, n, m, alpha, p, I0, entries:
    [{i, P, L}, ...], Pp, Lp, epsilon, pstar}``: the ``json`` module's
    two-space layout, with one number per line.  Matrices are row-major
    flat lists, and every float is written as its ``repr``, the shortest
    text that round-trips, so a reload reproduces bit-identical values and
    two tables differ byte for byte only where their numbers do.  The
    numbers are laid out here, one ``repr`` each, since the table
    guarantees them finite; the scalars of the header go through ``json``,
    which escapes the loop id and refuses a non-finite ``epsilon``.
    """
    k, n, m = len(gt.I0), gt.n, gt.m
    try:
        # indent=2 picks json's Python encoder, whose refusal names the value.
        loop_id, alpha, epsilon, pstar = (
            json.dumps(v, indent=2, allow_nan=False)
            for v in (gt.loop_id, gt.alpha, cert.epsilon, cert.pstar)
        )
    except ValueError as exc:  # a NaN or an infinity
        raise ConfigurationError(f"cannot serialize table {gt.loop_id!r}: {exc}") from None
    pad = " " * 6
    entries = ",\n".join(
        f'    {{\n{pad}"i": {i},\n{pad}"P": {_json_list(P, pad)},\n'
        f'{pad}"L": {_json_list(L, pad)}\n    }}'
        for i, P, L in zip(gt.I0, gt.P_stack.reshape(k, n * n).tolist(),
                           gt.L_stack.reshape(k, m * n).tolist())
    )
    return (
        f'{{\n  "schema_version": {TABLE_SCHEMA_VERSION},\n  "loop_id": {loop_id},\n'
        f'  "n": {n},\n  "m": {m},\n  "alpha": {alpha},\n  "p": {gt.p},\n'
        f'  "I0": {_json_list(gt.I0, "  ")},\n  "entries": [\n{entries}\n  ],\n'
        f'  "Pp": {_json_list(gt.Pp.ravel().tolist(), "  ")},\n'
        f'  "Lp": {_json_list(gt.Lp.ravel().tolist(), "  ")},\n'
        f'  "epsilon": {epsilon},\n  "pstar": {pstar}\n}}\n'
    )


def deserialize_gain_table(text: str) -> tuple[GainTable, float, int]:
    """Parse serialized table text; returns (table, stored epsilon, stored pstar).

    The file rules are those of scenario files; each wait has one entry."""
    doc = _json_object(_parse_json(text, "gain table"), _TABLE_FIELDS, (), "gain table")
    _schema_version(doc, TABLE_SCHEMA_VERSION, "gain table")
    n, m = _dimensions("gain table", n=doc["n"], m=doc["m"])
    if not isinstance(doc["entries"], list):
        raise ConfigurationError("gain table: entries must be a list")
    entries = {}
    for index, rec in enumerate(doc["entries"]):
        context = f"gain table entries[{index}]"
        rec = _json_object(rec, ("i", "P", "L"), (), context)
        i = _integer(rec["i"], f"{context}: i")
        if i in entries:
            raise ConfigurationError(f"{context}: a second entry for wait {i}")
        entries[i] = (
            _json_matrix(rec["P"], n, n, f"P({i})"),
            _json_matrix(rec["L"], m, n, f"L({i})"),
        )
    # Entries pair with I0 by wait and stack in its order; GainTable checks the rest.
    context = f"table {_json_string(doc['loop_id'], 'gain table loop_id')!r}"
    I0 = _wait_set(doc["I0"], f"{context}: I0")
    if set(entries) != set(I0):
        raise ConfigurationError(f"{context}: entries {list(entries)} do not match I0 {list(I0)}")
    gt = GainTable(
        loop_id=doc["loop_id"],
        alpha=doc["alpha"],
        P_stack=np.array([entries[i][0] for i in I0]),
        L_stack=np.array([entries[i][1] for i in I0]),
        p=doc["p"],
        Pp=_json_matrix(doc["Pp"], n, n, "Pp"),
        Lp=_json_matrix(doc["Lp"], m, n, "Lp"),
        I0=I0,
    )
    epsilon = _number(doc["epsilon"], "gain table epsilon")
    return gt, epsilon, _integer(doc["pstar"], "gain table pstar")
