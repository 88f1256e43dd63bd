"""Parallel sums of PSD matrices and the operator inequalities around them.

The parallel sum A : B is defined through the bilateral shorted operator of
the block matrix [[A, A], [A, A + B]] relative to the first-summand corner;
for positive definite inputs it agrees with (A^-1 + B^-1)^-1, which is kept
as an independent cross-check route rather than folded into the primary one.

The block's lower-right corner is A + B, so :func:`solve_parallel_equation`
solves (A + B) X = B from the SVD that the partition behind A : B holds.

A pair (A, B) and a :class:`Tol` determine every number derived from the pair
(Anderson & Duffin, J. Math. Anal. Appl. 26, 1969), so each pair is analysed
once per process.  :func:`parallel_sum`, :func:`hansen_inequality_check` and
:func:`solve_parallel_equation` read the analysis from the process memo
(``numkit._Memo``), keyed on residual_rel and the dtypes, shapes and bytes of
the coerced A and B: the Hermitian parts, their eigenvalues, A : B and the
SVD of A + B, and once a call has asked for them ``route_agreement`` and the
certified solution.  A hit returns the very numbers a miss computes, in fresh,
writeable arrays; a pair that fails validation raises and is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numkit
from .douglas import _solve
from .errors import InternalInvariantViolation, NotPositiveDefinite, NotPSD, ShapeMismatch
from .numkit import DEFAULT_TOL, Tol, _digest, _eig_clamp, _eigh, _herm, _hermitian, _product, _psd_clamp
from .numkit import _SVDFactor, as_matrix, opnorm
from .shorting import BlockOperator, _coordinate_columns, shorted

__all__ = [
    "ParallelSumResult",
    "Lemma69Result",
    "ParallelEquationSolution",
    "parallel_sum",
    "hansen_inequality_check",
    "lemma_69_check",
    "solve_parallel_equation",
]

# epsilon grid of ParallelSumResult.regularized
_REG_EPS = (1e-4, 1e-6)


def _psd_pair(a, b, tol: Tol):
    """Validate A, then B, as PSD matrices of one shape; returns (A, wA, B, wB)
    with the Hermitian parts and their eigenvalues (ascending), both coerced first."""
    parts = []
    for m, name in ((as_matrix(a, "A"), "A"), (as_matrix(b, "B"), "B")):
        h = _hermitian(m, tol, name, NotPSD)
        w = _eigh(h, vectors=False)
        _psd_clamp(w, tol, name)
        parts += (h, w)
    ah, wa, bh, wb = parts
    if ah.shape != bh.shape:
        raise ShapeMismatch(f"A is {ah.shape} but B is {bh.shape}")
    return ah, wa, bh, wb


def _is_pd(w: np.ndarray, tol: Tol) -> bool:
    """Positive definite: every eigenvalue above the clamp (False if empty)."""
    return bool(w.size) and float(w.min()) > _eig_clamp(w, tol)


def _norm(w: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix from its eigenvalues."""
    return float(np.abs(w).max()) if w.size else 0.0


def _clamp_result_psd(value: np.ndarray, scale: float, tol: Tol) -> np.ndarray:
    """Snap a computed parallel sum back onto the PSD cone.

    ``scale`` is the input scale ||A|| + ||B|| (a zero result carries only
    round-off, so its own norm cannot calibrate the clamp).  Eigenvalues in
    [-clamp, 0) are round-off and become 0; anything below the clamp means
    the computation itself broke an invariant.
    """
    h = _herm(value)
    if h.shape[0] == 0:
        return h
    w, v = _eigh(h)
    clamp = tol.eig_clamp_rel * max(scale, float(np.abs(w).max()))
    if float(w.min()) < -clamp:
        raise InternalInvariantViolation(
            f"parallel sum came out indefinite: eigenvalue {w.min():.6e}"
        )
    w = np.where(w < 0.0, 0.0, w)
    return _herm(_product(v * w, v.conj().T))


def _pd_formula(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _herm(np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b)))


@dataclass(frozen=True)
class ParallelSumResult:
    """Parallel sum with provenance.

    ``value`` comes from the shorted-block construction; ``route_agreement``
    is the maximum deviation between that value and any cross-check route
    that ran (0.0 when none did).  ``regularized``, computed on first read,
    maps each eps in ``_REG_EPS`` to the deviation of (A + eps I) : (B + eps I),
    by the inverse formula, from ``value``; it never enters ``route_agreement``.
    """

    value: np.ndarray
    route_agreement: float
    _a: np.ndarray = field(repr=False, compare=False)  # Hermitian parts of A and B
    _b: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def regularized(self) -> dict:
        eye = np.eye(self._a.shape[0])
        return {
            eps: opnorm(_pd_formula(self._a + eps * eye, self._b + eps * eye) - self.value)
            for eps in _REG_EPS
        }


def _parallel_core(ah, wa, bh, wb, tol: Tol, t22=None) -> tuple[np.ndarray, BlockOperator]:
    """A : B of operands validated by :func:`_psd_pair`, with the partition of
    [[A, A], [A, A + B]] it came from, stated rather than searched for: M = N is
    the first n of 2n coordinates, the corners are A, A, A (held once) and A + B,
    so the shorted core is A : B itself.  :func:`shorted` caches T22 = A + B's
    SVD, unless ``t22`` hands in an SVD of a matrix with the same bytes."""
    n = ah.shape[0]
    apb = ah + bh
    first = (np.arange(n), np.arange(n, 2 * n))
    bases = [_coordinate_columns(2 * n, index) for index in first]
    blk = BlockOperator(np.block([[ah, ah], [ah, apb]]), *bases, *bases, ah, ah, ah, apb, first, first)
    blk.__dict__["_t21_norm"] = _norm(wa)  # seed the cached views: T21 = T12* is A
    if t22 is not None:
        blk.__dict__["_t22"] = t22
    return _clamp_result_psd(shorted(blk, tol).core, _norm(wa) + _norm(wb), tol), blk


class _Pair:
    """The memo's analysis of a PSD pair under one Tol: what :func:`_psd_pair`
    and :func:`_parallel_core` return, but for the 2n x 2n block (``value`` is
    A : B, ``t22`` the SVD of A + B), and ``agreement`` (``route_agreement``)
    and the certified ``solution`` once a call asks for them.  A plain class:
    a dataclass would cost ~1 ms at import."""

    def __init__(self, ah, wa, bh, wb, value, t22: _SVDFactor, agreement=None, solution=None):
        self.ah, self.wa, self.bh, self.wb, self.value, self.t22 = ah, wa, bh, wb, value, t22
        self.agreement: float | None = agreement
        self.solution: ParallelEquationSolution | None = solution


def _pair_key(am: np.ndarray, bm: np.ndarray, tol: Tol) -> bytes:
    """The memo key of coerced A and B under ``tol``: the digest of residual_rel
    and of both operands' dtypes, shapes and bytes."""
    head = f"{float(tol.residual_rel).hex()} {am.dtype.str}{am.shape} {bm.dtype.str}{bm.shape}"
    return _digest(b"pair", head.encode(), am, bm)


def _pair(a, b, tol: Tol) -> tuple[bytes, _Pair]:
    """The memo key of (A, B) under ``tol`` and the pair's analysis, computed on
    a miss; a pair that fails validation raises as :func:`_psd_pair` does."""
    am = as_matrix(a, "A")
    try:
        bm = as_matrix(b, "B")
    except Exception:
        _psd_pair(am, b, tol)  # an invalid A raises before B's coercion, as validation orders them
        raise
    key = _pair_key(am, bm, tol)
    pair = numkit._memo.get(key)
    if pair is None:
        ah, wa, bh, wb = _psd_pair(am, bm, tol)
        value, blk = _parallel_core(ah, wa, bh, wb, tol)
        pair = _Pair(ah, wa, bh, wb, value, blk._t22)
        numkit._memo.put(key, pair)
    return key, pair


def _remember(key: bytes, pair: _Pair, **found) -> _Pair:
    """The pair's analysis with ``found`` added, kept in place of the old entry."""
    pair = _Pair(**{**vars(pair), **found})
    numkit._memo.put(key, pair)
    return pair


def parallel_sum(a, b, tol: Tol = DEFAULT_TOL) -> ParallelSumResult:
    """Parallel sum A : B of two PSD matrices of the same size.

    Parameters
    ----------
    a, b : array_like
        Hermitian PSD matrices, n x n.
    tol : Tol

    Raises
    ------
    NotPSD
        If either input fails the PSD check.
    ShapeMismatch
        If the shapes differ.
    """
    key, pair = _pair(a, b, tol)
    if pair.agreement is None:
        agreement = 0.0
        if _is_pd(pair.wa, tol) and _is_pd(pair.wb, tol):
            agreement = opnorm(_pd_formula(pair.ah, pair.bh) - pair.value)
        pair = _remember(key, pair, agreement=float(agreement))
    return ParallelSumResult(value=pair.value.copy(), route_agreement=pair.agreement, _a=pair.ah, _b=pair.bh)


def hansen_inequality_check(a, b, c, tol: Tol = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of C* A C + (I - C)* B (I - C) - A : B.

    The inequality says this is nonnegative for every square C; the caller
    decides what slack to allow for round-off.  A and B are analysed once per
    process (module docstring), so a loop over C costs one A : B per distinct
    pair.
    """
    return _hansen_worst(a, b, (as_matrix(c, "C"),), tol)


def _variational(x: np.ndarray, ah: np.ndarray, bh: np.ndarray) -> np.ndarray:
    """X* A X + (I - X)* B (I - X), the form whose minimum over X is A : B."""
    rest = np.eye(x.shape[0]) - x
    return x.conj().T @ ah @ x + rest.conj().T @ bh @ rest


def _hansen_worst(a, b, probes, tol: Tol) -> float:
    """Smallest :func:`hansen_inequality_check` value over the probes C.

    A and B are validated and A : B computed once for all probes, on a miss
    of the pair's analysis, without :func:`parallel_sum`'s cross-check.
    """
    pair = _pair(a, b, tol)[1]
    ah, bh, ps = pair.ah, pair.bh, pair.value
    worst = None
    for c in probes:
        cm = as_matrix(c, "C")
        if cm.shape != ah.shape:
            raise ShapeMismatch(f"C must match A's shape {ah.shape}, got {cm.shape}")
        lam = float(_eigh(_herm(_variational(cm, ah, bh) - ps), vectors=False)[0]) if ps.size else 0.0
        worst = lam if worst is None else min(worst, lam)
    return worst


@dataclass(frozen=True)
class Lemma69Result:
    """Outcome of the inverse-shift inequality check.

    ``lambda_min`` is the smallest eigenvalue of
    Y* Y + (I - Y)* X^-1 (I - Y) - (I + X)^-1, which is >= 0 for positive
    definite X; ``equality_gap`` is ||Y - (I + X)^-1||, which is 0 exactly
    at the minimizing Y.
    """

    lambda_min: float
    equality_gap: float


def lemma_69_check(x, y, tol: Tol = DEFAULT_TOL) -> Lemma69Result:
    """Evaluate the inequality (I + X)^-1 <= Y* Y + (I - Y)* X^-1 (I - Y).

    Parameters
    ----------
    x : array_like
        Hermitian positive definite matrix.
    y : array_like
        Arbitrary square matrix of the same size.

    Raises
    ------
    NotPositiveDefinite
        If X is not Hermitian positive definite beyond the clamp.
    """
    xm, ym = as_matrix(x, "X"), as_matrix(y, "Y")
    xh = _hermitian(xm, tol, "X", NotPositiveDefinite)
    if ym.shape != xh.shape:
        raise ShapeMismatch(f"Y must match X's shape {xh.shape}, got {ym.shape}")
    w = _eigh(xh, vectors=False)
    n = xh.shape[0]
    if n == 0:
        return Lemma69Result(lambda_min=0.0, equality_gap=0.0)
    if not _is_pd(w, tol):
        raise NotPositiveDefinite(
            f"X has smallest eigenvalue {w.min():.6e}; positive definiteness "
            "within the clamp is required"
        )
    eye = np.eye(n)
    lhs = np.linalg.inv(eye + xh)
    rhs = ym.conj().T @ ym + (eye - ym).conj().T @ np.linalg.inv(xh) @ (eye - ym)
    return Lemma69Result(
        lambda_min=float(_eigh(_herm(rhs - lhs), vectors=False)[0]),
        equality_gap=opnorm(ym - lhs),
    )


@dataclass(frozen=True)
class ParallelEquationSolution:
    """Reduced solution X of (A + B) X = B together with its certificate.

    At this X the quadratic form X* A X + (I - X)* B (I - X) attains the
    parallel sum A : B; ``norm`` is ||X||, and ``diagnostics`` records the
    equation residual, the solve residual and the condition number of A + B
    on its range.
    """

    X: np.ndarray
    norm: float
    diagnostics: dict


def solve_parallel_equation(a, b, tol: Tol = DEFAULT_TOL) -> ParallelEquationSolution:
    """Solve (A + B) X = B in the reduced sense and certify the variational
    identity X* A X + (I - X)* B (I - X) = A : B.

    A + B is T22 of the partition behind A : B; the solve reads its SVD from
    the pair's analysis, which keeps the certified solution once found.

    Raises
    ------
    InternalInvariantViolation
        If the certified identity misses by more than
        tol.residual_rel * (||A|| + ||B||); for PSD inputs this bound cannot
        fail mathematically, only numerically.
    """
    key, pair = _pair(a, b, tol)
    if pair.solution is None:
        ah, bh, f = pair.ah, pair.bh, pair.t22
        sol = _solve(ah + bh, f, bh, tol)
        x = sol.D
        eq_residual = opnorm(_variational(x, ah, bh) - pair.value)
        bound = tol.residual_rel * (_norm(pair.wa) + _norm(pair.wb))
        if eq_residual > bound:
            raise InternalInvariantViolation(
                f"variational identity missed by {eq_residual:.3e} (bound {bound:.3e})"
            )
        r = f.rank(tol)
        cond_on_range = float(f.s[0] / f.s[r - 1]) if r else 0.0
        pair = _remember(key, pair, solution=ParallelEquationSolution(
            X=x,
            norm=opnorm(x),
            diagnostics={
                "equation_residual": float(eq_residual),
                "solve_residual": float(sol.residual),
                "cond_on_range": cond_on_range,
            },
        ))
    sol = pair.solution
    return ParallelEquationSolution(X=sol.X.copy(), norm=sol.norm, diagnostics=dict(sol.diagnostics))
