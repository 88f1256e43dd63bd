"""Parallel sums of PSD matrices and the operator inequalities around them.

The parallel sum A : B is defined through the bilateral shorted operator of
the block matrix [[A, A], [A, A + B]] relative to the first-summand corner;
for positive definite inputs it agrees with (A^-1 + B^-1)^-1, which is kept
as an independent cross-check route rather than folded into the primary one.

The block's lower-right corner is A + B, so :func:`solve_parallel_equation`
solves (A + B) X = B from the SVD that the partition behind A : B holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .douglas import _solve
from .errors import InternalInvariantViolation, NotPositiveDefinite, NotPSD, ShapeMismatch
from .numkit import DEFAULT_TOL, Tol, _eig_clamp, _herm, _hermitian, _psd_clamp, as_matrix, opnorm
from .shorting import BlockOperator, _coordinate_projector, partition, shorted

__all__ = [
    "ParallelSumResult",
    "Lemma69Result",
    "ParallelEquationSolution",
    "parallel_sum",
    "regularized_trend",
    "hansen_inequality_check",
    "lemma_69_check",
    "solve_parallel_equation",
]

# epsilon grid for the regularized trend report
_REG_EPS = (1e-4, 1e-6)


def _psd_pair(a, b, tol: Tol):
    """Validate A, then B, as PSD matrices of one shape; returns (A, wA, B, wB)
    with the Hermitian parts and their eigenvalues (ascending)."""
    parts = []
    for m, name in ((a, "A"), (b, "B")):
        h = _hermitian(m, tol, name, NotPSD)
        w = np.linalg.eigvalsh(h)
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
    w, v = np.linalg.eigh(h)
    clamp = tol.eig_clamp_rel * max(scale, float(np.abs(w).max()))
    if float(w.min()) < -clamp:
        raise InternalInvariantViolation(
            f"parallel sum came out indefinite: eigenvalue {w.min():.6e}"
        )
    w = np.where(w < 0.0, 0.0, w)
    return _herm((v * w) @ v.conj().T)


def _pd_formula(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _herm(np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b)))


@dataclass(frozen=True)
class ParallelSumResult:
    """Parallel sum with provenance.

    ``route`` names the route that produced ``value`` (always the
    shorted-block construction); ``route_agreement`` is the maximum deviation
    between that value and any cross-check route that ran (0.0 when none
    did).
    """

    value: np.ndarray
    route: str
    route_agreement: float


def _parallel_core(ah, wa, bh, wb, tol: Tol, t22=None) -> tuple[np.ndarray, BlockOperator]:
    """A : B of operands validated by :func:`_psd_pair`, with the partition of
    [[A, A], [A, A + B]] it came from; its T22 is A + B, whose SVD :func:`shorted`
    caches, unless ``t22`` hands in an SVD of a matrix with the same bytes."""
    n = ah.shape[0]
    big = np.block([[ah, ah], [ah, ah + bh]])
    corner = _coordinate_projector(2 * n, n)
    blk = partition(big, corner, corner, tol)
    # seed the block's cached views: the gathered T21 = T12* is A, normed by wa
    blk.__dict__["_t21_norm"] = _norm(wa)
    if t22 is not None:
        blk.__dict__["_t22"] = t22
    res = shorted(blk, tol)
    # the ambient shorted matrix is [[A:B, 0], [0, 0]]; the corner block is
    # basis-independent, unlike the core's internal coordinates
    return _clamp_result_psd(res.shorted[:n, :n], _norm(wa) + _norm(wb), tol), blk


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
    ah, wa, bh, wb = _psd_pair(a, b, tol)
    value, _ = _parallel_core(ah, wa, bh, wb, tol)
    agreement = 0.0
    if _is_pd(wa, tol) and _is_pd(wb, tol):
        agreement = opnorm(_pd_formula(ah, bh) - value)
    return ParallelSumResult(
        value=value,
        route="shorted_block",
        route_agreement=float(agreement),
    )


def regularized_trend(a, b, value, tol: Tol = DEFAULT_TOL) -> dict:
    """Map each eps in ``_REG_EPS`` to the deviation of the regularized sum
    (A + eps I) : (B + eps I), by the inverse formula, from ``value``
    (normally ``parallel_sum(a, b).value``).  A and B are validated as in
    :func:`parallel_sum`; the trend is never folded into ``route_agreement``.
    """
    ah, _, bh, _ = _psd_pair(a, b, tol)
    eye = np.eye(ah.shape[0])
    return {
        eps: opnorm(_pd_formula(ah + eps * eye, bh + eps * eye) - value)
        for eps in _REG_EPS
    }


def hansen_inequality_check(a, b, c, tol: Tol = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of C* A C + (I - C)* B (I - C) - A : B.

    The inequality says this is nonnegative for every square C; the caller
    decides what slack to allow for round-off.
    """
    return _hansen_worst(a, b, (c,), tol)


def _hansen_worst(a, b, probes, tol: Tol) -> float:
    """Smallest :func:`hansen_inequality_check` value over the probes C.

    A and B are validated and A : B computed once for all probes, without
    :func:`parallel_sum`'s cross-check.
    """
    ah, wa, bh, wb = _psd_pair(a, b, tol)
    n = ah.shape[0]
    ps = _parallel_core(ah, wa, bh, wb, tol)[0]
    eye = np.eye(n)
    worst = None
    for c in probes:
        cm = as_matrix(c, "C")
        if cm.shape != ah.shape:
            raise ShapeMismatch(f"C must match A's shape {ah.shape}, got {cm.shape}")
        rhs = cm.conj().T @ ah @ cm + (eye - cm).conj().T @ bh @ (eye - cm)
        lam = float(np.linalg.eigvalsh(_herm(rhs - ps)).min()) if n else 0.0
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
    xh = _hermitian(x, tol, "X", NotPositiveDefinite)
    w = np.linalg.eigvalsh(xh)
    n = xh.shape[0]
    if n == 0:
        return Lemma69Result(lambda_min=0.0, equality_gap=0.0)
    if not _is_pd(w, tol):
        raise NotPositiveDefinite(
            f"X has smallest eigenvalue {w.min():.6e}; positive definiteness "
            "within the clamp is required"
        )
    ym = as_matrix(y, "Y")
    if ym.shape != xh.shape:
        raise ShapeMismatch(f"Y must match X's shape {xh.shape}, got {ym.shape}")
    eye = np.eye(n)
    lhs = np.linalg.inv(eye + xh)
    rhs = ym.conj().T @ ym + (eye - ym).conj().T @ np.linalg.inv(xh) @ (eye - ym)
    return Lemma69Result(
        lambda_min=float(np.linalg.eigvalsh(_herm(rhs - lhs)).min()),
        equality_gap=opnorm(ym - lhs),
    )


@dataclass(frozen=True)
class ParallelEquationSolution:
    """Reduced solution X of (A + B) X = B together with its certificate.

    At this X the quadratic form X* A X + (I - X)* B (I - X) attains the
    parallel sum A : B; ``diagnostics`` records the equation residual, the
    solve residual, ||X||, and the condition number of A + B on its range.
    """

    X: np.ndarray
    norm: float
    diagnostics: dict


def solve_parallel_equation(a, b, tol: Tol = DEFAULT_TOL) -> ParallelEquationSolution:
    """Solve (A + B) X = B in the reduced sense and certify the variational
    identity X* A X + (I - X)* B (I - X) = A : B.

    A + B is T22 of the partition behind A : B; the solve reads its SVD.

    Raises
    ------
    InternalInvariantViolation
        If the certified identity misses by more than
        tol.residual_rel * (||A|| + ||B||); for PSD inputs this bound cannot
        fail mathematically, only numerically.
    """
    ah, wa, bh, wb = _psd_pair(a, b, tol)
    n = ah.shape[0]
    ps, blk = _parallel_core(ah, wa, bh, wb, tol)
    f = blk._t22
    sol = _solve(blk.T22, f, bh, tol)
    x = sol.D
    eye = np.eye(n)
    attained = x.conj().T @ ah @ x + (eye - x).conj().T @ bh @ (eye - x)
    eq_residual = opnorm(attained - ps)
    bound = tol.residual_rel * (_norm(wa) + _norm(wb))
    if eq_residual > bound:
        raise InternalInvariantViolation(
            f"variational identity missed by {eq_residual:.3e} (bound {bound:.3e})"
        )
    r = f.rank(tol)
    cond_on_range = float(f.s[0] / f.s[r - 1]) if r else 0.0
    norm_x = opnorm(x)
    return ParallelEquationSolution(
        X=x,
        norm=norm_x,
        diagnostics={
            "equation_residual": float(eq_residual),
            "solve_residual": float(sol.residual),
            "norm_X": norm_x,
            "cond_on_range": cond_on_range,
        },
    )
