"""Range inclusion tests and reduced solutions of A X = C.

A reduced solution is the solution whose columns live in the range of A*;
it is unique when it exists and coincides with the minimum-norm solution,
i.e. with pinv(A) @ C.  Solvability of A X = C is equivalent to range
inclusion R(C) <= R(A), which is what :func:`range_included` measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSolvable, ShapeMismatch
from .numkit import (
    DEFAULT_TOL,
    Tol,
    _compact_svd,
    as_matrix,
    opnorm,
)

__all__ = ["RangeInclusion", "ReducedSolution", "range_included", "reduced_solution"]


@dataclass(frozen=True)
class RangeInclusion:
    """Verdict of a range-inclusion test R(C) <= R(A).

    ``margin`` is ||(I - P_R(A)) C|| / max(||C||, 1); the verdict is
    ``margin <= residual_rel``.  ``borderline`` marks margins within a factor
    10 of residual_rel on either side, where the boolean should not be
    trusted without a second look.
    """

    included: bool
    margin: float
    borderline: bool


@dataclass(frozen=True)
class ReducedSolution:
    """Reduced solution D of A D = C.

    ``residual`` is ||A D - C|| / max(||C||, 1) and ``range_ok`` records the
    defining constraint R(D) <= R(A*) (always true for the pinv construction,
    but verified rather than assumed).  ``margin`` and ``borderline`` echo
    the range-inclusion test that justified solvability.
    """

    D: np.ndarray
    residual: float
    range_ok: bool
    margin: float
    borderline: bool


def _operands(a, c):
    am = as_matrix(a, "A")
    cm = as_matrix(c, "C")
    if am.shape[0] != cm.shape[0]:
        raise ShapeMismatch(
            f"A has {am.shape[0]} rows but C has {cm.shape[0]}"
        )
    return am, cm


def _inclusion(ur: np.ndarray, cm: np.ndarray, tol: Tol):
    """The one margin rule behind every range-inclusion verdict.

    ``ur`` is the compact left singular factor of A above the rank cutoff,
    so it spans R(A); the margin is ||C - U_r (U_r* C)|| / max(||C||, 1).
    Returns the verdict and U_r* C, which a solve reuses.
    """
    uc = ur.conj().T @ cm
    margin = opnorm(cm - ur @ uc) / max(opnorm(cm), 1.0)
    verdict = RangeInclusion(
        included=margin <= tol.residual_rel,
        margin=margin,
        borderline=tol.residual_rel / 10.0 <= margin <= tol.residual_rel * 10.0,
    )
    return verdict, uc


def range_included(a, c, tol: Tol = DEFAULT_TOL) -> RangeInclusion:
    """Test whether the columns of C lie in the numerical range of A.

    Parameters
    ----------
    a, c : array_like
        Matrices with the same number of rows.
    tol : Tol
        rank_rel fixes the range of A; residual_rel fixes the verdict line.

    Raises
    ------
    ShapeMismatch
        If A and C have different row counts.
    """
    am, cm = _operands(a, c)
    u, _, _, r = _compact_svd(am, tol)
    return _inclusion(u[:, :r], cm, tol)[0]


def reduced_solution(a, c, tol: Tol = DEFAULT_TOL) -> ReducedSolution:
    """Reduced (minimum-norm) solution of A D = C.

    Parameters
    ----------
    a : array_like, shape (m, n)
    c : array_like, shape (m, p)
    tol : Tol

    Returns
    -------
    ReducedSolution
        D = pinv(A) C of shape (n, p) with its residual and range flag.

    Raises
    ------
    NotSolvable
        If the range-inclusion margin exceeds residual_rel.  The exception
        carries the margin, the borderline flag, the least-squares candidate
        D, and the candidate's residual, so nothing is lost on failure.
    """
    # one SVD of A feeds the inclusion margin, the pinv solve, and the
    # R(D) <= R(A*) check; the compact right factor spans R(A*)
    am, cm = _operands(a, c)
    u, s, vh, r = _compact_svd(am, tol)
    verdict, uc = _inclusion(u[:, :r], cm, tol)
    margin, borderline = verdict.margin, verdict.borderline
    d = (vh[:r].conj().T / s[:r]) @ uc
    residual = opnorm(am @ d - cm) / max(opnorm(cm), 1.0)
    if not verdict.included:
        raise NotSolvable(
            f"A X = C is not solvable: inclusion margin {margin:.3e} "
            f"exceeds residual_rel {tol.residual_rel:.3e}",
            margin=margin,
            candidate=d,
            residual=residual,
            borderline=borderline,
        )
    vr = vh[:r].conj().T
    range_ok = bool(
        opnorm(d - vr @ (vr.conj().T @ d)) <= tol.residual_rel * max(opnorm(d), 1.0)
    )
    return ReducedSolution(
        D=d, residual=residual, range_ok=range_ok, margin=margin, borderline=borderline
    )
