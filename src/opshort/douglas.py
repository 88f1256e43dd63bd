"""Range inclusion tests and reduced solutions of A X = C.

A reduced solution is the solution whose columns live in the range of A*;
it is unique when it exists and coincides with the minimum-norm solution,
i.e. with pinv(A) @ C.  Solvability of A X = C is equivalent to range
inclusion R(C) <= R(A), which is what :func:`range_included` measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotSolvable, ShapeMismatch
from .numkit import (
    _BAND,
    _GUARD,
    DEFAULT_TOL,
    Tol,
    _norm_bounds,
    _norm_within,
    _svd_factor,
    _SVDFactor,
    as_matrix,
    opnorm,
)

__all__ = ["RangeInclusion", "ReducedSolution", "range_included", "reduced_solution"]


@dataclass(frozen=True)
class RangeInclusion:
    """Verdict of a range-inclusion test R(C) <= R(A).

    ``margin`` is ||(I - P_R(A)) C|| / max(||C||, 1), computed on first read;
    the verdict is ``margin <= residual_rel``.  ``borderline`` marks margins
    within the factor ``numkit._BAND`` (10) of residual_rel on either side,
    where the boolean should not be trusted without a second look.
    """

    included: bool
    borderline: bool
    _residual: np.ndarray | float = field(repr=False, compare=False)  # or its norm
    _scale: float = field(repr=False, compare=False)  # max(||C||, 1)

    @cached_property
    def margin(self) -> float:
        r = self._residual
        return (r if isinstance(r, float) else opnorm(r)) / self._scale


@dataclass(frozen=True)
class ReducedSolution:
    """Reduced solution D of A D = C.

    ``residual`` is ||A D - C|| / max(||C||, 1) and ``range_ok`` records the
    defining constraint R(D) <= R(A*) (always true for the pinv construction,
    but verified rather than assumed).  ``margin`` (computed on first read)
    and ``borderline`` echo the range-inclusion test that justified
    solvability.
    """

    D: np.ndarray
    residual: float
    range_ok: bool
    _verdict: RangeInclusion = field(repr=False, compare=False)

    @property
    def margin(self) -> float:
        return self._verdict.margin

    @property
    def borderline(self) -> bool:
        return self._verdict.borderline


def _operands(a, c):
    am = as_matrix(a, "A")
    cm = as_matrix(c, "C")
    if am.shape[0] != cm.shape[0]:
        raise ShapeMismatch(
            f"A has {am.shape[0]} rows but C has {cm.shape[0]}"
        )
    return am, cm


def _inclusion(ur: np.ndarray, uc: np.ndarray, cm: np.ndarray, c_norm: float, tol: Tol):
    """The one margin rule behind every range-inclusion verdict.

    ``ur`` has orthonormal columns spanning R(A) (the left singular vectors
    above the rank cutoff), ``uc`` is U_r* C and ``c_norm`` is ||C||; the
    margin is ||C - U_r (U_r* C)|| / max(||C||, 1).  Its flags are read from
    bounds [lo, hi] on that norm: the Frobenius ones where they clear the
    borderline band by the factor _GUARD, as in _norm_within, else lo = hi = it.
    """
    residual = cm - ur @ uc
    scale, rel = max(c_norm, 1.0), tol.residual_rel
    lo, hi = _norm_bounds(residual)
    if _GUARD * hi >= rel / _BAND * scale and lo <= _GUARD * rel * _BAND * scale:
        residual = lo = hi = opnorm(residual)
    lo, hi = float(lo) / scale, float(hi) / scale
    return RangeInclusion(hi <= rel, rel / _BAND <= lo and hi <= rel * _BAND, residual, scale)


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
    f = _svd_factor(am)
    ur = f.u[:, : f.rank(tol)]
    return _inclusion(ur, ur.conj().T @ cm, cm, opnorm(cm), tol)


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
    am, cm = _operands(a, c)
    return _solve(am, _svd_factor(am), cm, tol)


def _solve(am: np.ndarray, f: _SVDFactor, cm: np.ndarray, tol: Tol) -> ReducedSolution:
    """The solve step of :func:`reduced_solution`, given A's SVD factor ``f``.

    The one factor feeds the inclusion margin, the pinv solve and the
    R(D) <= R(A*) check (the compact right factor spans R(A*)).  Raises
    NotSolvable as :func:`reduced_solution` does.
    """
    r = f.rank(tol)
    ur = f.u[:, :r]
    uc = ur.conj().T @ cm
    c_norm = opnorm(cm)
    verdict = _inclusion(ur, uc, cm, c_norm, tol)
    vr = f.vh[:r].conj().T
    d = (vr / f.s[:r]) @ uc
    residual = opnorm(am @ d - cm) / max(c_norm, 1.0)
    if not verdict.included:
        raise NotSolvable(
            f"A X = C is not solvable: inclusion margin {verdict.margin:.3e} "
            f"exceeds residual_rel {tol.residual_rel:.3e}",
            margin=verdict.margin,
            candidate=d,
            residual=residual,
            borderline=verdict.borderline,
        )
    range_ok = _norm_within(d - vr @ (vr.conj().T @ d), tol.residual_rel, d)
    return ReducedSolution(D=d, residual=residual, range_ok=range_ok, _verdict=verdict)
