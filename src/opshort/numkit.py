"""Shared dense-matrix kernel: tolerance policy, Hermitian spectra, fractional
powers, absolute values, pseudo-inverses, range projectors, and the JSON
matrix file format.

All operators are dense double-precision numpy arrays, real or complex as
:func:`as_matrix` decides from the input's dtype.  ``numpy.linalg`` picks the
real or complex LAPACK driver from that dtype, and every result keeps it by
numpy promotion.

Every function that makes a rank or positivity decision takes a :class:`Tol`
so the whole package shares one tolerance policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, ShapeMismatch

__all__ = [
    "Tol",
    "DEFAULT_TOL",
    "HermEig",
    "as_matrix",
    "opnorm",
    "herm_eig",
    "psd_power",
    "absolute_value",
    "pseudo_inverse",
    "range_projector",
    "range_basis",
    "numerical_rank",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "save_matrix",
    "load_matrix",
]


# margins within the factor _BAND of residual_rel are borderline (a bound at the
# band's lower edge reads residual_rel / _BAND); see _norm_within for _GUARD
_BAND, _GUARD = 10.0, 2.0

# the smallest rank_rel: the round-off sigma_(r+1) / sigma_1 of rank-deficient
# PSD matrices measures a few eps (below 4 eps up to n = 256), and a cutoff
# below that counts noise as rank
_RANK_REL_FLOOR = 16 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class Tol:
    """Tolerance policy shared by all rank, residual, and positivity decisions.

    One knob, ``residual_rel``, sets the whole policy; the rank and clamp
    cutoffs are derived from it, so tightening the residual bound tightens
    them proportionally.

    Attributes
    ----------
    residual_rel : float
        Relative residual bound below which a solve or inclusion verdict
        is accepted.
    rank_rel : float
        ``residual_rel * 1e-4``, the relative singular-value cutoff: sigma_i
        is counted toward the numerical rank iff sigma_i > rank_rel * sigma_1.
        At least 16 eps: below that the cutoff counts round-off as rank.
    eig_clamp_rel : float
        ``residual_rel * 1e-2``: eigenvalues of a nominally PSD matrix with
        |lambda| <= eig_clamp_rel * ||A|| are treated as exact zeros; anything
        more negative is an error, not noise.
    """

    residual_rel: float = 1e-8

    def __post_init__(self):
        value = self.residual_rel
        if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
            raise ValueError(f"residual_rel must lie in (0, 1), got {value!r}")
        if self.rank_rel < _RANK_REL_FLOOR:
            raise ValueError(
                f"rank_rel must be at least {_RANK_REL_FLOOR:.3e} (16 eps), "
                f"got {self.rank_rel!r}: below it the rank cutoff counts round-off"
            )

    @property
    def rank_rel(self) -> float:
        return self.residual_rel * 1e-4

    @property
    def eig_clamp_rel(self) -> float:
        return self.residual_rel * 1e-2


DEFAULT_TOL = Tol()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D array, complex128 if the input's dtype is complex and
    float64 otherwise; anything that is not 2-D is rejected.  Every operand
    passes here, so this is the package's dtype decision; only the JSON
    reader decides by value."""
    m = np.asarray(a)
    if m.dtype == object:  # numbers held as objects: let numpy type them
        m = np.array(m.tolist()).reshape(m.shape)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def opnorm(a) -> float:
    """Operator 2-norm (largest singular value).  Empty matrices have norm 0."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _norm_bounds(m) -> tuple[float, float]:
    """Lower and upper bounds on ||M||_2 from the Frobenius norm.

    ||M||_F / sqrt(min(shape)) <= ||M||_2 <= ||M||_F, since M has at most
    min(shape) nonzero singular values.  A float stands for a norm that is
    already known exactly.
    """
    if isinstance(m, float):
        return m, m
    fro = float(np.linalg.norm(m))
    return fro / np.sqrt(max(min(m.shape), 1)), fro


def _norm_within(x, rel: float, y=0.0, floor: float = 1.0) -> bool:
    """Decide ||X||_2 <= rel * max(||Y||_2, floor) without an SVD where possible.

    X and Y are matrices or exactly known norms (floats); ``rel`` is read
    from the caller's Tol, except in ``lab.make_kit`` and ``_same_subspace``.
    Frobenius bounds (:func:`_norm_bounds`) settle a pass or a fail only where
    they clear the bound by the factor ``_GUARD``, far beyond their rounding;
    nearer, the exact operator norms decide, so the verdict is the exact one.
    Use it where a verdict is a boolean; a reported number stays an exact
    :func:`opnorm`, taken on first read, so an unread margin costs no SVD.
    """
    x_lo, x_hi = _norm_bounds(x)
    y_lo, y_hi = _norm_bounds(y)
    if _GUARD * x_hi <= rel * max(y_lo, floor):
        return True
    if x_lo > _GUARD * rel * max(y_hi, floor):
        return False
    exact = [v if isinstance(v, float) else opnorm(v) for v in (x, y)]
    return exact[0] <= rel * max(exact[1], floor)


def _integer(x, message: str = "dimension must be an integer") -> int:
    """The one integer check: Python and numpy integers pass as int; bools
    (ints to Python), floats and the rest raise ValueError(message, x)."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{message}, got {x!r}")
    return int(x)


def _herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*) / 2."""
    return (a + a.conj().T) / 2.0


def _hermitian(a, tol: Tol, name: str = "A", error: type = NotHermitian) -> np.ndarray:
    """The one Hermitian check: ``a`` must be square with ||A - A*|| <=
    residual_rel * ||A||.  Returns the Hermitian part; failures raise
    ``error`` naming the operand ``name``."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise error(f"{name} must be square, got shape {m.shape}")
    if not _norm_within(m - m.conj().T, tol.residual_rel, m, floor=0.0):
        raise error(f"{name} is not Hermitian within residual_rel * ||{name}||")
    return _herm(m)


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns, so
    ``eigenvectors * eigenvalues @ eigenvectors.conj().T`` reconstructs the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a, tol: Tol = DEFAULT_TOL) -> HermEig:
    """Full spectral decomposition of a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square matrix with ||A - A*|| <= residual_rel * ||A||.
    tol : Tol
        Tolerance policy; only residual_rel is consulted here.

    Returns
    -------
    HermEig
        Eigenvalues descending, eigenvector columns in the same order.

    Raises
    ------
    NotHermitian
        If the input is not square or departs from A = A* beyond tolerance.
    """
    w, v = np.linalg.eigh(_hermitian(a, tol))
    # eigh returns ascending order; the package contract is descending
    return HermEig(
        eigenvalues=np.ascontiguousarray(w[::-1]),
        eigenvectors=np.ascontiguousarray(v[:, ::-1]),
    )


def _eig_clamp(w: np.ndarray, tol: Tol) -> float:
    """The clamp eig_clamp_rel * max|lambda| of a nonempty Hermitian spectrum.

    Eigenvalues of magnitude at most the clamp are round-off: a PSD test
    rejects only lambda < -clamp, a PD test accepts only lambda > clamp.
    """
    return tol.eig_clamp_rel * float(np.abs(w).max())


def _psd_clamp(w: np.ndarray, tol: Tol, name: str = "A") -> float:
    """The one PSD rule: raise NotPSD, naming the operand, if an eigenvalue
    of the Hermitian spectrum ``w`` lies below -clamp; else return the clamp
    (0.0 for an empty spectrum)."""
    if w.size == 0:
        return 0.0
    clamp = _eig_clamp(w, tol)
    if float(w.min()) < -clamp:
        raise NotPSD(f"{name} has eigenvalue {w.min():.6e} below the PSD clamp")
    return clamp


def psd_power(a, p: float, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Fractional power A^p of a positive semidefinite matrix.

    Parameters
    ----------
    a : array_like
        Hermitian PSD matrix (eigenvalues >= -eig_clamp_rel * ||A|| are
        accepted and clamped to 0).
    p : float
        Strictly positive exponent.
    tol : Tol
        Tolerance policy.

    Returns
    -------
    numpy.ndarray
        Hermitian PSD matrix with the same eigenvectors and eigenvalues
        raised to p (clamped zeros stay exactly zero).

    Raises
    ------
    NotHermitian
        If the input fails :func:`herm_eig`'s check.
    NotPSD
        If an eigenvalue falls below the negative clamp.
    ValueError
        If p is not a positive real number (a bool is not).
    """
    message = "exponent must be a positive real number"
    p = p if isinstance(p, (float, np.floating)) else _integer(p, message)
    if not np.isfinite(p) or p <= 0:
        raise ValueError(f"{message}, got {p!r}")
    eig = herm_eig(a, tol)
    w, v = eig.eigenvalues, eig.eigenvectors
    # |lambda| <= clamp is dirt; tiny positives would poison the power too
    w = np.where(np.abs(w) <= _psd_clamp(w, tol), 0.0, w)
    return _herm((v * w ** float(p)) @ v.conj().T)


def _rank(s: np.ndarray, tol: Tol, scale: float | None = None) -> int:
    """The package's one rank cutoff: the number of singular values (sorted
    descending) strictly above tol.rank_rel * scale, where scale defaults to
    sigma_1."""
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > tol.rank_rel * scale))


@dataclass(frozen=True)
class _SVDFactor:
    """Compact SVD T = u diag(s) vh, taken once and read by every view.

    ``s`` is sorted descending.  Views that depend on the numerical range take
    the number r of leading singular triplets they keep, normally
    :meth:`rank`, so one factor serves every rank rule a caller applies.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray

    def rank(self, tol: Tol) -> int:
        return _rank(self.s, tol)

    def power(self, a: float, r: int) -> np.ndarray:
        """u_r s_r^a vh_r: the polar factor at a = 0, V(T) at a = 1/2."""
        return (self.u[:, :r] * self.s[:r] ** a) @ self.vh[:r]

    def abs_power(self, side: str) -> np.ndarray:
        """|T| ("right", on the domain) or |T*| ("left", on the codomain)."""
        b = self.vh.conj().T if side == "right" else self.u
        return _herm((b * self.s) @ b.conj().T)

    def pinv(self, r: int) -> np.ndarray:
        """vh_r* s_r^-1 u_r*: the pseudo-inverse when r is the rank."""
        return (self.vh[:r].conj().T / self.s[:r]) @ self.u[:, :r].conj().T


def _svd_factor(m: np.ndarray) -> _SVDFactor:
    """Compact SVD; u and vh keep ``m``'s dtype."""
    return _SVDFactor(*np.linalg.svd(m, full_matrices=False))


def numerical_rank(t, tol: Tol = DEFAULT_TOL) -> int:
    """Number of singular values above rank_rel * sigma_1."""
    return _svd_factor(as_matrix(t)).rank(tol)


def absolute_value(t, side: str = "right") -> np.ndarray:
    """Operator absolute value |T| = (T*T)^(1/2) or |T*| = (TT*)^(1/2).

    Parameters
    ----------
    t : array_like
        Any rectangular complex matrix.
    side : {"right", "left"}
        "right" returns |T| (square on the domain), "left" returns |T*|
        (square on the codomain).

    Returns
    -------
    numpy.ndarray
        Hermitian PSD matrix built from the singular values of T.
    """
    if side not in ("right", "left"):
        raise ValueError(f'side must be "right" or "left", got {side!r}')
    return _svd_factor(as_matrix(t)).abs_power(side)


def pseudo_inverse(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff.

    Singular values at or below rank_rel * sigma_1 are treated as exact
    zeros, which keeps the four Penrose identities accurate on rank-deficient
    inputs instead of amplifying noise.
    """
    f = _svd_factor(as_matrix(t))
    return f.pinv(f.rank(tol))


def range_basis(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical range of T, as columns."""
    f = _svd_factor(as_matrix(t))
    return np.ascontiguousarray(f.u[:, : f.rank(tol)])


def range_projector(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical range of T.

    Built from the left singular vectors above the rank cutoff; the result is
    Hermitian and idempotent to working precision and reproduces the
    regularized limit (T + eps I)^(-1) T on PSD inputs.
    """
    b = range_basis(t, tol)
    return _herm(b @ b.conj().T)


def _angle_factors(qa: np.ndarray, qb: np.ndarray):
    """Q_A* Q_B and Q_B - Q_A (Q_A* Q_B), whose singular values are the cosines
    and the sines of the principal angles between the ranges of orthonormal
    Q_A and Q_B (Knyazev & Argentati, SIAM J. Sci. Comput. 23, 2002)."""
    c = qa.conj().T @ qb
    return c, qb - qa @ c


# --- JSON matrix file format -------------------------------------------------
#
# {"rows": m, "cols": n, "data": [[re, im], ...]}  with data row-major and
# len(data) == m * n.  Readers reject length or type mismatches.  Every entry
# carries an imaginary part, so the reader picks the dtype by value: float64
# when all of them are zero (-0.0 included), else complex128.


def matrix_to_json_dict(a) -> dict:
    """Encode a matrix as the package's JSON object."""
    m = as_matrix(a)
    flat = m.ravel(order="C")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": np.stack((flat.real, flat.imag), -1).tolist(),
    }


def matrix_from_json_dict(obj) -> np.ndarray:
    """Decode the package's JSON matrix object, validating shape and entries."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing the {key!r} field")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # bool is an int subclass, but a JSON true is not a dimension or a number
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in (rows, cols)):
        raise ValueError("rows and cols must be non-negative integers")
    if not isinstance(data, list):
        raise ValueError("data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(
            f"data length {len(data)} does not match rows*cols = {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"data[{i}] is not a [re, im] pair of numbers")
        try:
            out[i] = complex(entry[0], entry[1])
        except OverflowError:  # an integer literal beyond the float range
            raise ValueError(f"data[{i}] is not finite") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"data[{bad[0]}] is not finite")
    if not out.imag.any():
        out = np.ascontiguousarray(out.real)
    return out.reshape(rows, cols)


def save_matrix(path, a) -> None:
    """Write a matrix to ``path`` in the JSON file format (deterministic bytes)."""
    payload = json.dumps(matrix_to_json_dict(a), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a JSON file written by :func:`save_matrix`."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return matrix_from_json_dict(obj)
