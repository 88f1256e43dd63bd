"""Shared dense-matrix kernel: tolerance policy, Hermitian spectra, fractional
powers, absolute values, pseudo-inverses, range projectors, and the JSON
matrix file format.

All operators are dense complex128 numpy arrays.  Every function that makes a
rank or positivity decision takes a :class:`Tol` so the whole package shares
one tolerance policy.
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


@dataclass(frozen=True)
class Tol:
    """Tolerance policy shared by all rank, residual, and positivity decisions.

    Attributes
    ----------
    rank_rel : float
        Relative singular-value cutoff: sigma_i is counted toward the
        numerical rank iff sigma_i > rank_rel * sigma_1.
    residual_rel : float
        Relative residual bound below which a solve or inclusion verdict
        is accepted.
    eig_clamp_rel : float
        Eigenvalues of a nominally PSD matrix with |lambda| <= eig_clamp_rel
        * ||A|| are treated as exact zeros; anything more negative is an
        error, not noise.
    """

    rank_rel: float = 1e-12
    residual_rel: float = 1e-8
    eig_clamp_rel: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "residual_rel", "eig_clamp_rel"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and 0.0 < value < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")

    @classmethod
    def scaled(cls, residual_rel: float) -> "Tol":
        """Derive the full policy from the single CLI knob.

        rank_rel tracks residual_rel * 1e-4 and eig_clamp_rel tracks
        residual_rel * 1e-2, so tightening the residual bound tightens
        the rank and clamp decisions proportionally.
        """
        return cls(
            rank_rel=residual_rel * 1e-4,
            residual_rel=residual_rel,
            eig_clamp_rel=residual_rel * 1e-2,
        )


DEFAULT_TOL = Tol()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting anything else."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def opnorm(a) -> float:
    """Operator 2-norm (largest singular value).  Empty matrices have norm 0."""
    m = np.asarray(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _herm_within(m: np.ndarray, rel: float) -> bool:
    """True iff ||M - M*|| <= rel * ||M|| in the operator norm.

    The Frobenius norm bounds the operator norm from above and below (within
    sqrt(n)), so two cheap Frobenius comparisons settle almost every call
    without the O(n^3) singular value computations.
    """
    if m.size == 0:
        return True
    diff = m - m.conj().T
    diff_fro = float(np.linalg.norm(diff))
    if diff_fro == 0.0:
        return True
    m_fro = float(np.linalg.norm(m))
    n = m.shape[0]
    # ||diff||_2 <= diff_fro and ||M||_2 >= m_fro / sqrt(n): certain pass
    if diff_fro <= rel * m_fro / np.sqrt(n):
        return True
    # ||diff||_2 >= diff_fro / sqrt(n) and ||M||_2 <= m_fro: certain fail
    if diff_fro / np.sqrt(n) > rel * m_fro:
        return False
    return opnorm(diff) <= rel * opnorm(m)


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
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not _herm_within(m, tol.residual_rel):
        raise NotHermitian("matrix is not Hermitian within residual_rel * ||A||")
    h = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
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


def _clamped_psd_eigenvalues(w: np.ndarray, tol: Tol) -> np.ndarray:
    """Clamp spectral dirt to exact zero; reject genuine negativity.

    |lambda| <= eig_clamp_rel * ||A|| -> 0.  lambda < -eig_clamp_rel * ||A||
    raises NotPSD.  Keeping tiny positives would poison later fractional
    powers, so they are zeroed as well.
    """
    if w.size == 0:
        return w
    clamp = _eig_clamp(w, tol)
    if float(w.min()) < -clamp:
        raise NotPSD(
            f"eigenvalue {w.min():.6e} below the PSD clamp -{clamp:.6e}"
        )
    return np.where(np.abs(w) <= clamp, 0.0, w)


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
    NotPSD
        If an eigenvalue falls below the negative clamp.
    ValueError
        If p is not a positive real number.
    """
    if not isinstance(p, (int, float)) or not np.isfinite(p) or p <= 0:
        raise ValueError(f"exponent must be a positive real number, got {p!r}")
    eig = herm_eig(a, tol)
    w = _clamped_psd_eigenvalues(eig.eigenvalues, tol)
    v = eig.eigenvectors
    out = (v * w ** float(p)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def _rank(s: np.ndarray, tol: Tol, scale: float | None = None) -> int:
    """The package's one rank cutoff: the number of singular values (sorted
    descending) strictly above tol.rank_rel * scale, where scale defaults to
    sigma_1."""
    if scale is None:
        scale = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > tol.rank_rel * scale))


def _compact_svd(m: np.ndarray, tol: Tol):
    """SVD plus the numerical rank under :func:`_rank`."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return u, s, vh, _rank(s, tol)


def numerical_rank(t, tol: Tol = DEFAULT_TOL) -> int:
    """Number of singular values above rank_rel * sigma_1."""
    return _compact_svd(as_matrix(t), tol)[3]


def absolute_value(t, side: str = "right", tol: Tol = DEFAULT_TOL) -> np.ndarray:
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
    m = as_matrix(t)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if side == "right":
        base = vh.conj().T
        out = (base * s) @ vh
    else:
        out = (u * s) @ u.conj().T
    return (out + out.conj().T) / 2.0


def pseudo_inverse(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff.

    Singular values at or below rank_rel * sigma_1 are treated as exact
    zeros, which keeps the four Penrose identities accurate on rank-deficient
    inputs instead of amplifying noise.
    """
    m = as_matrix(t)
    u, s, vh, r = _compact_svd(m, tol)
    if r == 0:
        return np.zeros((m.shape[1], m.shape[0]), dtype=np.complex128)
    return (vh[:r].conj().T / s[:r]) @ u[:, :r].conj().T


def range_basis(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical range of T, as columns."""
    m = as_matrix(t)
    u, _, _, r = _compact_svd(m, tol)
    return np.ascontiguousarray(u[:, :r])


def range_projector(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the numerical range of T.

    Built from the left singular vectors above the rank cutoff; the result is
    Hermitian and idempotent to working precision and reproduces the
    regularized limit (T + eps I)^(-1) T on PSD inputs.
    """
    b = range_basis(t, tol)
    p = b @ b.conj().T
    return (p + p.conj().T) / 2.0


# --- JSON matrix file format -------------------------------------------------
#
# {"rows": m, "cols": n, "data": [[re, im], ...]}  with data row-major and
# len(data) == m * n.  Readers reject length or type mismatches.


def matrix_to_json_dict(a) -> dict:
    """Encode a matrix as the package's JSON object."""
    m = as_matrix(a)
    flat = m.ravel(order="C")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from_json_dict(obj) -> np.ndarray:
    """Decode the package's JSON matrix object, validating shape and entries."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing the {key!r} field")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
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
            or not all(isinstance(x, (int, float)) for x in entry)
        ):
            raise ValueError(f"data[{i}] is not a [re, im] pair of numbers")
        out[i] = complex(entry[0], entry[1])
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
