"""Polar-type factorizations T = U |T|^alpha for rectangular complex matrices.

alpha = 1 is the classical polar decomposition with a partial isometry U.
For alpha in (0, 1) the factor U is no longer a partial isometry; instead it
satisfies the gram identities U*U = |T|^(2(1-alpha)) and UU* = |T*|^(2(1-alpha))
and intertwines the two absolute values, U |T|^beta = |T*|^beta U.  The
canonical factor V = |T*|^(1/2) U sits at the alpha = 1/2 interpolation point
and is the reduced solution of |T*|^(1/2) X = T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange
from .numkit import DEFAULT_TOL, Tol, _herm, _integer, _svd_factor, as_matrix

__all__ = [
    "PolarForm",
    "polar_decompose",
    "gpolar",
    "gpolar_iterative",
    "v_operator",
    "DEFAULT_ALPHA",
]

# interpolation exponent used when a caller does not care about alpha itself
DEFAULT_ALPHA = 0.75


@dataclass(frozen=True)
class PolarForm:
    """Factorization T = U |T|^alpha.

    ``U`` maps the domain of T to its codomain, vanishes on the kernel of T,
    and ``absT`` is the PSD absolute value |T| on the domain.
    """

    U: np.ndarray
    absT: np.ndarray
    alpha: float


def polar_decompose(t, tol: Tol = DEFAULT_TOL) -> PolarForm:
    """Classical polar decomposition T = U |T| with U a partial isometry.

    Parameters
    ----------
    t : array_like
        Rectangular complex matrix.
    tol : Tol
        Tolerance policy; rank_rel decides which singular directions
        belong to the (co)range.

    Returns
    -------
    PolarForm
        U is zero on the kernel of T, U*U is the projector onto the range
        of T*, and UU* is the projector onto the range of T.
    """
    f = _svd_factor(as_matrix(t))
    return PolarForm(U=f.power(0.0, f.rank(tol)), absT=f.abs_power("right"), alpha=1.0)


def gpolar(t, alpha: float, tol: Tol = DEFAULT_TOL) -> PolarForm:
    """Generalized polar factorization T = U |T|^alpha for alpha in (0, 1).

    The factor is U = U_polar |T|^(1-alpha), computed here from a single SVD
    so the gram and intertwining identities hold to working precision:

    * T = U |T|^alpha and T* = U* |T*|^alpha
    * U*U = |T|^(2(1-alpha)) and UU* = |T*|^(2(1-alpha))
    * U |T|^beta = |T*|^beta U for every beta > 0

    Raises
    ------
    AlphaOutOfRange
        If alpha is not strictly inside (0, 1).
    """
    if not isinstance(alpha, (int, float)) or not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    f = _svd_factor(as_matrix(t))
    return PolarForm(
        U=f.power(1.0 - alpha, f.rank(tol)),
        absT=f.abs_power("right"),
        alpha=float(alpha),
    )


def gpolar_iterative(t, alpha: float, n: int, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """n-th iterate U_n = T (I/n + T*T)^(-1/2) (T*T)^((1-alpha)/2).

    The iterates converge to the gpolar factor at rate O(1/n) on matrices
    with trivial kernel.  Rectangular inputs are handled by embedding T as
    the lower-left corner of a square operator on domain (+) codomain,
    running the same formula there, and extracting the lower-left block.

    Parameters
    ----------
    t : array_like
        Input matrix.
    alpha : float
        Interpolation exponent in (0, 1).
    n : int
        Iteration index, a Python or numpy integer >= 1 (a bool is not).

    Returns
    -------
    numpy.ndarray
        The iterate U_n, same shape as T.
    """
    if not isinstance(alpha, (int, float)) or not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    message = "iteration index must be an integer >= 1"
    n = _integer(n, message)
    if n < 1:
        raise ValueError(f"{message}, got {n!r}")
    m = as_matrix(t)
    k, p = m.shape
    if k == p:
        return _iterate_square(m, float(alpha), n)
    # square embedding: domain (+) codomain, T in the lower-left corner
    emb = np.zeros((p + k, p + k), dtype=np.complex128)
    emb[p:, :p] = m
    out = _iterate_square(emb, float(alpha), n)
    return np.ascontiguousarray(out[p:, :p])


def _iterate_square(m: np.ndarray, alpha: float, n: int) -> np.ndarray:
    gram = _herm(m.conj().T @ m)
    w, v = np.linalg.eigh(gram)
    w = np.maximum(w, 0.0)  # T*T is PSD; strip round-off negatives
    factor = (1.0 / n + w) ** -0.5 * w ** ((1.0 - alpha) / 2.0)
    return m @ ((v * factor) @ v.conj().T)


def v_operator(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Canonical half-power factor V with V*V = |T|, VV* = |T*|.

    V is the reduced solution of |T*|^(1/2) X = T; equivalently
    V = |T*|^(1/2) U_polar.  With one SVD T = W s Q* and r the rank under
    tol.rank_rel, all of these share T's singular vectors:

        V = W_r s_r^(1/2) Q_r*        U_polar = W_r Q_r*
        |T|^(1/2) = Q s^(1/2) Q*      |T*|^(1/2) = W s^(1/2) W*

    which is how :mod:`opshort.shorting` solves its four weak systems from
    one factor.  On PSD inputs V is the ordinary square root, and V agrees
    with the alpha = 1/2 gpolar factor.
    """
    f = _svd_factor(as_matrix(t))
    return f.power(0.5, f.rank(tol))
