"""Polar-type factorizations T = U |T|^alpha for rectangular complex matrices.

alpha = 1 is the classical polar decomposition with a partial isometry U.
For alpha in (0, 1) the factor U is no longer a partial isometry; instead it
satisfies the gram identities U*U = |T|^(2(1-alpha)) and UU* = |T*|^(2(1-alpha))
and intertwines the two absolute values, U |T|^beta = |T*|^beta U.  The
canonical factor V = |T*|^(1/2) U sits at the alpha = 1/2 interpolation point
and is the reduced solution of |T*|^(1/2) X = T.

:func:`polar_decompose` (alpha = 1), :func:`gpolar` (alpha in (0, 1)) and
:func:`v_operator` (alpha = 1/2, its U) are one construction: a single SVD
T = W s Q* gives U = W_r s_r^(1-alpha) Q_r* at the rank r under tol.rank_rel
and |T| = Q s Q*.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import AlphaOutOfRange
from .numkit import DEFAULT_TOL, Tol, _integer, _svd_factor, _SVDFactor, as_matrix

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


def _alpha(alpha) -> float:
    """The one alpha check: a Python or numpy real strictly inside (0, 1),
    as a float; bools (reals to Python) raise AlphaOutOfRange."""
    if isinstance(alpha, bool) or not isinstance(alpha, Real) or not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class PolarForm:
    """Factorization T = U |T|^alpha.

    ``U`` maps the domain of T to its codomain, vanishes on the kernel of T,
    and ``absT`` is the PSD absolute value |T| on the domain.
    """

    U: np.ndarray
    absT: np.ndarray
    alpha: float


def _polar(f: _SVDFactor, alpha: float, tol: Tol) -> PolarForm:
    """T = U |T|^alpha read from T's factor f; alpha is already checked."""
    return PolarForm(U=f.power(1.0 - alpha, f.rank(tol)), absT=f.abs_power("right"), alpha=alpha)


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
    return _polar(_svd_factor(as_matrix(t)), 1.0, tol)


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
    alpha = _alpha(alpha)
    return _polar(_svd_factor(as_matrix(t)), alpha, tol)


def gpolar_iterative(t, alpha: float, n: int) -> np.ndarray:
    """n-th iterate U_n = T (I/n + T*T)^(-1/2) (T*T)^((1-alpha)/2).

    The iterates converge to the gpolar factor at rate O(1/n) on matrices
    with trivial kernel.  With one SVD T = W s Q* the iterate is
    U_n = W diag(s (1/n + s^2)^(-1/2) s^(1-alpha)) Q*, read from s without
    forming T*T, which would square T's condition; rectangular T needs no
    special handling.

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
    alpha = _alpha(alpha)
    message = "iteration index must be an integer >= 1"
    n = _integer(n, message)
    if n < 1:
        raise ValueError(f"{message}, got {n!r}")
    return _iterate(_svd_factor(as_matrix(t)), alpha, n)


def _iterate(f: _SVDFactor, alpha: float, n: int) -> np.ndarray:
    """:func:`gpolar_iterative`'s U_n read from T's factor f; alpha and n are
    already checked."""
    s = f.s
    return f.span("left", f.vh * (s * (1.0 / n + s**2) ** -0.5 * s ** (1.0 - alpha))[:, None])


def v_operator(t, tol: Tol = DEFAULT_TOL) -> np.ndarray:
    """Canonical half-power factor V with V*V = |T|, VV* = |T*|.

    V is the reduced solution of |T*|^(1/2) X = T; equivalently
    V = |T*|^(1/2) U_polar.  With one SVD T = W s Q* and r the rank under
    tol.rank_rel, all of these share T's singular vectors:

        V = W_r s_r^(1/2) Q_r*        U_polar = W_r Q_r*
        |T|^(1/2) = Q s^(1/2) Q*      |T*|^(1/2) = W s^(1/2) W*

    which is how :mod:`opshort.shorting` solves its four weak systems from
    one factor.  On PSD inputs V is the ordinary square root.  V is the
    alpha = 1/2 case of the construction whose alpha = 1 case is
    :func:`polar_decompose` and whose alpha in (0, 1) cases are :func:`gpolar`.
    """
    return _polar(_svd_factor(as_matrix(t)), 0.5, tol).U
