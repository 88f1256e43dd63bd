"""Shared dense-matrix kernel: tolerance policy, Hermitian spectra, fractional
powers, absolute values, pseudo-inverses, range projectors, and the JSON
matrix file format.

All operators are dense double-precision numpy arrays, real or complex as
:func:`as_matrix` decides from the input's dtype, with finite entries.
``numpy.linalg`` picks the real or complex LAPACK driver from that dtype, and
every result keeps it by numpy promotion.

Every SVD and Hermitian eigendecomposition of the package is taken here, by
:func:`_svd_factor`, :func:`_svdvals` or :func:`_eigh`; each reads an exact direct sum
(nonzeros in diagonal blocks up to row and column permutations) by blocks (:func:`_blocks`).

Every function that makes a rank or positivity decision takes a :class:`Tol`
so the whole package shares one tolerance policy.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import NotFinite, NotHermitian, NotNumeric, NotPSD, ShapeMismatch

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

# operands whose smaller side reaches _SPLIT_FLOOR take the pattern pass (the measured
# crossover, BENCH_26.json "crossover"); it gives up after _SWEEPS label sweeps
_SPLIT_FLOOR, _SWEEPS = 128, 8


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
    float64 otherwise; entries that are not numbers (NotNumeric), then a NaN or
    inf (NotFinite), then anything not 2-D (ShapeMismatch), are rejected, each
    error naming the operand ``name``.  Every operand passes here, so this is
    the package's dtype decision; only the JSON reader decides by value."""
    m = np.asarray(a)
    if m.dtype == object:  # numbers held as objects: let numpy type them
        m = np.array(m.tolist()).reshape(m.shape)
    if m.dtype.kind in "USVMm":  # numpy would parse "1" as 1.0 or cast a date to a count
        raise NotNumeric(f"{name} has dtype {m.dtype}, not numbers")
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if not np.isfinite(m).all():
        raise NotFinite(f"{name}{np.argwhere(~np.isfinite(m))[0].tolist()} is not finite")
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def opnorm(a) -> float:
    """Operator 2-norm (largest singular value); 0 for empty and zero matrices.

    The input passes :func:`as_matrix`, so entries that are not numbers raise
    NotNumeric, NaN or inf NotFinite, and any operand that is not 2-D, empty or
    not, ShapeMismatch; the SVD reads an exact direct sum by blocks (:func:`_svdvals`)."""
    m = as_matrix(a)
    if not m.any():  # empty or all zeros
        return 0.0
    return float(_svdvals(m)[0])


def _blocks(m: np.ndarray, square: bool = False):
    """The pattern pass: the blocks of an exact direct sum ``m`` grouped by
    shape, as index arrays (rows, cols) of shapes (k, p) and (k, q), a line per
    block: the components of the graph where row i meets column j iff m[i, j]
    != 0 (and column i if ``square``: principal blocks).  None, always safe,
    means a side below ``_SPLIT_FLOOR``, one block (at once if row 0 has no
    zero, as dense operands have), or labels (spread by minimum
    along the entries, then jumped to their label's) still moving after
    ``_SWEEPS`` sweeps."""
    if m.ndim != 2 or min(m.shape) < _SPLIT_FLOOR or np.all(m[0] != 0):  # row 0 meets every column
        return None
    rows, cols = m.shape
    nonzero = m != 0  # one block if two steps from the first nonzero row reach every nonzero column
    seed = nonzero[np.argmax(nonzero.any(axis=1))]
    if np.array_equal(nonzero[(nonzero & seed).any(axis=1)].any(axis=0), nonzero.any(axis=0)):
        return None
    i, j = np.divmod(np.flatnonzero(nonzero), cols)
    diag = np.arange(rows if square else 0)
    ends = np.append(i, diag), np.append(j, diag) + rows  # column j is node rows + j
    to, fro, label = np.concatenate(ends), np.concatenate(ends[::-1]), np.arange(rows + cols)
    for _ in range(_SWEEPS):
        new = label.copy()
        np.minimum.at(new, to, label[fro])
        new = new[new]
        if np.all(new[i] == new[i[0]]):  # every entry's label is one node: one block
            return None
        if np.array_equal(new, label):
            break
        label = new
    else:
        return None
    lr, lc = label[:rows], label[rows:]
    p, q = (np.bincount(x, minlength=rows + cols) for x in (lr, lc))
    ro, co = np.argsort(lr, kind="stable"), np.argsort(lc, kind="stable")
    out = []
    for pk, qk in np.unique(np.stack((p, q), 1)[(p > 0) & (q > 0)], axis=0):
        k = (p == pk) & (q == qk)
        out.append((ro[k[lr[ro]]].reshape(-1, pk), co[k[lc[co]]].reshape(-1, qk)))
    return out


def _svdvals(m: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(m, compute_uv=False)``, an exact direct sum's from its blocks."""
    if (groups := _blocks(m)) is None:
        return np.linalg.svd(m, compute_uv=False)
    blocks = (m[r[:, :, None], c[:, None, :]] for r, c in groups)  # stacked, one shape each
    s = np.concatenate([np.linalg.svd(x, compute_uv=False).ravel() for x in blocks])
    return np.append(np.sort(s)[::-1], np.zeros(min(m.shape) - s.size))


def _eigh(h: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh(h)`` (``eigvalsh`` unless ``vectors``) of a Hermitian h,
    ascending, an exact direct sum's from its principal blocks."""
    if (groups := _blocks(h, square=True)) is None:
        return np.linalg.eigh(h) if vectors else np.linalg.eigvalsh(h)
    w, v = np.zeros(h.shape[0]), (np.eye(h.shape[0], dtype=h.dtype) if vectors else None)
    for r, _ in groups:
        ix = r[:, :, None], r[:, None, :]
        if vectors:
            w[r], v[ix] = np.linalg.eigh(h[ix])
        else:
            w[r] = np.linalg.eigvalsh(h[ix])
    order = np.argsort(w, kind="stable")
    return (w[order], v[:, order]) if vectors else w[order]


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


def _hermitian(m: np.ndarray, tol: Tol, name: str = "A", error: type = NotHermitian) -> np.ndarray:
    """The one Hermitian check: ``m``, coerced by :func:`as_matrix`, must be
    square with ||A - A*|| <= residual_rel * ||A||.  Returns the Hermitian
    part; failures raise ``error`` naming the operand ``name``."""
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
    w, v = _eigh(_hermitian(as_matrix(a, "A"), tol))
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


def _stacked(out: np.ndarray, rows: np.ndarray, blocks: np.ndarray, y: np.ndarray, cols: np.ndarray,
             scale=None):
    """out[rows[t]] = blocks[t] @ y[cols[t]] for each block t: a row gather of y, a
    stacked matmul and a scatter, in runs of blocks whose gathered rows and products
    together take at most a quarter of out's bytes, so the temporaries stay small
    beside the output.  ``scale`` = (ufunc, w) first takes each gathered row y[i]
    to ufunc(y[i], w[i]) in place."""
    per = (rows.shape[1] + cols.shape[1]) * y.shape[1] * out.itemsize
    step = max(1, out.nbytes // (4 * per) if per else rows.shape[0])
    for lo in range(0, rows.shape[0], step):
        part = slice(lo, lo + step)
        g = y[cols[part]]
        if scale is not None:
            scale[0](g, scale[1][cols[part]][..., None], out=g)
        out[rows[part]] = np.matmul(blocks[part], g)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``, an exact direct sum x's by its blocks (:func:`_blocks`) into one
    output whose rows outside every block are exactly zero; ``x @ y`` itself below
    the floor and for one block."""
    if (groups := _blocks(x)) is None:
        return x @ y
    out = np.empty((x.shape[0], y.shape[1]), np.result_type(x, y))
    hit = np.zeros(x.shape[0], bool)
    for r, c in groups:
        hit[r] = True
        _stacked(out, r, x[r[:, :, None], c[:, None, :]], y, c)
    out[~hit] = 0.0
    return out


@dataclass(frozen=True)
class _SVDFactor:
    """Compact SVD T = u diag(s) vh, taken once and read by every view.

    ``s`` is sorted descending.  Views that depend on the numerical range take
    the number r of leading singular triplets they keep, normally
    :meth:`rank`, so one factor serves every rank rule a caller applies.

    Every product with a side's singular vectors B_r (u_r on the "left", V_r =
    vh_r* on the "right") goes through :meth:`coords` (B_r* X) and :meth:`span`
    (B_r s_r^p Z).  A factor of an exact direct sum keeps, per side, its stacked
    block factors: ``split[side]`` is (place, blocks), with blocks a list of
    (index, b), a (k, p) index array and k stacked p x p factors, that covers
    the side's rows once (rows outside every block of T as 1 x 1 blocks of one).
    The side's square factor holds each b at its index's rows and columns, and
    its column j is the singular vector of triplet place[j] (place[j] at least
    min(T.shape) for none).  The products are then a row gather, a stacked
    matmul and a scatter per block shape (:func:`_stacked`) into the one output,
    and never read u or vh.
    """

    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    split: dict | None = field(default=None, repr=False, compare=False)

    def rank(self, tol: Tol) -> int:
        return _rank(self.s, tol)

    def _basis(self, side: str) -> np.ndarray:
        return self.vh.conj().T if side == "right" else self.u

    def coords(self, side: str, x: np.ndarray, r: int | None = None) -> np.ndarray:
        """B_r* X over the first r triplets, all of them by default."""
        if self.split is None:
            return self.vh[:r] @ x if side == "right" else self.u[:, :r].conj().T @ x
        place, blocks = self.split[side]
        r = self.s.size if r is None else r
        # the blocks with a column among the first r triplets; their columns past
        # them go to a row r that is cut off, and made only if there are any
        runs = [(index[kept], b[kept]) for index, b in blocks if (kept := (place[index] < r).any(axis=1)).any()]
        past = any((place[index] >= r).any() for index, _ in runs)
        out = np.empty((r + past, x.shape[1]), np.result_type(blocks[0][1], x))
        for index, b in runs:
            _stacked(out, np.minimum(place[index], r), b.conj().swapaxes(1, 2), x, index)
        return out[:r]

    def span(self, side: str, z: np.ndarray, p: float | None = None) -> np.ndarray:
        """B_r s_r^p Z over the first r = len(Z) triplets (B_r Z if p is None);
        a negative p divides by s_r^-p, as a solve does."""
        r, s = z.shape[0], self.s[: z.shape[0]]
        if self.split is None:
            b = self._basis(side)[:, :r]
            if p is not None:
                b = b * s**p if p >= 0 else b / s**-p
            return b @ z
        place, blocks = self.split[side]
        rows = (self.u if side == "left" else self.vh.T).shape[0]
        dtype = np.result_type(blocks[0][1], z)
        if r == 0:
            return np.zeros((rows, z.shape[1]), dtype)
        scale = None if p is None else (np.multiply, s**p) if p >= 0 else (np.divide, s**-p)
        out = np.empty((rows, z.shape[1]), dtype)
        for index, b in blocks:
            # block t's column c reads Z's row place[t, c] times s^p; rows past r read as zero
            at = place[index]
            _stacked(out, index, np.where((at < r)[:, None, :], b, 0.0), z, np.minimum(at, r - 1), scale)
        return out

    def power(self, a: float, r: int) -> np.ndarray:
        """u_r s_r^a vh_r: the polar factor at a = 0, V(T) at a = 1/2."""
        return self.span("left", self.vh[:r], a)

    def abs_power(self, side: str, p: float = 1.0, r: int | None = None) -> np.ndarray:
        """|T|^p ("right", on the domain) or |T*|^p ("left", on the codomain)
        over the first r singular triplets, all of them by default.  At p = 0
        with r the rank it is the range projector of T* ("right") or T ("left")."""
        return _herm(self.span(side, self._basis(side)[:, :r].conj().T, p))

    def pinv(self, r: int) -> np.ndarray:
        """vh_r* s_r^-1 u_r*: the pseudo-inverse when r is the rank."""
        return self.span("right", self.u[:, :r].conj().T, -1.0)


def _svd_factor(m: np.ndarray) -> _SVDFactor:
    """Compact SVD; u and vh keep ``m``'s dtype.  An exact direct sum takes a stacked
    full SVD per block shape (:func:`_blocks`), kept as the factor's ``split``; keys
    -sigma, ties broken by the pair's column, sort its triplets into place on both
    sides, and the zero singular values left pair leftover block vectors or unit
    vectors on zero rows and columns, as vh[r:] needs."""
    if (groups := _blocks(m)) is None:
        return _SVDFactor(*np.linalg.svd(m, full_matrices=False))
    u, vh = (np.eye(n, dtype=m.dtype) for n in m.shape)
    key = [np.full(n, np.inf) for n in m.shape]
    pair = [np.zeros(m.shape[0], int), np.arange(m.shape[1])]
    blocks = [], []
    for r, c in groups:
        pu, ps, pvh = np.linalg.svd(m[r[:, :, None], c[:, None, :]])
        u[r[:, :, None], r[:, None, :]], vh[c[:, :, None], c[:, None, :]] = pu, pvh
        blocks[0].append((r, pu))
        blocks[1].append((c, pvh.conj().swapaxes(1, 2)))
        t = ps.shape[1]
        key[0][r[:, :t]] = key[1][c[:, :t]] = -ps
        pair[0][r[:, :t]] = c[:, :t]
    order = [np.lexsort(keys)[: min(m.shape)] for keys in zip(pair, key)]
    split = {}
    for side, n, o, sided in zip(("left", "right"), m.shape, order, blocks):
        place = np.full(n, o.size)
        place[o] = np.arange(o.size)
        free = np.setdiff1d(np.arange(n), np.concatenate([index.ravel() for index, _ in sided]))
        if free.size:  # zero rows (columns) of m: 1 x 1 blocks of the square factor's identity
            sided.append((free[:, None], np.ones((free.size, 1, 1), m.dtype)))
        split[side] = place, sided
    return _SVDFactor(u[:, order[0]], np.maximum(-key[0][order[0]], 0.0), vh[order[1]], split)


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
    f = _svd_factor(as_matrix(t))
    return f.abs_power("left", 0.0, f.rank(tol))


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
    """Decode the package's JSON matrix object, validating shape and entries.

    Well-formed ``data`` -- every entry a list or tuple of two numbers whose
    types are exactly ``int`` or ``float`` -- is checked by whole-list type and
    length passes and converted by one numpy call, with no Python code per
    entry.  Anything else (a bool, string, ``None``, non-pair or nested entry,
    a numpy float scalar, an integer beyond the float range) falls back to
    :func:`_entries_to_complex`, which accepts numpy float scalars and names
    the first bad entry.  Either way a non-finite entry is rejected by index.
    """
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
    out = None
    # exact types, so bool (an int subclass) never takes the fast path
    if set(map(type, data)) <= {list, tuple} and set(map(len, data)) <= {2}:
        vals = list(chain.from_iterable(data))
        if set(map(type, vals)) <= {int, float}:
            try:
                out = np.array(vals, dtype=np.float64).view(np.complex128)
            except OverflowError:  # an integer literal beyond the float range
                pass
    if out is None:
        out = _entries_to_complex(data)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"data[{bad[0]}] is not finite")
    if not out.imag.any():
        out = np.ascontiguousarray(out.real)
    return out.reshape(rows, cols)


def _entries_to_complex(data) -> np.ndarray:
    """Per-entry decode of ``data`` for what the fast path of
    :func:`matrix_from_json_dict` does not take; raises on the first bad entry."""
    out = np.empty(len(data), dtype=np.complex128)
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
    return out


def save_matrix(path, a) -> None:
    """Write a matrix to ``path`` in the JSON file format (deterministic bytes)."""
    # a fresh dict of lists of floats holds no cycle to check for
    payload = json.dumps(
        matrix_to_json_dict(a), sort_keys=True, separators=(",", ":"), check_circular=False
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.write("\n")


# bytes of arrays that the process memo keeps for reuse: decoded files and PSD pairs
_LOAD_CACHE_BYTES = 4 * 2**20


def _digest(*parts) -> bytes:
    """SHA-256 of the concatenated parts (bytes, or arrays as their C-order bytes)."""
    import hashlib  # here: import opshort and file-free commands then skip its import cost

    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part) if isinstance(part, np.ndarray) else part)
    return h.digest()


def _arrays(x):
    """Every array that ``x`` holds, through tuples, lists, dict values and attributes."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, (tuple, list)):
        for y in x:
            yield from _arrays(y)
    elif isinstance(x, dict):
        for y in x.values():
            yield from _arrays(y)
    elif hasattr(x, "__dict__"):
        yield from _arrays(vars(x))


class _Memo:
    """The process memo: read-only results keyed on SHA-256 digests (:func:`_digest`),
    least recently used first, holding at most ``_LOAD_CACHE_BYTES`` of arrays,
    every array of an entry counted.  :func:`load_matrix` keeps decoded files here
    and ``parallel`` its PSD-pair analyses; a key's preimage starts with its kind."""

    def __init__(self):
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()  # key -> (value, nbytes)
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, key: bytes):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: bytes, value) -> None:
        """Keep ``value``, its arrays made read-only, in place of any entry under
        ``key``; a value larger than the whole budget is not kept."""
        held = list(_arrays(value))
        nbytes = sum(a.nbytes for a in held)
        if nbytes > _LOAD_CACHE_BYTES:
            return
        for a in held:
            a.setflags(write=False)
        with self._lock:
            old = self._entries.pop(key, None)
            self.nbytes += nbytes - (old[1] if old else 0)
            self._entries[key] = value, nbytes
            while self.nbytes > _LOAD_CACHE_BYTES:
                self.nbytes -= self._entries.popitem(last=False)[1][1]


_memo = _Memo()


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a JSON file written by :func:`save_matrix`.

    A file's text is decoded once per process: the decoded array is kept in
    the process memo (:class:`_Memo`), keyed on the SHA-256 of the text, so a
    file read again, or the same bytes under another path, reuse it.  A file
    rewritten with other bytes is decoded anew whatever its path or mtime.
    The memo keeps at most ``_LOAD_CACHE_BYTES`` (4 MiB) of arrays, decoded
    files and PSD-pair analyses together, least recently used evicted first;
    a larger array is not kept, nor is a file that fails to decode.  Each call
    returns a fresh, writeable array.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    key = _digest(b"file", text.encode("utf-8"))
    m = _memo.get(key)
    if m is None:
        m = matrix_from_json_dict(json.loads(text))
        _memo.put(key, m)
    return m.copy()
