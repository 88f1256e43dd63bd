"""Block partitions of an operator relative to a pair of closed subspaces,
complementability tests, and the bilateral shorted operator.

Given T mapping H -> K, a subspace M of H, and a subspace N of K (both handed
in as orthogonal projectors), the 2x2 partition stores the four compressions

    T11 : M -> N        T12 : M_perp -> N
    T21 : M -> N_perp   T22 : M_perp -> N_perp

in coordinates of orthonormal bases that the subspaces do not determine
(see :class:`BlockOperator`); the ambient objects built from the corners
do not depend on that choice.  The pair (M, N) is complementable when both
T22 X = T21 and T22* Y = T12* are solvable; it is weakly complementable
when four half-power systems admit reduced solutions:

    1.  V(T22)    Y1 = T21          -> E
    2.  |T22|^(1/2)  Y2 = T12*      -> F
    3.  |T22*|^(1/2) Z1 = T21       -> Etilde
    4.  V(T22)*   Z2 = T12*         -> Ftilde

with V(T22) the canonical half-power factor of T22.  The bilateral shorted
operator is then T11 - (F* E + Ftilde* Etilde) / 2 embedded back into the
ambient spaces; the two cross products agree, which :func:`shorted` verifies
rather than assumes.

One SVD serves all six systems.  With T22 = W s V* (computed once per
partition and kept on the :class:`BlockOperator`; an exact direct sum's
factor applies W and V by its blocks), V(T22) = W s^(1/2) V*,
|T22|^(1/2) = V s^(1/2) V* and |T22*|^(1/2) = W s^(1/2) W*, so every
reduced solution has a closed form over the first r singular triplets:

    E      = V_r s_r^(-1/2) W_r* T21      C = V_r s_r^(-1) W_r* T21
    F      = V_r s_r^(-1/2) V_r* T12*     D = W_r s_r^(-1) V_r* T12*
    Etilde = W_r s_r^(-1/2) W_r* T21
    Ftilde = W_r s_r^(-1/2) V_r* T12*

and each system is solvable iff its right-hand side lies in R(W_r) (T21)
or R(V_r) (T12*).  Applying a weak system's operator to its solution
gives W_r W_r* T21 or V_r V_r* T12*, so the four weak residuals are the
four inclusion margins of their (side, rank), computed on read.  Two rules
on s fix r.  Both keep only sigma_i > rank_rel * max(sigma_1, ||T21||, ||T12||),
so a T22 that is pure round-off next to the corners it meets has rank 0:

* systems 1 and 4 and both strong systems need nothing more;
* systems 2 and 3 also keep only sigma_i > eig_clamp_rel * sigma_1, the
  rank of the square root of |T22| (or |T22*|) once psd_power has clamped
  its eigenvalues relative to its own top one.

A projector that is an exact 0/1 diagonal has coordinate columns as bases,
so its corners are gathered as sub-blocks of T and its lifts scattered,
equal in value to the products; the sign of an exact zero follows T.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .douglas import RangeInclusion, _inclusion
from .errors import (
    InternalInvariantViolation,
    NotAProjector,
    NotWeaklyComplementable,
    ShapeMismatch,
    WitnessInvalid,
)
from .numkit import (
    _BAND,
    DEFAULT_TOL,
    Tol,
    _angle_factors,
    _eigh,
    _herm,
    _norm_within,
    _product,
    _rank,
    _svd_factor,
    _SVDFactor,
    as_matrix,
    opnorm,
)

__all__ = [
    "BlockOperator",
    "Complementability",
    "WeakComplementData",
    "ShortedResult",
    "RangeKernelReport",
    "check_projector",
    "partition",
    "is_complementable",
    "complementable_idempotents",
    "weak_complement_data",
    "shorted",
    "verify_range_kernel",
]


def _validated_projector_eig(m: np.ndarray, tol: Tol):
    """Validate a square nonempty projector candidate; return its
    eigenvectors in eigh's ascending order, eigenvalue 1 last, and its rank.

    ||P - P*|| and ||P^2 - P|| must lie within eig_clamp_rel, the bound the
    stray-eigenvalue test reads; :func:`numkit._norm_within` settles both.
    """
    bound = tol.eig_clamp_rel
    for name, gap in (("||P - P*||", m - m.conj().T), ("||P^2 - P||", m @ m - m)):
        if not _norm_within(gap, bound):
            raise NotAProjector(f"{name} = {opnorm(gap):.3e} exceeds {bound}")
    w, v = _eigh(_herm(m))
    stray = float(np.minimum(np.abs(w), np.abs(w - 1.0)).max())
    if stray > bound:
        raise NotAProjector(
            f"projector eigenvalues stray {stray:.3e} from {{0, 1}}, beyond "
            f"eig_clamp_rel = {bound:.1e}"
        )
    return v, int(np.count_nonzero(w > 0.5))


def check_projector(p, tol: Tol = DEFAULT_TOL) -> int:
    """Validate an orthogonal projector and return its rank.

    Requires ||P - P*||, ||P^2 - P|| and every eigenvalue's distance from
    {0, 1} at most tol.eig_clamp_rel (1e-10 at the default Tol).
    Near-degenerate projectors are rejected, never rounded into shape.
    """
    return _projector_bases(as_matrix(p, "projector"), tol)[0].shape[1]


def _coordinate_columns(n: int, rows: np.ndarray) -> np.ndarray:
    """The columns e_i, i in ``rows``, of the n x n identity, in that order."""
    out = np.zeros((n, rows.size))
    out[rows, np.arange(rows.size)] = 1.0
    return out


def _coordinate_projector(n: int, k: int) -> np.ndarray:
    """The n x n projector onto the first k coordinates, an exact 0/1 diagonal."""
    p = np.zeros((n, n))
    p[np.arange(k), np.arange(k)] = 1.0
    return p


def _projector_bases(m: np.ndarray, tol: Tol):
    """Orthonormal bases (range, kernel) of a validated, coerced projector,
    C-contiguous, and the coordinates (range, kernel) they pick when they are
    coordinate columns, else None.  Only their spans are fixed by the projector."""
    if m.shape[0] != m.shape[1]:
        raise NotAProjector(f"projector must be square, got shape {m.shape}")
    diag = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diag) and np.all(
        (diag == 0.0) | (diag == 1.0)
    ):
        # an exact 0/1 diagonal (0 x 0 included) is exactly a projector; its bases
        # are the coordinate columns in ascending order
        n = m.shape[0]
        index = (np.flatnonzero(diag == 1.0), np.flatnonzero(diag == 0.0))
        return _coordinate_columns(n, index[0]), _coordinate_columns(n, index[1]), index
    vecs, rank = _validated_projector_eig(m, tol)
    k = vecs.shape[1] - rank
    return np.ascontiguousarray(vecs[:, k:]), np.ascontiguousarray(vecs[:, :k]), None


def _embed(out: np.ndarray, rows: np.ndarray, cols: np.ndarray, coordinates, x: np.ndarray) -> None:
    """Add rows @ x @ cols* to ``out``, in place at the ``coordinates`` (rows, cols)
    that coordinate-column bases pick."""
    if coordinates is None:
        out += rows @ x @ cols.conj().T
    else:
        out[np.ix_(*coordinates)] += x


@dataclass(frozen=True)
class BlockOperator:
    """2x2 partition of T relative to projectors PM (domain) and PN (codomain).

    The corner blocks are stored in coordinates of the orthonormal basis
    columns ``basis_m``, ``basis_m_perp``, ``basis_n``, ``basis_n_perp``;
    conjugating the block matrix back by these bases reproduces T.  They are
    the coordinate columns in ascending order for an exact 0/1 diagonal, else
    the projector's eigenvectors as :func:`numkit._eigh` returns them; only
    their spans, and so only the corners' singular values, are basis-free.
    ``index_m`` (``index_n``) holds the coordinates that the domain's
    (codomain's) bases pick when they are coordinate columns, else None;
    corners and lifts are then gathered and scattered (module docstring).
    The projectors themselves are not kept: the bases span their ranges.
    """

    T: np.ndarray
    basis_m: np.ndarray
    basis_m_perp: np.ndarray
    basis_n: np.ndarray
    basis_n_perp: np.ndarray
    T11: np.ndarray
    T12: np.ndarray
    T21: np.ndarray
    T22: np.ndarray
    index_m: tuple | None = None
    index_n: tuple | None = None

    @property
    def dim_m(self) -> int:
        return self.basis_m.shape[1]

    @property
    def dim_n(self) -> int:
        return self.basis_n.shape[1]

    def lift(self, x11=None, x12=None, x21=None, x22=None) -> np.ndarray:
        """Ambient domain -> codomain matrix from block pieces (None = 0): the
        sum of rows[i] @ x_ij @ cols[j]* over the pieces given, with rows the
        (N, N_perp) and cols the (M, M_perp) bases; with both sides' coordinate
        indices each x_ij is added in place.  The result has the result type
        of the bases and the pieces."""
        rows = (self.basis_n, self.basis_n_perp)
        cols = (self.basis_m, self.basis_m_perp)
        pieces = [
            (as_matrix(x, "block piece"), i, j)
            for x, i, j in ((x11, 0, 0), (x12, 0, 1), (x21, 1, 0), (x22, 1, 1))
            if x is not None
        ]
        dtype = np.result_type(*rows, *cols, *(xm for xm, _, _ in pieces))
        out = np.zeros((rows[0].shape[0], cols[0].shape[0]), dtype=dtype)
        for xm, i, j in pieces:
            if xm.shape != (rows[i].shape[1], cols[j].shape[1]):
                raise ShapeMismatch(
                    f"block piece has shape {xm.shape}, expected "
                    f"{(rows[i].shape[1], cols[j].shape[1])}"
                )
            _embed(out, rows[i], cols[j], self._coordinates(i, j), xm)
        return out

    def _coordinates(self, i: int, j: int):
        """The coordinates (rows, cols) that piece (i, j)'s bases pick, or None."""
        if self.index_n is None or self.index_m is None:
            return None
        return self.index_n[i], self.index_m[j]

    def reassembled(self) -> np.ndarray:
        """T rebuilt from its four corners; equals T to working precision."""
        return self.lift(self.T11, self.T12, self.T21, self.T22)

    @cached_property
    def _t22(self) -> _SVDFactor:
        """The one SVD T22 = W s V* that every corner system reads."""
        return _svd_factor(self.T22)

    @cached_property
    def _t21_norm(self) -> float:
        """||T21||, unless a caller that knows it has seeded it."""
        return opnorm(self.T21)

    @cached_property
    def _sides(self):
        """The two sides of T22 = W s V* as (side of the factor, right-hand side C,
        ||C||, B* C with B its singular vectors): ("left", T21, ...) with B = W on
        N_perp and ("right", T12*, ...) with B = V on M_perp."""
        f = self._t22
        t12s = self.T12.conj().T
        n21 = self._t21_norm
        # one norm for equal values: T12* = T21 if T = T* exactly, PM = PN, gathered
        n12 = n21 if np.array_equal(t12s, self.T21) else opnorm(t12s)
        return (
            ("left", self.T21, n21, f.coords("left", self.T21)),
            ("right", t12s, n12, f.coords("right", t12s)),
        )

    @cached_property
    def _verdicts(self) -> dict:
        """Inclusion verdicts by (side, rank, Tol); see :func:`_inclusion_at`."""
        return {}


def partition(t, pm, pn, tol: Tol = DEFAULT_TOL) -> BlockOperator:
    """Partition T into the four compressions induced by (M, N).

    Parameters
    ----------
    t : array_like, shape (k, n)
        The operator, domain dimension n, codomain dimension k.
    pm : array_like, shape (n, n)
        Orthogonal projector onto M in the domain.
    pn : array_like, shape (k, k)
        Orthogonal projector onto N in the codomain.
    tol : Tol

    Raises
    ------
    NotAProjector
        If pm or pn fails the projector checks.
    ShapeMismatch
        If the projector shapes do not match T's domain/codomain.
    """
    tm = as_matrix(t, "T")
    pmm = as_matrix(pm, "PM")
    pnn = pmm if pn is pm else as_matrix(pn, "PN")
    k, n = tm.shape
    if pmm.shape != (n, n):
        raise ShapeMismatch(f"PM must be {n}x{n} on the domain, got {pmm.shape}")
    if pnn.shape != (k, k):
        raise ShapeMismatch(f"PN must be {k}x{k} on the codomain, got {pnn.shape}")
    bm, bmp, im = _projector_bases(pmm, tol)
    if np.array_equal(pnn, pmm):
        bn, bnp, in_ = bm, bmp, im
    else:
        bn, bnp, in_ = _projector_bases(pnn, tol)
    if im is not None and in_ is not None:
        # coordinate columns: each corner is a sub-block of T
        t11, t12, t21, t22 = (tm[np.ix_(rows, cols)] for rows in in_ for cols in im)
    else:
        nt = bn.conj().T @ tm
        npt = bnp.conj().T @ tm
        t11, t12, t21, t22 = nt @ bm, nt @ bmp, npt @ bm, npt @ bmp
    return BlockOperator(
        T=tm,
        basis_m=bm,
        basis_m_perp=bmp,
        basis_n=bn,
        basis_n_perp=bnp,
        T11=t11,
        T12=t12,
        T21=t21,
        T22=t22,
        index_m=im,
        index_n=in_,
    )


@dataclass(frozen=True)
class Complementability:
    """Verdict of the two-system complementability test.

    ``C`` solves T22 C = T21 and ``D`` solves T22* D = T12*, both reduced;
    a witness is None when its system is unsolvable.  ``margins`` holds the
    two range-inclusion margins in system order, computed on first read.
    """

    complementable: bool
    C: np.ndarray | None
    D: np.ndarray | None
    _verdicts: tuple[RangeInclusion, RangeInclusion] = field(repr=False, compare=False)

    @property
    def margins(self) -> tuple[float, float]:
        return tuple(v.margin for v in self._verdicts)


def _ranks(block: BlockOperator, tol: Tol) -> tuple[int, int]:
    """Ranks of rule 0 (sigma_i > rank_rel * scale, scale = max(sigma_1,
    ||T21||, ||T12||)) and rule 1, which also cuts at eig_clamp_rel * sigma_1
    as psd_power's clamp does; the square root's own rank cutoff lies below
    that clamp for every Tol."""
    s = block._t22.s
    top = float(s[0]) if s.size else 0.0
    scale = max(top, block._sides[0][2], block._sides[1][2])
    half = max(tol.eig_clamp_rel * top, tol.rank_rel * scale)
    return _rank(s, tol, scale), int(np.count_nonzero(s > half))


def _inclusion_at(block: BlockOperator, side: int, r: int, tol: Tol) -> RangeInclusion:
    """Verdict on T21 in R(W_r) (side 0) or T12* in R(V_r) (side 1).

    Every system with that right-hand side and rank shares it, so each
    margin is computed once per block.
    """
    key = (side, r, tol)
    if key not in block._verdicts:
        name, c, c_norm, coords = block._sides[side]
        block._verdicts[key] = _inclusion(block._t22.span(name, coords[:r]), c, c_norm, tol)
    return block._verdicts[key]


# (right-hand side, solution side, exponent a, rank rule) of each corner
# system (B_rhs,r s_r^a B_out,r*) X = C_rhs, with B_0 = W, C_0 = T21,
# B_1 = V, C_1 = T12* and r from rule 0 or 1 of _ranks
_CORNER_SYSTEMS = (
    (0, 1, 0.5, 0),  # 1. V(T22) Y1 = T21
    (1, 1, 0.5, 1),  # 2. |T22|^(1/2) Y2 = T12*
    (0, 0, 0.5, 1),  # 3. |T22*|^(1/2) Z1 = T21
    (1, 0, 0.5, 0),  # 4. V(T22)* Z2 = T12*
    (0, 1, 1.0, 0),  # T22 X = T21
    (1, 0, 1.0, 0),  # T22* Y = T12*
)


def _solve_corners(block: BlockOperator, systems, tol: Tol):
    """(closed form B_out,r s_r^(-a) B_rhs,r* C_rhs, inclusion verdict) of
    each row of ``systems``; the solution is a least-squares candidate when
    the verdict excludes C_rhs from R(B_rhs,r)."""
    ranks = _ranks(block, tol)
    out = []
    for rhs, side, a, rule in systems:
        r = ranks[rule]
        solution = block._t22.span(block._sides[side][0], block._sides[rhs][3][:r], -a)
        out.append((solution, _inclusion_at(block, rhs, r, tol)))
    return out


def is_complementable(block: BlockOperator, tol: Tol = DEFAULT_TOL) -> Complementability:
    """Decide (M, N)-complementability and return the canonical witnesses."""
    (c, to_c), (d, to_d) = _solve_corners(block, _CORNER_SYSTEMS[4:], tol)
    return Complementability(
        complementable=to_c.included and to_d.included,
        C=c if to_c.included else None,
        D=d if to_d.included else None,
        _verdicts=(to_c, to_d),
    )


def complementable_idempotents(block: BlockOperator, c, d, tol: Tol = DEFAULT_TOL):
    """Idempotent witnesses (P, Q) of complementability, in ambient coordinates.

    P acts on the domain with range M along a complement adapted to T;
    Q acts on the codomain with range N.  Together they satisfy
    R(P*) = M, R(TP) <= N, R(Q) = N, R((QT)*) <= M.

    Raises
    ------
    WitnessInvalid
        If C or D fails its defining equation beyond residual_rel.
    """
    cm = as_matrix(c, "C")
    dm = as_matrix(d, "D")
    dim_m = block.dim_m
    dim_mp = block.basis_m_perp.shape[1]
    dim_n = block.dim_n
    dim_np = block.basis_n_perp.shape[1]
    if cm.shape != (dim_mp, dim_m):
        raise ShapeMismatch(f"C must be {dim_mp}x{dim_m}, got {cm.shape}")
    if dm.shape != (dim_np, dim_n):
        raise ShapeMismatch(f"D must be {dim_np}x{dim_n}, got {dm.shape}")
    for name, equation, gap, rhs in (
        ("C", "T22 C = T21", block.T22 @ cm - block.T21, block.T21),
        ("D", "T22* D = T12*", block.T22.conj().T @ dm - block.T12.conj().T, block.T12),
    ):
        if not _norm_within(gap, tol.residual_rel, rhs):
            residual = opnorm(gap) / max(opnorm(rhs), 1.0)
            raise WitnessInvalid(f"{name} fails {equation} with residual {residual:.3e}")
    # P = [[I, 0], [-C, 0]] and Q = [[I, -D*], [0, 0]] in the blocks' bases
    bm, bn = block.basis_m, block.basis_n
    p = (bm - block.basis_m_perp @ cm) @ bm.conj().T
    q = bn @ (bn - block.basis_n_perp @ dm).conj().T
    return p, q


@dataclass(frozen=True)
class WeakComplementData:
    """Reduced solutions of the four weak-complementability systems.

    Order: 1 -> E, 2 -> F, 3 -> Etilde, 4 -> Ftilde (see module docstring).
    When a system is unsolvable its slot holds the least-squares candidate
    and the matching ``solvable`` flag is False; ``residuals`` always holds
    the four inclusion margins, each system's relative equation residual
    in exact arithmetic, computed on first read.
    """

    E: np.ndarray
    F: np.ndarray
    Etilde: np.ndarray
    Ftilde: np.ndarray
    solvable: tuple[bool, bool, bool, bool]
    _verdicts: tuple[RangeInclusion, ...] = field(repr=False, compare=False)

    @property
    def residuals(self) -> tuple[float, float, float, float]:
        return tuple(v.margin for v in self._verdicts)


def weak_complement_data(block: BlockOperator, tol: Tol = DEFAULT_TOL) -> WeakComplementData:
    """Solve the four half-power systems attached to the partition."""
    solutions, verdicts = zip(*_solve_corners(block, _CORNER_SYSTEMS[:4], tol))
    return WeakComplementData(
        *solutions,
        solvable=tuple(v.included for v in verdicts),
        _verdicts=verdicts,
    )


@dataclass(frozen=True)
class ShortedResult:
    """Bilateral shorted operator of a partition.

    ``core`` is the M -> N block T11 - (F* E + Ftilde* Etilde) / 2 in the
    block's bases ``basis_n`` x ``basis_m``, as the witnesses are in its bases;
    ``shorted`` is its basis-free embedding into ambient coordinates, so
    PN @ shorted @ PM == shorted.  ``shorted`` and ``cross_gap`` =
    ||F* E - Ftilde* Etilde|| are computed on first read; ``mode`` is always
    "complementable" (see :func:`shorted`).
    """

    core: np.ndarray
    witnesses: WeakComplementData
    _cross: np.ndarray = field(repr=False, compare=False)  # F* E - Ftilde* Etilde
    # the block's bases of N and M and the coordinates they pick: what BlockOperator.lift
    # reads to embed an M -> N piece, without holding the whole partition; None once read
    _frame: tuple | None = field(repr=False, compare=False)
    mode: ClassVar[str] = "complementable"

    @cached_property
    def shorted(self) -> np.ndarray:
        rows, cols, coordinates = self._frame
        out = np.zeros((rows.shape[0], cols.shape[0]), np.result_type(rows, cols, self.core))
        _embed(out, rows, cols, coordinates, self.core)
        self.__dict__["_frame"] = None  # as cached_property stores: the bases are not held twice
        return out

    @cached_property
    def cross_gap(self) -> float:
        return opnorm(self._cross)


def shorted(block: BlockOperator, tol: Tol = DEFAULT_TOL) -> ShortedResult:
    """Bilateral shorted operator of T relative to (M, N).

    Uses the averaged core (F* E + Ftilde* Etilde) / 2 and verifies that the
    two cross products agree, instead of silently trusting either one.  In
    finite dimension ``mode`` is always "complementable": systems 1 and 4
    have the strong systems' right-hand sides, rank and bases, so a result
    that is returned has both strong systems solvable.

    Raises
    ------
    NotWeaklyComplementable
        If any of the four systems is unsolvable (the data attached).
    InternalInvariantViolation
        If the two cross products disagree beyond residual_rel / _BAND
        * max(||T||, 1), 1e-9 * max(||T||, 1) at the default Tol.
    """
    data = weak_complement_data(block, tol)
    if not all(data.solvable):
        raise NotWeaklyComplementable(data)
    fe = _product(data.F.conj().T, data.E)
    fte = _product(data.Ftilde.conj().T, data.Etilde)
    cross = fe - fte
    rel = tol.residual_rel / _BAND
    if not _norm_within(cross, rel, block.T):
        raise InternalInvariantViolation(
            f"cross products F*E and Ftilde*Etilde disagree by {opnorm(cross):.3e} "
            f"(bound {rel * max(opnorm(block.T), 1.0):.3e})"
        )
    core = block.T11 - 0.5 * (fe + fte)
    frame = block.basis_n, block.basis_m, block._coordinates(0, 0)
    return ShortedResult(core=core, witnesses=data, _cross=cross, _frame=frame)


@dataclass(frozen=True)
class RangeKernelReport:
    """Rank bookkeeping for the shorted operator.

    range_equal tests R(shorted) = R(T) intersect N and kernel_equal tests
    N(shorted) = M_perp + N(T); for a complementable pair these are the exact
    statements, and in finite dimension the weak case collapses to the same
    equalities (the sandwich's two ends coincide).
    """

    rank_T: int
    rank_shorted: int
    rank_range_intersection: int
    rank_kernel_shorted: int
    rank_kernel_sum: int
    range_equal: bool
    kernel_equal: bool


# angle threshold for declaring two equal-rank subspaces identical; sits far
# above round-off (~1e-11 on clean instances, from the SVDs and not moved by
# residual_rel, so no Tol value) and far below any honest angle
_SUBSPACE_GAP = 1e-6


def _same_subspace(b1: np.ndarray, b2: np.ndarray) -> bool:
    # for orthonormal bases of equal dimension, ||B2 - B1 (B1* B2)|| = ||P1 - P2||
    return b1.shape[1] == b2.shape[1] and _norm_within(_angle_factors(b1, b2)[1], _SUBSPACE_GAP)


def _meet(q: np.ndarray, basis: np.ndarray, tol: Tol) -> np.ndarray:
    """Orthonormal basis of R(q) intersect R(basis), both bases orthonormal:
    q times the nullspace of the sine factor q - basis (basis* q).  That
    factor is tall, so its thin SVD holds the whole nullspace.  Its norm is
    at most 1, so the cutoff scale is 1: a factor that is pure round-off
    (R(q) inside R(basis)) keeps all of R(q).  Its columns lie in R(basis)_perp,
    so at most dim R(basis)_perp of its singular values are nonzero; the rest
    are round-off at any rank_rel and are not ranked."""
    f = _svd_factor(_angle_factors(basis, q)[1])
    return q @ f.vh[_rank(f.s[: q.shape[0] - basis.shape[1]], tol, 1.0) :].conj().T


def verify_range_kernel(
    block: BlockOperator, result: ShortedResult, tol: Tol = DEFAULT_TOL
) -> RangeKernelReport:
    """Check the range and kernel identities of the shorted operator S.

    Ranks are numerical ranks under tol.rank_rel.  The kernel identity
    N(S) = M_perp + N(T) is checked in its complement form
    R(S*) = R(T*) intersect M, so both identities are one intersection rule
    (:func:`_meet`) on the singular vectors of T and S, never built from
    n x n projectors or a stacked basis.
    """
    t = _svd_factor(block.T)
    rank_t = t.rank(tol)
    # the shorted operator's rank is anchored to the scale of T, not to its
    # own top singular value: a shorted operator that is pure round-off dirt
    # must report rank 0, not the rank of its noise
    s = _svd_factor(result.shorted)
    rank_short = _rank(s.s, tol, float(max(t.s.max(initial=0.0), s.s.max(initial=0.0))))
    inter = _meet(t.u[:, :rank_t], block.basis_n, tol)
    co_inter = _meet(t.vh[:rank_t].conj().T, block.basis_m, tol)
    n = block.T.shape[1]
    return RangeKernelReport(
        rank_T=rank_t,
        rank_shorted=rank_short,
        rank_range_intersection=inter.shape[1],
        rank_kernel_shorted=n - rank_short,
        rank_kernel_sum=n - co_inter.shape[1],
        range_equal=_same_subspace(inter, s.u[:, :rank_short]),
        kernel_equal=_same_subspace(co_inter, s.vh[:rank_short].conj().T),
    )
