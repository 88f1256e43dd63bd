"""Finite truncation lab: a family of PSD pairs whose parallel sum vanishes
identically while every solution object blows up with the dimension.

The d-th kit truncates a weighted-shift construction to d modes with weights
t_i = 1/i.  With S = diag(t) it carries

    A0 = [[I, S], [S, S^2]]      (rank d, range increasingly tangent to B0's)
    B0 = [[I, 0], [0, 0]]        (rank d, the first-coordinate corner)

plus closed forms for (A0 + B0)^(1/2), for the unique solution X of
(A0 + B0)^(1/2) X = B0 (which has norm exactly 1 at every d), and for the
4d x 4d block operator [[B0, B0], [B0, A0 + B0]] whose shorted corner is
A0 : B0 = 0.  Meanwhile the plain strong solution of (A0 + B0) X = B0 has
norm sqrt(1 + d^2), and cond(A0 + B0) grows like d^2: divergence you can
plot, against identities that stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantViolation
from .numkit import (
    _BAND, DEFAULT_TOL, Tol, _angle_factors, _integer, _norm_within, opnorm, psd_power, range_basis
)
from .parallel import _parallel_core, _psd_pair
from .shorting import (
    _CORNER_SYSTEMS, _coordinate_columns, _coordinate_projector, _solve_corners, partition, shorted
)

__all__ = [
    "CounterexampleKit",
    "SweepRow",
    "CSV_COLUMNS",
    "DEFAULT_SWEEP_DIMS",
    "make_kit",
    "sqrt_a0_closed_form",
    "kit_block_projector",
    "divergence_sweep",
    "sweep_to_csv",
    "verify_closed_forms",
    "ClosedFormReport",
]

DEFAULT_SWEEP_DIMS = (8, 16, 32, 64, 128, 256)
# make_kit takes no Tol; its identities hold to ~1e-15, so only a wrong
# closed form comes near this bound
_CLOSED_FORM_BOUND = 1e-10

CSV_COLUMNS = (
    "d",
    "norm_strong_solution",
    "norm_weak_solutions",
    "norm_parallel_sum",
    "shorted_norm",
    "cond_ApB",
    "min_principal_angle",
)


@dataclass(frozen=True)
class CounterexampleKit:
    """All matrices of the d-mode truncation (see module docstring)."""

    d: int
    S: np.ndarray
    A0: np.ndarray
    B0: np.ndarray
    sqrtAB: np.ndarray
    Xunique: np.ndarray
    bigT: np.ndarray


def _weights(d: int) -> np.ndarray:
    return 1.0 / np.arange(1, d + 1, dtype=np.float64)


def _f(t: np.ndarray) -> np.ndarray:
    # per-mode normalizer of the closed-form square root
    return np.sqrt(t * t + 2.0 * t + 2.0)


def make_kit(d: int) -> CounterexampleKit:
    """Build the d-mode kit and fail fast if a closed form is off.

    Parameters
    ----------
    d : int
        Number of modes, d >= 1.

    Raises
    ------
    ValueError
        If d is not a Python or numpy integer >= 1 (bools and floats are not).
    InternalInvariantViolation
        If sqrtAB^2 != A0 + B0 or sqrtAB @ Xunique != B0 beyond 1e-10;
        every sweep metric silently depends on these two identities.
    """
    d = _integer(d)
    if d < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    t = _weights(d)
    eye = np.eye(d)
    zero = np.zeros((d, d))
    s_mat = np.diag(t)
    a0 = np.block([[eye, s_mat], [s_mat, np.diag(t * t)]])
    b0 = np.block([[eye, zero], [zero, zero]])
    f = _f(t)
    sqrt_ab = np.block(
        [
            [np.diag((t + 2.0) / f), np.diag(t / f)],
            [np.diag(t / f), np.diag(t * (t + 1.0) / f)],
        ]
    )
    x_unique = np.block([[np.diag((t + 1.0) / f), zero], [np.diag(-1.0 / f), zero]])
    apb = a0 + b0
    big_t = np.block([[b0, b0], [b0, apb]])

    for name, gap, scale, floor in (
        ("square root", sqrt_ab @ sqrt_ab - apb, apb, 0.0),
        ("unique solution", sqrt_ab @ x_unique - b0, 0.0, 1.0),
    ):
        if not _norm_within(gap, _CLOSED_FORM_BOUND, scale, floor):
            raise InternalInvariantViolation(
                f"closed-form {name} off by {opnorm(gap):.3e} at d={d}"
            )
    return CounterexampleKit(
        d=d, S=s_mat, A0=a0, B0=b0, sqrtAB=sqrt_ab, Xunique=x_unique, bigT=big_t
    )


def sqrt_a0_closed_form(d: int) -> np.ndarray:
    """Closed form of A0^(1/2): per mode, [[1, t], [t, t^2]] / sqrt(1 + t^2)."""
    t = _weights(d)
    g = 1.0 / np.sqrt(1.0 + t * t)
    return np.block(
        [[np.diag(g), np.diag(g * t)], [np.diag(g * t), np.diag(g * t * t)]]
    )


def kit_block_projector(d: int) -> np.ndarray:
    """Projector onto the first 2d of 4d coordinates (the M = N corner of bigT)."""
    return _coordinate_projector(4 * d, 2 * d)


@dataclass(frozen=True)
class SweepRow:
    """One dimension's worth of divergence diagnostics."""

    d: int
    norm_strong_solution: float
    norm_weak_solutions: float
    norm_parallel_sum: float
    shorted_norm: float
    cond_ApB: float
    min_principal_angle: float


def subspace_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Principal angles between the ranges of orthonormal bases, ascending:
    from the sine where cos^2 >= 1/2 (arccos loses half the digits near 0)
    and from the cosine otherwise."""
    c, resid = _angle_factors(qa, qb)
    cos = np.minimum(np.linalg.svd(c, compute_uv=False), 1.0)
    # the sines ascend as the cosines descend; those past min(dims) are 1
    sin = np.linalg.svd(resid, compute_uv=False)[::-1][: cos.size]
    return np.where(cos**2 >= 0.5, np.arcsin(np.minimum(sin, 1.0)), np.arccos(cos))


def _sweep_row(d: int, tol: Tol) -> SweepRow:
    kit = make_kit(d)
    proj = kit_block_projector(d)
    block = partition(kit.bigT, proj, proj, tol)
    short = shorted(block, tol)
    wd = short.witnesses
    # Etilde = W_r1 G[:r1] and E = V_r0 G share the coordinates G with r1 <= r0,
    # so ||Etilde|| <= ||E||; likewise ||F|| <= ||Ftilde||
    norm_weak = max(opnorm(wd.E), opnorm(wd.Ftilde))

    # bigT's T22 C = T21 is (A0 + B0) C = B0, solved alone (the row reports no
    # D) from shorted's one SVD of T22 = A0 + B0; that SVD also gives cond(A0 + B0)
    [(strong, to_c)] = _solve_corners(block, _CORNER_SYSTEMS[4:5], tol)
    if not to_c.included:
        raise InternalInvariantViolation(f"(A0 + B0) X = B0 is unsolvable at d={d}")
    t22 = block._t22
    cond = float(t22.s[0] / t22.s[-1])
    del block  # freed before A0 : B0 builds its own partition

    # parallel_sum(A0, B0).value (singular A0: no cross-check) from its own
    # partition, whose T22 = A0 + B0 has the bytes of the one factored above
    psum = _parallel_core(*_psd_pair(kit.A0, kit.B0, tol), tol, t22)[0]

    # B0 projects onto coordinates, so those columns are its range basis
    b0_basis = _coordinate_columns(2 * d, np.flatnonzero(np.diagonal(kit.B0) == 1.0))
    angles = subspace_angles(range_basis(kit.A0, tol), b0_basis)
    min_angle = float(angles.min()) if angles.size else 0.0

    return SweepRow(
        d=d,
        norm_strong_solution=opnorm(strong),
        norm_weak_solutions=norm_weak,
        norm_parallel_sum=opnorm(psum),
        # the ambient shorted operator is the core lifted by orthonormal bases
        shorted_norm=opnorm(short.core),
        cond_ApB=cond,
        min_principal_angle=min_angle,
    )


def divergence_sweep(dims=None, tol: Tol = DEFAULT_TOL):
    """Run the divergence diagnostics over a grid of dimensions.

    The rows are computed one after another.  Their values are identical
    across reruns at the same BLAS thread count; the noise-level columns
    may differ between thread counts.

    Parameters
    ----------
    dims : sequence of int, optional
        Strictly ascending integers, default (8, 16, 32, 64, 128, 256).
    tol : Tol

    Returns
    -------
    list of SweepRow
    """
    if dims is None:
        dims = DEFAULT_SWEEP_DIMS
    dims = [_integer(d) for d in dims]
    if not dims:
        raise ValueError("dims must be non-empty")
    if any(d < 1 for d in dims):
        raise ValueError("all dims must be >= 1")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly ascending")
    return [_sweep_row(d, tol) for d in dims]


def sweep_to_csv(rows) -> str:
    """Render sweep rows as CSV with the fixed column schema (deterministic bytes)."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                [str(row.d)]
                + [
                    repr(float(getattr(row, name)))
                    for name in CSV_COLUMNS[1:]
                ]
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ClosedFormReport:
    """Residuals of every closed form against its numerically computed twin."""

    d: int
    residuals: dict
    passed: bool


def verify_closed_forms(d: int, tol: Tol = DEFAULT_TOL) -> ClosedFormReport:
    """Cross-check the kit's closed forms against direct numerics at one d;
    passed iff all are within residual_rel / _BAND (1e-9 at the default Tol)."""
    kit = make_kit(d)
    apb = kit.A0 + kit.B0
    sq_a0 = sqrt_a0_closed_form(d)
    residuals = {
        "sqrt_sum_squares_back": opnorm(kit.sqrtAB @ kit.sqrtAB - apb),
        "sqrt_sum_vs_psd_power": opnorm(psd_power(apb, 0.5, tol) - kit.sqrtAB),
        "unique_solution_equation": opnorm(kit.sqrtAB @ kit.Xunique - kit.B0),
        "unique_solution_vs_direct_solve": opnorm(
            np.linalg.solve(kit.sqrtAB, kit.B0) - kit.Xunique
        ),
        "unique_solution_norm_minus_one": abs(opnorm(kit.Xunique) - 1.0),
        "sqrt_a0_squares_back": opnorm(sq_a0 @ sq_a0 - kit.A0),
        "sqrt_a0_vs_psd_power": opnorm(psd_power(kit.A0, 0.5, tol) - sq_a0),
    }
    passed = all(v <= tol.residual_rel / _BAND for v in residuals.values())
    return ClosedFormReport(d=d, residuals=residuals, passed=passed)
