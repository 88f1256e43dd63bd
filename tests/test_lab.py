import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from opshort import (
    DEFAULT_TOL,
    divergence_sweep,
    make_kit,
    numerical_rank,
    opnorm,
    partition,
    range_basis,
    shorted,
    sweep_to_csv,
    verify_closed_forms,
    weak_complement_data,
)
from opshort import lab, parallel, shorting
from opshort.douglas import _solve
from opshort.errors import InternalInvariantViolation
from opshort.numkit import _svd_factor
from opshort.lab import (
    CSV_COLUMNS,
    DEFAULT_SWEEP_DIMS,
    kit_block_projector,
    sqrt_a0_closed_form,
    subspace_angles,
)

from _util import rand_complex, rand_unitary, record_linalg, record_svd

RNG = np.random.default_rng(7007)

SQRT5 = np.sqrt(5.0)


# --- kit construction ---------------------------------------------------------------


def test_kit_single_mode_closed_forms():
    kit = make_kit(1)
    assert_allclose(kit.S, [[1.0]])
    assert_allclose(kit.A0, [[1.0, 1.0], [1.0, 1.0]])
    assert_allclose(kit.B0, [[1.0, 0.0], [0.0, 0.0]])
    # with t = 1 the normalizer is sqrt(5)
    assert_allclose(
        kit.sqrtAB, np.array([[3.0, 1.0], [1.0, 2.0]]) / SQRT5, atol=1e-15
    )
    assert_allclose(
        kit.Xunique, np.array([[2.0, 0.0], [-1.0, 0.0]]) / SQRT5, atol=1e-15
    )
    assert kit.bigT.shape == (4, 4)


@pytest.mark.parametrize("delta,ok", [(0.45e-10, True), (0.55e-10, False)])
def test_kit_closed_form_bound_edge(monkeypatch, delta, ok):
    # scaling the normalizer f by 1 + delta moves sqrtAB^2 off A0 + B0 and
    # sqrtAB @ Xunique off B0 by about 2 delta relative, just inside or just
    # outside the fixed bound 1e-10
    real = lab._f
    monkeypatch.setattr(lab, "_f", lambda t: real(t) * (1.0 + delta))
    assert lab._CLOSED_FORM_BOUND == 1e-10
    if ok:
        make_kit(4)
    else:
        with pytest.raises(InternalInvariantViolation, match="closed-form square root"):
            make_kit(4)


@pytest.mark.parametrize("bad", [0, -3, 2.5, "8"])
def test_kit_rejects_bad_dimension(bad):
    with pytest.raises(ValueError):
        make_kit(bad)


@pytest.mark.parametrize(
    "bad",
    [True, False, 8.7, 8.0, np.float64(8.0), np.bool_(True)],
    ids=["True", "False", "8.7", "8.0", "float64", "bool_"],
)
@pytest.mark.parametrize("entry", ["make_kit", "divergence_sweep"])
def test_dimension_must_be_an_integer(entry, bad):
    # neither truncated (8.7 -> 8) nor read as 1 (True), nor left to numpy
    call = {"make_kit": lambda: make_kit(bad), "divergence_sweep": lambda: divergence_sweep([bad])}
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        call[entry]()


@pytest.mark.parametrize("d", [np.int64(4), np.int32(4), np.uint8(4)])
def test_numpy_integer_dimensions_pass(d):
    kit = make_kit(d)
    assert type(kit.d) is int and kit.d == 4
    assert divergence_sweep([d]) == divergence_sweep([4])


def test_kit_block_layout():
    kit = make_kit(3)
    assert kit.bigT.shape == (12, 12)
    assert_allclose(kit.bigT[:6, :6], kit.B0)
    assert_allclose(kit.bigT[:6, 6:], kit.B0)
    assert_allclose(kit.bigT[6:, :6], kit.B0)
    assert_allclose(kit.bigT[6:, 6:], kit.A0 + kit.B0)


@pytest.mark.parametrize("d", [1, 4, 16, 64])
def test_unique_solution_has_unit_norm(d):
    kit = make_kit(d)
    assert abs(opnorm(kit.Xunique) - 1.0) <= 1e-10
    assert opnorm(kit.sqrtAB @ kit.Xunique - kit.B0) <= 1e-10


@pytest.mark.parametrize("d", [1, 4, 16])
def test_sqrt_closed_forms_square_back(d):
    kit = make_kit(d)
    assert opnorm(kit.sqrtAB @ kit.sqrtAB - (kit.A0 + kit.B0)) <= 1e-10
    sq = sqrt_a0_closed_form(d)
    assert opnorm(sq @ sq - kit.A0) <= 1e-10


def test_sqrt_a0_single_mode():
    assert_allclose(
        sqrt_a0_closed_form(1), np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-15
    )


def test_kit_ranks_and_angle():
    d = 4
    kit = make_kit(d)
    assert numerical_rank(kit.A0) == d
    assert numerical_rank(kit.B0) == d
    # the ranges close in on each other at angle arctan(t_d) = arctan(1/d)
    from scipy.linalg import subspace_angles
    from opshort import range_basis

    angles = subspace_angles(range_basis(kit.A0), range_basis(kit.B0))
    assert angles.min() == pytest.approx(np.arctan(0.25), abs=1e-12)


@pytest.mark.parametrize("d", DEFAULT_SWEEP_DIMS)
def test_min_principal_angle_is_arctan_one_over_d(d):
    # the sweep's min_principal_angle column, computed as _sweep_row does
    kit = make_kit(d)
    angles = subspace_angles(range_basis(kit.A0), range_basis(kit.B0))
    assert angles.shape == (d,)
    assert angles.min() == pytest.approx(np.arctan(1.0 / d), rel=1e-14, abs=0.0)


def _bases_at_angles(n, theta, extra=0):
    """Orthonormal Q_A (k columns) and Q_B (k + extra columns) whose
    principal angles are exactly ``theta``."""
    k = len(theta)
    u = rand_unitary(RNG, n)
    qa = u[:, :k]
    qb = np.hstack([qa * np.cos(theta) + u[:, k : 2 * k] * np.sin(theta), u[:, 2 * k : 2 * k + extra]])
    return qa, qb


@pytest.mark.parametrize("extra", [0, 2])
def test_subspace_angles_on_known_angles(extra):
    theta = np.array([0.0, 1e-9, 1e-5, 0.3, np.pi / 4, 1.2, np.pi / 2])
    qa, qb = _bases_at_angles(20, theta, extra)
    assert_allclose(subspace_angles(qa, qb), theta, rtol=1e-12, atol=1e-15)
    assert_allclose(subspace_angles(qb, qa), theta, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("dims", [(3, 3), (2, 5), (5, 2), (4, 4)])
def test_min_angle_matches_scipy(dims):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    n = 12
    for trial in range(5):
        # the second trial shares a direction, so the smallest angle is 0
        a = rand_complex(RNG, n, dims[0])
        b = rand_complex(RNG, n, dims[1])
        if trial == 1:
            b[:, 0] = a @ rand_complex(RNG, dims[0], 1)[:, 0]
        ours = subspace_angles(np.linalg.qr(a)[0], np.linalg.qr(b)[0]).min()
        ref = scipy_linalg.subspace_angles(a, b).min()
        if ref > 1e-6:
            assert ours == pytest.approx(ref, rel=1e-12, abs=0.0)
        else:
            # below 1e-6 scipy is no reference: it applies its cos^2 >= 1/2
            # mask to the angles in reversed order, so a zero angle can come
            # out of arccos as ~1.5e-8; the sine route stays at round-off
            assert ours <= 1e-14


def test_kit_block_projector_shape():
    p = kit_block_projector(5)
    assert p.shape == (20, 20)
    assert p.trace() == 10.0
    assert_allclose(p @ p, p)


# --- closed-form verification ----------------------------------------------------------


@pytest.mark.parametrize("d", [8, 16])
def test_verify_closed_forms_passes(d):
    report = verify_closed_forms(d)
    assert report.passed
    assert report.d == d
    assert set(report.residuals) == {
        "sqrt_sum_squares_back",
        "sqrt_sum_vs_psd_power",
        "unique_solution_equation",
        "unique_solution_vs_direct_solve",
        "unique_solution_norm_minus_one",
        "sqrt_a0_squares_back",
        "sqrt_a0_vs_psd_power",
    }
    assert report.residuals["unique_solution_vs_direct_solve"] <= 1e-9
    assert report.residuals["sqrt_sum_vs_psd_power"] <= 1e-9


# --- divergence sweep --------------------------------------------------------------------


def test_sweep_default_dims():
    assert DEFAULT_SWEEP_DIMS == (8, 16, 32, 64, 128, 256)


@pytest.mark.parametrize("dims", [[], [4, 2], [8, 8], [0, 4]])
def test_sweep_rejects_bad_dims(dims):
    with pytest.raises(ValueError):
        divergence_sweep(dims)


def test_sweep_row_values():
    (row,) = divergence_sweep([8])
    assert row.d == 8
    assert row.norm_strong_solution == pytest.approx(np.sqrt(65.0), rel=1e-10)
    assert row.norm_weak_solutions == pytest.approx(1.0, abs=1e-10)
    assert row.norm_parallel_sum <= 1e-12
    assert row.shorted_norm <= 1e-12
    assert row.min_principal_angle == pytest.approx(np.arctan(1.0 / 8.0), abs=1e-12)
    assert row.cond_ApB > 100.0


def test_sweep_row_svd_budget(monkeypatch):
    # 10: the row's partition takes 2, T22 = A0 + B0 and ||T21|| (T12* = T21,
    # so ||T12|| is the same number); 5 reported norms: ||E||, ||Ftilde||, the
    # strong solution, A0 : B0 and the shorted core; range_basis(A0) and the 2
    # angle SVDs.  A0 : B0's partition takes none: its T22 reuses the row's
    # factor of A0 + B0, its ||T21|| = ||A0|| comes from A0's eigenvalues, and
    # no margin of either partition is read, so the Frobenius bounds settle
    # them all.  The strong solution and cond(A0 + B0) are read from the row's
    # partition.  The kit is real, so every SVD and every eigenvalue call of
    # the row (A0 : B0's two validations and its PSD clamp) takes the real driver
    calls = record_svd(monkeypatch)
    eig_calls = [record_linalg(monkeypatch, k, lambda _: None) for k in ("eigvalsh", "eigh")]
    lab._sweep_row(16, DEFAULT_TOL)
    assert len(calls) == 10
    assert sum(uv for _, uv in calls) == 2  # T22 and range_basis(A0)
    assert [len(c) for c in eig_calls] == [2, 1]
    assert {x.dtype for x, _ in calls + eig_calls[0] + eig_calls[1]} == {np.dtype(np.float64)}


@pytest.mark.parametrize("d", DEFAULT_SWEEP_DIMS)
def test_row_t22_has_the_bytes_of_the_parallel_sum_t22(monkeypatch, d):
    # the row hands its factor of T22 to A0 : B0's partition, whose own T22
    # must then be the same matrix, byte for byte
    kit = make_kit(d)
    row_t22 = partition(kit.bigT, kit_block_projector(d), kit_block_projector(d)).T22
    blocks = []

    def stop(block, tol):
        blocks.append(block)
        raise StopIteration

    monkeypatch.setattr(parallel, "shorted", stop)
    with pytest.raises(StopIteration):
        parallel._parallel_core(*parallel._psd_pair(kit.A0, kit.B0, DEFAULT_TOL), DEFAULT_TOL)
    core_t22 = blocks[0].T22
    assert row_t22.dtype == core_t22.dtype == np.float64
    assert row_t22.shape == core_t22.shape and row_t22.tobytes() == core_t22.tobytes()


@pytest.mark.parametrize("d", [8, 64])
def test_norm_weak_solutions_bounds_all_four(d):
    # the row takes ||E|| and ||Ftilde|| only; the other two never exceed them
    kit = make_kit(d)
    proj = kit_block_projector(d)
    wd = shorted(partition(kit.bigT, proj, proj)).witnesses
    row = lab._sweep_row(d, DEFAULT_TOL)
    for x in (wd.E, wd.F, wd.Etilde, wd.Ftilde):
        norm = opnorm(x)
        assert row.norm_weak_solutions >= norm - 4 * np.spacing(norm)


def test_weak_norm_order_holds_below_the_rule_0_rank():
    # T22 = diag(1, 1e-11): rule 0 keeps rank 2, the half-power rule 1 rank 1,
    # so Etilde and F drop the coordinate that E and Ftilde keep
    rng = np.random.default_rng(11)
    t = rand_complex(rng, 4, 4)
    t[2:, 2:] = rand_unitary(rng, 2) @ np.diag([1.0, 1e-11]) @ rand_unitary(rng, 2)
    block = partition(t, np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert shorting._ranks(block, DEFAULT_TOL) == (2, 1)
    wd = weak_complement_data(block)
    assert opnorm(wd.Etilde) <= opnorm(wd.E)
    assert opnorm(wd.F) <= opnorm(wd.Ftilde)
    assert opnorm(wd.E) > 1e4 * opnorm(wd.Etilde)


@pytest.mark.parametrize("d", [8, 16, 64])
def test_sweep_row_matches_the_separate_factor_route(d):
    # the route before the row read bigT's partition: its own SVD of A0 + B0,
    # a reduced solve of (A0 + B0) X = B0 and an SVD of B0 for its range
    kit = make_kit(d)
    apb = kit.A0 + kit.B0
    f = _svd_factor(apb)
    strong = _solve(apb, f, kit.B0, DEFAULT_TOL)
    angles = subspace_angles(range_basis(kit.A0), range_basis(kit.B0))
    row = lab._sweep_row(d, DEFAULT_TOL)
    # the complex SVD of T22 may differ from the real one in the last bit
    assert row.norm_strong_solution == pytest.approx(opnorm(strong.D), rel=5e-16, abs=0)
    assert row.cond_ApB == pytest.approx(f.s[0] / f.s[-1], rel=5e-16, abs=0)
    assert row.min_principal_angle == float(angles.min())


def test_sweep_divergence_slopes():
    rows = divergence_sweep([8, 16, 32])
    logs_d = np.log([r.d for r in rows])
    slope_strong = np.polyfit(logs_d, np.log([r.norm_strong_solution for r in rows]), 1)[0]
    slope_cond = np.polyfit(logs_d, np.log([r.cond_ApB for r in rows]), 1)[0]
    assert abs(slope_strong - 1.0) <= 0.05
    assert abs(slope_cond - 2.0) <= 0.2


# --- CSV rendering -------------------------------------------------------------------------


def test_csv_layout_and_round_trip():
    rows = divergence_sweep([4, 8])
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "4"
    # repr round-trips every float exactly
    assert float(first[1]) == rows[0].norm_strong_solution
    assert float(first[5]) == rows[0].cond_ApB


def test_csv_bytes_deterministic():
    a = sweep_to_csv(divergence_sweep([4, 8]))
    b = sweep_to_csv(divergence_sweep([4, 8]))
    assert a == b


def test_csv_column_schema():
    assert CSV_COLUMNS == (
        "d",
        "norm_strong_solution",
        "norm_weak_solutions",
        "norm_parallel_sum",
        "shorted_norm",
        "cond_ApB",
        "min_principal_angle",
    )
