import numpy as np
import pytest
from numpy.testing import assert_allclose

from opshort import (
    DEFAULT_TOL,
    absolute_value,
    check_projector,
    complementable_idempotents,
    is_complementable,
    make_kit,
    numerical_rank,
    opnorm,
    partition,
    pseudo_inverse,
    psd_power,
    reduced_solution,
    shorted,
    v_operator,
    verify_range_kernel,
    weak_complement_data,
)
from opshort import shorting
from opshort.errors import (
    NotAProjector,
    NotSolvable,
    NotWeaklyComplementable,
    ShapeMismatch,
    WitnessInvalid,
)
from opshort.lab import kit_block_projector
from opshort.shorting import _projector_bases, _validated_projector_eig

from _util import (
    complementable_instance,
    rand_complex,
    rand_projector,
    rand_psd,
    rand_unitary,
    record_svd,
)

RNG = np.random.default_rng(4004)


def _coord_projector(n, k):
    return np.diag([1.0] * k + [0.0] * (n - k))


# --- check_projector --------------------------------------------------------------


def test_check_projector_counts_rank():
    p = rand_projector(RNG, 6, 2)
    assert check_projector(p) == 2
    assert check_projector(np.eye(4)) == 4
    assert check_projector(np.zeros((3, 3))) == 0


def test_check_projector_empty():
    assert check_projector(np.zeros((0, 0))) == 0


def test_check_projector_rejects_nonsquare():
    with pytest.raises(NotAProjector):
        check_projector(np.zeros((2, 3)))


def test_check_projector_rejects_non_hermitian():
    with pytest.raises(NotAProjector):
        check_projector(np.array([[1.0, 1e-6], [0.0, 0.0]]))


def test_check_projector_rejects_non_idempotent():
    with pytest.raises(NotAProjector):
        check_projector(np.diag([1.0, 0.4]))


def test_check_projector_eigenvalue_drift():
    with pytest.raises(NotAProjector):
        check_projector(np.diag([1.0 + 1e-9, 0.0]))
    # drift below every gate is still a projector
    assert check_projector(np.diag([1.0 + 5e-11, 0.0])) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0)])
def test_non_finite_projectors_are_rejected_before_any_norm(monkeypatch, bad, entry):
    p = np.diag([1.0, 0.0])
    p[entry] = bad
    calls = record_svd(monkeypatch)
    for check in (check_projector, lambda q: partition(np.eye(2), q, np.eye(2))):
        with pytest.raises(NotAProjector, match="non-finite"):
            check(p)
    assert calls == []


@pytest.mark.parametrize("angle,same", [(1e-6 * (1 - 1e-9), True), (1e-6 * (1 + 1e-9), False)])
def test_same_subspace_gap_edge(angle, same):
    # two lines at principal angle theta: ||B2 - B1 (B1* B2)|| = sin(theta),
    # within a relative 1e-9 of the fixed gap 1e-6 on either side
    b1 = np.eye(3)[:, :1]
    b2 = np.array([[np.cos(angle)], [np.sin(angle)], [0.0]])
    assert shorting._SUBSPACE_GAP == 1e-6
    assert shorting._same_subspace(b1, b2) is same
    # another dimension is never the same subspace
    assert not shorting._same_subspace(np.eye(3)[:, :2], b2)


# --- exact coordinate projectors ----------------------------------------------------


def _span(basis):
    return basis @ basis.conj().T


def _rotated(rng, basis):
    # the projector onto span(basis) through another orthonormal basis of it
    k = basis.shape[1]
    if np.iscomplexobj(basis):
        return _span(basis @ rand_unitary(rng, k))
    return _span(basis @ np.linalg.qr(rng.standard_normal((k, k)))[0])


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 200])
def test_coordinate_projector_bases_agree_with_the_eigh_route(n):
    # the shortcut for exact 0/1 diagonals and the eigh route span the same
    # range and kernel, on the same matrix and through a rotated basis of the
    # same subspace; only the spans are compared, as only they are determined
    rng = np.random.default_rng(n)
    patterns = [np.zeros(n), np.ones(n), (rng.uniform(size=n) < 0.5).astype(float)]
    patterns[2][0] = 1.0 - patterns[2][-1]  # mixed whenever n > 1
    for diag in patterns:
        p = np.diag(diag)
        rank = int(diag.sum())
        bases = _projector_bases(p, DEFAULT_TOL)
        assert bases[2] is not None
        vecs, eig_rank = _validated_projector_eig(p, DEFAULT_TOL)
        assert eig_rank == rank
        # eigh's ascending order puts the kernel first and the range last
        routes = [(vecs[:, n - rank :], vecs[:, : n - rank])]
        q = _rotated(rng, bases[0])
        if np.count_nonzero(q) != np.count_nonzero(np.diagonal(q)):
            rotated = _projector_bases(q, DEFAULT_TOL)
            assert rotated[2] is None
            for b in rotated[:2]:
                assert b.dtype == np.float64 and b.flags.c_contiguous
            routes.append(rotated[:2])
        for route in routes:
            for got, want in zip(route, bases[:2]):
                assert got.shape == want.shape
                assert opnorm(got.conj().T @ got - np.eye(got.shape[1])) <= 1e-13
                assert opnorm(_span(got) - _span(want)) <= 1e-12


def _ambient(t, pm, pn):
    # what a partition determines: the shorted operator, T reassembled, the
    # complementability idempotents and the range/kernel report
    block = partition(t, pm, pn)
    result = shorted(block)
    comp = is_complementable(block)
    return (
        [result.shorted, block.reassembled(), *complementable_idempotents(block, comp.C, comp.D)],
        verify_range_kernel(block, result),
    )


def _same_ambient(t, first, second):
    (got, report), (want, want_report) = _ambient(t, *first), _ambient(t, *second)
    assert report == want_report
    for g, w in zip(got, want):
        assert opnorm(g - w) <= 1e-12 * opnorm(t)


@pytest.mark.parametrize("rank", ["zero", "mixed", "full"])
@pytest.mark.parametrize("n", [1, 2, 6, 16])
def test_coordinate_and_eigh_routes_give_the_same_ambient_outputs(n, rank):
    # an exact 0/1 diagonal (gathered corners) against a rotated basis of the
    # same subspace (eigh), on a PSD T of full and of deficient rank
    rng = np.random.default_rng(100 * n + len(rank))
    k = {"zero": 0, "mixed": n // 2, "full": n}[rank]
    p = _coord_projector(n, k)
    q = _rotated(rng, np.eye(n)[:, :k])
    # a basis of dimension 0 or 1 has no rotation, only a sign: q is exact too
    assert (_projector_bases(q, DEFAULT_TOL)[2] is None) == (k >= 2)
    for t in (rand_psd(rng, n), rand_psd(rng, n, max(n - 2, 1))):
        _same_ambient(t, (p, p), (q, q))


def test_rotated_bases_of_one_subspace_give_the_same_ambient_outputs():
    rng = np.random.default_rng(77)
    for _ in range(20):
        t, pm, pn = complementable_instance(rng, 8)
        rotated = []
        for p in (pm, pn):
            w, v = np.linalg.eigh(p)
            rotated.append(_rotated(rng, v[:, w > 0.5]))
        _same_ambient(t, (pm, pn), rotated)


def _spy_eig(monkeypatch):
    calls = []
    real = shorting._validated_projector_eig

    def spy(m, tol):
        calls.append(m.shape)
        return real(m, tol)

    monkeypatch.setattr(shorting, "_validated_projector_eig", spy)
    return calls


def test_coordinate_projector_skips_the_eigensolver(monkeypatch):
    calls = _spy_eig(monkeypatch)
    t = rand_complex(RNG, 6, 6)
    block = partition(t, _coord_projector(6, 2), _coord_projector(6, 3))
    assert calls == []
    assert_allclose(block.T21, t[3:, :2], atol=0)
    # a general projector still goes through validation and eigh
    partition(t, rand_projector(RNG, 6, 2), _coord_projector(6, 3))
    assert calls == [(6, 6)]


def test_check_projector_shares_the_partition_path(monkeypatch):
    # check_projector validates through _projector_bases: an exact 0/1
    # diagonal skips eigh, anything else is validated once
    calls = _spy_eig(monkeypatch)
    assert check_projector(_coord_projector(5, 2)) == 2
    assert check_projector(np.zeros((0, 0))) == 0
    assert calls == []
    assert check_projector(np.diag([1.0 + 5e-11, 0.0])) == 1
    assert calls == [(2, 2)]
    with pytest.raises(NotAProjector, match=r"must be square, got shape \(2, 3\)"):
        check_projector(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "p,message",
    [
        (np.array([[1.0, 1e-6], [0.0, 0.0]]), r"\|\|P - P\*\|\| = 1\.000e-06 exceeds 1e-10"),
        (np.diag([1.0, 0.5]), r"\|\|P\^2 - P\|\| = 2\.500e-01 exceeds 1e-10"),
        (np.diag([1.0, 1.0 + 1e-9]), r"\|\|P\^2 - P\|\| = 1\.000e-09 exceeds 1e-10"),
        (np.diag([1.0, 1.0 + 1e-11j]), None),
    ],
)
def test_near_coordinate_projectors_take_the_general_path(monkeypatch, p, message):
    # an off-diagonal entry or a diagonal 0.5, 1 + 1e-9 or 1 + 1e-11 i is not
    # an exact 0/1 diagonal: it is validated, and accepted or rejected with
    # the same message as before
    calls = _spy_eig(monkeypatch)
    if message is None:
        assert partition(np.eye(2), p, p).dim_m == 2
    else:
        with pytest.raises(NotAProjector, match=message):
            partition(np.eye(2), p, p)
    assert calls == [(2, 2)]


# --- gathered corners and scattered lifts --------------------------------------------


def _product_corners(block):
    # the route that exact coordinate projectors took before: N* T M and so on
    nt = block.basis_n.conj().T @ block.T
    npt = block.basis_n_perp.conj().T @ block.T
    return [nt @ block.basis_m, nt @ block.basis_m_perp, npt @ block.basis_m, npt @ block.basis_m_perp]


def _product_lift(rows, cols, pieces):
    out = np.zeros((rows[0].shape[0], cols[0].shape[0]), dtype=np.complex128)
    for (i, j), x in zip([(0, 0), (0, 1), (1, 0), (1, 1)], pieces):
        if x is not None:
            out += rows[i] @ x @ cols[j].conj().T
    return out


def _with_signed_zeros(rng, x):
    # exact +0.0 and -0.0 in about a third of the real and imaginary parts
    re, im = x.real.copy(), x.imag.copy()
    for part in (re, im):
        hit = rng.uniform(size=part.shape) < 1 / 3
        part[hit] = np.where(rng.uniform(size=part.shape) < 0.5, 0.0, -0.0)[hit]
    return re + 1j * im


# (rows of T, diagonal of PM, diagonal of PN or None for PN = PM)
_COORDINATE_CASES = {
    "pm_eq_pn": (6, [1, 0, 1, 1, 0, 0], None),
    "pm_ne_pn": (6, [0, 1, 1, 0, 0, 1], [1, 1, 0, 0, 0, 1]),
    "rectangular": (5, [1, 0, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0]),
    "empty_m": (6, [0] * 6, [1, 0, 0, 1, 0, 0]),
    "full_m": (6, [1] * 6, None),
    "zero_dim_domain": (4, [], [1, 0, 0, 1]),
}


def _coordinate_block(case, zeros, seed):
    rng = np.random.default_rng(seed)
    k, dm, dn = _COORDINATE_CASES[case]
    t = rand_complex(rng, k, len(dm))
    if zeros:
        t = _with_signed_zeros(rng, t)
    pm = np.diag(np.array(dm, dtype=float))
    pn = pm if dn is None else np.diag(np.array(dn, dtype=float))
    block = partition(t, pm, pn)
    assert block.index_m is not None and block.index_n is not None
    # exact 0/1 diagonals are Hermitian already and are kept as given
    assert np.array_equal(block.PM, pm) and np.array_equal(block.PN, pn)
    return rng, block


def _same(got, want, zeros):
    # gemm's sign of an exact zero depends on the data, so with zeros only
    # the values are compared; otherwise the bytes
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want) if zeros else got.tobytes() == want.tobytes()


@pytest.mark.parametrize("zeros", [False, True], ids=["no_zeros", "signed_zeros"])
@pytest.mark.parametrize("case", sorted(_COORDINATE_CASES))
def test_coordinate_corners_match_the_product_route(case, zeros):
    _, block = _coordinate_block(case, zeros, 17)
    got = [block.T11, block.T12, block.T21, block.T22]
    for g, w in zip(got, _product_corners(block)):
        _same(g, w, zeros)
    # each corner is T's own sub-block, so the sign of an exact zero follows T
    (rm, rmp), (rn, rnp) = block.index_m, block.index_n
    subs = [block.T[np.ix_(r, c)] for r in (rn, rnp) for c in (rm, rmp)]
    assert [g.tobytes() for g in got] == [x.tobytes() for x in subs]


@pytest.mark.parametrize("zeros", [False, True], ids=["no_zeros", "signed_zeros"])
@pytest.mark.parametrize("case", sorted(_COORDINATE_CASES))
def test_coordinate_lifts_match_the_product_route(case, zeros):
    rng, block = _coordinate_block(case, zeros, 29)
    m = (block.basis_m, block.basis_m_perp)
    n = (block.basis_n, block.basis_n_perp)
    for lift, rows, cols in (
        (block.lift, n, m),
        (block.lift_domain, m, m),
        (block.lift_codomain, n, n),
    ):
        pieces = [rand_complex(rng, r.shape[1], c.shape[1]) for r in rows for c in cols]
        if zeros:
            pieces = [_with_signed_zeros(rng, x) for x in pieces]
        # both routes add each piece to +0.0, so even signed zeros keep their bytes
        for given in (pieces, [pieces[0], None, None, pieces[3]]):
            _same(lift(*given), _product_lift(rows, cols, given), zeros=False)


def test_general_projector_keeps_the_product_route(monkeypatch):
    t = rand_complex(RNG, 6, 6)
    pm = rand_projector(RNG, 6, 2)
    gathers = []
    real_ix = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *a: gathers.append(a) or real_ix(*a))
    block = partition(t, pm, _coord_projector(6, 3))
    assert block.index_m is None and block.index_n is not None
    for g, w in zip([block.T11, block.T12, block.T21, block.T22], _product_corners(block)):
        assert g.tobytes() == w.tobytes()
    block.lift(x11=block.T11)
    block.lift_domain(x11=np.eye(block.dim_m))
    assert gathers == []
    # the codomain's bases alone are coordinate columns, so its lift scatters
    block.lift_codomain(x11=np.eye(block.dim_n))
    assert len(gathers) == 1


# --- partition ----------------------------------------------------------------------


def test_partition_coordinate_projectors_extract_blocks():
    t = rand_complex(RNG, 4, 4)
    block = partition(t, _coord_projector(4, 2), _coord_projector(4, 2))
    assert_allclose(block.T11, t[:2, :2], atol=1e-14)
    assert_allclose(block.T12, t[:2, 2:], atol=1e-14)
    assert_allclose(block.T21, t[2:, :2], atol=1e-14)
    assert_allclose(block.T22, t[2:, 2:], atol=1e-14)
    assert block.dim_m == 2 and block.dim_n == 2


def test_partition_rectangular_shapes():
    t = rand_complex(RNG, 5, 7)
    block = partition(t, rand_projector(RNG, 7, 3), rand_projector(RNG, 5, 2))
    assert block.T11.shape == (2, 3)
    assert block.T12.shape == (2, 4)
    assert block.T21.shape == (3, 3)
    assert block.T22.shape == (3, 4)
    assert opnorm(block.reassembled() - t) <= 1e-10


def test_partition_full_projector_is_degenerate():
    t = rand_complex(RNG, 3, 3)
    block = partition(t, np.eye(3), np.eye(3))
    assert block.T22.shape == (0, 0)
    assert_allclose(block.reassembled(), t, atol=1e-12)


def test_partition_reassembles():
    for trial in range(5):
        n = int(RNG.integers(2, 9))
        k = int(RNG.integers(2, 9))
        t = rand_complex(RNG, k, n)
        pm = rand_projector(RNG, n, int(RNG.integers(1, n)))
        pn = rand_projector(RNG, k, int(RNG.integers(1, k)))
        block = partition(t, pm, pn)
        assert opnorm(block.reassembled() - t) <= 1e-10 * max(opnorm(t), 1.0)


def test_partition_rejects_misplaced_projectors():
    t = rand_complex(RNG, 5, 7)
    with pytest.raises(ShapeMismatch):
        partition(t, rand_projector(RNG, 5, 2), rand_projector(RNG, 5, 2))
    with pytest.raises(ShapeMismatch):
        partition(t, rand_projector(RNG, 7, 3), rand_projector(RNG, 7, 3))


def test_partition_bases_are_deterministic():
    t = rand_complex(RNG, 6, 6)
    pm = rand_projector(RNG, 6, 3)
    pn = rand_projector(RNG, 6, 2)
    b1 = partition(t, pm, pn)
    b2 = partition(t, pm.copy(), pn.copy())
    for name in ("basis_m", "basis_m_perp", "basis_n", "basis_n_perp", "T11", "T22"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))


def test_partition_reuses_basis_for_equal_projectors():
    t = rand_complex(RNG, 5, 5)
    p = rand_projector(RNG, 5, 2)
    block = partition(t, p, p)
    assert np.array_equal(block.basis_m, block.basis_n)
    assert np.array_equal(block.basis_m_perp, block.basis_n_perp)


def test_lift_rejects_wrong_block_shape():
    t = rand_complex(RNG, 4, 4)
    block = partition(t, _coord_projector(4, 2), _coord_projector(4, 1))
    with pytest.raises(ShapeMismatch):
        block.lift(x11=np.zeros((3, 3)))


# --- complementability -------------------------------------------------------------


def test_not_complementable_when_corner_vanishes():
    t = np.array([[0.0, 0.0], [1.0, 0.0]])
    block = partition(t, _coord_projector(2, 1), _coord_projector(2, 1))
    verdict = is_complementable(block)
    assert not verdict.complementable
    assert verdict.C is None
    assert verdict.D is not None  # the adjoint system T22* D = 0 is solvable
    assert verdict.margins[0] == pytest.approx(1.0)


def test_psd_pairs_are_complementable():
    for trial in range(5):
        a = rand_psd(RNG, 6)
        p = rand_projector(RNG, 6, int(RNG.integers(1, 6)))
        verdict = is_complementable(partition(a, p, p))
        assert verdict.complementable
        assert max(verdict.margins) <= 1e-8


def test_complementability_witness_norm_on_kit():
    kit = make_kit(16)
    block = partition(kit.bigT, kit_block_projector(16), kit_block_projector(16))
    verdict = is_complementable(block)
    assert verdict.complementable
    assert abs(opnorm(verdict.C) - np.sqrt(1.0 + 16.0**2)) <= 1e-8


def test_idempotent_witnesses_reduce_to_projector():
    # with vanishing off-diagonal corners the canonical idempotents are just
    # the orthogonal projectors themselves
    p = _coord_projector(5, 2)
    t = p @ rand_psd(RNG, 5) @ p  # corners exactly zero in coordinates
    block = partition(t, p, p)
    verdict = is_complementable(block)
    pw, qw = complementable_idempotents(block, verdict.C, verdict.D)
    assert opnorm(pw - block.PM) <= 1e-8
    assert opnorm(qw - block.PN) <= 1e-8


def test_idempotent_witnesses_satisfy_defining_conditions():
    t, pm, pn = complementable_instance(RNG)
    block = partition(t, pm, pn)
    verdict = is_complementable(block)
    assert verdict.complementable
    pw, qw = complementable_idempotents(block, verdict.C, verdict.D)
    scale = max(opnorm(t), 1.0)

    assert opnorm(pw @ pw - pw) <= 1e-9
    assert opnorm(qw @ qw - qw) <= 1e-9
    # R(P*) = M and R(Q) = N
    assert opnorm(pw.conj().T @ block.basis_m - block.basis_m) <= 1e-9
    assert numerical_rank(pw) == block.dim_m
    assert opnorm((np.eye(len(qw)) - block.PN) @ qw) <= 1e-9
    assert opnorm(qw @ block.basis_n - block.basis_n) <= 1e-9
    # T maps R(P) into N, and Q*T* maps into M
    assert opnorm((np.eye(t.shape[0]) - block.PN) @ t @ pw) <= 1e-9 * scale
    assert opnorm(qw @ t @ (np.eye(t.shape[1]) - block.PM)) <= 1e-9 * scale


def test_idempotent_witnesses_validate_inputs():
    t, pm, pn = complementable_instance(RNG)
    block = partition(t, pm, pn)
    verdict = is_complementable(block)
    with pytest.raises(WitnessInvalid):
        complementable_idempotents(block, verdict.C + 1.0, verdict.D)
    with pytest.raises(ShapeMismatch):
        complementable_idempotents(block, verdict.C.T.copy()[:, :-1], verdict.D)


# --- weak complementability ----------------------------------------------------------


def test_weak_systems_with_invertible_corner():
    t = rand_complex(RNG, 6, 6)
    p = _coord_projector(6, 2)
    block = partition(t, p, p)  # generic T22 is invertible
    data = weak_complement_data(block)
    assert all(data.solvable)
    v22 = v_operator(block.T22)
    assert_allclose(data.E, np.linalg.solve(v22, block.T21), atol=1e-9)
    assert max(data.residuals) <= 1e-9


def test_weak_systems_collapse_on_kit():
    # T22 = A0 + B0 is PD, so all four systems share the solution
    # (A0 + B0)^(-1/2) B0, of norm exactly 1
    kit = make_kit(12)
    block = partition(kit.bigT, kit_block_projector(12), kit_block_projector(12))
    data = weak_complement_data(block)
    assert all(data.solvable)
    for sol in (data.E, data.F, data.Etilde, data.Ftilde):
        assert opnorm(sol - kit.Xunique) <= 1e-8
        assert abs(opnorm(sol) - 1.0) <= 1e-9


def test_weak_flags_mark_unsolvable_systems():
    # T22 = 0 with T21 != 0 and T12 = 0 kills systems 1 and 3 only
    t = np.zeros((3, 3))
    t[1, 0] = 1.0
    block = partition(t, _coord_projector(3, 1), _coord_projector(3, 1))
    data = weak_complement_data(block)
    assert data.solvable == (False, True, False, True)
    with pytest.raises(NotWeaklyComplementable) as err:
        shorted(block)
    assert err.value.failing == (1, 3)


# --- closed forms from one SVD of T22 ------------------------------------------------


def _old_route(block, tol=DEFAULT_TOL):
    """The six corner systems solved one factorization at a time:
    (solution or least-squares candidate, residual, margin, solvable)."""
    t22, t21, t12s = block.T22, block.T21, block.T12.conj().T
    v22 = v_operator(t22, tol)
    systems = (
        (v22, t21),
        (psd_power(absolute_value(t22, "right"), 0.5, tol), t12s),
        (psd_power(absolute_value(t22, "left"), 0.5, tol), t21),
        (v22.conj().T, t12s),
        (t22, t21),
        (t22.conj().T, t12s),
    )
    out = []
    for a, c in systems:
        try:
            sol = reduced_solution(a, c, tol)
            out.append((sol.D, sol.residual, sol.margin, True))
        except NotSolvable as exc:
            out.append((exc.candidate, exc.residual, exc.margin, False))
    return out


def _rel_close(new, old, rel=1e-9):
    return opnorm(np.asarray(new) - np.asarray(old)) <= rel * max(opnorm(np.atleast_2d(old)), 1.0)


def _not_weak_instance(rng):
    # complementable, then T21 pushed out of R(T22) along a left null vector
    while True:
        t, pm, pn = complementable_instance(rng)
        block = partition(t, pm, pn)
        u, s, _ = np.linalg.svd(block.T22)
        r = int(np.count_nonzero(s > 1e-12 * s[0]))
        if r < block.T22.shape[0]:
            break
    push = 1e-2 * np.outer(u[:, r], rand_complex(rng, 1, block.dim_m))
    return block.lift(block.T11, block.T12, block.T21 + push, block.T22), pm, pn


def _tiny_t22_instance():
    # T22 = 1e-11 I is perfectly conditioned, yet below eig_clamp_rel times
    # the unit corners T21 = T12 = I
    eye = np.eye(2)
    t = np.block([[0.0 * eye, eye], [eye, 1e-11 * eye]])
    return t, _coord_projector(4, 2), _coord_projector(4, 2)


@pytest.mark.parametrize("kind", ["complementable", "not_weak", "kit", "tiny_t22"])
def test_closed_forms_match_the_old_route(kind):
    rng = np.random.default_rng({"complementable": 11, "not_weak": 12}.get(kind, 13))
    single = kind in ("kit", "tiny_t22")
    deficient = 0
    for trial in range(1 if single else 8):
        if kind == "complementable":
            t, pm, pn = complementable_instance(rng)
        elif kind == "not_weak":
            t, pm, pn = _not_weak_instance(rng)
        elif kind == "kit":
            kit = make_kit(16)
            t, pm = kit.bigT, kit_block_projector(16)
            pn = pm
        else:
            t, pm, pn = _tiny_t22_instance()
        block = partition(t, pm, pn)
        deficient += numerical_rank(block.T22) < min(block.T22.shape)
        old = _old_route(block)
        data = weak_complement_data(block)
        comp = is_complementable(block)
        new = list(zip((data.E, data.F, data.Etilde, data.Ftilde), data.residuals, data.solvable))
        for (d, res, ok), (d_old, res_old, margin_old, ok_old) in zip(new, old):
            assert ok == ok_old
            assert _rel_close(d, d_old)
            assert abs(res - res_old) <= 1e-9 * max(res_old, 1.0)
        # the strong witnesses, their margins, and the margins the weak
        # systems share with them (systems 1 and 3 read T21, 2 and 4 T12*)
        for w, m, (d_old, _, margin_old, ok_old) in zip((comp.C, comp.D), comp.margins, old[4:]):
            assert (w is not None) == ok_old
            assert w is None or _rel_close(w, d_old)
            assert abs(m - margin_old) <= 1e-9 * max(margin_old, 1.0)
        ranks = shorting._ranks(block, DEFAULT_TOL)
        weak_rows = zip(shorting._CORNER_SYSTEMS, old[:4], data.residuals)
        for (rhs, _, _, rule), (_, _, margin_old, _), res in weak_rows:
            margin = shorting._inclusion_at(block, rhs, ranks[rule], DEFAULT_TOL).margin
            assert abs(margin - margin_old) <= 1e-9 * max(margin_old, 1.0)
            # each weak residual is the margin of its (side, rank)
            assert res == margin
        if kind == "not_weak":
            assert not comp.complementable and not data.solvable[0]
            with pytest.raises(NotWeaklyComplementable) as err:
                shorted(block)
            assert err.value.failing == tuple(i + 1 for i, ok in enumerate(data.solvable) if not ok)
        else:
            assert all(data.solvable) and comp.complementable
            result = shorted(block)
            assert result.mode == "complementable"
            if kind == "tiny_t22":
                assert ranks == (2, 2)
            old_core = block.T11 - 0.5 * (
                old[1][0].conj().T @ old[0][0] + old[3][0].conj().T @ old[2][0]
            )
            assert _rel_close(result.core, old_core)
    # the random instances include rank-deficient corners
    assert deficient > 0 or single


def _two_rule_block(t21_out, t12_out):
    """Coordinate partition whose square T22 has singular values
    (1, 0.3, 0.01, 1e-11): 1e-11 * sigma_1 is kept by the rank_rel rule
    (1e-12) and dropped by the half-power rule (1e-10), and the others sit
    at least 10x away from both.  T22 is invertible, so the singular
    direction of 1e-11 is well separated.  On request T21 and T12* get a
    component along it."""
    rng = np.random.default_rng(77)
    w, v = rand_unitary(rng, 4), rand_unitary(rng, 4)
    t22 = (w * np.array([1.0, 0.3, 0.01, 1e-11])) @ v.conj().T
    t21 = t22 @ rand_complex(rng, 4, 3)
    t12s = t22.conj().T @ rand_complex(rng, 4, 2)
    if t21_out:
        t21 = t21 + 0.5 * np.outer(w[:, 3], rand_complex(rng, 1, 3))
    if t12_out:
        t12s = t12s + 0.5 * np.outer(v[:, 3], rand_complex(rng, 1, 2))
    t = np.block([[rand_complex(rng, 2, 3), t12s.conj().T], [t21, t22]])
    return partition(t, _coord_projector(7, 3), _coord_projector(6, 2))


@pytest.mark.parametrize(
    "t21_out,t12_out,failing",
    [(False, False, ()), (True, False, (3,)), (False, True, (2,)), (True, True, (2, 3))],
)
def test_the_two_rank_rules_reproduce_the_old_verdicts(t21_out, t12_out, failing):
    block = _two_rule_block(t21_out, t12_out)
    s = np.linalg.svd(block.T22, compute_uv=False)
    assert s[3] == pytest.approx(1e-11, rel=1e-3)
    old_flags = tuple(ok for _, _, _, ok in _old_route(block))
    data = weak_complement_data(block)
    assert data.solvable == old_flags[:4]
    assert is_complementable(block).complementable == (old_flags[4] and old_flags[5])
    assert tuple(i + 1 for i, ok in enumerate(old_flags[:4]) if not ok) == failing
    if failing:
        with pytest.raises(NotWeaklyComplementable) as err:
            shorted(block)
        assert err.value.failing == failing
    else:
        assert shorted(block).mode == "complementable"


_MODE_CASES = {
    "complementable": lambda i: partition(*complementable_instance(np.random.default_rng([11, i]))),
    "psd": lambda i: partition(
        rand_psd(np.random.default_rng([12, i]), 6, 3), *[_coord_projector(6, 2)] * 2
    ),
    "kit": lambda i: partition(make_kit(16).bigT, kit_block_projector(16), kit_block_projector(16)),
    "tiny_t22": lambda i: partition(*_tiny_t22_instance()),
    "two_rules": lambda i: _two_rule_block(False, False),
}


@pytest.mark.parametrize("case", sorted(_MODE_CASES))
def test_shorted_mode_is_the_strong_verdict(case):
    # shorted reads mode from the verdicts that systems 1 and 4 cached; on a
    # fresh partition of the same operator, is_complementable solves the
    # strong systems on its own
    build = _MODE_CASES[case]
    for i in range(8 if case in ("complementable", "psd") else 1):
        mode = shorted(build(i)).mode
        strong = is_complementable(build(i)).complementable
        assert mode == ("complementable" if strong else "weakly_complementable")


def test_shorted_takes_one_svd_of_t22(monkeypatch):
    # 9 x 7 T with dim M = 3 and dim N = 2, so T22 is 7 x 4 and no corner
    # has T's shape; T21 = T22 K keeps the partition complementable
    t22 = rand_complex(RNG, 7, 4)
    inner = np.block(
        [[rand_complex(RNG, 2, 3), rand_complex(RNG, 2, 4)], [t22 @ rand_complex(RNG, 4, 3), t22]]
    )
    q, w = rand_unitary(RNG, 7), rand_unitary(RNG, 9)
    t = w @ inner @ q.conj().T
    pm = q[:, :3] @ q[:, :3].conj().T
    pn = w[:, :2] @ w[:, :2].conj().T
    block = partition(t, (pm + pm.conj().T) / 2.0, (pn + pn.conj().T) / 2.0)
    calls = record_svd(monkeypatch)
    result = shorted(block)
    # T22, ||T21|| and ||T12||: the Frobenius bounds settle every margin,
    # which is computed only when read, and mode reads the strong verdicts
    # that systems 1 and 4 cached
    assert len(calls) == 3
    factored = [m for m, uv in calls if uv]
    assert len(factored) == 1 and np.array_equal(factored[0], block.T22)
    assert all(m.shape not in (t.shape, t.T.shape) for m, _ in calls)
    # the factor, the verdicts and ||T21||, ||T12|| stay with the block, and
    # the two rank rules read them; each margin costs one norm, on first read
    calls.clear()
    weak_complement_data(block)
    is_complementable(block)
    assert shorting._ranks(block, DEFAULT_TOL) == (4, 4)
    assert not calls
    # equal ranks: systems 1 and 3 share the T21 verdict, 2 and 4 the T12* one
    assert len(result.witnesses.residuals) == 4 and len(calls) == 2
    assert len(is_complementable(block).margins) == 2 and len(calls) == 2
    assert not [uv for _, uv in calls if uv]
    assert result.mode == "complementable"


@pytest.mark.parametrize("same_projector", [True, False])
def test_equal_right_hand_sides_share_one_norm(monkeypatch, same_projector):
    # exactly Hermitian T with gathered corners and PM = PN has T12* = T21,
    # so ||T12|| is ||T21||: one SVD fewer; with PN != PM the norms are two
    t = rand_psd(RNG, 6)
    t = (t + t.conj().T) / 2.0
    pm = _coord_projector(6, 2)
    pn = pm if same_projector else np.diag([0.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    block = partition(t, pm, pn)
    assert np.array_equal(block.T12.conj().T, block.T21) == same_projector
    calls = record_svd(monkeypatch)
    sides = block._sides
    # the factor of T22 and the norms
    assert len(calls) == (2 if same_projector else 3)
    assert sides[0][2] == opnorm(block.T21)
    assert sides[1][2] == opnorm(block.T12.conj().T)


def test_round_off_t22_has_rank_zero():
    # R(T) lies in N, so T21 and T22 vanish in exact arithmetic while T12
    # does not: T22* D = T12* and systems 2 and 4 have no solution
    rng = np.random.default_rng(0)
    pm, pn = rand_projector(rng, 8, 5), rand_projector(rng, 8, 3)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    block = partition(pn @ x, pm, pn)
    s = np.linalg.svd(block.T22, compute_uv=False)
    assert s.max() < 1e-14 and opnorm(block.T12) > 1.0
    assert shorting._ranks(block, DEFAULT_TOL) == (0, 0)
    assert not is_complementable(block).complementable
    with pytest.raises(NotWeaklyComplementable) as err:
        shorted(block)
    assert err.value.failing == (2, 4)


@pytest.mark.parametrize("factor,counted", [(2.0, True), (0.5, False)])
def test_rank_cutoff_is_anchored_to_the_corners(factor, counted):
    # ||T12|| = 10 sigma_1(T22) sets the scale of the rank_rel rule
    tol = DEFAULT_TOL
    tail = factor * tol.rank_rel * 10.0
    t = np.zeros((3, 4))
    t[0, 1] = 10.0
    t[1, 1], t[2, 2] = 1.0, tail
    block = partition(t, _coord_projector(4, 1), _coord_projector(3, 1))
    assert opnorm(block.T12) == 10.0 * np.linalg.svd(block.T22, compute_uv=False)[0]
    # the half-power rule keeps its clamp at eig_clamp_rel * sigma_1
    assert shorting._ranks(block, tol) == (1 + counted, 1)


# --- shorted operator ----------------------------------------------------------------


def test_shorted_psd_2x2():
    t = np.array([[2.0, 1.0], [1.0, 1.0]])
    result = shorted(partition(t, _coord_projector(2, 1), _coord_projector(2, 1)))
    assert_allclose(result.core, [[1.0]], atol=1e-12)
    assert_allclose(result.shorted, np.diag([1.0, 0.0]), atol=1e-12)
    assert result.mode == "complementable"


def test_shorted_recovers_scalar_parallel_sum():
    # [[a, a], [a, a + b]] shorted to the first coordinate leaves ab/(a+b)
    t = np.array([[1.0, 1.0], [1.0, 2.0]])
    result = shorted(partition(t, _coord_projector(2, 1), _coord_projector(2, 1)))
    assert_allclose(result.core, [[0.5]], atol=1e-12)


def test_shorted_vanishes_on_kit():
    kit = make_kit(8)
    block = partition(kit.bigT, kit_block_projector(8), kit_block_projector(8))
    result = shorted(block)
    assert opnorm(result.shorted) <= 1e-10


def test_shorted_matches_schur_complement_on_psd():
    for trial in range(5):
        a = rand_psd(RNG, 6)
        p = rand_projector(RNG, 6, int(RNG.integers(1, 6)))
        block = partition(a, p, p)
        result = shorted(block)
        schur = block.T11 - block.T12 @ pseudo_inverse(block.T22) @ block.T21
        assert opnorm(result.core - schur) <= 1e-8 * max(opnorm(a), 1.0)


def test_shorted_compresses_between_projectors():
    t, pm, pn = complementable_instance(RNG)
    result = shorted(partition(t, pm, pn))
    s = result.shorted
    assert opnorm(pn @ s @ pm - s) <= 1e-10 * max(opnorm(t), 1.0)


def test_shorted_duality():
    t, pm, pn = complementable_instance(RNG)
    fwd = shorted(partition(t, pm, pn)).shorted
    rev = shorted(partition(t.conj().T, pn, pm)).shorted
    assert opnorm(rev - fwd.conj().T) <= 1e-9 * max(opnorm(t), 1.0)


def test_shorted_matches_idempotent_compression():
    # independent route: for a complementable pair the shorted operator is
    # the compression Q T P by the canonical idempotents
    t, pm, pn = complementable_instance(RNG)
    block = partition(t, pm, pn)
    result = shorted(block)
    verdict = is_complementable(block)
    pw, qw = complementable_idempotents(block, verdict.C, verdict.D)
    assert result.mode == "complementable"
    assert opnorm(result.shorted - qw @ t @ pw) <= 1e-8 * max(opnorm(t), 1.0)


def test_shorted_identity_is_projector():
    p = rand_projector(RNG, 5, 3)
    result = shorted(partition(np.eye(5), p, p))
    assert opnorm(result.shorted - p) <= 1e-10


# --- range / kernel bookkeeping -------------------------------------------------------


def test_range_kernel_on_identity():
    p = rand_projector(RNG, 6, 2)
    block = partition(np.eye(6), p, p)
    report = verify_range_kernel(block, shorted(block))
    assert report.rank_shorted == 2
    assert report.rank_range_intersection == 2
    assert report.rank_kernel_shorted == 4
    assert report.range_equal and report.kernel_equal


def test_range_kernel_on_vanishing_shorted():
    kit = make_kit(8)
    block = partition(kit.bigT, kit_block_projector(8), kit_block_projector(8))
    report = verify_range_kernel(block, shorted(block))
    assert report.rank_shorted == 0
    assert report.rank_range_intersection == 0
    assert report.range_equal and report.kernel_equal


def test_range_kernel_on_random_complementable():
    for trial in range(5):
        t, pm, pn = complementable_instance(RNG)
        block = partition(t, pm, pn)
        report = verify_range_kernel(block, shorted(block))
        assert report.range_equal
        assert report.kernel_equal
        assert report.rank_shorted == report.rank_range_intersection


def _reference_range_kernel(block, result, tol=DEFAULT_TOL):
    """The stacked-projector route verify_range_kernel used to take: R(T)
    intersect N as the joint nullspace of [I - P_R(T); I - P_N], and each
    subspace pair compared through ||P1 - P2||."""

    def nullspace(m):
        # the stack has norm at most sqrt(2), so the cutoff scale is 1: a
        # stack that is pure round-off (R(T) = N = the codomain) has no rank
        _, s, vh = np.linalg.svd(m)
        return vh[shorting._rank(s, tol, 1.0) :].conj().T

    def same(b1, b2):
        if b1.shape[1] != b2.shape[1]:
            return False
        return b1.shape[1] == 0 or opnorm(b1 @ b1.conj().T - b2 @ b2.conj().T) <= 1e-6

    u_t, s_t, vh_t = np.linalg.svd(block.T)
    rank_t = shorting._rank(s_t, tol)
    p_range = u_t[:, :rank_t] @ u_t[:, :rank_t].conj().T
    eye = np.eye(block.T.shape[0])
    inter = nullspace(np.vstack([eye - (p_range + p_range.conj().T) / 2.0, eye - block.PN]))
    u, s, vh = np.linalg.svd(result.shorted)
    rank_short = shorting._rank(s, tol, float(max(s_t.max(initial=0.0), s.max(initial=0.0))))
    ker_short = vh[rank_short:].conj().T
    us, ss, _ = np.linalg.svd(np.hstack([block.basis_m_perp, vh_t[rank_t:].conj().T]), full_matrices=False)
    rank_sum = shorting._rank(ss, tol)
    return shorting.RangeKernelReport(
        rank_T=rank_t,
        rank_shorted=rank_short,
        rank_range_intersection=inter.shape[1],
        rank_kernel_shorted=ker_short.shape[1],
        rank_kernel_sum=rank_sum,
        range_equal=rank_short == inter.shape[1] and same(inter, u[:, :rank_short]),
        kernel_equal=same(ker_short, us[:, :rank_sum]),
    )


def _range_kernel_cases():
    n = 8
    p3 = rand_projector(RNG, n, 3)
    yield "random complementable", *complementable_instance(RNG)
    # rank 5 of 8: a rank-deficient T with R(T) meeting N in a 1-dim subspace
    psd = rand_psd(RNG, n, 5)
    p4 = rand_projector(RNG, n, 4)
    yield "rank-deficient T", psd, p4, p4
    # rank 3 with R(T) inside a 4-dim N and M_perp inside N(T), so the
    # shorted operator is T itself and basis_n_perp* U_r is pure round-off
    p4n, p5 = rand_projector(RNG, n, 4), rand_projector(RNG, n, 5)
    yield "range inside N", p4n @ rand_complex(RNG, n, 3) @ rand_complex(RNG, 3, n) @ p5, p5, p4n
    # rank 2 against a generic 3-dim N in 8 dimensions: R(T) meets N in {0}
    yield "trivial intersection", rand_complex(RNG, n, 2) @ rand_complex(RNG, 2, n), p3, p3
    kit = make_kit(4)
    yield "kit", kit.bigT, kit_block_projector(4), kit_block_projector(4)
    rng = np.random.default_rng(775)
    # real 5 x 7 of rank 4, with M and N real; T22 is a generic 3 x 3
    qm, qn = np.linalg.qr(rng.normal(size=(7, 4)))[0], np.linalg.qr(rng.normal(size=(5, 2)))[0]
    t = rng.normal(size=(5, 4)) @ rng.normal(size=(4, 7))
    yield "rectangular real", t, qm @ qm.T, qn @ qn.T
    # real 3 x 4 of rank 3, so R(T) is the codomain; with N the codomain and
    # M = R(T*), the shorted operator is T and R(T) intersect N is everything
    t = rng.normal(size=(3, 4))
    q = np.linalg.qr(t.T)[0]
    yield "range is the codomain", t, q @ q.T, np.eye(3)


@pytest.mark.parametrize("case", range(7))
def test_range_kernel_matches_stacked_projector_route(case):
    name, t, pm, pn = list(_range_kernel_cases())[case]
    block = partition(t, pm, pn)
    result = shorted(block)
    report = verify_range_kernel(block, result)
    assert report == _reference_range_kernel(block, result), name
    assert report.range_equal and report.kernel_equal, name
    expected_inter = {"range inside N": report.rank_T, "trivial intersection": 0, "range is the codomain": 3}
    if name in expected_inter:
        assert report.rank_range_intersection == expected_inter[name]


def test_range_kernel_takes_no_stacked_svd(monkeypatch):
    t, pm, pn = complementable_instance(np.random.default_rng(11), max_dim=12)
    block = partition(t, pm, pn)
    result = shorted(block)
    calls = record_svd(monkeypatch)
    verify_range_kernel(block, result)
    k = t.shape[0]
    # T, the shorted operator and the two sine factors: R(T) against N and
    # R(T*) against M; the subspace comparisons settle from Frobenius bounds
    assert len(calls) == 4
    assert all(m.shape != (2 * k, k) for m, _ in calls)

