import numpy as np
import pytest
from numpy.testing import assert_allclose

from opshort import (
    DEFAULT_TOL,
    hansen_inequality_check,
    herm_eig,
    lemma_69_check,
    make_kit,
    numerical_rank,
    opnorm,
    parallel_sum,
    psd_power,
    regularized_trend,
    solve_parallel_equation,
)
from opshort import parallel
from opshort.douglas import _solve
from opshort.errors import NotHermitian, NotPSD, NotPositiveDefinite, ShapeMismatch
from opshort.numkit import _herm, _svd_factor

from _util import rand_pd, rand_psd, rand_unitary, record_linalg, record_svd

RNG = np.random.default_rng(5005)


def _scalar(x):
    return np.array([[float(x)]])


# --- parallel_sum: values ----------------------------------------------------------


@pytest.mark.parametrize("a,b", [(2.0, 2.0), (1.0, 2.0), (3.0, 5.0)])
def test_scalar_parallel_sum(a, b):
    result = parallel_sum(_scalar(a), _scalar(b))
    assert abs(result.value[0, 0] - a * b / (a + b)) <= 1e-12
    assert result.route == "shorted_block"


def test_parallel_sum_with_zero_vanishes():
    a = rand_psd(RNG, 4)
    result = parallel_sum(a, np.zeros((4, 4)))
    assert opnorm(result.value) <= 1e-10 * opnorm(a)


def test_parallel_sum_with_itself_halves():
    a = rand_psd(RNG, 5)
    result = parallel_sum(a, a)
    assert opnorm(result.value - a / 2.0) <= 1e-9 * opnorm(a)


def test_parallel_sum_symmetry():
    a = rand_psd(RNG, 5)
    b = rand_psd(RNG, 5, rank=3)
    ab = parallel_sum(a, b).value
    ba = parallel_sum(b, a).value
    assert opnorm(ab - ba) <= 1e-9 * max(opnorm(a) + opnorm(b), 1.0)


def test_parallel_sum_below_both_summands():
    for trial in range(5):
        n = int(RNG.integers(2, 9))
        a = rand_psd(RNG, n)
        b = rand_psd(RNG, n, rank=int(RNG.integers(1, n + 1)))
        value = parallel_sum(a, b).value
        for side in (a, b):
            gap = np.linalg.eigvalsh((side - value + (side - value).conj().T) / 2.0)
            assert gap.min() >= -1e-8 * opnorm(side)


def test_parallel_sum_result_is_psd():
    a = rand_psd(RNG, 6, rank=3)
    b = rand_psd(RNG, 6, rank=4)
    value = parallel_sum(a, b).value
    assert np.linalg.eigvalsh(value).min() >= -1e-14
    assert opnorm(value - value.conj().T) <= 1e-14


def test_parallel_sum_pd_inverse_route():
    a = rand_pd(RNG, 6)
    b = rand_pd(RNG, 6)
    result = parallel_sum(a, b)
    scale = opnorm(a) + opnorm(b)
    assert result.route_agreement <= 1e-8 * scale
    direct = np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
    assert opnorm(result.value - direct) <= 1e-8 * scale


def test_parallel_sum_vanishes_on_kit():
    kit = make_kit(64)
    assert opnorm(parallel_sum(kit.A0, kit.B0).value) <= 1e-10


def test_parallel_sum_regularization_trend():
    # the deviation of (A + eps)(B + eps) from the limit shrinks with eps
    kit = make_kit(8)
    reg = regularized_trend(kit.A0, kit.B0, parallel_sum(kit.A0, kit.B0).value)
    assert set(reg) == {1e-4, 1e-6}
    assert reg[1e-6] < reg[1e-4]

    a, b = rand_pd(RNG, 5), rand_pd(RNG, 5)
    reg = regularized_trend(a, b, parallel_sum(a, b).value)
    assert reg[1e-6] < reg[1e-4]


def test_parallel_sum_computes_no_inverse_on_singular_summands(monkeypatch):
    # the inverse formula runs only as the cross-check on positive definite
    # pairs; the regularized trend is computed on request, not per call
    kit = make_kit(8)
    calls = []
    real = np.linalg.inv

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(np.linalg, "inv", counting)
    parallel_sum(kit.A0, kit.B0)
    assert calls == []


def test_parallel_sum_of_a_singular_real_pair_takes_one_svd(monkeypatch):
    # the SVD of T22 = A + B alone: ||T21|| = ||A|| comes from A's
    # eigenvalues, no margin is read, and a singular pair runs no cross-check
    rng = np.random.default_rng(5151)
    x, y = rng.normal(size=(12, 8)), rng.normal(size=(12, 8))
    a, b = x @ x.T, y @ y.T
    calls = record_svd(monkeypatch)
    value = parallel_sum(a, b).value
    assert len(calls) == 1 and calls[0][1] and np.array_equal(calls[0][0], a + b)
    assert value.dtype == np.float64
    # the seeded ||T21|| = ||T12|| is ||A||
    blk = parallel._parallel_core(*parallel._psd_pair(a, b, DEFAULT_TOL), DEFAULT_TOL)[1]
    assert [side[2] for side in blk._sides] == pytest.approx([opnorm(a)] * 2, rel=1e-14)


def test_parallel_sum_range_intersection_rank():
    # R(A : B) = R(A) intersect R(B): build summands sharing an exact
    # two-dimensional overlap of eigenvectors
    q = rand_unitary(RNG, 8)
    wa = RNG.uniform(0.5, 2.0, size=5)
    wb = RNG.uniform(0.5, 2.0, size=5)
    a = (q[:, :5] * wa) @ q[:, :5].conj().T
    b = (q[:, 3:] * wb) @ q[:, 3:].conj().T
    value = parallel_sum(a, b).value
    assert numerical_rank(value) == 2


def test_parallel_sum_rejects_bad_inputs():
    with pytest.raises(NotPSD):
        parallel_sum(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(NotPSD):
        parallel_sum(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ShapeMismatch):
        parallel_sum(np.eye(2), np.eye(3))


# --- Hansen-type inequality -----------------------------------------------------------


def test_hansen_zero_probe_reduces_to_monotonicity():
    a = rand_psd(RNG, 5)
    b = rand_psd(RNG, 5)
    lam = hansen_inequality_check(a, b, np.zeros((5, 5)))
    assert lam >= -1e-8 * (opnorm(a) + opnorm(b))


def test_hansen_equality_at_optimal_probe():
    a = rand_pd(RNG, 5)
    b = rand_pd(RNG, 5)
    c = np.linalg.inv(a + b) @ b
    lam = hansen_inequality_check(a, b, c)
    scale = opnorm(a) + opnorm(b)
    assert lam >= -1e-9 * scale
    # equality, not just nonnegativity: the whole difference collapses
    eye = np.eye(5)
    attained = c.conj().T @ a @ c + (eye - c).conj().T @ b @ (eye - c)
    assert opnorm(attained - parallel_sum(a, b).value) <= 1e-9 * scale


def test_hansen_random_probes_stay_nonnegative():
    a = rand_psd(RNG, 4)
    b = rand_psd(RNG, 4, rank=2)
    scale = opnorm(a) + opnorm(b)
    for trial in range(50):
        c = (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))) / 2.0
        assert hansen_inequality_check(a, b, c) >= -1e-8 * scale


def test_hansen_rejects_mismatched_probe():
    with pytest.raises(ShapeMismatch):
        hansen_inequality_check(np.eye(3), np.eye(3), np.eye(2))


# --- inverse-shift inequality -----------------------------------------------------------


def test_lemma69_midpoint_is_equality_case():
    result = lemma_69_check(np.eye(3), np.eye(3) / 2.0)
    assert result.lambda_min == pytest.approx(0.0, abs=1e-14)
    assert result.equality_gap == pytest.approx(0.0, abs=1e-14)


def test_lemma69_identity_probe():
    result = lemma_69_check(np.eye(3), np.eye(3))
    assert result.lambda_min == pytest.approx(0.5, abs=1e-12)
    assert result.equality_gap == pytest.approx(0.5, abs=1e-12)


def test_lemma69_equality_at_resolvent():
    x = rand_pd(RNG, 6)
    y = np.linalg.inv(np.eye(6) + x)
    result = lemma_69_check(x, y)
    assert result.equality_gap <= 1e-12
    assert abs(result.lambda_min) <= 1e-10


def test_lemma69_difference_is_a_square():
    # the slack factors as T* T with
    # T = (I + X^-1)^(1/2) Y - X^-1 (I + X^-1)^(-1/2), for every Y; its
    # smallest eigenvalue is an independent route to lambda_min
    x = rand_pd(RNG, 5)
    xinv = np.linalg.inv(x)
    shift = np.eye(5) + xinv
    root = psd_power(shift, 0.5)
    for trial in range(5):
        y = RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5))
        t = root @ y - xinv @ np.linalg.inv(root)
        expected = float(np.linalg.eigvalsh(t.conj().T @ t).min())
        got = lemma_69_check(x, y).lambda_min
        assert got >= -1e-10
        assert abs(got - expected) <= 1e-8 * max(opnorm(y) ** 2, 1.0)


def test_lemma69_rejects_bad_x():
    with pytest.raises(NotPositiveDefinite):
        lemma_69_check(np.diag([1.0, 0.0]), np.eye(2))  # singular
    with pytest.raises(NotPositiveDefinite):
        lemma_69_check(np.diag([1.0, -2.0]), np.eye(2))  # indefinite
    with pytest.raises(NotPositiveDefinite):
        lemma_69_check(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))


def _skewed_pd(c, n=16):
    """PD-Hermitian-part M with ||M - M*|| = c * residual_rel * ||M||.

    The Hermitian part has eigenvalue 1 over a floor of 1e-2, so ||M||_F is
    close to ||M|| = 1; the skew part has rank 2 and lives below the top
    eigenvector.  At n = 16 the Frobenius bounds settle neither c = 2 nor
    c = 0.5, so the exact operator-norm comparison decides.
    """
    rel = DEFAULT_TOL.residual_rel
    q = rand_unitary(RNG, n)
    w = np.full(n, 1e-2)
    w[0] = 1.0
    pair = np.outer(q[:, 1], q[:, 2].conj())
    skew = 0.5j * c * rel * (pair + pair.conj().T)
    m = (q * w) @ q.conj().T + skew
    diff_fro = np.linalg.norm(m - m.conj().T)
    m_fro = np.linalg.norm(m)
    assert rel * m_fro / np.sqrt(n) < diff_fro <= np.sqrt(n) * rel * m_fro
    assert opnorm(m - m.conj().T) == pytest.approx(c * rel * opnorm(m), rel=1e-6)
    return m


@pytest.mark.parametrize("c,accepted", [(2.0, False), (0.5, True)])
def test_hermitian_validator_edge(c, accepted):
    m = _skewed_pd(c)
    n = m.shape[0]
    b = rand_pd(RNG, n)
    eye = np.eye(n)
    calls = (
        (lambda: herm_eig(m), NotHermitian),
        (lambda: psd_power(m, 0.5), NotHermitian),
        (lambda: parallel_sum(m, b), NotPSD),
        (lambda: regularized_trend(m, b, eye), NotPSD),
        (lambda: solve_parallel_equation(m, b), NotPSD),
        (lambda: hansen_inequality_check(m, b, eye), NotPSD),
        (lambda: lemma_69_check(m, eye), NotPositiveDefinite),
    )
    for call, error in calls:
        if accepted:
            call()
        else:
            with pytest.raises(error, match="not Hermitian"):
                call()


@pytest.mark.parametrize("c,accepted", [(2.0, False), (0.5, True)])
def test_psd_negativity_edge(c, accepted):
    # lambda_min = -c * clamp with clamp = eig_clamp_rel * max|lambda| and
    # max|lambda| = 1; every PSD entry point applies the one rule
    n = 6
    q = rand_unitary(RNG, n)
    w = np.linspace(1.0, 0.1, n)
    w[-1] = -c * DEFAULT_TOL.eig_clamp_rel
    m = _herm((q * w) @ q.conj().T)
    assert np.linalg.eigvalsh(m)[0] == pytest.approx(w[-1], rel=1e-4)
    b = rand_pd(RNG, n)
    eye = np.eye(n)
    calls = (
        lambda: psd_power(m, 0.5),
        lambda: parallel_sum(m, b),
        lambda: solve_parallel_equation(m, b),
        lambda: hansen_inequality_check(m, b, eye),
        lambda: regularized_trend(m, b, eye),
    )
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(NotPSD, match="below the PSD clamp"):
                call()


def test_lemma69_rejects_mismatched_y():
    with pytest.raises(ShapeMismatch):
        lemma_69_check(np.eye(3), np.eye(4))


# --- variational equation -----------------------------------------------------------------


def test_equation_identity_pair():
    sol = solve_parallel_equation(np.eye(4), np.eye(4))
    assert_allclose(sol.X, np.eye(4) / 2.0, atol=1e-12)
    assert sol.norm == pytest.approx(0.5, abs=1e-12)


def test_equation_pd_closed_form():
    a = rand_pd(RNG, 5)
    b = rand_pd(RNG, 5)
    sol = solve_parallel_equation(a, b)
    assert opnorm(sol.X - np.linalg.inv(a + b) @ b) <= 1e-9
    keys = set(sol.diagnostics)
    assert keys == {"equation_residual", "solve_residual", "norm_X", "cond_on_range"}
    assert sol.diagnostics["equation_residual"] <= 1e-8 * (opnorm(a) + opnorm(b))
    assert sol.diagnostics["cond_on_range"] == pytest.approx(
        np.linalg.cond(a + b), rel=1e-6
    )


def test_equation_solution_is_strict_minimizer():
    # moving off the solution by 1e-3 pushes the attained form visibly off
    # the parallel sum: the gap grows quadratically through E* (A+B) E
    a = rand_pd(RNG, 4)
    b = rand_pd(RNG, 4)
    sol = solve_parallel_equation(a, b)
    ps = parallel_sum(a, b).value
    eye = np.eye(4)
    x = sol.X + 1e-3 * np.eye(4)
    attained = x.conj().T @ a @ x + (eye - x).conj().T @ b @ (eye - x)
    assert opnorm(attained - ps) > 1e-7


def test_equation_norm_diverges_on_kit():
    kit = make_kit(16)
    sol = solve_parallel_equation(kit.A0, kit.B0)
    assert abs(sol.norm - np.sqrt(1.0 + 16.0**2)) <= 1e-8
    assert sol.diagnostics["equation_residual"] <= 1e-8 * (
        opnorm(kit.A0) + opnorm(kit.B0)
    )


def test_equation_rejects_bad_inputs():
    with pytest.raises(NotPSD):
        solve_parallel_equation(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ShapeMismatch):
        solve_parallel_equation(np.eye(2), np.eye(3))


def _reference_equation(a, b):
    """solve_parallel_equation with its own SVD of A + B, the route taken
    before the solve read the partition behind A : B."""
    ah, wa, bh, wb = parallel._psd_pair(a, b, DEFAULT_TOL)
    total = ah + bh
    f = _svd_factor(total)
    sol = _solve(total, f, bh, DEFAULT_TOL)
    x = sol.D
    eye = np.eye(ah.shape[0])
    attained = x.conj().T @ ah @ x + (eye - x).conj().T @ bh @ (eye - x)
    r = f.rank(DEFAULT_TOL)
    return x, {
        "equation_residual": opnorm(attained - parallel_sum(ah, bh).value),
        "solve_residual": sol.residual,
        "norm_X": opnorm(x),
        "cond_on_range": float(f.s[0] / f.s[r - 1]),
    }


@pytest.mark.parametrize("kind", ["pd", "singular"])
def test_equation_factors_a_plus_b_once(kind, monkeypatch):
    n = 32
    rank = n if kind == "pd" else 3 * n // 4
    a, b = _herm(rand_psd(RNG, n, rank)), _herm(rand_psd(RNG, n, rank))
    x_ref, diag_ref = _reference_equation(a, b)
    svds = record_svd(monkeypatch)
    invs = record_linalg(monkeypatch, "inv")
    eigs = record_linalg(monkeypatch, "eigvalsh")
    sol = solve_parallel_equation(a, b)
    total = a + b
    assert sum(uv and np.array_equal(m, total) for m, uv in svds) == 1
    assert invs == []
    # A and B are validated once each
    assert [m.shape for m, _ in eigs] == [(n, n), (n, n)]
    assert np.array_equal(sol.X, x_ref)
    assert sol.diagnostics == diag_ref


def test_hansen_check_validates_once_without_the_cross_check(monkeypatch):
    a, b = rand_pd(RNG, 8), rand_pd(RNG, 8)
    c = rand_pd(RNG, 8)
    expected = hansen_inequality_check(a, b, c)
    invs = record_linalg(monkeypatch, "inv")
    eigs = record_linalg(monkeypatch, "eigvalsh")
    assert hansen_inequality_check(a, b, c) == expected
    assert invs == []
    # one per operand and one for the probe
    assert len(eigs) == 3
