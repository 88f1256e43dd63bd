import numpy as np
import pytest
from numpy.testing import assert_allclose

from opshort import (
    DEFAULT_ALPHA,
    absolute_value,
    gpolar,
    gpolar_iterative,
    numerical_rank,
    opnorm,
    polar_decompose,
    psd_power,
    range_projector,
    v_operator,
)
from opshort.errors import AlphaOutOfRange

from _util import rand_complex, rand_fullrank, rand_psd, rand_unitary

RNG = np.random.default_rng(2002)

REL = 1e-9


def _close(lhs, rhs, rel=REL):
    return opnorm(np.asarray(lhs) - np.asarray(rhs)) <= rel * max(opnorm(rhs), 1.0)


def _rank_deficient(rng, rows, cols, rank):
    return rand_complex(rng, rows, rank) @ rand_complex(rng, rank, cols)


# --- classical polar ------------------------------------------------------------


def test_polar_single_entry():
    t = np.array([[0.0, 0.0], [1.0, 0.0]])
    form = polar_decompose(t)
    assert form.alpha == 1.0
    assert_allclose(form.U, t, atol=1e-14)  # already a partial isometry
    assert_allclose(form.absT, np.diag([1.0, 0.0]), atol=1e-14)


def test_polar_invertible_gives_unitary():
    t = rand_fullrank(RNG, 6)
    form = polar_decompose(t)
    assert _close(form.U @ form.U.conj().T, np.eye(6))
    assert _close(form.U.conj().T @ form.U, np.eye(6))
    assert _close(form.U @ form.absT, t)


def test_polar_partial_isometry_on_rank_deficient():
    t = _rank_deficient(RNG, 6, 4, 2)
    form = polar_decompose(t)
    assert opnorm(form.U.conj().T @ form.U - range_projector(t.conj().T)) <= 1e-10
    assert opnorm(form.U @ form.U.conj().T - range_projector(t)) <= 1e-10
    assert _close(form.U @ form.absT, t)
    assert _close(form.absT, absolute_value(t, "right"))


def test_default_alpha_value():
    assert DEFAULT_ALPHA == 0.75


# --- generalized polar ------------------------------------------------------------


def test_gpolar_scalar():
    form = gpolar(np.array([[4.0]]), 0.5)
    assert_allclose(form.U, [[2.0]], atol=1e-12)
    assert_allclose(form.absT, [[4.0]], atol=1e-12)


def test_gpolar_of_unitary_is_identity_on_factor():
    w = rand_unitary(RNG, 5)
    for alpha in (0.25, 0.5, 0.75):
        assert _close(gpolar(w, alpha).U, w, rel=1e-11)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75])
def test_gpolar_identity_families(alpha):
    # reconstruction, gram, and intertwining identities on mixed shapes
    for trial in range(10):
        rows = int(RNG.integers(2, 9))
        cols = int(RNG.integers(2, 9))
        rank = int(RNG.integers(1, min(rows, cols) + 1))
        t = _rank_deficient(RNG, rows, cols, rank)
        form = gpolar(t, alpha)
        u, abst = form.U, form.absT
        abst_star = absolute_value(t, "left")

        assert _close(u @ psd_power(abst, alpha), t)
        assert _close(
            u.conj().T @ psd_power(abst_star, alpha), t.conj().T
        )
        assert _close(u.conj().T @ u, psd_power(abst, 2.0 * (1.0 - alpha)))
        assert _close(u @ u.conj().T, psd_power(abst_star, 2.0 * (1.0 - alpha)))
        for beta in (0.5, 1.0, 2.0):
            assert _close(
                u @ psd_power(abst, beta), psd_power(abst_star, beta) @ u
            )


def test_gpolar_approaches_classical_factor():
    t = rand_fullrank(RNG, 6)
    u_limit = polar_decompose(t).U
    gaps = [opnorm(gpolar(t, a).U - u_limit) for a in (0.9, 0.99)]
    assert gaps[1] < gaps[0]
    assert gaps[1] <= 0.1


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.5])
def test_gpolar_rejects_alpha_outside_open_interval(alpha):
    with pytest.raises(AlphaOutOfRange):
        gpolar(np.eye(2), alpha)
    with pytest.raises(AlphaOutOfRange):
        gpolar_iterative(np.eye(2), alpha, 5)


@pytest.mark.parametrize(
    "alpha,accepted",
    [(True, False), (np.float16(0.5), True), (np.float32(0.5), True), (np.float64(0.5), True), (0.5, True)],
    ids=["True", "float16", "float32", "float64", "0.5"],
)
def test_alpha_types(alpha, accepted):
    # numpy reals are alphas, as they are exponents to psd_power; a bool is not
    t = np.diag([2.0, 1.0])
    if accepted:
        assert np.array_equal(gpolar(t, alpha).U, gpolar(t, 0.5).U)
        assert gpolar(t, alpha).alpha == 0.5
        assert np.array_equal(gpolar_iterative(t, alpha, 3), gpolar_iterative(t, 0.5, 3))
    else:
        with pytest.raises(AlphaOutOfRange, match="alpha must lie in"):
            gpolar(t, alpha)
        with pytest.raises(AlphaOutOfRange, match="alpha must lie in"):
            gpolar_iterative(t, alpha, 3)


# --- iterative approximation -------------------------------------------------------


def test_iterative_scalar_closed_form():
    # T = 1, alpha = 1/2: U_n = (n / (n + 1))^(1/2)
    for n in (1, 10, 100):
        got = gpolar_iterative(np.array([[1.0]]), 0.5, n)
        assert abs(got[0, 0] - np.sqrt(n / (n + 1.0))) <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_iterative_psd_diagonal_entrywise(alpha):
    d = np.array([2.0, 1.0, 0.25, 0.0])
    t = np.diag(d)
    for n in (1, 7, 40):
        expected = np.diag(
            d * (1.0 / n + d**2) ** -0.5 * d ** (1.0 - alpha)
        )
        assert_allclose(gpolar_iterative(t, alpha, n), expected, atol=1e-12)


def test_iterative_error_shrinks_tenfold_per_decade():
    t = rand_fullrank(RNG, 5, smin=0.5, smax=2.0)
    u_inf = gpolar(t, 0.5).U
    errs = [opnorm(gpolar_iterative(t, 0.5, n) - u_inf) for n in (100, 1000, 10000)]
    for big, small in zip(errs, errs[1:]):
        assert 0.05 <= small / big <= 0.15


def test_iterative_error_monotone():
    t = rand_fullrank(RNG, 4)
    u_inf = gpolar(t, 0.75).U
    errs = [opnorm(gpolar_iterative(t, 0.75, n) - u_inf) for n in range(1, 30)]
    assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))


def test_iterative_rectangular_matches_direct_formula():
    # oracle: apply the defining formula directly on the rectangular matrix,
    # with its own eigendecomposition of T*T
    t = rand_complex(RNG, 7, 4)
    alpha, n = 0.6, 25
    gram = t.conj().T @ t
    gram = (gram + gram.conj().T) / 2.0
    w, v = np.linalg.eigh(gram)
    w = np.maximum(w, 0.0)
    direct = t @ (
        (v * ((1.0 / n + w) ** -0.5 * w ** ((1.0 - alpha) / 2.0))) @ v.conj().T
    )
    assert_allclose(gpolar_iterative(t, alpha, n), direct, atol=1e-12)


def test_iterative_converges_to_gpolar_factor():
    t = _rank_deficient(RNG, 5, 5, 3)  # nontrivial kernel still converges
    u = gpolar(t, 0.5).U
    assert opnorm(gpolar_iterative(t, 0.5, 10**6) - u) <= 1e-4


@pytest.mark.parametrize("n", [0, -1, 2.5])
def test_iterative_rejects_bad_index(n):
    with pytest.raises(ValueError):
        gpolar_iterative(np.eye(2), 0.5, n)


@pytest.mark.parametrize(
    "n,accepted",
    [(True, False), (np.bool_(True), False), (np.int64(2), True), (np.float64(2.0), False), (2.0, False)],
    ids=["True", "bool_", "int64", "float64", "2.0"],
)
def test_iterative_index_types(n, accepted):
    # a bool is not an index (True used to run n = 1); numpy integers are
    t = np.diag([2.0, 1.0])
    if accepted:
        assert np.array_equal(gpolar_iterative(t, 0.5, n), gpolar_iterative(t, 0.5, 2))
    else:
        with pytest.raises(ValueError, match="iteration index must be an integer >= 1"):
            gpolar_iterative(t, 0.5, n)


# --- canonical half-power factor ----------------------------------------------------


def test_v_operator_identities():
    for trial in range(10):
        rows = int(RNG.integers(2, 9))
        cols = int(RNG.integers(2, 9))
        rank = int(RNG.integers(1, min(rows, cols) + 1))
        t = _rank_deficient(RNG, rows, cols, rank)
        v = v_operator(t)
        abst = absolute_value(t, "right")
        abst_star = absolute_value(t, "left")
        assert _close(v.conj().T @ v, abst)
        assert _close(v @ v.conj().T, abst_star)
        assert _close(psd_power(abst_star, 0.5) @ v, t)
        for beta in (0.5, 1.0, 2.0):
            assert _close(
                v @ psd_power(abst, beta), psd_power(abst_star, beta) @ v
            )


def test_v_operator_of_psd_is_square_root():
    a = rand_psd(RNG, 6, rank=4)
    assert _close(v_operator(a), psd_power(a, 0.5))


def test_v_operator_single_entry_fixed_point():
    t = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert_allclose(v_operator(t), t, atol=1e-14)


def test_v_operator_is_half_alpha_factor():
    t = rand_complex(RNG, 5, 6)
    assert_allclose(v_operator(t), gpolar(t, 0.5).U, atol=1e-12)


def test_v_operator_duality():
    t = rand_complex(RNG, 6, 4)
    assert opnorm(v_operator(t.conj().T) - v_operator(t).conj().T) <= 1e-10


def test_v_operator_preserves_rank_and_range():
    t = _rank_deficient(RNG, 7, 5, 3)
    v = v_operator(t)
    assert numerical_rank(v) == numerical_rank(t) == 3
    assert opnorm(range_projector(v) - range_projector(t)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.9])
def test_v_operator_alpha_independence(alpha):
    # U_alpha |T|^(alpha - 1/2) recovers V for every alpha above 1/2
    t = rand_complex(RNG, 6, 6)
    form = gpolar(t, alpha)
    rebuilt = form.U @ psd_power(form.absT, alpha - 0.5)
    assert _close(rebuilt, v_operator(t))
