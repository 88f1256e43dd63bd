import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opshort import (
    DEFAULT_TOL,
    Tol,
    absolute_value,
    herm_eig,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    numerical_rank,
    opnorm,
    partition,
    pseudo_inverse,
    psd_power,
    range_basis,
    range_projector,
    save_matrix,
    shorted,
    solve_parallel_equation,
    verify_range_kernel,
)
from opshort import numkit
from opshort.errors import NotHermitian, NotPSD, ShapeMismatch
from opshort.numkit import _norm_within, _svd_factor

from _util import rand_complex, rand_psd, rand_unitary

RNG = np.random.default_rng(1001)


# --- Tol policy ---------------------------------------------------------------


def test_tol_defaults():
    assert DEFAULT_TOL.rank_rel == 1e-12
    assert DEFAULT_TOL.residual_rel == 1e-8
    assert DEFAULT_TOL.eig_clamp_rel == 1e-10


def test_tol_scaled_tracks_single_knob():
    tol = Tol.scaled(1e-6)
    assert tol.residual_rel == 1e-6
    assert tol.rank_rel == pytest.approx(1e-10)
    assert tol.eig_clamp_rel == pytest.approx(1e-8)


@pytest.mark.parametrize("bad", [0.0, 1.0, -1e-8, 2.0])
def test_tol_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Tol(residual_rel=bad)


# --- herm_eig -----------------------------------------------------------------


def test_herm_eig_diagonal():
    eig = herm_eig(np.diag([2.0, 1.0]))
    assert_allclose(eig.eigenvalues, [2.0, 1.0])
    assert_allclose(np.abs(eig.eigenvectors), np.eye(2), atol=1e-14)


def test_herm_eig_swap_matrix():
    eig = herm_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(eig.eigenvalues, [1.0, -1.0], atol=1e-15)
    v = eig.eigenvectors
    assert_allclose(np.abs(v), np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-14)


def test_herm_eig_reconstruction_and_orthonormality():
    a = rand_complex(RNG, 8, 8)
    a = a + a.conj().T
    eig = herm_eig(a)
    back = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert opnorm(back - a) <= 1e-12 * opnorm(a)
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert opnorm(gram - np.eye(8)) <= 1e-12
    assert np.all(np.diff(eig.eigenvalues) <= 0)


def test_herm_eig_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.ones((2, 3)))
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_herm_eig_accepts_roundoff_asymmetry():
    a = rand_complex(RNG, 6, 6)
    a = a + a.conj().T
    a[0, 1] += 1e-12 * opnorm(a)  # below residual_rel * ||A||
    herm_eig(a)


# --- psd_power ----------------------------------------------------------------


def test_psd_power_diagonal_sqrt():
    assert_allclose(psd_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_power_half_known_2x2():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    expected = np.array([[3.0, 1.0], [1.0, 2.0]]) / np.sqrt(5.0)
    assert_allclose(psd_power(a, 0.5), expected, atol=1e-14)


def test_psd_power_composition_inverts():
    a = rand_psd(RNG, 7)
    back = psd_power(psd_power(a, 1.0 / 3.0), 3.0)
    assert opnorm(back - a) <= 1e-10 * opnorm(a)


def test_psd_power_identity_exponent():
    a = rand_psd(RNG, 5)
    assert opnorm(psd_power(a, 1.0) - a) <= 1e-12 * opnorm(a)


def test_psd_power_clamps_roundoff_negatives():
    q = rand_unitary(RNG, 4)
    a = (q * np.array([1.0, 0.5, 0.0, -1e-12])) @ q.conj().T
    root = psd_power(a, 0.5)
    assert np.linalg.eigvalsh(root).min() >= -1e-14


def test_psd_power_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_power(np.diag([1.0, -0.5]), 0.5)


@pytest.mark.parametrize("p", [0.0, -1.0, float("nan"), float("inf")])
def test_psd_power_rejects_bad_exponent(p):
    with pytest.raises(ValueError):
        psd_power(np.eye(2), p)


@pytest.mark.parametrize(
    "p,accepted",
    [(True, False), (np.bool_(True), False), (np.int64(2), True), (np.float64(2.0), True), (2.0, True)],
    ids=["True", "bool_", "int64", "float64", "2.0"],
)
def test_psd_power_exponent_types(p, accepted):
    # a bool is not an exponent (True used to give A^1); numpy integers are
    a = np.diag([4.0, 1.0])
    if accepted:
        assert np.array_equal(psd_power(a, p), psd_power(a, 2))
    else:
        with pytest.raises(ValueError, match="exponent must be a positive real number"):
            psd_power(a, p)


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=0.25, max_value=4.0),
    q=st.floats(min_value=0.25, max_value=4.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_psd_power_exponent_multiplicativity(p, q, seed):
    # spectra kept away from the clamp region (zeros are exact) so that
    # (A^p)^q and A^(pq) act on identical eigenvalue sets
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    rank = int(rng.integers(1, n + 1))
    w = np.zeros(n)
    w[:rank] = rng.uniform(0.05, 4.0, size=rank)
    u = rand_unitary(rng, n)
    a = (u * w) @ u.conj().T
    a = (a + a.conj().T) / 2.0
    lhs = psd_power(psd_power(a, p), q)
    rhs = psd_power(a, p * q)
    assert opnorm(lhs - rhs) <= 1e-9 * max(opnorm(a) ** (p * q), 1.0)


# --- absolute_value -----------------------------------------------------------


def test_absolute_value_single_entry():
    t = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert_allclose(absolute_value(t, "right"), np.diag([1.0, 0.0]), atol=1e-14)
    assert_allclose(absolute_value(t, "left"), np.diag([0.0, 1.0]), atol=1e-14)


def test_absolute_value_positive_multiple():
    assert_allclose(absolute_value(3.0 * np.eye(4), "right"), 3.0 * np.eye(4), atol=1e-13)


def test_absolute_value_norm_is_operator_norm():
    t = rand_complex(RNG, 6, 4)
    assert abs(opnorm(absolute_value(t, "right")) - opnorm(t)) <= 1e-10


def test_absolute_value_sides_swap_under_adjoint():
    t = rand_complex(RNG, 5, 7)
    assert_allclose(
        absolute_value(t, "right"), absolute_value(t.conj().T, "left"), atol=1e-12
    )


def test_absolute_value_rejects_bad_side():
    with pytest.raises(ValueError):
        absolute_value(np.eye(2), side="up")


# --- pseudo_inverse -----------------------------------------------------------


def test_pseudo_inverse_diagonal():
    assert_allclose(pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)


def test_pseudo_inverse_column():
    col = np.array([[1.0], [1.0]])
    assert_allclose(pseudo_inverse(col), np.array([[0.5, 0.5]]), atol=1e-14)


def test_pseudo_inverse_penrose_conditions():
    t = rand_complex(RNG, 6, 3) @ rand_complex(RNG, 3, 4)  # rank-deficient 6x4
    tp = pseudo_inverse(t)
    assert opnorm(t @ tp @ t - t) <= 1e-10
    assert opnorm(tp @ t @ tp - tp) <= 1e-10
    assert opnorm(t @ tp - (t @ tp).conj().T) <= 1e-10
    assert opnorm(tp @ t - (tp @ t).conj().T) <= 1e-10


def test_pseudo_inverse_zero_matrix():
    assert_allclose(pseudo_inverse(np.zeros((3, 2))), np.zeros((2, 3)))


# --- range projector / basis / rank -------------------------------------------


def test_range_projector_diagonal():
    assert_allclose(range_projector(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_range_projector_applies_rank_cutoff():
    assert_allclose(
        range_projector(np.diag([1.0, 1e-15])), np.diag([1.0, 0.0]), atol=1e-14
    )
    assert numerical_rank(np.diag([1.0, 1e-15])) == 1


def test_range_projector_fixes_range():
    t = rand_complex(RNG, 7, 4)
    p = range_projector(t)
    assert opnorm(p @ t - t) <= 1e-12
    assert np.linalg.matrix_rank(p) == numerical_rank(t)


def test_range_projector_regularized_limit():
    # (T + eps I)^-1 T approaches the range projector once eps sits far below
    # the smallest nonzero eigenvalue
    q = rand_unitary(RNG, 6)
    w = np.array([2.0, 1.0, 0.5, 0.1, 0.0, 0.0])
    t = (q * w) @ q.conj().T
    eps = 1e-6 * opnorm(t)
    approx = np.linalg.inv(t + eps * np.eye(6)) @ t
    assert opnorm(approx - range_projector(t)) <= 0.01


def test_range_projector_of_gram_matches():
    t = rand_complex(RNG, 6, 3)
    assert opnorm(range_projector(t) - range_projector(t @ t.conj().T)) <= 1e-10


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_range_projector_stable_under_psd_powers(alpha):
    a = rand_psd(RNG, 6, rank=3)
    assert opnorm(range_projector(psd_power(a, alpha)) - range_projector(a)) <= 1e-8


def test_range_basis_orthonormal():
    t = rand_complex(RNG, 8, 5)
    b = range_basis(t)
    assert b.shape == (8, numerical_rank(t))
    assert opnorm(b.conj().T @ b - np.eye(b.shape[1])) <= 1e-12


def test_rank_rule_consumers_agree_at_the_cutoff():
    # sigma_2 sits a factor 2 above the cutoff rank_rel * sigma_1 and
    # sigma_3 a factor 2 below it, so every consumer must report rank 2
    r = DEFAULT_TOL.rank_rel
    s = np.array([1.0, 2.0 * r, 0.5 * r, 0.0])
    t = np.diag(s).astype(np.complex128)
    assert numerical_rank(t) == 2
    assert range_basis(t).shape == (4, 2)
    assert_allclose(
        pseudo_inverse(t), np.diag([1.0, 1.0 / (2.0 * r), 0.0, 0.0]), rtol=1e-12, atol=1e-3
    )
    p1 = np.diag([1.0, 0.0, 0.0, 0.0])
    block = partition(t, p1, p1)
    assert verify_range_kernel(block, shorted(block)).rank_T == 2
    # A + B = diag(s), so cond_on_range is sigma_1 / sigma_2
    half = np.diag(s / 2.0)
    cond = solve_parallel_equation(half, half).diagnostics["cond_on_range"]
    assert cond == pytest.approx(1.0 / (2.0 * r), rel=1e-12)


# --- the SVD factor and its views ------------------------------------------------


def test_svd_factor_views_match_their_definitions():
    # rank-deficient 7 x 5, so every view has to respect the rank cutoff
    t = rand_complex(RNG, 7, 3) @ rand_complex(RNG, 3, 5)
    f = _svd_factor(t)
    r = f.rank(DEFAULT_TOL)
    assert r == numerical_rank(t) == 3
    assert opnorm(f.pinv(r) - np.linalg.pinv(t, rcond=1e-10)) <= 1e-10
    u_polar = f.power(0.0, r)
    assert opnorm(u_polar @ absolute_value(t, "right") - t) <= 1e-12 * opnorm(t)
    # U s^(1/2) Vh squares to |T| and |T*| from either side
    v = f.power(0.5, r)
    assert opnorm(v.conj().T @ v - f.abs_power("right")) <= 1e-12 * opnorm(t)
    assert opnorm(v @ v.conj().T - f.abs_power("left")) <= 1e-12 * opnorm(t)
    # |T| = (T*T)^(1/2) and |T*| = (TT*)^(1/2)
    for side, gram in (("right", t.conj().T @ t), ("left", t @ t.conj().T)):
        assert opnorm(f.abs_power(side) - psd_power(gram, 0.5)) <= 1e-7
        assert np.array_equal(f.abs_power(side), absolute_value(t, side))


# --- certified operator-norm bounds -------------------------------------------------


def _count_opnorm(monkeypatch):
    calls = []
    real = numkit.opnorm

    def counting(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(numkit, "opnorm", counting)
    return calls


def test_norm_within_certain_pass_and_fail_skip_the_svd(monkeypatch):
    # ||X||_F <= rel * ||Y||_F / sqrt(n) certifies a pass and
    # ||X||_F / sqrt(n) > rel * ||Y||_F a failure, without singular values
    calls = _count_opnorm(monkeypatch)
    n, rel = 16, 1e-3
    y = np.eye(n)
    assert _norm_within(0.9 * rel / n * np.eye(n), rel, y, floor=0.0)
    assert not _norm_within(1.1 * rel * np.sqrt(n) * np.eye(n), rel, y, floor=0.0)
    # with no Y the bound is rel * floor
    assert _norm_within(np.full((n, n), 0.9 * rel / n**1.5), rel)
    assert not _norm_within(np.full((n, n), 1.1 * rel / n**0.5), rel)
    assert _norm_within(np.zeros((0, 3)), rel, floor=0.0)
    assert calls == []


@pytest.mark.parametrize("c,expected", [(0.5, True), (2.0, False)])
def test_norm_within_band_falls_back_to_the_exact_norm(monkeypatch, c, expected):
    # rank-one X and Y: the Frobenius norms equal the operator norms, but the
    # helper only knows rank <= n, so for n = 16 its bounds are a factor 4
    # loose on each side and c = 0.5 or 2 lands in the ambiguous band
    calls = _count_opnorm(monkeypatch)
    n, rel = 16, 1e-3
    q = rand_unitary(RNG, n)
    x = c * rel * np.outer(q[:, 0], q[:, 1].conj())
    y = np.outer(q[:, 2], q[:, 3].conj())
    x_lo, x_hi = numkit._norm_bounds(x)
    y_lo, y_hi = numkit._norm_bounds(y)
    assert x_hi > rel * y_lo and x_lo <= rel * y_hi
    assert _norm_within(x, rel, y, floor=0.0) is expected
    assert len(calls) == 2


def test_norm_within_takes_exact_norms_as_floats(monkeypatch):
    calls = _count_opnorm(monkeypatch)
    assert _norm_within(1.0, 0.5, 2.0, floor=0.0)
    assert not _norm_within(1.0 + 1e-15, 0.5, 2.0, floor=0.0)
    assert _norm_within(0.5, 0.5)  # floor 1
    assert calls == []


def test_opnorm_empty_is_zero():
    assert opnorm(np.zeros((0, 3))) == 0.0
    assert opnorm(np.zeros((0, 0))) == 0.0


# --- JSON matrix format --------------------------------------------------------


def test_json_round_trip(tmp_path):
    m = rand_complex(RNG, 3, 5)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    assert_allclose(load_matrix(path), m, atol=0)  # exact float round-trip


def test_json_bytes_are_deterministic(tmp_path):
    m = rand_complex(RNG, 4, 4)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(p1, m)
    save_matrix(p2, m)
    assert p1.read_bytes() == p2.read_bytes()


def test_json_dict_shape_and_layout():
    m = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    obj = matrix_to_json_dict(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 2.0]  # row-major
    assert obj["data"][1] == [3.0, 0.0]
    assert obj["data"][3] == [0.0, -1.0]
    json.dumps(obj)  # serializable as-is


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {},
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": "nope"},
        {"rows": 2, "cols": 2, "data": [[1, 0]] * 3},  # length mismatch
        {"rows": -1, "cols": 2, "data": []},
        {"rows": 2.0, "cols": 2, "data": [[1, 0]] * 4},
        {"rows": 2, "cols": 2, "data": [[1, 0], [1, 0], [1, 0], [1]]},
        {"rows": 1, "cols": 1, "data": [["a", 0]]},
        {"rows": 1, "cols": 1, "data": [[True, 0]]},
        {"rows": True, "cols": 1, "data": [[1, 0]]},
        {"rows": 1, "cols": False, "data": []},
    ],
)
def test_json_dict_rejects_malformed(obj):
    with pytest.raises(ValueError):
        matrix_from_json_dict(obj)


def test_as_matrix_shape_guard():
    with pytest.raises(ShapeMismatch):
        herm_eig(np.ones(3))
