import ast
import dataclasses
import json
import os
import re
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import opshort
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
from opshort import (
    douglas,
    errors,
    hansen_inequality_check,
    is_complementable,
    lab,
    lemma_69_check,
    numkit,
    parallel,
    parallel_sum,
    polar,
    range_included,
    shorting,
)
from opshort.errors import NotFinite, NotHermitian, NotPSD, NotWeaklyComplementable, ShapeMismatch
from opshort.lab import kit_block_projector, make_kit
from opshort.numkit import _norm_within, _rank, _svd_factor, as_matrix

from _util import rand_complex, rand_psd, rand_unitary, record_linalg

RNG = np.random.default_rng(1001)


# --- Tol policy ---------------------------------------------------------------


def test_tol_defaults():
    assert Tol() == Tol(1e-8) == DEFAULT_TOL
    assert DEFAULT_TOL.residual_rel == 1e-8
    # 1e-8 * 1e-4 and 1e-8 * 1e-2 round to exactly these literals
    assert DEFAULT_TOL.rank_rel == 1e-12
    assert DEFAULT_TOL.eig_clamp_rel == 1e-10


def test_tol_derives_cutoffs_from_single_knob():
    tol = Tol(1e-6)
    assert tol.residual_rel == 1e-6
    assert tol.rank_rel == 1e-6 * 1e-4 == pytest.approx(1e-10)
    assert tol.eig_clamp_rel == 1e-6 * 1e-2 == pytest.approx(1e-8)
    # residual_rel is the one field; the cutoffs cannot be set apart from it
    assert [f.name for f in dataclasses.fields(Tol)] == ["residual_rel"]
    for name in ("rank_rel", "eig_clamp_rel"):
        with pytest.raises(TypeError):
            Tol(**{name: 1e-12})
        with pytest.raises(AttributeError):
            setattr(tol, name, 1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -1e-8, 2.0])
def test_tol_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        Tol(residual_rel=bad)


def test_tol_rank_rel_floor_edge():
    # rank_rel = residual_rel * 1e-4 may not go below 16 eps: the smallest
    # accepted knob, 16 eps * 1e4, passes, and one ulp below it is rejected,
    # as is 1e-13
    floor = 16 * np.finfo(np.float64).eps
    knob = floor * 1e4
    assert Tol(knob).rank_rel == floor
    with pytest.raises(ValueError, match="rank_rel must be at least 3.553e-15"):
        Tol(np.nextafter(knob, 0.0))
    with pytest.raises(ValueError, match="rank_rel must be at least 3.553e-15"):
        Tol(1e-13)
    assert Tol(1e-10).rank_rel == pytest.approx(1e-14)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_rank_rel_floor_sits_above_round_off(n):
    # at the smallest knob the rank cutoff still ignores the round-off
    # singular values of a rank-deficient PSD matrix (measured below 2 eps up
    # to n = 256)
    tol = Tol(16 * np.finfo(np.float64).eps * 1e4)
    rng = np.random.default_rng(n)
    for b in (rng.normal(size=(n, n // 2)), rand_complex(rng, n, n // 2)):
        assert numerical_rank(b @ b.conj().T, tol) == n // 2


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
    # over the r kept triplets: powers of the grams, and at p = 0 the range projectors
    for side, gram, tt in (("right", t.conj().T @ t, t.conj().T), ("left", t @ t.conj().T, t)):
        assert opnorm(f.abs_power(side, 0.75, r) - psd_power(gram, 0.375)) <= 1e-7
        assert opnorm(f.abs_power(side, 0.0, r) - range_projector(tt)) <= 1e-12


# --- exact direct sums, factored block by block ---------------------------------

_EPS = np.finfo(np.float64).eps


def _direct_sum(rng, is_complex, hermitian=False):
    """A random row- and column-permuted direct sum whose smaller side reaches
    the split floor: ragged blocks of 1-4 rows and columns (Hermitian ones,
    some with a zero diagonal, if ``hermitian``), some repeated so that singular
    values (eigenvalues) repeat, and zero rows and columns (zero principal rows
    and columns if ``hermitian``)."""
    blocks = []
    while min(sum(b.shape[k] for b in blocks) for k in (0, 1)) < numkit._SPLIT_FLOOR:
        p = int(rng.integers(1, 5))
        q = p if hermitian else int(rng.integers(1, 5))
        b = rand_complex(rng, p, q) if is_complex else rng.standard_normal((p, q))
        if hermitian:  # a third of them hollow: only the diagonal join keeps them whole
            b = (b + b.conj().T) * (1 - np.eye(p) * (rng.integers(3) == 0))
        blocks += [b] * int(rng.integers(1, 3))
    rows = sum(b.shape[0] for b in blocks) + int(rng.integers(0, 9))
    cols = rows if hermitian else sum(b.shape[1] for b in blocks) + int(rng.integers(0, 9))
    x = np.zeros((rows, cols), np.complex128 if is_complex else np.float64)
    i = j = 0
    for b in blocks:
        x[i : i + b.shape[0], j : j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    pr = rng.permutation(rows)
    x = x[np.ix_(pr, pr if hermitian else rng.permutation(cols))]
    return np.ascontiguousarray(x)


def _dense_route(monkeypatch):
    monkeypatch.setattr(numkit, "_SPLIT_FLOOR", 10**9)


def _stacked_eigen_calls(monkeypatch, run):
    """``run()``, asserting that every eigh and eigvalsh it makes (one at least) is
    stacked: the split route's blocks, never the whole operand."""
    with monkeypatch.context() as m:
        recorded = [record_linalg(m, k, lambda _: None) for k in ("eigh", "eigvalsh")]
        out = run()
    shapes = [x.shape for calls in recorded for x, _ in calls]
    assert shapes and all(len(s) == 3 for s in shapes), shapes
    return out


def _null_projector(f, tol):
    # the null space _meet reads: vh past the rank, cut at the scale 1; and
    # the smallest singular value kept, which the space's round-off scales with
    r = _rank(f.s, tol, 1.0)
    return f.vh[r:].conj().T @ f.vh[r:], f.s[r - 1] if r else 1.0


def _backward_error(f, x):
    """Frobenius norm, to first order, of an E such that f is an exact SVD of x + E:
    the residual plus ||x|| times the losses of orthonormality of u and vh (a u
    with u*u = I + H lies within ||H|| of its nearest orthonormal factor)."""
    k = f.s.size
    losses = (f.u.conj().T @ f.u - np.eye(k), f.vh @ f.vh.conj().T - np.eye(k))
    frobenius = [np.linalg.norm(m) for m in ((f.u * f.s) @ f.vh - x, *losses)]
    return frobenius[0] + f.s[0] * (frobenius[1] + frobenius[2])


def _iterate_function(s, alpha, n):
    """gpolar_iterative's singular-value function g(s) = s^(2-alpha) (1/n + s^2)^(-1/2)
    and its derivative g'."""
    q = 1.0 / n + s * s
    return s ** (2 - alpha) * q**-0.5, (2 - alpha) * s ** (1 - alpha) * q**-0.5 - s ** (3 - alpha) * q**-1.5


def _daleckii_krein(s, alpha, n, rectangular):
    """The Frobenius-norm bound of the Frechet derivative of T -> W g(s) Q* at T
    (Daleckii-Krein): the largest of g'(s_i), |g(s_i) - g(s_j)| / |s_i - s_j| and
    (g(s_i) + g(s_j)) / (s_i + s_j) over T's singular values s, with s_j = 0 for
    the null directions of a rectangular T.  A quotient of two values closer than
    sqrt(eps) s_1 is round-off; by the mean value theorem g' at either end covers it."""
    s = np.append(s, 0.0) if rectangular else s
    g, slope = _iterate_function(s, alpha, n)
    gap, total = np.subtract.outer(s, s), np.add.outer(s, s)
    apart, positive = np.abs(gap) > np.sqrt(_EPS) * s[0], total > 0
    return max(
        slope.max(),
        (np.abs(np.subtract.outer(g, g))[apart] / np.abs(gap[apart])).max(initial=0.0),
        (np.add.outer(g, g)[positive] / total[positive]).max(initial=0.0),
    )


def _product_rounding(f, g, terms):
    """Higham's gamma_k |W| g |Q*| bound on rounding the product W g Q* whose entries
    sum k = ``terms`` products (one more for scaling Q* by g), at its largest entry."""
    return terms * _EPS / (1 - terms * _EPS) * ((np.abs(f.u) * g) @ np.abs(f.vh)).max()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), is_complex=st.booleans())
def test_direct_sums_factor_as_the_dense_svd(monkeypatch, seed, is_complex):
    x = _direct_sum(np.random.default_rng(seed), is_complex)
    assert numkit._blocks(x) is not None  # the split route is the one under test
    f, s = _svd_factor(x), numkit._svdvals(x)
    norm = opnorm(x)
    # the iterate reads T's singular values, so neither route squares T's condition
    grid = [(alpha, n) for alpha in (0.1, 0.5, 0.9) for n in (1, 7, 50)]
    iterates = [polar.gpolar_iterative(x, alpha, n) for alpha, n in grid]
    with monkeypatch.context() as m:
        _dense_route(m)
        dense, dense_norm = _svd_factor(x), opnorm(x)
        dense_iterates = [polar.gpolar_iterative(x, alpha, n) for alpha, n in grid]
    k = min(x.shape)
    assert f.u.shape == (x.shape[0], k) and f.s.shape == (k,) and f.vh.shape == (k, x.shape[1])
    assert f.u.dtype == f.vh.dtype == x.dtype
    assert np.all(np.diff(f.s) <= 0) and np.all(np.diff(s) <= 0)
    bound = 64 * _EPS * dense.s[0]
    assert np.abs(f.s - dense.s).max() <= bound and np.abs(s - dense.s).max() <= bound
    assert abs(norm - dense_norm) <= bound
    # each route returns W g(s) Q* for the exact SVD of its own x + E, rounded: so
    # the iterates differ by at most the derivative's bound times ||E_split|| +
    # ||E_dense||, to first order, plus both products' rounding.  c is that sum
    # in units of eps ||x||, read from the two factors' own residuals.  The split
    # route's products sum over one block (at most 4 columns), the dense one's over k
    c = (_backward_error(f, x) + _backward_error(dense, x)) / (_EPS * dense.s[0])
    for at, iterate, dense_iterate in zip(grid, iterates, dense_iterates):
        g = _iterate_function(dense.s, *at)[0]
        deviation = np.abs(iterate - dense_iterate).max()
        first_order = c * _EPS * dense.s[0] * _daleckii_krein(dense.s, *at, x.shape[0] != x.shape[1])
        assert iterate.dtype == x.dtype
        assert deviation <= first_order + _product_rounding(f, g, 5) + _product_rounding(dense, g, k + 1), at
    # orthonormal at the full compact shape, null completion included
    assert np.abs(f.u.conj().T @ f.u - np.eye(k)).max() <= 32 * _EPS
    assert np.abs(f.vh @ f.vh.conj().T - np.eye(k)).max() <= 32 * _EPS
    assert np.abs((f.u * f.s) @ f.vh - x).max() <= bound
    for tol in (DEFAULT_TOL, Tol(1e-4)):
        assert f.rank(tol) == dense.rank(tol)
        if x.shape[0] >= x.shape[1]:  # then vh is square and vh[r:] the whole null space
            (split_null, _), (dense_null, gap) = _null_projector(f, tol), _null_projector(dense, tol)
            assert np.abs(split_null - dense_null).max() <= bound / gap  # Wedin: eps ||A|| / gap


def _operands(rng, is_complex, *rows, cols=3):
    draw = (lambda p: rand_complex(rng, p, cols)) if is_complex else (lambda p: rng.standard_normal((p, cols)))
    return [draw(p) for p in rows]


def _products(f, xl, xr, z, r):
    """The four products of factor f over r triplets, each with the dense
    expression of f.u and f.vh it stands for and its operand: u_r* X, vh_r X,
    u_r Z and vh_r* Z."""
    z = z[:r]
    return (
        (f.coords("left", xl, r), f.u[:, :r].conj().T @ xl, xl),
        (f.coords("right", xr, r), f.vh[:r] @ xr, xr),
        (f.span("left", z), f.u[:, :r] @ z, z),
        (f.span("right", z), f.vh[:r].conj().T @ z, z),
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), is_complex=st.booleans())
def test_split_factors_multiply_as_their_dense_u_and_vh(seed, is_complex):
    rng = np.random.default_rng(seed)
    x = _direct_sum(rng, is_complex)
    f = _svd_factor(x)
    assert f.split is not None  # the block route is the one under test
    k = min(x.shape)
    # complex operands of a real factor too: A X = C may have a complex C
    xl, xr, z = _operands(rng, is_complex or seed % 2 == 0, *x.shape, k)
    for r in range(k + 1):
        for got, want, operand in _products(f, xl, xr, z, r):
            assert got.shape == want.shape and got.dtype == want.dtype, r
            assert np.abs(got - want).max(initial=0.0) <= 16 * _EPS * opnorm(operand), r
    # the solves and powers scale by s_r^p at the rank, dividing when p < 0
    r = f.rank(DEFAULT_TOL)
    for side in ("left", "right"):
        basis = f.u if side == "left" else f.vh.conj().T
        for p in (0.5, 1.0, -0.5, -1.0):
            want = (basis[:, :r] * f.s[:r] ** p) @ z[:r]
            bound = 16 * _EPS * opnorm(z[:r]) * (f.s[:r] ** p).max(initial=0.0)
            assert np.abs(f.span(side, z[:r], p) - want).max(initial=0.0) <= bound, (side, p)


def test_split_products_never_read_the_dense_u_and_vh():
    rng = np.random.default_rng(2828)
    x = _direct_sum(rng, True)
    f = _svd_factor(x)
    blind = dataclasses.replace(f, u=np.full_like(f.u, np.nan), vh=np.full_like(f.vh, np.nan))
    xl, xr, z = _operands(rng, True, *x.shape, min(x.shape))
    r = f.rank(DEFAULT_TOL)
    for (got, _, _), (want, _, _) in zip(_products(blind, xl, xr, z, r), _products(f, xl, xr, z, r)):
        assert np.isfinite(got).all() and np.array_equal(got, want)
    for side, p in (("left", 0.5), ("right", -1.0)):
        assert np.array_equal(blind.span(side, z[:r], p), f.span(side, z[:r], p))


def test_unsplit_factors_multiply_by_u_and_vh_as_the_matmul():
    # below the split floor each product is the one @ on the dense u or vh, in
    # the operand order the callers took before the products were methods
    rng = np.random.default_rng(2929)
    t = rand_complex(rng, 7, 5)
    f, r = _svd_factor(t), 3
    assert f.split is None
    xl, xr, z = _operands(rng, True, 7, 5, r, cols=2)
    for got, want, _ in _products(f, xl, xr, z, r):
        assert np.array_equal(got, want)
    ur, vr = f.u[:, :r], f.vh[:r].conj().T
    assert np.array_equal(f.span("left", z, 0.5), (ur * f.s[:r] ** 0.5) @ z)
    assert np.array_equal(f.span("right", z, -0.5), (vr / f.s[:r] ** 0.5) @ z)
    assert np.array_equal(f.pinv(r), (vr / f.s[:r]) @ ur.conj().T)
    assert np.array_equal(f.power(0.25, r), (ur * f.s[:r] ** 0.25) @ f.vh[:r])
    assert np.array_equal(f.abs_power("right", 0.5, r), numkit._herm((vr * f.s[:r] ** 0.5) @ vr.conj().T))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_split_products_take_at_most_three_outputs_of_memory(dtype):
    # the d = 256 kit's T22 factor, 256 blocks of 2 x 2 per side: each call holds its
    # output and its gathered rows and products, never a copy of the whole operand;
    # the fixed allowance covers the side-length index arrays and the cut-off row
    import tracemalloc

    d = 256
    f = partition(make_kit(d).bigT, *[kit_block_projector(d)] * 2)._t22
    k = f.s.size
    assert f.split is not None and k == 2 * d
    x = np.random.default_rng(2929).standard_normal((k, k)).astype(dtype)
    calls = [(side, "coords", r, None) for side in ("left", "right") for r in (0, k // 2, k)]
    calls += [(side, "span", r, p) for side, _, r, _ in calls for p in (None, 0.5, -1.0)]
    for side, name, r, p in calls:
        tracemalloc.start()
        try:
            out = f.coords(side, x, r) if name == "coords" else f.span(side, x[:r], p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * out.nbytes + 32 * 1024, (side, name, r, p, peak, out.nbytes)


def _dense_operand(rng, is_complex, rows, cols):
    return rand_complex(rng, rows, cols) if is_complex else rng.standard_normal((rows, cols))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    x_complex=st.booleans(),
    y_complex=st.booleans(),
    y_split=st.booleans(),
)
def test_block_products_match_the_matmul(seed, x_complex, y_complex, y_split):
    rng = np.random.default_rng(seed)
    x = _direct_sum(rng, x_complex)
    assert numkit._blocks(x) is not None  # the block route is the one under test
    if y_split:  # a direct sum too: x* with its rows permuted and scaled
        y = (x.conj().T * (1j if y_complex else -2.0))[:, rng.permutation(x.shape[0])]
    else:
        y = _dense_operand(rng, y_complex, x.shape[1], int(rng.integers(1, 300)))
    got, want = numkit._product(x, y), x @ y
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 16 * _EPS * opnorm(x) * opnorm(y)
    # rows of x outside every block are exactly zero in the product
    assert not got[~x.any(axis=1)].any()


def test_products_below_the_floor_and_of_one_block_are_the_matmul():
    rng = np.random.default_rng(3030)
    small = _direct_sum(rng, True)[: numkit._SPLIT_FLOOR - 1]
    operands = [small, *_one_block_operands(numkit._SPLIT_FLOOR).values()]
    for x in operands:
        assert numkit._blocks(x) is None
        for y in (rng.standard_normal((x.shape[1], 5)), rand_complex(rng, x.shape[1], 130)):
            assert np.array_equal(numkit._product(x, y), x @ y)


@pytest.mark.parametrize("n", [128, 256, 512])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_block_products_cost_little_on_dense_operands(monkeypatch, n, dtype):
    # a dense operand above the floor adds only the pattern pass to its matmul, which
    # row 0 settles: best of several runs, within 15% of the matmul or 0.1 ms
    import timeit

    rng = np.random.default_rng(n)
    x, y = (_dense_operand(rng, dtype is np.complex128, n, n) for _ in range(2))
    passes = []
    real = numkit._blocks
    monkeypatch.setattr(numkit, "_blocks", lambda m: passes.append(real(m)) or passes[-1])
    assert np.array_equal(numkit._product(x, y), x @ y) and passes == [None]
    matmul = min(timeit.repeat(lambda: x @ y, number=3, repeat=5)) / 3
    pass_ = min(timeit.repeat(lambda: real(x), number=20, repeat=5)) / 20
    assert pass_ <= max(0.15 * matmul, 1e-4), (pass_, matmul)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), is_complex=st.booleans())
def test_hermitian_direct_sums_split_as_the_dense_eigh(monkeypatch, seed, is_complex):
    h = _direct_sum(np.random.default_rng(seed), is_complex, hermitian=True)
    assert numkit._blocks(h, square=True) is not None
    (w, v), values = numkit._eigh(h), numkit._eigh(h, vectors=False)
    # h's positive spectral projector, block-diagonal as h is but no 0/1 diagonal; and
    # h^2, whose 3/2 power is Lipschitz in it (its square root is not, so the dense
    # route's round-off on the small eigenvalues would show in that)
    p, g = v[:, w > 0] @ v[:, w > 0].conj().T, h @ h
    assert not np.array_equal(p, np.diag(np.round(np.diagonal(p))))

    def routed():
        return herm_eig(h), psd_power(g, 1.5), shorting._projector_bases(p, DEFAULT_TOL)[0]

    eig, power, basis = _stacked_eigen_calls(monkeypatch, routed)
    with monkeypatch.context() as m:
        _dense_route(m)
        dense_w, dense_values = numkit._eigh(h)[0], numkit._eigh(h, vectors=False)
        dense_eig, dense_power, dense_basis = routed()
    bound = 64 * _EPS * np.abs(dense_w).max()
    assert np.abs(eig.eigenvalues - dense_eig.eigenvalues).max() <= bound
    assert np.abs((eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T - h).max() <= bound
    assert np.abs(power - dense_power).max() <= bound * np.abs(dense_w).max() ** 2
    assert shorting.check_projector(p) == basis.shape[1] == dense_basis.shape[1]
    for b in (basis, dense_basis):
        assert np.abs(b @ b.conj().T - p).max() <= 64 * _EPS
    assert np.all(np.diff(w) >= 0) and np.all(np.diff(values) >= 0)
    assert np.abs(w - dense_w).max() <= bound and np.abs(values - dense_values).max() <= bound
    assert v.dtype == h.dtype and v.shape == h.shape
    assert np.abs(v.conj().T @ v - np.eye(h.shape[0])).max() <= 32 * _EPS
    assert np.abs((v * w) @ v.conj().T - h).max() <= bound


def test_meet_reads_the_same_intersection_from_a_split_factor(monkeypatch):
    # R(q) meets R(basis) in the d coordinates 0..d-1: q holds them and d
    # rotated pairs, basis holds them and d others, all block by block
    d = numkit._SPLIT_FLOOR
    n, c = 4 * d, 1 / np.sqrt(2.0)
    q = np.zeros((n, 2 * d))
    q[np.arange(d), np.arange(d)] = 1.0
    q[d + np.arange(d), d + np.arange(d)] = c
    q[2 * d + np.arange(d), d + np.arange(d)] = c
    basis = np.zeros((n, 2 * d))
    basis[np.arange(d), np.arange(d)] = 1.0
    basis[2 * d + np.arange(d), d + np.arange(d)] = 1.0
    assert numkit._blocks(shorting._angle_factors(basis, q)[1]) is not None
    meet = shorting._meet(q, basis, DEFAULT_TOL)
    with monkeypatch.context() as m:
        _dense_route(m)
        dense = shorting._meet(q, basis, DEFAULT_TOL)
    assert meet.shape == dense.shape == (n, d)
    assert np.abs(meet @ meet.T - dense @ dense.T).max() <= 1e3 * _EPS


def test_only_numkit_calls_the_svd_and_eigen_kernels():
    # every SVD and Hermitian eigendecomposition goes through numkit's doors, which
    # split exact direct sums: a call elsewhere would bypass the split
    kernels, callers = {"svd", "eigh", "eigvalsh"}, set()
    for path in sorted(Path(opshort.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            if getattr(node, "attr", None) in kernels or kernels.intersection(names):
                callers.add(path.name)
    assert callers == {"numkit.py"}


def _one_block_operands(n=512):
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((n, n))
    hollow = dense - np.diag(np.diagonal(dense))
    tri = np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
    tri += np.diag(rng.standard_normal(n - 1), -1)
    # not reached in two steps from its first row: the label sweeps find it whole
    banded = sum(np.diag(rng.standard_normal(n - abs(k)), k) for k in range(-5, 6))
    return {"dense": dense, "hollow": hollow, "tridiagonal": tri, "banded": banded}


@pytest.mark.parametrize("name", ["dense", "hollow", "tridiagonal", "banded"])
def test_one_block_operands_take_one_lapack_call_uncopied(monkeypatch, name):
    x = _one_block_operands()[name]
    h = x + x.T
    operands = []
    for kernel in ("svd", "eigh", "eigvalsh"):
        real = getattr(np.linalg, kernel)
        monkeypatch.setattr(np.linalg, kernel, lambda m, *a, real=real, **k: operands.append(m) or real(m, *a, **k))
    assert numkit._blocks(x) is None and numkit._blocks(h, square=True) is None
    _svd_factor(x)
    numkit._svdvals(x)
    opnorm(x)
    numkit._eigh(h)
    numkit._eigh(h, vectors=False)
    assert len(operands) == 5
    assert all(m is x for m in operands[:3]) and all(m is h for m in operands[3:])


def test_pattern_pass_costs_little_beside_the_dense_svd():
    # best of several runs each: the pass on a one-block 512 x 512 operand
    # against the dense SVD of _svd_factor that it precedes
    import timeit

    for name, x in _one_block_operands().items():
        svd = min(timeit.repeat(lambda: np.linalg.svd(x, full_matrices=False), number=1, repeat=3))
        pass_ = min(timeit.repeat(lambda: numkit._blocks(x), number=5, repeat=5)) / 5
        assert pass_ <= (0.01 if name == "dense" else 0.1) * svd, (name, pass_, svd)


@pytest.mark.parametrize("shape", [(127, 300), (300, 127), (0, 200)])
def test_operands_below_the_floor_take_no_pattern_pass(monkeypatch, shape):
    # a side below the floor: today's one dense call, whatever the pattern
    x = np.zeros(shape)
    x[np.arange(min(shape)), np.arange(min(shape))] = 1.0
    monkeypatch.setattr(np, "count_nonzero", lambda *_: pytest.fail("pattern pass ran"))
    assert numkit._blocks(x) is None
    assert np.array_equal(numkit._svdvals(x), np.linalg.svd(x, compute_uv=False))


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
    # 2 ||X||_F <= rel * ||Y||_F / sqrt(n) certifies a pass and
    # ||X||_F / sqrt(n) > 2 rel * ||Y||_F a failure, without singular values
    calls = _count_opnorm(monkeypatch)
    n, rel = 16, 1e-3
    y = np.eye(n)
    assert _norm_within(0.45 * rel / n * np.eye(n), rel, y, floor=0.0)
    assert not _norm_within(2.2 * rel * np.sqrt(n) * np.eye(n), rel, y, floor=0.0)
    # with no Y the bound is rel * floor
    assert _norm_within(np.full((n, n), 0.45 * rel / n**1.5), rel)
    assert not _norm_within(np.full((n, n), 2.2 * rel / n**0.5), rel)
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


def test_norm_within_matches_the_exact_rule_at_the_bound():
    # single columns within 3 ulps of the bound: their Frobenius and operator
    # norms agree in exact arithmetic and round apart, so settling from the
    # Frobenius bounds without a margin on the bound would flip verdicts here
    rng = np.random.default_rng(1717)
    bound, eps = 1e-10, np.finfo(np.float64).eps
    sides = set()
    for _ in range(1000):
        x = rng.normal(size=(int(rng.integers(2, 40)), 1))
        x *= bound * (1.0 + int(rng.integers(-3, 4)) * eps) / np.linalg.norm(x)
        exact = opnorm(x) <= bound
        assert _norm_within(x, bound) == exact
        sides.add(exact)
    # the cases straddle the bound
    assert sides == {True, False}


def test_norm_within_takes_exact_norms_as_floats(monkeypatch):
    calls = _count_opnorm(monkeypatch)
    assert _norm_within(1.0, 0.5, 2.0, floor=0.0)
    assert not _norm_within(1.0 + 1e-15, 0.5, 2.0, floor=0.0)
    assert _norm_within(0.5, 0.5)  # floor 1
    assert calls == []


def test_opnorm_empty_is_zero():
    assert opnorm(np.zeros((0, 3))) == 0.0
    assert opnorm(np.zeros((0, 0))) == 0.0


def _record_svd_operands(monkeypatch):
    """Every operand that ``opnorm`` hands to ``np.linalg.svd``, uncopied."""
    operands = []
    real = np.linalg.svd

    def recording(m, *args, **kwargs):
        operands.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return operands


@pytest.mark.parametrize("shape", [(1, 0), (0, 0), (0, 5), (4, 0), (1, 1), (3, 3), (2, 7), (7, 2)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_opnorm_of_zero_or_empty_is_zero_without_an_svd(monkeypatch, shape, dtype):
    operands = _record_svd_operands(monkeypatch)
    assert opnorm(np.zeros(shape, dtype)) == 0.0
    assert opnorm(np.full(shape, -0.0, dtype)) == 0.0
    assert operands == []


def test_opnorm_of_negative_zero_rows_and_columns():
    x = np.full((4, 5), -0.0)
    x[1, 2], x[3, 0] = 3.0, -4.0
    assert abs(opnorm(x) - 4.0) <= 16 * np.spacing(4.0)
    full = _full_svd_norm(x)
    assert abs(opnorm(x) - full) <= 16 * np.spacing(full)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_opnorm_hands_a_dense_operand_to_lapack_uncopied(monkeypatch, dtype):
    # float64 and complex128 are the package's dtypes: nothing is copied
    x = np.eye(5, dtype=dtype)[::-1] * np.arange(1.0, 6.0)
    operands = _record_svd_operands(monkeypatch)
    assert opnorm(x) == 5.0
    assert len(operands) == 1 and operands[0] is x


@pytest.mark.parametrize(
    "dtype", [object, np.float16, np.float32, np.longdouble, np.complex64, np.clongdouble]
)
def test_opnorm_takes_the_dtype_that_as_matrix_takes(dtype):
    # no LAPACK driver takes objects, half or extended precision, and single
    # precision would take the single-precision driver: every callable promotes first
    rng = np.random.default_rng(11)
    x = rng.integers(-64, 65, (40, 40)) / 64
    if dtype is object:
        x = np.array([[Fraction(v) for v in row] for row in x], dtype=object)
    elif np.issubdtype(dtype, np.complexfloating):
        x = (x + 1j * x[::-1]).astype(dtype)
    else:
        x = x.astype(dtype)
    assert opnorm(x) == opnorm(as_matrix(x))


def _full_svd_norm(x):
    """sigma_1 from the values-only SVD of all of ``x``."""
    return float(np.linalg.svd(np.asarray(x), compute_uv=False)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1)])
def test_opnorm_counts_non_finite_entries_as_nonzero(monkeypatch, bad, where):
    # wherever a NaN or inf entry lies, opnorm names it before LAPACK sees the matrix
    x = np.zeros((3, 4), dtype=complex if isinstance(bad, complex) else float)
    x[0, 1] = 2.0
    x[where] = bad
    operands = _record_svd_operands(monkeypatch)
    with pytest.raises(NotFinite, match=re.escape(f"matrix[{where[0]}, {where[1]}] is not finite")):
        opnorm(x)
    assert operands == []


@pytest.mark.parametrize(
    "x",
    [
        np.array(3.0),
        np.array([1.0, 2.0]),
        np.zeros(3),
        np.ones((2, 3, 3)),
        np.zeros((2, 3, 3)),
        np.ones((1, 3, 1)),
        3.0,
        [1.0, 2.0, 3.0],
        np.zeros(0),
        np.zeros((0, 0, 0)),
    ],
)
def test_opnorm_of_a_non_matrix_raises_shape_mismatch(monkeypatch, x):
    # opnorm takes what as_matrix takes: ndim 0, 1 and 3, empty or zero included,
    # raise ShapeMismatch naming the ndim, before any SVD
    operands = _record_svd_operands(monkeypatch)
    with pytest.raises(ShapeMismatch, match=f"must be 2-D, got ndim={np.ndim(x)}$"):
        opnorm(x)
    assert operands == []


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    is_complex=st.booleans(),
    exponent=st.floats(min_value=-12.0, max_value=12.0),
)
def test_opnorm_with_zero_rows_and_columns_is_the_full_svd_norm(seed, is_complex, exponent):
    # zero rows and columns scattered around a nonzero core, at any scale
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 9, 2))
    core = rand_complex(rng, m, n) if is_complex else rng.standard_normal((m, n))
    core *= 10.0**exponent
    rows = np.sort(rng.choice(m + 6, m, replace=False))
    cols = np.sort(rng.choice(n + 6, n, replace=False))
    x = np.zeros((m + 6, n + 6), core.dtype)
    x[np.ix_(rows, cols)] = core
    full = np.linalg.svd(x, compute_uv=False)[0]
    assert abs(opnorm(x) - full) <= 16 * np.spacing(full)


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
    # written without json's cycle check, in the bytes the checked encoder gives
    checked = json.dumps(matrix_to_json_dict(m), sort_keys=True, separators=(",", ":"), check_circular=True)
    assert p1.read_text(encoding="utf-8") == checked + "\n"


def test_json_dict_shape_and_layout():
    m = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    obj = matrix_to_json_dict(m)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 2.0]  # row-major
    assert obj["data"][1] == [3.0, 0.0]
    assert obj["data"][3] == [0.0, -1.0]
    json.dumps(obj)  # serializable as-is


@pytest.mark.parametrize(
    "m",
    [
        rand_complex(RNG, 3, 4),
        RNG.normal(size=(4, 3)),
        np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]]),
        np.array([[-0.0, 2.0]]),
        np.array([[1, -2]]),
        np.zeros((0, 3)),
    ],
    ids=["complex", "real", "signed_zeros", "real_signed_zero", "integer", "empty"],
)
def test_json_dict_data_matches_the_per_entry_encoder(m):
    # the per-entry loop the vectorized encoder replaced is the reference;
    # json.dumps tells -0.0 from 0.0 and 1.0 from 1
    flat = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float).ravel()
    reference = [[float(z.real), float(z.imag)] for z in flat]
    assert json.dumps(matrix_to_json_dict(m)["data"]) == json.dumps(reference)


def test_json_dict_keeps_signed_zeros():
    z = np.array([[-0.0, complex(0.0, -0.0)], [complex(-0.0, -0.0), 1.0]])
    data = matrix_to_json_dict(z)["data"]
    assert [[np.copysign(1.0, v) for v in pair] for pair in data] == [
        [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [1.0, 1.0]
    ]


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


def _per_entry_decoder(obj):
    """The per-entry loop the vectorized decoder replaced, kept as reference."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ValueError(f"matrix JSON is missing the {key!r} field")
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 0 for v in (rows, cols)):
        raise ValueError("rows and cols must be non-negative integers")
    if not isinstance(data, list):
        raise ValueError("data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(
            f"data length {len(data)} does not match rows*cols = {rows * cols}"
        )
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"data[{i}] is not a [re, im] pair of numbers")
        try:
            out[i] = complex(entry[0], entry[1])
        except OverflowError:
            raise ValueError(f"data[{i}] is not finite") from None
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"data[{bad[0]}] is not finite")
    if not out.imag.any():
        out = np.ascontiguousarray(out.real)
    return out.reshape(rows, cols)


def _file_dict(m):
    return json.loads(json.dumps(matrix_to_json_dict(m)))


@pytest.mark.parametrize(
    "obj",
    [
        _file_dict(rand_complex(RNG, 3, 4)),
        _file_dict(RNG.normal(size=(4, 3))),
        {"rows": 1, "cols": 2, "data": [[1.0, -0.0], [2.0, 0.0]]},
        {"rows": 2, "cols": 2, "data": [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]]},
        {"rows": 1, "cols": 2, "data": [[-0.0, 1.0], [0.0, -1.0]]},
        {"rows": 2, "cols": 2, "data": [[2**53 + 1, 0], [-(2**63), 0], [3, -4], [2**63, 1.5]]},
        {"rows": 1, "cols": 2, "data": [[np.float64(1.5), np.float64(-0.0)], [2, 0.0]]},
        {"rows": 2, "cols": 1, "data": [(1.0, 2.0), (3, 0)]},
        {"rows": 0, "cols": 3, "data": []},
        {"rows": 3, "cols": 0, "data": []},
        _file_dict(RNG.normal(size=(2, 5)) + 1j * np.eye(2, 5)),
    ],
    ids=[
        "complex", "real", "imag_negative_zero", "signed_zero_real", "signed_zero_complex",
        "integers", "numpy_floats", "tuples", "empty_0x3", "empty_3x0", "rectangular",
    ],
)
def test_json_dict_decoder_matches_the_per_entry_decoder(obj):
    got, want = matrix_from_json_dict(obj), _per_entry_decoder(obj)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "bad",
    ["true", "[0.5, false]", '"1"', '["1", 0]', "null", "[1.0, null]", "[1.0]",
     "[1.0, 0.0, 0.0]", "[[1.0], 0.0]", '{"re": 1.0}', "[1" + "0" * 400 + ", 0]",
     "[NaN, 0]", "[0, Infinity]", "[-Infinity, 1]"],
    ids=["bool", "bool_part", "string", "string_part", "null", "null_part", "one_element",
         "three_elements", "nested", "object", "int_overflow", "nan", "infinity",
         "minus_infinity"],
)
@pytest.mark.parametrize("k", [0, 7, 14])
def test_json_dict_names_the_first_bad_entry_like_the_per_entry_decoder(bad, k):
    # entries as the file holds them: json.loads parses NaN, Infinity and big ints
    entries = ["[1.5, -0.5]"] * 15
    entries[k] = bad
    obj = json.loads('{"rows": 3, "cols": 5, "data": [' + ", ".join(entries) + "]}")
    with pytest.raises(ValueError) as want:
        _per_entry_decoder(obj)
    with pytest.raises(ValueError) as got:
        matrix_from_json_dict(obj)
    assert str(got.value) == str(want.value)
    assert f"data[{k}]" in str(got.value)


@pytest.mark.parametrize("kind", ["complex", "real"])
def test_json_round_trip_skips_the_per_entry_path(tmp_path, monkeypatch, fresh_memo, kind):
    # a file save_matrix writes decodes with no Python code per entry
    m = rand_complex(RNG, 96, 96) if kind == "complex" else RNG.normal(size=(96, 96))
    calls = []
    per_entry = numkit._entries_to_complex
    monkeypatch.setattr(
        numkit, "_entries_to_complex", lambda data: calls.append(len(data)) or per_entry(data)
    )
    save_matrix(tmp_path / "m.json", m)
    got = load_matrix(tmp_path / "m.json")
    assert calls == [] and got.dtype == m.dtype and got.tobytes() == m.tobytes()
    # the spy does see input that only the per-entry path accepts
    matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[np.float64(1.0), 0.0]]})
    assert calls == [1]


# --- load_matrix reuses decoded files by content ------------------------------


def _count_decodes(monkeypatch):
    calls = []
    decode = numkit.matrix_from_json_dict
    monkeypatch.setattr(
        numkit, "matrix_from_json_dict", lambda obj: calls.append(obj["rows"]) or decode(obj)
    )
    return calls


def _cached_arrays():
    return [value for value, _ in numkit._memo._entries.values()]


def test_load_cache_budget_is_4_mib():
    assert numkit._LOAD_CACHE_BYTES == 4 * 2**20


def test_same_bytes_under_another_path_decode_once(tmp_path, monkeypatch, fresh_memo):
    calls = _count_decodes(monkeypatch)
    m = rand_complex(RNG, 5, 4)
    save_matrix(tmp_path / "a.json", m)
    (tmp_path / "b.json").write_bytes((tmp_path / "a.json").read_bytes())
    got = [load_matrix(tmp_path / name) for name in ("a.json", "b.json", "a.json")]
    assert calls == [5]
    assert all(g.dtype == m.dtype and g.tobytes() == m.tobytes() for g in got)


def test_each_load_returns_a_fresh_writeable_array(tmp_path, fresh_memo):
    m = RNG.normal(size=(3, 3))
    save_matrix(tmp_path / "m.json", m)
    first = load_matrix(tmp_path / "m.json")
    assert first.flags.writeable and first.flags.c_contiguous
    first[:] = 7.0
    second = load_matrix(tmp_path / "m.json")
    assert second.flags.writeable and not np.shares_memory(first, second)
    assert second.tobytes() == m.tobytes()
    assert all(not a.flags.writeable for a in _cached_arrays())


def test_rewritten_file_with_restored_mtime_loads_its_new_content(tmp_path, fresh_memo):
    path = tmp_path / "m.json"
    path.write_text('{"cols":1,"data":[[1.5,0.0]],"rows":1}\n', encoding="utf-8")
    stat = path.stat()
    assert load_matrix(path)[0, 0] == 1.5
    path.write_text('{"cols":1,"data":[[2.5,0.0]],"rows":1}\n', encoding="utf-8")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    assert load_matrix(path)[0, 0] == 2.5


@pytest.mark.parametrize(
    "text, decodes",
    [
        ('{"cols":1,"data":[[1.0,null]],"rows":1}', 3),
        ('{"cols":1,"data":[[1.0,NaN]],"rows":1}', 3),
        ('{"cols":2,"data":[[1.0,0.0]],"rows":1}', 3),
        ('{"cols":1,"data":[[1.0,0.0]],"rows":1', 0),  # json.loads fails first
        ('\ufeff{"cols":1,"data":[[1.0,0.0]],"rows":1}', 0),
    ],
    ids=["null_part", "nan", "length", "truncated", "bom"],
)
def test_malformed_file_raises_the_same_error_every_call_and_is_not_kept(
    tmp_path, monkeypatch, fresh_memo, text, decodes
):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as want:  # the reader without a cache
        with open(path, "r", encoding="utf-8") as fh:
            matrix_from_json_dict(json.load(fh))
    calls = _count_decodes(monkeypatch)
    for _ in range(3):
        with pytest.raises(ValueError) as got:
            load_matrix(path)
        assert str(got.value) == str(want.value)
    assert len(calls) == decodes
    assert _cached_arrays() == [] and numkit._memo.nbytes == 0


def test_cache_stays_within_its_budget_and_evicts_the_least_recently_used(
    tmp_path, monkeypatch, fresh_memo
):
    monkeypatch.setattr(numkit, "_LOAD_CACHE_BYTES", 4096)  # four 8x8 complex arrays
    calls = _count_decodes(monkeypatch)
    paths = []
    for k in range(5):
        paths.append(tmp_path / f"m{k}.json")
        save_matrix(paths[-1], rand_complex(RNG, 8, 8))

    def load(k):
        load_matrix(paths[k])
        held = _cached_arrays()
        assert numkit._memo.nbytes == sum(a.nbytes for a in held) <= 4096

    for k in (0, 1, 2, 3, 0, 4):  # reusing 0 leaves 1 the least recently used
        load(k)
    assert len(calls) == 5
    load(0)
    assert len(calls) == 5
    load(1)
    assert len(calls) == 6
    # an array larger than the whole budget is decoded on every call, never kept
    save_matrix(tmp_path / "big.json", rand_complex(RNG, 17, 17))
    held = _cached_arrays()
    for _ in range(2):
        assert load_matrix(tmp_path / "big.json").shape == (17, 17)
    assert len(calls) == 8
    assert all(a is b for a, b in zip(_cached_arrays(), held, strict=True))


def test_concurrent_loads_each_return_their_own_file(tmp_path, monkeypatch, fresh_memo):
    # a budget for three of the six files keeps eviction running under contention
    monkeypatch.setattr(numkit, "_LOAD_CACHE_BYTES", 3 * 6 * 6 * 16)
    want = {}
    for k in range(6):
        m = rand_complex(RNG, 6, 6) if k % 2 else RNG.normal(size=(6, 6))
        save_matrix(tmp_path / f"m{k}.json", m)
        want[k] = m.tobytes()
    errors_seen, mismatches = [], []

    def worker(seed):
        order = np.random.default_rng(seed).integers(0, 6, size=200)
        try:
            for k in order:
                if load_matrix(tmp_path / f"m{k}.json").tobytes() != want[k]:
                    mismatches.append(k)
        except Exception as exc:  # noqa: BLE001 - any failure fails the test
            errors_seen.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors_seen == [] and mismatches == []
    assert numkit._memo.nbytes == sum(a.nbytes for a in _cached_arrays()) <= 3 * 6 * 6 * 16
    # two threads that decode the same text before either stores it store it once
    monkeypatch.setattr(numkit, "_memo", numkit._Memo())
    for _ in range(2):
        numkit._memo.put(b"same text", np.zeros((2, 2)))
    assert len(_cached_arrays()) == 1 and numkit._memo.nbytes == 32


def test_as_matrix_shape_guard():
    with pytest.raises(ShapeMismatch):
        herm_eig(np.ones(3))


@pytest.mark.parametrize(
    "entries,dtype",
    [
        ([["1", "2"]], "<U1"),
        ([["a", "2"]], "<U1"),
        (np.array([[b"1", b"2"]]), "|S1"),
        (np.zeros((2, 2), dtype="V8"), "|V8"),
        (np.array([["2020-01-01"]], dtype="datetime64[D]"), "datetime64[D]"),
        (np.array([[1, "2"]], dtype=object), "<U21"),  # numpy types these as strings
    ],
)
def test_as_matrix_rejects_entries_that_are_not_numbers(entries, dtype):
    with pytest.raises(errors.NotNumeric, match=re.escape(f"A has dtype {dtype}, not numbers")):
        as_matrix(entries, "A")
    with pytest.raises(errors.NotNumeric, match=re.escape(f"matrix has dtype {dtype}")):
        opnorm(entries)


# --- one dtype decision: the operand's ------------------------------------------


def _with_imag(x, imag):
    """complex128 copy of real ``x`` whose imaginary parts are all ``imag``,
    except (0, 1) in the "one_nonzero" case."""
    m = np.empty(x.shape, dtype=np.complex128)
    m.real = x
    m.imag = -0.0 if imag == "-0.0" else 0.0
    if imag == "one_nonzero":
        m[0, 1] += 1e-300j  # far below any tolerance, but not zero
    return m


_IMAG_DTYPE = {"+0.0": np.float64, "-0.0": np.float64, "one_nonzero": np.complex128}


def _through_json(m):
    return matrix_from_json_dict(json.loads(json.dumps(matrix_to_json_dict(m))))


@pytest.mark.parametrize("imag", sorted(_IMAG_DTYPE))
def test_real_valued_operands_reach_the_real_drivers(monkeypatch, fresh_memo, imag):
    # every JSON entry carries an imaginary part: a file whose imaginary parts
    # are all zero loads as float64 and runs the real drivers throughout
    rng = np.random.default_rng(47)
    g = rng.normal(size=(6, 6))
    a, b = (_through_json(_with_imag(x, imag)) for x in (g @ g.T + np.eye(6), np.diag([1.0, 2, 3, 0, 0, 0])))
    want = np.dtype(_IMAG_DTYPE[imag])
    assert a.dtype == b.dtype == want
    calls = {k: record_linalg(monkeypatch, k, lambda _: None) for k in ("svd", "eigvalsh", "eigh")}
    opnorm(a)
    f = _svd_factor(a)
    pm = shorting._coordinate_projector(6, 3)
    block = partition(a, pm, pm)
    verify_range_kernel(block, shorted(block))
    value = parallel_sum(a, b).value
    hansen_inequality_check(b, a, np.eye(6) / 2)  # (b, a): parallel_sum's analysis of (a, b) would serve (a, b)
    lemma_69_check(a, b)
    # SVDs: opnorm, _svd_factor, 4 in verify_range_kernel and the pipeline's;
    # eigvalsh: 2 validations in parallel_sum, 2 + 1 in hansen, 1 + 1 in lemma
    # 69; eigh: the PSD clamp of A : B in parallel_sum and in hansen
    assert len(calls["svd"]) >= 6 and len(calls["eigvalsh"]) == 7 and len(calls["eigh"]) == 2
    # the operands' dtype reaches every kernel: the coordinate projector is
    # float64, but every operand it meets is in the dtype of A
    assert {x.dtype for k in calls for x, _ in calls[k]} == {want}
    assert f.u.dtype == f.vh.dtype == value.dtype == want


def test_real_driver_choice_is_by_value_not_by_dtype():
    # the JSON reader decides by value: an imaginary part of +0.0 or -0.0 is
    # zero, 1e-300 is not, and NaN is rejected rather than read as either
    x = np.arange(6.0).reshape(2, 3)
    for imag in ("+0.0", "-0.0"):
        got = _through_json(_with_imag(x, imag))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == x.tobytes()
    z = _with_imag(x, "one_nonzero")
    got = _through_json(z)
    assert got.dtype == np.complex128 and got.tobytes() == z.tobytes()
    with pytest.raises(ValueError, match="not finite"):
        matrix_from_json_dict({"rows": 1, "cols": 1, "data": [[1.0, float("nan")]]})
    # as_matrix decides by dtype: complex stays complex128, whatever its values
    assert as_matrix(x) is x
    assert as_matrix(_with_imag(x, "+0.0")).dtype == np.complex128
    assert as_matrix(np.arange(6).reshape(2, 3)).dtype == np.float64
    assert as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert as_matrix(np.eye(2, dtype=np.complex64)).dtype == np.complex128
    # numbers held as objects are typed by their values, as in a list
    assert as_matrix(np.array([[1j, 2]], dtype=object)).dtype == np.complex128
    assert as_matrix(np.array([[1.0, 2]], dtype=object)).dtype == np.float64
    assert as_matrix(np.empty((0, 3), dtype=object)).shape == (0, 3)


def _contract_operands(rng, n=6):
    t = rng.normal(size=(n, 4)) @ rng.normal(size=(4, n))  # rank 4
    g = rng.normal(size=(n, n))
    h = rng.normal(size=(n, 3))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :3]
    return {
        "t": t,
        "c": t @ rng.normal(size=(n, 2)),  # in R(t)
        "pd": g @ g.T + np.eye(n),
        "psd": h @ h.T,  # rank 3
        "p": q @ q.T,  # a projector that is not a coordinate one
        "y": rng.normal(size=(n, n)) / 4.0,
    }


def _shorted_block(o):
    return partition(o["pd"], o["p"], o["p"])


def _idempotents(o):
    block = _shorted_block(o)
    comp = is_complementable(block)
    return shorting.complementable_idempotents(block, comp.C, comp.D)


def _range_kernel(o):
    block = _shorted_block(o)
    return verify_range_kernel(block, shorted(block))


def _parallel_sum_and_trend(o):
    res = parallel_sum(o["psd"], o["pd"])
    res.regularized  # its inverses run on the operands too
    return res


# each public entry point that takes operators, called on the operands of
# _contract_operands
_OPERAND_CALLS = {
    "herm_eig": lambda o: herm_eig(o["pd"]),
    "psd_power": lambda o: psd_power(o["psd"], 0.5),
    "absolute_value": lambda o: absolute_value(o["t"], "left"),
    "pseudo_inverse": lambda o: pseudo_inverse(o["t"]),
    "range_projector": lambda o: range_projector(o["t"]),
    "range_basis": lambda o: range_basis(o["t"]),
    "numerical_rank": lambda o: numerical_rank(o["t"]),
    "opnorm": lambda o: opnorm(o["t"]),
    "polar_decompose": lambda o: polar.polar_decompose(o["t"]),
    "gpolar": lambda o: polar.gpolar(o["t"], 0.5),
    "gpolar_iterative": lambda o: polar.gpolar_iterative(o["t"], 0.5, 3),
    "v_operator": lambda o: polar.v_operator(o["t"]),
    "range_included": lambda o: range_included(o["t"], o["c"]),
    "reduced_solution": lambda o: douglas.reduced_solution(o["t"], o["c"]),
    "check_projector": lambda o: shorting.check_projector(o["p"]),
    "partition": _shorted_block,
    "is_complementable": lambda o: is_complementable(_shorted_block(o)),
    "complementable_idempotents": _idempotents,
    "weak_complement_data": lambda o: shorting.weak_complement_data(_shorted_block(o)),
    "shorted": lambda o: shorted(_shorted_block(o)),
    "verify_range_kernel": _range_kernel,
    "parallel_sum": _parallel_sum_and_trend,
    "hansen_inequality_check": lambda o: hansen_inequality_check(o["psd"], o["pd"], o["y"]),
    "lemma_69_check": lambda o: lemma_69_check(o["pd"], o["y"]),
    "solve_parallel_equation": lambda o: solve_parallel_equation(o["psd"], o["pd"]),
}

# the lab's entry points take dimensions; their kit is float64
_LAB_CALLS = {
    "make_kit": lambda o: lab.make_kit(4),
    "sqrt_a0_closed_form": lambda o: lab.sqrt_a0_closed_form(4),
    "kit_block_projector": lambda o: lab.kit_block_projector(4),
    "divergence_sweep": lambda o: lab.divergence_sweep([4]),
    "verify_closed_forms": lambda o: lab.verify_closed_forms(4),
}


def _arrays(x):
    """Every floating or complex array inside a result."""
    if isinstance(x, np.ndarray):
        return [x] if np.issubdtype(x.dtype, np.inexact) else []
    if hasattr(x, "__dataclass_fields__"):
        x = [getattr(x, name) for name in x.__dataclass_fields__]
    elif isinstance(x, dict):
        x = list(x.values())
    elif not isinstance(x, (list, tuple)):
        return []
    return [a for item in x for a in _arrays(item)]


def test_the_dtype_contract_covers_every_public_entry_point():
    # as_matrix, the decision itself, and the JSON file functions are covered
    # by the tests above
    files = {"as_matrix", "matrix_to_json_dict", "matrix_from_json_dict", "save_matrix", "load_matrix"}
    public = {
        name
        for module in (numkit, polar, douglas, shorting, parallel, lab)
        for name in module.__all__
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
    }
    assert public - files - {"sweep_to_csv"} == set(_OPERAND_CALLS) | set(_LAB_CALLS)


@pytest.mark.parametrize("name", sorted(_OPERAND_CALLS) + sorted(_LAB_CALLS))
def test_float64_operands_give_float64_results_on_real_drivers(monkeypatch, name):
    calls = {k: record_linalg(monkeypatch, k, lambda _: None) for k in ("svd", "eigh", "eigvalsh", "inv")}
    result = {**_OPERAND_CALLS, **_LAB_CALLS}[name](_contract_operands(np.random.default_rng(61)))
    assert {x.dtype for x in _arrays(result)} <= {np.dtype(np.float64)}
    assert {x.dtype for k in calls for x, _ in calls[k]} <= {np.dtype(np.float64)}


@pytest.mark.parametrize("name", sorted(_OPERAND_CALLS))
def test_string_operands_are_rejected_before_any_lapack_call(monkeypatch, name):
    calls = {k: record_linalg(monkeypatch, k, lambda _: None) for k in ("svd", "eigh", "eigvalsh", "inv")}
    operands = {k: v.astype(str) for k, v in _contract_operands(np.random.default_rng(61)).items()}
    with pytest.raises(errors.NotNumeric, match="has dtype <U"):
        _OPERAND_CALLS[name](operands)
    assert not any(calls.values())


@pytest.mark.parametrize("name", sorted(_OPERAND_CALLS))
def test_complex_operands_give_complex128_results(name):
    operands = {k: v.astype(np.complex128) for k, v in _contract_operands(np.random.default_rng(61)).items()}
    arrays = _arrays(_OPERAND_CALLS[name](operands))
    # operators keep the operands' dtype; spectra are real
    assert {x.dtype for x in arrays if x.ndim == 2} <= {np.dtype(np.complex128)}
    assert {x.dtype for x in arrays if x.ndim == 1} <= {np.dtype(np.float64)}


def test_package_republishes_every_module_list():
    modules = (numkit, polar, douglas, shorting, parallel, lab, errors)
    names = {"__version__"}.union(*(m.__all__ for m in modules))
    assert len(opshort.__all__) == len(names) and set(opshort.__all__) == names
    new = {"as_matrix", "CSV_COLUMNS", "DEFAULT_SWEEP_DIMS", "sqrt_a0_closed_form",
           "kit_block_projector", "ClosedFormReport"}
    assert new <= names
    for name in opshort.__all__:
        assert hasattr(opshort, name), name


_REAL_CASES = {
    "full_rank": lambda rng: rng.normal(size=(9, 9)),
    "rank_deficient": lambda rng: rng.normal(size=(9, 4)) @ rng.normal(size=(4, 9)),
    "empty": lambda rng: np.zeros((0, 0)),
    "one_row": lambda rng: rng.normal(size=(1, 9)),
}


def _ulps_of_sigma1(x, y, scale):
    return float(np.max(np.abs(x - y), initial=0.0)) / (np.finfo(float).eps * max(scale, 1e-300))


def _matrix_route(x, c_in, c_out):
    f = _svd_factor(as_matrix(x))
    return {
        "opnorm": opnorm(x),
        "s": f.s,
        "rank": f.rank(DEFAULT_TOL),
        "u": f.u,
        "inclusions": [range_included(x, c) for c in (c_in, c_out)],
    }


def _complex_route(route, *operands):
    """The same call on complex128 copies of the float64 operands: the complex
    drivers on the same values."""
    return route(*(x.astype(np.complex128) for x in operands))


@pytest.mark.parametrize("case", sorted(_REAL_CASES))
def test_real_driver_matches_the_complex_route_on_matrices(case):
    rng = np.random.default_rng([53, len(case)])
    x = _REAL_CASES[case](rng)
    c_in = x @ rng.normal(size=(x.shape[1], 3))
    c_out = c_in + 1e-3 * rng.normal(size=c_in.shape)
    real = _matrix_route(x, c_in, c_out)
    ref = _complex_route(_matrix_route, x, c_in, c_out)
    assert real["u"].dtype == np.float64 and ref["u"].dtype == np.complex128
    sigma1 = ref["opnorm"]
    assert _ulps_of_sigma1(real["s"], ref["s"], sigma1) <= 8
    assert _ulps_of_sigma1(np.array(real["opnorm"]), np.array(sigma1), sigma1) <= 8
    assert real["rank"] == ref["rank"]
    for got, want in zip(real["inclusions"], ref["inclusions"]):
        assert (got.included, got.borderline) == (want.included, want.borderline)
        assert got.margin == pytest.approx(want.margin, rel=1e-9, abs=1e-13)


def _psd_of(x):
    return x.T @ x


def _pipeline_route(t, p, a, b):
    block = partition(t, p, p)
    comp = is_complementable(block)
    try:
        res = shorted(block)
        short = (res.mode, res.shorted, verify_range_kernel(block, res))
    except NotWeaklyComplementable:
        short = None
    return {
        "ranks": shorting._ranks(block, DEFAULT_TOL),
        "complementable": comp.complementable,
        "margins": comp.margins,
        "shorted": short,
        "parallel": parallel_sum(a, b).value,
    }


@pytest.mark.parametrize("projector", ["coordinate", "general"])
@pytest.mark.parametrize("case", sorted(_REAL_CASES))
def test_real_driver_matches_the_complex_route_on_the_pipeline(case, projector):
    rng = np.random.default_rng([59, len(case)])
    x = _REAL_CASES[case](rng)
    n = x.shape[1]
    # a PSD T on two copies of the domain, of rank up to twice x's, shorted
    # to its first copy
    t = sum(_psd_of(np.hstack([_REAL_CASES[case](rng) for _ in "MN"])) for _ in "12")
    if projector == "coordinate":
        p = shorting._coordinate_projector(2 * n, n)
    else:
        q = np.linalg.qr(rng.normal(size=(2 * n, 2 * n)))[0][:, :n]
        p = q @ q.T
    a, b = _psd_of(x), _psd_of(_REAL_CASES[case](rng))
    real = _pipeline_route(t, p, a, b)
    ref = _complex_route(_pipeline_route, t, p, a, b)
    scale = max(opnorm(t), 1.0)
    assert real["ranks"] == ref["ranks"]
    assert real["complementable"] == ref["complementable"]
    assert_allclose(real["margins"], ref["margins"], rtol=1e-9, atol=1e-13)
    assert (real["shorted"] is None) == (ref["shorted"] is None)
    if ref["shorted"] is not None:
        (mode, value, report), (ref_mode, ref_value, ref_report) = real["shorted"], ref["shorted"]
        assert (mode, report) == (ref_mode, ref_report)
        # float64, like the operands
        assert value.dtype == np.float64
        assert_allclose(value, ref_value, atol=1e-12 * scale)
    assert real["parallel"].dtype == np.float64
    assert_allclose(real["parallel"], ref["parallel"], atol=1e-12 * max(opnorm(a) + opnorm(b), 1.0))


# --- finite operands or a named error -------------------------------------------

# every public callable that takes a matrix: _OPERAND_CALLS and the coercion and
# encoding functions, each on _contract_operands' operands
_FINITE_CALLS = {
    **_OPERAND_CALLS,
    "as_matrix": lambda o: as_matrix(o["t"], "T"),
    "matrix_to_json_dict": lambda o: matrix_to_json_dict(o["t"]),
    "save_matrix": lambda o: save_matrix(os.devnull, o["t"]),
}
_LAPACK = ("svd", "eigh", "eigvalsh", "inv", "solve", "lstsq", "pinv", "qr", "norm", "eig", "det")


def test_the_finite_property_covers_every_public_callable_that_takes_a_matrix():
    takes_no_matrix = set(_LAB_CALLS) | {"sweep_to_csv", "matrix_from_json_dict", "load_matrix"}
    public = {
        name
        for module in (numkit, polar, douglas, shorting, parallel, lab)
        for name in module.__all__
        if callable(getattr(module, name)) and not isinstance(getattr(module, name), type)
    }
    assert public - takes_no_matrix == set(_FINITE_CALLS)


class _Reads(dict):
    """The operands, recording which of them a call reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = []

    def __getitem__(self, key):
        if key not in self.read:
            self.read.append(key)
        return super().__getitem__(key)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(sorted(_FINITE_CALLS)),
    pick=st.integers(min_value=0, max_value=5),
    where=st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    imaginary=st.booleans(),
)
def test_one_non_finite_entry_raises_not_finite_before_any_lapack_call(
    monkeypatch, name, pick, where, bad, imaginary
):
    operands = _contract_operands(np.random.default_rng(61))
    if imaginary:
        operands = {k: v.astype(np.complex128) for k, v in operands.items()}
    probe = _Reads(operands)
    _FINITE_CALLS[name](probe)  # which operands the call reads, and in what order
    key = probe.read[pick % len(probe.read)]
    operands[key] = operands[key].copy()
    where = tuple(w % n for w, n in zip(where, operands[key].shape))
    operands[key][where] = complex(0.0, bad) if imaginary else bad
    calls = [record_linalg(monkeypatch, k, lambda _: None) for k in _LAPACK]
    try:
        with pytest.raises(NotFinite, match=re.escape(f"[{where[0]}, {where[1]}] is not finite")):
            _FINITE_CALLS[name](operands)
        assert all(c == [] for c in calls), name
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("which", ["C", "D"])
def test_complementable_idempotents_reject_non_finite_witnesses_before_any_norm(monkeypatch, which):
    block = _shorted_block(_contract_operands(np.random.default_rng(61)))
    comp = is_complementable(block)
    c, d = comp.C.copy(), comp.D.copy()
    (c if which == "C" else d)[0, 0] = np.nan
    calls = [record_linalg(monkeypatch, k, lambda _: None) for k in _LAPACK]
    with pytest.raises(NotFinite, match=re.escape(f"{which}[0, 0] is not finite")):
        shorting.complementable_idempotents(block, c, d)
    assert all(c == [] for c in calls)


@pytest.mark.parametrize(
    "call",
    [
        lambda y: parallel_sum(np.eye(3), y),
        lambda y: hansen_inequality_check(np.eye(3) + np.ones((3, 3)) * 1e-12, np.eye(3), y),
        lambda y: lemma_69_check(np.eye(3) + np.triu(np.ones((3, 3))) * 1e-12, y),
    ],
    ids=["parallel_sum_B", "hansen_C", "lemma69_Y"],
)
def test_a_later_operand_is_checked_before_an_earlier_one_is_factored(monkeypatch, call):
    # the first operands need a norm (not exactly Hermitian) or an eigenvalue
    # pass; the bad last operand must be named before either runs
    y = np.eye(3)
    y[2, 1] = np.inf
    calls = [record_linalg(monkeypatch, k, lambda _: None) for k in _LAPACK]
    with pytest.raises(NotFinite, match=re.escape("[2, 1] is not finite")):
        call(y)
    assert all(c == [] for c in calls)
