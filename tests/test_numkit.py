import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
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
from opshort.errors import NotHermitian, NotPSD, NotWeaklyComplementable, ShapeMismatch
from opshort.numkit import _norm_within, _svd_factor, as_matrix

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


def test_as_matrix_shape_guard():
    with pytest.raises(ShapeMismatch):
        herm_eig(np.ones(3))


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
def test_real_valued_operands_reach_the_real_drivers(monkeypatch, imag):
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
    hansen_inequality_check(a, b, np.eye(6) / 2)
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
    "parallel_sum": lambda o: parallel_sum(o["psd"], o["pd"]),
    "regularized_trend": lambda o: parallel.regularized_trend(o["psd"], o["pd"], o["psd"]),
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
