import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from opshort import (
    make_kit,
    opnorm,
    range_included,
    range_projector,
    reduced_solution,
)
from opshort.douglas import _inclusion, _solve
from opshort.errors import NotSolvable, ShapeMismatch
from opshort.numkit import DEFAULT_TOL, _svd_factor

from _util import rand_complex, rand_fullrank, record_svd

RNG = np.random.default_rng(3003)


def _rank_deficient(rng, rows, cols, rank):
    return rand_complex(rng, rows, rank) @ rand_complex(rng, rank, cols)


def _margin_probe(delta):
    # A kills the third coordinate, so the inclusion margin of this C is
    # exactly delta (the norm of C stays below 1, pinning the denominator)
    a = np.diag([1.0, 1.0, 0.0])
    c = np.array([[0.5], [0.0], [delta]])
    return a, c


# --- range_included -------------------------------------------------------------


def test_inclusion_holds_on_matching_diagonals():
    verdict = range_included(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
    assert verdict.included
    assert verdict.margin <= 1e-14
    assert not verdict.borderline


def test_inclusion_fails_across_coordinates():
    verdict = range_included(np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert not verdict.included
    assert verdict.margin == pytest.approx(1.0)
    assert not verdict.borderline


@pytest.mark.parametrize(
    "delta,included,borderline",
    [
        (5e-10, True, False),
        (5e-9, True, True),
        (3e-8, False, True),
        (2e-7, False, False),
    ],
)
def test_inclusion_borderline_band(delta, included, borderline):
    # the band spans residual_rel / 10 up to residual_rel * 10 around 1e-8
    verdict = range_included(*_margin_probe(delta))
    assert verdict.margin == pytest.approx(delta, rel=1e-9)
    assert verdict.included is included
    assert verdict.borderline is borderline
    # the solve reports the very margin and band flag of the inclusion test
    try:
        solved = reduced_solution(*_margin_probe(delta))
    except NotSolvable as exc:
        solved = exc
    assert (solved.margin, solved.borderline) == (verdict.margin, verdict.borderline)


def test_inclusion_rejects_row_mismatch():
    with pytest.raises(ShapeMismatch):
        range_included(np.eye(3), np.eye(2))


# --- reduced_solution: basics ----------------------------------------------------


def test_reduced_solution_diagonal():
    sol = reduced_solution(np.diag([2.0, 0.0]), np.diag([1.0, 0.0]))
    assert_allclose(sol.D, np.diag([0.5, 0.0]), atol=1e-14)
    assert sol.residual <= 1e-14
    assert sol.range_ok
    assert sol.margin <= 1e-14
    assert not sol.borderline


def test_reduced_solution_solves_constructed_system():
    a = _rank_deficient(RNG, 6, 4, 3)
    c = a @ rand_complex(RNG, 4, 5)
    sol = reduced_solution(a, c)
    assert opnorm(a @ sol.D - c) <= 1e-10 * opnorm(c)
    assert sol.range_ok
    p = range_projector(a.conj().T)
    assert opnorm(p @ sol.D - sol.D) <= 1e-10


def test_reduced_solution_of_a_with_itself_is_projector():
    a = _rank_deficient(RNG, 5, 6, 2)
    sol = reduced_solution(a, a)
    assert opnorm(sol.D - range_projector(a.conj().T)) <= 1e-10


def test_reduced_solution_is_minimum_norm():
    # any other solution Z = D + K with A K = 0 satisfies the Pythagoras
    # relation ||Z||_F^2 = ||D||_F^2 + ||K||_F^2
    a = _rank_deficient(RNG, 6, 5, 3)
    c = a @ rand_complex(RNG, 5, 2)
    d = reduced_solution(a, c).D
    _, _, vh = np.linalg.svd(a)
    kernel = vh[3:].conj().T  # 5 x 2 basis of ker(A)
    for trial in range(5):
        k = kernel @ rand_complex(RNG, 2, 2)
        z = d + k
        assert opnorm(a @ z - c) <= 1e-10 * opnorm(c)
        lhs = np.linalg.norm(z) ** 2
        rhs = np.linalg.norm(d) ** 2 + np.linalg.norm(k) ** 2
        assert abs(lhs - rhs) <= 1e-8 * rhs


def test_reduced_solution_zero_operator():
    sol = reduced_solution(np.zeros((3, 2)), np.zeros((3, 4)))
    assert sol.D.shape == (2, 4)
    assert opnorm(sol.D) == 0.0


def test_reduced_solution_rejects_row_mismatch():
    with pytest.raises(ShapeMismatch):
        reduced_solution(np.eye(3), np.eye(4))


# --- reduced_solution: failure diagnostics ---------------------------------------


def test_not_solvable_carries_diagnostics():
    a = np.diag([1.0, 0.0])
    c = np.array([[0.0], [1.0]])
    with pytest.raises(NotSolvable) as err:
        reduced_solution(a, c)
    exc = err.value
    assert exc.margin == pytest.approx(1.0)
    assert not exc.borderline
    assert exc.candidate.shape == (2, 1)
    assert_allclose(exc.candidate, np.zeros((2, 1)), atol=1e-14)
    assert exc.residual == pytest.approx(1.0)


def test_not_solvable_borderline_flag():
    with pytest.raises(NotSolvable) as err:
        reduced_solution(*_margin_probe(3e-8))
    assert err.value.borderline
    with pytest.raises(NotSolvable) as err:
        reduced_solution(*_margin_probe(2e-7))
    assert not err.value.borderline


def test_borderline_survives_into_solution():
    sol = reduced_solution(*_margin_probe(5e-9))
    assert sol.borderline
    assert sol.margin == pytest.approx(5e-9, rel=1e-9)


# --- factor, then solve ------------------------------------------------------------


def _outcome(fn):
    try:
        sol = fn()
    except NotSolvable as exc:
        return ("not solvable", exc.candidate, exc.residual, exc.margin, exc.borderline)
    return ("solved", sol.D, sol.residual, sol.range_ok, sol.margin, sol.borderline)


@pytest.mark.parametrize("delta", [0.0, 5e-9, 3e-8, 1e-3])
def test_solve_step_on_a_held_factor_matches_reduced_solution(monkeypatch, delta):
    # the solve step takes no factorization of its own: handed A's factor it
    # returns exactly what reduced_solution returns, on either verdict
    a = _rank_deficient(RNG, 7, 5, 3)
    u, _, _ = np.linalg.svd(a)
    c = a @ rand_complex(RNG, 5, 2) + delta * u[:, 5:6] @ np.ones((1, 2))
    expected = _outcome(lambda: reduced_solution(a, c))
    f = _svd_factor(a)
    calls = record_svd(monkeypatch)
    got = _outcome(lambda: _solve(a, f, c, DEFAULT_TOL))
    assert not [uv for _, uv in calls if uv]
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    assert got[2:] == expected[2:]


def test_reduced_solution_factors_a_once(monkeypatch):
    a = _rank_deficient(RNG, 6, 5, 3)
    c = a @ rand_complex(RNG, 5, 2)
    calls = record_svd(monkeypatch)
    sol = reduced_solution(a, c)
    factored = [m for m, uv in calls if uv]
    assert len(factored) == 1 and np.array_equal(factored[0], a)
    # norms only for ||C|| and the residual; the range check is settled by
    # Frobenius bounds, and the margin costs its norm only when read
    assert len(calls) == 3
    assert sol.range_ok
    assert sol.margin <= DEFAULT_TOL.residual_rel
    assert len(calls) == 4


# --- verdicts settled without the margin ----------------------------------------


def _eager(ur, uc, cm, c_norm, tol=DEFAULT_TOL):
    """The inclusion rule with the margin always computed: (included,
    borderline, margin)."""
    margin = opnorm(cm - ur @ uc) / max(c_norm, 1.0)
    rel = tol.residual_rel
    return margin <= rel, rel / 10.0 <= margin <= rel * 10.0, margin


def _inclusion_case(rng, n, k, p, margin):
    """R(A) spanned by k orthonormal columns U_r of C^n, and C (n x p) whose
    part outside R(A) has norm ``margin``: (U_r, U_r* C, C, ||C||)."""
    q = np.linalg.qr(rand_complex(rng, n, n))[0]
    ur = q[:, :k]
    out = q[:, k:] @ rand_complex(rng, n - k, p)
    c = ur @ rand_complex(rng, k, p) + margin * out / opnorm(out)
    return ur, ur.conj().T @ c, c, opnorm(c)


def _assert_same_verdict(case):
    ur, uc, cm, c_norm = case
    got = _inclusion(ur @ uc, cm, c_norm, DEFAULT_TOL)
    included, borderline, margin = _eager(*case)
    assert (got.included, got.borderline) == (included, borderline)
    assert type(got.included) is type(got.borderline) is bool
    assert got.margin == margin


def test_settled_verdicts_match_the_eager_rule_on_log_uniform_margins():
    rng = np.random.default_rng(1414)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        k, p = int(rng.integers(1, n)), int(rng.integers(1, 4))
        margin = 10.0 ** rng.uniform(-14.0, -2.0)
        _assert_same_verdict(_inclusion_case(rng, n, k, p, margin))


@pytest.mark.parametrize("edge", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("cols", [1, 3])
def test_settled_verdicts_match_the_eager_rule_at_the_band_edges(edge, cols):
    # margins within a few ulps of rel/10, rel and 10 rel.  On a single
    # column the Frobenius and operator norms agree in exact arithmetic and
    # round apart, so a settling rule without a margin on the band would
    # flip flags here
    rng = np.random.default_rng([1515, cols])
    target = edge * DEFAULT_TOL.residual_rel
    sides = set()
    for _ in range(100):
        n = int(rng.integers(2, 40))
        ur, _, c, _ = _inclusion_case(rng, n, 1, cols, target)
        # the out-of-range part alone, so the margin is ||C|| against the floor 1
        c = c - ur @ (ur.conj().T @ c)
        c = c * (target / opnorm(c))
        case = (ur, ur.conj().T @ c, c, 0.0)
        _assert_same_verdict(case)
        sides.add(float(np.sign(_eager(*case)[2] - target)))
    # the cases straddle the edge
    assert {-1.0, 1.0} <= sides or 0.0 in sides


# --- verdict stability ------------------------------------------------------------


def test_verdict_invariant_under_well_conditioned_left_factor():
    # multiplying both sides by an invertible operator must not flip the
    # solvability verdict as long as its condition number stays moderate
    m = rand_fullrank(RNG, 6, smin=0.1, smax=10.0)  # cond <= 1e3 by construction
    a = _rank_deficient(RNG, 6, 4, 2)

    c_good = a @ rand_complex(RNG, 4, 3)
    assert range_included(a, c_good).included
    assert range_included(m @ a, m @ c_good).included

    c_bad = rand_complex(RNG, 6, 3)  # generic: misses the rank-2 range
    assert not range_included(a, c_bad).included
    assert not range_included(m @ a, m @ c_bad).included


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
)
def test_constructed_systems_always_solve(seed, rows, cols):
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, min(rows, cols) + 1))
    a = rand_complex(rng, rows, rank) @ rand_complex(rng, rank, cols)
    c = a @ rand_complex(rng, cols, int(rng.integers(1, 5)))
    sol = reduced_solution(a, c)
    assert sol.residual <= 1e-8
    assert sol.range_ok
    assert not sol.borderline


# --- the lab's headline system -----------------------------------------------------


def test_strong_solution_norm_on_truncation_family():
    # the plain solve of (A0 + B0) X = B0 blows up like sqrt(1 + d^2)
    kit = make_kit(32)
    sol = reduced_solution(kit.A0 + kit.B0, kit.B0)
    assert abs(opnorm(sol.D) - np.sqrt(1.0 + 32.0**2)) <= 1e-9
    sol_half = reduced_solution(kit.sqrtAB, kit.B0)
    assert abs(opnorm(sol_half.D) - 1.0) <= 1e-10
