"""The truncation kit's identities in exact arithmetic, and the float64 sweep
checked against them.

Mode i of the kit has weight t = 1/i and carries the 2x2 blocks

    A0 = [[1, t], [t, t^2]] = v v*,  v = (1, t)      B0 = [[1, 0], [0, 0]]

so every quantity the paper's two Hilbert-space claims need is rational in
t.  The identities are written as closed-form scalar expressions over
``fractions.Fraction``, one mode at a time; the float64 checks compare the
lab's sweep and ``solve_parallel_equation`` with the same expressions.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from opshort import divergence_sweep, make_kit, solve_parallel_equation

# every mode i <= _EXACT_MODES is checked exactly
_EXACT_MODES = 1000
# the float64 checks read <= 1.4e-15 at 1 and 2 BLAS threads
_FLOAT_REL = 1e-13


def _inverse(t):
    """(A0 + B0)^-1 = [[t^2, -t], [-t, 2]] / t^2 as (p, q, r, s) row by row,
    from the 2x2 adjugate over det(A0 + B0) = 2 t^2 - t^2."""
    det = 2 * t * t - t * t
    return t * t / det, -t / det, -t / det, 2 / det


def _strong_solution(t):
    """X = (A0 + B0)^-1 B0, the unique solution of (A0 + B0) X = B0: B0 keeps
    the first column, so X = [[p, 0], [r, 0]]."""
    p, _, r, _ = _inverse(t)
    return p, Fraction(0), r, Fraction(0)


@pytest.mark.parametrize("i", [1, 2, 3, 10, 999, _EXACT_MODES])
def test_inverse_is_the_closed_form(i):
    t = Fraction(1, i)
    p, q, r, s = _inverse(t)
    # (A0 + B0) (A0 + B0)^-1 = I entry by entry
    assert (2 * p + t * r, 2 * q + t * s, t * p + t * t * r, t * q + t * t * s) == (1, 0, 0, 1)


def test_strong_solution_is_unbounded_in_the_mode():
    for i in range(1, _EXACT_MODES + 1):
        x11, x12, x21, x22 = _strong_solution(Fraction(1, i))
        assert (x11, x12, x21, x22) == (1, 0, -i, 0)
        # one nonzero column (1, -i): ||X_i||^2 = 1 + i^2
        assert x11 * x11 + x21 * x21 == 1 + i * i


def test_b0_sandwich_of_the_inverse_is_b0():
    # B0 (A0 + B0)^-1 B0 = [[p, 0], [0, 0]]; it equals B0, so Xunique =
    # (A0 + B0)^(-1/2) B0 has Xunique* Xunique = B0 and norm 1 on every mode
    for i in range(1, _EXACT_MODES + 1):
        p, _, _, _ = _inverse(Fraction(1, i))
        assert p == 1


def test_parallel_sum_of_the_kit_vanishes():
    # A0 : B0 = A0 - A0 (A0 + B0)^-1 A0 = (1 - v* (A0 + B0)^-1 v) A0
    for i in range(1, _EXACT_MODES + 1):
        t = Fraction(1, i)
        p, q, r, s = _inverse(t)
        assert 1 - (p + t * (q + r) + t * t * s) == 0


def test_strong_solution_attains_the_parallel_sum():
    # X* A0 X + (I - X)* B0 (I - X) = u u* + w w* with u* = v* X and
    # w* = e1* (I - X); both vanish at the strong solution, so the form is
    # A0 : B0 = 0
    for i in range(1, _EXACT_MODES + 1):
        t = Fraction(1, i)
        x11, x12, x21, x22 = _strong_solution(t)
        assert (x11 + t * x21, x12 + t * x22) == (0, 0)
        assert (1 - x11, -x12) == (0, 0)


def test_sweep_matches_the_exact_modes():
    rows = divergence_sweep((8, 16, 32))
    for row in rows:
        # the largest mode norm sqrt(1 + i^2) is reached at i = d
        strong = math.sqrt(1 + row.d * row.d)
        assert abs(row.norm_strong_solution - strong) <= _FLOAT_REL * strong, row
        assert abs(row.norm_weak_solutions - 1.0) <= _FLOAT_REL, row
        assert row.norm_parallel_sum <= _FLOAT_REL, row
        assert row.shorted_norm <= _FLOAT_REL, row


@pytest.mark.parametrize("d", [8, 32])
def test_parallel_equation_solution_is_the_exact_strong_solution(d):
    kit = make_kit(d)
    want = np.zeros((2 * d, 2 * d))
    for i in range(1, d + 1):
        x11, x12, x21, x22 = _strong_solution(Fraction(1, i))
        want[[i - 1, i - 1, d + i - 1, d + i - 1], [i - 1, d + i - 1, i - 1, d + i - 1]] = [
            float(x) for x in (x11, x12, x21, x22)
        ]
    got = solve_parallel_equation(kit.A0, kit.B0).X
    assert np.linalg.norm(got - want, 2) <= _FLOAT_REL * math.sqrt(1 + d * d)
