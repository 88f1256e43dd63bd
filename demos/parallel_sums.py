# Parallel sums: the operator version of resistors in parallel.
#
# For positive scalars, a : b = ab / (a + b).  For PSD operators the same
# object appears as the top-left corner of the shorted 2x2 operator
# [[A, A], [A, A+B]], and for positive definite inputs it collapses to the
# familiar A (A + B)^-1 B.
#
# Run with:  python3 demos/parallel_sums.py

import numpy as np

from opshort import (
    hansen_inequality_check,
    lemma_69_check,
    opnorm,
    parallel_sum,
    solve_parallel_equation,
)

rng = np.random.default_rng(31)


def random_pd(n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + np.eye(n)


# Scalars first: two 2-ohm resistors in parallel give 1 ohm.
res = parallel_sum([[2.0]], [[2.0]])
print("2 : 2 =", res.value[0, 0].real)

# Positive definite pair: the shorted-block route and the closed formula
# agree to machine precision.
a, b = random_pd(4), random_pd(4)
res = parallel_sum(a, b)
direct = a @ np.linalg.inv(a + b) @ b
print("\nPD pair, n = 4")
print("route agreement (internal):", res.route_agreement)
print("gap to A (A+B)^-1 B       :", opnorm(res.value - direct))

# Shifting both summands by eps I and letting eps shrink approaches the same
# answer from above; the result computes this trend when it is first read.
for eps, dev in sorted(res.regularized.items(), reverse=True):
    print(f"regularized route, eps = {eps:.0e}: deviation {dev:.3e}")

# The parallel sum is the minimum of C* A C + (I-C)* B (I-C) over all C.
# Random probes stay above it (up to round-off) ...
worst = min(
    hansen_inequality_check(a, b, rng.standard_normal((4, 4)))
    for _ in range(200)
)
print("\nworst probe eigenvalue over 200 random C:", worst)

# ... and the probe C = (A+B)^-1 B attains it exactly.
c_opt = np.linalg.inv(a + b) @ b
print("eigenvalue at the optimal probe:", hansen_inequality_check(a, b, c_opt))

# A cousin inequality for the inverse-shift: (I + X^-1)^(1/2) applied to Y,
# with equality exactly at Y = (I + X)^-1.
x = random_pd(3)
chk = lemma_69_check(x, np.linalg.inv(np.eye(3) + x))
print("\ninverse-shift check at the equality point:",
      "lambda_min =", f"{chk.lambda_min:.2e}",
      " gap =", f"{chk.equality_gap:.2e}")

# Finally the equation view: X = (A+B)^-1 B is the unique minimizer, and the
# solver recovers it with diagnostics.
sol = solve_parallel_equation(a, b)
print("\nminimizer recovered, ||X|| =", sol.norm)
print("equation residual:", sol.diagnostics["equation_residual"])
