"""Seeded inputs, operations and output checks of the four workloads.

A workload hands out passes.  A pass is a fixed list of operations whose
inputs are built before the pass is timed; the program receives only those
inputs.  Each operation's ``run`` is the timed call into opshort and its
``check`` compares the output with what the construction predicts, returning
one ``(ok, residual)`` pair per counted op (``residual`` is None when the op
has no identity to measure).

Every generated operator has norm of order one, so the absolute residuals
that opshort reports are also relative ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import opshort.cli
import opshort.douglas
import opshort.lab
import opshort.numkit
import opshort.parallel
import opshort.shorting
from opshort.errors import NotSolvable, NotWeaklyComplementable

RESIDUAL_REL = opshort.numkit.DEFAULT_TOL.residual_rel
# the douglas layer flags margins in [RESIDUAL_REL / 10, RESIDUAL_REL * 10]
BAND = (RESIDUAL_REL / 10.0, RESIDUAL_REL * 10.0)
WORKLOAD_IDS = {"sweep": 0, "cli": 1, "probes": 2, "verdicts": 3}
# Margins are log-uniform over [1e-14, 1e-2], drawn one per stratum of three
# decades, so that a given op of a pass always takes the same path (clear
# accept, accept or band, band or reject, clear reject) from pass to pass.
MARGIN_STRATA = (-14.0, -11.0, -8.0, -5.0)


# --- input construction -------------------------------------------------------


def _unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _spectrum(k):
    """k values spaced geometrically from 1 down to 0.1.

    The spectrum is fixed and only the singular vectors are random, so every
    seed poses problems of the same conditioning and the residuals that
    round-off leaves are comparable from seed to seed.
    """
    return np.geomspace(1.0, 0.1, k) if k > 1 else np.ones(k)


def _gaussian(rng, m, n):
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return z / np.linalg.norm(z, 2)


def _low_rank(rng, n, k):
    """n x n operator of rank k; returns it with its left and right unitaries."""
    u, v = _unitary(rng, n), _unitary(rng, n)
    return (u[:, :k] * _spectrum(k)) @ v[:, :k].conj().T, u, v


def _psd(rng, n, k):
    q = _unitary(rng, n)
    a = (q[:, :k] * _spectrum(k)) @ q[:, :k].conj().T
    return (a + a.conj().T) / 2.0


def _inclusion_system(rng, n, margin):
    """A of rank 3n/4 and C = A X + margin * O with O orthogonal to R(A).

    Both parts of C have norm 1 and orthogonal column spaces, so the
    inclusion margin ||(I - P) C|| / max(||C||, 1) equals ``margin`` up to a
    factor (1 + margin^2)^(-1/2).  X lies in R(A*), so it is the reduced
    solution whenever the system is solvable.
    """
    k = 3 * n // 4
    p = max(2, n // 4)
    a, u, v = _low_rank(rng, n, k)
    x = v[:, :k] @ _gaussian(rng, k, p)
    r = a @ x
    scale = np.linalg.norm(r, 2)
    out = u[:, k:] @ _gaussian(rng, n - k, p)
    return a, r / scale + margin * out, x / scale


def _partition_system(rng, n, kind):
    """T with projectors PM, PN onto random n/2-dim subspaces.

    ``kind`` is "invertible" (T22 invertible), "singular" (T22 of lower rank
    with R(T21) in R(T22) and R(T12*) in R(T22*), complementable through
    reduced solutions) or "not_weak" (T21 leaves R(T22) by 1e-2, so the
    first weak system is unsolvable).  Returns T, PM, PN and the expected
    shorted operator T11 - T12 T22^+ T21 in ambient coordinates (None for
    "not_weak").
    """
    m = n // 2
    rest = n - m
    rank = rest if kind == "invertible" else rest - max(1, rest // 4)
    dom, cod = _unitary(rng, n), _unitary(rng, n)
    t22, u22, _ = _low_rank(rng, rest, rank)
    k = _gaussian(rng, rest, m)
    left = _gaussian(rng, m, rest)
    t11 = _gaussian(rng, m, m)
    t21 = t22 @ k
    if kind == "not_weak":
        t21 = t21 + 1e-2 * u22[:, rank:] @ _gaussian(rng, rest - rank, m)
    blocks = np.block([[t11, left @ t22], [t21, t22]])
    t = cod @ blocks @ dom.conj().T
    pm = dom[:, :m] @ dom[:, :m].conj().T
    pn = cod[:, :m] @ cod[:, :m].conj().T
    expected = None
    if kind != "not_weak":
        expected = cod[:, :m] @ (t11 - left @ t22 @ k) @ dom[:, :m].conj().T
    return t, pm, pn, expected


def _parallel_sum_closed_form(a, b):
    # A : B = A - A (A + B)^-1 A whenever A + B is invertible
    return a - a @ np.linalg.solve(a + b, a)


def _rel_gap(x, y, scale=1.0):
    return float(np.linalg.norm(np.asarray(x) - np.asarray(y), 2)) / max(scale, 1.0)


# --- operations -----------------------------------------------------------------


class Op:
    """One timed call into opshort plus the check of its output."""

    units = 1

    def __init__(self, kind, n, call, check):
        self.kind = kind
        self.n = n
        self._call = call
        self._check = check

    def run(self):
        return self._call()

    def check(self, outcome):
        return self._check(outcome)


class Workload:
    """A source of passes.

    A ``seeded`` workload draws its inputs from the seed; the benchmark also
    runs one untimed reference pass on inputs of a fixed seed, which warms
    the process up and gives a worst residual that is comparable between
    runs.  ``repeat_check`` asks for that reference pass to be run a second
    time at the end and compared byte for byte.
    """

    seeded = True
    repeat_check = False

    def new_pass(self, index):
        raise NotImplementedError

    def release(self, index):
        """Drop what pass ``index`` left behind once it has been checked."""


def _expect_raise(fn, exc_type):
    try:
        return fn()
    except exc_type as exc:
        # the traceback would keep the failed call's frames (and matrices) alive
        return exc.with_traceback(None)


# --- sweep ------------------------------------------------------------------------


class SweepWorkload(Workload):
    """``lab.divergence_sweep`` at the default dims; needs no seed."""

    seeded = False

    def __init__(self, seed, tiny):
        self.dims = (8, 16, 32) if tiny else opshort.lab.DEFAULT_SWEEP_DIMS

    def warm_up(self):
        """Run a small sweep untimed, so that lazy set-up is not measured."""
        opshort.lab.divergence_sweep((4, 8))

    def new_pass(self, index):
        op = Op("sweep", max(self.dims), lambda: opshort.lab.divergence_sweep(self.dims), _check_sweep)
        op.units = len(self.dims)
        return [op]


def _check_sweep(rows):
    """Criterion-8 signatures at the acceptance suite's bounds."""
    dims = np.array([r.d for r in rows], dtype=float)
    strong = np.array([r.norm_strong_solution for r in rows])
    slope_strong = float(np.polyfit(np.log(dims), np.log(strong), 1)[0])
    slope_cond = float(np.polyfit(np.log(dims), np.log([r.cond_ApB for r in rows]), 1)[0])
    slopes_ok = abs(slope_strong - 1.0) <= 0.05 and abs(slope_cond - 2.0) <= 0.2
    out = []
    for r in rows:
        target = math.sqrt(1.0 + r.d * r.d)
        weak_dev = abs(r.norm_weak_solutions - 1.0)
        ok = (
            slopes_ok
            and abs(r.norm_strong_solution - target) / target <= 1e-6
            and weak_dev <= 1e-10
            and r.norm_parallel_sum <= 1e-10
        )
        out.append((ok, max(weak_dev, r.norm_parallel_sum)))
    return out


# --- CLI invocations ---------------------------------------------------------------


def _write_matrix(path, m):
    m = np.asarray(m, dtype=np.complex128)
    obj = {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return str(path)


class CliCall:
    """Outcome of one in-process ``opshort.cli.dispatch`` call."""

    def __init__(self, code, stdout):
        self.code = code
        self.stdout = stdout

    @property
    def payload(self):
        return json.loads(self.stdout)


def _dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = opshort.cli.dispatch(argv)
    return CliCall(code, out.getvalue())


def _cli_op(kind, n, argv, expect_code, command, residuals):
    """``residuals(payload)`` returns (ok, worst residual) for a parsed payload."""

    def check(call):
        if call.code != expect_code:
            return [(False, None)]
        payload = call.payload
        if payload.get("command") != command:
            return [(False, None)]
        ok, worst = residuals(payload)
        return [(bool(ok), worst)]

    return Op(kind, n, lambda: _dispatch(argv), check)


def _residual_bound(values):
    worst = max(values)
    return worst <= RESIDUAL_REL, worst


def _from_json(obj):
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


class FileWorkload(Workload):
    """Common base of the workloads that call ``dispatch`` on matrix files."""

    repeat_check = True

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.tiny = tiny
        self.workdir = Path(workdir)

    def _dir(self, index):
        d = self.workdir / f"pass{index}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def release(self, index):
        shutil.rmtree(self.workdir / f"pass{index}", ignore_errors=True)


class CliWorkload(FileWorkload):
    """Every subcommand but ``lab sweep`` and probe-mode ``hansen-check``."""

    def sizes(self):
        return (4, 8) if self.tiny else (8, 32, 96)

    def new_pass(self, index):
        rng = np.random.default_rng([self.seed, WORKLOAD_IDS["cli"], index])
        d = self._dir(index)
        ops = []
        for n in self.sizes():
            ops += self._ops(d, rng, n)
        return ops

    def _ops(self, d, rng, n):
        f = lambda name, m: _write_matrix(d / f"{name}{n}.json", m)  # noqa: E731
        ops = []
        t, _, _ = _low_rank(rng, n, n)
        s = _spectrum(n)
        t_path = f("t", t)
        ops.append(_cli_op("polar", n, ["polar", "--input", t_path], 0, "polar",
                           lambda p: _residual_bound(p["residuals"].values())))
        ops.append(_cli_op("polar_alpha", n, ["polar", "--input", t_path, "--alpha", "0.6"], 0, "polar",
                           lambda p: _residual_bound(p["residuals"].values())))
        # U_n - U has singular values s^(1-a) (s / sqrt(1/N + s^2) - 1) exactly
        iters, alpha = 50, 0.75
        dist = float(np.max(np.abs(s ** (1 - alpha) * (s / np.sqrt(1.0 / iters + s * s) - 1.0))))
        ops.append(_cli_op(
            "polar_iterate", n, ["polar", "--input", t_path, "--iterate", str(iters)], 0, "polar",
            lambda p: (abs(p["residuals"]["distance_to_limit"] - dist) <= 1e-8 * dist, None)))
        ops.append(_cli_op("gpolar", n, ["gpolar", "--input", t_path], 0, "gpolar",
                           lambda p: _residual_bound(p["residuals"].values())))
        ops.append(_cli_op("v_op", n, ["v-op", "--input", t_path], 0, "v-op",
                           lambda p: _residual_bound(p["residuals"].values())))

        for label, margin, code in (("in_range", 0.0, 0), ("out_of_range", 1e-3, 3), ("borderline", RESIDUAL_REL, 4)):
            a, c, _ = _inclusion_system(rng, n, margin)
            argv = ["reduced-solve", "--a", f(f"a_{label}", a), "--c", f(f"c_{label}", c)]

            def residuals(p, margin=margin, code=code):
                if code == 0:
                    return p["solvable"] and not p["borderline"] and p["range_ok"], p["residual"]
                close = abs(p["margin"] - margin) <= 1e-3 * margin
                return close and p["borderline"] == (code == 4), None

            ops.append(_cli_op(f"reduced_solve_{label}", n, argv, code, "reduced-solve", residuals))

        t, pm, pn, expected = _partition_system(rng, n, "invertible")
        part = ["--input", f("pt", t), "--pm", f("pm", pm), "--pn", f("pn", pn)]
        ops.append(_cli_op("partition", n, ["partition"] + part, 0, "partition",
                           lambda p: (p["rank_PM"] == n // 2, p["reassembly_residual"])))

        def shorted_ok(p, expected=expected):
            gap = _rel_gap(_from_json(p["shorted"]), expected)
            worst = max([gap, p["cross_gap"]] + p["witnesses"]["residuals"])
            return p["mode"] == "complementable" and worst <= RESIDUAL_REL, worst

        ops.append(_cli_op("shorted", n, ["shorted"] + part, 0, "shorted", shorted_ok))
        t, pm, pn, _ = _partition_system(rng, n, "not_weak")
        argv = ["shorted", "--input", f("nt", t), "--pm", f("npm", pm), "--pn", f("npn", pn)]
        ops.append(_cli_op("shorted_not_weak", n, argv, 3, "shorted",
                           lambda p: (1 in p["failing_systems"], None)))

        k = 3 * n // 4
        a, b = _psd(rng, n, k), _psd(rng, n, k)
        expected = _parallel_sum_closed_form(a, b)
        pair = ["--a", f("psa", a), "--b", f("psb", b)]
        ops.append(_cli_op("parallel_sum", n, ["parallel-sum"] + pair, 0, "parallel-sum",
                           lambda p: _residual_bound([_rel_gap(_from_json(p["value"]), expected) / 2.0])))
        ops.append(_cli_op(
            "parallel_eq", n, ["parallel-eq"] + pair, 0, "parallel-eq",
            lambda p: _residual_bound([p["diagnostics"]["equation_residual"] / 2.0,
                                       p["diagnostics"]["solve_residual"]])))

        a, b, c = _psd(rng, n, n), _psd(rng, n, n), _gaussian(rng, n, n)
        argv = ["hansen-check", "--a", f("ha", a), "--b", f("hb", b), "--c", f("hc", c)]
        ops.append(_cli_op("hansen_explicit", n, argv, 0, "hansen-check",
                           lambda p: (p["lambda_min"] >= -RESIDUAL_REL, None)))
        x, y = _psd(rng, n, n), _gaussian(rng, n, n)
        argv = ["lemma69", "--x", f("lx", x), "--y", f("ly", y)]
        # X >= 0.1 I and ||Y|| = 1 bound every term of the form by 40
        ops.append(_cli_op("lemma69", n, argv, 0, "lemma69",
                           lambda p: (p["lambda_min"] >= -40 * RESIDUAL_REL, None)))
        dim = max(1, n // 2)
        ops.append(_cli_op("lab_verify", n, ["lab", "verify", "--dim", str(dim)], 0, "lab-verify",
                           lambda p: (p["passed"] and p["d"] == dim, max(p["residuals"].values()))))
        return ops


class ProbesWorkload(FileWorkload):
    """Repeated calls on four shared (A, B) pairs: two PD, two singular PSD."""

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        self.n = 8 if tiny else 32
        rng = np.random.default_rng([seed, WORKLOAD_IDS["probes"]])
        d = self._dir("shared")
        self.pairs = []
        for i, rank in enumerate((self.n, self.n, 3 * self.n // 4, 3 * self.n // 4)):
            a, b = _psd(rng, self.n, rank), _psd(rng, self.n, rank)
            self.pairs.append((rank == self.n, _write_matrix(d / f"a{i}.json", a), _write_matrix(d / f"b{i}.json", b)))

    def new_pass(self, index):
        ops = []
        n = self.n
        # a Gaussian probe C has ||C|| below 1 + 2 sqrt(n), which bounds the
        # round-off of C* A C + (I - C)* B (I - C)
        slack = -2.0 * RESIDUAL_REL * (1.0 + 2.0 * math.sqrt(n)) ** 2
        for i, (pd, a, b) in enumerate(self.pairs):
            seed = (self.seed * 1000003 + index * len(self.pairs) + i) % (2**31)
            argv = ["hansen-check", "--a", a, "--b", b, "--probes", "10", "--seed", str(seed)]
            ops.append(_cli_op("hansen_probes", n, argv, 0, "hansen-check",
                               lambda p: (p["lambda_min_worst"] >= slack and p["probes"] == 10, None)))
            for _ in range(2):
                ops.append(_cli_op(
                    "parallel_eq", n, ["parallel-eq", "--a", a, "--b", b], 0, "parallel-eq",
                    lambda p: _residual_bound([p["diagnostics"]["equation_residual"] / 2.0,
                                               p["diagnostics"]["solve_residual"]])))
            if pd:
                ops.append(_cli_op("lemma69", n, ["lemma69", "--x", a, "--y", b], 0, "lemma69",
                                   lambda p: (p["lambda_min"] >= -40 * RESIDUAL_REL, None)))
        return ops


# --- library verdicts --------------------------------------------------------------


class VerdictsWorkload(Workload):
    """Accept, reject and borderline verdicts on inputs that share nothing."""

    def __init__(self, seed, tiny):
        self.seed = seed
        self.sizes = (8, 16) if tiny else (16, 48, 96)

    def new_pass(self, index):
        rng = np.random.default_rng([self.seed, WORKLOAD_IDS["verdicts"], index])
        ops = []
        for n in self.sizes:
            ops += self._ops(rng, n)
        return ops

    def _ops(self, rng, n):
        ops = []
        for lo in MARGIN_STRATA:
            margin = 10.0 ** rng.uniform(lo, lo + 3.0)
            a, c, _ = _inclusion_system(rng, n, margin)
            ops.append(Op("range_included", n,
                          lambda a=a, c=c: opshort.douglas.range_included(a, c),
                          lambda res, m=margin: [(_verdict_ok(res.included, res.margin, res.borderline, m), None)]))
        for lo in MARGIN_STRATA:
            margin = 10.0 ** rng.uniform(lo, lo + 3.0)
            a, c, x = _inclusion_system(rng, n, margin)
            ops.append(Op("reduced_solution", n,
                          lambda a=a, c=c: _expect_raise(lambda: opshort.douglas.reduced_solution(a, c), NotSolvable),
                          lambda res, m=margin, x=x: [_check_reduced(res, m, x)]))
        for kind in ("invertible", "singular", "not_weak"):
            t, pm, pn, expected = _partition_system(rng, n, kind)
            ops.append(Op(f"shorted_{kind}", n,
                          lambda t=t, pm=pm, pn=pn: _expect_raise(lambda: _partition_shorted(t, pm, pn),
                                                                  NotWeaklyComplementable),
                          lambda res, e=expected, t=t: [_check_shorted(res, e, t)]))
        k = 3 * n // 4
        a, b = _psd(rng, n, k), _psd(rng, n, k)
        expected = _parallel_sum_closed_form(a, b)
        ops.append(Op("parallel_sum", n,
                      lambda a=a, b=b: opshort.parallel.parallel_sum(a, b),
                      lambda res, e=expected: [_residual_bound([_rel_gap(res.value, e) / 2.0])]))
        return ops


def _partition_shorted(t, pm, pn):
    return opshort.shorting.shorted(opshort.shorting.partition(t, pm, pn))


def _margin_close(computed, built):
    # rounding leaves an out-of-range part near 1e-16 on top of the built one
    return abs(computed - built) <= 1e-3 * built + 1e-15


def _verdict_ok(included, margin, borderline, built):
    """Compare a verdict with the margin the inputs were built with.

    Inside the borderline band either verdict is acceptable; the borderline
    flag is checked only where the band edge is not within the construction's
    accuracy.
    """
    if not _margin_close(margin, built):
        return False
    if built < BAND[0] / 1.01 or built > BAND[1] * 1.01:
        if borderline:
            return False
        return included == (built <= RESIDUAL_REL)
    if BAND[0] * 1.01 < built < BAND[1] / 1.01:
        return borderline
    return True


def _check_reduced(res, margin, x):
    if isinstance(res, NotSolvable):
        return _verdict_ok(False, res.margin, res.borderline, margin), None
    gap = _rel_gap(res.D, x, float(np.linalg.norm(x, 2)))
    ok = _verdict_ok(True, res.margin, res.borderline, margin) and res.range_ok and gap <= RESIDUAL_REL
    return ok, gap


def _check_shorted(res, expected, t):
    if expected is None:
        return isinstance(res, NotWeaklyComplementable) and 1 in res.failing, None
    if isinstance(res, NotWeaklyComplementable):
        return False, None
    gap = _rel_gap(res.shorted, expected, float(np.linalg.norm(t, 2)))
    return res.mode == "complementable" and gap <= RESIDUAL_REL, gap


def make(name, seed, tiny, workdir):
    if name == "sweep":
        return SweepWorkload(seed, tiny)
    if name == "cli":
        return CliWorkload(seed, tiny, workdir)
    if name == "probes":
        return ProbesWorkload(seed, tiny, workdir)
    return VerdictsWorkload(seed, tiny)
