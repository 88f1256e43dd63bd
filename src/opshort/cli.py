"""Command line interface.

Subcommands: polar, gpolar, v-op, reduced-solve, partition, shorted,
parallel-sum, parallel-eq, hansen-check, lemma69, lab (sweep | verify).

Exit codes
----------
0   success
2   input error (bad flags, unreadable files, shape or validity failures)
3   a requested solve has a not-solvable verdict
4   a verdict landed in the borderline band around the tolerance
5   an internal mathematical invariant failed numerically

Every JSON payload embeds the tolerance policy and the tool version.  All
output is deterministic: the same command on the same inputs produces the
same bytes at the same BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .douglas import reduced_solution
from .errors import (
    InternalInvariantViolation,
    NotSolvable,
    NotWeaklyComplementable,
    OpshortError,
)
from .lab import divergence_sweep, sweep_to_csv, verify_closed_forms
from .numkit import (
    DEFAULT_TOL,
    Tol,
    absolute_value,
    load_matrix,
    matrix_to_json_dict,
    opnorm,
    psd_power,
    range_projector,
)
from .parallel import (
    _hansen_worst,
    hansen_inequality_check,
    lemma_69_check,
    parallel_sum,
    solve_parallel_equation,
)
from .polar import DEFAULT_ALPHA, gpolar, gpolar_iterative, polar_decompose, v_operator
from .shorting import (
    partition,
    redundancy_report,
    shorted,
    verify_range_kernel,
    weak_complement_data,
)

__all__ = ["main", "dispatch", "build_parser"]


def _payload(command: str, tol: Tol, **fields) -> dict:
    return {
        "command": command,
        "version": __version__,
        "tol": {
            "rank_rel": tol.rank_rel,
            "residual_rel": tol.residual_rel,
            "eig_clamp_rel": tol.eig_clamp_rel,
        },
        **fields,
    }


def _emit_json(payload: dict, out_path) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_text(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommand handlers ------------------------------------------------------


def _cmd_polar(args, tol: Tol) -> int:
    t = load_matrix(args.input)
    if args.iterate is not None:
        alpha = args.alpha if args.alpha is not None else DEFAULT_ALPHA
        u_n = gpolar_iterative(t, alpha, args.iterate, tol)
        limit = gpolar(t, alpha, tol)
        t_alpha = psd_power(limit.absT, alpha, tol)
        payload = _payload(
            "polar",
            tol,
            mode="iterate",
            alpha=alpha,
            n=args.iterate,
            U=matrix_to_json_dict(u_n),
            absT=matrix_to_json_dict(limit.absT),
            residuals={
                "distance_to_limit": opnorm(u_n - limit.U),
                "reconstruction": opnorm(u_n @ t_alpha - t) / max(opnorm(t), 1.0),
            },
        )
    elif args.alpha is not None:
        payload = _gpolar_payload("polar", t, args.alpha, tol)
    else:
        form = polar_decompose(t, tol)
        payload = _payload(
            "polar",
            tol,
            mode="classical",
            alpha=1.0,
            U=matrix_to_json_dict(form.U),
            absT=matrix_to_json_dict(form.absT),
            residuals={
                "reconstruction": opnorm(form.U @ form.absT - t)
                / max(opnorm(t), 1.0),
                "initial_isometry": opnorm(
                    form.U.conj().T @ form.U - range_projector(t.conj().T, tol)
                ),
                "final_isometry": opnorm(
                    form.U @ form.U.conj().T - range_projector(t, tol)
                ),
            },
        )
    _emit_json(payload, args.out)
    return 0


def _gpolar_payload(command: str, t, alpha: float, tol: Tol) -> dict:
    form = gpolar(t, alpha, tol)
    abs_left = absolute_value(t, "left", tol)
    t_alpha = psd_power(form.absT, alpha, tol)
    return _payload(
        command,
        tol,
        mode="generalized",
        alpha=form.alpha,
        U=matrix_to_json_dict(form.U),
        absT=matrix_to_json_dict(form.absT),
        residuals={
            "reconstruction": opnorm(form.U @ t_alpha - t) / max(opnorm(t), 1.0),
            "gram": opnorm(
                form.U.conj().T @ form.U
                - psd_power(form.absT, 2.0 * (1.0 - form.alpha), tol)
            ),
            "dual_gram": opnorm(
                form.U @ form.U.conj().T
                - psd_power(abs_left, 2.0 * (1.0 - form.alpha), tol)
            ),
            "intertwining_beta_1": opnorm(form.U @ form.absT - abs_left @ form.U),
        },
    )


def _cmd_gpolar(args, tol: Tol) -> int:
    t = load_matrix(args.input)
    payload = _gpolar_payload("gpolar", t, args.alpha, tol)
    _emit_json(payload, args.out)
    return 0


def _cmd_v_op(args, tol: Tol) -> int:
    t = load_matrix(args.input)
    v = v_operator(t, tol)
    abs_right = absolute_value(t, "right", tol)
    abs_left = absolute_value(t, "left", tol)
    half_left = psd_power(abs_left, 0.5, tol)
    payload = _payload(
        "v-op",
        tol,
        V=matrix_to_json_dict(v),
        residuals={
            "gram": opnorm(v.conj().T @ v - abs_right),
            "dual_gram": opnorm(v @ v.conj().T - abs_left),
            "factorization": opnorm(half_left @ v - t) / max(opnorm(t), 1.0),
            "gpolar_half_gap": opnorm(v - gpolar(t, 0.5, tol).U),
        },
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_reduced_solve(args, tol: Tol) -> int:
    a = load_matrix(args.a)
    c = load_matrix(args.c)
    try:
        sol = reduced_solution(a, c, tol)
        d, residual, range_ok, solvable = sol.D, sol.residual, sol.range_ok, True
        margin, borderline = sol.margin, sol.borderline
    except NotSolvable as exc:
        d, residual, range_ok, solvable = exc.candidate, exc.residual, False, False
        margin, borderline = exc.margin, exc.borderline
    payload = _payload(
        "reduced-solve",
        tol,
        solvable=solvable,
        borderline=borderline,
        margin=margin,
        residual=residual,
        range_ok=range_ok,
        D=matrix_to_json_dict(d),
        norm_D=opnorm(d),
    )
    _emit_json(payload, args.out)
    if borderline:
        return 4
    return 0 if solvable else 3


def _cmd_partition(args, tol: Tol) -> int:
    t = load_matrix(args.input)
    pm = load_matrix(args.pm)
    pn = load_matrix(args.pn)
    blk = partition(t, pm, pn, tol)
    payload = _payload(
        "partition",
        tol,
        rank_PM=blk.dim_m,
        rank_PN=blk.dim_n,
        T11=matrix_to_json_dict(blk.T11),
        T12=matrix_to_json_dict(blk.T12),
        T21=matrix_to_json_dict(blk.T21),
        T22=matrix_to_json_dict(blk.T22),
        reassembly_residual=opnorm(blk.reassembled() - blk.T),
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_shorted(args, tol: Tol) -> int:
    t = load_matrix(args.input)
    pm = load_matrix(args.pm)
    pn = load_matrix(args.pn)
    blk = partition(t, pm, pn, tol)
    try:
        result = shorted(blk, tol)
    except NotWeaklyComplementable as exc:
        data = weak_complement_data(blk, tol)
        payload = _payload(
            "shorted",
            tol,
            error="not weakly complementable",
            failing_systems=list(exc.failing),
            system_residuals=list(data.residuals),
            system_solvable=list(data.solvable),
        )
        _emit_json(payload, args.out)
        return 3
    report = verify_range_kernel(blk, result, tol)
    wd = result.witnesses
    cross_gap = opnorm(
        wd.F.conj().T @ wd.E - wd.Ftilde.conj().T @ wd.Etilde
    )
    payload = _payload(
        "shorted",
        tol,
        mode=result.mode,
        core=matrix_to_json_dict(result.core),
        shorted=matrix_to_json_dict(result.shorted),
        witnesses={
            "E": matrix_to_json_dict(wd.E),
            "F": matrix_to_json_dict(wd.F),
            "Etilde": matrix_to_json_dict(wd.Etilde),
            "Ftilde": matrix_to_json_dict(wd.Ftilde),
            "residuals": list(wd.residuals),
            "solvable": list(wd.solvable),
        },
        cross_gap=cross_gap,
        redundancy=redundancy_report(blk, wd, tol),
        report={
            "rank_T": report.rank_T,
            "rank_shorted": report.rank_shorted,
            "rank_range_intersection": report.rank_range_intersection,
            "rank_kernel_shorted": report.rank_kernel_shorted,
            "rank_kernel_sum": report.rank_kernel_sum,
            "range_equal": report.range_equal,
            "kernel_equal": report.kernel_equal,
        },
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_parallel_sum(args, tol: Tol) -> int:
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    res = parallel_sum(a, b, tol)
    payload = _payload(
        "parallel-sum",
        tol,
        value=matrix_to_json_dict(res.value),
        route=res.route,
        route_agreement=res.route_agreement,
        regularized={str(eps): dev for eps, dev in res.regularized.items()},
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_parallel_eq(args, tol: Tol) -> int:
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    res = solve_parallel_equation(a, b, tol)
    payload = _payload(
        "parallel-eq",
        tol,
        X=matrix_to_json_dict(res.X),
        norm=res.norm,
        diagnostics=res.diagnostics,
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_hansen_check(args, tol: Tol) -> int:
    a = load_matrix(args.a)
    b = load_matrix(args.b)
    if args.c is not None:
        lam = hansen_inequality_check(a, b, load_matrix(args.c), tol)
        payload = _payload(
            "hansen-check", tol, mode="explicit", lambda_min=lam
        )
    else:
        probes = args.probes if args.probes is not None else 50
        if probes < 1:
            raise ValueError("--probes must be >= 1")
        n = a.shape[0]
        rng = np.random.default_rng(args.seed)
        worst = _hansen_worst(
            a,
            b,
            (
                (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                / np.sqrt(2.0)
                for _ in range(probes)
            ),
            tol,
        )
        payload = _payload(
            "hansen-check",
            tol,
            mode="probes",
            probes=probes,
            seed=args.seed,
            lambda_min_worst=worst,
        )
    _emit_json(payload, args.out)
    return 0


def _cmd_lemma69(args, tol: Tol) -> int:
    x = load_matrix(args.x)
    y = load_matrix(args.y)
    res = lemma_69_check(x, y, tol)
    payload = _payload(
        "lemma69",
        tol,
        lambda_min=res.lambda_min,
        equality_gap=res.equality_gap,
    )
    _emit_json(payload, args.out)
    return 0


def _cmd_lab_sweep(args, tol: Tol) -> int:
    dims = None
    if args.dims:
        dims = [int(part) for part in args.dims.split(",") if part.strip()]
    rows = divergence_sweep(dims, tol)
    _emit_text(sweep_to_csv(rows), args.csv or args.out)
    return 0


def _cmd_lab_verify(args, tol: Tol) -> int:
    report = verify_closed_forms(args.dim, tol)
    payload = _payload(
        "lab-verify",
        tol,
        d=report.d,
        residuals=report.residuals,
        passed=report.passed,
    )
    _emit_json(payload, args.out)
    return 0 if report.passed else 5


# --- parser and dispatch ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=None,
        help="residual tolerance; rank cutoff scales as tol*1e-4 and the "
        "eigenvalue clamp as tol*1e-2 (default 1e-8)",
    )
    common.add_argument("--seed", type=int, default=0, help="RNG seed for probe modes")
    common.add_argument("--out", default=None, help="write JSON here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="opshort",
        description="Polar-type factorizations, reduced solutions, shorted "
        "operators, and parallel sums for dense complex matrices.",
    )
    parser.add_argument("--version", action="version", version=f"opshort {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polar", parents=[common], help="polar factorization T = U |T|^alpha")
    sp.add_argument("--input", required=True, help="matrix JSON file")
    sp.add_argument("--alpha", type=float, default=None, help="exponent in (0,1); omit for the classical form")
    sp.add_argument("--iterate", type=int, default=None, help="report the n-th iterate instead of the limit")
    sp.set_defaults(handler=_cmd_polar)

    sp = sub.add_parser("gpolar", parents=[common], help="generalized polar factorization")
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sp.set_defaults(handler=_cmd_gpolar)

    sp = sub.add_parser("v-op", parents=[common], help="canonical half-power factor V")
    sp.add_argument("--input", required=True)
    sp.set_defaults(handler=_cmd_v_op)

    sp = sub.add_parser("reduced-solve", parents=[common], help="reduced solution of A X = C")
    sp.add_argument("--a", required=True)
    sp.add_argument("--c", required=True)
    sp.set_defaults(handler=_cmd_reduced_solve)

    sp = sub.add_parser("partition", parents=[common], help="2x2 partition of T by (PM, PN)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--pm", required=True)
    sp.add_argument("--pn", required=True)
    sp.set_defaults(handler=_cmd_partition)

    sp = sub.add_parser("shorted", parents=[common], help="bilateral shorted operator")
    sp.add_argument("--input", required=True)
    sp.add_argument("--pm", required=True)
    sp.add_argument("--pn", required=True)
    sp.set_defaults(handler=_cmd_shorted)

    sp = sub.add_parser("parallel-sum", parents=[common], help="parallel sum A : B")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(handler=_cmd_parallel_sum)

    sp = sub.add_parser("parallel-eq", parents=[common], help="reduced solution of (A+B) X = B with certificate")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(handler=_cmd_parallel_eq)

    sp = sub.add_parser("hansen-check", parents=[common], help="lambda_min of C*AC + (I-C)*B(I-C) - A:B")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--c", default=None, help="explicit C matrix file; omit to probe randomly")
    sp.add_argument("--probes", type=int, default=None, help="number of random probes (default 50)")
    sp.set_defaults(handler=_cmd_hansen_check)

    sp = sub.add_parser("lemma69", parents=[common], help="inverse-shift inequality check")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.set_defaults(handler=_cmd_lemma69)

    sp = sub.add_parser("lab", parents=[common], help="divergence lab")
    lab_sub = sp.add_subparsers(dest="lab_command", required=True)
    lp = lab_sub.add_parser("sweep", parents=[common], help="divergence sweep as CSV")
    lp.add_argument("--dims", default=None, help="comma-separated ascending dimensions (default 8,16,32,64,128,256)")
    lp.add_argument("--csv", default=None, help="write CSV here instead of stdout")
    lp.set_defaults(handler=_cmd_lab_sweep)
    lp = lab_sub.add_parser("verify", parents=[common], help="closed-form cross-checks at one dimension")
    lp.add_argument("--dim", type=int, required=True)
    lp.set_defaults(handler=_cmd_lab_verify)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run the matching subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.tol is not None:
        try:
            tol = Tol.scaled(args.tol)
        except ValueError as exc:
            print(f"opshort: {exc}", file=sys.stderr)
            return 2
    else:
        tol = DEFAULT_TOL

    try:
        return args.handler(args, tol)
    except NotWeaklyComplementable as exc:
        print(f"opshort: {exc}", file=sys.stderr)
        return 3
    except NotSolvable as exc:
        print(f"opshort: {exc}", file=sys.stderr)
        return 4 if exc.borderline else 3
    except InternalInvariantViolation as exc:
        print(f"opshort: {exc}", file=sys.stderr)
        return 5
    except (OpshortError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"opshort: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
