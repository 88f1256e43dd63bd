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
from dataclasses import asdict
from typing import Callable, NamedTuple

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
from .numkit import DEFAULT_TOL, Tol, _svd_factor, _svdvals, load_matrix, matrix_to_json_dict, opnorm
from .parallel import (
    _hansen_worst,
    hansen_inequality_check,
    lemma_69_check,
    parallel_sum,
    solve_parallel_equation,
)
from .polar import DEFAULT_ALPHA, _alpha, _iterate, _polar
from .shorting import _ranks, partition, shorted, verify_range_kernel

__all__ = ["main", "dispatch", "build_parser"]


# --- subcommand handlers ------------------------------------------------------
#
# A handler receives the parsed flags, the tolerance policy and the matrices
# its table row names, and returns (payload fields, exit code); lab sweep
# returns its CSV text in place of the fields.  dispatch adds the envelope and
# writes the output.


def _polar_parts(t, alpha: float, tol: Tol):
    """T's one SVD f, its rank r under tol, T = U |T|^alpha read from f, and
    ||U*U - |T|^q|| and ||UU* - |T*|^q|| at q = 2(1 - alpha), both powers over
    the same r triplets of f; at alpha = 1 they are the range projectors."""
    f = _svd_factor(t)
    r = f.rank(tol)
    form = _polar(f, alpha, tol)
    u, q = form.U, 2.0 * (1.0 - alpha)
    gram = opnorm(u.conj().T @ u - f.abs_power("right", q, r))
    return f, r, form, gram, opnorm(u @ u.conj().T - f.abs_power("left", q, r))


def _relative(x, f) -> float:
    """||X|| / max(||T||, 1), reading ||T|| as sigma_1 of T's factor f."""
    return opnorm(x) / float(f.s.max(initial=1.0))


def _form_fields(mode: str, alpha: float, u, abs_t, residuals: dict) -> dict:
    """The fields every polar mode reports beside its residuals."""
    return dict(
        mode=mode,
        alpha=alpha,
        U=matrix_to_json_dict(u),
        absT=matrix_to_json_dict(abs_t),
        residuals=residuals,
    )


def _cmd_polar(args, tol: Tol, t):
    if args.iterate is not None:
        alpha = _alpha(args.alpha if args.alpha is not None else DEFAULT_ALPHA)
        f = _svd_factor(t)
        u_n = _iterate(f, alpha, args.iterate)
        limit = _polar(f, alpha, tol)
        residuals = {
            "distance_to_limit": opnorm(u_n - limit.U),
            "reconstruction": _relative(u_n @ f.abs_power("right", alpha, f.rank(tol)) - t, f),
        }
        return dict(_form_fields("iterate", alpha, u_n, limit.absT, residuals), n=args.iterate), 0
    if args.alpha is not None:
        return _cmd_gpolar(args, tol, t)
    f, _, form, initial, final = _polar_parts(t, 1.0, tol)
    residuals = {
        "reconstruction": _relative(form.U @ form.absT - t, f),
        "initial_isometry": initial,
        "final_isometry": final,
    }
    return _form_fields("classical", 1.0, form.U, form.absT, residuals), 0


def _cmd_gpolar(args, tol: Tol, t):
    f, r, form, gram, dual_gram = _polar_parts(t, _alpha(args.alpha), tol)
    residuals = {
        "reconstruction": _relative(form.U @ f.abs_power("right", form.alpha, r) - t, f),
        "gram": gram,
        "dual_gram": dual_gram,
        "intertwining_beta_1": opnorm(form.U @ form.absT - f.abs_power("left") @ form.U),
    }
    return _form_fields("generalized", form.alpha, form.U, form.absT, residuals), 0


def _cmd_v_op(args, tol: Tol, t):
    f, r, form, gram, dual_gram = _polar_parts(t, 0.5, tol)
    factorization = _relative(f.abs_power("left", 0.5, r) @ form.U - t, f)
    return dict(
        V=matrix_to_json_dict(form.U),
        residuals={"gram": gram, "dual_gram": dual_gram, "factorization": factorization},
    ), 0


def _cmd_reduced_solve(args, tol: Tol, a, c):
    try:
        sol = reduced_solution(a, c, tol)
        d, residual, range_ok, solvable = sol.D, sol.residual, sol.range_ok, True
        margin, borderline = sol.margin, sol.borderline
    except NotSolvable as exc:
        d, residual, range_ok, solvable = exc.candidate, exc.residual, False, False
        margin, borderline = exc.margin, exc.borderline
    fields = dict(
        solvable=solvable,
        borderline=borderline,
        margin=margin,
        residual=residual,
        range_ok=range_ok,
        D=matrix_to_json_dict(d),
        norm_D=opnorm(d),
    )
    return fields, 4 if borderline else 0 if solvable else 3


def _cmd_partition(args, tol: Tol, t, pm, pn):
    blk = partition(t, pm, pn, tol)
    return dict(
        rank_PM=blk.dim_m,
        rank_PN=blk.dim_n,
        # a corner's entries depend on the bases, its singular values do not
        singular_values={
            name: _svdvals(getattr(blk, name)).tolist()
            for name in ("T11", "T12", "T21", "T22")
        },
        reassembly_residual=opnorm(blk.reassembled() - blk.T),
    ), 0


def _cmd_shorted(args, tol: Tol, t, pm, pn):
    blk = partition(t, pm, pn, tol)
    try:
        result = shorted(blk, tol)
    except NotWeaklyComplementable as exc:
        return dict(
            error="not weakly complementable",
            failing_systems=list(exc.failing),
            system_residuals=list(exc.data.residuals),
            system_solvable=list(exc.data.solvable),
        ), 3
    report = verify_range_kernel(blk, result, tol)
    wd = result.witnesses
    return dict(
        mode=result.mode,
        shorted=matrix_to_json_dict(result.shorted),
        witnesses={
            "norms": [opnorm(x) for x in (wd.E, wd.F, wd.Etilde, wd.Ftilde)],
            "residuals": list(wd.residuals),
            "solvable": list(wd.solvable),
        },
        cross_gap=result.cross_gap,
        ranks=list(_ranks(blk, tol)),
        report=asdict(report),
    ), 0


def _cmd_parallel_sum(args, tol: Tol, a, b):
    res = parallel_sum(a, b, tol)
    return dict(
        value=matrix_to_json_dict(res.value),
        route_agreement=res.route_agreement,
        regularized={str(eps): dev for eps, dev in res.regularized.items()},
    ), 0


def _cmd_parallel_eq(args, tol: Tol, a, b):
    res = solve_parallel_equation(a, b, tol)
    return dict(X=matrix_to_json_dict(res.X), norm=res.norm, diagnostics=res.diagnostics), 0


def _cmd_hansen_check(args, tol: Tol, a, b):
    if args.c is not None:
        lam = hansen_inequality_check(a, b, load_matrix(args.c), tol)
        return dict(mode="explicit", lambda_min=lam), 0
    n = a.shape[0]
    rng = np.random.default_rng(args.seed)
    worst = _hansen_worst(
        a,
        b,
        (
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
            for _ in range(args.probes)
        ),
        tol,
    )
    return dict(mode="probes", probes=args.probes, seed=args.seed, lambda_min_worst=worst), 0


def _cmd_lemma69(args, tol: Tol, x, y):
    res = lemma_69_check(x, y, tol)
    return dict(lambda_min=res.lambda_min, equality_gap=res.equality_gap), 0


def _cmd_lab_sweep(args, tol: Tol):
    return sweep_to_csv(divergence_sweep(args.dims, tol)), 0


def _cmd_lab_verify(args, tol: Tol):
    report = verify_closed_forms(args.dim, tol)
    fields = dict(d=report.d, residuals=report.residuals, passed=report.passed)
    return fields, 0 if report.passed else 5


# --- subcommand table -----------------------------------------------------------


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type of an integer flag whose values start at ``low``; a value
    below it is a usage error that names the flag, raised before any file is read."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # so a non-integer reads "invalid int value", as with type=int
    return parse


def _dims(text: str) -> list[int]:
    """argparse type of --dims: strictly ascending comma-separated integers >= 1;
    anything else, an empty item or an empty --dims (not the default sweep)
    included, is a usage error that names the flag."""
    try:
        dims = [int(part) for part in text.split(",")]  # int("") raises
    except ValueError:
        dims = [0]
    if min(dims) < 1:
        raise argparse.ArgumentTypeError(f"dims must be non-empty integers >= 1, got {text!r}")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise argparse.ArgumentTypeError(f"dims must be strictly ascending, got {text!r}")
    return dims


# the flags the leaves share, built once and copied into each leaf as parents
_TOL, _SEED, _OUT = (argparse.ArgumentParser(add_help=False) for _ in range(3))
_TOL.add_argument(
    "--tol",
    type=float,
    default=DEFAULT_TOL.residual_rel,
    help="residual tolerance (default 1e-8); moves every verdict bound but two "
    "fixed round-off gates: rank cutoff tol*1e-4, eigenvalue clamp and projector "
    "checks tol*1e-2, cross-product and closed-form checks tol/10 (see README)",
)
_SEED.add_argument("--seed", type=_at_least(0), default=0, help="RNG seed for probe modes")
_OUT.add_argument("--out", default=None, help="write JSON here instead of stdout")


class _Subcommand(NamedTuple):
    # "lab sweep" is the leaf "sweep" of the group "lab"; the payload's
    # "command" is the name with the space as a dash
    name: str
    help: str
    files: tuple  # required matrix-file flags, loaded in this order
    handler: Callable
    options: tuple = ()  # further (flag, add_argument keywords) pairs
    shared: tuple = (_TOL, _OUT)  # parent parsers of the shared flags
    file_help: str | None = None  # help text of the file flags


_SUBCOMMANDS = (
    _Subcommand(
        "polar", "polar factorization T = U |T|^alpha", ("input",), _cmd_polar,
        options=(
            ("--alpha", dict(type=float, default=None, help="exponent in (0,1); omit for the classical form")),
            ("--iterate", dict(type=_at_least(1), default=None, help="report the n-th iterate instead of the limit")),
        ),
        file_help="matrix JSON file",
    ),
    _Subcommand(
        "gpolar", "generalized polar factorization", ("input",), _cmd_gpolar,
        options=(("--alpha", dict(type=float, default=DEFAULT_ALPHA)),),
    ),
    _Subcommand("v-op", "canonical half-power factor V", ("input",), _cmd_v_op),
    _Subcommand("reduced-solve", "reduced solution of A X = C", ("a", "c"), _cmd_reduced_solve),
    _Subcommand("partition", "2x2 partition of T by (PM, PN)", ("input", "pm", "pn"), _cmd_partition),
    _Subcommand("shorted", "bilateral shorted operator", ("input", "pm", "pn"), _cmd_shorted),
    _Subcommand("parallel-sum", "parallel sum A : B", ("a", "b"), _cmd_parallel_sum),
    _Subcommand("parallel-eq", "reduced solution of (A+B) X = B with certificate", ("a", "b"), _cmd_parallel_eq),
    _Subcommand(
        "hansen-check", "lambda_min of C*AC + (I-C)*B(I-C) - A:B", ("a", "b"), _cmd_hansen_check,
        options=(
            ("--c", dict(default=None, help="explicit C matrix file; omit to probe randomly")),
            ("--probes", dict(type=_at_least(1), default=50, help="number of random probes (default 50)")),
        ),
        shared=(_TOL, _SEED, _OUT),
    ),
    _Subcommand("lemma69", "inverse-shift inequality check", ("x", "y"), _cmd_lemma69),
    _Subcommand(
        "lab sweep", "divergence sweep as CSV", (), _cmd_lab_sweep,
        options=(
            ("--dims", dict(type=_dims, default=None, help="comma-separated ascending dimensions (default 8,16,32,64,128,256)")),
            ("--csv", dict(dest="out", metavar="CSV", default=None, help="write CSV here instead of stdout")),
        ),
        shared=(_TOL,),
    ),
    _Subcommand(
        "lab verify", "closed-form cross-checks at one dimension", (), _cmd_lab_verify,
        options=(("--dim", dict(type=_at_least(1), required=True)),),
    ),
)

_GROUP_HELP = {"lab": "divergence lab"}


# --- parser and dispatch ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opshort",
        description="Polar-type factorizations, reduced solutions, shorted "
        "operators, and parallel sums for dense complex matrices.",
    )
    parser.add_argument("--version", action="version", version=f"opshort {__version__}")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for spec in _SUBCOMMANDS:
        group, _, leaf = spec.name.rpartition(" ")
        if group not in groups:
            gp = groups[""].add_parser(group, help=_GROUP_HELP[group])
            groups[group] = gp.add_subparsers(dest=f"{group}_command", required=True)
        sp = groups[group].add_parser(leaf, help=spec.help, parents=spec.shared)
        for name in spec.files:
            sp.add_argument(f"--{name}", required=True, help=spec.file_help)
        for flag, kwargs in spec.options:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(spec=spec)
    return parser


# parse_args leaves a parser unchanged, so one serves every dispatch
_PARSER = build_parser()


def _run(args, tol: Tol) -> int:
    spec = args.spec
    matrices = [load_matrix(getattr(args, name)) for name in spec.files]
    fields, code = spec.handler(args, tol, *matrices)
    if isinstance(fields, str):
        text = fields
    else:
        payload = {
            "command": spec.name.replace(" ", "-"),
            "version": __version__,
            "tol": {
                "eig_clamp_rel": tol.eig_clamp_rel,
                "rank_rel": tol.rank_rel,
                "residual_rel": tol.residual_rel,
            },
            **fields,
        }
        # handlers build fresh dicts and lists, so there is no cycle to check for
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


def dispatch(argv) -> int:
    """Parse argv and run the matching subcommand; returns the exit code."""
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        return _run(args, Tol(args.tol))
    except (OpshortError, ValueError, OSError) as exc:
        print(f"opshort: {exc}", file=sys.stderr)
        if isinstance(exc, NotSolvable):
            return 4 if exc.borderline else 3
        if isinstance(exc, NotWeaklyComplementable):
            return 3
        return 5 if isinstance(exc, InternalInvariantViolation) else 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
