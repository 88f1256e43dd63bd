"""Span tracer for the traced benchmark run.

The tracer replaces every public function of the seven ``opshort`` modules,
and the LAPACK entry points of ``numpy.linalg``, with timing wrappers while a
traced pass runs.  A function is patched under every name that binds it, so
``from .numkit import opnorm`` in another module is caught as well, and the
SVD that ``np.linalg.norm(x, 2)`` runs is caught through
``numpy.linalg._linalg``.  Nothing in ``src/`` is changed: the spans are taken
from the benchmark's side of each call.

Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import re
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("numkit", "polar", "douglas", "shorting", "parallel", "lab", "cli")
KERNELS = {"svd": "numkit.svd", "eigh": "numkit.eigh", "eigvalsh": "numkit.eigh", "inv": "numkit.inv"}
HASHED = ("numkit.svd", "parallel.parallel_sum")
VERDICTS = ("douglas.range_included", "douglas.reduced_solution")
ROW_FUNCTION = "lab._sweep_row"
SWEEP_DIMS = (64, 128, 256)

SHORTING_STAGES = (
    "partition",
    "weak_complement_data",
    "is_complementable",
    "shorted",
    "verify_range_kernel",
    "redundancy_report",
)


def layer_metric_specs():
    """Names and units of every per-layer metric, in report order."""
    specs = []
    for k in ("svd", "eigh", "opnorm", "inv"):
        specs += [(f"numkit.{k}_calls", "count"), (f"numkit.{k}_s", "s")]
    specs += [("numkit.svd_distinct_frac", "frac"), ("numkit.flops_computed", "flop")]
    for d in SWEEP_DIMS:
        specs += [(f"numkit.svd_calls.d{d}", "count"), (f"numkit.svd_distinct.d{d}", "count")]
    specs += [
        ("numkit.load_matrix_calls", "count"),
        ("numkit.load_matrix_s", "s"),
        ("numkit.matrix_from_json_dict_s", "s"),
        ("numkit.matrix_to_json_dict_s", "s"),
    ]
    for stage in SHORTING_STAGES:
        specs.append((f"shorting.{stage}_s", "s"))
        specs += [(f"shorting.{stage}_s.d{d}", "s") for d in SWEEP_DIMS]
    for fn in ("v_operator", "gpolar", "polar_decompose", "gpolar_iterative"):
        specs += [(f"polar.{fn}_s", "s"), (f"polar.{fn}_calls", "count")]
    specs += [
        ("douglas.reduced_solution_s", "s"),
        ("douglas.reduced_solution_calls", "count"),
        ("douglas.range_included_s", "s"),
        ("douglas.reject_frac", "frac"),
        ("douglas.borderline_frac", "frac"),
        ("parallel.parallel_sum_s", "s"),
        ("parallel.parallel_sum_calls", "count"),
        ("parallel.parallel_sum_distinct_frac", "frac"),
        ("parallel.hansen_inequality_check_s", "s"),
        ("parallel.solve_parallel_equation_s", "s"),
        ("parallel.lemma_69_check_s", "s"),
        ("cli.dispatch_s", "s"),
        ("cli.bytes_out", "bytes"),
        ("lab.make_kit_s", "s"),
        ("lab.subspace_angles_s", "s"),
    ]
    specs += [(f"lab.row_s.d{d}", "s") for d in SWEEP_DIMS]
    specs.append(("trace.overhead_frac", "frac"))
    return specs


def _kernel_flops(name: str, args, kwargs) -> float:
    """Operation count of one LAPACK call from the textbook model.

    Real counts follow Golub and Van Loan, Matrix Computations, tables 5.5
    and 8.6 (thin SVD with vectors 14mn^2 + 8n^3, full 4m^2n + 8mn^2 + 9n^3,
    values only 4mn^2 - 4n^3/3; Hermitian eigensolver 9n^3 with vectors,
    4n^3/3 without; inverse 2n^3).  A complex multiply-add costs four real
    ones, so complex inputs count four times.  The count is computed, not
    measured.
    """
    a = np.asarray(args[0])
    if a.ndim != 2 or a.size == 0:
        return 0.0
    m, n = max(a.shape), min(a.shape)
    if name == "svd":
        compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        if not compute_uv:
            real = 4 * m * n * n - 4 * n**3 / 3
        elif full:
            real = 4 * m * m * n + 8 * m * n * n + 9 * n**3
        else:
            real = 14 * m * n * n + 8 * n**3
    elif name == "eigh":
        real = 9 * n**3
    elif name == "eigvalsh":
        real = 4 * n**3 / 3
    else:
        real = 2 * n**3
    return float(real) * (4.0 if np.iscomplexobj(a) else 1.0)


def _input_key(args) -> str:
    h = hashlib.blake2b(digest_size=16)
    for x in args:
        if isinstance(x, (np.ndarray, list)):
            arr = np.ascontiguousarray(x)
            h.update(repr((arr.shape, arr.dtype.str)).encode())
            h.update(memoryview(arr).cast("B"))
    return h.hexdigest()


class Tracer:
    """Records spans around calls into opshort and its LAPACK kernels."""

    def __init__(self, layer_modules, namespaces):
        """Wrap the public functions of ``layer_modules`` and the LAPACK
        entry points found in ``namespaces``; both kinds of module have their
        bindings patched while the tracer is installed."""
        self.spans = []
        self.op = None
        self.flops = 0.0
        self.keys = defaultdict(list)  # span name -> [(op, input key)]
        self.verdicts = Counter()
        self._stack = []
        self._modules = list(layer_modules) + list(namespaces)
        self._targets = {}  # id(original) -> (original, wrapper)
        for mod in layer_modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._add(fn, f"{layer}.{attr}", kernel=None)
            if layer == "lab":
                self._add(mod._sweep_row, ROW_FUNCTION, kernel=None)
                self._add(mod.subspace_angles, "lab.subspace_angles", kernel=None)
        for mod in namespaces:
            for attr, name in KERNELS.items():
                fn = getattr(mod, attr, None)
                if fn is not None:
                    self._add(fn, name, kernel=attr)
        self._patched = []

    def _add(self, fn, name, kernel):
        if id(fn) not in self._targets:
            self._targets[id(fn)] = (fn, self._wrap(fn, name, kernel))

    def _wrap(self, fn, name, kernel):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # LAPACK calls made by the benchmark's own checks are not the program's
            if kernel is not None and not stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if name in HASHED:
                t0 = perf_counter()
                tracer.keys[name].append((tracer.op, _input_key(args[:2])))
                tracer.spans.append(("trace.hash", t0, perf_counter(), parent, tracer.op))
            if kernel is not None:
                tracer.flops += _kernel_flops(kernel, args, kwargs)
            saved_op = tracer.op
            if name == ROW_FUNCTION:
                tracer.op = f"{saved_op}.d{args[0]}"
            idx = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name in VERDICTS:
                    tracer._count_verdict(False, getattr(exc, "borderline", False))
                raise
            else:
                if name in VERDICTS:
                    included = getattr(result, "included", True)
                    tracer._count_verdict(included, result.borderline)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)
                tracer.op = saved_op

        return wrapper

    def _count_verdict(self, accepted, borderline):
        self.verdicts["calls"] += 1
        self.verdicts["reject"] += 0 if accepted else 1
        self.verdicts["borderline"] += 1 if borderline else 0

    def install(self):
        for mod in self._modules:
            for attr, value in list(vars(mod).items()):
                target = self._targets.get(id(value))
                if target is not None and target[0] is value:
                    setattr(mod, attr, target[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def self_times(self):
        """Per-span self time: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, passes: int, bytes_out: int, overhead_frac: float):
        """Every per-layer metric per traced pass, plus inclusive times.

        ``<layer>.<fn>_s`` is self time and ``_calls`` a call count; a
        ``.d<N>`` suffix restricts either to the sweep row at d = N.  The
        row times ``lab.row_s.d<N>`` are whole rows.  The second value maps
        every span name (and name.d<N>) to its inclusive time per pass.
        """
        self_s = defaultdict(float)
        calls = Counter()
        inclusive = defaultdict(float)
        for (name, start, end, _, op), own in zip(self.spans, self.self_times()):
            keys = [name]
            row = str(op).rsplit(".", 1)[-1]
            if row.startswith("d"):
                keys.append(f"{name}.{row}")
            for key in keys:
                self_s[key] += own
                calls[key] += 1
                inclusive[key] += end - start
        verdicts = self.verdicts["calls"] or 1
        values = {
            "numkit.svd_distinct_frac": self._distinct_frac("numkit.svd"),
            "parallel.parallel_sum_distinct_frac": self._distinct_frac("parallel.parallel_sum"),
            "numkit.flops_computed": self.flops / passes,
            "douglas.reject_frac": self.verdicts["reject"] / verdicts,
            "douglas.borderline_frac": self.verdicts["borderline"] / verdicts,
            "cli.bytes_out": bytes_out / passes,
            "trace.overhead_frac": overhead_frac,
        }
        for d in SWEEP_DIMS:
            values[f"lab.row_s.d{d}"] = inclusive[f"{ROW_FUNCTION}.d{d}"] / passes
            keys = {k for op, k in self.keys["numkit.svd"] if str(op).endswith(f".d{d}")}
            values[f"numkit.svd_distinct.d{d}"] = len(keys) / passes
        for metric, _ in layer_metric_specs():
            if metric in values:
                continue
            m = re.fullmatch(r"(\w+\.\w+?)_(s|calls)(\.d\d+)?", metric)
            key = m.group(1) + (m.group(3) or "")
            values[metric] = (self_s[key] if m.group(2) == "s" else calls[key]) / passes
        stages = {k: v / passes for k, v in sorted(inclusive.items())}
        return values, stages

    def _distinct_frac(self, name):
        """Distinct inputs over calls, with inputs compared within one pass."""
        entries = self.keys[name]
        if not entries:
            return 0.0
        distinct = {(str(op).split(".", 1)[0], key) for op, key in entries}
        return len(distinct) / len(entries)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
