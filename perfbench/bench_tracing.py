"""Span recording and the per-layer profile of a traced benchmark run.

Tracing lives entirely in the benchmark: the library is not modified.  A
traced run wraps operators in delegating ``SensingOperator`` subclasses and
replaces a few module-level functions for the duration of the run (see
:func:`patched_library`), so every call into a layer's public function
becomes one span.

A span is ``[name, start, end, parent, task, work]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``task`` the id of the task
that was running, and ``work`` an optional amount of work done by the call
(bytes for a dense apply, supports for an eigenvalue search; computed from
the arguments, not measured).  Spans stay in memory and are written out
once, at the end of the run.

The layer of a span is the module prefix of its name (``operators``,
``recon``, ...).  A span's self time is its duration minus the durations
of its direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import contextlib
import csv
import math
import time

from sparserecon import dore, experiments, matrix_analysis, model_selection, recon
from sparserecon.operators import SensingOperator

LAYERS = ("operators", "dataio", "recon", "dore", "model_selection",
          "matrix_analysis", "experiments")


class Tracer:
    """In-memory span recorder; ``task`` is set around each task by whoever runs it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.task: str | None = None

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``work(args, kwargs, result)`` computes the span's work amount; it
        is skipped when the call raises.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[5] = float(work(args, kwargs, result))
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "task", "work"])
            for index, (name, start, end, parent, task, work) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), parent,
                                 "" if task is None else task, repr(work)])


class TimedOperator(SensingOperator):
    """Delegating operator whose apply/adjoint/gram_solve calls are spans.

    Span names are ``<prefix>.apply``, ``<prefix>.adjoint`` and
    ``<prefix>.gram_solve``.  For a dense inner operator the apply span's
    work is the N*m*8 bytes of the matrix it reads.
    """

    def __init__(self, inner: SensingOperator, prefix: str, tracer: Tracer):
        super().__init__(inner.n_rows, inner.n_cols, inner.rows_orthonormal, inner.kind)
        self.inner = inner
        matrix_bytes = 8.0 * inner.n_rows * inner.n_cols
        bytes_read = (lambda a, k, r: matrix_bytes) if inner.kind == "dense" else None
        self._apply = tracer.wrap(prefix + ".apply", inner.apply, bytes_read)
        self._adjoint = tracer.wrap(prefix + ".adjoint", inner.apply_adjoint)
        self._gram = tracer.wrap(prefix + ".gram_solve", inner.gram_solve)

    def apply(self, v):
        return self._apply(v)

    def apply_adjoint(self, w):
        return self._adjoint(w)

    def gram_solve(self, b):
        return self._gram(b)


class TimedHaar:
    """Delegating Haar basis whose synthesize/analyze calls are spans."""

    def __init__(self, inner, tracer: Tracer):
        self.side, self.levels, self.size = inner.side, inner.levels, inner.size
        self.synthesize = tracer.wrap("operators.haar.synthesize", inner.synthesize)
        self.analyze = tracer.wrap("operators.haar.analyze", inner.analyze)


def timed_phantom_operator(op, tracer: Tracer) -> TimedOperator:
    """Rebuild a composed phantom operator from a timed sampler and basis."""
    composed = type(op)(TimedOperator(op.sampling, "operators.dft2", tracer),
                        TimedHaar(op.basis, tracer))
    return TimedOperator(composed, "operators", tracer)


# --------------------------------------------------------- computed work sizes

def _ric_supports(args, kwargs, result) -> int:
    """Supports the RIC search enumerates: C(m, r)."""
    _, m = args[0].shape
    return math.comb(m, args[1])


def _min_ssq_supports(args, kwargs, result) -> int:
    """C(m, r), or 0 when r > N and the search returns without enumerating.

    An early exit on a singular support is not seen here, so this is an
    upper bound.
    """
    n, m = args[0].shape
    return 0 if args[1] > n else math.comb(m, args[1])


def _spark_subsets(args, kwargs, result) -> int:
    """Column subsets the spark search tests: every size up to the answer."""
    n, m = args[0].shape
    return sum(math.comb(m, k) for k in range(1, min(result, n) + 1))


def _iterations(args, kwargs, result) -> int:
    return result.iterations


@contextlib.contextmanager
def patched_library(tracer: Tracer):
    """Replace layer entry points at module level for the traced run only.

    ``hard_threshold`` (as looked up by ``recon`` and ``dore``),
    ``dore_run`` inside ``model_selection``, the three exact searches that
    ``certify`` calls, and the operator constructors that
    ``phantom_problem`` calls.  Everything is restored on exit.
    """
    replacements = [
        (recon, "hard_threshold", tracer.wrap("recon.hard_threshold", recon.hard_threshold)),
        (dore, "hard_threshold", tracer.wrap("recon.hard_threshold", dore.hard_threshold)),
        (model_selection, "dore_run",
         tracer.wrap("dore.dore_run", model_selection.dore_run, _iterations)),
        (matrix_analysis, "min_ssq",
         tracer.wrap("matrix_analysis.min_ssq", matrix_analysis.min_ssq, _min_ssq_supports)),
        (matrix_analysis, "ric",
         tracer.wrap("matrix_analysis.ric", matrix_analysis.ric, _ric_supports)),
        (matrix_analysis, "spark",
         tracer.wrap("matrix_analysis.spark", matrix_analysis.spark, _spark_subsets)),
        (experiments, "PartialDft2Operator",
         tracer.wrap("operators.construct", experiments.PartialDft2Operator)),
        (experiments, "ComposedOperator",
         tracer.wrap("operators.construct", experiments.ComposedOperator)),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, replacement in replacements:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


# ------------------------------------------------------------ the layer profile

# (name, unit) of every per-layer metric, in report order.  A layer the
# workload never calls reports 0.
PER_LAYER = (
    ("operators.apply.calls_per_task", "count"),
    ("operators.apply.us_per_call", "us"),
    ("operators.apply.share", "ratio"),
    ("operators.adjoint.calls_per_task", "count"),
    ("operators.adjoint.us_per_call", "us"),
    ("operators.adjoint.share", "ratio"),
    ("operators.gram_solve.calls_per_task", "count"),
    ("operators.gram_solve.us_per_call", "us"),
    ("operators.gram_solve.share", "ratio"),
    ("operators.haar.synthesize.us_per_call", "us"),
    ("operators.haar.analyze.us_per_call", "us"),
    ("operators.dft2.apply.us_per_call", "us"),
    ("operators.dft2.adjoint.us_per_call", "us"),
    ("operators.dense.apply.gb_per_s_computed", "GB/s"),
    ("operators.construct_ms", "ms"),
    ("operators.self_share", "ratio"),
    ("dataio.load_ms", "ms"),
    ("recon.hard_threshold.calls_per_task", "count"),
    ("recon.hard_threshold.us_per_call", "us"),
    ("recon.hard_threshold.share", "ratio"),
    ("recon.ops_per_iter", "count"),
    ("recon.iterations_per_task", "count"),
    ("recon.iter_us", "us"),
    ("recon.converged_frac", "ratio"),
    ("recon.self_share", "ratio"),
    ("dore.iterations_per_task", "count"),
    ("dore.iter_us", "us"),
    ("dore.ops_per_iter", "count"),
    ("dore.converged_frac", "ratio"),
    ("dore.overrelaxed_frac", "ratio"),
    ("dore.self_share", "ratio"),
    ("model_selection.dore_runs_per_task", "count"),
    ("model_selection.iterations_per_task", "count"),
    ("model_selection.solver_share", "ratio"),
    ("model_selection.r_exact_frac", "ratio"),
    ("model_selection.self_share", "ratio"),
    ("matrix_analysis.min_ssq.supports_per_s", "1/s"),
    ("matrix_analysis.min_ssq.share", "ratio"),
    ("matrix_analysis.ric.supports_per_s", "1/s"),
    ("matrix_analysis.ric.share", "ratio"),
    ("matrix_analysis.spark.subsets_per_s", "1/s"),
    ("matrix_analysis.spark.share", "ratio"),
    ("matrix_analysis.supports_per_task", "count"),
    ("matrix_analysis.self_share", "ratio"),
    ("experiments.phantom_problem_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

_OPERATOR_CALLS = ("operators.apply", "operators.adjoint", "operators.gram_solve")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, records, setup_task: str, overhead_frac: float) -> dict:
    """Per-layer metrics of the traced phase.

    ``records`` are the traced tasks (each with ``id``, ``method``,
    ``seconds`` and ``info``); spans tagged with ``setup_task`` belong to
    the traced set-up pass.  Shares are over the summed task wall time;
    ``us_per_call`` and the ``share`` of a named call are inclusive of its
    children, ``<layer>.self_share`` counts self time only.
    """
    by_id = {rec.id: rec for rec in records}
    wall = sum(rec.seconds for rec in records)
    n_tasks = len(records)
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    work: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    setup_ms: dict[str, float] = {}
    ops_by_method: dict[str, int] = {}
    top_level = 0.0
    solver_in_adore = iterations_in_adore = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, task, amount = span
        if task == setup_task:
            setup_ms[name] = setup_ms.get(name, 0.0) + 1e3 * (end - start)
            continue
        record = by_id.get(task)
        if record is None:
            continue
        duration = end - start
        calls[name] = calls.get(name, 0) + 1
        seconds[name] = seconds.get(name, 0.0) + duration
        work[name] = work.get(name, 0.0) + amount
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            top_level += duration
        elif name == "dore.dore_run" and spans[parent][0] == "model_selection.adore_run":
            solver_in_adore += duration
            iterations_in_adore += amount
        if name in _OPERATOR_CALLS:
            ops_by_method[record.method] = ops_by_method.get(record.method, 0) + 1

    def per_call_us(name):
        return 1e6 * _ratio(seconds.get(name, 0.0), calls.get(name, 0))

    def of(methods):
        # a task that raised has no info and is left out
        return [rec for rec in records if rec.method in methods and rec.info]

    def solver_metrics(prefix, methods):
        chosen = of(methods)
        iterations = sum(rec.info["iterations"] for rec in chosen)
        return {
            prefix + ".ops_per_iter": _ratio(
                sum(ops_by_method.get(m, 0) for m in methods), iterations),
            prefix + ".iterations_per_task": _ratio(iterations, len(chosen)),
            prefix + ".iter_us": 1e6 * _ratio(sum(rec.seconds for rec in chosen), iterations),
            prefix + ".converged_frac": _ratio(
                sum(rec.info["converged"] for rec in chosen), len(chosen)),
        }

    out = {}
    for call in _OPERATOR_CALLS + ("recon.hard_threshold",):
        out[call + ".calls_per_task"] = _ratio(calls.get(call, 0), n_tasks)
        out[call + ".us_per_call"] = per_call_us(call)
        out[call + ".share"] = _ratio(seconds.get(call, 0.0), wall)
    for name in ("operators.haar.synthesize", "operators.haar.analyze",
                 "operators.dft2.apply", "operators.dft2.adjoint"):
        out[name + ".us_per_call"] = per_call_us(name)
    out["operators.dense.apply.gb_per_s_computed"] = 1e-9 * _ratio(
        work.get("operators.apply", 0.0), seconds.get("operators.apply", 0.0))
    out["operators.construct_ms"] = setup_ms.get("operators.construct", 0.0)
    out["dataio.load_ms"] = setup_ms.get("dataio.load", 0.0)
    out["experiments.phantom_problem_ms"] = setup_ms.get("experiments.phantom_problem", 0.0)

    out.update(solver_metrics("recon", ("ecme", "iht")))
    out.update(solver_metrics("dore", ("dore",)))
    dore_tasks = of(("dore",))
    out["dore.overrelaxed_frac"] = _ratio(
        sum(rec.info["overrelaxed"] for rec in dore_tasks),
        sum(rec.info["decisions"] for rec in dore_tasks))

    adore_tasks = of(("adore",))
    adore_wall = sum(rec.seconds for rec in adore_tasks)
    out["model_selection.dore_runs_per_task"] = _ratio(
        sum(rec.info["dore_runs"] for rec in adore_tasks), len(adore_tasks))
    out["model_selection.iterations_per_task"] = _ratio(iterations_in_adore, len(adore_tasks))
    out["model_selection.solver_share"] = _ratio(solver_in_adore, adore_wall)
    out["model_selection.r_exact_frac"] = _ratio(
        sum(rec.info["r_selected"] == rec.info["r_true"] for rec in adore_tasks),
        len(adore_tasks))

    for name, rate in (("min_ssq", "supports_per_s"), ("ric", "supports_per_s"),
                       ("spark", "subsets_per_s")):
        full = "matrix_analysis." + name
        out[f"{full}.{rate}"] = _ratio(work.get(full, 0.0), seconds.get(full, 0.0))
        out[full + ".share"] = _ratio(seconds.get(full, 0.0), wall)
    out["matrix_analysis.supports_per_task"] = _ratio(
        work.get("matrix_analysis.min_ssq", 0.0) + work.get("matrix_analysis.ric", 0.0),
        n_tasks)

    for layer in ("operators", "recon", "dore", "model_selection", "matrix_analysis"):
        out[layer + ".self_share"] = _ratio(layer_self[layer], wall)
    out["trace.overhead_frac"] = overhead_frac
    # Every task's library call is itself one top-level span, so the self
    # times add up to the top-level durations by construction, and this is
    # only the benchmark's own dispatch between the task clock and that span
    # (about 1e-4).  It grows if a task calls the library outside a span.
    out["trace.unattributed_frac"] = _ratio(wall - top_level, wall)
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER}
