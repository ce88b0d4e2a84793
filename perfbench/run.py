"""sparserecon benchmark: one workload, one closed loop, one JSON result.

    python3 perfbench/run.py --workload {phantom,dense,certify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  One process runs one client
that starts the next task when the last one finishes.  BLAS is pinned to
one thread.

``--trace 0`` sets up the workload at least three times and for at least two
seconds (``setup_s`` is the median),
then runs whole rounds of tasks until ``--seconds`` have passed and at least
100 tasks are done, so that the p90 latency has at least 10 samples above it.
The end-to-end metrics are printed.

``--trace 1`` runs the loop untraced for half the time, sets up again with
tracing on, and reruns exactly the same tasks traced.  Outputs of the two
passes must be identical.  The per-layer metrics come from the traced pass;
spans are written to ``perfbench/out/spans-<workload>-seed<N>.csv``.

After the loop, each workload runs its extra checks (reference iteration
counts, sampled-versus-exact bounds).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it list
every metric with its unit and a ``detail`` object with the environment,
sample counts, per-class figures and every violation found.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs at least this often and for at least this long; setup_s is
# the median.  A set-up of a few milliseconds needs many repeats to be steady.
SETUP_REPEATS = (3, 1000)
SETUP_MIN_SECONDS = 2.0
MIN_TASKS = 100
P90_RANK = 0.9
# Stated for the reference host (lscpu); cache sizes are not probed at run time.
CACHE_BYTES = {"l2_per_core": 4 * 2**20, "l3_shared": 105 * 2**20}


def _import_library():
    """Import sparserecon from this checkout's src/, or exit with an error."""
    if not (SRC / "sparserecon" / "__init__.py").is_file():
        sys.exit(f"error: no library at {SRC / 'sparserecon'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sparserecon

    if Path(sparserecon.__file__).resolve().parent != (SRC / "sparserecon").resolve():
        sys.exit(f"error: imported sparserecon from {sparserecon.__file__}, not {SRC}")


@dataclass
class TaskRecord:
    id: str
    spec: object
    seconds: float
    outcome: object

    @property
    def method(self):
        return self.spec.method

    @property
    def info(self):
        return self.outcome.info


def _run_task(workload, spec, problems, tracer, task_id):
    from bench_workloads import Outcome

    if tracer is not None:
        tracer.task = task_id
    start = time.perf_counter()
    try:
        output = workload.execute(spec, problems, tracer)
    except Exception as exc:  # a raising task is a failed task, not a crash
        seconds = time.perf_counter() - start
        outcome = Outcome([f"raised {type(exc).__name__}: {exc}"], None, "")
    else:
        seconds = time.perf_counter() - start
        try:
            outcome = workload.check(spec, problems, output)
        except Exception as exc:
            outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"], None, "")
    if tracer is not None:
        tracer.task = None
    return TaskRecord(task_id, spec, seconds, outcome)


def _closed_loop(workload, problems, rounds, seconds, min_tasks):
    """Run whole rounds until ``seconds`` have passed and ``min_tasks`` are done."""
    records = []
    start = time.perf_counter()
    while True:
        for spec in next(rounds):
            records.append(_run_task(workload, spec, problems, None, f"t{len(records)}"))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= min_tasks:
            return records, elapsed


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _determinism_violations(records):
    """A task repeated later in the run must reproduce its first output."""
    first = {}
    for rec in records:
        if not rec.outcome.fingerprint:
            continue
        seen = first.setdefault(rec.spec.key, rec.outcome.fingerprint)
        if seen != rec.outcome.fingerprint:
            rec.outcome.violations.append("output differs from an earlier run of the same task")


def _blas_info():
    import glob

    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "scipy_name": scipy_blas.get("name"), "scipy_version": scipy_blas.get("version"),
            "threads": None, "env_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment(workload) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": dict(CACHE_BYTES, source="stated for the reference host, not probed"),
        "working_set_bytes": workload.working_set(),
    }


def _class_summary(records):
    classes = {}
    for rec in records:
        classes.setdefault(rec.spec.cls, []).append(rec)
    return {
        cls: {"tasks": len(recs),
              "median_s": statistics.median(r.seconds for r in recs),
              "recovered": sum(r.outcome.recovered is True for r in recs),
              "with_target": sum(r.outcome.recovered is not None for r in recs)}
        for cls, recs in sorted(classes.items())
    }


def _trim_heap():
    """Give freed heap memory back to the OS (glibc ``malloc_trim``).

    Without it, whether memory freed by one set-up pass is reused or grown
    past depends on where the allocator left it, and ``peak_rss_mb`` of the
    same run flips between two values about 10% apart.
    """
    trim = getattr(ctypes.CDLL(ctypes.util.find_library("c")), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _set_up(workload, least: int, most: int):
    """Set up ``least`` to ``most`` times, until SETUP_MIN_SECONDS have passed."""
    times, problems = [], None
    while len(times) < most and (len(times) < least or sum(times) < SETUP_MIN_SECONDS):
        problems = None  # free the last set-up first: peak memory should hold one
        _trim_heap()
        start = time.perf_counter()
        problems = workload.setup(None)
        times.append(time.perf_counter() - start)
    return problems, times


def _traced_pass(workload, records, elapsed, out_dir, name, detail):
    """Rerun ``records`` traced; returns the traced records, checks and
    per-layer metrics, and writes the spans out."""
    from bench_tracing import Tracer, layer_metrics, patched_library

    tracer = Tracer()
    with patched_library(tracer):
        tracer.task = "setup"
        problems = workload.setup(tracer)
        start = time.perf_counter()
        traced = [_run_task(workload, rec.spec, problems, tracer, f"x{i}")
                  for i, rec in enumerate(records)]
        traced_elapsed = time.perf_counter() - start
        tracer.task = "verify"
        checks = workload.verify(problems, tracer)
        tracer.task = None
    for plain, rec in zip(records, traced):
        if plain.outcome.fingerprint != rec.outcome.fingerprint:
            rec.outcome.violations.append("traced output differs from untraced output")
    metrics = layer_metrics(tracer.spans, traced, "setup", traced_elapsed / elapsed - 1.0)
    spans_path = out_dir / f"spans-{name}.csv"
    tracer.write_csv(spans_path)
    detail.update(spans_file=spans_path.name, spans=len(tracer.spans),
                  reference_per_call_us=_reference_per_call(tracer.spans))
    return traced, checks, metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full", out=None, out_dir=None) -> dict:
    """Run one workload and print its report to ``out``; returns the final
    JSON object.  Scratch inputs and span files go under ``out_dir``.
    ``size="small"`` shrinks every instance and drops the task minimum; it is
    for the benchmark's own tests and is not on the command line."""
    import numpy as np

    from bench_workloads import WORKLOADS

    out = out or sys.stdout
    workload = WORKLOADS[workload_name](size)
    out_dir = Path(out_dir) if out_dir else HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}-{workload_name}"
    workdir.mkdir(parents=True, exist_ok=True)
    detail = {"workload": workload_name, "seed": seed, "size": size,
              "seconds": seconds, "trace": int(trace)}
    try:
        workload.generate(seed, workdir)
        problems, setup_times = _set_up(workload, *((1, 1) if trace else SETUP_REPEATS))
        rounds = workload.rounds(np.random.default_rng([seed, 1]))
        _trim_heap()
        records, elapsed = _closed_loop(
            workload, problems, rounds, seconds / 2 if trace else seconds,
            MIN_TASKS if size == "full" and not trace else 0)
        if trace:
            traced, checks, metrics = _traced_pass(
                workload, records, elapsed, out_dir, f"{workload_name}-seed{seed}", detail)
        else:
            traced, checks = [], workload.verify(problems, None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    all_records = records + traced
    _determinism_violations(all_records)

    latencies = [rec.seconds for rec in records]
    targets = [rec.outcome.recovered for rec in records if rec.outcome.recovered is not None]
    failed_tasks = sum(bool(rec.outcome.violations) for rec in all_records)
    failed_checks = sum(bool(bad) for _, bad in checks)
    attempted = len(all_records) + len(checks)
    failed = failed_tasks + failed_checks
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "task_s_p50": (statistics.median(latencies), "s"),
            "task_s_p90": (_nearest_rank(latencies, P90_RANK), "s"),
            "tasks_per_s": (len(records) / elapsed, "1/s"),
            "recovered_frac": (sum(targets) / len(targets) if targets else 1.0, "ratio"),
            "passed_frac": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    detail.update({
        "environment": environment(workload),
        "setup_repeats": len(setup_times),
        "timed_phase_s": elapsed,
        "tasks": len(records),
        "task_s_p90_samples_above": len(latencies) - math.ceil(P90_RANK * len(latencies)),
        "failed_frac": failed / attempted,
        "failed_tasks": failed_tasks,
        "failed_checks": failed_checks,
        "with_target": len(targets),
        "classes": _class_summary(records),
        "checks": [name for name, _ in checks],
        "violations": [f"{rec.id} {rec.spec.key}: {v}" for rec in all_records
                       for v in rec.outcome.violations][:50]
        + [f"{name}: {v}" for name, bad in checks for v in bad],
    })

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    samples = {"task_s_p50": f"  (n={len(latencies)})",
               "task_s_p90": f"  (n={len(latencies)}, {detail['task_s_p90_samples_above']} above)"}
    print(f"sparserecon benchmark: workload={workload_name} seed={seed} size={size} "
          f"trace={int(trace)} tasks={len(records)}", file=out)
    for name, entry in metrics.items():
        print(f"  {name:44s} {entry['value']:.6g} {entry['unit']}{samples.get(name, '')}",
              file=out)
    print("detail " + json.dumps(detail, sort_keys=True), file=out)
    print(json.dumps(result), file=out)
    return result


def _reference_per_call(spans) -> dict:
    """Per-call times on the side-64, 28-line reference cell (verify phase)."""
    totals = {}
    for name, start, end, _, task, _ in spans:
        if task == "verify":
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + end - start)
    return {name: 1e6 * seconds / calls for name, (calls, seconds) in sorted(totals.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("phantom", "dense", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    _import_library()
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
