"""The three benchmark workloads: inputs, set-up, tasks and their checks.

Each workload is one closed loop over rounds.  A round holds a fixed
multiset of task classes; the seed picks the cell or instance each class
runs next (cycling through a seeded permutation, so every seed covers the
same cells equally often) and the order of the tasks in the round.  Keeping
the mix fixed keeps the latency percentiles comparable across seeds.

A task is one library call.  Its output is checked after the call returns;
every broken invariant is a violation, and a task with a violation (or one
that raised) counts as failed.  Accuracy targets are separate: missing one
lowers ``recovered_frac`` but is not a failure.

Workloads and why they were chosen:

* ``phantom`` -- matrix-free FFT/Haar work and thresholding of length-m
  vectors (m = 4096 or 16384); the gram solve is the identity, so a gram or
  Cholesky change should not move it.
* ``dense`` -- Gaussian rows that are not orthonormal, so every gram solve is
  a Cholesky solve; 200x500 (H fits the L2 cache) and 800x2000 (it does not);
  ADORE's repeated solves.  Inputs arrive as CSV through ``dataio``.
* ``certify`` -- combinatorial enumeration with no operator calls: pivoted
  QR in the spark search on Gaussian matrices, ``eigvalsh`` on DCT row
  selections whose spark search is over the guard, and the golden matrix.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparserecon import (dataio, dore, experiments, matrix_analysis,
                         model_selection, recon)
from sparserecon.operators import DenseOperator, HaarBasis, partial_dct_matrix

from bench_tracing import TimedOperator, timed_phantom_operator

# The golden 21x32 matrix: rows of the 32-point orthonormal DCT-II.  Its
# exact min 2-SSQ is 0.503 and its exact 2-RIC 0.497.
GOLDEN_N = 32
GOLDEN_ROWS = (1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 15, 17, 19, 20, 21,
               23, 26, 28, 29, 30, 31)

# Phantom cells count as past the frozen transition from these line counts.
PAST_TRANSITION_LINES = {64: 28, 128: 50}
PSNR_TARGET_DB = 100.0
# Reference iteration counts at side 64, 28 lines, default stopping rule.
REFERENCE_CELL = (64, 28)
REFERENCE_ITERATIONS = {"iht": 504, "dore": 154}

MONOTONE_RTOL = 1e-12
EIG_ATOL = 1e-9


@dataclass(frozen=True)
class TaskSpec:
    """What one task runs; equal keys mean equal inputs and equal outputs."""

    key: str
    cls: str
    method: str


@dataclass
class Outcome:
    violations: list[str]
    recovered: bool | None  # None: the task has no accuracy target
    fingerprint: str
    info: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return sha.hexdigest()


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _monotone_violations(trace) -> list[str]:
    trace = np.asarray(trace, dtype=float)
    rise = float(np.max(np.diff(trace), initial=0.0))
    if rise > MONOTONE_RTOL * max(1.0, float(trace[0])):
        return [f"objective trace rises by {rise:.3e}"]
    return []


def _solver_info(result) -> dict:
    branches = result.branches or []
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "overrelaxed": sum(b == "overrelaxed" for b in branches),
        "decisions": len(branches),
    }


def _solver_digest(result) -> str:
    return _digest(result.estimate.s, np.asarray(result.trace), result.iterations,
                   result.converged, tuple(result.branches or ()))


def _cycles(rng, classes):
    """Per class, an endless cycle over a seeded permutation of its choices."""
    state = {}
    for label, choices, _ in classes:
        order = rng.permutation(len(choices))
        state[label] = ([choices[i] for i in order], 0)

    def draw(label):
        items, position = state[label]
        state[label] = (items, position + 1)
        return items[position % len(items)]

    return draw


def _rounds(rng, classes, make_spec):
    """Endless rounds: ``per_round`` draws of every class, shuffled."""
    draw = _cycles(rng, classes)
    while True:
        round_specs = [make_spec(label, draw(label))
                       for label, _, per_round in classes for _ in range(per_round)]
        yield [round_specs[i] for i in rng.permutation(len(round_specs))]


# ------------------------------------------------------------------- phantom

class PhantomWorkload:
    """Shepp-Logan tomography through partial 2-D DFT x Haar, IHT and DORE."""

    name = "phantom"

    def __init__(self, size: str):
        # (class, side, methods, line counts, max_iter or None, tasks per round)
        # Ten tasks a round, in five duration bands of two tasks (the capped
        # cells and side-64 DORE, side-128 DORE, side-64 IHT, side-128 IHT):
        # the median lands mid-way through side-128 DORE and the p90 mid-way
        # through side-128 IHT, not on the edge between two classes.  The
        # side-64, 28-line cell is the reference checked after the loop.
        if size == "full":
            self.classes = [
                ("p64_capped", 64, ("iht", "dore"), (20, 24), 40, 1),
                ("p64_dore", 64, ("dore",), (32, 36, 40), None, 2),
                ("p128_capped", 128, ("iht", "dore"), (30, 40), 20, 1),
                ("p128_dore", 128, ("dore",), (50, 60, 70), None, 2),
                ("p64_iht", 64, ("iht",), (32, 36, 40), None, 2),
                ("p128_iht", 128, ("iht",), (60, 65, 70), None, 2),
            ]
        else:
            self.classes = [
                ("p64_dore", 64, ("dore",), (40,), None, 1),
                ("p64_capped", 64, ("iht", "dore"), (20,), 3, 1),
            ]
        cells = {(side, lines) for _, side, _, band, _, _ in self.classes for lines in band}
        self.cells = sorted(cells | {REFERENCE_CELL})

    def generate(self, seed: int, workdir: Path) -> None:
        """Phantom inputs are a function of the cell; nothing to write."""

    def working_set(self) -> dict:
        sides = sorted({side for side, _ in self.cells})
        return {f"vector_bytes_side{side}": 8 * side * side for side in sides}

    def setup(self, tracer) -> dict:
        problems = {}
        for side, lines in self.cells:
            problem = _call(tracer, "experiments.phantom_problem",
                            experiments.phantom_problem, side, lines)
            op = problem.operator
            reference = op.basis.synthesize(problem.truth)
            if tracer is not None:
                op = timed_phantom_operator(op, tracer)
            problems[side, lines] = (op, problem.y, problem.truth_support_size,
                                     reference, HaarBasis(side))
        return problems

    def rounds(self, rng):
        table = {label: (side, cap) for label, side, _, _, cap, _ in self.classes}
        classes = [(label, [(lines, method) for lines in band for method in methods], per)
                   for label, _, methods, band, _, per in self.classes]

        def make_spec(label, choice):
            side, cap = table[label]
            lines, method = choice
            return TaskSpec(f"{side}/{lines}/{method}/{cap}", label, method)

        return _rounds(rng, classes, make_spec)

    @staticmethod
    def _parse(key):
        side, lines, method, cap = key.split("/")
        return int(side), int(lines), method, None if cap == "None" else int(cap)

    def _solve(self, problems, side, lines, method, cap, tracer):
        op, y, r, _, _ = problems[side, lines]
        stop = recon.StoppingRule(max_iter=cap) if cap else recon.StoppingRule()
        if method == "iht":
            return _call(tracer, "recon.iht_run", recon.iht_run, op, y, r, stop=stop)
        return _call(tracer, "dore.dore_run", dore.dore_run, op, y, r, stop=stop)

    def execute(self, spec: TaskSpec, problems, tracer):
        side, lines, method, cap = self._parse(spec.key)
        return self._solve(problems, side, lines, method, cap, tracer)

    def check(self, spec: TaskSpec, problems, result) -> Outcome:
        side, lines, _, cap = self._parse(spec.key)
        _, _, _, reference, basis = problems[side, lines]
        violations = _monotone_violations(result.trace)
        recovered = None
        if cap is None and lines >= PAST_TRANSITION_LINES[side]:
            image = basis.synthesize(result.estimate.s)
            recovered = experiments.psnr(reference, image) > PSNR_TARGET_DB
        return Outcome(violations, recovered, _solver_digest(result), _solver_info(result))

    def verify(self, problems, tracer) -> list[tuple[str, list[str]]]:
        """The side-64, 28-line reference cell reproduces its iteration counts."""
        checks = []
        for method, expected in REFERENCE_ITERATIONS.items():
            result = self._solve(problems, *REFERENCE_CELL, method, None, tracer)
            bad = [] if result.iterations == expected else [
                f"{method} took {result.iterations} iterations, reference {expected}"]
            checks.append((f"reference_{method}_iterations", bad))
        return checks


# --------------------------------------------------------------------- dense

class DenseWorkload:
    """Gaussian dense operators (real Cholesky gram solves) and ADORE."""

    name = "dense"

    def __init__(self, size: str):
        # instance -> (N, m, true support size, noise sigma, signals)
        if size == "full":
            # Many signals per instance, so that a class's figures average
            # over signals instead of a seed's few.
            self.instances = {"d200": (200, 500, 10, 0.0, 32),
                              "d800": (800, 2000, 40, 0.0, 32)}
            noisy, noisy_matrices = (100, 256, 6, 0.01, 8), 8
        else:
            self.instances = {"d200": (40, 100, 3, 0.0, 2),
                              "d800": (80, 200, 6, 0.0, 2)}
            noisy, noisy_matrices = (30, 64, 2, 0.01, 2), 1
        noisy_names = tuple(f"noisy{i}" for i in range(noisy_matrices))
        self.instances.update(dict.fromkeys(noisy_names, noisy))
        self.instances["golden"] = (len(GOLDEN_ROWS), GOLDEN_N, 1, 0.0, 8)
        # (class, instances, method, tasks per round).  Thirty tasks a round:
        # eleven cheap ones, eight noisy selections, eleven expensive ones, so
        # the median lands mid-way through noisy ADORE and the p90 mid-way
        # through ECME on 800x2000.  Noisy selection misses the true r on
        # about half the signals, and how often depends on the matrix as
        # well as the signal, so it draws from eight matrices and takes
        # eight tasks in thirty: enough weight that losing it moves
        # recovered_frac past its bound, enough draws to keep it steady.
        self.classes = [("adore_golden", ("golden",), "adore", 3),
                        ("d200_dore", ("d200",), "dore", 4),
                        ("d200_ecme", ("d200",), "ecme", 4),
                        ("adore_noisy", noisy_names, "adore", 8),
                        ("adore_d200", ("d200",), "adore", 2),
                        ("d800_dore", ("d800",), "dore", 3),
                        ("d800_ecme", ("d800",), "ecme", 6)]
        self.files: dict[str, tuple[Path, list[Path]]] = {}
        self.truths: dict[str, list[np.ndarray]] = {}

    def generate(self, seed: int, workdir: Path) -> None:
        """Write every H and y as CSV; keep the planted signals in memory."""
        rng = np.random.default_rng([seed, 11])
        for name, (n, m, r, noise, signals) in self.instances.items():
            if name == "golden":
                matrix = partial_dct_matrix(GOLDEN_N, GOLDEN_ROWS)
            else:
                matrix = rng.standard_normal((n, m))
            truths, ys = [], []
            for k in range(signals):
                truth = np.zeros(m)
                if name == "golden":
                    # criterion 11: one spike of height in [1, 2)
                    truth[rng.integers(0, m)] = 1.0 + rng.random()
                else:
                    support = rng.choice(m, size=r, replace=False)
                    values = rng.standard_normal(r)
                    if noise:
                        values = np.sign(values) * (1.0 + rng.random(r))
                    truth[support] = values
                y = matrix @ truth
                if noise:
                    y = y + noise * rng.standard_normal(n)
                path = workdir / f"{name}_y{k}.csv"
                dataio.save_vector_csv(path, y)
                truths.append(truth)
                ys.append(path)
            matrix_path = workdir / f"{name}_H.csv"
            dataio.save_matrix_csv(matrix_path, matrix)
            self.files[name] = (matrix_path, ys)
            self.truths[name] = truths

    def working_set(self) -> dict:
        return {f"matrix_bytes_{name}": 8 * n * m
                for name, (n, m, _, _, _) in self.instances.items()}

    def setup(self, tracer) -> dict:
        problems = {}
        for name, (matrix_path, y_paths) in self.files.items():
            matrix = _call(tracer, "dataio.load", dataio.load_matrix_csv, matrix_path)
            ys = [_call(tracer, "dataio.load", dataio.load_vector_csv, path)
                  for path in y_paths]
            op = _call(tracer, "operators.construct", DenseOperator, matrix)
            if tracer is not None:
                op = TimedOperator(op, "operators", tracer)
            problems[name] = (op, ys)
        return problems

    def rounds(self, rng):
        methods = {label: method for label, _, method, _ in self.classes}
        classes = [(label, [(instance, k) for instance in instances
                            for k in range(self.instances[instance][4])], per_round)
                   for label, instances, _, per_round in self.classes]

        def make_spec(label, choice):
            instance, k = choice
            return TaskSpec(f"{instance}/{k}/{methods[label]}", label, methods[label])

        return _rounds(rng, classes, make_spec)

    def execute(self, spec: TaskSpec, problems, tracer):
        instance, k, method = spec.key.split("/")
        op, ys = problems[instance]
        y, r = ys[int(k)], self.instances[instance][2]
        if method == "ecme":
            return _call(tracer, "recon.ecme_run", recon.ecme_run, op, y, r)
        if method == "dore":
            return _call(tracer, "dore.dore_run", dore.dore_run, op, y, r)
        if instance == "golden":
            stop = recon.StoppingRule(tol=1e-20, max_iter=3000)
            return _call(tracer, "model_selection.adore_run", model_selection.adore_run,
                         op, y, resolution=1, stop=stop)
        return _call(tracer, "model_selection.adore_run", model_selection.adore_run, op, y)

    def check(self, spec: TaskSpec, problems, result) -> Outcome:
        instance, k, method = spec.key.split("/")
        truth = self.truths[instance][int(k)]
        true_support = np.flatnonzero(truth)
        if method != "adore":
            violations = _monotone_violations(result.trace)
            recovered = np.array_equal(recon.support(result.estimate.s), true_support)
            return Outcome(violations, recovered, _solver_digest(result),
                           _solver_info(result))
        final = result.final
        violations = _monotone_violations(final.trace)
        if instance == "golden":
            violations += _criterion_11_violations(result, truth, problems[instance][0])
        info = {"r_selected": result.r_selected, "r_true": true_support.size,
                "dore_runs": result.dore_runs}
        digest = _digest(result.r_selected, result.dore_runs,
                         [(e.r, e.sigma2_est) for e in result.evaluations],
                         final.estimate.s)
        return Outcome(violations, result.r_selected == true_support.size, digest, info)

    def verify(self, problems, tracer):
        return []


def _criterion_11_violations(result, truth, op) -> list[str]:
    bad = []
    if result.r_selected != 1:
        bad.append(f"golden adore selected r={result.r_selected}, expected 1")
    error = float(np.linalg.norm(result.final.estimate.s - truth))
    if error > 1e-8:
        bad.append(f"golden adore estimate off by {error:.3e}")
    expected_runs = 1.4 * (math.log2(op.n_rows) - 1)  # criterion 11's solver budget
    if not expected_runs - 3 <= result.dore_runs <= expected_runs + 3:
        bad.append(f"golden adore spent {result.dore_runs} solver runs")
    return bad


# ------------------------------------------------------------------- certify

class CertifyWorkload:
    """Exact certificates, ``certify(H, r_max=2)``, on three matrix families."""

    name = "certify"
    R_MAX = 2
    SAMPLES = 200

    def __init__(self, size: str):
        # family -> (N, m, instances); DCT families take N of m DCT-II rows.
        # A round certifies every instance once: twenty tasks, most of them
        # the cheaper sizes, so 100 tasks take about half a minute.  The
        # median lands among the 16-of-24 DCT tasks and the p90 in the middle
        # of the 9x13 Gaussian ones, five tasks clear of the golden matrix.
        if size == "full":
            self.families = {"gauss8x12": (8, 12, 8), "gauss9x13": (9, 13, 2),
                             "dct16of24": (16, 24, 8), "dct18of26": (18, 26, 1)}
        else:
            self.families = {"gauss5x8": (5, 8, 1), "gauss6x9": (6, 9, 1),
                             "dct8of12": (8, 12, 1), "dct9of13": (9, 13, 1)}
        self.families["golden"] = (len(GOLDEN_ROWS), GOLDEN_N, 1)
        self.files: dict[str, Path] = {}
        self.exact: dict[str, tuple[float, float]] = {}

    def generate(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 13])
        for family, (n, m, count) in self.families.items():
            for k in range(count):
                if family == "golden":
                    matrix = partial_dct_matrix(GOLDEN_N, GOLDEN_ROWS)
                elif family.startswith("gauss"):
                    matrix = rng.standard_normal((n, m))
                else:
                    rows = np.sort(rng.choice(m, size=n, replace=False))
                    matrix = partial_dct_matrix(m, rows)
                key = f"{family}/{k}"
                self.files[key] = workdir / f"{family}_{k}.csv"
                dataio.save_matrix_csv(self.files[key], matrix)

    def working_set(self) -> dict:
        return {f"matrix_bytes_{family}": 8 * n * m
                for family, (n, m, _) in self.families.items()}

    def setup(self, tracer) -> dict:
        return {key: _call(tracer, "dataio.load", dataio.load_matrix_csv, path)
                for key, path in self.files.items()}

    def rounds(self, rng):
        keys = sorted(self.files)
        while True:
            yield [TaskSpec(keys[i], keys[i].split("/")[0], "certify")
                   for i in rng.permutation(len(keys))]

    def execute(self, spec: TaskSpec, problems, tracer):
        return _call(tracer, "matrix_analysis.certify", matrix_analysis.certify,
                     problems[spec.key], self.R_MAX)

    def check(self, spec: TaskSpec, problems, cert) -> Outcome:
        h = problems[spec.key]
        n = h.shape[0]
        weighted = np.linalg.solve(h @ h.T, h)
        gram = h.T @ h
        violations = []
        for entry in cert.per_r:
            idx = list(entry.worst_support)
            rho = float(np.linalg.eigvalsh(h[:, idx].T @ weighted[:, idx])[0])
            rho = min(max(rho, 0.0), 1.0)
            if abs(rho - entry.rho_min) > EIG_ATOL:
                violations.append(f"r={entry.r}: rho_min {entry.rho_min!r} but the "
                                  f"worst support gives {rho!r}")
            eigs = np.linalg.eigvalsh(gram[np.ix_(entry.ric_support, entry.ric_support)])
            gamma = max(abs(1.0 - eigs[0]), abs(eigs[-1] - 1.0))
            if abs(gamma - entry.gamma) > EIG_ATOL:
                violations.append(f"r={entry.r}: gamma {entry.gamma!r} but its "
                                  f"support gives {gamma!r}")
        family = spec.cls
        if family.startswith("gauss") and cert.spark != n + 1:
            violations.append(f"Gaussian {n}x{h.shape[1]} has spark {cert.spark}, "
                              f"expected {n + 1}")
        level2 = cert.per_r[1]
        if family == "golden" and (round(level2.rho_min, 3), round(level2.gamma, 3)) \
                != (0.503, 0.497):
            violations.append(f"golden min 2-SSQ {level2.rho_min!r} and 2-RIC "
                              f"{level2.gamma!r}, expected 0.503 and 0.497")
        self.exact[spec.key] = (level2.rho_min, level2.gamma)
        digest = _digest(sorted(cert.to_json_dict().items()))
        return Outcome(violations, not violations, digest)

    def verify(self, problems, tracer):
        """Sampled measures bound the exact ones from the right side."""
        checks = []
        for key, (rho, gamma) in sorted(self.exact.items()):
            h = problems[key]
            sampled_rho, _ = matrix_analysis.min_ssq_sampled(h, 2, n_samples=self.SAMPLES)
            sampled_gamma, _ = matrix_analysis.ric_sampled(h, 2, n_samples=self.SAMPLES)
            bad = []
            if sampled_rho < rho - EIG_ATOL:
                bad.append(f"sampled min 2-SSQ {sampled_rho!r} below exact {rho!r}")
            if sampled_gamma > gamma + EIG_ATOL:
                bad.append(f"sampled 2-RIC {sampled_gamma!r} above exact {gamma!r}")
            checks.append((f"sampled_bounds_{key}", bad))
        return checks


WORKLOADS = {w.name: w for w in (PhantomWorkload, DenseWorkload, CertifyWorkload)}
