"""Sparsity-level selection: the USS score, golden-section search, and the
automatic (ADORE) driver.

The unconstrained sparsity selection score trades representation accuracy
against model size:

    USS(r) = -1/2 r ln(N/m) - 1/2 (N - r - 2) ln( sigma2(r) / b )

with b = y^T (H H^T)^{-1} y / N the variance of the empty model, so
USS(0) = 0 and the score is invariant to rescaling y.  When the fitted
variance hits zero the score diverges to +infinity with growth rate
(N - r - 2) / 2; scores are therefore ordered by (value, N - r - 2), which
among infinite or equal scores prefers the smallest r.

``exact_ml_bruteforce`` enumerates supports to produce the exact
maximum-likelihood variance for tiny instances; it doubles as the oracle
for validating the selection rule.  ``adore_run`` replaces the intractable
exact variance with the accelerated solver's estimate and drives an
integer golden-section search over r in [0, ceil(N/2)].  The search owns
its edge cases (resolution clamp, r_max = 1), so every N takes one path,
and one table of probes, r -> (score, reconstruction), builds the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dore import dore_run
from .errors import InputError, SizeGuardError, _count
from .matrix_analysis import _as_matrix
from .operators import DenseOperator, SensingOperator
from .recon import (
    ParamEstimate,
    ReconstructionResult,
    StoppingRule,
    _as_measurements,
)

BRUTE_FORCE_GUARD = 1_000_000
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
ZERO_VARIANCE_REL = 1e-12


@dataclass(frozen=True)
class UssEvaluation:
    """Score of one candidate sparsity level.

    ``uss_value`` may be +/-inf but never NaN.  ``sort_key`` orders by the
    value, then by ``growth_rate`` = N - r - 2 (the divergence rate), so
    among perfect fits, and among equal scores, the smallest r wins; it is
    a total order usable directly as a comparison key.
    """

    r: int
    sigma2_est: float
    uss_value: float
    growth_rate: int

    @property
    def sort_key(self) -> tuple[float, int]:
        return (self.uss_value, self.growth_rate)


class UssScorer:
    """USS evaluator with the empty-model variance computed once."""

    def __init__(self, op: SensingOperator, y):
        y = _as_measurements(op, y)
        baseline = float(y @ op.gram_solve(y)) / op.n_rows
        if baseline <= 0.0:
            raise InputError("USS needs a nonzero measurement vector")
        self.n_rows = op.n_rows
        self.n_cols = op.n_cols
        self.baseline = baseline
        self.zero_cutoff = ZERO_VARIANCE_REL * baseline

    def evaluate(self, r: int, sigma2_est: float) -> UssEvaluation:
        """Score level r, an integer in [0, m], at variance ``sigma2_est``."""
        if not sigma2_est >= 0:
            raise InputError(f"sigma2_est must be nonnegative, got {sigma2_est}")
        r = _count(r, "sparsity level r", 0, self.n_cols)
        growth = self.n_rows - r - 2
        if sigma2_est <= self.zero_cutoff:
            value = (-0.5 * r * math.log(self.n_rows / self.n_cols) if growth == 0
                     else math.copysign(math.inf, growth))
        else:
            value = (
                -0.5 * r * math.log(self.n_rows / self.n_cols)
                - 0.5 * growth * math.log(sigma2_est / self.baseline)
            )
        return UssEvaluation(r=r, sigma2_est=float(sigma2_est),
                             uss_value=value, growth_rate=growth)


def exact_ml_bruteforce(op, y, r: int, guard: int = BRUTE_FORCE_GUARD) -> ParamEstimate:
    """Exact maximum-likelihood fit at level r by support enumeration.

    Solves the gram-weighted least squares on every size-r support and
    returns the parameter pair with the globally smallest variance.
    Intended for tiny instances; refuses when C(m, r) exceeds the guard.
    """
    matrix = _as_matrix(op)
    dense = op if isinstance(op, DenseOperator) else DenseOperator(matrix)
    n, m = matrix.shape
    y = _as_measurements(dense, y)
    r = _count(r, "sparsity level r", 0, m)
    if math.comb(m, r) > _count(guard, "guard", 1):
        raise SizeGuardError(
            f"C({m},{r})={math.comb(m, r)} supports exceed the brute-force "
            f"guard of {guard}"
        )
    weighted_y = dense.gram_solve(y)
    base = float(y @ weighted_y)
    if r == 0:
        return ParamEstimate(np.zeros(m), base / n, 0)
    weighted_h = dense.gram_solve(matrix)
    best_error = math.inf
    best_support: tuple[int, ...] = ()
    best_coeffs = None
    for support_set in combinations(range(m), r):
        idx = list(support_set)
        normal = matrix[:, idx].T @ weighted_h[:, idx]
        rhs = matrix[:, idx].T @ weighted_y
        try:
            coeffs = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            coeffs = np.linalg.lstsq(normal, rhs, rcond=None)[0]
        error = base - float(rhs @ coeffs)
        if error < best_error:
            best_error = error
            best_support = support_set
            best_coeffs = coeffs
    s = np.zeros(m)
    s[list(best_support)] = best_coeffs
    return ParamEstimate(s, max(best_error, 0.0) / n, r)


def golden_section_r_search(evaluator, r_max: int, resolution: int = 1) -> int:
    """Integer golden-section maximization of ``evaluator`` over [0, r_max].

    Interior probes sit at b - floor(0.618 (b - a)) and a + floor(0.618
    (b - a)); the surviving probe is reused each shrink so one new
    evaluation is paid per step, and every evaluation is cached so no r is
    scored twice.  The bracket stops shrinking once it is shorter than
    ``resolution``; brackets of width <= 2 are swept exhaustively.  Returns
    the probed r with the largest value (ties to the smallest r).  Exact
    for unimodal evaluators at resolution 1.

    Any ``r_max >= 1`` and ``resolution >= 1`` is accepted: a resolution of
    r_max or more acts as max(r_max - 1, 1), so the bracket is probed at
    least once, and at r_max = 1 the sweep scores 0, then 1.
    """
    r_max = _count(r_max, "r_max", 1)
    resolution = min(_count(resolution, "resolution", 1), max(r_max - 1, 1))
    cache: dict[int, object] = {}

    def scored(r: int):
        if r not in cache:
            cache[r] = evaluator(r)
        return cache[r]

    a, b = 0, r_max
    gap = math.floor(GOLDEN * (b - a))
    low, high = b - gap, a + gap
    if low > high:
        low, high = high, low
    if low == high:
        high = min(low + 1, b)
    while b - a >= max(resolution, 3):
        if scored(low) < scored(high):
            a = low
            low = high
            high = a + math.floor(GOLDEN * (b - a))
            if high <= low:
                high = min(low + 1, b)
            if high == low:
                break
        else:
            b = high
            high = low
            low = b - math.floor(GOLDEN * (b - a))
            if low >= high:
                low = max(high - 1, a)
            if low == high:
                break
    if b - a <= 2:
        for r in range(a, b + 1):
            scored(r)
    return max(cache, key=lambda r: (cache[r], -r))


@dataclass
class AdoreResult:
    """Outcome of the automatic run: selected level, every probed score,
    the reconstruction at the selected level, and how many full solver runs
    the search spent."""

    r_selected: int
    evaluations: list[UssEvaluation]
    final: ReconstructionResult
    dore_runs: int

    def to_json_dict(self) -> dict:
        return {
            "r_selected": self.r_selected,
            "dore_runs": self.dore_runs,
            "probed": [
                {"r": e.r, "sigma2": e.sigma2_est, "uss": e.uss_value}
                for e in self.evaluations
            ],
            "final": self.final.to_json_dict(),
        }


def adore_run(op: SensingOperator, y, resolution: int = 1,
              stop: StoppingRule | None = None) -> AdoreResult:
    """Automatic reconstruction with the sparsity level chosen by USS.

    Golden-section search over r in [0, ceil(N/2)] scores each probed level
    with the accelerated solver's variance estimate; r = 0 is the empty
    model (zero signal, the baseline variance), scored at no solver cost.
    """
    y = np.asarray(y, dtype=float)
    scorer = UssScorer(op, y)  # validates y != 0
    empty = ReconstructionResult(
        estimate=ParamEstimate(np.zeros(op.n_cols), scorer.baseline, 0),
        trace=[op.n_rows * scorer.baseline],
        iterations=0,
        converged=True,
        elapsed_seconds=0.0,
    )
    probes: dict[int, tuple[UssEvaluation, ReconstructionResult]] = {}

    def evaluator(r: int):
        result = empty if r == 0 else dore_run(op, y, r, stop=stop)
        evaluation = scorer.evaluate(r, result.estimate.sigma2)
        probes[r] = (evaluation, result)
        return evaluation.sort_key

    r_selected = golden_section_r_search(
        evaluator, math.ceil(op.n_rows / 2), resolution
    )
    return AdoreResult(
        r_selected=r_selected,
        evaluations=[probes[r][0] for r in sorted(probes)],
        final=probes[r_selected][1],
        dore_runs=sum(r > 0 for r in probes),
    )
