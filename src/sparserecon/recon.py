"""Core hard-thresholding reconstruction and the one iteration driver.

The estimator treats the measurements y = H z as coming from a Gaussian
vector z centered on an unknown sparse signal s with unknown variance
sigma^2.  For a fixed sparsity level r, the maximum-likelihood fit is
approached by alternating

    z      = s + H^T (H H^T)^{-1} (y - H s)     (signal refinement)
    s_next = T_r(z)                             (keep r largest magnitudes)
    sigma2 = (y - H s)^T (H H^T)^{-1} (y - H s) / N

which monotonically decreases the weighted squared error

    E(s) = N * sigma2_hat(s) = (y - H s)^T (H H^T)^{-1} (y - H s).

``ecme_step`` is that update written out directly; it is the reference the
tests compare against.  The solvers run it from cached images instead:
the driver behind ``ecme_run``, ``iht_run`` and ``dore_run`` validates the
input, computes g_y = (H H^T)^{-1} y once, and carries each iterate as an
``Iterate``: the signal s, sigma2 and the images H s and (H H^T)^{-1} H s.
It owns the objective trace, the stopping test and the result, whose one
``ParamEstimate`` it builds after the loop.  Each plain step refines by
z = s + H^T (g_y - g_s) and images the thresholded signal, at 1 apply,
1 gram solve and 1 adjoint per iteration.  A method supplies only its
step: ECME and IHT take the plain step throughout, DORE takes two plain
steps and then its overrelaxed step (``dore._dore_step``).

With orthonormal rows (H H^T = I) the refinement step is exactly one
iterative-hard-thresholding (IHT) step; ``iht_run`` is that special case
and shares the identical code path, so its iterates match ``ecme_run``
bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError, _count
from .operators import SensingOperator, _finite_vector

DEFAULT_TOL = 1e-14
DEFAULT_MAX_ITER = 50_000


def hard_threshold(x, r: int) -> np.ndarray:
    """Keep the r largest-magnitude entries of x, zero out the rest.

    The r-th largest magnitude is found by one O(m) partition selection.
    Every entry strictly above it is kept; ties at it go to the lowest
    indices, so the output is deterministic across platforms.  NaN ranks
    below every number and is kept only when fewer than r entries are not
    NaN.  Kept entries are copied verbatim; the rest are literal zeros.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError("hard_threshold expects a 1-D vector")
    r = _count(r, "sparsity level r", 0, x.size)
    if r == 0:
        return np.zeros_like(x)
    neg = np.abs(x)
    np.negative(neg, out=neg)
    # t = the r-th smallest of -|x|.  A partition, like a sort, places NaN
    # after every number.  The method form on a copy skips np.partition's
    # dispatch, about 1 us of a 5-8 us call on the short vectors of ADORE.
    part = neg.copy()
    part.partition(r - 1)
    t = part[r - 1]
    if t != t:
        # Fewer than r numbers: keep all of them, then the lowest-index NaNs.
        keep = neg == neg
        nan = np.flatnonzero(~keep)
        keep[nan[: r - (x.size - nan.size)]] = True
    else:
        # Keep every magnitude >= |t|, then drop the highest-index ties at t.
        keep = neg <= t
        extra = np.count_nonzero(keep) - r
        if extra:
            keep[np.flatnonzero(neg == t)[-extra:]] = False
    out = np.zeros(x.size)
    np.copyto(out, x, where=keep)
    return out


def support(x) -> np.ndarray:
    """Indices of the nonzero entries (exact-zero test, 0-based, sorted)."""
    return np.flatnonzero(np.asarray(x))


@dataclass(frozen=True)
class ParamEstimate:
    """Signal/variance parameter pair tagged with its sparsity level.

    Invariants: r is a nonnegative integer, the signal has at most r
    nonzeros and sigma2 >= 0 (NaN is rejected).
    """

    s: np.ndarray
    sigma2: float
    r: int

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", s)
        if not self.sigma2 >= 0:
            raise InputError(f"sigma2 must be nonnegative, got {self.sigma2}")
        object.__setattr__(self, "r", _count(self.r, "sparsity level r"))
        if np.count_nonzero(s) > self.r:
            raise InputError(
                f"signal has {np.count_nonzero(s)} nonzeros, above sparsity level {self.r}"
            )


@dataclass(frozen=True)
class StoppingRule:
    """Stop when ||s_next - s||^2 / m < tol, or after max_iter updates.

    tol must be positive and finite, max_iter an integer of at least 1.
    """

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise InputError(f"tol must be positive and finite, got {self.tol}")
        _count(self.max_iter, "max_iter", 1)


@dataclass
class ReconstructionResult:
    """Final estimate plus the per-iteration objective trace.

    ``trace`` holds E(s) = N * sigma2 for the initial point and after each
    update; it is nonincreasing.  ``branches`` is populated only by the
    overrelaxed solver and records which candidate each decision step took.
    """

    estimate: ParamEstimate
    trace: list[float]
    iterations: int
    converged: bool
    elapsed_seconds: float
    branches: list[str] | None = field(default=None)

    def to_json_dict(self) -> dict:
        out = {
            "iterations": self.iterations,
            "converged": self.converged,
            "final_sigma2": float(self.estimate.sigma2),
            "trace": [float(v) for v in self.trace],
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.branches is not None:
            out["branches"] = list(self.branches)
        return out


def sigma2_hat(op: SensingOperator, y, s) -> float:
    """Closed-form variance estimate (y - Hs)^T (H H^T)^{-1} (y - Hs) / N.

    Zero exactly when y = H s; tiny negative rounding is clamped to 0.
    """
    y = _as_measurements(op, y)
    residual = y - op.apply(s)
    value = float(residual @ op.gram_solve(residual)) / op.n_rows
    return max(value, 0.0)


def weighted_error(op: SensingOperator, y, s) -> float:
    """Weighted squared error E(s) = N * sigma2_hat(s)."""
    return op.n_rows * sigma2_hat(op, y, s)


def ecme_step(op: SensingOperator, y, theta: ParamEstimate) -> ParamEstimate:
    """One refinement: gram-weighted signal update, threshold, variance update."""
    s_next = hard_threshold(empirical_bayes_estimate(op, y, theta), theta.r)
    return ParamEstimate(s_next, sigma2_hat(op, y, s_next), theta.r)


class Iterate(NamedTuple):
    """One iterate of the loop: the signal, its variance estimate, and its
    images h = H s and g = (H H^T)^{-1} H s."""

    s: np.ndarray
    sigma2: float
    h: np.ndarray
    g: np.ndarray


def _image(op: SensingOperator, y, g_y, s) -> Iterate:
    """s as an :class:`Iterate`: 1 apply and 1 gram solve, then sigma2 =
    (y - H s)^T (g_y - g) / N from the images, clamped at 0."""
    h = op.apply(s)
    g = op.gram_solve(h)
    return Iterate(s, max(float((y - h) @ (g_y - g)) / op.n_rows, 0.0), h, g)


def _plain_step(op: SensingOperator, y, g_y, curr: Iterate, r: int) -> Iterate:
    """The refinement of :func:`ecme_step` from the cached images.

    z = s + H^T (g_y - g_s) needs one adjoint; imaging the thresholded
    signal costs one apply and one gram solve.  On orthonormal rows this
    is bit-identical to ``ecme_step``; otherwise it rounds differently.
    """
    z = curr.s + op.apply_adjoint(g_y - curr.g)
    return _image(op, y, g_y, hard_threshold(z, r))


def _as_measurements(op: SensingOperator, y) -> np.ndarray:
    """y as a float vector of the operator's length with finite entries."""
    return _finite_vector(y, op.n_rows, "y")


def _initial_signal(op: SensingOperator, r: int, s0) -> np.ndarray:
    if s0 is None:
        return np.zeros(op.n_cols)
    s0 = _finite_vector(s0, op.n_cols, "s0")
    if np.count_nonzero(s0) > r:
        return hard_threshold(s0, r)
    return s0.copy()


def _drive(op: SensingOperator, y, r: int, s0, stop: StoppingRule | None,
           step=None) -> ReconstructionResult:
    """The iteration loop behind every solver.

    Runs :func:`_plain_step` until the stopping rule fires.  When ``step``
    is given (``dore._dore_step``: a function of (op, y, g_y, prev, curr, r)
    returning the next :class:`Iterate` and the branch it took), the first
    two updates stay plain steps, to seed both iterates, and ``step`` takes
    every later one; its branches are recorded in ``branches``.
    """
    stop = stop or StoppingRule()
    y = _as_measurements(op, y)
    r = _count(r, "sparsity level r", 0, op.n_cols)
    start = time.perf_counter()
    s = _initial_signal(op, r, s0)
    g_y = op.gram_solve(y)
    prev = curr = _image(op, y, g_y, s)
    trace = [op.n_rows * curr.sigma2]
    branches = None if step is None else []
    iterations = 0
    converged = False
    while not converged and iterations < stop.max_iter:
        if step is None or iterations < 2:
            nxt = _plain_step(op, y, g_y, curr, r)
        else:
            nxt, branch = step(op, y, g_y, prev, curr, r)
            branches.append(branch)
        prev, curr = curr, nxt
        iterations += 1
        trace.append(op.n_rows * curr.sigma2)
        step_ssq = float(np.sum((curr.s - prev.s) ** 2))
        converged = step_ssq / op.n_cols < stop.tol
    return ReconstructionResult(
        estimate=ParamEstimate(curr.s, curr.sigma2, r),
        trace=trace,
        iterations=iterations,
        converged=converged,
        elapsed_seconds=time.perf_counter() - start,
        branches=branches,
    )


def ecme_run(op: SensingOperator, y, r: int, s0=None,
             stop: StoppingRule | None = None) -> ReconstructionResult:
    """Iterate the refinement step from s0 (default 0) until the stopping
    rule fires.

    An initial estimate with more than r nonzeros is thresholded first.
    Non-finite y or s0 raise :class:`InputError`.
    """
    return _drive(op, y, r, s0, stop)


def iht_run(op: SensingOperator, y, r: int, s0=None,
            stop: StoppingRule | None = None) -> ReconstructionResult:
    """Iterative hard thresholding; requires orthonormal rows.

    With H H^T = I the gram solve is the identity map, so this is the same
    iteration as :func:`ecme_run` minus the solve.  The shared code path
    makes the two runs bit-for-bit identical on such operators.
    """
    if not op.rows_orthonormal:
        raise InputError("IHT path requires orthonormal rows")
    return _drive(op, y, r, s0, stop)


def minimum_norm_estimate(op: SensingOperator, y) -> np.ndarray:
    """Minimum-norm solution H^T (H H^T)^{-1} y of H s = y (ignores sparsity)."""
    y = _as_measurements(op, y)
    return op.apply_adjoint(op.gram_solve(y))


def empirical_bayes_estimate(op: SensingOperator, y, theta: ParamEstimate) -> np.ndarray:
    """Posterior-mean refinement s + H^T (H H^T)^{-1} (y - H s).

    Measurement-consistent (H applied to the output reproduces y) but not
    r-sparse in general; useful for approximately sparse signals.
    """
    y = _as_measurements(op, y)
    return theta.s + op.apply_adjoint(op.gram_solve(y - op.apply(theta.s)))
