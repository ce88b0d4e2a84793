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
``ParamEstimate`` it builds after the loop.  A method supplies only its
step: ECME and IHT take the plain step throughout, DORE takes two plain
steps and then its overrelaxed step (``dore._dore_step``).

Each plain step refines s to z = s + H^T (g_y - g_s) and images the
thresholded signal.  What that costs depends on the rows of H:

* Orthonormal rows, or an H of under 100,000 entries: 1 apply, 1 gram
  solve (the identity on orthonormal rows) and 1 adjoint per iteration,
  on vectors.
* Other rows: the run keeps a cache of solved columns, ``_Images``.  The
  first time an iterate uses columns J the run has not seen, it stores
  H_J = H E_J, P_J = (H H^T)^{-1} H_J and Q_J = H^T P_J, at one block
  apply, one block gram solve and one block adjoint for the whole batch;
  with q_y = H^T g_y, computed once, z = s + q_y - Q_S s_S, H s = H_S s_S
  and g_s = P_S s_S.  A step on cached columns makes no operator call.
  The cache holds at most N m numbers, as many as H itself; a run that
  would need more makes the vector calls from then on.  It is dropped
  when the run returns.

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
from .operators import SensingOperator, _as_vector, _finite_vector

# The solvers cache solved columns only when H has at least this many
# entries.  Below it the batches cost about what they save, and more on
# ADORE, whose every probe fills a cache of its own: on one BLAS thread,
# per signal over 8, uncached against cached, noisy ADORE took 5.35
# against 5.69 ms at 100 x 256 and 9.43 against 11.93 ms at 141 x 362,
# and 14.97 against 14.13 ms at 200 x 500, where ECME took 4.55 against
# 2.72 ms.
_CACHE_MIN_ENTRIES = 100_000

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


def support(s) -> np.ndarray:
    """Indices of the nonzero entries of a 1-D signal (exact-zero test,
    0-based, sorted)."""
    s = np.asarray(s)
    if s.ndim != 1:
        raise InputError(f"s must be a 1-D vector, got shape {s.shape}")
    return np.flatnonzero(s)


@dataclass(frozen=True)
class ParamEstimate:
    """Signal/variance parameter pair tagged with its sparsity level.

    Invariants: r is a nonnegative integer, the signal is a 1-D vector with
    at most r nonzeros and sigma2 >= 0 (NaN is rejected).  The signal is a
    copy, so writes to the caller's array cannot break them.
    """

    s: np.ndarray
    sigma2: float
    r: int

    def __post_init__(self):
        s = np.array(self.s, dtype=float)
        if s.ndim != 1:
            raise InputError(f"s must be a 1-D vector, got shape {s.shape}")
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
    residual = y - op.apply(_as_vector(s, op.n_cols, "s"))
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


class _Images:
    """The images of one solver call's iterates, and the cache of solved
    columns they come from on a large H whose rows are not orthonormal.

    ``y`` is the checked measurement vector and ``g_y`` = (H H^T)^{-1} y.
    The cache keeps, for each column j an iterate has used, row
    ``_slot[j]`` of ``_hp`` (h_j = H e_j, then p_j = (H H^T)^{-1} h_j) and
    of ``_q`` (q_j = H^T p_j); its first ``_size`` rows are filled, and
    both buffers double when a batch does not fit.  It never holds more
    numbers than H itself: a batch that would take it past that ends
    caching for the run, whose later steps make the vector calls.  It
    belongs to this object alone; the operator is never written to.
    """

    def __init__(self, op: SensingOperator, y: np.ndarray):
        self.op, self.y = op, y
        self.g_y = op.gram_solve(y)
        n, m = op.n_rows, op.n_cols
        self.cached = not op.rows_orthonormal and n * m >= _CACHE_MIN_ENTRIES
        if self.cached:
            self.q_y = op.apply_adjoint(self.g_y)
            self._limit = n * m // (2 * n + m)
            self._slot = np.full(m, -1)
            self._size = 0
            self._hp = np.empty((0, 2 * n))
            self._q = np.empty((0, m))

    def _columns(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The cache rows and the values of the nonzeros of s; columns not
        yet cached are solved first, in one block call of each method.
        None, and no cache from then on, when they would not fit."""
        idx = s.nonzero()[0]
        rows = self._slot[idx]
        if rows.size and rows.min() < 0:
            new = idx[rows < 0]
            if self._size + new.size > self._limit:
                self.cached = False
                del self._slot, self._hp, self._q
                return None
            self._solve(new)
            rows = self._slot[idx]
        return rows, s[idx]

    def _solve(self, new: np.ndarray) -> None:
        """Cache h_j, p_j and q_j for the columns ``new``."""
        op, size, k = self.op, self._size, new.size
        block = np.zeros((op.n_cols, k))
        block[new, np.arange(k)] = 1.0
        h = op.apply(block)
        p = op.gram_solve(h)
        q = op.apply_adjoint(p)
        if size + k > len(self._q):
            capacity = min(max(2 * len(self._q), size + k), self._limit)
            self._hp = _grown(self._hp, size, capacity)
            self._q = _grown(self._q, size, capacity)
        self._hp[size:size + k, :op.n_rows] = h.T
        self._hp[size:size + k, op.n_rows:] = p.T
        self._q[size:size + k] = q.T
        self._slot[new] = np.arange(size, size + k)
        self._size = size + k

    def image(self, s: np.ndarray) -> Iterate:
        """s as an :class:`Iterate`, with sigma2 = (y - H s)^T (g_y - g) / N
        from the images, clamped at 0."""
        n = self.op.n_rows
        cols = self._columns(s) if self.cached else None
        if cols is None:
            h = self.op.apply(s)
            g = self.op.gram_solve(h)
        else:
            rows, values = cols
            hp = np.dot(values, self._hp[rows])
            h, g = hp[:n], hp[n:]
        sigma2 = max(float((self.y - h) @ (self.g_y - g)) / n, 0.0)
        return Iterate(s, sigma2, h, g)

    def refine(self, curr: Iterate) -> np.ndarray:
        """z = s + H^T (g_y - g_s), the refinement of :func:`ecme_step`."""
        cols = self._columns(curr.s) if self.cached else None
        if cols is None:
            return curr.s + self.op.apply_adjoint(self.g_y - curr.g)
        rows, values = cols
        return curr.s + self.q_y - np.dot(values, self._q[rows])


def _grown(buffer: np.ndarray, size: int, capacity: int) -> np.ndarray:
    """A buffer of ``capacity`` rows that starts with the first ``size``
    rows of ``buffer``."""
    grown = np.empty((capacity, buffer.shape[1]))
    grown[:size] = buffer[:size]
    return grown


def _plain_step(images: _Images, curr: Iterate, r: int) -> Iterate:
    """The refinement of :func:`ecme_step` from the images, thresholded and
    imaged.  On orthonormal rows this is bit-identical to ``ecme_step``;
    otherwise it rounds differently."""
    return images.image(hard_threshold(images.refine(curr), r))


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
    is given (``dore._dore_step``: a function of (images, prev, curr, r)
    returning the next :class:`Iterate` and the branch it took), the first
    two updates stay plain steps, to seed both iterates, and ``step`` takes
    every later one; its branches are recorded in ``branches``.
    """
    stop = stop or StoppingRule()
    y = _as_measurements(op, y)
    r = _count(r, "sparsity level r", 0, op.n_cols)
    start = time.perf_counter()
    s = _initial_signal(op, r, s0)
    images = _Images(op, y)
    prev = curr = images.image(s)
    trace = [op.n_rows * curr.sigma2]
    branches = None if step is None else []
    iterations = 0
    converged = False
    while not converged and iterations < stop.max_iter:
        if step is None or iterations < 2:
            nxt = _plain_step(images, curr, r)
        else:
            nxt, branch = step(images, prev, curr, r)
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
