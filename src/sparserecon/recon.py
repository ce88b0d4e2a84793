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
input, computes g_y = (H H^T)^{-1} y, H s and (H H^T)^{-1} H s once, and
owns the objective trace, the stopping test and the result.  Each plain
step then refines by z = s + H^T (g_y - g_s) and images the thresholded
signal, at 1 apply, 1 gram solve and 1 adjoint per iteration.  A method
supplies only its step: ECME and IHT take the plain step throughout, DORE
takes two plain steps and then its overrelaxed step (``dore.dore_step``).

With orthonormal rows (H H^T = I) the refinement step is exactly one
iterative-hard-thresholding (IHT) step; ``iht_run`` is that special case
and shares the identical code path, so its iterates match ``ecme_run``
bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .operators import SensingOperator

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
    if not 0 <= r <= x.size:
        raise InputError(f"sparsity level r={r} outside [0, {x.size}]")
    if r == 0:
        return np.zeros_like(x)
    if r == x.size:
        return x.copy()
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

    Invariants: the signal has at most r nonzeros and sigma2 >= 0.
    """

    s: np.ndarray
    sigma2: float
    r: int

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        object.__setattr__(self, "s", s)
        if self.sigma2 < 0:
            raise InputError(f"sigma2 must be nonnegative, got {self.sigma2}")
        if self.r < 0:
            raise InputError(f"sparsity level must be nonnegative, got {self.r}")
        if np.count_nonzero(s) > self.r:
            raise InputError(
                f"signal has {np.count_nonzero(s)} nonzeros, above sparsity level {self.r}"
            )


@dataclass(frozen=True)
class StoppingRule:
    """Stop when ||s_next - s||^2 / m < tol, or after max_iter updates."""

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not self.tol > 0:
            raise InputError("tol must be positive")
        if self.max_iter < 1:
            raise InputError("max_iter must be at least 1")


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


@dataclass(frozen=True)
class DoreState:
    """Two consecutive parameter estimates plus their cached images.

    ``h_*`` holds H s and ``g_*`` holds (H H^T)^{-1} H s for the previous
    and current signals; ``g_y`` caches (H H^T)^{-1} y for the whole run.
    ``branch`` records which candidate the last decision step accepted
    (None after a plain step).  Every run carries this state; only DORE's
    second line search reads the previous iterate.
    """

    theta_prev: ParamEstimate
    theta_curr: ParamEstimate
    h_prev: np.ndarray
    g_prev: np.ndarray
    h_curr: np.ndarray
    g_curr: np.ndarray
    g_y: np.ndarray
    branch: str | None = None

    def advance(self, theta: ParamEstimate, h: np.ndarray, g: np.ndarray,
                branch: str | None = None) -> DoreState:
        """The state after accepting theta, whose images are h and g."""
        return DoreState(
            theta_prev=self.theta_curr, theta_curr=theta,
            h_prev=self.h_curr, g_prev=self.g_curr, h_curr=h, g_curr=g,
            g_y=self.g_y, branch=branch,
        )

    def verify_cache(self, op: SensingOperator, y, rtol: float = 1e-10) -> bool:
        """Debug check: cached images consistent with the stored signals."""
        y = _as_measurements(op, y)
        pairs = [
            (self.h_prev, op.apply(self.theta_prev.s)),
            (self.g_prev, op.gram_solve(op.apply(self.theta_prev.s))),
            (self.h_curr, op.apply(self.theta_curr.s)),
            (self.g_curr, op.gram_solve(op.apply(self.theta_curr.s))),
            (self.g_y, op.gram_solve(y)),
        ]
        for cached, fresh in pairs:
            scale = max(1.0, float(np.max(np.abs(fresh))))
            if np.max(np.abs(cached - fresh)) > rtol * scale:
                return False
        return True


def sigma2_hat(op: SensingOperator, y, s) -> float:
    """Closed-form variance estimate (y - Hs)^T (H H^T)^{-1} (y - Hs) / N.

    Zero exactly when y = H s; tiny negative rounding is clamped to 0.
    """
    y = _as_measurements(op, y)
    residual = y - op.apply(s)
    value = float(residual @ op.gram_solve(residual)) / op.n_rows
    return max(value, 0.0)


def _quadratic_sigma2(y, h_s, g_y, g_s, n_rows: int) -> float:
    """(y - Hs)^T (H H^T)^{-1} (y - Hs) / N from cached images."""
    value = float((y - h_s) @ (g_y - g_s)) / n_rows
    return max(value, 0.0)


def weighted_error(op: SensingOperator, y, s) -> float:
    """Weighted squared error E(s) = N * sigma2_hat(s)."""
    return op.n_rows * sigma2_hat(op, y, s)


def ecme_step(op: SensingOperator, y, theta: ParamEstimate) -> ParamEstimate:
    """One refinement: gram-weighted signal update, threshold, variance update."""
    s_next = hard_threshold(empirical_bayes_estimate(op, y, theta), theta.r)
    return ParamEstimate(s_next, sigma2_hat(op, y, s_next), theta.r)


def cached_ecme_step(op: SensingOperator, y, state: DoreState, r: int) -> DoreState:
    """The refinement of :func:`ecme_step` from the state's cached images.

    z = s + H^T (g_y - g_s) needs one adjoint; imaging the thresholded
    signal costs one apply and one gram solve.  On orthonormal rows this
    is bit-identical to ``ecme_step``; otherwise it rounds differently.
    """
    z = state.theta_curr.s + op.apply_adjoint(state.g_y - state.g_curr)
    s_next = hard_threshold(z, r)
    h_next = op.apply(s_next)
    g_next = op.gram_solve(h_next)
    sigma2 = _quadratic_sigma2(y, h_next, state.g_y, g_next, op.n_rows)
    return state.advance(ParamEstimate(s_next, sigma2, r), h_next, g_next)


def _as_measurements(op: SensingOperator, y) -> np.ndarray:
    """y as a float vector of the operator's length with finite entries."""
    y = np.asarray(y, dtype=float)
    if y.shape != (op.n_rows,):
        raise InputError(f"y must have length {op.n_rows}, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise InputError("y must have finite entries")
    return y


def _initial_signal(op: SensingOperator, r: int, s0) -> np.ndarray:
    if s0 is None:
        return np.zeros(op.n_cols)
    s0 = np.asarray(s0, dtype=float)
    if s0.shape != (op.n_cols,):
        raise InputError(f"s0 must have length {op.n_cols}, got shape {s0.shape}")
    if not np.isfinite(s0).all():
        raise InputError("s0 must have finite entries")
    if np.count_nonzero(s0) > r:
        return hard_threshold(s0, r)
    return s0.copy()


def _drive(op: SensingOperator, y, r: int, s0, stop: StoppingRule | None,
           step=None) -> ReconstructionResult:
    """The iteration loop behind every solver.

    Runs :func:`cached_ecme_step` until the stopping rule fires.  When
    ``step`` is given (``dore.dore_step``: a function of (op, y, state, r)
    returning the next state and its line-search weights), the first two
    updates stay plain steps, to seed both iterates of the state, and
    ``step`` takes every later one; its decisions are recorded in
    ``branches``.
    """
    stop = stop or StoppingRule()
    y = _as_measurements(op, y)
    if not 0 <= r <= op.n_cols:
        raise InputError(f"sparsity level r={r} outside [0, {op.n_cols}]")
    start = time.perf_counter()
    s = _initial_signal(op, r, s0)
    g_y = op.gram_solve(y)
    h = op.apply(s)
    g = op.gram_solve(h)
    theta = ParamEstimate(s, _quadratic_sigma2(y, h, g_y, g, op.n_rows), r)
    state = DoreState(theta, theta, h, g, h, g, g_y)
    trace = [op.n_rows * theta.sigma2]
    branches = None if step is None else []
    iterations = 0
    converged = False
    while not converged and iterations < stop.max_iter:
        if step is None or iterations < 2:
            state = cached_ecme_step(op, y, state, r)
        else:
            state, _ = step(op, y, state, r)
            branches.append(state.branch)
        iterations += 1
        trace.append(op.n_rows * state.theta_curr.sigma2)
        step_ssq = float(np.sum((state.theta_curr.s - state.theta_prev.s) ** 2))
        converged = step_ssq / op.n_cols < stop.tol
    return ReconstructionResult(
        estimate=state.theta_curr,
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
