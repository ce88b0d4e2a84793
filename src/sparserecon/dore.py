"""Double-overrelaxation acceleration of the thresholding iteration.

Each outer iteration runs one plain refinement step, then extrapolates
twice along closed-form line searches (first against the newest estimate,
then against the one before it), thresholds, and keeps whichever of the
two candidates has the smaller variance estimate.  The decision step means
the accepted variance never exceeds the plain step's, so the objective
trace stays nonincreasing while convergence speeds up considerably.

``dore_step`` is the only code here that iterates: ``dore_run`` hands it
to the driver in ``recon``, which seeds the state with two plain steps
and owns validation, the trace, the stopping test and the branch record.
All measurement-space images H s and (H H^T)^{-1} H s are carried in
``DoreState`` and updated by linear combination, so one outer iteration
costs 2 operator applies, 2 gram solves and 1 adjoint apply on top of two
O(m) hard thresholds -- slightly under twice the cost of a plain step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import SensingOperator
from .recon import (
    DoreState,
    ParamEstimate,
    ReconstructionResult,
    StoppingRule,
    _drive,
    _quadratic_sigma2,
    cached_ecme_step,
    hard_threshold,
)


@dataclass(frozen=True)
class OverrelaxationWeights:
    """Closed-form line-search weights; 0 when the ray is degenerate."""

    alpha1: float
    alpha2: float


def _line_search_weight(h_to, g_to, h_from, g_from, g_y) -> float:
    direction = h_to - h_from
    numerator = float(direction @ (g_y - g_to))
    denominator = float(direction @ (g_to - g_from))
    if denominator <= 0.0:
        return 0.0
    weight = numerator / denominator
    return weight if math.isfinite(weight) else 0.0


def dore_alpha1(h_hat, g_hat, h_curr, g_curr, g_y) -> float:
    """First overrelaxation weight from cached measurement-space images.

    Arguments are H s_hat, (H H^T)^{-1} H s_hat, the same pair for the
    current iterate, then (H H^T)^{-1} y.  No operator products are
    needed.  A zero (or nonpositive, after rounding) denominator returns 0,
    reducing the overrelaxation to a no-op.
    """
    return _line_search_weight(h_hat, g_hat, h_curr, g_curr, g_y)


def dore_alpha2(h_bar, g_bar, h_prev, g_prev, g_y) -> float:
    """Second overrelaxation weight; same quotient against the older iterate."""
    return _line_search_weight(h_bar, g_bar, h_prev, g_prev, g_y)


def dore_step(op: SensingOperator, y, state: DoreState, r: int
              ) -> tuple[DoreState, OverrelaxationWeights]:
    """One accelerated iteration: refine, extrapolate twice, threshold, decide.

    The accepted candidate's variance is min(sigma2_tilde, sigma2_hat), so
    it never exceeds the plain refinement step's variance.  The decision
    uses strict inequality: ties keep the plain candidate.
    """
    y = np.asarray(y, dtype=float)
    plain = cached_ecme_step(op, y, state, r)
    s_hat, h_hat, g_hat = plain.theta_curr.s, plain.h_curr, plain.g_curr

    # first overrelaxation, toward s_hat away from the current iterate
    alpha1 = dore_alpha1(h_hat, g_hat, state.h_curr, state.g_curr, state.g_y)
    z_bar = s_hat + alpha1 * (s_hat - state.theta_curr.s)
    h_bar = h_hat + alpha1 * (h_hat - state.h_curr)
    g_bar = g_hat + alpha1 * (g_hat - state.g_curr)

    # second overrelaxation against the older iterate
    alpha2 = dore_alpha2(h_bar, g_bar, state.h_prev, state.g_prev, state.g_y)
    z_tilde = z_bar + alpha2 * (z_bar - state.theta_prev.s)

    # threshold the extrapolated point and evaluate it
    s_tilde = hard_threshold(z_tilde, r)
    h_tilde = op.apply(s_tilde)
    g_tilde = op.gram_solve(h_tilde)
    sigma2_tilde = _quadratic_sigma2(y, h_tilde, state.g_y, g_tilde, op.n_rows)

    if sigma2_tilde < plain.theta_curr.sigma2:
        next_state = state.advance(ParamEstimate(s_tilde, sigma2_tilde, r),
                                   h_tilde, g_tilde, "overrelaxed")
    else:
        next_state = replace(plain, branch="ecme")
    return next_state, OverrelaxationWeights(alpha1, alpha2)


def dore_run(op: SensingOperator, y, r: int, s0=None,
             stop: StoppingRule | None = None) -> ReconstructionResult:
    """Accelerated run: two plain refinement steps to seed the state, then
    overrelaxed iterations until consecutive signal estimates agree.

    Non-finite y or s0 raise :class:`InputError`.
    """
    return _drive(op, y, r, s0, stop, dore_step)
