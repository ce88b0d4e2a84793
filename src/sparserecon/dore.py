"""Double-overrelaxation acceleration of the thresholding iteration.

Each outer iteration runs one plain refinement step, then extrapolates
twice along closed-form line searches (first against the newest estimate,
then against the one before it), thresholds, and keeps whichever of the
two candidates has the smaller variance estimate.  The decision step means
the accepted variance never exceeds the plain step's, so the objective
trace stays nonincreasing while convergence speeds up considerably.

``dore_step`` is the only code here that iterates: ``dore_run`` hands it
to the driver in ``recon``, which seeds the two iterates with plain steps
and owns validation, the trace, the stopping test and the branch record.
Each ``recon.Iterate`` carries its measurement-space images H s and
(H H^T)^{-1} H s, and the extrapolated images are linear combinations of
them, so one outer iteration costs 2 operator applies, 2 gram solves and
1 adjoint apply on top of two O(m) hard thresholds -- slightly under twice
the cost of a plain step.
"""

from __future__ import annotations

import math

from .operators import SensingOperator
from .recon import (
    Iterate,
    ReconstructionResult,
    StoppingRule,
    _drive,
    _image,
    _plain_step,
    hard_threshold,
)


def dore_weight(h_to, g_to, h_from, g_from, g_y) -> float:
    """Closed-form line-search weight along the ray from one point to another.

    Arguments are H s and (H H^T)^{-1} H s for the point moved to, the same
    pair for the point moved from, then (H H^T)^{-1} y.  The weight alpha
    minimizes the weighted error at s_to + alpha (s_to - s_from) and needs
    no operator products.  A zero (or nonpositive, after rounding)
    denominator returns 0, reducing the overrelaxation to a no-op.
    """
    direction = h_to - h_from
    numerator = float(direction @ (g_y - g_to))
    denominator = float(direction @ (g_to - g_from))
    if denominator <= 0.0:
        return 0.0
    weight = numerator / denominator
    return weight if math.isfinite(weight) else 0.0


def dore_step(op: SensingOperator, y, g_y, prev: Iterate, curr: Iterate, r: int
              ) -> tuple[Iterate, str]:
    """One accelerated iteration: refine, extrapolate twice, threshold, decide.

    ``g_y`` is (H H^T)^{-1} y, and ``prev`` and ``curr`` are the two latest
    iterates.  Returns the accepted iterate and its branch, "overrelaxed"
    or "ecme".  The accepted variance is min(sigma2_tilde, sigma2_hat), so
    it never exceeds the plain refinement step's.  The decision uses strict
    inequality: ties keep the plain candidate.
    """
    plain = _plain_step(op, y, g_y, curr, r)

    # first overrelaxation, toward the plain candidate away from curr
    alpha1 = dore_weight(plain.h, plain.g, curr.h, curr.g, g_y)
    z_bar = plain.s + alpha1 * (plain.s - curr.s)
    h_bar = plain.h + alpha1 * (plain.h - curr.h)
    g_bar = plain.g + alpha1 * (plain.g - curr.g)

    # second overrelaxation against the older iterate
    alpha2 = dore_weight(h_bar, g_bar, prev.h, prev.g, g_y)
    z_tilde = z_bar + alpha2 * (z_bar - prev.s)

    # threshold the extrapolated point and evaluate it
    tilde = _image(op, y, g_y, hard_threshold(z_tilde, r))
    if tilde.sigma2 < plain.sigma2:
        return tilde, "overrelaxed"
    return plain, "ecme"


def dore_run(op: SensingOperator, y, r: int, s0=None,
             stop: StoppingRule | None = None) -> ReconstructionResult:
    """Accelerated run: two plain refinement steps to seed the iterates,
    then overrelaxed iterations until consecutive signal estimates agree.

    Non-finite y or s0 raise :class:`InputError`.
    """
    return _drive(op, y, r, s0, stop, dore_step)
