"""Accelerated solver: line searches, decision step, cost accounting."""

import numpy as np
import pytest

from sparserecon import (
    DenseOperator,
    InputError,
    ParamEstimate,
    PartialDctOperator,
    SensingOperator,
    StoppingRule,
    dore_alpha1,
    dore_alpha2,
    dore_run,
    dore_step,
    ecme_run,
    ecme_step,
    hard_threshold,
    iht_run,
    sigma2_hat,
    verify_fixed_point,
    weighted_error,
)
from sparserecon.dore import DoreState


class CountingOperator(SensingOperator):
    """Delegating wrapper that counts apply/adjoint/gram_solve calls."""

    def __init__(self, inner):
        super().__init__(inner.n_rows, inner.n_cols,
                         inner.rows_orthonormal, inner.kind)
        self.inner = inner
        self.n_apply = self.n_adjoint = self.n_gram = 0

    def apply(self, v):
        self.n_apply += 1
        return self.inner.apply(v)

    def apply_adjoint(self, w):
        self.n_adjoint += 1
        return self.inner.apply_adjoint(w)

    def gram_solve(self, b):
        self.n_gram += 1
        return self.inner.gram_solve(b)

    def counts(self):
        return self.n_apply, self.n_gram, self.n_adjoint


def _random_problem(rng, n=10, m=24, r=3, noise=0.0, orthonormal=False):
    if orthonormal:
        rows = np.sort(rng.choice(m, size=n, replace=False))
        op = PartialDctOperator(m, rows)
    else:
        op = DenseOperator(rng.standard_normal((n, m)))
    truth = hard_threshold(rng.standard_normal(m), r)
    y = op.apply(truth)
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return op, y, truth


def _seed_state(op, y, r):
    """Two plain steps from zero, mirroring the run initialization."""
    g_y = op.gram_solve(y)
    s0 = np.zeros(op.n_cols)
    t0 = ParamEstimate(s0, sigma2_hat(op, y, s0), r)
    t1 = ecme_step(op, y, t0)
    t2 = ecme_step(op, y, t1)
    return DoreState(
        theta_prev=t1, theta_curr=t2,
        h_prev=op.apply(t1.s), g_prev=op.gram_solve(op.apply(t1.s)),
        h_curr=op.apply(t2.s), g_curr=op.gram_solve(op.apply(t2.s)),
        g_y=g_y,
    )


# -------------------------------------------------------------- line searches

def test_alpha_zero_when_residual_orthogonal():
    # y - H s_hat = 0 makes the numerator vanish
    rng = np.random.default_rng(0)
    h_hat = rng.standard_normal(6)
    g_hat = h_hat.copy()
    y = h_hat.copy()  # zero residual
    h_curr = rng.standard_normal(6)
    assert dore_alpha1(h_hat, g_hat, h_curr, h_curr, y) == pytest.approx(0.0)


def test_alpha_zero_on_degenerate_ray():
    rng = np.random.default_rng(1)
    h = rng.standard_normal(5)
    y = rng.standard_normal(5)
    # H s_hat = H s_curr: denominator is exactly zero -> weight 0
    assert dore_alpha1(h, h, h, h, y) == 0.0
    assert dore_alpha2(h, h, h, h, y) == 0.0


def test_alpha1_minimizes_error_along_ray():
    rng = np.random.default_rng(2)
    for trial in range(20):
        op, y, _ = _random_problem(rng, noise=0.3)
        state = _seed_state(op, y, 3)
        theta = ecme_step(op, y, state.theta_curr)
        s_hat, s_curr = theta.s, state.theta_curr.s
        h_hat = op.apply(s_hat)
        g_hat = op.gram_solve(h_hat)
        alpha = dore_alpha1(h_hat, g_hat, state.h_curr, state.g_curr, state.g_y)
        best = weighted_error(op, y, s_hat + alpha * (s_hat - s_curr))
        for a in rng.uniform(-3.0, 3.0, size=100):
            trial_err = weighted_error(op, y, s_hat + a * (s_hat - s_curr))
            assert best <= trial_err + 1e-10


# ------------------------------------------------------------------ dore_step

def test_decision_prefers_plain_candidate_on_tie():
    # at a fixed point both candidates coincide, sigma2_tilde == sigma2_hat,
    # and the strict inequality keeps the plain branch
    rng = np.random.default_rng(3)
    op, y, truth = _random_problem(rng, n=12, m=20, r=2)
    res = dore_run(op, y, 2, stop=StoppingRule(tol=1e-30, max_iter=3000))
    state = _seed_state(op, y, 2)
    state = DoreState(
        theta_prev=res.estimate, theta_curr=res.estimate,
        h_prev=op.apply(res.estimate.s),
        g_prev=op.gram_solve(op.apply(res.estimate.s)),
        h_curr=op.apply(res.estimate.s),
        g_curr=op.gram_solve(op.apply(res.estimate.s)),
        g_y=state.g_y,
    )
    nxt, weights = dore_step(op, y, state, 2)
    assert nxt.branch == "ecme"
    assert weights.alpha1 == 0.0 and weights.alpha2 == 0.0
    assert np.array_equal(nxt.theta_curr.s, res.estimate.s)


def test_dore_step_never_worse_than_plain_step():
    rng = np.random.default_rng(4)
    for trial in range(100):
        op, y, _ = _random_problem(rng, n=8, m=18, r=2,
                                   noise=0.2 if trial % 2 else 0.0,
                                   orthonormal=trial % 3 == 0)
        state = _seed_state(op, y, 2)
        nxt, _ = dore_step(op, y, state, 2)
        plain = ecme_step(op, y, state.theta_curr)
        assert nxt.theta_curr.sigma2 <= plain.sigma2 * (1 + 1e-12) + 1e-300


def test_dore_step_cost_budget():
    rng = np.random.default_rng(5)
    op, y, _ = _random_problem(rng, n=10, m=22, r=3, noise=0.1)
    counter = CountingOperator(op)
    state = _seed_state(counter, y, 3)
    counter.n_apply = counter.n_gram = counter.n_adjoint = 0
    for _ in range(5):
        state, _ = dore_step(counter, y, state, 3)
    applies, grams, adjoints = counter.counts()
    assert applies <= 3 * 5
    assert grams <= 2 * 5
    assert adjoints <= 2 * 5
    # a plain run on the driver: k iterations after imaging s0 and y
    counter = CountingOperator(op)
    k = ecme_run(counter, y, 3).iterations
    applies, grams, adjoints = counter.counts()
    assert k > 1
    assert applies <= k + 1
    assert grams <= k + 2
    assert adjoints <= k


def test_dore_state_cache_verification():
    rng = np.random.default_rng(6)
    op, y, _ = _random_problem(rng)
    state = _seed_state(op, y, 3)
    assert state.verify_cache(op, y)
    corrupted = DoreState(
        theta_prev=state.theta_prev, theta_curr=state.theta_curr,
        h_prev=state.h_prev + 1.0, g_prev=state.g_prev,
        h_curr=state.h_curr, g_curr=state.g_curr, g_y=state.g_y,
    )
    assert not corrupted.verify_cache(op, y)


def test_dore_state_cache_verification_rejects_non_finite_y():
    rng = np.random.default_rng(6)
    op, y, _ = _random_problem(rng)
    state = _seed_state(op, y, 3)
    y[0] = np.nan  # a NaN gram image would compare as consistent
    with pytest.raises(InputError, match="finite"):
        state.verify_cache(op, y)


# ------------------------------------------------------------------- dore_run

def test_dore_run_zero_measurements(toy_operator):
    res = dore_run(toy_operator, np.zeros(2), 1)
    assert res.converged
    assert res.iterations == 1
    assert np.array_equal(res.estimate.s, np.zeros(3))
    assert res.estimate.sigma2 == 0.0


def test_dore_run_matches_plain_answer(bench_dct_dense):
    rng = np.random.default_rng(7)
    truth = np.zeros(32)
    truth[11] = 1.5
    y = bench_dct_dense.apply(truth)
    stop = StoppingRule(tol=1e-26, max_iter=5000)
    plain = ecme_run(bench_dct_dense, y, 1, stop=stop)
    fast = dore_run(bench_dct_dense, y, 1, stop=stop)
    assert np.linalg.norm(fast.estimate.s - truth) <= 1e-8
    assert np.linalg.norm(fast.estimate.s - plain.estimate.s) <= 1e-8


def test_dore_run_monotone_trace_and_branches():
    rng = np.random.default_rng(8)
    for trial in range(20):
        op, y, _ = _random_problem(rng, n=12, m=30, r=4,
                                   noise=0.1 if trial % 2 else 0.0)
        res = dore_run(op, y, 4)
        trace = np.asarray(res.trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert res.branches is not None
        assert set(res.branches) <= {"ecme", "overrelaxed"}
        assert len(res.branches) == max(res.iterations - 2, 0)
        # the images carried by linear combination never drift
        state = _seed_state(op, y, 4)
        for _ in range(res.iterations - 2):
            state, _ = dore_step(op, y, state, 4)
            assert state.verify_cache(op, y)


def test_dore_seeds_with_the_plain_steps():
    # both solvers take the same two cached plain steps first
    rng = np.random.default_rng(12)
    for trial in range(10):
        op, y, _ = _random_problem(rng, n=12, m=30, r=4, noise=0.1)
        assert not op.rows_orthonormal
        stop = StoppingRule(tol=1e-30, max_iter=2)
        plain = ecme_run(op, y, 4, stop=stop)
        fast = dore_run(op, y, 4, stop=stop)
        assert plain.iterations == fast.iterations == 2
        assert np.array_equal(plain.estimate.s, fast.estimate.s)
        assert plain.trace == fast.trace


def test_dore_convergence_point_is_plain_fixed_point():
    rng = np.random.default_rng(9)
    for trial in range(10):
        op, y, _ = _random_problem(rng, n=10, m=26, r=3,
                                   noise=0.15 if trial % 2 else 0.0)
        res = dore_run(op, y, 3, stop=StoppingRule(tol=1e-28, max_iter=4000))
        if not res.converged:
            continue
        after = ecme_step(op, y, res.estimate)
        assert np.linalg.norm(after.s - res.estimate.s) <= 1e-8
        assert verify_fixed_point(op, y, res.estimate.s, 3)


def test_dore_accelerates_iht():
    rng = np.random.default_rng(10)
    slower, faster = 0, 0
    for _ in range(5):
        op, y, _ = _random_problem(rng, n=24, m=64, r=6, orthonormal=True)
        stop = StoppingRule(tol=1e-14, max_iter=20000)
        it = iht_run(op, y, 6, stop=stop)
        do = dore_run(op, y, 6, stop=stop)
        slower += it.iterations
        faster += do.iterations
    assert faster < slower


def test_dore_result_json_includes_branches():
    rng = np.random.default_rng(11)
    op, y, _ = _random_problem(rng)
    res = dore_run(op, y, 3)
    payload = res.to_json_dict()
    assert "branches" in payload
    assert payload["iterations"] == res.iterations
