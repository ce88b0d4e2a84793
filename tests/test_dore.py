"""Accelerated solver: line searches, decision step, cost accounting."""

import math
import time
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparserecon import (
    DenseOperator,
    ParamEstimate,
    PartialDctOperator,
    ReconstructionResult,
    SensingOperator,
    StoppingRule,
    adore_run,
    dore_run,
    dore_weight,
    ecme_run,
    ecme_step,
    hard_threshold,
    iht_run,
    phantom_problem,
    random_instance,
    sigma2_hat,
    verify_fixed_point,
    weighted_error,
)
from sparserecon import dore, recon
from sparserecon.dore import _dore_step
from sparserecon.recon import (Iterate, _as_measurements, _Images, _initial_signal,
                               _plain_step)


class CountingOperator(SensingOperator):
    """Delegating wrapper that forwards only apply, apply_adjoint and
    gram_solve, counts the calls and keeps every argument of apply."""

    def __init__(self, inner):
        super().__init__(inner.n_rows, inner.n_cols,
                         inner.rows_orthonormal, inner.kind)
        self.inner = inner
        self.n_apply = self.n_adjoint = self.n_gram = 0
        self.applied = []

    def apply(self, v):
        self.n_apply += 1
        self.applied.append(np.array(v))
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


def _iterate(op, theta):
    """theta as an Iterate, with freshly computed images."""
    h = op.apply(theta.s)
    return Iterate(theta.s, theta.sigma2, h, op.gram_solve(h))


def _seed_state(op, y, r):
    """The run's images of y and the two plain steps from zero, as the run
    seeds them."""
    s0 = np.zeros(op.n_cols)
    t0 = ParamEstimate(s0, sigma2_hat(op, y, s0), r)
    t1 = ecme_step(op, y, t0)
    t2 = ecme_step(op, y, t1)
    return _Images(op, y), _iterate(op, t1), _iterate(op, t2)


def _assert_images_fresh(op, it, rtol=1e-10):
    """The images an iterate carries match H s and (H H^T)^{-1} H s recomputed."""
    h = op.apply(it.s)
    for cached, fresh in ((it.h, h), (it.g, op.gram_solve(h))):
        scale = max(1.0, float(np.max(np.abs(fresh))))
        assert np.max(np.abs(cached - fresh)) <= rtol * scale


# -------------------------------------------------------------- line searches

def test_alpha_zero_when_residual_orthogonal():
    # y - H s_hat = 0 makes the numerator vanish
    rng = np.random.default_rng(0)
    h_hat = rng.standard_normal(6)
    g_hat = h_hat.copy()
    y = h_hat.copy()  # zero residual
    h_curr = rng.standard_normal(6)
    assert dore_weight(h_hat, g_hat, h_curr, h_curr, y) == pytest.approx(0.0)


def test_alpha_zero_on_degenerate_ray():
    rng = np.random.default_rng(1)
    h = rng.standard_normal(5)
    y = rng.standard_normal(5)
    # H s_hat = H s_curr: denominator is exactly zero -> weight 0
    assert dore_weight(h, h, h, h, y) == 0.0


def test_alpha1_minimizes_error_along_ray():
    rng = np.random.default_rng(2)
    for trial in range(20):
        op, y, _ = _random_problem(rng, noise=0.3)
        images, _, curr = _seed_state(op, y, 3)
        theta = ecme_step(op, y, ParamEstimate(curr.s, curr.sigma2, 3))
        s_hat, s_curr = theta.s, curr.s
        h_hat = op.apply(s_hat)
        g_hat = op.gram_solve(h_hat)
        alpha = dore_weight(h_hat, g_hat, curr.h, curr.g, images.g_y)
        best = weighted_error(op, y, s_hat + alpha * (s_hat - s_curr))
        for a in rng.uniform(-3.0, 3.0, size=100):
            trial_err = weighted_error(op, y, s_hat + a * (s_hat - s_curr))
            assert best <= trial_err + 1e-10


# ----------------------------------------------------------------- _dore_step

def test_decision_prefers_plain_candidate_on_tie():
    # at a fixed point both candidates coincide, sigma2_tilde == sigma2_hat,
    # and the strict inequality keeps the plain branch
    rng = np.random.default_rng(3)
    op, y, truth = _random_problem(rng, n=12, m=20, r=2)
    res = dore_run(op, y, 2, stop=StoppingRule(tol=1e-30, max_iter=3000))
    fixed = _iterate(op, res.estimate)
    nxt, branch = _dore_step(_Images(op, y), fixed, fixed, 2)
    assert branch == "ecme"
    assert np.array_equal(nxt.s, res.estimate.s)


def test_cached_decision_prefers_plain_candidate_on_tie(monkeypatch):
    # the same tie on the run's own cache of solved columns.  That run stops
    # when its last move is under the tolerance, one plain step short of the
    # exact fixed point here; from that point the step is exactly idempotent
    monkeypatch.setattr(recon, "_CACHE_MIN_ENTRIES", 0)
    made = []

    class RunImages(_Images):
        def __init__(self, op, y):
            super().__init__(op, y)
            made.append(self)

    monkeypatch.setattr(recon, "_Images", RunImages)
    rng = np.random.default_rng(3)
    op, y, truth = _random_problem(rng, n=12, m=20, r=2)
    res = dore_run(op, y, 2, stop=StoppingRule(tol=1e-30, max_iter=3000))
    (images,) = made
    fixed = _plain_step(images, images.image(res.estimate.s), 2)
    assert images.cached
    assert np.array_equal(_plain_step(images, fixed, 2).s, fixed.s)
    nxt, branch = _dore_step(images, fixed, fixed, 2)
    assert branch == "ecme"
    assert np.array_equal(nxt.s, fixed.s)


def test_dore_step_never_worse_than_plain_step():
    rng = np.random.default_rng(4)
    for trial in range(100):
        op, y, _ = _random_problem(rng, n=8, m=18, r=2,
                                   noise=0.2 if trial % 2 else 0.0,
                                   orthonormal=trial % 3 == 0)
        images, prev, curr = _seed_state(op, y, 2)
        nxt, _ = _dore_step(images, prev, curr, 2)
        plain = ecme_step(op, y, ParamEstimate(curr.s, curr.sigma2, 2))
        assert nxt.sigma2 <= plain.sigma2 * (1 + 1e-12) + 1e-300


def _record_thresholds(monkeypatch):
    """Every signal the solvers threshold, in order: the points they image."""
    signals = []

    def recorded(x, r):
        signals.append(hard_threshold(x, r))
        return signals[-1]

    monkeypatch.setattr(recon, "hard_threshold", recorded)
    monkeypatch.setattr(dore, "hard_threshold", recorded)
    return signals


def _batches(signals):
    """The column sets a run solves when it images ``signals`` in order:
    each signal's columns not seen before, when there are any."""
    seen, batches = set(), []
    for s in signals:
        new = sorted(set(np.flatnonzero(s).tolist()) - seen)
        if new:
            batches.append(new)
            seen.update(new)
    return batches


def _assert_batch_calls(counter, batches):
    """One block call of each method per batch, plus g_y and q_y; each
    apply takes the unit columns of its batch."""
    k = len(batches)
    assert counter.counts() == (k, k + 1, k + 1)
    for block, columns in zip(counter.applied, batches):
        unit = np.zeros((counter.n_cols, len(columns)))
        unit[columns, np.arange(len(columns))] = 1.0
        assert block.tobytes() == unit.tobytes()


def test_dore_step_cost_budget(monkeypatch):
    """Vector calls on orthonormal rows and on an H under the cache's size
    gate; one block call of each method per batch of new columns on a
    cached H (the gate lowered last, on a problem whose columns fit)."""
    rng = np.random.default_rng(5)
    for kind in ("dct", "dense", "cached"):
        n, m = (40, 64) if kind == "cached" else (10, 22)
        if kind == "cached":
            monkeypatch.setattr(recon, "_CACHE_MIN_ENTRIES", 0)
        op, y, _ = _random_problem(rng, n=n, m=m, r=3, noise=0.1,
                                   orthonormal=kind == "dct")
        # five steps from the seed iterates on one run's images
        _, prev, curr = _seed_state(op, y, 3)
        counter = CountingOperator(op)
        images = _Images(counter, y)
        assert images.cached == (kind == "cached")
        signals = _record_thresholds(monkeypatch)
        signals.append(curr.s)  # the first refinement solves curr's columns
        for _ in range(5):
            prev, (curr, _) = curr, _dore_step(images, prev, curr, 3)
        if kind == "cached":
            assert images.cached
            _assert_batch_calls(counter, _batches(signals))
        else:  # 2 applies, 2 gram solves and 1 adjoint a step
            assert counter.counts() == (2 * 5, 1 + 2 * 5, 5)
        # a plain run on the driver: k iterations after imaging s0 and y
        signals.clear()
        counter = CountingOperator(op)
        k = ecme_run(counter, y, 3).iterations
        assert k > 1
        if kind == "cached":
            _assert_batch_calls(counter, _batches(signals))
        else:
            assert counter.counts() == (k + 1, k + 2, k)
            assert all(v.ndim == 1 for v in counter.applied)


def test_cached_dore_run_cost(monkeypatch):
    """A cached DORE run solves each column it images once, in batches."""
    monkeypatch.setattr(recon, "_CACHE_MIN_ENTRIES", 0)
    rng = np.random.default_rng(13)
    for trial in range(10):
        op, y, _ = _random_problem(rng, n=40, m=64, r=4,
                                   noise=0.1 if trial % 2 else 0.0)
        signals = _record_thresholds(monkeypatch)
        counter = CountingOperator(op)
        s0 = hard_threshold(rng.standard_normal(64), 4) if trial % 3 else None
        res = dore_run(counter, y, 4, s0=s0)
        assert res.iterations > 2
        imaged = ([] if s0 is None else [s0]) + signals
        _assert_batch_calls(counter, _batches(imaged))


def test_cache_gate():
    """The cache serves exactly the H of at least 100,000 entries whose
    rows are not orthonormal."""
    rng = np.random.default_rng(17)
    for n, m, cached in [(100, 256, False), (200, 500, True), (199, 500, False)]:
        op = DenseOperator(rng.standard_normal((n, m)))
        assert _Images(op, np.ones(n)).cached == cached
    dct = PartialDctOperator(1024, np.arange(0, 1024, 4))
    assert not _Images(dct, np.ones(256)).cached


def test_cache_never_outgrows_matrix():
    """A run that would cache more numbers than H holds drops its cache and
    makes the vector calls instead, with images to rounding of them."""
    rng = np.random.default_rng(19)
    op = DenseOperator(rng.standard_normal((200, 500)))
    y = op.apply(hard_threshold(rng.standard_normal(500), 10))
    images = _Images(op, y)
    cached_images = 0
    while images.cached:
        s = np.zeros(500)
        s[rng.choice(500, size=20, replace=False)] = rng.standard_normal(20)
        it = images.image(s)
        z = images.refine(it)
        if images.cached:
            cached_images += 1
            assert images._hp.size + images._q.size <= op.matrix.size
        h = op.apply(s)
        z_ref = s + op.apply_adjoint(images.g_y - op.gram_solve(h))
        assert np.max(np.abs(it.h - h)) <= 1e-12 * np.linalg.norm(h)
        assert np.max(np.abs(z - z_ref)) <= 1e-12 * np.linalg.norm(z_ref)
    assert cached_images >= 2
    assert not hasattr(images, "_q")
    s = hard_threshold(rng.standard_normal(500), 10)
    assert images.image(s).h.tobytes() == op.apply(s).tobytes()


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
        images, prev, curr = _seed_state(op, y, 4)
        for _ in range(res.iterations - 2):
            prev, (curr, _) = curr, _dore_step(images, prev, curr, 4)
            _assert_images_fresh(op, curr)


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


@pytest.mark.parametrize("m,n,r,noise,seed", [(150, 60, 8, 0.05, 1),
                                              (500, 200, 10, 0.0, 2)],
                         ids=["d60-noisy", "d200"])
def test_delegating_wrapper_gives_identical_runs(monkeypatch, m, n, r, noise, seed):
    """A wrapper that forwards only apply, apply_adjoint and gram_solve gets
    the run's block calls and returns the bare operator's bytes; the traced
    benchmark wraps its operators this way.  The 60 x 150 case runs with
    the cache's size gate lowered, the 200 x 500 one at the gate."""
    if n * m < recon._CACHE_MIN_ENTRIES:
        monkeypatch.setattr(recon, "_CACHE_MIN_ENTRIES", 0)
    inst = random_instance(m, n, r, noise, seed)
    bare, wrapped = inst.operator, CountingOperator(inst.operator)
    for run in (ecme_run, dore_run):
        assert _run_bytes(run(wrapped, inst.y, r)) == _run_bytes(run(bare, inst.y, r))
    auto_wrapped, auto_bare = adore_run(wrapped, inst.y), adore_run(bare, inst.y)
    assert auto_wrapped.r_selected == auto_bare.r_selected
    assert auto_wrapped.dore_runs == auto_bare.dore_runs
    assert _run_bytes(auto_wrapped.final) == _run_bytes(auto_bare.final)
    assert all(block.ndim == 2 for block in wrapped.applied)


# ------------------------------------------------ the loop against a reference

@dataclass(frozen=True)
class _RefState:
    """The earlier loop's state: two estimates plus their cached images."""

    theta_prev: ParamEstimate
    theta_curr: ParamEstimate
    h_prev: np.ndarray
    g_prev: np.ndarray
    h_curr: np.ndarray
    g_curr: np.ndarray
    g_y: np.ndarray
    branch: str | None = None

    def advance(self, theta, h, g, branch=None):
        return _RefState(self.theta_curr, theta, self.h_curr, self.g_curr, h, g,
                         self.g_y, branch)


def _ref_sigma2(y, h_s, g_y, g_s, n_rows):
    value = float((y - h_s) @ (g_y - g_s)) / n_rows
    return max(value, 0.0)


def _ref_plain_step(op, y, state, r):
    z = state.theta_curr.s + op.apply_adjoint(state.g_y - state.g_curr)
    s_next = hard_threshold(z, r)
    h_next = op.apply(s_next)
    g_next = op.gram_solve(h_next)
    sigma2 = _ref_sigma2(y, h_next, state.g_y, g_next, op.n_rows)
    return state.advance(ParamEstimate(s_next, sigma2, r), h_next, g_next)


def _ref_weight(h_to, g_to, h_from, g_from, g_y):
    direction = h_to - h_from
    numerator = float(direction @ (g_y - g_to))
    denominator = float(direction @ (g_to - g_from))
    if denominator <= 0.0:
        return 0.0
    weight = numerator / denominator
    return weight if math.isfinite(weight) else 0.0


def _ref_dore_step(op, y, state, r):
    plain = _ref_plain_step(op, y, state, r)
    s_hat, h_hat, g_hat = plain.theta_curr.s, plain.h_curr, plain.g_curr
    alpha1 = _ref_weight(h_hat, g_hat, state.h_curr, state.g_curr, state.g_y)
    z_bar = s_hat + alpha1 * (s_hat - state.theta_curr.s)
    h_bar = h_hat + alpha1 * (h_hat - state.h_curr)
    g_bar = g_hat + alpha1 * (g_hat - state.g_curr)
    alpha2 = _ref_weight(h_bar, g_bar, state.h_prev, state.g_prev, state.g_y)
    z_tilde = z_bar + alpha2 * (z_bar - state.theta_prev.s)
    s_tilde = hard_threshold(z_tilde, r)
    h_tilde = op.apply(s_tilde)
    g_tilde = op.gram_solve(h_tilde)
    sigma2_tilde = _ref_sigma2(y, h_tilde, state.g_y, g_tilde, op.n_rows)
    if sigma2_tilde < plain.theta_curr.sigma2:
        return state.advance(ParamEstimate(s_tilde, sigma2_tilde, r),
                             h_tilde, g_tilde, "overrelaxed")
    return replace(plain, branch="ecme")


def _reference_drive(op, y, r, s0, stop, dore):
    """The loop as it ran on an 8-field state with a ParamEstimate per step:
    the reference the Iterate loop must match byte for byte."""
    y = _as_measurements(op, y)
    start = time.perf_counter()
    s = _initial_signal(op, r, s0)
    g_y = op.gram_solve(y)
    h = op.apply(s)
    g = op.gram_solve(h)
    theta = ParamEstimate(s, _ref_sigma2(y, h, g_y, g, op.n_rows), r)
    state = _RefState(theta, theta, h, g, h, g, g_y)
    trace = [op.n_rows * theta.sigma2]
    branches = [] if dore else None
    iterations = 0
    converged = False
    while not converged and iterations < stop.max_iter:
        if not dore or iterations < 2:
            state = _ref_plain_step(op, y, state, r)
        else:
            state = _ref_dore_step(op, y, state, r)
            branches.append(state.branch)
        iterations += 1
        trace.append(op.n_rows * state.theta_curr.sigma2)
        step_ssq = float(np.sum((state.theta_curr.s - state.theta_prev.s) ** 2))
        converged = step_ssq / op.n_cols < stop.tol
    return ReconstructionResult(state.theta_curr, trace, iterations, converged,
                                time.perf_counter() - start, branches)


class _RefColumns:
    """The solved columns of one run, kept per column in a dict.

    Each set of columns not seen before is solved by one block call of each
    operator method, as the library's cache does; z, H s and
    (H H^T)^{-1} H s are then products of the values of s with the stacked
    columns of its support, in column order.  A set that would take the
    dict past N m numbers, as many as H holds, ends it: from then on the
    run makes vector calls."""

    def __init__(self, op, y):
        self.op = op
        self.g_y = op.gram_solve(y)
        self.q_y = op.apply_adjoint(self.g_y)
        self.limit = op.n_rows * op.n_cols // (2 * op.n_rows + op.n_cols)
        self.columns = {}

    def _stack(self, s, part, width):
        """The product for s, or None once the dict is given up."""
        support = np.flatnonzero(s)
        new = [j for j in support.tolist() if j not in self.columns]
        if new and len(self.columns) + len(new) > self.limit:
            self.columns = None
        if self.columns is None:
            return None
        if new:
            unit = np.zeros((self.op.n_cols, len(new)))
            unit[new, np.arange(len(new))] = 1.0
            h = self.op.apply(unit)
            p = self.op.gram_solve(h)
            q = self.op.apply_adjoint(p)
            for i, j in enumerate(new):
                self.columns[j] = (np.concatenate([h[:, i], p[:, i]]), q[:, i].copy())
        rows = [self.columns[j][part] for j in support.tolist()]
        return np.dot(s[support], np.array(rows).reshape(support.size, width))

    def images(self, s):
        hp = None if self.columns is None else self._stack(s, 0, 2 * self.op.n_rows)
        if hp is None:
            h = self.op.apply(s)
            return h, self.op.gram_solve(h)
        return hp[:self.op.n_rows], hp[self.op.n_rows:]

    def refine(self, s, g):
        q = None if self.columns is None else self._stack(s, 1, self.op.n_cols)
        if q is None:
            return s + self.op.apply_adjoint(self.g_y - g)
        return s + self.q_y - q


def _ref_cached_plain_step(columns, y, state, r):
    s_next = hard_threshold(columns.refine(state.theta_curr.s, state.g_curr), r)
    h_next, g_next = columns.images(s_next)
    sigma2 = _ref_sigma2(y, h_next, state.g_y, g_next, y.size)
    return state.advance(ParamEstimate(s_next, sigma2, r), h_next, g_next)


def _ref_cached_dore_step(columns, y, state, r):
    plain = _ref_cached_plain_step(columns, y, state, r)
    s_hat, h_hat, g_hat = plain.theta_curr.s, plain.h_curr, plain.g_curr
    alpha1 = _ref_weight(h_hat, g_hat, state.h_curr, state.g_curr, state.g_y)
    z_bar = s_hat + alpha1 * (s_hat - state.theta_curr.s)
    h_bar = h_hat + alpha1 * (h_hat - state.h_curr)
    g_bar = g_hat + alpha1 * (g_hat - state.g_curr)
    alpha2 = _ref_weight(h_bar, g_bar, state.h_prev, state.g_prev, state.g_y)
    z_tilde = z_bar + alpha2 * (z_bar - state.theta_prev.s)
    s_tilde = hard_threshold(z_tilde, r)
    h_tilde, g_tilde = columns.images(s_tilde)
    sigma2_tilde = _ref_sigma2(y, h_tilde, state.g_y, g_tilde, y.size)
    if sigma2_tilde < plain.theta_curr.sigma2:
        return state.advance(ParamEstimate(s_tilde, sigma2_tilde, r),
                             h_tilde, g_tilde, "overrelaxed")
    return replace(plain, branch="ecme")


def _reference_cached_drive(op, y, r, s0, stop, dore):
    """The loop on rows that are not orthonormal, with its images from a
    per-run dict of solved columns: the reference the cached loop must
    match byte for byte."""
    y = _as_measurements(op, y)
    start = time.perf_counter()
    s = _initial_signal(op, r, s0)
    columns = _RefColumns(op, y)
    h, g = columns.images(s)
    theta = ParamEstimate(s, _ref_sigma2(y, h, columns.g_y, g, op.n_rows), r)
    state = _RefState(theta, theta, h, g, h, g, columns.g_y)
    trace = [op.n_rows * theta.sigma2]
    branches = [] if dore else None
    iterations = 0
    converged = False
    while not converged and iterations < stop.max_iter:
        if not dore or iterations < 2:
            state = _ref_cached_plain_step(columns, y, state, r)
        else:
            state = _ref_cached_dore_step(columns, y, state, r)
            branches.append(state.branch)
        iterations += 1
        trace.append(op.n_rows * state.theta_curr.sigma2)
        step_ssq = float(np.sum((state.theta_curr.s - state.theta_prev.s) ** 2))
        converged = step_ssq / op.n_cols < stop.tol
    return ReconstructionResult(state.theta_curr, trace, iterations, converged,
                                time.perf_counter() - start, branches)


_RUNS = {"ecme": ecme_run, "iht": iht_run, "dore": dore_run}
_LOOP_STOP = StoppingRule(max_iter=150)


@cache
def _dft_haar_operator():
    """Side-32 partial DFT x Haar, 10 radial lines: 281 x 1024, orthonormal rows."""
    return phantom_problem(32, 10).operator


@st.composite
def _loop_cases(draw, warm_starts=True, kinds=("dense", "dct", "dft-haar")):
    """A solver, an operator of one of ``kinds`` it accepts, noisy scaled
    measurements, r, and s0."""
    methods = sorted(_RUNS) if set(kinds) - {"dense"} else ["dore", "ecme"]
    method = draw(st.sampled_from(methods))
    if method == "iht":
        kinds = tuple(kind for kind in kinds if kind != "dense")
    kind = draw(st.sampled_from(kinds))
    noise = draw(st.sampled_from((0.0, 0.01, 0.5)))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dft-haar":
        op = _dft_haar_operator()
    else:
        n = int(rng.integers(8, 31))
        m = int(rng.integers(n + 4, 3 * n + 1))
        op = (DenseOperator(rng.standard_normal((n, m))) if kind == "dense"
              else PartialDctOperator(m, np.sort(rng.choice(m, size=n, replace=False))))
    r = int(rng.integers(1, op.n_rows // 3 + 1))
    truth = hard_threshold(rng.standard_normal(op.n_cols), r)
    y = scale * (op.apply(truth) + noise * rng.standard_normal(op.n_rows))
    warm = warm_starts and draw(st.booleans())
    s0 = scale * rng.standard_normal(op.n_cols) if warm else None
    return method, op, y, r, s0


def _run_bytes(res):
    return (res.estimate.s.tobytes(), np.float64(res.estimate.sigma2).tobytes(),
            np.array(res.trace).tobytes(), res.iterations, res.converged,
            res.branches)


@settings(max_examples=100, deadline=None)
@given(case=_loop_cases())
def test_loop_matches_reference_drive(case):
    method, op, y, r, s0 = case
    res = _RUNS[method](op, y, r, s0=s0, stop=_LOOP_STOP)
    ref = _reference_drive(op, y, r, s0, _LOOP_STOP, dore=method == "dore")
    assert _run_bytes(res) == _run_bytes(ref)


@settings(max_examples=100, deadline=None)
@given(case=_loop_cases(kinds=("dense",)))
def test_cached_loop_matches_reference_drive(case):
    """The loop on the cache of solved columns, its size gate lowered so
    these small H take it, against the reference of the cached arithmetic."""
    method, op, y, r, s0 = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recon, "_CACHE_MIN_ENTRIES", 0)
        res = _RUNS[method](op, y, r, s0=s0, stop=_LOOP_STOP)
    ref = _reference_cached_drive(op, y, r, s0, _LOOP_STOP, dore=method == "dore")
    assert _run_bytes(res) == _run_bytes(ref)


@settings(max_examples=200, deadline=None)
@given(case=_loop_cases(warm_starts=False))
def test_objective_trace_is_monotone(case):
    method, op, y, r, _ = case
    trace = np.asarray(_RUNS[method](op, y, r, stop=_LOOP_STOP).trace)
    assert np.max(np.diff(trace)) <= 1e-12 * trace[0]
