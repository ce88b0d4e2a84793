"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are pinned here and nowhere else.
Beside criteria 3 and 4, two property tests carry their claims from the
golden matrix to drawn ones, at every level the certificate guarantees,
the second also to approximately sparse signals; beside criterion 7, one
carries row-transform invariance from the single step to the solvers'
supports, iteration counts and ADORE's selection; beside criterion 8, one
carries the USS oracle's selection to URP matrices drawn by hypothesis.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sparserecon import (
    BenchConfig,
    DenseOperator,
    ParamEstimate,
    PartialDctOperator,
    StoppingRule,
    UssScorer,
    adore_run,
    benchmark_sweep,
    certify,
    dore_run,
    dore_weight,
    ecme_run,
    ecme_step,
    exact_ml_bruteforce,
    hard_threshold,
    iht_run,
    min_ssq,
    partial_dct_matrix,
    ric,
    sigma2_hat,
    spark,
    support,
    urp,
    verify_fixed_point,
    weighted_error,
)

# Desk-scale phantom phase transition, calibrated once on the frozen
# radial-mask convention and kept as a regression value: recovery fails at
# N/m = 0.357 (26 lines) and succeeds at N/m = 0.381 (28 lines).
TRANSITION_N_OVER_M = 0.37
SWEEP_LINES = (7, 10, 14, 18, 22, 26, 28)


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:02d} ({name}): FAIL "
              f"[{time.perf_counter() - start:.1f}s]")
        raise
    print(f"\n[acceptance] criterion {num:02d} ({name}): PASS "
          f"[{time.perf_counter() - start:.1f}s]")


def test_criterion_01_golden_matrix_values(bench_dct_matrix):
    with criterion(1, "golden 21x32 DCT submatrix measures"):
        start = time.perf_counter()
        rho, _ = min_ssq(bench_dct_matrix, 2)
        gamma, _ = ric(bench_dct_matrix, 2)
        assert round(rho, 3) == 0.503
        assert round(gamma, 3) == 0.497
        assert time.perf_counter() - start < 30.0


def test_criterion_02_toy_matrix_values(toy_matrix):
    with criterion(2, "toy 2x3 matrix measures"):
        start = time.perf_counter()
        rho, _ = min_ssq(toy_matrix, 2)
        gamma, _ = ric(toy_matrix, 2)
        assert abs(rho - 1 / 3) <= 1e-12
        assert abs(gamma - 1.618) <= 1e-3
        assert spark(toy_matrix) == 3
        assert time.perf_counter() - start < 1.0


def test_criterion_03_perfect_recovery_every_support(bench_dct_operator):
    with criterion(3, "1-sparse perfect recovery, all supports/inits"):
        start = time.perf_counter()
        op = bench_dct_operator
        rng = np.random.default_rng(2024)
        stop = StoppingRule(tol=1e-20, max_iter=3000)
        worst = 0.0
        for idx in range(32):
            amplitudes = rng.standard_normal(20)
            amplitudes += np.sign(amplitudes) * 0.5  # keep away from zero
            for amp in amplitudes:
                truth = np.zeros(32)
                truth[idx] = amp
                y = op.apply(truth)
                inits = [None] + [hard_threshold(rng.standard_normal(32), 1)
                                  for _ in range(5)]
                for s0 in inits:
                    for runner in (ecme_run, dore_run):
                        res = runner(op, y, 1, s0=s0, stop=stop)
                        err = float(np.linalg.norm(res.estimate.s - truth))
                        worst = max(worst, err)
                        assert err <= 1e-8, (idx, amp, runner.__name__, err)
        elapsed = time.perf_counter() - start
        print(f"  worst recovery error {worst:.2e} over 7680 runs, "
              f"{elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_04_noisy_error_bound(bench_dct_operator, bench_dct_matrix):
    with criterion(4, "noisy recovery error bound with measured min 2-SSQ"):
        op = bench_dct_operator
        rho, _ = min_ssq(bench_dct_matrix, 2)
        denom = math.sqrt(rho) - math.sqrt(1.0 - rho)
        assert denom > 0
        rng = np.random.default_rng(77)
        stop = StoppingRule(tol=1e-20, max_iter=4000)
        violations = 0
        for trial in range(100):
            truth = np.zeros(32)
            truth[rng.integers(0, 32)] = rng.standard_normal() + \
                np.sign(rng.standard_normal())
            clean = op.apply(truth)
            noise = rng.standard_normal(21)
            noise *= 0.1 * np.linalg.norm(clean) / np.linalg.norm(noise)
            y = clean + noise
            res = ecme_run(op, y, 1, stop=stop)
            # truth is exactly 1-sparse, so its best 1-term approximation
            # is itself and the tail term vanishes
            noise_image = op.apply_adjoint(op.gram_solve(noise))
            bound = 2.0 * np.linalg.norm(noise_image) / denom
            if np.linalg.norm(res.estimate.s - truth) > bound:
                violations += 1
        assert violations == 0


@st.composite
def _matrix_draws(draw):
    """(kind, m, N, seed) of a small proper matrix with m/2 < N < m: half
    Gaussian, half partial DCT, since certified levels are rare among
    Gaussian draws, and N drawn down from m - 1, since they are rare far
    from square."""
    m = draw(st.integers(6, 14))
    n = m - draw(st.integers(1, m - m // 2 - 1))
    return (draw(st.sampled_from(("gaussian", "dct"))), m, n,
            draw(st.integers(0, 2**32 - 1)))


def _certified_levels(kind, m, n, seed):
    """The drawn matrix as an operator, and each (r, min 2r-SSQ) at which
    ``certify`` sets ``recovery_guaranteed``."""
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((n, m)) if kind == "gaussian"
         else partial_dct_matrix(m, np.sort(rng.choice(m, size=n, replace=False))))
    flags = certify(h, n // 2).flags
    return DenseOperator(h), [(f.r, f.rho_2r_min) for f in flags if f.recovery_guaranteed]


def _sparse_signal(rng, m, r):
    truth = np.zeros(m)
    amplitudes = rng.standard_normal(r)
    truth[rng.choice(m, size=r, replace=False)] = amplitudes + np.sign(amplitudes) * 0.5
    return truth


@settings(max_examples=60, deadline=None)
@given(draw=_matrix_draws(), seed=st.integers(0, 2**32 - 1))
@example(draw=("dct", 12, 11, 0), seed=0)  # certifies r = 1 and 2
@example(draw=("gaussian", 10, 9, 4), seed=0)  # certifies r = 1
def test_certified_levels_recover_every_sparse_signal(draw, seed):
    """Criterion 3 on drawn matrices: at each certified level, ECME and DORE
    recover r-sparse signals from zero and from random r-sparse starts."""
    op, levels = _certified_levels(*draw)
    rng = np.random.default_rng(seed)
    stop = StoppingRule(tol=1e-20, max_iter=3000)
    for r, _ in levels:
        for _ in range(4):
            truth = _sparse_signal(rng, op.n_cols, r)
            y = op.apply(truth)
            inits = [None] + [hard_threshold(rng.standard_normal(op.n_cols), r)
                              for _ in range(4)]
            for s0 in inits:
                for runner in (ecme_run, dore_run):
                    res = runner(op, y, r, s0=s0, stop=stop)
                    err = float(np.linalg.norm(res.estimate.s - truth))
                    assert err <= 1e-8, (r, runner.__name__, err)


def _noisy_sparse_signal(rng, op, r):
    """An r-sparse truth and white noise at a tenth of its image's norm."""
    truth = _sparse_signal(rng, op.n_cols, r)
    noise = rng.standard_normal(op.n_rows)
    noise *= 0.1 * np.linalg.norm(op.apply(truth)) / np.linalg.norm(noise)
    return truth, noise


def _approximately_sparse_signal(rng, op, r):
    """s, an r-sparse head plus a tail off its support, split as the truth
    s_r = the best r-term approximation of s and the noise H (s - s_r)."""
    head = _sparse_signal(rng, op.n_cols, r)
    tail = np.where(head == 0.0, rng.standard_normal(op.n_cols), 0.0)
    scale = 10.0 ** rng.uniform(-4.0, 0.3) * np.abs(head[head != 0.0]).min()
    s = head + tail * (scale / np.abs(tail).max())
    s_r = hard_threshold(s, r)
    return s_r, op.apply(s - s_r)


@settings(max_examples=60, deadline=None)
@given(draw=_matrix_draws(), seed=st.integers(0, 2**32 - 1))
@example(draw=("dct", 12, 11, 0), seed=0)
@example(draw=("gaussian", 10, 9, 4), seed=0)
def test_certified_levels_obey_the_noisy_error_bound(draw, seed):
    """Criterion 4 on drawn matrices, with rho the certified min 2r-SSQ, for
    sparse signals in white noise and, the abstract's near-optimal recovery,
    for approximately sparse signals with the tail's image as the noise."""
    op, levels = _certified_levels(*draw)
    rng = np.random.default_rng(seed)
    stop = StoppingRule(tol=1e-20, max_iter=4000)
    for r, rho in levels:
        denom = math.sqrt(rho) - math.sqrt(1.0 - rho)
        for signal in (_noisy_sparse_signal,) * 10 + (_approximately_sparse_signal,) * 4:
            truth, noise = signal(rng, op, r)
            bound = 2.0 * np.linalg.norm(op.apply_adjoint(op.gram_solve(noise))) / denom
            for runner in (ecme_run, dore_run):
                res = runner(op, op.apply(truth) + noise, r, stop=stop)
                err = float(np.linalg.norm(res.estimate.s - truth))
                assert err <= bound, (r, signal.__name__, runner.__name__, err, bound)


def test_criterion_05_monotonicity_and_stationarity():
    with criterion(5, "500-problem monotone traces + stationary fixed points"):
        rng = np.random.default_rng(5150)
        stop = StoppingRule(tol=1e-20, max_iter=3000)
        checked = 0
        converged_checked = 0
        for trial in range(500):
            m = int(rng.integers(24, 40))
            n = int(rng.integers(10, 17))
            r = int(rng.integers(1, max((m - n) // 2, 2) + 1))
            r = min(r, 5)
            if trial % 2 == 0:
                op = DenseOperator(rng.standard_normal((n, m)))
            else:
                rows = np.sort(rng.choice(m, size=n, replace=False))
                op = PartialDctOperator(m, rows)
            truth = hard_threshold(rng.standard_normal(m), r)
            y = op.apply(truth)
            if trial % 3 == 0:
                y = y + 0.1 * rng.standard_normal(n)
            for runner in (ecme_run, dore_run):
                res = runner(op, y, r, stop=stop)
                trace = np.asarray(res.trace)
                assert np.all(np.diff(trace) <= 1e-12), (trial, runner.__name__)
                checked += 1
                if res.converged:
                    report = verify_fixed_point(op, y, res.estimate.s, r,
                                                rtol=1e-6)
                    assert report.ok, (trial, runner.__name__,
                                       report.violations)
                    converged_checked += 1
        print(f"  {checked} traces checked, "
              f"{converged_checked} converged fixed points verified")
        assert checked == 1000


def test_criterion_06_iht_equivalence():
    with criterion(6, "IHT/plain-path equivalence on orthonormal rows"):
        rng = np.random.default_rng(66)
        for trial in range(100):
            m = int(rng.integers(24, 64))
            n = int(rng.integers(m // 3, m // 2 + 1))
            rows = np.sort(rng.choice(m, size=n, replace=False))
            op = PartialDctOperator(m, rows)
            r = int(rng.integers(1, max(n // 4, 2)))
            truth = hard_threshold(rng.standard_normal(m), r)
            y = op.apply(truth) + 0.05 * rng.standard_normal(n)
            stop = StoppingRule(max_iter=300)
            a = ecme_run(op, y, r, stop=stop)
            b = iht_run(op, y, r, stop=stop)
            trace_diff = np.abs(np.asarray(a.trace) - np.asarray(b.trace))
            assert trace_diff.max() <= 1e-12
            est_diff = np.abs(a.estimate.s - b.estimate.s)
            assert est_diff.max() <= 1e-12
            assert a.iterations == b.iterations


def test_criterion_07_transform_robustness():
    with criterion(7, "row-transform invariance of the iteration"):
        rng = np.random.default_rng(777)
        stop = StoppingRule(tol=1e-20, max_iter=2000)
        for trial in range(50):
            m = int(rng.integers(20, 30))
            n = int(rng.integers(8, 12))
            r = int(rng.integers(1, 4))
            H = rng.standard_normal((n, m))
            truth = hard_threshold(rng.standard_normal(m), r)
            y = H @ truth
            if trial % 2 == 0:
                y = y + 0.05 * rng.standard_normal(n)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            G = q @ np.diag(rng.uniform(0.5, 2.0, size=n))
            op_a, op_b = DenseOperator(H), DenseOperator(G @ H)
            ya, yb = y, G @ y
            # support sequence, step by step
            ta = ParamEstimate(np.zeros(m), sigma2_hat(op_a, ya, np.zeros(m)), r)
            tb = ParamEstimate(np.zeros(m), sigma2_hat(op_b, yb, np.zeros(m)), r)
            for _ in range(40):
                ta = ecme_step(op_a, ya, ta)
                tb = ecme_step(op_b, yb, tb)
                assert np.array_equal(support(ta.s), support(tb.s)), trial
            res_a = ecme_run(op_a, ya, r, stop=stop)
            res_b = ecme_run(op_b, yb, r, stop=stop)
            assert np.linalg.norm(res_a.estimate.s - res_b.estimate.s) <= 1e-8


def _step_ssq(run, op, y, r, k):
    """||s_k - s_(k-1)||^2 / m: what the stopping rule compares with its
    tol after update k (the path does not depend on tol)."""
    s_k, s_prev = (run(op, y, r, stop=StoppingRule(tol=1e-300, max_iter=j)).estimate.s
                   for j in (k, k - 1))
    return float(np.sum((s_k - s_prev) ** 2)) / op.n_cols


def _assert_same_outcome(run, problems, r):
    """Equal supports and convergence flags, and equal iteration counts
    unless the counts differ by one at a step whose stopping quantity lies
    within a factor 2 of tol on both sides, where the stopping test decides
    the count by rounding (about 1 draw in 1,000, always a DORE run; the
    stopping rule is ROADMAP item 2)."""
    (op, y), (op_t, y_t) = problems
    res, res_t = run(op, y, r), run(op_t, y_t, r)
    assert np.array_equal(support(res.estimate.s), support(res_t.estimate.s))
    assert res.converged == res_t.converged
    if res.iterations != res_t.iterations:
        k = min(res.iterations, res_t.iterations)
        assert abs(res.iterations - res_t.iterations) == 1, run.__name__
        tol = StoppingRule().tol
        for o, yy in problems:
            assert tol / 2 <= _step_ssq(run, o, yy, r, k) <= 2 * tol, run.__name__


@settings(max_examples=60, deadline=None)
@given(m=st.integers(16, 40), rows=st.floats(0.3, 0.7), r=st.integers(1, 4),
       noisy=st.booleans(), seed=st.integers(0, 2**32 - 1))
# dore_run stops after 14 updates on one side and 13 on the other: the
# stopping quantity after update 13 is 1.001e-14 and 9.4e-15
@example(m=26, rows=0.5744298129076433, r=4, noisy=True, seed=4113023846)
def test_row_transform_keeps_solver_outcomes(m, rows, r, noisy, seed):
    """Criterion 7 on the solvers as they run, under the default stopping
    rule: for y' = A y and H' = A H with A = Q1 diag(sigma) Q2 and sigma in
    [1/e, e], ``ecme_run``, ``dore_run`` and ``adore_run`` give the same
    supports, iteration counts (see ``_assert_same_outcome``), selected
    level and number of solver runs."""
    rng = np.random.default_rng(seed)
    n = max(int(rows * m), 2 * r)
    h = rng.standard_normal((n, m))
    y = h @ hard_threshold(rng.standard_normal(m), r)
    if noisy:
        y = y + 0.05 * rng.standard_normal(n)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, n))) @ q2
    problems = ((DenseOperator(h), y), (DenseOperator(a @ h), a @ y))
    for run in (ecme_run, dore_run):
        _assert_same_outcome(run, problems, r)
    auto, auto_t = (adore_run(op, yy) for op, yy in problems)
    assert (auto.r_selected, auto.dore_runs) == (auto_t.r_selected, auto_t.dore_runs)
    if auto.r_selected:
        _assert_same_outcome(dore_run, problems, auto.r_selected)


def test_criterion_08_uss_oracle_equivalence():
    with criterion(8, "exact-ML USS uniquely selects the true support size"):
        start = time.perf_counter()
        rng = np.random.default_rng(888)
        for trial in range(50):
            m = int(rng.integers(8, 13))
            r_true = int(rng.integers(1, 4))
            n_min = max(2 * r_true, r_true + 3)
            n = int(rng.integers(n_min, m))
            H = rng.standard_normal((n, m))
            assert urp(H)
            op = DenseOperator(H)
            truth = np.zeros(m)
            sup = rng.choice(m, size=r_true, replace=False)
            truth[sup] = rng.standard_normal(r_true) + \
                np.sign(rng.standard_normal(r_true))
            y = op.apply(truth)
            scorer = UssScorer(op, y)
            keys = {}
            ml_at_true = None
            for r in range(0, math.ceil(n / 2) + 1):
                est = exact_ml_bruteforce(op, y, r)
                keys[r] = scorer.evaluate(r, est.sigma2).sort_key
                if r == r_true:
                    ml_at_true = est
            best = max(keys, key=lambda r: keys[r])
            assert best == r_true, (trial, keys)
            assert all(keys[r] < keys[r_true] for r in keys if r != r_true)
            assert np.linalg.norm(ml_at_true.s - truth) <= 1e-8
        assert time.perf_counter() - start < 300.0


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_uss_oracle_selects_the_sparsest_level_on_urp_draws(data, seed):
    """Criterion 8's three claims on URP matrices drawn by hypothesis."""
    r_true = data.draw(st.integers(1, 3), label="r_true")
    n_min = max(2 * r_true, r_true + 3)
    m = data.draw(st.integers(max(6, n_min + 1), 14), label="m")
    n = data.draw(st.integers(n_min, m - 1), label="N")
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, m))
    assume(urp(H))
    op = DenseOperator(H)
    truth = _sparse_signal(rng, m, r_true)
    y = op.apply(truth)
    scorer = UssScorer(op, y)
    keys, estimates = {}, {}
    for r in range(math.ceil(n / 2) + 1):
        estimates[r] = exact_ml_bruteforce(op, y, r)
        keys[r] = scorer.evaluate(r, estimates[r].sigma2).sort_key
    assert all(keys[r] < keys[r_true] for r in keys if r != r_true), keys
    assert np.linalg.norm(estimates[r_true].s - truth) <= 1e-8


def test_criterion_09_line_search_optimality():
    with criterion(9, "closed-form weights beat dense scalar sweeps"):
        rng = np.random.default_rng(999)
        for trial in range(200):
            m = int(rng.integers(18, 28))
            n = int(rng.integers(8, 12))
            r = int(rng.integers(1, 4))
            if trial % 2 == 0:
                op = DenseOperator(rng.standard_normal((n, m)))
            else:
                rows = np.sort(rng.choice(m, size=n, replace=False))
                op = PartialDctOperator(m, rows)
            truth = hard_threshold(rng.standard_normal(m), r)
            y = op.apply(truth) + 0.1 * rng.standard_normal(n)
            # two plain steps to obtain the trailing iterates
            t0 = ParamEstimate(np.zeros(m), sigma2_hat(op, y, np.zeros(m)), r)
            t1 = ecme_step(op, y, t0)
            t2 = ecme_step(op, y, t1)
            t_hat = ecme_step(op, y, t2)
            g_y = op.gram_solve(y)
            h_hat = op.apply(t_hat.s)
            g_hat = op.gram_solve(h_hat)
            h_curr = op.apply(t2.s)
            g_curr = op.gram_solve(h_curr)
            alpha1 = dore_weight(h_hat, g_hat, h_curr, g_curr, g_y)
            d1 = t_hat.s - t2.s
            best1 = weighted_error(op, y, t_hat.s + alpha1 * d1)
            for a in rng.uniform(-3.0, 3.0, size=100):
                assert best1 <= weighted_error(op, y, t_hat.s + a * d1) + 1e-10
            z_bar = t_hat.s + alpha1 * d1
            h_bar = h_hat + alpha1 * (h_hat - h_curr)
            g_bar = g_hat + alpha1 * (g_hat - g_curr)
            h_prev = op.apply(t1.s)
            g_prev = op.gram_solve(h_prev)
            alpha2 = dore_weight(h_bar, g_bar, h_prev, g_prev, g_y)
            d2 = z_bar - t1.s
            best2 = weighted_error(op, y, z_bar + alpha2 * d2)
            for a in rng.uniform(-3.0, 3.0, size=100):
                assert best2 <= weighted_error(op, y, z_bar + a * d2) + 1e-10


def test_criterion_10_phantom_reproduction():
    with criterion(10, "desk-scale phantom sweep past the frozen transition"):
        start = time.perf_counter()
        config = BenchConfig(side=64, lines=SWEEP_LINES,
                             methods=("iht", "dore", "mn"), max_iter=6000)
        reports = benchmark_sweep(config)
        ratios = sorted({rep.n_over_m for rep in reports})
        assert ratios[0] <= 0.11 and ratios[-1] >= 0.37  # sweep spans the range
        by_cell = {(rep.method, round(rep.n_over_m, 3)): rep
                   for rep in reports}
        past = [rho for rho in ratios if rho > TRANSITION_N_OVER_M]
        below = [rho for rho in ratios if rho <= TRANSITION_N_OVER_M]
        assert past, "no density past the frozen transition"
        for rho in past:
            key = round(rho, 3)
            assert by_cell[("iht", key)].psnr_db > 100.0
            assert by_cell[("dore", key)].psnr_db > 100.0
            assert by_cell[("mn", key)].psnr_db < 40.0
            assert 2 * by_cell[("dore", key)].iterations \
                <= by_cell[("iht", key)].iterations
        # regression on the transition location: the densest cell below the
        # frozen value still fails to reach exact recovery
        worst_below = round(max(below), 3)
        assert by_cell[("iht", worst_below)].psnr_db < 100.0
        elapsed = time.perf_counter() - start
        print(f"  transition bracketed in ({max(below):.3f}, {min(past):.3f}]"
              f", sweep {elapsed:.1f}s")
        assert elapsed < 300.0


def test_criterion_11_adore_selection(bench_dct_dense):
    with criterion(11, "automatic sparsity selection on the golden matrix"):
        rng = np.random.default_rng(1111)
        truth = np.zeros(32)
        truth[rng.integers(0, 32)] = 1.0 + rng.random()
        y = bench_dct_dense.apply(truth)
        result = adore_run(bench_dct_dense, y, resolution=1,
                           stop=StoppingRule(tol=1e-20, max_iter=3000))
        assert result.r_selected == 1
        assert np.linalg.norm(result.final.estimate.s - truth) <= 1e-8
        expected_runs = 1.4 * (math.log2(bench_dct_dense.n_rows / 1) - 1)
        assert expected_runs - 3 <= result.dore_runs <= expected_runs + 3
