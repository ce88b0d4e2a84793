"""Sparsity selection: USS score, brute-force oracle, golden-section, ADORE."""

import math

import numpy as np
import pytest

from sparserecon import (
    DenseOperator,
    InputError,
    SizeGuardError,
    UssScorer,
    adore_run,
    exact_ml_bruteforce,
    golden_section_r_search,
    hard_threshold,
    StoppingRule,
    uss_objective,
)


def _planted(rng, n, m, r_true, noise=0.0):
    op = DenseOperator(rng.standard_normal((n, m)))
    truth = np.zeros(m)
    sup = rng.choice(m, size=r_true, replace=False)
    truth[sup] = rng.standard_normal(r_true) + np.sign(rng.standard_normal(r_true))
    y = op.apply(truth)
    if noise > 0:
        y = y + noise * rng.standard_normal(n)
    return op, y, truth


# ------------------------------------------------------------------------ USS

def test_uss_zero_level_scores_zero():
    rng = np.random.default_rng(0)
    op, y, _ = _planted(rng, 8, 14, 2)
    scorer = UssScorer(op, y)
    assert scorer.evaluate(0, scorer.baseline).uss_value == pytest.approx(0.0, abs=1e-12)


def test_uss_scale_invariance():
    rng = np.random.default_rng(1)
    op, y, _ = _planted(rng, 8, 14, 2, noise=0.1)
    base = UssScorer(op, y)
    sigma2 = 0.37 * base.baseline
    reference = base.evaluate(3, sigma2).uss_value
    for c in (-3.0, 0.01, 7.0):
        scaled = UssScorer(op, c * y)
        value = scaled.evaluate(3, c * c * sigma2).uss_value
        assert value == pytest.approx(reference, rel=1e-12)


def test_uss_zero_measurements_rejected(toy_operator):
    with pytest.raises(InputError):
        uss_objective(toy_operator, np.zeros(2), 1, 0.5)


def test_uss_infinite_sentinel_ranking():
    rng = np.random.default_rng(2)
    op, y, _ = _planted(rng, 10, 16, 2)
    scorer = UssScorer(op, y)
    perfect_small = scorer.evaluate(2, 0.0)
    perfect_big = scorer.evaluate(4, 0.0)
    finite = scorer.evaluate(3, 0.5 * scorer.baseline)
    assert math.isinf(perfect_small.uss_value)
    assert perfect_small.sort_key > perfect_big.sort_key  # smaller r wins
    assert perfect_big.sort_key > finite.sort_key
    # at r = N - 2 a zero-variance fit scores finite
    edge = scorer.evaluate(op.n_rows - 2, 0.0)
    assert math.isfinite(edge.uss_value)
    # and beyond that it diverges to -inf
    low = scorer.evaluate(op.n_rows - 1, 0.0)
    assert low.uss_value == -math.inf
    assert finite.sort_key > low.sort_key


def test_uss_evaluation_matches_recomputation():
    rng = np.random.default_rng(3)
    op, y, _ = _planted(rng, 9, 15, 2, noise=0.2)
    scorer = UssScorer(op, y)
    n, m = op.n_rows, op.n_cols
    for r in range(0, 5):
        sigma2 = (0.1 + 0.2 * r) * scorer.baseline
        got = scorer.evaluate(r, sigma2).uss_value
        expected = (-0.5 * r * math.log(n / m)
                    - 0.5 * (n - r - 2) * math.log(sigma2 / scorer.baseline))
        assert got == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------------ brute-force ML

def test_bruteforce_square_full_rank_zero_variance():
    rng = np.random.default_rng(4)
    op = DenseOperator(rng.standard_normal((5, 5)))
    y = rng.standard_normal(5)
    est = exact_ml_bruteforce(op, y, 5)
    assert est.sigma2 <= 1e-20


def test_bruteforce_r_zero_baseline():
    rng = np.random.default_rng(5)
    op, y, _ = _planted(rng, 6, 10, 2)
    est = exact_ml_bruteforce(op, y, 0)
    scorer = UssScorer(op, y)
    assert est.sigma2 == pytest.approx(scorer.baseline, rel=1e-12)
    assert not est.s.any()


def test_bruteforce_recovers_planted_signal():
    rng = np.random.default_rng(6)
    op, y, truth = _planted(rng, 8, 12, 2)
    est = exact_ml_bruteforce(op, y, 2)
    assert est.sigma2 <= 1e-18
    assert np.allclose(est.s, truth, atol=1e-8)


def test_bruteforce_accepts_raw_matrix():
    rng = np.random.default_rng(40)
    op, y, _ = _planted(rng, 6, 9, 2)
    from_op = exact_ml_bruteforce(op, y, 2)
    from_matrix = exact_ml_bruteforce(op.matrix, y, 2)
    assert np.array_equal(from_op.s, from_matrix.s)
    assert from_op.sigma2 == from_matrix.sigma2


def test_bruteforce_guard():
    rng = np.random.default_rng(7)
    op = DenseOperator(rng.standard_normal((10, 40)))
    with pytest.raises(SizeGuardError):
        exact_ml_bruteforce(op, rng.standard_normal(10), 12)


# --------------------------------------------------------------- golden search

@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_bruteforce_non_finite_measurements_rejected(entry, toy_operator):
    with pytest.raises(InputError, match="finite"):
        exact_ml_bruteforce(toy_operator, np.array([1.0, entry]), 1)


def test_golden_section_unimodal_exact():
    calls = []

    def f(r):
        calls.append(r)
        return -(r - 17) ** 2

    assert golden_section_r_search(f, 64, 1) == 17
    assert len(calls) == len(set(calls))  # cached: no r evaluated twice


@pytest.mark.parametrize("r_max", [5, 11, 32, 64, 100, 257])
def test_golden_section_unimodal_random_peaks(r_max):
    rng = np.random.default_rng(r_max)
    for peak in rng.integers(0, r_max + 1, size=8):
        result = golden_section_r_search(lambda r: -abs(r - int(peak)), r_max, 1)
        assert result == peak


def test_golden_section_constant_evaluator_call_count():
    for r_max, res in ((64, 1), (100, 1), (64, 8), (500, 25)):
        calls = []

        def f(r):
            calls.append(r)
            return 1.0

        golden_section_r_search(f, r_max, res)
        budget = math.ceil(1.44 * math.log2(r_max / res)) + 2
        assert len(calls) <= budget, (r_max, res, len(calls))


def test_golden_section_respects_resolution():
    evaluated = []

    def f(r):
        evaluated.append(r)
        return -(r - 40) ** 2

    result = golden_section_r_search(f, 256, 64)
    # coarse resolution: few probes, result among them
    assert len(evaluated) <= math.ceil(1.44 * math.log2(256 / 64)) + 2
    assert result in evaluated


def test_golden_section_validation():
    with pytest.raises(InputError):
        golden_section_r_search(lambda r: r, 10, 0)
    with pytest.raises(InputError):
        golden_section_r_search(lambda r: r, 10, 10)


# ----------------------------------------------- selection oracle (tiny case)

def test_uss_bruteforce_selects_true_sparsity():
    rng = np.random.default_rng(8)
    op, y, truth = _planted(rng, 8, 10, 2)
    scorer = UssScorer(op, y)
    keys = {}
    for r in range(0, 5):  # ceil(N/2) = 4
        est = exact_ml_bruteforce(op, y, r)
        keys[r] = scorer.evaluate(r, est.sigma2).sort_key
    best = max(keys, key=lambda r: keys[r])
    assert best == 2
    # unique: strictly above every other level
    assert all(keys[r] < keys[2] for r in keys if r != 2)


# ------------------------------------------------------------------ adore_run

def test_adore_selects_one_sparse_level(bench_dct_dense):
    truth = np.zeros(32)
    truth[9] = 2.0
    y = bench_dct_dense.apply(truth)
    result = adore_run(bench_dct_dense, y, resolution=1,
                       stop=StoppingRule(tol=1e-26, max_iter=4000))
    assert result.r_selected == 1
    assert np.linalg.norm(result.final.estimate.s - truth) <= 1e-8
    n = bench_dct_dense.n_rows
    expected = 1.4 * (math.log2(n / 1) - 1)
    assert expected - 3 <= result.dore_runs <= expected + 3
    probed = {e.r for e in result.evaluations}
    assert result.dore_runs == len(probed - {0})
    assert len(probed) <= 1.44 * math.log2(n / 1) + 4


def test_adore_matches_exhaustive_uss_scan(bench_dct_dense):
    # golden-section with the solver-surrogate score must land on the same
    # level as scoring every r in [0, ceil(N/2)] exhaustively
    truth = np.zeros(32)
    truth[21] = -1.4
    y = bench_dct_dense.apply(truth)
    stop = StoppingRule(tol=1e-26, max_iter=4000)
    scorer = UssScorer(bench_dct_dense, y)
    keys = {0: scorer.evaluate(0, scorer.baseline).sort_key}
    from sparserecon import dore_run

    for r in range(1, math.ceil(bench_dct_dense.n_rows / 2) + 1):
        sigma2 = dore_run(bench_dct_dense, y, r, stop=stop).estimate.sigma2
        keys[r] = scorer.evaluate(r, sigma2).sort_key
    exhaustive_best = max(keys, key=lambda r: (keys[r], -r))
    result = adore_run(bench_dct_dense, y, resolution=1, stop=stop)
    assert result.r_selected == exhaustive_best == 1


def test_adore_noisy_measurements_select_finite_scores():
    rng = np.random.default_rng(9)
    op, y, _ = _planted(rng, 12, 20, 3, noise=0.4)
    result = adore_run(op, y, resolution=1)
    finite = [e for e in result.evaluations if math.isfinite(e.uss_value)]
    assert finite  # noise keeps the fit imperfect at small r
    assert 0 <= result.r_selected <= math.ceil(op.n_rows / 2)


def test_adore_json_payload(bench_dct_dense):
    truth = np.zeros(32)
    truth[4] = 1.0
    y = bench_dct_dense.apply(truth)
    result = adore_run(bench_dct_dense, y, resolution=2)
    payload = result.to_json_dict()
    assert payload["r_selected"] == result.r_selected
    assert len(payload["probed"]) == len(result.evaluations)
    assert payload["dore_runs"] == result.dore_runs
