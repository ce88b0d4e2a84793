"""Sparsity selection: USS score, brute-force oracle, golden-section, ADORE."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparserecon import (
    DenseOperator,
    InputError,
    ParamEstimate,
    ReconstructionResult,
    SizeGuardError,
    UssScorer,
    adore_run,
    dore_run,
    exact_ml_bruteforce,
    golden_section_r_search,
    hard_threshold,
    StoppingRule,
)
from sparserecon.model_selection import GOLDEN


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
        UssScorer(toy_operator, np.zeros(2))


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


def test_uss_nan_variance_rejected():
    rng = np.random.default_rng(28)
    op, y, _ = _planted(rng, 8, 12, 2)
    with pytest.raises(InputError, match="sigma2_est must be nonnegative"):
        UssScorer(op, y).evaluate(2, math.nan)


def _reference_sort_key(evaluation):
    """The earlier three-category key: -inf, then finite values, then +inf
    ordered by growth rate."""
    if math.isinf(evaluation.uss_value):
        if evaluation.uss_value > 0:
            return (2.0, float(evaluation.growth_rate))
        return (0.0, 0.0)
    return (1.0, evaluation.uss_value)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), extra=st.integers(0, 12),
       fractions=st.lists(st.sampled_from([0.0, 0.0, 1e-13, 0.3, 0.3, 0.7, 1.0, 2.0]),
                          min_size=1, max_size=14))
def test_sort_key_orders_as_reference(n, extra, fractions):
    """The (value, growth) key orders every pair of scored levels as the
    earlier key did, and the search's argmax picks the same level."""
    op = DenseOperator(np.random.default_rng(n + 13 * extra).standard_normal((n, n + extra)))
    scorer = UssScorer(op, np.ones(n))
    scored = [scorer.evaluate(r, f * scorer.baseline)
              for r, f in enumerate(fractions[: n + extra + 1])]

    def sign(a, b):
        return (a > b) - (a < b)

    for a in scored:
        for b in scored:
            assert sign(a.sort_key, b.sort_key) \
                == sign((_reference_sort_key(a), -a.r), (_reference_sort_key(b), -b.r))
    new = max(scored, key=lambda e: (e.sort_key, -e.r))
    old = max(scored, key=lambda e: (_reference_sort_key(e), -e.r))
    assert new.r == old.r


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


@pytest.mark.parametrize("r", [1.5, np.float64(1.0)], ids=["float", "numpy-float"])
def test_bruteforce_non_integer_level_rejected(toy_operator, r):
    with pytest.raises(InputError, match="sparsity level r must be an integer"):
        exact_ml_bruteforce(toy_operator, np.array([1.0, 2.0]), r)


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
    assert golden_section_r_search(lambda r: r, 10, 10) == \
        golden_section_r_search(lambda r: r, 10, 9)


@pytest.mark.parametrize("r_max, resolution, name", [
    (2.5, 1, "r_max"), (np.float64(10.0), 1, "r_max"),
    (10, 1.5, "resolution"), (10, np.float64(2.0), "resolution"),
], ids=["r_max-float", "r_max-numpy-float", "resolution-float", "resolution-numpy-float"])
def test_golden_section_non_integer_bounds_rejected(r_max, resolution, name):
    with pytest.raises(InputError, match=f"{name} must be an integer"):
        golden_section_r_search(lambda r: -abs(r - 3), r_max, resolution)
    assert golden_section_r_search(lambda r: -abs(r - 3), np.int64(10), np.int64(1)) == 3


def _reference_golden_section_r_search(evaluator, r_max, resolution=1):
    """The search as it was before it owned its edge cases: it accepted only
    resolution in [1, r_max), and callers handled r_max = 1 themselves."""
    if r_max < 1:
        raise InputError("r_max must be at least 1")
    if not 1 <= resolution < r_max:
        raise InputError(f"resolution must lie in [1, r_max), got {resolution}")
    cache = {}

    def scored(r):
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


def _search_trace(search, keys, r_max, resolution):
    """The search's result and the order in which it probed r."""
    order = []

    def evaluator(r):
        order.append(r)
        return keys[r]

    return search(evaluator, r_max, resolution), order


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_golden_section_keeps_every_probe_sequence(data):
    # arbitrary integer keys: ties and non-unimodal shapes included
    r_max = data.draw(st.integers(2, 300), label="r_max")
    resolution = data.draw(st.integers(1, r_max - 1), label="resolution")
    keys = data.draw(st.lists(st.integers(-3, 3), min_size=r_max + 1,
                              max_size=r_max + 1), label="keys")
    assert _search_trace(golden_section_r_search, keys, r_max, resolution) == \
        _search_trace(_reference_golden_section_r_search, keys, r_max, resolution)


def test_golden_section_r_max_one_sweeps_both_levels():
    assert _search_trace(golden_section_r_search, [0.0, 0.0], 1, 1) == (0, [0, 1])
    assert _search_trace(golden_section_r_search, [0.0, 1.0], 1, 7) == (1, [0, 1])
    with pytest.raises(InputError):
        golden_section_r_search(lambda r: r, 0, 1)


@pytest.mark.parametrize("r_max", [1, 2, 3, 4, 7, 50, 257])
def test_golden_section_coarse_resolution_acts_as_r_max_minus_one(r_max):
    keys = np.random.default_rng(r_max).integers(-3, 4, size=r_max + 1).tolist()
    expected = _search_trace(golden_section_r_search, keys, r_max, max(r_max - 1, 1))
    for resolution in (r_max, r_max + 1, 10 * r_max):
        assert _search_trace(golden_section_r_search, keys, r_max, resolution) == expected


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


def _reference_adore_run(op, y, resolution=1, stop=None):
    """ADORE as it was before the probe table: a separate r_max = 1 path,
    the resolution clamp in the driver, and the r = 0 result built after the
    search."""
    y = np.asarray(y, dtype=float)
    scorer = UssScorer(op, y)
    r_max = math.ceil(op.n_rows / 2)
    runs, evaluations = {}, {}

    def evaluator(r):
        if r == 0:
            evaluation = scorer.evaluate(0, scorer.baseline)
        else:
            result = dore_run(op, y, r, stop=stop)
            runs[r] = result
            evaluation = scorer.evaluate(r, result.estimate.sigma2)
        evaluations[r] = evaluation
        return evaluation.sort_key

    start = time.perf_counter()
    if r_max == 1:
        keys = {r: evaluator(r) for r in (0, 1)}
        r_selected = max(keys, key=lambda r: (keys[r], -r))
    else:
        r_selected = _reference_golden_section_r_search(
            evaluator, r_max, min(resolution, r_max - 1)
        )
    if r_selected in runs:
        final = runs[r_selected]
    else:
        final = ReconstructionResult(
            estimate=ParamEstimate(np.zeros(op.n_cols), scorer.baseline, 0),
            trace=[op.n_rows * scorer.baseline],
            iterations=0,
            converged=True,
            elapsed_seconds=time.perf_counter() - start,
        )
    return r_selected, [evaluations[r] for r in sorted(evaluations)], final, len(runs)


def _adore_bytes(r_selected, evaluations, final, dore_runs):
    """Everything ADORE reports except the final run's wall time."""
    def f64(value):
        return np.float64(value).tobytes()

    return (
        r_selected, dore_runs,
        [(e.r, f64(e.sigma2_est), f64(e.uss_value), e.growth_rate) for e in evaluations],
        final.estimate.s.tobytes(), f64(final.estimate.sigma2), final.estimate.r,
        np.asarray(final.trace, dtype=float).tobytes(), final.iterations,
        final.converged, final.branches,
    )


def _assert_adore_matches_reference(op, y, resolution, stop=None):
    got = adore_run(op, y, resolution=resolution, stop=stop)
    fields = (got.r_selected, got.evaluations, got.final, got.dore_runs)
    reference = _reference_adore_run(op, y, resolution, stop)
    assert _adore_bytes(*fields) == _adore_bytes(*reference)
    if got.r_selected == 0:  # the empty model: no solver ran
        assert got.final.elapsed_seconds == 0.0
    return got


@pytest.mark.parametrize("resolution", [1, 2, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_adore_byte_identical_to_reference_small(n, resolution):
    rng = np.random.default_rng(1000 + n)
    selected = set()
    for noise in (0.0, 0.0, 0.3, 0.3):
        op, y, _ = _planted(rng, n, 2 * n + 3, max(1, n // 3), noise=noise)
        selected.add(_assert_adore_matches_reference(op, y, resolution).r_selected)
    if n <= 2:  # r_max = 1, and the empty model is selected at least once
        assert 0 in selected and selected <= {0, 1}


@pytest.mark.parametrize("resolution", [1, 64])
def test_adore_byte_identical_to_reference_noisy(resolution):
    rng = np.random.default_rng(77)
    for _ in range(2):
        op, y, _ = _planted(rng, 100, 256, 6, noise=0.01)
        _assert_adore_matches_reference(op, y, resolution)


def test_adore_byte_identical_to_reference_golden(bench_dct_dense):
    truth = np.zeros(32)
    truth[9] = 2.0
    y = bench_dct_dense.apply(truth)
    stop = StoppingRule(tol=1e-26, max_iter=4000)
    for resolution in (1, 2):
        _assert_adore_matches_reference(bench_dct_dense, y, resolution, stop)


def test_adore_resolution_below_one_rejected_at_every_size(toy_operator):
    y = np.array([2.0, 2.0])
    with pytest.raises(InputError, match="resolution"):
        adore_run(toy_operator, y, resolution=0)
    rng = np.random.default_rng(11)
    op, y6, _ = _planted(rng, 6, 10, 1)
    with pytest.raises(InputError, match="resolution must be at least 1"):
        adore_run(op, y6, resolution=0)
