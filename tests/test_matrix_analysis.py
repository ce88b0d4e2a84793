"""Exact matrix measures: SSQ, RIC, spark, certificates, stationarity."""

import json
import math
import tracemalloc
from itertools import chain, combinations, islice
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from sparserecon import matrix_analysis
from sparserecon.matrix_analysis import (
    MIN_SSQ_GUARD,
    MatrixCertificate,
    RecoveryFlags,
    SparsityMeasures,
)
from sparserecon import (
    DenseOperator,
    InputError,
    SizeGuardError,
    certify,
    coherence,
    ecme_run,
    exact_ml_bruteforce,
    partial_dct_matrix,
    hard_threshold,
    min_ssq,
    min_ssq_sampled,
    ric,
    ric_sampled,
    spark,
    ssq,
    StoppingRule,
    support,
    urp,
    verify_fixed_point,
)


# ------------------------------------------------------------------------ ssq

def test_ssq_square_invertible_is_one():
    rng = np.random.default_rng(0)
    H = rng.standard_normal((5, 5))
    for _ in range(5):
        s = rng.standard_normal(5)
        assert ssq(s, H) == pytest.approx(1.0, abs=1e-10)


def test_ssq_null_space_is_zero(toy_matrix):
    # columns satisfy h1 + h2 - h3 = 0, so [1, 1, -1] is in the null space
    assert ssq(np.array([1.0, 1.0, -1.0]), toy_matrix) == pytest.approx(0.0, abs=1e-12)


def test_ssq_dual_formula_cross_check(toy_matrix):
    s = np.array([1.0, -1.0, 0.0])
    full = ssq(s, toy_matrix)
    # restricted-support oracle: s_A^T H_A^T (H H^T)^{-1} H_A s_A / s_A^T s_A
    idx = support(s)
    HA = toy_matrix[:, idx]
    sA = s[idx]
    W = np.linalg.inv(toy_matrix @ toy_matrix.T)
    restricted = float(sA @ HA.T @ W @ HA @ sA) / float(sA @ sA)
    assert abs(full - restricted) <= 1e-10


def test_ssq_zero_vector_rejected(toy_matrix):
    with pytest.raises(InputError):
        ssq(np.zeros(3), toy_matrix)


def test_ssq_bounds_random():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((6, 14))
    for _ in range(25):
        s = hard_threshold(rng.standard_normal(14), int(rng.integers(1, 7)))
        if not s.any():
            continue
        assert 0.0 <= ssq(s, H) <= 1.0


# -------------------------------------------------------------------- min_ssq

def test_min_ssq_toy_value(toy_matrix):
    value, attained = min_ssq(toy_matrix, 2)
    assert abs(value - 1 / 3) <= 1e-12
    # the attaining support really achieves the value
    idx = np.asarray(attained)
    W = np.linalg.inv(toy_matrix @ toy_matrix.T)
    M = toy_matrix[:, idx].T @ W @ toy_matrix[:, idx]
    assert np.linalg.eigvalsh(M)[0] == pytest.approx(value, abs=1e-12)


def test_min_ssq_golden_matrix(bench_dct_matrix):
    value, _ = min_ssq(bench_dct_matrix, 2)
    assert round(value, 3) == 0.503
    assert value > 0.5


def test_min_ssq_r_above_n_is_zero():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((3, 9))
    value, attained = min_ssq(H, 4)
    assert value == 0.0
    assert len(attained) == 4


def test_min_ssq_monotone_in_r():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((6, 10))
    values = [min_ssq(H, r)[0] for r in range(1, 7)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-12


def test_min_ssq_row_transform_invariance():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((5, 9))
    base, _ = min_ssq(H, 2)
    s = hard_threshold(rng.standard_normal(9), 2)
    base_ssq = ssq(s, H)
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        G = q @ np.diag(rng.uniform(0.5, 2.0, size=5))
        assert abs(ssq(s, G @ H) - base_ssq) <= 1e-10
        assert abs(min_ssq(G @ H, 2)[0] - base) <= 1e-8


def test_min_ssq_enumeration_is_lower_bound_of_sampling():
    # the enumerated minimum lower-bounds the quotient of every random
    # sparse vector (100k draws, vectorized)
    rng = np.random.default_rng(5)
    H = rng.standard_normal((6, 12))
    r = 3
    exact, _ = min_ssq(H, r)
    projector = H.T @ np.linalg.solve(H @ H.T, H)
    n_draws = 100_000
    supports = np.argsort(rng.random((n_draws, 12)), axis=1)[:, :r]
    amplitudes = rng.standard_normal((n_draws, r))
    signals = np.zeros((n_draws, 12))
    np.put_along_axis(signals, supports, amplitudes, axis=1)
    quotients = np.einsum("ij,ij->i", signals @ projector, signals) \
        / np.einsum("ij,ij->i", signals, signals)
    assert exact <= quotients.min() + 1e-12


@pytest.mark.parametrize("r", [1, 2])
def test_min_ssq_orthonormal_rows_use_gram_blocks(bench_dct_matrix, r):
    # rows the operator detects as orthonormal make Q = H^T H exactly, so
    # min-SSQ is the smallest lambda_min of the principal blocks of H^T H
    h = bench_dct_matrix
    gram = h.T @ h
    expected = min(np.linalg.eigvalsh(gram[np.ix_(a, a)])[0]
                   for a in map(list, combinations(range(h.shape[1]), r)))
    assert min_ssq(h, r)[0] == expected


@pytest.mark.parametrize("measure", [
    lambda h: ssq(np.ones(h.shape[1]), h),
    lambda h: min_ssq(h, 1),
    lambda h: exact_ml_bruteforce(h, np.ones(h.shape[0]), 1),
], ids=["ssq", "min_ssq", "exact_ml_bruteforce"])
def test_rank_deficient_rows_rejected(measure):
    h = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 2.0]])  # equal rows
    with pytest.raises(InputError, match="not a proper sensing matrix"):
        measure(h)


def test_min_ssq_guard():
    rng = np.random.default_rng(6)
    H = rng.standard_normal((30, 60))
    with pytest.raises(SizeGuardError):
        min_ssq(H, 15, guard=1000)


# ------------------------------------------------------------------------ ric

def test_ric_orthonormal_columns_zero():
    T = partial_dct_matrix(8, np.arange(8))  # orthogonal: every column subset orthonormal
    value, _ = ric(T, 2)
    assert value <= 1e-12


def test_ric_toy_matrix_golden_ratio(toy_matrix):
    value, attained = ric(toy_matrix, 2)
    assert abs(value - 1.618) <= 1e-3
    assert value > 1.0
    assert set(attained) in ({0, 2}, {1, 2})


def test_ric_golden_matrix(bench_dct_matrix):
    value, _ = ric(bench_dct_matrix, 2)
    assert round(value, 3) == 0.497


def test_ric_guard():
    rng = np.random.default_rng(7)
    H = rng.standard_normal((30, 60))
    with pytest.raises(SizeGuardError):
        ric(H, 15, guard=1000)


# ---------------------------------------------------------------------- spark

def test_spark_invertible_square():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((5, 5))
    assert spark(H) == 6


def test_spark_toy_matrix(toy_matrix):
    # columns 1 + 2 - 3 = 0: three dependent columns, no dependent pair
    assert spark(toy_matrix) == 3


def test_spark_random_gaussian_is_full():
    rng = np.random.default_rng(9)
    H = rng.standard_normal((8, 16))
    assert spark(H) == 9
    assert urp(H)


def test_spark_detects_duplicate_column():
    rng = np.random.default_rng(10)
    H = rng.standard_normal((4, 8))
    H[:, 5] = 2.0 * H[:, 2]
    assert spark(H) == 2
    assert not urp(H)


def test_spark_guard():
    rng = np.random.default_rng(11)
    H = rng.standard_normal((20, 40))
    with pytest.raises(SizeGuardError):
        spark(H, guard=1000)


@pytest.mark.parametrize("measure", [spark, urp])
def test_spark_and_urp_refuse_fewer_columns_than_rows(measure):
    H = np.random.default_rng(0).standard_normal((5, 3))
    with pytest.raises(InputError, match="N=5 exceeds m=3"):
        measure(H)


def _screened_subsets(monkeypatch):
    """Record the subsets ``spark`` screens, as (size, count) per run of
    chunks of one size, and its QR calls."""
    screened, qr_calls = [], []
    cleared, qr = matrix_analysis._cleared, scipy.linalg.qr

    def counted_cleared(form, idx, shift):
        count, k = idx.shape
        if screened and screened[-1][0] == k:
            count += screened.pop()[1]
        screened.append((k, count))
        return cleared(form, idx, shift)

    def counted_qr(*args, **kwargs):
        qr_calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(matrix_analysis, "_cleared", counted_cleared)
    monkeypatch.setattr(scipy.linalg, "qr", counted_qr)
    return screened, qr_calls


def test_spark_proves_full_spark_from_the_top_level(monkeypatch):
    """Levels 1-3 (12 + 66 + 220 subsets) fit the budget of C(12, 8) = 495,
    level 4 would not; level 8 (495 subsets) is then screened alone, clears,
    and proves spark 9 with no QR: 793 subsets, not the 3,796 of levels 1-8."""
    screened, qr_calls = _screened_subsets(monkeypatch)
    H = np.random.default_rng(9).standard_normal((8, 12))
    assert spark(H) == 9
    assert screened == [(1, 12), (2, 66), (3, 220), (8, 495)]
    assert qr_calls == []


def test_spark_searches_below_the_top_within_the_budget(monkeypatch):
    """A partial DCT of spark 5 <= N = 6: the levels screened before the top
    hold at most C(12, 6) subsets, the top level is screened in one whole
    chunk, and the search from below then finds 5."""
    screened, _ = _screened_subsets(monkeypatch)
    H = partial_dct_matrix(12, [0, 1, 2, 3, 6, 9])
    assert spark(H) == 5 == _loop_spark(H)
    assert screened == [(1, 12), (2, 66), (3, 220), (4, 495), (6, 924), (5, 792)]
    assert sum(count for _, count in screened[:4]) <= math.comb(12, 6)


def test_spark_resumes_the_top_level_where_its_screen_stopped(monkeypatch):
    """Column 0 of an 8x12 Gaussian is a combination of columns 5-11, so the
    spark is 8.  The top-level screen stops after its first uncleared
    8-subset, levels 4-7 pass, and level 8 resumes there: no more than the
    C(12, 8) = 495 level-8 subsets are screened in all."""
    rng = np.random.default_rng(9)
    H = rng.standard_normal((8, 12))
    H[:, 0] = H[:, 5:] @ rng.standard_normal(7)
    screened, _ = _screened_subsets(monkeypatch)
    assert spark(H) == 8 == _loop_spark(H)
    assert [k for k, _ in screened][:8] == [1, 2, 3, 8, 4, 5, 6, 7]
    assert sum(count for k, count in screened if k == 8) <= math.comb(12, 8)


def test_spark_budget_keeps_the_top_level_stream_unbuilt(monkeypatch):
    """Column 0 of a 10x20 Gaussian is a multiple of column 1, so the spark
    is 2.  Levels 1 and 2 fit the budget of C(20, 10), so the search from
    below finds 2 before the level-10 stream, and its table of C(19, 9)
    tails, is ever built."""
    rng = np.random.default_rng(30)
    H = rng.standard_normal((10, 20))
    H[:, 0] = -3.0 * H[:, 1]
    screened, _ = _screened_subsets(monkeypatch)
    levels, support_chunks = [], matrix_analysis._support_chunks

    def recorded_support_chunks(m, r):
        levels.append(r)
        return support_chunks(m, r)

    monkeypatch.setattr(matrix_analysis, "_support_chunks", recorded_support_chunks)
    assert spark(H) == 2
    monkeypatch.undo()
    assert _loop_spark(H) == 2
    assert screened == [(1, 20), (2, 190)]
    assert 10 not in levels


@pytest.mark.parametrize("size", [5, 6, 7])
@pytest.mark.parametrize("chunk", [3, 7])
def test_spark_resumes_a_late_top_level_subset_across_chunks(size, chunk):
    """The last ``size`` columns of a 7x11 Gaussian are dependent, so the
    first 7-subset the top-level screen leaves uncleared lies chunks past
    the first.  The search from below still finds the QR rule's spark: at
    level 5 or 6, or at level 7, where it resumes at that subset."""
    rng = np.random.default_rng(size)
    H = rng.standard_normal((7, 11))
    H[:, -1] = H[:, -size:-1] @ rng.standard_normal(size - 1)
    with mock.patch.object(matrix_analysis, "_CHUNK", chunk):
        assert spark(H) == _loop_spark(H) == size


# ---------------------------------------------------- the positive-pivot screen

def test_cleared_supports_have_lambda_min_past_the_margin():
    """Batches of near-singular symmetric blocks, some stored with an upper
    triangle that differs from the lower one, against a shift near their
    lambda_min: wherever ``_cleared`` holds, ``eigvalsh`` of the stored block
    (which reads its lower triangle) exceeds the shift less the min-SSQ
    margin.  The draws put lambda_min within eight margins of the shift, so
    both verdicts and clears inside the margin band occur."""
    rng = np.random.default_rng(27)
    count, verdicts, in_band = 32, [], 0
    for trial in range(600):
        r = 1 + trial % 6
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shift = scale * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -1.0)
        spread = matrix_analysis._ssq_margin(r, max(1.0, scale) + abs(shift))
        smallest = shift + spread * rng.uniform(-8.0, 8.0, size=count)
        others = scale * rng.uniform(0.5, 1.0, size=(count, r - 1))
        basis = np.linalg.qr(rng.standard_normal((count, r, r)))[0]
        eigenvalues = np.column_stack([smallest, others])
        blocks = (basis * eigenvalues[:, None, :]) @ basis.transpose(0, 2, 1)
        if trial % 2:
            upper = np.triu(rng.standard_normal((count, r, r)), 1)
            blocks += upper * scale * 10.0 ** rng.uniform(-12.0, -2.0)
        size = max(1.0, float(np.abs(blocks).max())) + abs(shift)
        margin = matrix_analysis._ssq_margin(r, size)
        form = scipy.linalg.block_diag(*blocks)
        got = matrix_analysis._cleared(form, np.arange(count * r).reshape(count, r), shift)
        computed = np.linalg.eigvalsh(blocks)[:, 0]
        assert np.all(computed[got] > shift - margin), (trial, r)
        verdicts.extend(got)
        in_band += np.count_nonzero(got & (computed < shift + margin))
    assert any(verdicts) and not all(verdicts) and in_band > 0


def test_min_ssq_screen_leaves_few_supports_to_eigvalsh(bench_dct_matrix, monkeypatch):
    """Of the C(32, 4) = 35,960 level-4 supports of the golden matrix, the
    screen leaves no more than 100 to ``eigvalsh``, and the value and support
    are the unscreened search's, bit for bit."""
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    got = _bits(min_ssq, bench_dct_matrix, 4)
    monkeypatch.undo()
    assert sum(sizes) <= 100
    assert got == _bits(_reference_min_ssq, bench_dct_matrix, 4)


# --------------------------------------------------- eigenvalue range (URP)

def test_restricted_eigenvalue_bounds_urp():
    """On URP matrices: lambda_min > 0 for dim(A) <= N and lambda_max < 1
    for dim(A) <= m - N, over every enumerated support."""
    from itertools import combinations

    rng = np.random.default_rng(12)
    n, m = 6, 9
    H = rng.standard_normal((n, m))
    assert urp(H)
    weighted = np.linalg.solve(H @ H.T, H)
    for k in range(1, n + 1):
        for A in combinations(range(m), k):
            idx = list(A)
            eigs = np.linalg.eigvalsh(H[:, idx].T @ weighted[:, idx])
            assert eigs[0] > 0.0
            if k <= m - n:
                assert eigs[-1] < 1.0


# ------------------------------------------------------------------ coherence

def test_coherence_toy(toy_matrix):
    assert coherence(toy_matrix) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


# -------------------------------------------------------------------- certify

def test_certify_toy(toy_matrix):
    cert = certify(toy_matrix, 1)
    assert cert.spark == 3 and cert.urp
    flag = cert.flags[0]
    assert flag.r == 1
    assert flag.p0_unique          # min 2-SSQ = 1/3 > 0
    assert not flag.recovery_guaranteed  # 1/3 <= 0.5
    assert abs(flag.rho_2r_min - 1 / 3) <= 1e-12


def test_certify_golden_matrix_recovery(bench_dct_matrix):
    cert = certify(bench_dct_matrix, 1)
    flag = cert.flags[0]
    assert flag.p0_unique and flag.recovery_guaranteed
    assert round(flag.rho_2r_min, 3) == 0.503
    # spark search on 21x32 blows the guard; the certificate still carries
    # the bound implied by the positive min-SSQ values
    assert cert.spark is None
    assert cert.spark_min >= 3
    assert cert.urp is None


def test_certify_r_beyond_half_n():
    rng = np.random.default_rng(13)
    H = rng.standard_normal((4, 8))
    cert = certify(H, 3)
    flag = cert.flags[-1]  # r = 3, 2r = 6 > N = 4
    assert flag.rho_2r_min == 0.0
    assert not flag.p0_unique and not flag.recovery_guaranteed


def test_certificate_invariants_random():
    rng = np.random.default_rng(14)
    H = rng.standard_normal((5, 9))
    cert = certify(H, 4)
    rhos = [e.rho_min for e in cert.per_r]
    assert all(0.0 <= v <= 1.0 for v in rhos)
    assert all(lo <= hi + 1e-12 for lo, hi in zip(rhos[1:], rhos[:-1]))
    for entry in cert.per_r:  # rho_min > 0 iff spark > r
        assert (entry.rho_min > 0) == (cert.spark > entry.r)
    payload = cert.to_json_dict()
    assert payload["spark"] == cert.spark
    assert len(payload["per_r"]) == 4
    assert len(payload["guarantees"]) == 4


# ------------------------------------------------------------- sampled modes

def test_sampled_modes_bound_exact_values():
    rng = np.random.default_rng(15)
    H = rng.standard_normal((6, 13))
    exact_rho, _ = min_ssq(H, 3)
    exact_gamma, _ = ric(H, 3)
    approx_rho, _ = min_ssq_sampled(H, 3, n_samples=200, seed=1)
    approx_gamma, _ = ric_sampled(H, 3, n_samples=200, seed=1)
    assert approx_rho >= exact_rho - 1e-12   # upper bound on the minimum
    assert approx_gamma <= exact_gamma + 1e-12  # lower bound on the maximum


@pytest.mark.parametrize("m, r, n_samples", [
    (13, 3, 200), (120, 5, 2 * matrix_analysis._CHUNK + 7), (6, 6, 3), (9, 1, 50)])
def test_sampled_supports_are_valid(m, r, n_samples):
    blocks = list(matrix_analysis._sampled_supports(m, r, n_samples, 4))
    supports = np.concatenate(blocks)
    assert supports.shape == (n_samples, r)
    assert ((supports >= 0) & (supports < m)).all()
    assert (np.diff(supports, axis=1) > 0).all()  # sorted and distinct
    # one seed, one stream
    again = np.concatenate(list(matrix_analysis._sampled_supports(m, r, n_samples, 4)))
    assert np.array_equal(supports, again)


def test_sampled_modes_need_a_sample():
    H = np.random.default_rng(20).standard_normal((4, 8))
    for sampled in (min_ssq_sampled, ric_sampled):
        with pytest.raises(InputError, match="n_samples"):
            sampled(H, 2, n_samples=0)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_matrix_rejected(entry):
    H = np.random.default_rng(21).standard_normal((3, 6))
    H[1, 4] = entry
    for measure in (lambda h: min_ssq(h, 2), lambda h: ric(h, 2), spark,
                    lambda h: min_ssq_sampled(h, 2, 10), lambda h: ric_sampled(h, 2, 10),
                    lambda h: certify(h, 1)):
        with pytest.raises(InputError, match="finite"):
            measure(H)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_vector_rejected(entry, toy_matrix, toy_operator):
    bad = np.array([1.0, entry, 0.0])
    with pytest.raises(InputError, match="finite"):
        ssq(bad, toy_matrix)
    y = np.array([1.0, 1.0])
    with pytest.raises(InputError, match="finite"):
        verify_fixed_point(toy_operator, np.array([entry, 1.0]), np.zeros(3), 1)
    with pytest.raises(InputError, match="finite"):
        verify_fixed_point(toy_operator, y, bad, 2)


# ------------------------------------- batched kernel against the loop oracle
#
# The reference implementations below evaluate one support at a time, in
# lexicographic (or sample) order, exactly as the batched kernel must
# behave: first support wins ties, and min-SSQ stops at the first support
# whose smallest eigenvalue is at most 1e-14.

def _restricted_forms(h):
    weighted = scipy.linalg.cho_solve((np.linalg.cholesky(h @ h.T), True), h)
    return (lambda idx: h[:, idx].T @ weighted[:, idx]), (lambda idx: h[:, idx].T @ h[:, idx])


def _deviation(eigs):
    return max(abs(1.0 - eigs[0]), abs(eigs[-1] - 1.0))


def _loop_min_ssq(h, supports):
    projected, _ = _restricted_forms(h)
    best, best_support = np.inf, None
    for support_set in supports:
        smallest = float(np.linalg.eigvalsh(projected(list(support_set)))[0])
        if smallest < best:
            best, best_support = smallest, tuple(int(i) for i in support_set)
    return min(max(best, 0.0), 1.0), best_support


def _loop_min_ssq_exact(h, r):
    projected, _ = _restricted_forms(h)
    best, best_support = np.inf, None
    for support_set in combinations(range(h.shape[1]), r):
        smallest = float(np.linalg.eigvalsh(projected(list(support_set)))[0])
        if smallest < best:
            best, best_support = smallest, support_set
            if best <= 1e-14:
                return 0.0, best_support
    return min(max(best, 0.0), 1.0), best_support


def _loop_ric(h, supports):
    _, gram = _restricted_forms(h)
    worst, worst_support = -np.inf, None
    for support_set in supports:
        deviation = _deviation(np.linalg.eigvalsh(gram(list(support_set))))
        if deviation > worst:
            worst, worst_support = deviation, tuple(int(i) for i in support_set)
    return worst, worst_support


def _sampled(m, r, n_samples, seed):
    """The sampled supports: blocks of ``_CHUNK`` rows of m uniforms, and
    each row's support is where its r smallest sit, ascending."""
    rng = np.random.default_rng(seed)
    supports = []
    for start in range(0, n_samples, matrix_analysis._CHUNK):
        block = rng.random((min(matrix_analysis._CHUNK, n_samples - start), m))
        supports.extend(np.sort(np.argsort(row)[:r]) for row in block)
    return supports


def _loop_spark(h):
    n, m = h.shape
    tol = 1e-10 * np.linalg.norm(h, 2)
    for k in range(1, n + 1):
        for subset in combinations(range(m), k):
            r_factor = scipy.linalg.qr(h[:, list(subset)], mode="r", pivoting=True)[0]
            if np.count_nonzero(np.abs(np.diag(r_factor)) > tol) < k:
                return k
    return n + 1


def _attained(h, measured, support_set, value):
    """The reported support gives the reported value."""
    projected, gram = _restricted_forms(h)
    eigs = np.linalg.eigvalsh((projected if measured == "ssq" else gram)(list(support_set)))
    actual = min(max(eigs[0], 0.0), 1.0) if measured == "ssq" else _deviation(eigs)
    return abs(actual - value) <= 1e-12


@st.composite
def _sensing_matrices(draw, kinds=("gaussian", "integer", "dct", "near")):
    """Gaussian, integer with duplicate or dependent columns, DCT rows, or
    Gaussian with one column a combination of two others ("near") or of N-1
    others ("near-top") plus delta * noise, delta log-uniform in
    [1e-13, 1e-6]: the spark screen's margin lies there."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n + 1, n + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        return rng.standard_normal((n, m))
    if kind == "near":
        h = rng.standard_normal((n, m))
        target, first, second = rng.choice(m, size=3, replace=False)
        h[:, target] = rng.standard_normal() * h[:, first] \
            + rng.standard_normal() * h[:, second] \
            + 10.0 ** rng.uniform(-13, -6) * rng.standard_normal(n)
        return h
    if kind == "near-top":
        h = rng.standard_normal((n, m))
        target, *others = rng.choice(m, size=n, replace=False)
        h[:, target] = h[:, others] @ rng.standard_normal(n - 1) \
            + 10.0 ** rng.uniform(-13, -6) * rng.standard_normal(n)
        return h
    if kind == "dct":
        return partial_dct_matrix(m, np.sort(rng.choice(m, size=n, replace=False)))
    h = rng.integers(-2, 3, size=(n, m)).astype(float)
    target, first, second = rng.choice(m, size=3, replace=False)
    if draw(st.booleans()):
        h[:, target] = draw(st.sampled_from([1.0, -2.0])) * h[:, first]
    else:
        h[:, target] = h[:, first] - h[:, second]
    assume(np.linalg.matrix_rank(h) == n)
    return h


@st.composite
def _ill_conditioned_matrices(draw):
    """H = U diag(sigma) V^T with m >= n (square included), cond(H H^T)
    log-uniform in [1e4, 1e14], sometimes one column a copy of another, and
    scaled by 10^[-6, 6]: max |Q - Q^T| of the computed
    Q = H^T (H H^T)^{-1} H then reaches about 1e-10, far past the min-SSQ
    screen's margin."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n, n + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_cond = draw(st.floats(4.0, 14.0))
    left = np.linalg.qr(rng.standard_normal((n, n)))[0]
    right = np.linalg.qr(rng.standard_normal((m, n)))[0]
    h = (left * 10.0 ** np.linspace(0.0, -log_cond / 2.0, n)) @ right.T
    if m > n and draw(st.booleans()):
        target, source = rng.choice(m, size=2, replace=False)
        h[:, target] = h[:, source]
    return h * 10.0 ** draw(st.floats(-6.0, 6.0))


@settings(max_examples=60, deadline=None)
@given(h=_sensing_matrices(), r=st.integers(1, 4))
def test_exact_kernel_matches_loop_oracle(h, r):
    r = min(r, h.shape[1])
    value, attained = min_ssq(h, r)
    if r > h.shape[0]:
        assert (value, attained) == (0.0, tuple(range(r)))
    else:
        oracle_value, oracle_support = _loop_min_ssq_exact(h, r)
        assert abs(value - oracle_value) <= 1e-12
        assert _attained(h, "ssq", attained, value)
        if oracle_value == 0.0:  # lexicographically first singular support
            assert attained == oracle_support
    gamma, gamma_support = ric(h, r)
    oracle_gamma, _ = _loop_ric(h, combinations(range(h.shape[1]), r))
    assert abs(gamma - oracle_gamma) <= 1e-12
    assert _attained(h, "ric", gamma_support, gamma)
    assert spark(h) == _loop_spark(h)


@settings(max_examples=40, deadline=None)
@given(h=_sensing_matrices(), r=st.integers(1, 4), seed=st.integers(0, 1000))
def test_sampled_kernel_matches_loop_oracle(h, r, seed):
    n, m = h.shape
    r = min(r, n)
    supports = _sampled(m, r, 40, seed)
    value, attained = min_ssq_sampled(h, r, 40, seed)
    oracle_value, _ = _loop_min_ssq(h, supports)
    assert abs(value - oracle_value) <= 1e-12
    assert _attained(h, "ssq", attained, value)
    gamma, gamma_support = ric_sampled(h, r, 40, seed)
    oracle_gamma, _ = _loop_ric(h, supports)
    assert abs(gamma - oracle_gamma) <= 1e-12
    assert _attained(h, "ric", gamma_support, gamma)
    drawn = {tuple(int(i) for i in idx) for idx in supports}
    assert attained in drawn and gamma_support in drawn


@settings(max_examples=500, deadline=None)
@given(h=_sensing_matrices(kinds=("near",)), log_scale=st.floats(-8.0, 8.0))
def test_spark_screen_matches_qr_oracle_at_any_scale(h, log_scale):
    """The eigenvalue screen only skips subsets the QR rule cannot fail, also
    when rounding in lambda_min(G_S) dwarfs the rank tolerance (large scale)
    or the tolerance dwarfs it (small scale)."""
    h = h * 10.0 ** log_scale
    assert spark(h) == _loop_spark(h)


@settings(max_examples=200, deadline=None)
@given(h=_sensing_matrices(kinds=("near-top",)), log_scale=st.floats(-8.0, 8.0))
def test_spark_top_level_fallback_matches_qr_oracle_at_any_scale(h, log_scale):
    """A column within delta of the span of N-1 others fails the level-N
    screen, so the search from below decides between N and N+1, as the QR
    rule alone would."""
    h = h * 10.0 ** log_scale
    assert spark(h) == _loop_spark(h) in (h.shape[0], h.shape[0] + 1)


@settings(max_examples=100, deadline=None)
@given(h=_sensing_matrices(kinds=("near-top",)), log_scale=st.floats(-8.0, 8.0))
def test_spark_resumes_the_top_level_across_chunk_boundaries(h, log_scale):
    """With chunks of 3 or 7 subsets, the first N-subset the top-level screen
    leaves uncleared often lies past the first chunk; the search from below
    resumes there and agrees with the QR rule."""
    h = h * 10.0 ** log_scale
    expected = _loop_spark(h)
    for chunk in (3, 7):
        with mock.patch.object(matrix_analysis, "_CHUNK", chunk):
            assert spark(h) == expected


def _two_pass_certify(h, r_max, guard=MIN_SSQ_GUARD):
    """The earlier ``certify``, kept as an oracle: min-SSQ and RIC per level,
    then a second pass that fills the 2r levels through a cache."""
    n, m = h.shape
    rho_cache = {}
    per_r = []
    for r in range(1, r_max + 1):
        rho, rho_support = min_ssq(h, r, guard)
        rho_cache[r] = rho
        gamma, gamma_support = ric(h, r, guard)
        per_r.append(SparsityMeasures(r, rho, rho_support, gamma, gamma_support))
    flags = []
    for r in range(1, r_max + 1):
        two_r = 2 * r
        if two_r > n:
            rho_2r = 0.0
        elif two_r in rho_cache:
            rho_2r = rho_cache[two_r]
        else:
            rho_2r = min_ssq(h, min(two_r, m), guard)[0]
            rho_cache[two_r] = rho_2r
        flags.append(RecoveryFlags(r, rho_2r, rho_2r > 0.0, rho_2r > 0.5))
    try:
        exact_spark = spark(h, guard)
        known_urp = exact_spark == n + 1
    except SizeGuardError:
        exact_spark = None
        known_urp = None
    spark_min = 1 + max((r for r, rho in rho_cache.items() if rho > 0.0), default=0)
    if exact_spark is not None:
        spark_min = exact_spark
    return MatrixCertificate(n, m, exact_spark, spark_min, known_urp, coherence(h),
                             tuple(per_r), tuple(flags))


@settings(max_examples=60, deadline=None)
@given(h=_sensing_matrices(), r_max=st.integers(1, 3), small_guard=st.booleans())
def test_certify_matches_two_pass_oracle(h, r_max, small_guard):
    n, m = h.shape
    guard = MIN_SSQ_GUARD
    if small_guard:
        # every min-SSQ and RIC level fits, the spark search does not
        levels = {*range(1, r_max + 1), *(2 * r for r in range(1, r_max + 1) if 2 * r <= n)}
        guard = max(math.comb(m, k) for k in levels)
        assume(sum(math.comb(m, k) for k in range(1, n + 1)) > guard)
    cert = certify(h, r_max, guard)
    assert cert.to_json_dict() == _two_pass_certify(h, r_max, guard).to_json_dict()
    if small_guard:
        assert cert.spark is None


def test_certify_calls_each_search_once_per_level(monkeypatch):
    """``certify`` calls the module-level searches, positionally, so wrappers
    patched onto those names (as a tracer patches them) see every call."""
    rng = np.random.default_rng(23)
    H = rng.standard_normal((6, 10))
    expected = certify(H, 2)
    calls = {"min_ssq": [], "ric": [], "spark": []}
    for name, record in calls.items():
        def counted(h, *args, _search=getattr(matrix_analysis, name), _record=record):
            _record.append(args)
            return _search(h, *args)
        monkeypatch.setattr(matrix_analysis, name, counted)
    assert certify(H, 2) == expected
    assert [args[0] for args in calls["min_ssq"]] == [1, 2, 4]
    assert [args[0] for args in calls["ric"]] == [1, 2]
    assert len(calls["spark"]) == 1


def test_kernel_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(matrix_analysis, "_CHUNK", 3)
    rng = np.random.default_rng(22)
    # columns 2 and 3 nearly parallel: both extremes sit at (2, 3), the
    # 12th of 21 supports, at the end of the fourth chunk of three
    H = rng.standard_normal((4, 7))
    H[:, 3] = H[:, 2] + 1e-3 * rng.standard_normal(4)
    H /= np.linalg.norm(H, axis=0)
    def agrees(got, oracle):
        return abs(got[0] - oracle[0]) <= 1e-12 and got[1] == oracle[1]

    assert agrees(min_ssq(H, 2), _loop_min_ssq_exact(H, 2))
    assert agrees(ric(H, 2), _loop_ric(H, combinations(range(7), 2)))
    assert min_ssq(H, 2)[1] == ric(H, 2)[1] == (2, 3)
    supports = _sampled(7, 2, 20, 5)
    assert agrees(min_ssq_sampled(H, 2, 20, 5), _loop_min_ssq(H, supports))
    assert agrees(ric_sampled(H, 2, 20, 5), _loop_ric(H, supports))
    # zero columns 4 and 5 are the only singular 1-supports; (4,) is the
    # middle of the second chunk and the search must stop there
    H[:, 4:6] = 0.0
    assert min_ssq(H, 1) == (0.0, (4,)) == _loop_min_ssq_exact(H, 1)
    # column 6 = column 1 - column 3: the first dependent triple is (1, 3, 6)
    H = rng.standard_normal((4, 8))
    H[:, 6] = H[:, 1] - H[:, 3]
    assert min_ssq(H, 3) == (0.0, (1, 3, 6)) == _loop_min_ssq_exact(H, 3)
    assert spark(H) == 3 == _loop_spark(H)


def test_kernel_tie_and_stop_rules(monkeypatch):
    """Exact ties go to the first support even across chunks, and within a
    chunk the first support at or below the stop value wins, not the
    chunk's minimum; both hold when a seed's score bounds the screen."""
    monkeypatch.setattr(matrix_analysis, "_CHUNK", 3)

    def best(diagonal, stop_at=-np.inf):
        return matrix_analysis._best_support(
            np.diag(diagonal),
            _reference_support_chunks(combinations(range(len(diagonal)), 1), 1),
            lambda eigs: eigs[:, 0], stop_at)

    assert best([0.3, 0.2, 0.5, 0.2, 0.2, 0.9]) == (0.2, (1,))
    assert best([0.5, 0.4, 0.3, 0.2, 1e-15, -1e-3, 0.1], 1e-14) == (1e-15, (4,))
    assert best([0.5, 0.4, 0.3, 0.2, 1e-15, -1e-3, 0.1]) == (-1e-3, (5,))

    def seeded(diagonal, seed, stop_at=-np.inf):
        form = np.diag(diagonal)
        return matrix_analysis._best_support(
            form, _reference_support_chunks(combinations(range(len(diagonal)), 1), 1),
            lambda eigs: eigs[:, 0], stop_at,
            lambda idx, shift: matrix_analysis._cleared(form, idx, shift), np.array([[seed]]))

    # a later support scoring the seed's bound does not take the tie from the first
    assert seeded([0.3, 0.2, 0.5, 0.2, 0.2, 0.9], 3) == (0.2, (1,))
    # a seed below the first singular support screens at the stop value, so
    # the search still stops at that support, not at the seed
    assert seeded([0.5, 0.4, 0.3, 0.2, 1e-15, -1e-3, 0.1], 5, 1e-14) == (1e-15, (4,))
    assert seeded([0.5, 0.4, 0.3, 0.2, 1e-15, -1e-3, 0.1], 5) == (-1e-3, (5,))


def test_min_ssq_seed_below_the_first_singular_support_stops_there():
    """Column 6 is zero and column 5 nearly so, both singular at the
    tolerance: the seed takes column 6, the smaller, yet the search returns
    column 5, the first singular support in stream order."""
    H = np.random.default_rng(5).standard_normal((4, 8))
    H[:, 6] = 0.0
    H[:, 5] *= 1e-7
    q = H.T @ DenseOperator(H).gram_solve(H)
    assert q[6, 6] == 0.0 < 1e-15 < q[5, 5] <= matrix_analysis._ZERO_EIG_TOL
    assert matrix_analysis._greedy_support(q, 1).tolist() == [[6]]
    assert min_ssq(H, 1) == (0.0, (5,)) == _loop_min_ssq_exact(H, 1)


def test_min_ssq_takes_a_small_level_in_one_chunk(monkeypatch):
    """The seed bounds the screen from the first chunk, so the 66 supports of
    an 8x12 Gaussian's level 2 take one ``_cleared`` call and two
    ``eigvalsh`` calls: the seed's and the one chunk's."""
    H = np.random.default_rng(9).standard_normal((8, 12))
    cleared_calls, eigvalsh_calls = [], []
    cleared, eigvalsh = matrix_analysis._cleared, np.linalg.eigvalsh

    def counted_cleared(form, idx, shift):
        cleared_calls.append(len(idx))
        return cleared(form, idx, shift)

    def counted_eigvalsh(a, *args, **kwargs):
        eigvalsh_calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(matrix_analysis, "_cleared", counted_cleared)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    got = _bits(min_ssq, H, 2)
    monkeypatch.undo()
    assert cleared_calls == [math.comb(12, 2)]
    assert len(eigvalsh_calls) <= 2
    assert got == _bits(_reference_min_ssq, H, 2)


@pytest.mark.parametrize("chunk", [matrix_analysis._CHUNK, 3])
def test_support_stream_is_the_lexicographic_combinations(monkeypatch, chunk):
    """Row for row and chunk for chunk, the stream is ``combinations`` grouped
    as the reference chunker groups it."""
    monkeypatch.setattr(matrix_analysis, "_CHUNK", chunk)
    for m in range(1, 14):
        for r in range(1, m + 1):
            got = list(matrix_analysis._support_chunks(m, r))
            expected = _reference_support_chunks(combinations(range(m), r), r)
            assert [c.tolist() for c in got] == [c.tolist() for c in expected], (m, r)
            assert all(c.dtype == np.intp for c in got)


def test_support_stream_holds_no_whole_level():
    """The first chunk of the C(60, 5) = 5,461,512 supports comes from the
    C(59, 4) = 455,126-row table of tails, not from a 218 MB table of the
    level."""
    level_bytes = math.comb(60, 5) * 5 * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        first = next(matrix_analysis._support_chunks(60, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.tolist() == [list(c) for c in islice(combinations(range(60), 5), len(first))]
    assert len(first) == matrix_analysis._CHUNK
    assert peak < level_bytes / 4


# ------------------------------- one body per measure against the earlier four
#
# The four measure bodies and the hand-written certificate schema as they
# were before exact and sampled modes shared one body each, kept as
# references that the refactor must match bit for bit: values, supports,
# exception types and messages, and the certificate's JSON text.

def _reference_support_chunks(supports, r):
    """The library's support stream before it was built in numpy: an
    iterable of size-r supports as (<= _CHUNK, r) index arrays of
    ``_CHUNK`` rows each."""
    supports = iter(supports)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(supports, matrix_analysis._CHUNK)),
                           dtype=np.intp)
        if flat.size == 0:
            return
        yield flat.reshape(-1, r)


def _reference_check_guard(m, r, guard):
    if math.comb(m, r) > guard:
        raise SizeGuardError(
            f"enumerating C({m},{r})={math.comb(m, r)} supports exceeds the "
            f"guard of {guard}; use the sampled (non-exact) mode instead"
        )


def _reference_smallest_eig(eigs):
    return eigs[:, 0]


def _reference_negative_isometry_deviation(eigs):
    return -np.maximum(np.abs(1.0 - eigs[:, 0]), np.abs(eigs[:, -1] - 1.0))


def _reference_projection_form(h):
    return h.T @ DenseOperator(h).gram_solve(h)


def _reference_min_ssq(h, r, guard=MIN_SSQ_GUARD):
    h = matrix_analysis._as_matrix(h)
    n, m = h.shape
    if not 1 <= r <= m:
        raise InputError(f"sparsity level r={r} outside [1, {m}]")
    if r > n:
        return 0.0, tuple(range(r))
    _reference_check_guard(m, r, guard)
    best, best_support = matrix_analysis._best_support(
        _reference_projection_form(h),
        _reference_support_chunks(combinations(range(m), r), r),
        _reference_smallest_eig, matrix_analysis._ZERO_EIG_TOL)
    if best <= matrix_analysis._ZERO_EIG_TOL:
        best = 0.0
    return min(max(best, 0.0), 1.0), best_support


def _reference_ric(h, r, guard=MIN_SSQ_GUARD):
    h = matrix_analysis._as_matrix(h)
    n, m = h.shape
    if not 1 <= r <= m:
        raise InputError(f"sparsity level r={r} outside [1, {m}]")
    _reference_check_guard(m, r, guard)
    worst, worst_support = matrix_analysis._best_support(
        h.T @ h, _reference_support_chunks(combinations(range(m), r), r),
        _reference_negative_isometry_deviation)
    return -worst, worst_support


def _reference_min_ssq_sampled(h, r, n_samples=matrix_analysis.SAMPLED_SUPPORTS, seed=0):
    h = matrix_analysis._as_matrix(h)
    n, m = h.shape
    if not 1 <= r <= m:
        raise InputError(f"sparsity level r={r} outside [1, {m}]")
    supports = matrix_analysis._sampled_supports(m, r, n_samples, seed)
    if r > n:
        return 0.0, tuple(range(r))
    best, best_support = matrix_analysis._best_support(
        _reference_projection_form(h), supports, _reference_smallest_eig)
    return min(max(best, 0.0), 1.0), best_support


def _reference_ric_sampled(h, r, n_samples=matrix_analysis.SAMPLED_SUPPORTS, seed=0):
    h = matrix_analysis._as_matrix(h)
    _, m = h.shape
    if not 1 <= r <= m:
        raise InputError(f"sparsity level r={r} outside [1, {m}]")
    worst, worst_support = matrix_analysis._best_support(
        h.T @ h, matrix_analysis._sampled_supports(m, r, n_samples, seed),
        _reference_negative_isometry_deviation)
    return -worst, worst_support


def _reference_to_json_dict(cert):
    return {
        "n_rows": cert.n_rows,
        "n_cols": cert.n_cols,
        "spark": cert.spark,
        "spark_min": cert.spark_min,
        "urp": cert.urp,
        "coherence": cert.coherence,
        "per_r": [
            {
                "r": e.r,
                "rho_min": e.rho_min,
                "worst_support": list(e.worst_support),
                "gamma": e.gamma,
                "ric_support": list(e.ric_support),
            }
            for e in cert.per_r
        ],
        "guarantees": [
            {
                "r": f.r,
                "rho_2r_min": f.rho_2r_min,
                "p0_unique": f.p0_unique,
                "recovery_guaranteed": f.recovery_guaranteed,
            }
            for f in cert.flags
        ],
    }


def _bits(measure, *args):
    """A measure's outcome in bits: the value's type and hex form and the
    support with its element types, or the exception's type and message."""
    try:
        value, attained = measure(*args)
    except (InputError, SizeGuardError) as exc:
        return type(exc), str(exc)
    return type(value), value.hex(), attained, [type(i) for i in attained]


def _certificate_text(h, r_max, guard, to_json_dict):
    try:
        return json.dumps(to_json_dict(certify(h, r_max, guard)), indent=2)
    except (InputError, SizeGuardError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(h=_sensing_matrices(), data=st.data(),
       guard=st.one_of(st.integers(1, 40), st.just(MIN_SSQ_GUARD)),
       n_samples=st.integers(0, 25), seed=st.integers(0, 2**16))
def test_measures_byte_identical_to_reference(h, data, guard, n_samples, seed):
    r = data.draw(st.integers(0, h.shape[1] + 1), label="r")
    assert _bits(min_ssq, h, r, guard) == _bits(_reference_min_ssq, h, r, guard)
    assert _bits(ric, h, r, guard) == _bits(_reference_ric, h, r, guard)
    assert _bits(min_ssq_sampled, h, r, n_samples, seed) \
        == _bits(_reference_min_ssq_sampled, h, r, n_samples, seed)
    assert _bits(ric_sampled, h, r, n_samples, seed) \
        == _bits(_reference_ric_sampled, h, r, n_samples, seed)
    for r_max in range(1, 5):
        got = _certificate_text(h, r_max, guard, MatrixCertificate.to_json_dict)
        with mock.patch.object(matrix_analysis, "min_ssq", _reference_min_ssq), \
                mock.patch.object(matrix_analysis, "ric", _reference_ric):
            expected = _certificate_text(h, r_max, guard, _reference_to_json_dict)
        assert got == expected


@settings(max_examples=100, deadline=None)
@given(h=_ill_conditioned_matrices(), data=st.data(), seed=st.integers(0, 2**16))
def test_screened_searches_byte_identical_on_ill_conditioned_rows(h, data, seed):
    """The min-SSQ screen drops only supports that cannot change the
    unscreened search's value or support, and the spark screen only subsets
    the QR rule cannot fail, also when H H^T is near singular.  The sampled
    search runs in chunks of 8, so its screen runs from the second chunk."""
    r = data.draw(st.integers(1, min(h.shape[1], 4)), label="r")
    assert _bits(min_ssq, h, r) == _bits(_reference_min_ssq, h, r)
    with mock.patch.object(matrix_analysis, "_CHUNK", 8):
        assert _bits(min_ssq_sampled, h, r, 40, seed) \
            == _bits(_reference_min_ssq_sampled, h, r, 40, seed)
    for r_max in range(1, 4):
        got = _certificate_text(h, r_max, MIN_SSQ_GUARD, MatrixCertificate.to_json_dict)
        with mock.patch.object(matrix_analysis, "min_ssq", _reference_min_ssq), \
                mock.patch.object(matrix_analysis, "ric", _reference_ric):
            expected = _certificate_text(h, r_max, MIN_SSQ_GUARD, _reference_to_json_dict)
        assert got == expected
    assert spark(h) == _loop_spark(h)


@pytest.mark.parametrize("level", [1.5, np.float64(2.0)], ids=["float", "numpy-float"])
@pytest.mark.parametrize("measure", [min_ssq, ric, min_ssq_sampled, ric_sampled, certify],
                         ids=["min_ssq", "ric", "min_ssq_sampled", "ric_sampled", "certify"])
def test_non_integer_level_rejected(measure, level):
    H = np.random.default_rng(24).standard_normal((4, 7))
    with pytest.raises(InputError, match="must be an integer"):
        measure(H, level)


def test_numpy_integer_level_accepted():
    H = np.random.default_rng(25).standard_normal((4, 7))
    for measure in (min_ssq, ric, min_ssq_sampled, ric_sampled):
        assert measure(H, np.int64(2)) == measure(H, 2)
    assert certify(H, np.int64(2)) == certify(H, 2)


# --------------------------------------------------------------- fixed points

def test_fixed_point_verifier_on_converged_runs():
    rng = np.random.default_rng(16)
    for trial in range(100):
        n, m, r = 10, 28, 3
        op = DenseOperator(rng.standard_normal((n, m)))
        truth = hard_threshold(rng.standard_normal(m), r)
        y = op.apply(truth)
        if trial % 2:
            y = y + 0.1 * rng.standard_normal(n)
        res = ecme_run(op, y, r, stop=StoppingRule(tol=1e-24, max_iter=5000))
        if not res.converged:
            continue
        report = verify_fixed_point(op, y, res.estimate.s, r)
        assert report.ok, report.violations


def test_fixed_point_allowed_set_logic():
    rng = np.random.default_rng(17)
    op = DenseOperator(rng.standard_normal((6, 12)))
    truth = hard_threshold(rng.standard_normal(12), 2)
    y = op.apply(truth) + 0.2 * rng.standard_normal(6)
    res = ecme_run(op, y, 2, stop=StoppingRule(tol=1e-24, max_iter=5000))
    s_star = res.estimate.s
    assert np.count_nonzero(s_star) == 2
    # full support: only the supported derivatives are inspected
    report = verify_fixed_point(op, y, s_star, 2)
    assert set(report.allowed) == set(support(s_star))
    # extra slack (r=3): every coordinate becomes an allowed direction
    report3 = verify_fixed_point(op, y, s_star, 3)
    assert len(report3.allowed) == 12


def test_fixed_point_detects_perturbation():
    rng = np.random.default_rng(18)
    op = DenseOperator(rng.standard_normal((8, 16)))
    truth = hard_threshold(rng.standard_normal(16), 3)
    y = op.apply(truth) + 0.05 * rng.standard_normal(8)
    res = ecme_run(op, y, 3, stop=StoppingRule(tol=1e-24, max_iter=5000))
    perturbed = res.estimate.s.copy()
    idx = support(perturbed)[0]
    perturbed[idx] *= 1.05
    report = verify_fixed_point(op, y, perturbed, 3)
    assert not report
    assert report.violations


def test_fixed_point_rejects_overdense_point():
    rng = np.random.default_rng(19)
    op = DenseOperator(rng.standard_normal((4, 8)))
    with pytest.raises(InputError):
        verify_fixed_point(op, rng.standard_normal(4), rng.standard_normal(8), 2)
