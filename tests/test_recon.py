"""Core solver: thresholding, likelihood quantities, plain/IHT iterations."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from sparserecon import (
    DenseOperator,
    InputError,
    ParamEstimate,
    PartialDctOperator,
    SensingOperator,
    StoppingRule,
    adore_run,
    dore_run,
    ecme_run,
    ecme_step,
    empirical_bayes_estimate,
    hard_threshold,
    iht_run,
    minimum_norm_estimate,
    random_instance,
    sigma2_hat,
    support,
    weighted_error,
)
from sparserecon import recon
from sparserecon.recon import _Images, _plain_step


# ------------------------------------------------------------ hard threshold

def test_hard_threshold_keeps_two_largest():
    out = hard_threshold([0.0, 1.0, -5.0, 0.0, 3.0, 0.0], 2)
    assert np.array_equal(out, [0.0, 0.0, -5.0, 0.0, 3.0, 0.0])


def test_hard_threshold_boundaries():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(hard_threshold(x, 0), np.zeros(3))
    assert np.array_equal(hard_threshold(x, 3), x)


def test_hard_threshold_tie_break_lower_index():
    x = np.array([2.0, -2.0, 1.0])
    # both candidates are equally good approximations; enumerate them
    errs = {
        (0,): np.sum((x - np.array([2.0, 0.0, 0.0])) ** 2),
        (1,): np.sum((x - np.array([0.0, -2.0, 0.0])) ** 2),
    }
    assert errs[(0,)] == errs[(1,)]  # genuine tie
    assert np.array_equal(hard_threshold(x, 1), [2.0, 0.0, 0.0])


def test_hard_threshold_validation():
    with pytest.raises(InputError):
        hard_threshold([1.0, 2.0], -1)
    with pytest.raises(InputError):
        hard_threshold([1.0, 2.0], 3)


def _oracle_hard_threshold(x, r):
    """The stable full-argsort threshold: ties to the lower index, NaN last."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if r == 0:
        return out
    keep = np.argsort(-np.abs(x), kind="stable")[:r]
    out[keep] = x[keep]
    return out


# Few distinct magnitudes, so most vectors have ties at the r-th largest.
_THRESHOLD_ENTRIES = st.sampled_from(
    [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, -0.0, np.nan, np.inf, -np.inf])


@st.composite
def _threshold_cases(draw):
    x = np.array(draw(st.lists(_THRESHOLD_ENTRIES, min_size=1, max_size=40)))
    return x, draw(st.integers(0, x.size))


@settings(max_examples=400, deadline=None)
@given(case=_threshold_cases())
@example(case=(np.array([2.0, -0.0, np.nan, -1.0, np.inf, 0.0, -np.inf, np.nan]), 8))
def test_hard_threshold_matches_stable_sort_oracle(case):
    x, r = case
    assert hard_threshold(x, r).tobytes() == _oracle_hard_threshold(x, r).tobytes()


def test_support_examples():
    assert np.array_equal(support([0.0, 1.0, -5.0, 0.0, 3.0, 0.0]), [1, 2, 4])
    assert support(np.zeros(4)).size == 0


def test_support_of_threshold_is_subset():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(12)
        r = int(rng.integers(0, 13))
        thr = set(support(hard_threshold(x, r)))
        assert thr <= set(support(x))
        assert len(thr) <= r


# -------------------------------------------------------- likelihood pieces

def test_sigma2_hat_zero_residual(toy_operator):
    s = np.array([1.0, 2.0, 0.0])
    y = toy_operator.apply(s)
    assert sigma2_hat(toy_operator, y, s) == 0.0


def test_sigma2_hat_orthonormal_reduction():
    op = PartialDctOperator(16, [0, 3, 7, 9])
    rng = np.random.default_rng(1)
    s = rng.standard_normal(16)
    y = rng.standard_normal(4)
    direct = np.sum((y - op.apply(s)) ** 2) / 4
    assert abs(sigma2_hat(op, y, s) - direct) < 1e-14


def test_sigma2_hat_hand_value(toy_operator):
    # s = 0, y = [1,1]: y^T (HH^T)^{-1} y / N = 1/3
    assert abs(sigma2_hat(toy_operator, np.array([1.0, 1.0]), np.zeros(3)) - 1 / 3) \
        < 1e-14


def test_weighted_error_values(toy_operator):
    y = np.array([1.0, 1.0])
    assert abs(weighted_error(toy_operator, y, np.zeros(3)) - 2 / 3) < 1e-14
    s = np.array([0.0, 1.0, 0.5])
    assert weighted_error(toy_operator, toy_operator.apply(s), s) == 0.0


def test_weighted_error_invariant_under_row_transform():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((6, 14))
    y = rng.standard_normal(6)
    s = rng.standard_normal(14)
    base = weighted_error(DenseOperator(H), y, s)
    for trial in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        G = q @ np.diag(rng.uniform(0.5, 2.0, size=6))
        val = weighted_error(DenseOperator(G @ H), G @ y, s)
        assert abs(val - base) <= 1e-10 * max(1.0, base)


# ------------------------------------------------------------------ ecme_step

def test_ecme_step_hand_value(toy_operator):
    # y = [2,2], s0 = 0, r = 1: z = H^T (HH^T)^{-1} y = [2/3, 2/3, 4/3]
    theta = ParamEstimate(np.zeros(3), sigma2_hat(toy_operator, [2.0, 2.0], np.zeros(3)), 1)
    nxt = ecme_step(toy_operator, np.array([2.0, 2.0]), theta)
    assert np.allclose(nxt.s, [0.0, 0.0, 4 / 3], atol=1e-12)


def test_ecme_step_is_iht_step_for_orthonormal_rows():
    op = PartialDctOperator(12, [0, 2, 4, 6, 8])
    rng = np.random.default_rng(3)
    y = rng.standard_normal(5)
    s = hard_threshold(rng.standard_normal(12), 3)
    theta = ParamEstimate(s, sigma2_hat(op, y, s), 3)
    nxt = ecme_step(op, y, theta)
    z_iht = s + op.apply_adjoint(y - op.apply(s))
    assert np.array_equal(nxt.s, hard_threshold(z_iht, 3))


def test_ecme_step_fixed_point_unchanged(bench_dct_dense):
    rng = np.random.default_rng(4)
    truth = np.zeros(32)
    truth[7] = rng.standard_normal()
    y = bench_dct_dense.apply(truth)
    res = ecme_run(bench_dct_dense, y, 1, stop=StoppingRule(tol=1e-28, max_iter=2000))
    nxt = ecme_step(bench_dct_dense, y, res.estimate)
    assert np.allclose(nxt.s, res.estimate.s, rtol=0, atol=1e-10)


def test_ecme_step_never_increases_error():
    rng = np.random.default_rng(5)
    for trial in range(20):
        op = DenseOperator(rng.standard_normal((10, 24)))
        y = rng.standard_normal(10)
        s = hard_threshold(rng.standard_normal(24), 4)
        theta = ParamEstimate(s, sigma2_hat(op, y, s), 4)
        nxt = ecme_step(op, y, theta)
        assert weighted_error(op, y, nxt.s) \
            <= weighted_error(op, y, s) + 1e-12


# ------------------------------------------------------------------- ecme_run

def test_ecme_run_zero_measurements(toy_operator):
    res = ecme_run(toy_operator, np.zeros(2), 1)
    assert res.converged
    assert np.array_equal(res.estimate.s, np.zeros(3))
    assert res.estimate.sigma2 == 0.0


def test_ecme_run_one_sparse_recovery(bench_dct_dense):
    rng = np.random.default_rng(6)
    for idx in (0, 13, 31):
        truth = np.zeros(32)
        truth[idx] = rng.standard_normal() + 2.0
        y = bench_dct_dense.apply(truth)
        res = ecme_run(bench_dct_dense, y, 1,
                       stop=StoppingRule(tol=1e-26, max_iter=5000))
        assert np.linalg.norm(res.estimate.s - truth) <= 1e-8


def test_ecme_run_monotone_trace_and_improvement():
    rng = np.random.default_rng(7)
    op = DenseOperator(rng.standard_normal((20, 50)))
    truth = hard_threshold(rng.standard_normal(50), 3)
    y = op.apply(truth) + 0.05 * rng.standard_normal(20)
    s0 = hard_threshold(rng.standard_normal(50), 3)
    res = ecme_run(op, y, 3, s0=s0)
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] <= trace[0] + 1e-12


def test_ecme_run_thresholds_dense_initialization(bench_dct_dense):
    rng = np.random.default_rng(8)
    s0 = rng.standard_normal(32)  # not 1-sparse
    y = bench_dct_dense.apply(hard_threshold(rng.standard_normal(32), 1))
    res = ecme_run(bench_dct_dense, y, 1, s0=s0)
    assert np.count_nonzero(res.estimate.s) <= 1


def test_per_iteration_decrease_bound():
    """E(s_p) - E(s_{p+1}) >= (1 - lambda_max(restricted form)) ||s_{p+1}-s_p||^2
    on URP matrices with 2r <= m - N."""
    rng = np.random.default_rng(9)
    for trial in range(10):
        n, m, r = 8, 26, 4  # 2r = 8 <= 18 = m - N
        H = rng.standard_normal((n, m))
        op = DenseOperator(H)
        weighted = np.linalg.solve(H @ H.T, H)
        truth = hard_threshold(rng.standard_normal(m), r)
        y = op.apply(truth) + 0.1 * rng.standard_normal(n)
        theta = ParamEstimate(np.zeros(m), sigma2_hat(op, y, np.zeros(m)), r)
        for _ in range(25):
            nxt = ecme_step(op, y, theta)
            union = np.union1d(support(theta.s), support(nxt.s)).astype(int)
            if union.size:
                restricted = H[:, union].T @ weighted[:, union]
                lam = np.linalg.eigvalsh(restricted)[-1]
                gap = weighted_error(op, y, theta.s) - weighted_error(op, y, nxt.s)
                step = np.sum((nxt.s - theta.s) ** 2)
                assert gap >= (1.0 - lam) * step - 1e-10
            theta = nxt


def test_transform_robustness_support_sequence():
    rng = np.random.default_rng(10)
    n, m, r = 9, 24, 3
    H = rng.standard_normal((n, m))
    truth = hard_threshold(rng.standard_normal(m), r)
    y = H @ truth + 0.02 * rng.standard_normal(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    G = q @ np.diag(rng.uniform(0.5, 2.0, size=n))
    op_a, op_b = DenseOperator(H), DenseOperator(G @ H)
    ya, yb = y, G @ y
    ta = ParamEstimate(np.zeros(m), sigma2_hat(op_a, ya, np.zeros(m)), r)
    tb = ParamEstimate(np.zeros(m), sigma2_hat(op_b, yb, np.zeros(m)), r)
    for _ in range(40):
        ta = ecme_step(op_a, ya, ta)
        tb = ecme_step(op_b, yb, tb)
        assert np.array_equal(support(ta.s), support(tb.s))
    assert np.allclose(ta.s, tb.s, atol=1e-8)


@st.composite
def _dense_steps(draw):
    """A dense operator, scaled noisy measurements, r, and an r-sparse s."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(4, 31))
    m = int(rng.integers(n + 4, 3 * n + 1))
    op = DenseOperator(rng.standard_normal((n, m)))
    # r columns imaged and r more thresholded fit the cache: 2 r <= N m / (2 N + m)
    r = int(rng.integers(1, max(n * m // (2 * n + m) // 2, 1) + 1))
    scale = 10.0 ** draw(st.floats(-4.0, 4.0))
    noise = draw(st.sampled_from((0.0, 0.01, 0.5)))
    y = scale * (op.apply(hard_threshold(rng.standard_normal(m), r))
                 + noise * rng.standard_normal(n))
    return op, y, r, scale * hard_threshold(rng.standard_normal(m), r)


@settings(max_examples=200, deadline=None)
@given(case=_dense_steps())
def test_cached_step_matches_ecme_step(case):
    """The solvers' step from the cache of solved columns, its size gate
    lowered so these small H take it, against ``ecme_step``, which solves
    and adjoins on every call."""
    op, y, r, s = case
    theta = ParamEstimate(s, sigma2_hat(op, y, s), r)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recon, "_CACHE_MIN_ENTRIES", 0)
        images = _Images(op, y)
    curr = images.image(s)
    z, z_ref = images.refine(curr), empirical_bayes_estimate(op, y, theta)
    bound = 1e-12 * np.linalg.norm(z_ref)
    assert np.max(np.abs(z - z_ref)) <= bound
    step, ref = _plain_step(images, curr, r), ecme_step(op, y, theta)
    assert images.cached
    if not np.array_equal(support(step.s), support(ref.s)):
        # a rounding tie: each |z| moved by at most the bound
        magnitudes = np.sort(np.abs(z_ref))[::-1]
        assert magnitudes[r - 1] - magnitudes[r] <= 2 * bound


# -------------------------------------------------------------------- iht_run

def test_iht_requires_orthonormal_rows():
    rng = np.random.default_rng(11)
    op = DenseOperator(rng.standard_normal((5, 12)))
    with pytest.raises(InputError, match="orthonormal rows"):
        iht_run(op, rng.standard_normal(5), 2)


def test_iht_identity_converges_to_threshold():
    op = DenseOperator(np.eye(6))
    y = np.array([0.3, -2.0, 1.1, 0.0, 4.0, -0.5])
    res = iht_run(op, y, 6)
    assert np.array_equal(res.estimate.s, y)
    assert res.iterations <= 2


def test_iht_matches_ecme_exactly(bench_dct_operator):
    rng = np.random.default_rng(12)
    y = rng.standard_normal(21)
    a = ecme_run(bench_dct_operator, y, 4, stop=StoppingRule(max_iter=300))
    b = iht_run(bench_dct_operator, y, 4, stop=StoppingRule(max_iter=300))
    assert a.trace == b.trace
    assert np.array_equal(a.estimate.s, b.estimate.s)
    assert a.iterations == b.iterations


def test_non_finite_input_rejected(bench_dct_operator, bench_dct_dense):
    rng = np.random.default_rng(15)
    y = rng.standard_normal(21)
    y_inf = y.copy()
    y_inf[3] = np.inf
    with pytest.raises(InputError, match="finite"):
        iht_run(bench_dct_operator, y_inf, 4)
    s0 = np.zeros(32)
    s0[5] = np.nan
    for op in (bench_dct_operator, bench_dct_dense):
        with pytest.raises(InputError, match="finite"):
            ecme_run(op, y, 4, s0=s0)
    op = DenseOperator(rng.standard_normal((10, 24)))
    y_nan = rng.standard_normal(10)
    y_nan[0] = np.nan
    for solver in (ecme_run, dore_run):
        with pytest.raises(InputError, match="finite"):
            solver(op, y_nan, 3)
    with pytest.raises(InputError, match="finite"):
        adore_run(op, y_nan)


@pytest.mark.parametrize("helper", [
    lambda op, y: sigma2_hat(op, y, np.zeros(op.n_cols)),
    lambda op, y: empirical_bayes_estimate(
        op, y, ParamEstimate(np.zeros(op.n_cols), 1.0, 2)),
    minimum_norm_estimate,
], ids=["sigma2_hat", "empirical_bayes_estimate", "minimum_norm_estimate"])
@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", ["dense", "partial-dct"])
def test_gram_weighted_helpers_reject_non_finite_y(bench_dct_operator, kind,
                                                    entry, helper):
    # a dense gram solve would raise scipy's ValueError, an orthonormal one
    # would return NaN silently; both must stop at the y check instead
    rng = np.random.default_rng(16)
    op = DenseOperator(rng.standard_normal((10, 24))) if kind == "dense" \
        else bench_dct_operator
    y = rng.standard_normal(op.n_rows)
    y[1] = entry
    with pytest.raises(InputError, match="finite"):
        helper(op, y)


@pytest.mark.parametrize("helper", [
    sigma2_hat,
    weighted_error,
    lambda op, y, s: empirical_bayes_estimate(op, y, ParamEstimate(s, 1.0, 2)),
    lambda op, y, s: ecme_step(op, y, ParamEstimate(s, 1.0, 2)),
    lambda op, y, s: support(s),
], ids=["sigma2_hat", "weighted_error", "empirical_bayes_estimate", "ecme_step",
        "support"])
@pytest.mark.parametrize("k", [1, 3], ids=["column", "block"])
def test_signal_helpers_reject_2d_signals(toy_operator, helper, k):
    # apply takes an m x k block, so a 2-D signal must be refused before it:
    # it would broadcast against y or come back as a block
    s = np.zeros((toy_operator.n_cols, k))
    s[0, 0] = 1.0
    with pytest.raises(InputError, match="^s must be a"):
        helper(toy_operator, np.array([2.0, 2.0]), s)


# ------------------------------------------------------------------ baselines

def test_minimum_norm_identity_and_orthonormal():
    op_id = DenseOperator(np.eye(4))
    y = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(minimum_norm_estimate(op_id, y), y)
    op = PartialDctOperator(10, [1, 3, 5])
    w = np.array([0.2, -0.7, 1.5])
    assert np.allclose(minimum_norm_estimate(op, w), op.apply_adjoint(w),
                       atol=1e-14)


def test_minimum_norm_residual():
    rng = np.random.default_rng(13)
    op = DenseOperator(rng.standard_normal((7, 20)))
    y = rng.standard_normal(7)
    est = minimum_norm_estimate(op, y)
    assert np.linalg.norm(op.apply(est) - y) <= 1e-8 * np.linalg.norm(y)


def test_empirical_bayes_reductions():
    rng = np.random.default_rng(14)
    op = DenseOperator(rng.standard_normal((6, 15)))
    s = hard_threshold(rng.standard_normal(15), 3)
    y_fit = op.apply(s)
    theta = ParamEstimate(s, 0.0, 3)
    assert np.allclose(empirical_bayes_estimate(op, y_fit, theta), s, atol=1e-10)
    y = rng.standard_normal(6)
    zero = ParamEstimate(np.zeros(15), sigma2_hat(op, y, np.zeros(15)), 0)
    assert np.allclose(empirical_bayes_estimate(op, y, zero),
                       minimum_norm_estimate(op, y), atol=1e-12)
    out = empirical_bayes_estimate(op, y, ParamEstimate(s, sigma2_hat(op, y, s), 3))
    assert np.linalg.norm(op.apply(out) - y) <= 1e-8 * np.linalg.norm(y)


# ------------------------------------------------- dense gram solve kernel

class ChoSolveDenseOperator(SensingOperator):
    """Dense operator on the plain SciPy path: a C-order Cholesky factor that
    ``cho_solve`` copies and scans on every call."""

    def __init__(self, matrix):
        super().__init__(*matrix.shape, False, "dense")
        self.matrix = matrix
        self.lower = np.linalg.cholesky(matrix @ matrix.T)

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)

    def apply_adjoint(self, w):
        return self.matrix.T @ np.asarray(w, dtype=float)

    def _gram_solve(self, b):
        return scipy.linalg.cho_solve((self.lower, True), b)


def _result_bytes(result):
    return (result.estimate.s.tobytes(),
            np.float64(result.estimate.sigma2).tobytes(),
            np.array(result.trace).tobytes(),
            result.iterations, result.converged, result.branches)


def _assert_solvers_byte_identical(op, reference, y, r, stop=None, adore=True):
    """ECME, DORE and, with ``adore``, ADORE give the same bytes on both
    operators: estimate, trace, iterations, branches and ADORE's probes."""
    for run in (ecme_run, dore_run):
        assert (_result_bytes(run(op, y, r, stop=stop))
                == _result_bytes(run(reference, y, r, stop=stop)))
    if not adore:
        return
    auto, auto_ref = adore_run(op, y, stop=stop), adore_run(reference, y, stop=stop)
    assert auto.r_selected == auto_ref.r_selected
    assert auto.dore_runs == auto_ref.dore_runs
    assert _result_bytes(auto.final) == _result_bytes(auto_ref.final)
    assert ([(e.r, e.growth_rate) for e in auto.evaluations]
            == [(e.r, e.growth_rate) for e in auto_ref.evaluations])
    scores = [np.array([[e.sigma2_est, e.uss_value] for e in a.evaluations])
              for a in (auto, auto_ref)]
    assert scores[0].tobytes() == scores[1].tobytes()


@pytest.mark.parametrize("seed,noise", [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.05)],
                         ids=["clean-1", "clean-2", "clean-3", "noisy"])
def test_solvers_byte_identical_to_cho_solve_path(seed, noise):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((60, 150))
    truth = hard_threshold(rng.standard_normal(150), 8)
    y = H @ truth + noise * rng.standard_normal(60)
    _assert_solvers_byte_identical(DenseOperator(H), ChoSolveDenseOperator(H), y, 8,
                                   stop=StoppingRule(max_iter=2000))


class FullProductDenseOperator(DenseOperator):
    """Dense operator whose apply always reads every column of H: the
    reference for the block gather.  Its gram factor and adjoint are the
    dense kind's own."""

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)


@pytest.mark.parametrize("m,n,r,seed", [(500, 200, 10, 1), (500, 200, 10, 2),
                                        (2000, 800, 40, 3)],
                         ids=["d200-1", "d200-2", "d800-3"])
def test_solvers_match_full_product_path(m, n, r, seed):
    """Both sizes run the solvers' column cache, whose block applies of unit
    columns gather the columns of H at their nonzero rows.  A product of
    unit columns is exact either way, so every run is byte-identical to the
    full product's."""
    inst = random_instance(m, n, r, 0.0, seed)
    full = FullProductDenseOperator(inst.operator.matrix)
    _assert_solvers_byte_identical(inst.operator, full, inst.y, r, adore=m == 500)


# ------------------------------------------------------------- value objects

def test_param_estimate_invariants():
    with pytest.raises(InputError):
        ParamEstimate(np.array([1.0, 2.0]), 0.0, 1)  # too dense
    with pytest.raises(InputError):
        ParamEstimate(np.zeros(2), -0.5, 1)  # negative variance


def test_param_estimate_keeps_its_own_signal():
    # a later write to the caller's array must not reach the frozen estimate
    s = np.zeros(3)
    estimate = ParamEstimate(s, 0.0, 1)
    s[:] = [1.0, 2.0, 3.0]
    assert np.array_equal(estimate.s, np.zeros(3))
    assert np.count_nonzero(estimate.s) <= estimate.r


def test_stopping_rule_validation():
    with pytest.raises(InputError):
        StoppingRule(tol=0.0)
    with pytest.raises(InputError):
        StoppingRule(max_iter=0)
    rule = StoppingRule()
    assert rule.tol == 1e-14 and rule.max_iter == 50_000


@pytest.mark.parametrize("r", [2.5, np.float64(2.0)], ids=["float", "numpy-float"])
def test_hard_threshold_non_integer_level_rejected(r):
    with pytest.raises(InputError, match="must be an integer"):
        hard_threshold([1.0, -3.0, 2.0], r)


@pytest.mark.parametrize("r", [2.5, np.float64(2.0)], ids=["float", "numpy-float"])
@pytest.mark.parametrize("solver", [ecme_run, iht_run, dore_run])
def test_solver_non_integer_level_rejected(bench_dct_operator, solver, r):
    y = np.random.default_rng(26).standard_normal(21)
    with pytest.raises(InputError, match="sparsity level r must be an integer"):
        solver(bench_dct_operator, y, r)


def test_numpy_integer_level_accepted(bench_dct_operator):
    x = np.array([1.0, -3.0, 2.0])
    assert np.array_equal(hard_threshold(x, np.int64(2)), hard_threshold(x, 2))
    y = np.random.default_rng(27).standard_normal(21)
    for solver in (ecme_run, dore_run):
        a = solver(bench_dct_operator, y, np.int64(3), stop=StoppingRule(max_iter=50))
        b = solver(bench_dct_operator, y, 3, stop=StoppingRule(max_iter=50))
        assert a.estimate.s.tobytes() == b.estimate.s.tobytes()
        assert a.trace == b.trace


@pytest.mark.parametrize("max_iter", [2.5, np.float64(3.0)], ids=["float", "numpy-float"])
def test_stopping_rule_non_integer_max_iter_rejected(max_iter):
    with pytest.raises(InputError, match="max_iter must be an integer"):
        StoppingRule(max_iter=max_iter)
    assert StoppingRule(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("tol", [np.inf, np.nan, -np.inf], ids=["inf", "nan", "-inf"])
def test_stopping_rule_non_finite_tol_rejected(tol):
    with pytest.raises(InputError, match="tol must be positive and finite"):
        StoppingRule(tol=tol)


def test_param_estimate_nan_variance_rejected():
    with pytest.raises(InputError, match="sigma2 must be nonnegative"):
        ParamEstimate(np.zeros(2), np.nan, 1)


def test_result_json_fields(toy_operator):
    res = ecme_run(toy_operator, np.array([1.0, 1.0]), 1)
    payload = res.to_json_dict()
    assert set(payload) == {"iterations", "converged", "final_sigma2",
                            "trace", "elapsed_seconds"}
    assert payload["converged"] is True
