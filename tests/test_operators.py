"""Operator surface: apply/adjoint/gram_solve contracts for every kind."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from sparserecon import (
    ComposedOperator,
    DenseOperator,
    HaarBasis,
    IdentityOperator,
    InputError,
    PartialDctOperator,
    PartialDft2Operator,
    haar_dwt_2d,
    haar_idwt_2d,
    partial_dct_matrix,
    probe_rows_orthonormal,
)
from sparserecon.operators import dct_matrix


def test_identity_apply_adjoint():
    op = IdentityOperator(3)
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(op.apply(v), v)
    assert np.array_equal(op.apply_adjoint(np.array([4.0, 5.0, 6.0])),
                          [4.0, 5.0, 6.0])
    assert op.rows_orthonormal


def test_dense_apply_hand_values(toy_operator):
    assert np.array_equal(toy_operator.apply([1.0, 1.0, 1.0]), [2.0, 2.0])
    assert np.array_equal(toy_operator.apply_adjoint([1.0, 0.0]), [1.0, 0.0, 1.0])


def test_dense_dimension_mismatch(toy_operator):
    with pytest.raises(InputError):
        toy_operator.apply([1.0, 2.0])
    with pytest.raises(InputError):
        toy_operator.apply_adjoint([1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        toy_operator.gram_solve([1.0, 2.0, 3.0])


def test_gram_solve_hand_value(toy_operator):
    # H H^T = [[2,1],[1,2]], so b = [3,3] solves to [1,1]
    assert np.allclose(toy_operator.gram_solve([3.0, 3.0]), [1.0, 1.0],
                       rtol=0, atol=1e-12)


def test_gram_solve_orthonormal_returns_input_unchanged():
    op = PartialDctOperator(8, [0, 2, 5])
    b = np.array([1.0, -2.0, 3.0])
    out = op.gram_solve(b)
    assert out is b  # identity map, no arithmetic


def test_gram_solve_multiply_back():
    rng = np.random.default_rng(7)
    H = rng.standard_normal((10, 25))
    op = DenseOperator(H)
    gram = H @ H.T
    for _ in range(5):
        b = rng.standard_normal(10)
        x = op.gram_solve(b)
        assert np.linalg.norm(gram @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_gram_factor_reconstruct():
    rng = np.random.default_rng(11)
    H = rng.standard_normal((6, 15))
    op = DenseOperator(H)
    gram = H @ H.T
    lower = op.gram_lower
    err = np.abs(lower @ lower.T - gram).max()
    assert err <= 1e-10 * np.abs(gram).max()
    # a triangular factor with a positive diagonal makes L L^T SPD
    assert np.array_equal(lower, np.tril(lower))
    assert np.all(np.diag(lower) > 0)


def test_gram_solve_block_matches_column_solves():
    rng = np.random.default_rng(12)
    op = DenseOperator(rng.standard_normal((7, 18)))
    block = rng.standard_normal((7, 5))
    columns = np.column_stack([op.gram_solve(col) for col in block.T])
    assert op.gram_solve(block).tobytes() == columns.tobytes()


def test_gram_solve_block_orthonormal_returns_input_unchanged(bench_dct_operator,
                                                              bench_dct_dense):
    block = np.random.default_rng(14).standard_normal((21, 4))
    assert bench_dct_dense.gram_lower is None
    for op in (bench_dct_operator, bench_dct_dense):
        assert op.gram_solve(block) is block


def _reference_gram_solve(H, b):
    """The plain SciPy path: C-order factor, copied and scanned by cho_solve."""
    return scipy.linalg.cho_solve((np.linalg.cholesky(H @ H.T), True), b)


@settings(max_examples=80, deadline=None)
@given(n_rows=st.integers(1, 48), extra=st.integers(0, 48),
       log_scale=st.floats(-8.0, 8.0), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_gram_solve_matches_cho_solve_bit_for_bit(n_rows, extra, log_scale, k,
                                                  seed):
    rng = np.random.default_rng(seed)
    H = 10.0 ** log_scale * rng.standard_normal((n_rows, n_rows + extra))
    try:
        op = DenseOperator(H)
    except InputError:  # numerically rank-deficient square draw
        assume(False)
    assume(not op.rows_orthonormal)
    block = rng.standard_normal((n_rows, k))
    for b in (block[:, 0].copy(), block, np.asfortranarray(block)):
        before = b.tobytes()
        ref = _reference_gram_solve(H, b)
        x = op.gram_solve(b)
        assert x.shape == ref.shape
        assert x.flags.f_contiguous == ref.flags.f_contiguous
        assert x.tobytes() == ref.tobytes()
        assert b.tobytes() == before  # b is never written


@pytest.mark.parametrize("shape", [(2, 3, 1), (3, 2), (3,), ()],
                         ids=["3-D", "rows", "length", "scalar"])
def test_gram_solve_shape_contract(toy_operator, shape):
    dct = PartialDctOperator(8, [0, 2])  # two rows, like the toy operator
    for op in (toy_operator, dct):
        with pytest.raises(InputError, match="gram_solve expects"):
            op.gram_solve(np.ones(shape))


def test_rank_deficient_rejected():
    H = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])  # second row = 2x first
    with pytest.raises(InputError, match="not a proper"):
        DenseOperator(H)


def test_wide_requirement():
    with pytest.raises(InputError):
        DenseOperator(np.random.default_rng(0).standard_normal((5, 3)))


def test_adjoint_identity_all_kinds(toy_operator, bench_dct_operator):
    rng = np.random.default_rng(3)
    dense = DenseOperator(rng.standard_normal((8, 16)))
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = mask[1, 2] = mask[3, 3] = mask[2, 5] = True
    ops = [
        toy_operator,
        dense,
        IdentityOperator(6),
        bench_dct_operator,
        PartialDft2Operator(mask),
        ComposedOperator(PartialDft2Operator(mask), HaarBasis(8)),
    ]
    for op in ops:
        for _ in range(5):
            v = rng.standard_normal(op.n_cols)
            w = rng.standard_normal(op.n_rows)
            lhs = float(op.apply(v) @ w)
            rhs = float(v @ op.apply_adjoint(w))
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale


def _draw_operator(kind, data, rng):
    """A random operator of one kind; shapes and row selections drawn by
    hypothesis, entries and masks from the seeded generator."""
    if kind == "dense":
        n_rows = data.draw(st.integers(1, 12), label="n_rows")
        n_cols = data.draw(st.integers(n_rows + 2, 26), label="n_cols")
        return DenseOperator(rng.standard_normal((n_rows, n_cols)))
    if kind == "identity":
        return IdentityOperator(data.draw(st.integers(1, 64), label="n"))
    if kind == "dct":
        n_cols = data.draw(st.integers(1, 64), label="n_cols")
        rows = data.draw(st.lists(st.integers(0, n_cols - 1), min_size=1,
                                  max_size=n_cols, unique=True), label="rows")
        return PartialDctOperator(n_cols, rows)
    side = 2 ** data.draw(st.integers(1, 5), label="log_side")
    mask = rng.random((side, side)) < data.draw(st.floats(0.0, 1.0), label="density")
    mask[rng.integers(side), rng.integers(side)] = True
    return ComposedOperator(PartialDft2Operator(mask), HaarBasis(side))


@pytest.mark.parametrize("kind", ["dense", "identity", "dct", "dft2_haar"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_adjoint_identity_property(kind, data, seed):
    rng = np.random.default_rng(seed)
    op = _draw_operator(kind, data, rng)
    v = rng.standard_normal(op.n_cols)
    w = rng.standard_normal(op.n_rows)
    lhs, rhs = float(op.apply(v) @ w), float(v @ op.apply_adjoint(w))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_rows_orthonormal_flag_matches_probe():
    rng = np.random.default_rng(4)
    dense = DenseOperator(rng.standard_normal((6, 12)))
    assert not dense.rows_orthonormal
    assert not probe_rows_orthonormal(dense)
    ortho = DenseOperator(np.linalg.qr(rng.standard_normal((12, 6)))[0].T)
    assert ortho.rows_orthonormal
    assert probe_rows_orthonormal(ortho)


# ---------------------------------------------------------------- partial DCT

def test_partial_dct_matches_dense_columns(bench_dct_operator, bench_dct_matrix):
    m = bench_dct_operator.n_cols
    for j in (0, 1, 17, m - 1):
        e = np.zeros(m)
        e[j] = 1.0
        assert np.allclose(bench_dct_operator.apply(e), bench_dct_matrix[:, j],
                           rtol=0, atol=1e-12)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(m)
    assert np.allclose(bench_dct_operator.apply(v), bench_dct_matrix @ v,
                       rtol=1e-12, atol=1e-12)
    w = rng.standard_normal(bench_dct_operator.n_rows)
    assert np.allclose(bench_dct_operator.apply_adjoint(w),
                       bench_dct_matrix.T @ w, rtol=1e-12, atol=1e-12)


def test_partial_dct_validation():
    with pytest.raises(InputError):
        PartialDctOperator(8, [0, 0, 1])  # duplicate rows
    with pytest.raises(InputError):
        PartialDctOperator(8, [8])  # out of range
    with pytest.raises(InputError):
        PartialDctOperator(8, [])


@pytest.mark.parametrize("rows", [[1.9, 2.2], np.array([1.0, 2.0]), [True, False]],
                         ids=["float-list", "float-array", "bool-list"])
def test_row_indices_must_be_integers(rows):
    """Indices are never truncated or read from booleans: rows [1.9, 2.2]
    would select rows 1 and 2, and [True, False] rows 1 and 0."""
    for build in (partial_dct_matrix, PartialDctOperator):
        with pytest.raises(InputError, match="row indices must be integers"):
            build(8, rows)
    expected = partial_dct_matrix(8, [1, 2])
    for good in ((1, 2), np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint8)):
        assert np.array_equal(partial_dct_matrix(8, good), expected)
        assert PartialDctOperator(8, good).n_rows == 2


def test_dct_matrix_is_orthogonal():
    T = dct_matrix(16)
    assert np.abs(T @ T.T - np.eye(16)).max() < 1e-12
    assert partial_dct_matrix(16, [3, 5]).shape == (2, 16)


# ----------------------------------------------------------------------- Haar

def test_haar_constant_image_single_coefficient():
    c = 2.5
    coeffs = haar_dwt_2d(np.full((4, 4), c))
    assert abs(coeffs[0] - 4 * c) < 1e-12
    assert np.abs(coeffs[1:]).max() == 0.0


def test_haar_roundtrip():
    rng = np.random.default_rng(6)
    image = rng.standard_normal((8, 8))
    back = haar_idwt_2d(haar_dwt_2d(image))
    assert np.abs(back - image).max() < 1e-10
    # partial depth too
    back2 = haar_idwt_2d(haar_dwt_2d(image, levels=2), levels=2)
    assert np.abs(back2 - image).max() < 1e-10


def test_haar_energy_preservation():
    rng = np.random.default_rng(8)
    image = rng.standard_normal((16, 16))
    coeffs = haar_dwt_2d(image)
    assert abs(np.linalg.norm(coeffs) - np.linalg.norm(image)) \
        <= 1e-10 * np.linalg.norm(image)


def test_haar_validation():
    with pytest.raises(InputError):
        haar_dwt_2d(np.zeros((6, 6)))  # not a power of two
    with pytest.raises(InputError):
        haar_dwt_2d(np.zeros((4, 8)))  # not square
    with pytest.raises(InputError):
        haar_dwt_2d(np.zeros((8, 8)), levels=4)  # too deep
    with pytest.raises(InputError):
        haar_idwt_2d(np.zeros(12))  # not a square length


# Reference transforms: one stage per level, built with hstack/vstack and
# explicit copies.  The library's in-place butterflies must match them bit
# for bit.

def _oracle_haar_dwt(image, levels):
    out = np.array(image, dtype=float)
    size = out.shape[0]
    for _ in range(levels):
        block = out[:size, :size]
        lo = (block[:, 0::2] + block[:, 1::2]) / math.sqrt(2.0)
        hi = (block[:, 0::2] - block[:, 1::2]) / math.sqrt(2.0)
        block = np.hstack([lo, hi])
        lo = (block[0::2, :] + block[1::2, :]) / math.sqrt(2.0)
        hi = (block[0::2, :] - block[1::2, :]) / math.sqrt(2.0)
        out[:size, :size] = np.vstack([lo, hi])
        size //= 2
    return out.ravel()


def _oracle_haar_idwt(coeffs, levels):
    side = math.isqrt(coeffs.size)
    out = coeffs.reshape(side, side).copy()
    size = side >> (levels - 1)
    while size <= side:
        block = out[:size, :size]
        half = size // 2
        lo, hi = block[:half, :], block[half:, :]
        step = np.empty((size, size))
        step[0::2, :] = (lo + hi) / math.sqrt(2.0)
        step[1::2, :] = (lo - hi) / math.sqrt(2.0)
        lo, hi = step[:, :half].copy(), step[:, half:].copy()
        step[:, 0::2] = (lo + hi) / math.sqrt(2.0)
        step[:, 1::2] = (lo - hi) / math.sqrt(2.0)
        out[:size, :size] = step
        size *= 2
    return out


@settings(max_examples=80, deadline=None)
@given(log_side=st.integers(1, 7), depth=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_haar_matches_oracle_bit_for_bit(log_side, depth, seed):
    side = 1 << log_side
    levels = min(depth, log_side)  # 0 stands for the default, full depth
    full = levels or log_side
    rng = np.random.default_rng(seed)
    image = rng.standard_normal((side, side))
    coeffs = rng.standard_normal(side * side)
    assert np.array_equal(haar_dwt_2d(image, levels or None),
                          _oracle_haar_dwt(image, full))
    assert np.array_equal(haar_idwt_2d(coeffs, levels or None),
                          _oracle_haar_idwt(coeffs, full))


# --------------------------------------------------------------- partial DFT2

def _oracle_dft2_pairing(mask):
    """Self-conjugate frequencies and pair representatives as flat indices,
    found one selected frequency at a time with a set of seen pairs."""
    side = mask.shape[0]
    self_conj, pairs, seen = [], [], set()
    for k, l in np.argwhere(mask):
        k, l = int(k), int(l)
        conj = ((-k) % side, (-l) % side)
        rep = min((k, l), conj)
        if rep in seen:
            continue
        seen.add(rep)
        (self_conj if conj == (k, l) else pairs).append(rep[0] * side + rep[1])
    return sorted(self_conj), sorted(pairs)


@settings(max_examples=80, deadline=None)
@given(side=st.integers(1, 33), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_dft2_pairing_matches_oracle_and_is_adjoint(side, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((side, side)) < density
    mask[rng.integers(side), rng.integers(side)] = True
    op = PartialDft2Operator(mask)
    oracle_self, oracle_pairs = _oracle_dft2_pairing(mask)
    assert op._self.tolist() == oracle_self
    assert op._pairs.tolist() == oracle_pairs
    v = rng.standard_normal(op.n_cols)
    w = rng.standard_normal(op.n_rows)
    lhs, rhs = float(op.apply(v) @ w), float(v @ op.apply_adjoint(w))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
    assert np.abs(op.apply(op.apply_adjoint(w)) - w).max() <= 1e-10



def test_dft2_full_mask_invertible():
    op = PartialDft2Operator(np.ones((4, 4), dtype=bool))
    assert op.n_rows == op.n_cols == 16
    rng = np.random.default_rng(9)
    v = rng.standard_normal(16)
    assert np.allclose(op.apply_adjoint(op.apply(v)), v, atol=1e-10)


def test_dft2_dc_only_mask_is_mean():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = True
    op = PartialDft2Operator(mask)
    assert op.n_rows == 1
    rng = np.random.default_rng(10)
    v = rng.standard_normal(64)
    # single row, proportional to the image mean: (1/side) * sum = side * mean
    assert np.allclose(op.apply(v), [8 * v.mean()], atol=1e-12)


def test_dft2_conjugate_pairs_counted_once():
    side = 8
    mask_one = np.zeros((side, side), dtype=bool)
    mask_one[1, 2] = True
    mask_both = mask_one.copy()
    mask_both[-1 % side, -2 % side] = True  # the conjugate frequency
    op_one = PartialDft2Operator(mask_one)
    op_both = PartialDft2Operator(mask_both)
    assert op_one.n_rows == op_both.n_rows == 2  # one Re row + one Im row
    v = np.random.default_rng(11).standard_normal(64)
    assert np.allclose(op_one.apply(v), op_both.apply(v), atol=1e-12)


def test_dft2_self_conjugate_rows():
    side = 4
    mask = np.zeros((side, side), dtype=bool)
    mask[0, 0] = mask[2, 2] = True  # both self-conjugate on an even grid
    op = PartialDft2Operator(mask)
    assert op.n_rows == 2
    assert probe_rows_orthonormal(op)


def test_dft2_empty_mask_rejected():
    with pytest.raises(InputError):
        PartialDft2Operator(np.zeros((4, 4), dtype=bool))


def test_dft2_measurement_count_matches_mask():
    # conjugate-symmetric mask: every selected frequency contributes exactly
    # one real measurement component after the Re/Im embedding
    rng = np.random.default_rng(12)
    side = 16
    mask = np.zeros((side, side), dtype=bool)
    for _ in range(30):
        k, l = rng.integers(0, side, size=2)
        mask[k, l] = True
        mask[-k % side, -l % side] = True
    op = PartialDft2Operator(mask)
    assert op.n_rows == mask.sum()


# ------------------------------------------------------------------- composed

def test_composed_operator_shapes_and_gram():
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = mask[1, 1] = mask[2, 5] = True
    sampler = PartialDft2Operator(mask)
    op = ComposedOperator(sampler, HaarBasis(8))
    assert op.n_cols == 64 and op.n_rows == sampler.n_rows
    assert op.rows_orthonormal
    b = np.random.default_rng(13).standard_normal(op.n_rows)
    assert op.gram_solve(b) is b
    with pytest.raises(InputError):
        ComposedOperator(sampler, HaarBasis(16))  # size mismatch
