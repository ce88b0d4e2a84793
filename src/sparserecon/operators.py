"""Sensing operators: H as a matrix or in matrix-free form.

Every operator exposes the same surface: ``apply`` (H v), ``apply_adjoint``
(H^T w) and ``gram_solve`` (solve (H H^T) x = b).  A "proper" operator is
N x m with N <= m and full row rank, so H H^T is symmetric positive
definite and the gram system is solvable.  Each of the three methods takes
a vector or a block of k columns: ``apply`` a length-m vector or an m x k
block, ``apply_adjoint`` and ``gram_solve`` a length-N vector or an N x k
block.  That one shape rule is checked in ``SensingOperator``, which also
serves the block of a kind with no block path of its own one column at a
time, so column j of a block result is the vector result of column j.
When the rows of H are orthonormal (H H^T = I), ``gram_solve`` is the
identity map and returns its argument unchanged; downstream iterations
then take the cheap path with no extra arithmetic.

``DenseOperator`` is the one owner of H H^T: it alone forms and factors
it, and every gram-weighted computation in the library (the solvers, the
min-SSQ form, ``ssq`` and the brute-force oracle) goes through its
``gram_solve``.  The factor is stored once in Fortran order and each solve
is one LAPACK ``dpotrs`` call on it, with no per-call copy or finiteness
scan.

``DenseOperator.apply`` of a block reads only the columns of H at the
block's nonzero rows, so a block of unit columns e_j gives the columns
H[:, j] exactly; a vector apply reads the whole matrix.  The dense block
products round differently from the column-by-column ones, within a few
ulps of |H| |V|.

Concrete kinds:

* ``DenseOperator``       -- explicit N x m matrix, Cholesky gram factor
                             (none when its rows are orthonormal)
* ``PartialDctOperator``  -- selected rows of the orthonormal type-II DCT
* ``PartialDft2Operator`` -- selected 2-D DFT coefficients of an image,
                             embedded as a real row-orthonormal operator
* ``ComposedOperator``    -- sampling operator composed with an
                             orthonormal synthesis basis (H = Phi Psi)

``PartialDft2Operator`` transforms only the half spectrum of a real image
(``scipy.fft``'s ``rfft2``/``irfft2``), with the measurement rows in the
order the full complex spectrum gives them; its values lie a few ulps from
complex ``fft2``/``ifft2``.

The partial DCT and DFT kinds have orthonormal rows by construction
(distinct rows of the orthonormal DCT; the real embedding of distinct
unitary DFT coefficients), so their constructors make no operator call;
the tests check H H^T = I on drawn row sets and masks by a round trip.

``HaarBasis`` is the one 2-D Haar transform, the synthesis basis of the
composed operator: full depth, in its orthonormal normalization so that
the composed operator keeps exactly orthonormal rows.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft
from scipy.linalg.lapack import dpotrs

from .errors import InputError, _count, _pow2

_ORTHO_TOL = 1e-10
_SQRT2 = math.sqrt(2.0)


def _as_vector(v, length: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != length:
        raise InputError(
            f"{name} must be a length-{length} vector, got shape {v.shape}"
        )
    return v


def _finite_vector(v, length: int, name: str) -> np.ndarray:
    """``v`` as a length-``length`` float vector with finite entries."""
    v = _as_vector(v, length, name)
    if not np.isfinite(v).all():
        raise InputError(f"{name} must have finite entries")
    return v


def _finite_matrix(matrix) -> np.ndarray:
    """``matrix`` as a nonempty 2-D float array with finite entries."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise InputError("sensing matrix must be 2-D")
    if matrix.size == 0:
        raise InputError(f"sensing matrix is empty (shape {matrix.shape})")
    if not np.isfinite(matrix).all():
        raise InputError("sensing matrix entries must be finite")
    return matrix


class SensingOperator:
    """Abstract N x m sensing operator with gram-system support.

    Operators are immutable after construction and safe to share across
    threads; all operations are pure.
    """

    def __init__(self, n_rows: int, n_cols: int, rows_orthonormal: bool, kind: str):
        n_rows, n_cols = _count(n_rows, "n_rows", 1), _count(n_cols, "n_cols", 1)
        if n_rows > n_cols:
            raise InputError(
                f"not a proper sensing matrix: N={n_rows} exceeds m={n_cols}"
            )
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.rows_orthonormal = rows_orthonormal
        self.kind = kind

    def apply(self, v) -> np.ndarray:
        """Return H v for a length-m vector v, or H V for an m x k block V."""
        v = _operand(v, self.n_cols, "apply")
        return self._apply_vector(v) if v.ndim == 1 else self._apply_block(v)

    def apply_adjoint(self, w) -> np.ndarray:
        """Return H^T w for a length-N vector w, or H^T W for an N x k block W."""
        w = _operand(w, self.n_rows, "apply_adjoint")
        return self._adjoint_vector(w) if w.ndim == 1 else self._adjoint_block(w)

    def gram_solve(self, b) -> np.ndarray:
        """Return x with (H H^T) x = b, for a length-N vector or an N x k block.

        Row-orthonormal operators return ``b`` unchanged (H H^T = I); any
        other kind solves in ``_gram_solve``, which the dense kind
        implements with its Cholesky factor.  No kind checks ``b`` for
        finiteness (the row-orthonormal kinds never did); the library
        entries validate y at the boundary.
        """
        b = _operand(b, self.n_rows, "gram_solve")
        return b if self.rows_orthonormal else self._gram_solve(b)

    # Each kind implements the two vector hooks; a kind with a block path
    # of its own overrides the block hooks too.  Every hook gets an
    # operand already checked by the shape rule.  None is abstract: a
    # delegating wrapper overrides the three public methods instead.

    def _apply_vector(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - every kind overrides

    def _adjoint_vector(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # pragma: no cover - every kind overrides

    def _apply_block(self, v: np.ndarray) -> np.ndarray:
        return _by_columns(self._apply_vector, v, self.n_rows)

    def _adjoint_block(self, w: np.ndarray) -> np.ndarray:
        return _by_columns(self._adjoint_vector, w, self.n_cols)

    def _gram_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (H H^T) x = b for a checked b; rows are not orthonormal."""
        raise NotImplementedError  # pragma: no cover - such kinds override

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(N={self.n_rows}, m={self.n_cols}, "
            f"kind={self.kind!r}, rows_orthonormal={self.rows_orthonormal})"
        )


def _operand(x, length: int, method: str) -> np.ndarray:
    """``x`` as a float length-``length`` vector or ``length`` x k block: the
    one shape rule of the three operator methods."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != length:
        raise InputError(
            f"{method} expects a length-{length} vector or a {length} x k "
            f"block, got shape {x.shape}"
        )
    return x


def _by_columns(vector_map, block: np.ndarray, length: int) -> np.ndarray:
    """The length x k block whose column j is ``vector_map`` of column j."""
    out = np.empty((length, block.shape[1]))
    for j in range(block.shape[1]):
        out[:, j] = vector_map(block[:, j])
    return out


class DenseOperator(SensingOperator):
    """Explicit dense sensing matrix with a precomputed gram factorization.

    The only place in the library that forms and factors H H^T.  The
    one-off Cholesky, ``gram_lower`` (L with H H^T = L L^T, stored in
    Fortran order), is the only O(N^3) cost; every later gram_solve, of a
    vector or a block, is one ``dpotrs`` call (a pair of triangular solves)
    that neither copies nor scans the factor and never writes to ``b``.
    Rows detected orthonormal (max |H H^T - I| <= 1e-10) store no factor
    (``gram_lower`` is None) and make gram_solve the identity map.

    ``apply(v)`` is ``matrix @ v``.  A block V is ``matrix[:, idx] @ V[idx]``
    with ``idx`` its nonzero rows; it rounds differently from the full
    product (a few ulps of ``|H_S| |V_S|``), and gives ``H[:, J]`` exactly
    for unit columns e_j, j in J.  The matrix stays in C order; the gather
    copies only the columns at ``idx``.  The block adjoint is
    ``(W.T @ matrix).T``, one pass over the matrix in its own order.
    """

    def __init__(self, matrix):
        matrix = _finite_matrix(matrix)
        # the shape rule runs first: a tall matrix is refused before its
        # N x N gram is formed
        super().__init__(*matrix.shape, False, "dense")
        gram = matrix @ matrix.T
        self.rows_orthonormal = bool(
            np.max(np.abs(gram - np.eye(self.n_rows))) <= _ORTHO_TOL
        )
        self.matrix = matrix
        self.gram_lower = None
        if not self.rows_orthonormal:
            try:
                self.gram_lower = np.asfortranarray(np.linalg.cholesky(gram))
            except np.linalg.LinAlgError as exc:
                raise InputError(
                    "not a proper sensing matrix: H H^T is not positive definite "
                    "(rank-deficient rows)"
                ) from exc

    def _apply_vector(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def _apply_block(self, v: np.ndarray) -> np.ndarray:
        idx = np.flatnonzero(v.any(axis=1))
        return self.matrix[:, idx] @ v[idx]

    def _adjoint_vector(self, w: np.ndarray) -> np.ndarray:
        return self.matrix.T @ w

    def _adjoint_block(self, w: np.ndarray) -> np.ndarray:
        return (w.T @ self.matrix).T

    def _gram_solve(self, b: np.ndarray) -> np.ndarray:
        x, info = dpotrs(self.gram_lower, b, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return x


def _as_matrix(h) -> np.ndarray:
    """The explicit matrix of ``h``: a ``DenseOperator``'s own, or ``h``
    checked by ``_finite_matrix``; a matrix-free operator is refused."""
    if isinstance(h, DenseOperator):
        return h.matrix
    if isinstance(h, SensingOperator):
        raise InputError("exact matrix analysis needs an explicit dense matrix")
    return _finite_matrix(h)


def partial_dct_matrix(n_cols: int, rows) -> np.ndarray:
    """Dense submatrix of the orthonormal type-II DCT given 0-based row indices."""
    rows = _check_row_indices(rows, n_cols)
    return scipy.fft.dct(np.eye(n_cols), type=2, norm="ortho", axis=0)[rows, :]


def _check_row_indices(rows, n_cols: int) -> np.ndarray:
    n_cols = _count(n_cols, "n_cols", 1)
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.size == 0:
        raise InputError("row index list must be a nonempty 1-D sequence")
    if rows.dtype.kind not in "iu":
        raise InputError(f"row indices must be integers, got dtype {rows.dtype}")
    if rows.min() < 0 or rows.max() >= n_cols:
        raise InputError("row indices out of range")
    if np.unique(rows).size != rows.size:
        raise InputError("row indices must be distinct")
    return rows


class PartialDctOperator(SensingOperator):
    """Selected rows of the orthonormal type-II DCT, applied matrix-free.

    Rows of the orthonormal DCT matrix are orthonormal, so any distinct
    row selection yields H H^T = I exactly.
    """

    def __init__(self, n_cols: int, rows):
        rows = _check_row_indices(rows, n_cols)
        super().__init__(rows.size, n_cols, True, "partial-dct")
        self._rows = rows

    def _apply_vector(self, v: np.ndarray) -> np.ndarray:
        return scipy.fft.dct(v, type=2, norm="ortho")[self._rows]

    def _adjoint_vector(self, w: np.ndarray) -> np.ndarray:
        full = np.zeros(self.n_cols)
        full[self._rows] = w
        return scipy.fft.idct(full, type=2, norm="ortho")


# ----------------------------------------------------------------------
# 2-D Haar wavelet transform (orthonormal / "Daubechies-2" filters)
# ----------------------------------------------------------------------

def _haar_step(block: np.ndarray, inverse: bool) -> None:
    """One Haar stage along the columns of ``block``, in place.

    Analysis maps each column pair (a, b) to (a + b, a - b) / sqrt(2), sums
    to the left half and differences to the right.  The butterfly is its
    own inverse, so synthesis maps the two halves back to column pairs.
    Row stages pass the transposed view.
    """
    half = block.shape[1] // 2
    pairs = (block[:, 0::2], block[:, 1::2])
    halves = (block[:, :half], block[:, half:])
    (a, b), (sums, diffs) = (halves, pairs) if inverse else (pairs, halves)
    sums[...], diffs[...] = (a + b) / _SQRT2, (a - b) / _SQRT2


class HaarBasis:
    """Orthonormal full-depth 2-D Haar transform of a square image, on
    flattened vectors.

    ``analyze`` maps an image to its coefficients in the nested quadrant
    layout (approximation block in the top-left corner); ``synthesize``
    inverts it.  With 1/sqrt(2) filters the pair is exactly orthogonal, so
    energy is preserved.  The side, a power of two of at least 2, is
    checked once here; each call checks that its input has ``size`` entries.
    """

    def __init__(self, side: int):
        self.side = _pow2(side, "image side", 2)
        self.levels = self.side.bit_length() - 1
        self.size = self.side * self.side

    def _square(self, v, name: str) -> np.ndarray:
        """A fresh side x side float copy of the length-``size`` vector ``v``."""
        return _as_vector(v, self.size, name).reshape(self.side, self.side).copy()

    def synthesize(self, coeffs) -> np.ndarray:
        """Coefficients -> image, flattened."""
        out = self._square(coeffs, "coeffs")
        for j in reversed(range(self.levels)):
            block = out[:self.side >> j, :self.side >> j]
            _haar_step(block.T, inverse=True)
            _haar_step(block, inverse=True)
        return out.ravel()

    def analyze(self, image_vec) -> np.ndarray:
        """Image (flattened) -> coefficients."""
        out = self._square(image_vec, "image")
        for j in range(self.levels):
            block = out[:self.side >> j, :self.side >> j]
            _haar_step(block, inverse=False)
            _haar_step(block.T, inverse=False)
        return out.ravel()


# ----------------------------------------------------------------------
# Partial 2-D DFT with real-valued embedding
# ----------------------------------------------------------------------

class PartialDft2Operator(SensingOperator):
    """Real-embedded partial 2-D DFT of a (flattened) square image.

    The mask selects frequencies of the unitary 2-D DFT (DC at index
    [0, 0]).  Each conjugate pair of selected frequencies is kept once and
    contributes two measurement rows, sqrt(2) * Re and sqrt(2) * Im of the
    coefficient; self-conjugate frequencies contribute their (real) value
    directly.  This makes the rows exactly orthonormal, so the whole
    pipeline stays in real arithmetic with a trivial gram system.

    Measurement layout: self-conjugate rows first, then the real parts of
    every pair, then the imaginary parts, each block in lexicographic
    frequency order.

    Both directions work on the half spectrum of a real image, the
    ``side x (side // 2 + 1)`` columns l <= side // 2 that ``rfft2`` and
    ``irfft2`` keep.  A pair keyed past them is read at its conjugate, whose
    imaginary part has the opposite sign.  The adjoint writes the Hermitian
    part of the embedded coefficients: c at a pair's half-spectrum entry,
    and also conj(c) at its conjugate when both lie in the half spectrum
    (columns 0 and side / 2).  The real transforms round a few ulps away
    from complex ``fft2``/``ifft2`` on the full spectrum.
    """

    def __init__(self, mask):
        mask = np.asarray(mask)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise InputError(f"mask must be a square 2-D array, got {mask.shape}")
        mask = mask.astype(bool)
        if not mask.any():
            raise InputError("mask selects no frequencies")
        side = mask.shape[0]
        # frequency (k, l) has flat index k * side + l; each conjugate pair is
        # keyed by its smaller flat index, which is also its lexicographic first
        selected = np.flatnonzero(mask)
        keys = np.unique(np.minimum(selected, _conjugate(selected, side)))
        self_conj = keys == _conjugate(keys, side)
        self._self = keys[self_conj]
        self._pairs = keys[~self_conj]
        n_rows = self._self.size + 2 * self._pairs.size
        super().__init__(n_rows, side * side, True, "partial-dft2")
        self.side = side
        # self-conjugate frequencies sit in columns 0 and side / 2, inside
        # the half spectrum; a pair past it is read at its conjugate
        conjugates = _conjugate(self._pairs, side)
        in_half = self._pairs % side <= side // 2
        self._self_at = _half_index(self._self, side)
        self._pair_at = _half_index(np.where(in_half, self._pairs, conjugates), side)
        self._im_scale = np.where(in_half, _SQRT2, -_SQRT2)
        # pairs in columns 0 and side / 2 have both members in the half spectrum
        self._mirrored = np.flatnonzero(in_half & (conjugates % side <= side // 2))
        self._mirror_at = _half_index(conjugates[self._mirrored], side)

    def _apply_vector(self, v: np.ndarray) -> np.ndarray:
        spectrum = scipy.fft.rfft2(v.reshape(self.side, self.side)).ravel()
        z = spectrum[self._pair_at] / self.side
        return np.concatenate([
            spectrum[self._self_at].real / self.side,
            _SQRT2 * z.real,
            self._im_scale * z.imag,
        ])

    def _adjoint_vector(self, w: np.ndarray) -> np.ndarray:
        n_self, n_pairs = self._self.size, self._pairs.size
        re, im = w[n_self:n_self + n_pairs], w[n_self + n_pairs:]
        half = np.zeros(self.side * (self.side // 2 + 1), dtype=complex)
        half[self._self_at] = w[:n_self]
        c = (_SQRT2 * re + 1j * (self._im_scale * im)) / 2
        half[self._pair_at] = c
        half[self._mirror_at] = c[self._mirrored].conj()
        image = scipy.fft.irfft2(half.reshape(self.side, -1), s=(self.side, self.side))
        return (self.side * image).ravel()


def _conjugate(flat: np.ndarray, side: int) -> np.ndarray:
    """Flat index of the conjugate frequency (-k mod side, -l mod side)."""
    k, l = np.divmod(flat, side)
    return (-k % side) * side + (-l % side)


def _half_index(flat: np.ndarray, side: int) -> np.ndarray:
    """Flat index in the side x (side // 2 + 1) half spectrum of a frequency
    with l <= side // 2."""
    k, l = np.divmod(flat, side)
    return k * (side // 2 + 1) + l


class ComposedOperator(SensingOperator):
    """Sampling operator composed with an orthonormal synthesis basis.

    H = Phi Psi: the signal vector holds transform coefficients, Psi
    synthesizes the image, Phi samples it.  Because Psi is orthogonal,
    H H^T = Phi Phi^T and the gram solve delegates to the sampler.
    """

    def __init__(self, sampling: SensingOperator, basis: HaarBasis):
        if sampling.n_cols != basis.size:
            raise InputError(
                f"sampling operator works on length-{sampling.n_cols} images but "
                f"the basis produces length-{basis.size} images"
            )
        super().__init__(
            sampling.n_rows, basis.size, sampling.rows_orthonormal, "composed"
        )
        self.sampling = sampling
        self.basis = basis

    def _apply_vector(self, v: np.ndarray) -> np.ndarray:
        return self.sampling.apply(self.basis.synthesize(v))

    def _adjoint_vector(self, w: np.ndarray) -> np.ndarray:
        return self.basis.analyze(self.sampling.apply_adjoint(w))

    def _gram_solve(self, b: np.ndarray) -> np.ndarray:
        return self.sampling.gram_solve(b)
