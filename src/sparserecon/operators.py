"""Sensing operators: H as a matrix or in matrix-free form.

Every operator exposes the same surface: ``apply`` (H v), ``apply_adjoint``
(H^T w) and ``gram_solve`` (solve (H H^T) x = b).  A "proper" operator is
N x m with N <= m and full row rank, so H H^T is symmetric positive
definite and the gram system is solvable.  ``gram_solve`` takes a
length-N vector or an N x k block of columns on every kind; that one shape
contract is checked in ``SensingOperator``.  When the rows of H are
orthonormal (H H^T = I), ``gram_solve`` is the identity map and returns
its argument unchanged; downstream iterations then take the cheap path
with no extra arithmetic.

``DenseOperator`` is the one owner of H H^T: it alone forms and factors
it, and every gram-weighted computation in the library (the solvers, the
min-SSQ form, ``ssq`` and the brute-force oracle) goes through its
``gram_solve``.  The factor is stored once in Fortran order and each solve
is one LAPACK ``dpotrs`` call on it, with no per-call copy or finiteness
scan.

Concrete kinds:

* ``DenseOperator``       -- explicit N x m matrix, Cholesky gram factor
* ``IdentityOperator``    -- square identity
* ``PartialDctOperator``  -- selected rows of the orthonormal type-II DCT
* ``PartialDft2Operator`` -- selected 2-D DFT coefficients of an image,
                             embedded as a real row-orthonormal operator
* ``ComposedOperator``    -- sampling operator composed with an
                             orthonormal synthesis basis (H = Phi Psi)

The 2-D Haar transform used by the composed operator lives here too
(``haar_dwt_2d`` / ``haar_idwt_2d``), in its orthonormal normalization so
that the composed operator keeps exactly orthonormal rows.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np
import scipy.fft
from scipy.linalg.lapack import dpotrs

from .errors import InputError, _count

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


class SensingOperator(ABC):
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

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @abstractmethod
    def apply(self, v) -> np.ndarray:
        """Return H v for a length-m vector v."""

    @abstractmethod
    def apply_adjoint(self, w) -> np.ndarray:
        """Return H^T w for a length-N vector w."""

    def gram_solve(self, b) -> np.ndarray:
        """Return x with (H H^T) x = b, for a length-N vector or an N x k block.

        Row-orthonormal operators return ``b`` unchanged (H H^T = I); any
        other kind solves in ``_gram_solve``, which the dense kind
        implements with its Cholesky factor.  No kind checks ``b`` for
        finiteness (the row-orthonormal kinds never did); the library
        entries validate y at the boundary.
        """
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.n_rows:
            raise InputError(
                f"gram_solve expects a length-{self.n_rows} vector or an "
                f"{self.n_rows} x k block, got shape {b.shape}"
            )
        return b if self.rows_orthonormal else self._gram_solve(b)

    def _gram_solve(self, b: np.ndarray) -> np.ndarray:
        """Solve (H H^T) x = b for a checked b; rows are not orthonormal."""
        raise NotImplementedError  # pragma: no cover - such kinds override

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(N={self.n_rows}, m={self.n_cols}, "
            f"kind={self.kind!r}, rows_orthonormal={self.rows_orthonormal})"
        )


def probe_rows_orthonormal(op: SensingOperator) -> bool:
    """Check H H^T = I by probing.

    Uses the full basis for small N (exact check of every column of H H^T)
    and a handful of random probes otherwise.  Probing keeps the check
    affordable for matrix-free kinds.
    """
    n = op.n_rows
    if n <= 64:
        probes = np.eye(n)
    else:
        rng = np.random.default_rng(0)
        probes = rng.standard_normal((5, n))
    for w in probes:
        back = op.apply(op.apply_adjoint(w))
        if np.max(np.abs(back - w)) > _ORTHO_TOL * max(1.0, np.max(np.abs(w))):
            return False
    return True


class DenseOperator(SensingOperator):
    """Explicit dense sensing matrix with a precomputed gram factorization.

    The only place in the library that forms and factors H H^T.  The
    one-off Cholesky, ``gram_lower`` (L with H H^T = L L^T, stored in
    Fortran order), is the only O(N^3) cost; every later gram_solve, of a
    vector or a block, is one ``dpotrs`` call (a pair of triangular solves)
    that neither copies nor scans the factor and never writes to ``b``.
    Rows detected orthonormal (max |H H^T - I| <= 1e-10) store no factor
    (``gram_lower`` is None) and make gram_solve the identity map.
    """

    def __init__(self, matrix):
        matrix = _finite_matrix(matrix)
        n_rows, n_cols = matrix.shape
        gram = matrix @ matrix.T
        orthonormal = bool(
            np.max(np.abs(gram - np.eye(n_rows))) <= _ORTHO_TOL
        )
        super().__init__(n_rows, n_cols, orthonormal, "dense")
        self.matrix = matrix
        self.gram_lower = None
        if not orthonormal:
            try:
                self.gram_lower = np.asfortranarray(np.linalg.cholesky(gram))
            except np.linalg.LinAlgError as exc:
                raise InputError(
                    "not a proper sensing matrix: H H^T is not positive definite "
                    "(rank-deficient rows)"
                ) from exc

    def apply(self, v) -> np.ndarray:
        v = _as_vector(v, self.n_cols, "v")
        return self.matrix @ v

    def apply_adjoint(self, w) -> np.ndarray:
        w = _as_vector(w, self.n_rows, "w")
        return self.matrix.T @ w

    def _gram_solve(self, b: np.ndarray) -> np.ndarray:
        x, info = dpotrs(self.gram_lower, b, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return x


class IdentityOperator(SensingOperator):
    """Square identity operator (N = m)."""

    def __init__(self, n: int):
        super().__init__(n, n, True, "identity")

    def apply(self, v) -> np.ndarray:
        return _as_vector(v, self.n_cols, "v")

    def apply_adjoint(self, w) -> np.ndarray:
        return _as_vector(w, self.n_rows, "w")


def dct_matrix(n: int) -> np.ndarray:
    """The n x n orthonormal type-II DCT matrix T, with T[k] the k-th basis row."""
    return scipy.fft.dct(np.eye(_count(n, "n", 1)), type=2, norm="ortho", axis=0)


def partial_dct_matrix(n_cols: int, rows) -> np.ndarray:
    """Dense submatrix of the orthonormal type-II DCT given 0-based row indices."""
    rows = _check_row_indices(rows, n_cols)
    return dct_matrix(n_cols)[rows, :]


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
        if not probe_rows_orthonormal(self):
            raise InputError("partial DCT row selection failed orthonormality check")

    def apply(self, v) -> np.ndarray:
        v = _as_vector(v, self.n_cols, "v")
        return scipy.fft.dct(v, type=2, norm="ortho")[self._rows]

    def apply_adjoint(self, w) -> np.ndarray:
        w = _as_vector(w, self.n_rows, "w")
        full = np.zeros(self.n_cols)
        full[self._rows] = w
        return scipy.fft.idct(full, type=2, norm="ortho")


# ----------------------------------------------------------------------
# 2-D Haar wavelet transform (orthonormal / "Daubechies-2" filters)
# ----------------------------------------------------------------------

def _check_square_pow2(side: int) -> int:
    side = _count(side, "image side", 1)
    if side & (side - 1):
        raise InputError(f"image side must be a power of two, got {side}")
    return side


def _check_levels(side: int, levels) -> int:
    max_levels = side.bit_length() - 1
    if max_levels < 1:
        raise InputError("image side must be at least 2 to transform")
    if levels is None:
        return max_levels
    return _count(levels, "levels", 1, max_levels)


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


def haar_dwt_2d(image, levels=None) -> np.ndarray:
    """Orthonormal multilevel 2-D Haar analysis of a square image.

    The image side must be a power of two.  Returns the coefficient array
    flattened to a vector (nested quadrant layout, approximation block in
    the top-left corner).  With 1/sqrt(2) filters the transform is exactly
    orthogonal: energy is preserved and ``haar_idwt_2d`` inverts it.
    """
    out = np.array(image, dtype=float)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise InputError(f"expected a square 2-D image, got shape {out.shape}")
    side = _check_square_pow2(out.shape[0])
    for j in range(_check_levels(side, levels)):
        block = out[:side >> j, :side >> j]
        _haar_step(block, inverse=False)
        _haar_step(block.T, inverse=False)
    return out.ravel()


def haar_idwt_2d(coeffs, levels=None) -> np.ndarray:
    """Inverse of :func:`haar_dwt_2d`; returns the square image."""
    out = np.array(coeffs, dtype=float).ravel()
    side = math.isqrt(out.size)
    if side * side != out.size:
        raise InputError("coefficient vector length is not a perfect square")
    side = _check_square_pow2(side)
    out = out.reshape(side, side)
    for j in reversed(range(_check_levels(side, levels))):
        block = out[:side >> j, :side >> j]
        _haar_step(block.T, inverse=True)
        _haar_step(block, inverse=True)
    return out


class HaarBasis:
    """Orthonormal full-depth 2-D Haar synthesis/analysis pair on flattened vectors."""

    def __init__(self, side: int):
        self.side = _check_square_pow2(side)
        self.levels = _check_levels(self.side, None)
        self.size = self.side * self.side

    def synthesize(self, coeffs) -> np.ndarray:
        """Coefficients -> image, flattened."""
        return haar_idwt_2d(coeffs, self.levels).ravel()

    def analyze(self, image_vec) -> np.ndarray:
        """Image (flattened) -> coefficients."""
        image_vec = np.asarray(image_vec, dtype=float)
        return haar_dwt_2d(image_vec.reshape(self.side, self.side), self.levels)


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
        if not probe_rows_orthonormal(self):
            raise InputError("partial DFT mask failed orthonormality check")

    def apply(self, v) -> np.ndarray:
        v = _as_vector(v, self.n_cols, "v")
        spectrum = (np.fft.fft2(v.reshape(self.side, self.side)) / self.side).ravel()
        z = spectrum[self._pairs]
        return np.concatenate(
            [spectrum[self._self].real, _SQRT2 * z.real, _SQRT2 * z.imag]
        )

    def apply_adjoint(self, w) -> np.ndarray:
        w = _as_vector(w, self.n_rows, "w")
        n_self, n_pairs = self._self.size, self._pairs.size
        re, im = w[n_self:n_self + n_pairs], w[n_self + n_pairs:]
        coeffs = np.zeros(self.n_cols, dtype=complex)
        coeffs[self._self] = w[:n_self]
        coeffs[self._pairs] = _SQRT2 * (re + 1j * im)
        image = np.fft.ifft2(coeffs.reshape(self.side, self.side))
        return (self.side * image.real).ravel()


def _conjugate(flat: np.ndarray, side: int) -> np.ndarray:
    """Flat index of the conjugate frequency (-k mod side, -l mod side)."""
    k, l = np.divmod(flat, side)
    return (-k % side) * side + (-l % side)


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

    def apply(self, v) -> np.ndarray:
        v = _as_vector(v, self.n_cols, "v")
        return self.sampling.apply(self.basis.synthesize(v))

    def apply_adjoint(self, w) -> np.ndarray:
        return self.basis.analyze(self.sampling.apply_adjoint(w))

    def _gram_solve(self, b: np.ndarray) -> np.ndarray:
        return self.sampling.gram_solve(b)
