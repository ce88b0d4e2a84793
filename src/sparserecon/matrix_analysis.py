"""Exact combinatorial measures of a sensing matrix.

The central quantity is the sparse subspace quotient: for a nonzero
r-sparse s,

    ssq(s, H) = s^T H^T (H H^T)^{-1} H s / s^T s  in [0, 1],

the normalized energy of the projection of s onto the row space of H.
Its minimum over all r-sparse vectors reduces to a minimum over size-r
supports A of lambda_min(H_A^T (H H^T)^{-1} H_A), which this module
enumerates exactly (with a hard guard on the number of supports).  The
restricted isometry constant is computed the same way from H^T H.

Q = H^T (H H^T)^{-1} H is formed from ``DenseOperator.gram_solve``, the
library's one gram weighting; for rows that operator detects as orthonormal
(max |H H^T - I| <= 1e-10) it is H^T H exactly.  One private eigen kernel
serves all five searches (exact and sampled min-SSQ and RIC, and the spark
screen): on an m x m form, Q or G = H^T H, formed once, it gathers the
r x r principal blocks of a chunk of ``_CHUNK`` supports into one stacked
array and takes their eigenvalues in one ``eigvalsh`` call, so memory
beyond the form is bounded per chunk.  The spark search screens column
subsets S by lambda_min(G_S) = sigma_min(H_S)^2, with a margin for the
rounding of G and ``eigvalsh``, and runs its pivoted-QR rank test only on
the subsets the screen cannot clear, so it returns what that test alone
would.

Each measure has one body, ``_min_ssq`` or ``_ric``, over a stream of
supports; the exact and the sampled (non-exact) modes differ only in that
stream: every support behind the size guard, or ``_sampled_supports``.
Sampled modes exist for matrices too large for enumeration; they are
labeled non-exact and never feed certificates.

``certify`` bundles the exact measures into a certificate, whose JSON form
is built from its fields, with two recovery flags per sparsity level:

* uniqueness of the sparsest solution requires min 2r-SSQ > 0, and
* guaranteed exact/near-optimal thresholding recovery requires
  min 2r-SSQ > 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, is_dataclass
from itertools import chain, combinations, islice

import numpy as np
import scipy.linalg

from .errors import InputError, SizeGuardError, _count
from .operators import DenseOperator, SensingOperator, _finite_matrix, _finite_vector
from .recon import _as_measurements

MIN_SSQ_GUARD = 10_000_000
SAMPLED_SUPPORTS = 10_000
_ZERO_EIG_TOL = 1e-14
# supports per stacked eigenvalue call; bounds the (chunk, r, r) work arrays
_CHUNK = 1024


def _as_matrix(h) -> np.ndarray:
    if isinstance(h, DenseOperator):
        return h.matrix
    if isinstance(h, SensingOperator):
        raise InputError("exact matrix analysis needs an explicit dense matrix")
    return _finite_matrix(h)


def _exact_supports(m: int, r: int, guard: int):
    """Every size-r support in lexicographic order, behind the size guard."""
    if math.comb(m, r) > _count(guard, "guard", 1):
        raise SizeGuardError(
            f"enumerating C({m},{r})={math.comb(m, r)} supports exceeds the "
            f"guard of {guard}; use the sampled (non-exact) mode instead"
        )
    return combinations(range(m), r)


def ssq(s, h) -> float:
    """Sparse subspace quotient of a nonzero vector against a proper matrix."""
    h = _as_matrix(h)
    s = _finite_vector(s, h.shape[1], "s")
    energy = float(s @ s)
    if energy == 0.0:
        raise InputError("ssq is undefined for the zero vector")
    hs = h @ s
    return min(max(float(hs @ DenseOperator(h).gram_solve(hs)) / energy, 0.0), 1.0)


def _support_chunks(supports, r: int):
    """Group an iterable of size-r supports into (<= _CHUNK, r) index arrays."""
    supports = iter(supports)
    while True:
        flat = np.fromiter(chain.from_iterable(islice(supports, _CHUNK)), dtype=np.intp)
        if flat.size == 0:
            return
        yield flat.reshape(-1, r)


def _sampled_supports(m: int, r: int, n_samples: int, seed: int):
    """Sorted random size-r supports, drawn one ``rng.choice`` at a time."""
    n_samples = _count(n_samples, "n_samples", 1)
    rng = np.random.default_rng(_count(seed, "seed"))
    return (np.sort(rng.choice(m, size=r, replace=False)) for _ in range(n_samples))


def _block_eigs(form: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape (chunk, r), of the principal blocks of an
    m x m form at the (chunk, r) supports ``idx``, from one stacked call."""
    m = form.shape[0]
    return np.linalg.eigvalsh(form.ravel()[idx[:, :, None] * m + idx[:, None, :]])


def _best_support(form: np.ndarray, supports, r: int, score,
                  stop_at: float = -np.inf) -> tuple[float, tuple[int, ...]]:
    """Minimise ``score`` over the r x r principal blocks of an m x m form.

    Supports stream in chunks of ``_CHUNK``; each chunk's eigenvalues come
    from ``_block_eigs``.  ``score`` maps the ascending eigenvalues, shape
    (chunk, r), to one value per support.  Ties go to the first support in
    stream order.  The search stops at the first support scoring at or below
    ``stop_at``, which is then the one returned.
    """
    best, best_support = np.inf, ()
    for idx in _support_chunks(supports, r):
        values = score(_block_eigs(form, idx))
        hits = np.flatnonzero(values <= stop_at)
        pos = hits[0] if hits.size else np.argmin(values)
        if values[pos] < best:
            best, best_support = float(values[pos]), tuple(int(i) for i in idx[pos])
        if hits.size:
            break
    return best, best_support


def _checked_level(h, r: int, name: str = "sparsity level r") -> np.ndarray:
    """h as a checked dense matrix, with ``r`` an integer in [1, m]."""
    h = _as_matrix(h)
    _count(r, name, 1, h.shape[1])
    return h


def _min_ssq(h: np.ndarray, r: int, supports, stop_at: float = -np.inf
             ) -> tuple[float, tuple[int, ...]]:
    """Minimum r-SSQ, clamped to [0, 1], over the blocks of Q = H^T (H H^T)^{-1} H
    at the supports ``supports()`` streams.  It is called before Q is formed,
    and not at all when r > N: any r columns are then dependent and the first
    r are returned.  A support scoring at or below ``stop_at`` counts as exactly
    0 and ends the search."""
    if r > h.shape[0]:
        return 0.0, tuple(range(r))
    supports = supports()
    q = h.T @ DenseOperator(h).gram_solve(h)
    best, best_support = _best_support(q, supports, r, lambda eigs: eigs[:, 0], stop_at)
    if best <= stop_at:
        best = 0.0
    return min(max(best, 0.0), 1.0), best_support


def _ric(h: np.ndarray, r: int, supports) -> tuple[float, tuple[int, ...]]:
    """Largest deviation from 1 of the H_A^T H_A eigenvalues over ``supports``."""
    worst, worst_support = _best_support(
        h.T @ h, supports, r,
        lambda eigs: -np.maximum(np.abs(1.0 - eigs[:, 0]), np.abs(eigs[:, -1] - 1.0)))
    return -worst, worst_support


def min_ssq(h, r: int, guard: int = MIN_SSQ_GUARD) -> tuple[float, tuple[int, ...]]:
    """Exact minimum r-SSQ and a support attaining it.

    Enumerates size-r supports lexicographically and minimizes the smallest
    eigenvalue of H_A^T (H H^T)^{-1} H_A.  Stops early once an exactly
    singular restriction is found (the minimum cannot drop below zero); the
    support returned is then the lexicographically first singular one.
    """
    h = _checked_level(h, r)
    return _min_ssq(h, r, lambda: _exact_supports(h.shape[1], r, guard), _ZERO_EIG_TOL)


def ric(h, r: int, guard: int = MIN_SSQ_GUARD) -> tuple[float, tuple[int, ...]]:
    """Exact restricted isometry constant for sparsity level r, with a
    support attaining the worst deviation of H_A^T H_A eigenvalues from 1."""
    h = _checked_level(h, r)
    return _ric(h, r, _exact_supports(h.shape[1], r, guard))


def min_ssq_sampled(h, r: int, n_samples: int = SAMPLED_SUPPORTS, seed: int = 0
                    ) -> tuple[float, tuple[int, ...]]:
    """NON-EXACT: minimum r-SSQ over sampled supports.

    Upper bound on the true minimum (sampling can only miss the worst
    support).  Never feeds certificates.
    """
    h = _checked_level(h, r)
    supports = _sampled_supports(h.shape[1], r, n_samples, seed)  # checks n_samples and seed
    return _min_ssq(h, r, lambda: supports)


def ric_sampled(h, r: int, n_samples: int = SAMPLED_SUPPORTS, seed: int = 0
                ) -> tuple[float, tuple[int, ...]]:
    """NON-EXACT: restricted isometry constant over sampled supports.

    Lower bound on the true constant (sampling can only miss the worst
    support).  Never feeds certificates.
    """
    h = _checked_level(h, r)
    return _ric(h, r, _sampled_supports(h.shape[1], r, n_samples, seed))


def spark(h, guard: int = MIN_SSQ_GUARD) -> int:
    """Smallest number of linearly dependent columns (N+1 if none by size N).

    Rank tests use column-pivoted QR with tolerance tol = 1e-10 * ||H||_2.
    Searches subset sizes in increasing order and stops at the first
    dependent subset found.  Subsets S are screened first by lambda_min(G_S)
    of G = H^T H: it is sigma_min(H_S)^2, and sigma_min(A) <= min |r_ii| for
    any QR of A, so a subset whose lambda_min(G_S) exceeds (2 tol)^2 plus a
    bound on its rounding error cannot fail the QR test and is not factorised.
    """
    h = _as_matrix(h)
    n, m = h.shape
    total = sum(math.comb(m, k) for k in range(1, n + 1))
    if total > _count(guard, "guard", 1):
        raise SizeGuardError(
            f"spark search would enumerate {total} column subsets, above the "
            f"guard of {guard}"
        )
    norm = np.linalg.norm(h, 2)
    tol = 1e-10 * norm
    gram = h.T @ h
    for k in range(1, n + 1):
        # Margin: forming G rounds entry (i, j) by <= gamma_n |h_i| |h_j|, with
        # gamma_n ~ n eps / 2, so ||G^_S - G_S||_2 <= gamma_n ||H_S||_F^2 <=
        # k gamma_n ||H||^2; eigvalsh adds a backward error <= p(k) eps ||G_S||,
        # p(k) ~ 3 k^2 <= 3 n k.  By Weyl the computed lambda_min(G_S) is within
        # (n k / 2 + 3 n k) eps ||H||^2 < 4 n k eps ||H||^2 of sigma_min(H_S)^2.
        screen = (2.0 * tol) ** 2 + 4.0 * n * k * np.finfo(float).eps * norm ** 2
        for idx in _support_chunks(combinations(range(m), k), k):
            for subset in idx[_block_eigs(gram, idx)[:, 0] <= screen]:
                r_factor = scipy.linalg.qr(h[:, subset], mode="r", pivoting=True)[0]
                if np.count_nonzero(np.abs(np.diag(r_factor)) > tol) < k:
                    return k
    return n + 1


def urp(h, guard: int = MIN_SSQ_GUARD) -> bool:
    """Unique representation property: every N x N column submatrix invertible."""
    h = _as_matrix(h)
    return spark(h, guard) == h.shape[0] + 1


def coherence(h) -> float:
    """Largest-magnitude normalized inner product of two distinct columns."""
    h = _as_matrix(h)
    norms = np.linalg.norm(h, axis=0)
    if np.any(norms == 0):
        return 1.0
    normalized = h / norms
    gram = np.abs(normalized.T @ normalized)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


@dataclass(frozen=True)
class SparsityMeasures:
    """Exact per-level measures with the supports attaining them."""

    r: int
    rho_min: float
    worst_support: tuple[int, ...]
    gamma: float
    ric_support: tuple[int, ...]


@dataclass(frozen=True)
class RecoveryFlags:
    """Certified guarantees at level r, both driven by the min 2r-SSQ value."""

    r: int
    rho_2r_min: float
    p0_unique: bool          # min 2r-SSQ > 0: sparsest solution is unique
    recovery_guaranteed: bool  # min 2r-SSQ > 0.5: thresholding recovery holds


@dataclass(frozen=True)
class MatrixCertificate:
    """Exact analysis summary for a dense sensing matrix.

    ``spark`` is None when the exact spark search would blow the guard; in
    that case ``spark_min`` still carries the certified lower bound implied
    by the strictly positive min-SSQ values that were computed.
    """

    n_rows: int
    n_cols: int
    spark: int | None
    spark_min: int
    urp: bool | None
    coherence: float
    per_r: tuple[SparsityMeasures, ...]
    flags: tuple[RecoveryFlags, ...]

    def to_json_dict(self) -> dict:
        """The fields, records as dicts and tuples as lists; ``flags`` is
        written under the key "guarantees"."""
        out = _json_fields(self)
        out["guarantees"] = out.pop("flags")
        return out


def _json_fields(value):
    """A frozen record as a dict of its fields, in field order, and a tuple
    as a list, recursively; any other value as it is."""
    if isinstance(value, tuple):
        return [_json_fields(item) for item in value]
    if is_dataclass(value):
        return {key: _json_fields(item) for key, item in vars(value).items()}
    return value


def certify(h, r_max: int, guard: int = MIN_SSQ_GUARD) -> MatrixCertificate:
    """Exact certificate of the matrix measures for levels 1..r_max.

    The recovery flags at level r consult the min 2r-SSQ (zero whenever
    2r > N, without enumeration).  The exact spark is included when its
    search fits the guard; otherwise only the lower bound implied by the
    computed min-SSQ values is certified.
    """
    h = _checked_level(h, r_max, "r_max")
    n, m = h.shape
    # each min-SSQ level once, ascending: 1..r_max, then the 2r <= N above it
    levels = {*range(1, r_max + 1), *(2 * r for r in range(1, r_max + 1) if 2 * r <= n)}
    rho: dict[int, float] = {}
    per_r = []
    for k in sorted(levels):
        rho[k], rho_support = min_ssq(h, k, guard)
        if k <= r_max:
            per_r.append(SparsityMeasures(k, rho[k], rho_support, *ric(h, k, guard)))
    flags = []
    for r in range(1, r_max + 1):
        rho_2r = rho.get(2 * r, 0.0)  # absent only when 2r > N
        flags.append(RecoveryFlags(r, rho_2r, rho_2r > 0.0, rho_2r > 0.5))
    try:
        spark_min = exact_spark = spark(h, guard)
        known_urp: bool | None = exact_spark == n + 1
    except SizeGuardError:
        exact_spark = known_urp = None
        spark_min = 1 + max((k for k, value in rho.items() if value > 0.0), default=0)
    return MatrixCertificate(n_rows=n, n_cols=m, spark=exact_spark, spark_min=spark_min,
                             urp=known_urp, coherence=coherence(h),
                             per_r=tuple(per_r), flags=tuple(flags))


@dataclass(frozen=True)
class FixedPointReport:
    """Stationarity check result; truthy when every allowed derivative vanishes."""

    ok: bool
    allowed: tuple[int, ...]
    violations: tuple[tuple[int, float], ...]
    threshold: float
    gradient_scale: float

    def __bool__(self) -> bool:
        return self.ok


def verify_fixed_point(op: SensingOperator, y, s_star, r: int,
                       rtol: float = 1e-6) -> FixedPointReport:
    """First-order stationarity of E(s) at an r-sparse point.

    The gradient is grad E = -2 H^T (H H^T)^{-1} (y - H s).  Perturbing
    coordinate i keeps the point r-sparse only when {i} united with the
    support still has at most r elements, so with a full support only the
    r supported derivatives are checked; otherwise all of them are.

    Tolerance is relative to the gradient magnitude at s_star and at the
    zero vector, whichever is larger, which keeps the check meaningful both
    for exact fits (whole gradient ~ 0) and noisy ones.  s_star must be a
    finite length-m vector and r an integer in [0, m].
    """
    y = _as_measurements(op, y)
    s_star = _finite_vector(s_star, op.n_cols, "s_star")
    r = _count(r, "sparsity level r", 0, op.n_cols)
    nonzeros = np.flatnonzero(s_star)
    if nonzeros.size > r:
        raise InputError(f"point has {nonzeros.size} nonzeros, above level r={r}")
    gradient = -2.0 * op.apply_adjoint(op.gram_solve(y - op.apply(s_star)))
    gradient_at_zero = -2.0 * op.apply_adjoint(op.gram_solve(y))
    scale = max(float(np.max(np.abs(gradient))),
                float(np.max(np.abs(gradient_at_zero))))
    threshold = rtol * scale
    if nonzeros.size == r:
        allowed = nonzeros
    else:
        allowed = np.arange(op.n_cols)
    bad = [(int(i), float(abs(gradient[i])))
           for i in allowed if abs(gradient[i]) > threshold]
    return FixedPointReport(
        ok=not bad,
        allowed=tuple(int(i) for i in allowed),
        violations=tuple(bad),
        threshold=threshold,
        gradient_scale=scale,
    )
