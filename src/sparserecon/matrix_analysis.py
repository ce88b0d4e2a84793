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
(max |H H^T - I| <= 1e-10) it is H^T H exactly.  Six searches share one
gather, ``_blocks``, of the r x r principal blocks at a chunk of ``_CHUNK``
supports from an m x m form formed once, Q or G = H^T H.  Beyond the form,
an exact search holds one chunk and the C(m - 1, r - 1) x r table of tails
its stream unranks from: 31 MB at r = 11 of m = 22, 54 MB while it is
built.  One screen, ``_cleared``, proves a chunk's blocks less a shift
positive definite by a batched LDL^T elimination of their lower
triangles.  Min-SSQ drops the supports it clears at the running
minimum plus a rounding margin, and takes the rest's eigenvalues in one
``eigvalsh`` call, so its value and support are those of the full search;
exact min-SSQ screens from its first chunk at the lambda_min of one support
grown greedily, ``_greedy_support``, which its stream holds.  RIC takes
every chunk's eigenvalues, and the brute-force ML oracle
``exact_ml_bruteforce`` solves the blocks in one call.  The spark search
screens column subsets S by lambda_min(G_S) = sigma_min(H_S)^2, with a
margin for the rounding of G and of the elimination, and runs its
pivoted-QR rank test only on the subsets the screen cannot clear, so it
returns what that test alone would.  It goes up from size 1 until the next
level would take it past C(m, N) subsets, then screens the N-subsets alone:
when the screen clears them all, every smaller subset lies inside a cleared
one and the spark is N+1 with no QR; otherwise the search from below goes
on, and resumes level N where the screen stopped.

Each measure has one body, ``_min_ssq`` or ``_ric``, over a stream of
support chunks; the exact and the sampled (non-exact) modes differ only in
that stream: every support behind the size guard, in lexicographic chunks
that ``_support_chunks`` unranks in numpy from the table of one size
smaller, or the blocks ``_sampled_supports`` draws.
Sampled modes exist for matrices too large for enumeration; they are
labeled non-exact and never feed certificates.

``certify`` bundles the exact measures into a certificate, whose JSON form
is built from its fields, with two recovery flags per sparsity level:

* uniqueness of the sparsest solution requires min 2r-SSQ > 0, and
* guaranteed exact/near-optimal thresholding recovery requires
  min 2r-SSQ > 0.5.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, is_dataclass

import numpy as np
import scipy.linalg

from .errors import InputError, SizeGuardError, _count
from .operators import DenseOperator, SensingOperator, _as_matrix, _finite_vector
from .recon import ParamEstimate, _as_measurements, sigma2_hat

MIN_SSQ_GUARD = 10_000_000
BRUTE_FORCE_GUARD = 1_000_000
SAMPLED_SUPPORTS = 10_000
_ZERO_EIG_TOL = 1e-14
# supports per stacked eigenvalue call; bounds the (chunk, r, r) work arrays
_CHUNK = 1024


def _exact_supports(m: int, r: int, guard: int):
    """Every size-r support in lexicographic order, behind the size guard,
    as ``_support_chunks`` streams them."""
    if math.comb(m, r) > _count(guard, "guard", 1):
        raise SizeGuardError(
            f"enumerating C({m},{r})={math.comb(m, r)} supports exceeds the "
            f"guard of {guard}; use the sampled (non-exact) mode instead"
        )
    return _support_chunks(m, r)


def ssq(s, h) -> float:
    """Sparse subspace quotient of a nonzero vector against a proper matrix."""
    h = _as_matrix(h)
    s = _finite_vector(s, h.shape[1], "s")
    energy = float(s @ s)
    if energy == 0.0:
        raise InputError("ssq is undefined for the zero vector")
    hs = h @ s
    return min(max(float(hs @ DenseOperator(h).gram_solve(hs)) / energy, 0.0), 1.0)


@functools.lru_cache
def _lex_ends(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For the lexicographic table of k-subsets of range(n): the rank at
    which the rows led by each a = 0..n-k end, C(n, k) - C(n - 1 - a, k), and
    those ends less C(n - 1, k - 1), as read-only arrays.  Cached, since
    every window of a level and every stream of the same shape reads them."""
    ends = np.array([math.comb(n, k) - math.comb(n - 1 - a, k) for a in range(n - k + 1)],
                    dtype=np.intp)
    shifts = ends - math.comb(n - 1, k - 1)
    ends.flags.writeable = shifts.flags.writeable = False
    return ends, shifts


def _lex_rows(n: int, k: int, tails: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of the lexicographic table of k-subsets of range(n),
    from ``tails``: the (k-1)-subsets of range(n - 1) in that order, each
    entry plus one, in the last k - 1 of its columns.  The rows share tails'
    width, and a row's subset fills its last k columns.

    The rows led by a join a to the (k-1)-subsets of range(a + 1, n): the
    tails whose first entry exceeds a, which lexicographic order puts last,
    C(n - 1 - a, k - 1) rows ending at row C(n - 1, k - 1).  So row p is led
    by the number of ``_lex_ends`` at or below p, and its tail is row
    p - end + C(n - 1, k - 1) for its lead's end.
    """
    ends, shifts = _lex_ends(n, k)
    ranks = np.arange(lo, hi)
    lead = ends.searchsorted(ranks, "right")
    out = tails.take(ranks - shifts[lead], axis=0)
    out[:, -k] = lead
    return out


def _support_chunks(m: int, r: int):
    """The size-r subsets of range(m) in lexicographic order, as (<= _CHUNK, r)
    index arrays: windows of ``_CHUNK`` rows unranked by ``_lex_rows`` from
    the table of (r-1)-subsets of range(m - 1), so the stream holds
    C(m - 1, r - 1) rows and one window, never a whole C(m, r) table."""
    tails = np.zeros((1, r), dtype=np.intp)
    for k in range(1, r):
        tails = _lex_rows(m - r + k, k, tails, 0, math.comb(m - r + k, k))
        tails += 1
    total = math.comb(m, r)
    for lo in range(0, total, _CHUNK):
        yield _lex_rows(m, r, tails, lo, min(lo + _CHUNK, total))


def _sampled_supports(m: int, r: int, n_samples: int, seed: int):
    """Sorted random size-r supports as (<= _CHUNK, r) index arrays, one
    per block of draws: the r smallest of a row of m uniforms sit at a
    uniformly random size-r subset."""
    n_samples = _count(n_samples, "n_samples", 1)
    rng = np.random.default_rng(_count(seed, "seed"))

    def draws():
        for start in range(0, n_samples, _CHUNK):
            block = rng.random((min(_CHUNK, n_samples - start), m))
            yield np.sort(np.argpartition(block, r - 1, axis=1)[:, :r], axis=1)

    return draws()


def _blocks(form: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (chunk, r, r) principal blocks of an m x m form at supports ``idx``,
    a view of a contiguous (r, r, chunk) gather: entry (i, j) of every block
    is one row, which makes the gather and ``_cleared``'s elimination fast."""
    cols = np.ascontiguousarray(idx.T)
    return form.take(cols[:, None, :] * form.shape[0] + cols[None, :, :]).transpose(2, 0, 1)


def _cleared(form: np.ndarray, idx: np.ndarray, shift: float) -> np.ndarray:
    """True where the r x r principal block of an m x m form at a support,
    less ``shift`` * I, has an LDL^T elimination, without pivoting, whose
    pivots are all positive.  Each step reads only the pivot and the column
    below it, so only a block's diagonal and lower triangle are read, as
    ``eigvalsh`` reads them: a form that rounding left slightly unsymmetric
    is screened as the matrix ``eigvalsh`` sees."""
    a = _blocks(form, idx).transpose(1, 2, 0)
    diagonal = np.arange(idx.shape[1])
    a[diagonal, diagonal] -= shift
    # a failed pivot may divide by zero or overflow; its support is not cleared
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(idx.shape[1] - 1):
            column = a[j + 1:, j]
            a[j + 1:, j + 1:] -= (column / a[j, j])[:, None] * column
    return np.all(a[diagonal, diagonal] > 0.0, axis=0)


def _best_support(form: np.ndarray, chunks, score, stop_at: float = -np.inf,
                  cleared=None, seed: np.ndarray | None = None
                  ) -> tuple[float, tuple[int, ...]]:
    """Minimise ``score`` over the r x r principal blocks of an m x m form.

    Supports stream as (chunk, r) index arrays of at most ``_CHUNK`` rows
    (``_support_chunks`` or ``_sampled_supports``); ``score`` maps the
    ascending eigenvalues of a chunk's ``_blocks``, shape (chunk, r), from
    one stacked ``eigvalsh``, to one value per support.  Ties go to the
    first support in stream order.  The search stops at the first support
    scoring at or below ``stop_at``, which is then the one returned.

    Given ``cleared(idx, shift)``, true at supports whose score provably
    exceeds a finite shift, those supports skip ``eigvalsh``.  The shift is
    the running best, or the score of ``seed`` (a (1, r) support that the
    stream holds, gathered and scored as the stream scores it) when that is
    lower, but never below ``stop_at``.  A cleared support then neither
    ties the stream's minimum, which is at most the seed's score, nor stops
    the search; each block's eigenvalues do not depend on the others in its
    call, so the result is the one without the screen.
    """
    bound = np.inf if seed is None else score(np.linalg.eigvalsh(_blocks(form, seed)))[0]
    best, best_support = np.inf, ()
    for idx in chunks:
        shift = max(min(best, bound), stop_at)
        if cleared is not None and shift < np.inf:
            idx = idx[~cleared(idx, shift)]
            if not idx.size:
                continue
        values = score(np.linalg.eigvalsh(_blocks(form, idx)))
        hits = np.flatnonzero(values <= stop_at)
        pos = hits[0] if hits.size else np.argmin(values)
        if values[pos] < best:
            best, best_support = float(values[pos]), tuple(int(i) for i in idx[pos])
        if hits.size:
            break
    return best, best_support


def _greedy_support(q: np.ndarray, r: int) -> np.ndarray:
    """A size-r support, as a (1, r) index array, whose block of q should
    have a small lambda_min: the column of least q_jj, then each time the
    column of least Schur-complement pivot given the columns taken, from an
    LDL^T elimination of q at those columns.  Any support would do for the
    callers' results; a good one only lets the screen clear more."""
    pivots, taken, eliminated = np.diag(q).copy(), np.zeros(len(q), dtype=bool), []
    # a numerically singular pivot leaves the rest of the choice arbitrary
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(r):
            free = np.flatnonzero(~taken)
            j = free[np.argmin(pivots[free])]
            taken[j] = True
            column = q[:, j] - sum(w * (w[j] / w_jj) for w, w_jj in eliminated)
            pivots -= column * (column / column[j])
            eliminated.append((column, column[j]))
    return np.flatnonzero(taken)[None]


def _checked_level(h, r: int, name: str = "sparsity level r") -> np.ndarray:
    """h as a checked dense matrix, with ``r`` an integer in [1, m]."""
    h = _as_matrix(h)
    _count(r, name, 1, h.shape[1])
    return h


def _ssq_margin(r: int, size: float) -> float:
    """How far past a shift s the computed lambda_min of an r x r block that
    ``_cleared`` clears at s may fall, for entries of the block and s at most
    ``size`` >= 1 in magnitude; min-SSQ screens at the running best plus it."""
    # Let B be the stored block (its lower triangle) and u = eps / 2.
    # eigvalsh returns lambda_min(B + E), ||E||_2 <= p(r) eps ||B||_2 with
    # p(r) ~ 3 r^2 and ||B||_2 <= r size.  An elimination of C = B - s I with
    # positive pivots is exact for C + F, |F| <= gamma_{r+1} |L||D||L^T|
    # (Higham, Thm 10.5, for Cholesky), whose entries are at most
    # (1 + O(u)) max c_ii <= 2 size, so ||F||_2 <= r gamma_{r+1} 2 size ~
    # r (r + 1) eps size; subtracting s from the diagonal and rounding the
    # shift each add <= eps size.  C + F is positive definite, so the computed
    # lambda_min of B exceeds s - (3 r^3 + r (r + 1) + 2) eps size, and
    # 5 r^3 eps size covers that for r >= 2.  At r = 1 both are exact: the
    # eigenvalue is the entry, and one subtraction gets its sign right.
    return 5.0 * r ** 3 * np.finfo(float).eps * size


def _min_ssq(h: np.ndarray, r: int, supports, stop_at: float = -np.inf,
             seeded: bool = False) -> tuple[float, tuple[int, ...]]:
    """Minimum r-SSQ, clamped to [0, 1], over the blocks of Q = H^T (H H^T)^{-1} H
    at the support chunks ``supports()`` streams.  It is called before Q is
    formed, and not at all when r > N: any r columns are then dependent and
    the first r are returned.  A support scoring at or below ``stop_at``
    counts as exactly 0 and ends the search.  ``eigvalsh`` runs only on the
    supports that ``_cleared`` cannot clear at the screen's shift plus a
    rounding margin, which are the only ones whose computed lambda_min could
    be below that shift.  ``seeded`` streams must hold every support: they
    are screened from their first chunk at the lambda_min of
    ``_greedy_support``'s support, and others from their second chunk on."""
    if r > h.shape[0]:
        return 0.0, tuple(range(r))
    supports = supports()
    q = h.T @ DenseOperator(h).gram_solve(h)
    size = max(1.0, float(np.abs(q).max()))
    best, best_support = _best_support(
        q, supports, lambda eigs: eigs[:, 0], stop_at,
        lambda idx, shift: _cleared(q, idx, shift + _ssq_margin(r, size + abs(shift))),
        _greedy_support(q, r) if seeded else None)
    if best <= stop_at:
        best = 0.0
    return min(max(best, 0.0), 1.0), best_support


def _ric(h: np.ndarray, supports) -> tuple[float, tuple[int, ...]]:
    """Largest deviation from 1 of the H_A^T H_A eigenvalues over the
    support chunks ``supports``."""
    worst, worst_support = _best_support(
        h.T @ h, supports,
        lambda eigs: -np.maximum(np.abs(1.0 - eigs[:, 0]), np.abs(eigs[:, -1] - 1.0)))
    return -worst, worst_support


def min_ssq(h, r: int, guard: int = MIN_SSQ_GUARD) -> tuple[float, tuple[int, ...]]:
    """Exact minimum r-SSQ and a support attaining it.

    Enumerates size-r supports lexicographically and minimizes the smallest
    eigenvalue of H_A^T (H H^T)^{-1} H_A.  Stops early once an exactly
    singular restriction is found (the minimum cannot drop below zero); the
    support returned is then the lexicographically first singular one.
    A support grown greedily sets a bound before the first chunk, and a
    support whose block provably cannot beat the bound or the minimum so
    far skips its eigenvalue call, so the value and support are those of
    taking every support's eigenvalues.
    """
    h = _checked_level(h, r)
    return _min_ssq(h, r, lambda: _exact_supports(h.shape[1], r, guard), _ZERO_EIG_TOL,
                    seeded=True)


def ric(h, r: int, guard: int = MIN_SSQ_GUARD) -> tuple[float, tuple[int, ...]]:
    """Exact restricted isometry constant for sparsity level r, with a
    support attaining the worst deviation of H_A^T H_A eigenvalues from 1."""
    h = _checked_level(h, r)
    return _ric(h, _exact_supports(h.shape[1], r, guard))


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
    return _ric(h, _sampled_supports(h.shape[1], r, n_samples, seed))


def _solve_or_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b, or the least-squares solution when a is exactly singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def exact_ml_bruteforce(op, y, r: int, guard: int = BRUTE_FORCE_GUARD) -> ParamEstimate:
    """Exact maximum-likelihood fit at level r by support enumeration.

    Each size-r support A is fit by Q_AA x = w_A (Q the min-SSQ form,
    w = H^T (H H^T)^{-1} y), solved a chunk per stacked call, or block by
    block with least squares for an exactly singular block, and scored by
    the residual variance (y - H_A x)^T (H H^T)^{-1} (y - H_A x) / N.  The
    lowest score wins (equal scores: the first support), and ``sigma2_hat``
    gives its variance.  For tiny instances: refuses when C(m, r) > guard.
    """
    matrix = _as_matrix(op)
    dense = op if isinstance(op, DenseOperator) else DenseOperator(matrix)
    n, m = matrix.shape
    y = _as_measurements(dense, y)
    r = _count(r, "sparsity level r", 0, m)
    if math.comb(m, r) > _count(guard, "guard", 1):
        raise SizeGuardError(f"C({m},{r})={math.comb(m, r)} supports exceed the "
                             f"brute-force guard of {guard}")
    weighted_y = dense.gram_solve(y)
    if r == 0:
        return ParamEstimate(np.zeros(m), float(y @ weighted_y) / n, 0)
    q, w = matrix.T @ dense.gram_solve(matrix), matrix.T @ weighted_y
    best_error, best_support, best_coeffs = np.inf, None, None
    for idx in _support_chunks(m, r):
        blocks, rhs = _blocks(q, idx), w[idx]
        try:
            coeffs = np.linalg.solve(blocks, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            coeffs = np.array([_solve_or_lstsq(a, b) for a, b in zip(blocks, rhs)])
        residuals = y - np.einsum("nck,ck->cn", matrix[:, idx], coeffs)
        error = np.einsum("cn,nc->c", residuals, dense.gram_solve(residuals.T))
        pos = np.argmin(error)
        if error[pos] < best_error:
            best_error, best_support, best_coeffs = error[pos], idx[pos], coeffs[pos]
    s = np.zeros(m)
    s[best_support] = best_coeffs
    return ParamEstimate(s, sigma2_hat(dense, y, s), r)


def spark(h, guard: int = MIN_SSQ_GUARD) -> int:
    """Smallest number of linearly dependent columns (N+1 if none by size N).

    Rank tests use column-pivoted QR with tolerance tol = 1e-10 * ||H||_2,
    and the answer is the smallest size at which that test finds a dependent
    subset.  Subsets S are screened first by ``_cleared`` on G = H^T H: an
    LDL^T elimination of G_S less (2 tol)^2 plus a bound on its rounding
    whose pivots are all positive proves lambda_min(G_S) = sigma_min(H_S)^2
    > (2 tol)^2, and sigma_min(A) <= min |r_ii| for any QR of A, so such a
    subset cannot fail the QR test and is not factorised.

    Levels below N are searched from below while the subsets tested so far
    plus the next level number at most C(m, N).  Then level N is screened
    alone.  If the screen clears every N-subset, the answer is N+1 with no
    QR: every smaller subset S lies inside a cleared N-subset T, and
    sigma_min(H_S) >= sigma_min(H_T) > 2 tol, so the search from below
    would pass S too.  Otherwise the search from below goes on, and at
    level N resumes at the first subset the screen left uncleared, so no
    N-subset is screened twice.  Level N is screened in whole chunks, like
    every level.  The budget keeps the level-N stream, and its table of
    C(m - 1, N - 1) tails, unbuilt when a small spark turns up below: without
    it a 10x20 Gaussian of spark 2 took 23 times as long.  The matrix must
    have at least as many columns as rows.
    """
    h = _as_matrix(h)
    n, m = h.shape
    if m < n:
        raise InputError(f"not a proper sensing matrix: N={n} exceeds m={m}")
    total = sum(math.comb(m, k) for k in range(1, n + 1))
    if total > _count(guard, "guard", 1):
        raise SizeGuardError(
            f"spark search would enumerate {total} column subsets, above the "
            f"guard of {guard}"
        )
    norm = np.linalg.norm(h, 2)
    tol = 1e-10 * norm
    gram = h.T @ h

    def uncleared(k: int):
        """The size-k subsets, in order, that the screen cannot clear."""
        # Margin: forming G rounds entry (i, j) by <= gamma_n |h_i| |h_j|, with
        # gamma_n ~ n eps / 2, so ||G^_S - G_S||_2 <= gamma_n ||H_S||_F^2 <=
        # k gamma_n ||H||^2.  An elimination of G^_S - screen I with positive
        # pivots is exact for a perturbation of norm <= k gamma_{k+1} max g_ii
        # ~ k (k + 1) eps ||H||^2 / 2 (Higham, Thm 10.5, for Cholesky), and
        # subtracting the screen from the diagonal adds <= eps ||H||^2 / 2.
        # By Weyl, clearing S proves sigma_min(H_S)^2 > screen minus
        # (n k / 2 + k (k + 1) / 2 + 1 / 2) eps ||H||^2 >= screen minus
        # 2 n k eps ||H||^2, which the 4 n k eps ||H||^2 below covers.
        screen = (2.0 * tol) ** 2 + 4.0 * n * k * np.finfo(float).eps * norm ** 2
        for idx in _support_chunks(m, k):
            yield from idx[~_cleared(gram, idx, screen)]

    def dependent(subsets) -> bool:
        """Whether the QR test finds one of ``subsets`` dependent."""
        for subset in subsets:
            r_factor = scipy.linalg.qr(h[:, subset], mode="r", pivoting=True)[0]
            if np.count_nonzero(np.abs(np.diag(r_factor)) > tol) < len(subset):
                return True
        return False

    k, tested, budget = 1, 0, math.comb(m, n)
    while k < n and tested + math.comb(m, k) <= budget:
        if dependent(uncleared(k)):
            return k
        tested += math.comb(m, k)
        k += 1
    top = uncleared(n)
    first = next(top, None)
    if first is None:
        return n + 1
    for level in range(k, n):
        if dependent(uncleared(level)):
            return level
    return n if dependent([first]) or dependent(top) else n + 1


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
