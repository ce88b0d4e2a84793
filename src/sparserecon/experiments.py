"""Problem generators, metrics and the benchmark sweep.

The tomographic test problem follows the classic setup: a Shepp-Logan
phantom is measured through selected 2-D DFT coefficients on a star of
radial lines, while the unknown is the phantom's orthonormal Haar
coefficient vector.  That composition has exactly orthonormal rows, so the
fast thresholding path applies.

``run_method`` (method names in ``KNOWN_METHODS``) and ``phantom_psnr`` are
the one solver registry and the one cell score the CLI and ``benchmark_sweep``
share.  The sweep runs each method of a ``BenchConfig``, checked when built,
at each density; output is deterministic (timings aside).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dore import dore_run
from .errors import InputError, _count
from .model_selection import adore_run
from .operators import (
    ComposedOperator,
    DenseOperator,
    HaarBasis,
    PartialDft2Operator,
    SensingOperator,
)
from .recon import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    StoppingRule,
    ecme_run,
    iht_run,
    minimum_norm_estimate,
)

# Ten-ellipse Shepp-Logan head phantom, the community-standard table:
# intensity, semi-axis a, semi-axis b, center x0, center y0, rotation (deg).
SHEPP_LOGAN_ELLIPSES = np.array([
    [1.0,  0.69,   0.92,   0.0,   0.0,     0.0],
    [-0.8, 0.6624, 0.8740, 0.0,  -0.0184,  0.0],
    [-0.2, 0.1100, 0.3100, 0.22,  0.0,   -18.0],
    [-0.2, 0.1600, 0.4100, -0.22, 0.0,    18.0],
    [0.1,  0.2100, 0.2500, 0.0,   0.35,    0.0],
    [0.1,  0.0460, 0.0460, 0.0,   0.1,     0.0],
    [0.1,  0.0460, 0.0460, 0.0,  -0.1,     0.0],
    [0.1,  0.0460, 0.0230, -0.08, -0.605,  0.0],
    [0.1,  0.0230, 0.0230, 0.0,  -0.606,   0.0],
    [0.1,  0.0230, 0.0460, 0.06, -0.605,   0.0],
])


def psnr(reference, estimate) -> float:
    """Peak signal-to-noise ratio 10 log10(range^2 / mse) in dB.

    The peak range comes from the reference; an exact match returns +inf.
    A constant reference has no range and is rejected.
    """
    reference = np.asarray(reference, dtype=float).ravel()
    estimate = np.asarray(estimate, dtype=float).ravel()
    if reference.shape != estimate.shape:
        raise InputError("reference and estimate must have equal length")
    peak = float(reference.max() - reference.min())
    if peak == 0.0:
        raise InputError("PSNR is undefined for a constant reference")
    mse = float(np.mean((estimate - reference) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


def _phantom_side(side: int) -> int:
    """The phantom rule: ``side`` must be a power of two of at least 32."""
    side = _count(side, "phantom side", 32)
    if side & (side - 1):
        raise InputError(f"phantom side must be a power of two, got {side}")
    return side


def phantom(side: int) -> np.ndarray:
    """Shepp-Logan head phantom rasterized on a side x side grid.

    Pixel centers span [-1, 1] in both axes (rows run top to bottom, so the
    y coordinate decreases with the row index); a pixel's value is the sum
    of the intensities of the ellipses containing its center.  Requires a
    power-of-two side of at least 32 so the image composes with the Haar
    transform.
    """
    side = _phantom_side(side)
    axis = (np.arange(side) - (side - 1) / 2.0) / ((side - 1) / 2.0)
    x = np.tile(axis, (side, 1))
    y = np.rot90(x)
    image = np.zeros((side, side))
    for intensity, a, b, x0, y0, deg in SHEPP_LOGAN_ELLIPSES:
        phi = math.radians(deg)
        dx, dy = x - x0, y - y0
        cos_p, sin_p = math.cos(phi), math.sin(phi)
        inside = ((dx * cos_p + dy * sin_p) ** 2 / (a * a)
                  + (dy * cos_p - dx * sin_p) ** 2 / (b * b)) <= 1.0
        image[inside] += intensity
    return image


def radial_mask(side: int, n_lines: int) -> np.ndarray:
    """Boolean DFT-coefficient mask of n_lines radial lines through DC.

    Lines sit at angles k*pi/n_lines and are rasterized one point per
    column (or per row, for the steeper half) at offsets -(side/2 - 1) ..
    side/2 - 1 from the grid center, rounded to the nearest cell.  The
    result is returned in unshifted DFT index convention (DC at [0, 0],
    always included) and is symmetric under the conjugation map
    (k, l) -> (-k mod side, -l mod side).
    """
    side = _count(side, "mask side", 2)
    n_lines = _count(n_lines, "n_lines", 1)
    center = side // 2
    shifted = np.zeros((side, side), dtype=bool)
    offsets = np.arange(-(side // 2 - 1), side // 2)
    for k in range(n_lines):
        angle = k * math.pi / n_lines
        tangent = math.tan(angle)
        if abs(tangent) <= 1.0:
            rows = np.rint(tangent * offsets).astype(int)
            shifted[center + rows, center + offsets] = True
        else:
            cols = np.rint(offsets / tangent).astype(int)
            shifted[center + offsets, center + cols] = True
    return np.fft.ifftshift(shifted)


@dataclass(frozen=True)
class ProblemInstance:
    """A reconstruction problem: operator, measurements and ground truth."""

    operator: SensingOperator
    y: np.ndarray
    truth: np.ndarray
    truth_support_size: int


def random_instance(m: int, n_rows: int, r_true: int, noise_sigma: float,
                    seed: int) -> ProblemInstance:
    """Gaussian test ensemble: random dense H, planted r_true-sparse signal.

    Entries of H and the nonzero signal values are standard normal; the
    support is uniform without replacement.  y = H s + noise_sigma * n,
    with noise_sigma finite and nonnegative; at 0 no noise is drawn.  Fully
    determined by the seed.
    """
    m = _count(m, "m", 1)
    n_rows = _count(n_rows, "N", 1, m)
    r_true = _count(r_true, "r_true", 0, m)
    if not 0 <= noise_sigma < math.inf:
        raise InputError("noise_sigma must be finite and nonnegative, "
                         f"got {noise_sigma}")
    rng = np.random.default_rng(_count(seed, "seed"))
    matrix = rng.standard_normal((n_rows, m))
    truth = np.zeros(m)
    support = rng.choice(m, size=r_true, replace=False)
    truth[support] = rng.standard_normal(r_true)
    op = DenseOperator(matrix)
    y = op.apply(truth)
    if noise_sigma > 0:
        y = y + noise_sigma * rng.standard_normal(n_rows)
    return ProblemInstance(
        operator=op, y=y, truth=truth,
        truth_support_size=int(np.count_nonzero(truth)),
    )


def phantom_problem(side: int, n_lines: int) -> ProblemInstance:
    """Noiseless tomographic problem: full-depth Haar coefficients of the
    phantom measured through the radial-line partial DFT.  The composed
    operator has orthonormal rows by construction."""
    basis = HaarBasis(side)
    truth = basis.analyze(phantom(side).ravel())
    sampler = PartialDft2Operator(radial_mask(side, n_lines))
    op = ComposedOperator(sampler, basis)
    return ProblemInstance(
        operator=op,
        y=op.apply(truth),
        truth=truth,
        truth_support_size=int(np.count_nonzero(truth)),
    )


def phantom_psnr(problem: ProblemInstance, estimate) -> float:
    """PSNR of an estimate against the truth, as images from the operator's basis."""
    basis = problem.operator.basis
    return psnr(basis.synthesize(problem.truth), basis.synthesize(estimate))


@dataclass(frozen=True)
class ExperimentReport:
    """One benchmark cell: method at one sampling density."""

    method: str
    n_over_m: float
    psnr_db: float
    iterations: int
    elapsed_seconds: float
    r_used: int

    def to_json_dict(self) -> dict:
        return asdict(self)


CSV_HEADER = ",".join(field.name for field in fields(ExperimentReport))


def report_csv_row(report: ExperimentReport) -> str:
    return (
        f"{report.method},{report.n_over_m:.6f},{report.psnr_db:.6f},"
        f"{report.iterations},{report.elapsed_seconds:.6f},{report.r_used}"
    )


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark sweep settings, checked when built.  ``parse_bench_config``
    reads each key as its default's kind: a scalar, or a comma list for a tuple."""

    side: int = 64
    lines: tuple[int, ...] = (6, 10, 14, 18, 22, 26, 28)
    methods: tuple[str, ...] = ("ecme", "dore", "mn")
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    adore_resolution: int = 64

    def __post_init__(self):
        _phantom_side(self.side)
        if not self.lines:
            raise InputError("lines must be counts of at least 1, got []")
        for count in self.lines:
            _count(count, "lines entry", 1)
        if not self.methods:
            raise InputError("methods must name at least one method")
        unknown = [mth for mth in self.methods if mth not in KNOWN_METHODS]
        if unknown:
            raise InputError(f"unknown methods in config: {unknown}")
        StoppingRule(tol=self.tol, max_iter=self.max_iter)
        _count(self.adore_resolution, "adore_resolution", 1)


@dataclass(frozen=True)
class MethodRun:
    """One method's estimate and bookkeeping, plus the library result
    (``ReconstructionResult``, ``AdoreResult``, or None for ``mn``)."""

    estimate: np.ndarray
    iterations: int
    converged: bool
    elapsed_seconds: float
    r_used: int
    result: object


_SOLVERS = {"ecme": ecme_run, "iht": iht_run, "dore": dore_run}
KNOWN_METHODS = (*_SOLVERS, "adore", "mn")


def run_method(method: str, op: SensingOperator, y, r: int | None = None,
               stop: StoppingRule | None = None,
               adore_resolution: int = 1) -> MethodRun:
    """Run one of ``KNOWN_METHODS``: the registry behind the CLI and the sweep.

    ``ecme``, ``iht`` and ``dore`` solve at sparsity level r; ``adore``
    selects r itself; ``mn`` is the minimum-norm baseline (r_used 0).
    """
    if method in _SOLVERS:
        res = _SOLVERS[method](op, y, r, stop=stop)
        return MethodRun(res.estimate.s, res.iterations, res.converged,
                         res.elapsed_seconds, r, res)
    if method == "adore":
        auto = adore_run(op, y, resolution=adore_resolution, stop=stop)
        final = auto.final
        return MethodRun(final.estimate.s, final.iterations, final.converged,
                         final.elapsed_seconds, auto.r_selected, auto)
    if method == "mn":
        start = time.perf_counter()
        estimate = minimum_norm_estimate(op, y)
        return MethodRun(estimate, 0, True, time.perf_counter() - start, 0, None)
    raise InputError(f"unknown method {method!r}")


def _config_value(default, text: str, where: str):
    """``text`` read as a scalar of ``default``'s type, or as a comma list of its
    element type when it is a tuple; a non-number raises naming ``where``."""
    if isinstance(default, tuple):
        return tuple(_config_value(default[0], item, where)
                     for item in text.split(",") if item.strip())
    try:
        return type(default)(text.strip())
    except ValueError:
        raise InputError(f"{where}: not a number: {text.strip()!r}") from None


def parse_bench_config(text: str) -> BenchConfig:
    """Parse key=value lines; '#' starts a comment, blank lines are skipped."""
    defaults = {field.name: field.default for field in fields(BenchConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in defaults:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"config line {lineno}: {key} is set twice")
        values[key] = _config_value(defaults[key], value, f"config line {lineno}: {key}")
    return BenchConfig(**values)


def benchmark_sweep(config: BenchConfig) -> list[ExperimentReport]:
    """Run every enabled method at every sampling density.

    The unknown is the phantom's Haar coefficient vector; PSNR is computed
    between the reference image and the synthesized estimate.  Cells are
    ordered by (density, method order in the config), deterministically.
    """
    stop = StoppingRule(tol=config.tol, max_iter=config.max_iter)
    reports: list[ExperimentReport] = []
    for n_lines in config.lines:
        problem = phantom_problem(config.side, n_lines)
        op = problem.operator
        for method in config.methods:
            run = run_method(method, op, problem.y, problem.truth_support_size,
                             stop, config.adore_resolution)
            reports.append(ExperimentReport(
                method=method,
                n_over_m=op.n_rows / op.n_cols,
                psnr_db=phantom_psnr(problem, run.estimate),
                iterations=run.iterations,
                elapsed_seconds=run.elapsed_seconds,
                r_used=run.r_used,
            ))
    return reports
