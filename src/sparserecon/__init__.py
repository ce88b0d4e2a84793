"""Sparse signal reconstruction by hard thresholding.

A numpy/scipy library for recovering sparse signals from underdetermined
linear measurements y = H s, built around a variance-component likelihood:

* plain and accelerated thresholding solvers (``ecme_run``, ``iht_run``,
  ``dore_run``) for a known sparsity level,
* automatic sparsity selection (``adore_run``) scored by the USS model
  selection rule,
* exact combinatorial sensing-matrix measures (minimum sparse subspace
  quotient, restricted isometry constant, spark) with recovery
  certificates, and
* a desk-scale tomographic experiment harness (Shepp-Logan phantom,
  radial-line partial Fourier sampling, Haar sparsification).
"""

from .errors import InputError, SizeGuardError
from .operators import (
    ComposedOperator,
    DenseOperator,
    HaarBasis,
    IdentityOperator,
    PartialDctOperator,
    PartialDft2Operator,
    SensingOperator,
    dct_matrix,
    haar_dwt_2d,
    haar_idwt_2d,
    partial_dct_matrix,
    probe_rows_orthonormal,
)
from .recon import (
    ParamEstimate,
    ReconstructionResult,
    StoppingRule,
    ecme_run,
    ecme_step,
    empirical_bayes_estimate,
    hard_threshold,
    iht_run,
    minimum_norm_estimate,
    sigma2_hat,
    support,
    weighted_error,
)
from .dore import dore_run, dore_step, dore_weight
from .model_selection import (
    AdoreResult,
    UssEvaluation,
    UssScorer,
    adore_run,
    exact_ml_bruteforce,
    golden_section_r_search,
)
from .matrix_analysis import (
    FixedPointReport,
    MatrixCertificate,
    RecoveryFlags,
    SparsityMeasures,
    certify,
    coherence,
    min_ssq,
    min_ssq_sampled,
    ric,
    ric_sampled,
    spark,
    ssq,
    urp,
    verify_fixed_point,
)
from .experiments import (
    BenchConfig,
    ExperimentReport,
    ProblemInstance,
    benchmark_sweep,
    parse_bench_config,
    phantom,
    phantom_problem,
    psnr,
    radial_mask,
    random_instance,
)

__version__ = "0.1.0"

__all__ = [
    "InputError", "SizeGuardError", "ComposedOperator", "DenseOperator",
    "HaarBasis", "IdentityOperator", "PartialDctOperator",
    "PartialDft2Operator", "SensingOperator", "dct_matrix", "haar_dwt_2d",
    "haar_idwt_2d", "partial_dct_matrix", "probe_rows_orthonormal",
    "ParamEstimate", "ReconstructionResult", "StoppingRule", "ecme_run",
    "ecme_step", "empirical_bayes_estimate", "hard_threshold", "iht_run",
    "minimum_norm_estimate", "sigma2_hat", "support", "weighted_error",
    "dore_run", "dore_step", "dore_weight", "AdoreResult", "UssEvaluation",
    "UssScorer", "adore_run", "exact_ml_bruteforce", "golden_section_r_search",
    "FixedPointReport", "MatrixCertificate", "RecoveryFlags",
    "SparsityMeasures", "certify", "coherence", "min_ssq", "min_ssq_sampled",
    "ric", "ric_sampled", "spark", "ssq", "urp", "verify_fixed_point",
    "BenchConfig", "ExperimentReport", "ProblemInstance", "benchmark_sweep",
    "parse_bench_config", "phantom", "phantom_problem", "psnr", "radial_mask",
    "random_instance",
]
