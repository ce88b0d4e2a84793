"""One count rule: every integer the library takes is a Python or numpy
integer in range (never a bool), or the call raises InputError.

``COUNTS`` lists each (entry, count parameter) pair of the public API with
a call that sets that parameter, a valid value and a value below its range.
``test_table_lists_every_integer_parameter`` keeps the table complete: a
new public entry with an ``int`` parameter fails it until it is listed.
"""

import functools
import inspect

import numpy as np
import pytest

import sparserecon
from sparserecon import (
    BenchConfig,
    DenseOperator,
    HaarBasis,
    InputError,
    ParamEstimate,
    PartialDctOperator,
    SensingOperator,
    StoppingRule,
    UssScorer,
    adore_run,
    certify,
    dore_run,
    ecme_run,
    exact_ml_bruteforce,
    golden_section_r_search,
    hard_threshold,
    iht_run,
    min_ssq,
    min_ssq_sampled,
    partial_dct_matrix,
    phantom,
    phantom_problem,
    radial_mask,
    random_instance,
    ric,
    ric_sampled,
    spark,
    urp,
    verify_fixed_point,
)

# Records the library returns, not inputs a caller builds.
RESULT_RECORDS = {
    "ReconstructionResult", "AdoreResult", "UssEvaluation", "MatrixCertificate",
    "SparsityMeasures", "RecoveryFlags", "ExperimentReport", "ProblemInstance",
}

H = np.random.default_rng(7).standard_normal((4, 7))
OP = DenseOperator(H)
Y = OP.apply(np.array([0.0, 1.5, 0.0, 0.0, -2.0, 0.0, 0.0]))
DCT = PartialDctOperator(8, (0, 2, 5, 6))
Y_DCT = DCT.apply(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0]))
STOP = StoppingRule(max_iter=20)


class _Bare(SensingOperator):
    def apply(self, v):
        return v

    def apply_adjoint(self, w):
        return w


def _peak_at_two(r):
    return -abs(r - 2)


# (entry, parameter) -> (call with that parameter set, valid value, below range)
COUNTS = {
    ("SensingOperator", "n_rows"): (lambda n: _Bare(n, 4, True, "bare"), 2, 0),
    ("SensingOperator", "n_cols"): (lambda n: _Bare(1, n, True, "bare"), 2, 0),
    ("partial_dct_matrix", "n_cols"): (lambda n: partial_dct_matrix(n, [0, 1]), 4, 0),
    ("PartialDctOperator", "n_cols"): (lambda n: PartialDctOperator(n, [0, 1]), 4, 0),
    ("HaarBasis", "side"): (HaarBasis, 4, 0),
    ("hard_threshold", "r"): (lambda r: hard_threshold(np.arange(5.0), r), 2, -1),
    ("ParamEstimate", "r"): (lambda r: ParamEstimate(np.zeros(3), 0.0, r), 2, -1),
    ("StoppingRule", "max_iter"): (lambda k: StoppingRule(max_iter=k), 5, 0),
    ("ecme_run", "r"): (lambda r: ecme_run(OP, Y, r, stop=STOP), 2, -1),
    ("iht_run", "r"): (lambda r: iht_run(DCT, Y_DCT, r, stop=STOP), 2, -1),
    ("dore_run", "r"): (lambda r: dore_run(OP, Y, r, stop=STOP), 2, -1),
    ("UssScorer.evaluate", "r"): (lambda r: UssScorer(OP, Y).evaluate(r, 0.3), 2, -1),
    ("adore_run", "resolution"): (lambda k: adore_run(OP, Y, k, STOP), 1, 0),
    ("exact_ml_bruteforce", "r"): (lambda r: exact_ml_bruteforce(OP, Y, r), 2, -1),
    ("exact_ml_bruteforce", "guard"): (lambda g: exact_ml_bruteforce(OP, Y, 2, g), 100, 0),
    ("golden_section_r_search", "r_max"):
        (lambda k: golden_section_r_search(_peak_at_two, k), 5, 0),
    ("golden_section_r_search", "resolution"):
        (lambda k: golden_section_r_search(_peak_at_two, 5, k), 1, 0),
    ("min_ssq", "r"): (lambda r: min_ssq(H, r), 2, 0),
    ("min_ssq", "guard"): (lambda g: min_ssq(H, 2, g), 100, 0),
    ("ric", "r"): (lambda r: ric(H, r), 2, 0),
    ("ric", "guard"): (lambda g: ric(H, 2, g), 100, 0),
    ("min_ssq_sampled", "r"): (lambda r: min_ssq_sampled(H, r, 5), 2, 0),
    ("min_ssq_sampled", "n_samples"): (lambda k: min_ssq_sampled(H, 2, k), 5, 0),
    ("min_ssq_sampled", "seed"): (lambda s: min_ssq_sampled(H, 2, 5, s), 3, -1),
    ("ric_sampled", "r"): (lambda r: ric_sampled(H, r, 5), 2, 0),
    ("ric_sampled", "n_samples"): (lambda k: ric_sampled(H, 2, k), 5, 0),
    ("ric_sampled", "seed"): (lambda s: ric_sampled(H, 2, 5, s), 3, -1),
    ("spark", "guard"): (lambda g: spark(H, g), 100, 0),
    ("urp", "guard"): (lambda g: urp(H, g), 100, 0),
    ("certify", "r_max"): (lambda k: certify(H, k), 2, 0),
    ("certify", "guard"): (lambda g: certify(H, 1, g), 100, 0),
    ("verify_fixed_point", "r"):
        (lambda r: verify_fixed_point(OP, Y, np.zeros(OP.n_cols), r), 2, -1),
    ("phantom", "side"): (phantom, 32, 16),
    ("phantom_problem", "side"): (lambda s: phantom_problem(s, 4), 32, 16),
    ("phantom_problem", "n_lines"): (lambda k: phantom_problem(32, k), 4, 0),
    ("radial_mask", "side"): (lambda s: radial_mask(s, 3), 8, 1),
    ("radial_mask", "n_lines"): (lambda k: radial_mask(8, k), 3, 0),
    ("random_instance", "m"): (lambda m: random_instance(m, 4, 2, 0.0, 0), 10, 0),
    ("random_instance", "n_rows"): (lambda n: random_instance(10, n, 2, 0.0, 0), 4, 0),
    ("random_instance", "r_true"): (lambda r: random_instance(10, 4, r, 0.0, 0), 2, -1),
    ("random_instance", "seed"): (lambda s: random_instance(10, 4, 2, 0.0, s), 3, -1),
    ("BenchConfig", "side"): (lambda s: BenchConfig(side=s), 32, 16),
    ("BenchConfig", "lines"): (lambda k: BenchConfig(lines=(10, k)), 4, 0),
    ("BenchConfig", "max_iter"): (lambda k: BenchConfig(max_iter=k), 5, 0),
    ("BenchConfig", "adore_resolution"): (lambda k: BenchConfig(adore_resolution=k), 4, 0),
}
IDS = [f"{entry}-{parameter}" for entry, parameter in COUNTS]


def _resolve(entry):
    return functools.reduce(getattr, entry.split("."), sparserecon)


def _int_parameters():
    """(entry, parameter) for every ``int`` parameter of a public function,
    input class or public method of one."""
    for name in sparserecon.__all__:
        value = getattr(sparserecon, name)
        if name in RESULT_RECORDS or (inspect.isclass(value)
                                      and issubclass(value, Exception)):
            continue
        entries = [(name, value)]
        if inspect.isclass(value):
            entries += [(f"{name}.{attr}", member)
                        for attr, member in inspect.getmembers(value, inspect.isfunction)
                        if not attr.startswith("_")]
        for entry, func in entries:
            for parameter in inspect.signature(func).parameters.values():
                if parameter.annotation in ("int", int):
                    yield entry, parameter.name


def test_table_lists_every_integer_parameter():
    missing = set(_int_parameters()) - set(COUNTS)
    assert not missing, sorted(missing)


def test_table_names_real_parameters():
    for entry, parameter in COUNTS:
        assert parameter in inspect.signature(_resolve(entry)).parameters, (entry, parameter)


@pytest.mark.parametrize("value", [2.5, np.float64(2.0), True],
                         ids=["float", "numpy-float", "bool"])
@pytest.mark.parametrize("key", COUNTS, ids=IDS)
def test_non_integer_count_rejected(key, value):
    call = COUNTS[key][0]
    with pytest.raises(InputError, match="must be an integer, got "):
        call(value)


@pytest.mark.parametrize("key", COUNTS, ids=IDS)
def test_count_below_range_rejected(key):
    call, _, below = COUNTS[key]
    with pytest.raises(InputError, match=r"must be at least|outside \["):
        call(below)


@pytest.mark.parametrize("key", COUNTS, ids=IDS)
def test_numpy_integer_count_accepted(key):
    call, valid, _ = COUNTS[key]
    call(np.int64(valid))
