"""Problem generators, PSNR, config parsing, benchmark sweep."""

import json
import math
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparserecon import (
    BenchConfig,
    ExperimentReport,
    InputError,
    PartialDft2Operator,
    StoppingRule,
    benchmark_sweep,
    dore_run,
    haar_dwt_2d,
    iht_run,
    parse_bench_config,
    phantom,
    psnr,
    radial_mask,
    random_instance,
    urp,
)
from sparserecon.experiments import (
    CSV_HEADER,
    KNOWN_METHODS,
    phantom_problem,
    report_csv_row,
)

ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------- psnr

def test_psnr_exact_match_is_infinite():
    x = np.array([0.0, 1.0, 0.25])
    assert psnr(x, x.copy()) == math.inf


def test_psnr_closed_form():
    reference = np.array([0.0, 1.0])  # range 1
    estimate = reference + np.array([0.1, -0.1])  # mse = 0.01
    assert psnr(reference, estimate) == pytest.approx(20.0, abs=1e-12)


def test_psnr_matches_direct_formula():
    rng = np.random.default_rng(0)
    reference = rng.standard_normal(50)
    estimate = reference + 0.3 * rng.standard_normal(50)
    peak = reference.max() - reference.min()
    mse = np.mean((estimate - reference) ** 2)
    assert psnr(reference, estimate) == pytest.approx(
        10 * np.log10(peak ** 2 / mse), rel=1e-12)


def test_psnr_validation():
    with pytest.raises(InputError):
        psnr(np.ones(4), np.zeros(4))  # constant reference
    with pytest.raises(InputError):
        psnr(np.zeros(3), np.zeros(4))


# -------------------------------------------------------------------- phantom

def test_phantom_background_is_zero():
    image = phantom(64)
    assert image[0, 0] == image[0, -1] == image[-1, 0] == image[-1, -1] == 0.0
    assert image.shape == (64, 64)


def test_phantom_deterministic():
    assert np.array_equal(phantom(32), phantom(32))


def test_phantom_upper_region_mirror_symmetric():
    # every ellipse intersecting y > 0.45 is centered on the vertical axis,
    # so that band of the image mirrors exactly; the three small ellipses at
    # the bottom of the standard table are deliberately offset and break
    # global mirror symmetry
    image = phantom(64)
    axis = (np.arange(64) - 31.5) / 31.5
    rows = axis[::-1] > 0.45
    band = image[rows, :]
    assert band.any()
    assert np.array_equal(band, band[:, ::-1])
    assert not np.array_equal(image, image[:, ::-1])


def test_phantom_intensity_range():
    # overlapping ellipse intensities cancel to ~0 inside the ventricles,
    # up to float rounding
    image = phantom(64)
    assert image.min() == pytest.approx(0.0, abs=1e-12)
    assert image.max() == pytest.approx(1.0, abs=1e-12)


def test_phantom_haar_support_count_at_full_scale():
    # published support size for the 256x256 rasterization is 3769 (~0.06 m);
    # exact-zero counting on our rasterization must land within 2%
    coeffs = haar_dwt_2d(phantom(256))
    count = int(np.count_nonzero(coeffs))
    assert abs(count - 3769) <= 0.02 * 3769


def test_phantom_validation():
    with pytest.raises(InputError):
        phantom(16)  # too small
    with pytest.raises(InputError):
        phantom(48)  # not a power of two


# ---------------------------------------------------------------- radial mask

def test_radial_mask_conjugate_symmetric():
    side = 64
    mask = radial_mask(side, 22)
    k, l = np.indices((side, side))
    assert np.array_equal(mask, mask[(-k) % side, (-l) % side])
    assert mask[0, 0]  # DC always included


def test_radial_mask_published_sampling_ratio():
    mask = radial_mask(256, 44)
    ratio = mask.sum() / mask.size
    assert abs(ratio - 0.163) <= 0.01
    # real measurement count equals mask points for a conjugate-symmetric mask
    op = PartialDft2Operator(mask)
    assert op.n_rows == mask.sum()


def test_radial_mask_operator_ratio_small_grid():
    for lines in (5, 11, 16):
        mask = radial_mask(32, lines)
        op = PartialDft2Operator(mask)
        assert op.n_rows == mask.sum()
        assert op.n_rows / op.n_cols == mask.sum() / mask.size


def test_radial_mask_many_lines_cover_interior():
    # with lines at every rasterizable angle the mask saturates the block of
    # offsets within +/-(side/2 - 1) of the grid center
    shifted = np.fft.fftshift(radial_mask(8, 32))
    assert shifted[1:, 1:].all()
    assert not shifted[0, :].any() and not shifted[:, 0].any()


def test_radial_mask_validation():
    with pytest.raises(InputError):
        radial_mask(64, 0)


def test_radial_mask_more_lines_more_points():
    counts = [radial_mask(64, lines).sum() for lines in (4, 8, 16, 32)]
    assert counts == sorted(counts)


# ------------------------------------------------------------------ instances

def test_random_instance_deterministic():
    a = random_instance(20, 8, 3, 0.1, seed=42)
    b = random_instance(20, 8, 3, 0.1, seed=42)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.operator.matrix, b.operator.matrix)


def test_random_instance_noiseless_consistency():
    inst = random_instance(18, 7, 2, 0.0, seed=3)
    residual = np.linalg.norm(inst.y - inst.operator.apply(inst.truth))
    assert residual <= 1e-10 * max(np.linalg.norm(inst.y), 1.0)
    assert inst.truth_support_size == np.count_nonzero(inst.truth)


def test_random_instance_urp_small():
    inst = random_instance(12, 6, 2, 0.0, seed=4)
    assert urp(inst.operator.matrix)


def test_random_instance_validation():
    with pytest.raises(InputError):
        random_instance(10, 12, 2, 0.0, seed=0)
    with pytest.raises(InputError):
        random_instance(10, 5, 11, 0.0, seed=0)


@pytest.mark.parametrize("noise_sigma", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
def test_random_instance_bad_noise_rejected(noise_sigma):
    with pytest.raises(InputError, match="noise_sigma"):
        random_instance(10, 6, 2, noise_sigma, seed=0)


def test_phantom_problem_composition():
    problem = phantom_problem(32, 12)
    assert problem.operator.rows_orthonormal
    assert problem.truth_support_size == np.count_nonzero(problem.truth)
    # measurements really are the operator applied to the truth
    assert np.allclose(problem.y, problem.operator.apply(problem.truth),
                       atol=1e-12)


@pytest.mark.parametrize("solver, iterations", [(iht_run, 504), (dore_run, 154)],
                         ids=["iht", "dore"])
def test_phantom_reference_iteration_counts(solver, iterations):
    # The side-64, 28-line reference cell under the default stopping rule,
    # as the benchmark runs it.  The counts are exact: a change to any
    # iterate, threshold tie or stopping decision moves them.
    problem = phantom_problem(64, 28)
    result = solver(problem.operator, problem.y, problem.truth_support_size,
                    stop=StoppingRule())
    assert result.iterations == iterations
    assert result.converged
    basis = problem.operator.basis
    assert psnr(basis.synthesize(problem.truth),
                basis.synthesize(result.estimate.s)) > 100.0


# --------------------------------------------------------------------- config

def test_parse_bench_config_full():
    text = """
    # sweep setup
    side = 32
    lines = 8, 12
    methods = ecme, dore, mn
    tol = 1e-12
    max_iter = 500
    adore_resolution = 32
    """
    config = parse_bench_config(text)
    assert config == BenchConfig(side=32, lines=(8, 12),
                                 methods=("ecme", "dore", "mn"),
                                 tol=1e-12, max_iter=500,
                                 adore_resolution=32)


def test_parse_bench_config_errors():
    with pytest.raises(InputError):
        parse_bench_config("side 32")
    with pytest.raises(InputError):
        parse_bench_config("unknown = 3")
    with pytest.raises(InputError):
        parse_bench_config("methods = ecme, bogus")
    for text in ("side = abc", "lines = 6, x", "tol = small", "max_iter = 1e3",
                 "adore_resolution = 2.5"):
        with pytest.raises(InputError, match="config line 1: "):
            parse_bench_config(text)


# The hand-written schema the field-driven code replaced, kept as the
# reference it must reproduce: the per-key parser chain, the report dict and
# the config dict of the `recon bench` summary JSON.

def _reference_number(kind, text, where):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{where}: not a number: {text.strip()!r}") from None


def _reference_parse_bench_config(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"config line {lineno}: {key}"
        if key == "side":
            values["side"] = _reference_number(int, value, where)
        elif key == "lines":
            values["lines"] = tuple(_reference_number(int, v, where)
                                    for v in value.split(",") if v.strip())
        elif key == "methods":
            methods = tuple(v.strip() for v in value.split(",") if v.strip())
            unknown = [mth for mth in methods if mth not in KNOWN_METHODS]
            if unknown:
                raise InputError(f"unknown methods in config: {unknown}")
            values["methods"] = methods
        elif key == "tol":
            values["tol"] = _reference_number(float, value, where)
        elif key == "max_iter":
            values["max_iter"] = _reference_number(int, value, where)
        elif key == "adore_resolution":
            values["adore_resolution"] = _reference_number(int, value, where)
        else:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
    return BenchConfig(**values)


def _reference_report_dict(report):
    return {
        "method": report.method,
        "n_over_m": report.n_over_m,
        "psnr_db": report.psnr_db,
        "iterations": report.iterations,
        "elapsed_seconds": report.elapsed_seconds,
        "r_used": report.r_used,
    }


def _reference_config_dict(config):
    return {
        "side": config.side,
        "lines": list(config.lines),
        "methods": list(config.methods),
        "tol": config.tol,
        "max_iter": config.max_iter,
        "adore_resolution": config.adore_resolution,
    }


_VALID_CONFIG_VALUES = st.fixed_dictionaries({}, optional={
    "side": st.sampled_from([32, 64, 128, 256, 4096]),
    "lines": st.lists(st.integers(1, 10**6), min_size=1, max_size=6).map(tuple),
    "methods": st.lists(st.sampled_from(KNOWN_METHODS), min_size=1,
                        max_size=7).map(tuple),
    "tol": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "max_iter": st.integers(1, 10**12),
    "adore_resolution": st.integers(1, 10**6),
})
_SPACE = st.sampled_from(["", " ", "   ", "\t"])


@settings(max_examples=300, deadline=None)
@given(values=_VALID_CONFIG_VALUES, data=st.data())
def test_parse_bench_config_matches_reference(values, data):
    # any valid config, written with random key order, spacing, comments and
    # blank lines, parses equal to the reference and serialises to its bytes
    lines = []
    for key in data.draw(st.permutations(sorted(values))):
        items = values[key] if isinstance(values[key], tuple) else (values[key],)
        comma = data.draw(_SPACE) + "," + data.draw(_SPACE)
        text = comma.join(repr(item) if isinstance(item, float) else str(item)
                          for item in items)
        comment = data.draw(st.sampled_from(["", " # note", "#side = 7, 8"]))
        lines.append(f"{data.draw(_SPACE)}{key}{data.draw(_SPACE)}="
                     f"{data.draw(_SPACE)}{text}{data.draw(_SPACE)}{comment}")
        lines.extend(data.draw(st.lists(st.sampled_from(["", "  ", "# lines = 0"]),
                                        max_size=2)))
    text = "\n".join(lines)
    config = parse_bench_config(text)
    assert config == BenchConfig(**values)
    assert config == _reference_parse_bench_config(text)
    assert (json.dumps({"config": asdict(config)}, indent=2)
            == json.dumps({"config": _reference_config_dict(config)}, indent=2))


@settings(max_examples=100, deadline=None)
@given(method=st.sampled_from(KNOWN_METHODS),
       n_over_m=st.floats(0.0, 1.0),
       psnr_db=st.floats(allow_nan=False),
       iterations=st.integers(0, 10**9),
       elapsed=st.floats(0.0, 1e6),
       r_used=st.integers(0, 10**9))
def test_report_json_dict_matches_reference(method, n_over_m, psnr_db, iterations,
                                            elapsed, r_used):
    report = ExperimentReport(method, n_over_m, psnr_db, iterations, elapsed, r_used)
    assert report.to_json_dict() == _reference_report_dict(report)
    assert (json.dumps(report.to_json_dict(), indent=2)
            == json.dumps(_reference_report_dict(report), indent=2))


def test_csv_header_literal():
    assert CSV_HEADER == "method,n_over_m,psnr_db,iterations,elapsed_seconds,r_used"


def test_readme_bench_config_matches_parser():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # the documented defaults are the dataclass defaults, key for key
    table = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", readme, re.M)
    assert [key for key, _ in table] == [field.name for field in fields(BenchConfig)]
    assert parse_bench_config("\n".join(f"{key} = {default}"
                                         for key, default in table)) == BenchConfig()
    example = re.search(r"For\s+example:\n\n```\n(.*?)```", readme, re.S).group(1)
    assert parse_bench_config(example) == BenchConfig(
        side=64, lines=(7, 14, 22, 28), methods=("iht", "dore", "mn"), max_iter=6000)


def test_report_csv_row_format():
    from sparserecon import ExperimentReport

    row = report_csv_row(ExperimentReport("dore", 0.25, 101.5, 42, 0.5, 100))
    assert row.split(",")[0] == "dore"
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


# ---------------------------------------------------------------------- sweep

def test_adore_matches_dore_on_phantom_past_transition():
    # automatic sparsity selection keeps the reconstruction in the
    # exact-recovery regime that the known-sparsity solver reaches
    from sparserecon import HaarBasis, StoppingRule, adore_run, dore_run

    problem = phantom_problem(64, 28)
    stop = StoppingRule(tol=1e-14, max_iter=2000)
    basis = HaarBasis(64)
    reference = basis.synthesize(problem.truth)
    known = dore_run(problem.operator, problem.y, problem.truth_support_size,
                     stop=stop)
    auto = adore_run(problem.operator, problem.y, resolution=64, stop=stop)
    psnr_known = psnr(reference, basis.synthesize(known.estimate.s))
    psnr_auto = psnr(reference, basis.synthesize(auto.final.estimate.s))
    assert psnr_known > 100.0
    assert psnr_auto > 100.0
    assert auto.r_selected >= problem.truth_support_size


def test_benchmark_sweep_smoke_and_determinism():
    config = BenchConfig(side=32, lines=(10,), methods=("ecme", "dore", "mn"),
                         max_iter=300)
    first = benchmark_sweep(config)
    second = benchmark_sweep(config)
    assert len(first) == 3
    for a, b in zip(first, second):
        assert a.method == b.method
        assert a.n_over_m == b.n_over_m
        assert a.psnr_db == b.psnr_db
        assert a.iterations == b.iterations
        assert a.r_used == b.r_used
    by_method = {rep.method: rep for rep in first}
    assert by_method["mn"].iterations == 0
    assert by_method["dore"].iterations <= by_method["ecme"].iterations
