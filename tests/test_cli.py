"""Command-line interface: file round trips and exit codes."""

import bz2
import gzip
import json
import lzma
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sparserecon import (BenchConfig, InputError, cli, experiments, model_selection,
                         random_instance)
from sparserecon.cli import main
from sparserecon.dataio import (
    load_matrix_csv,
    load_vector_csv,
    save_json,
    save_matrix_csv,
    save_vector_csv,
)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def toy_files(tmp_path, toy_matrix):
    matrix_path = tmp_path / "H.csv"
    y_path = tmp_path / "y.csv"
    save_matrix_csv(matrix_path, toy_matrix)
    save_vector_csv(y_path, np.array([2.0, 2.0]))
    return str(matrix_path), str(y_path)


def test_dataio_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((3, 5))
    vector = rng.standard_normal(7)
    save_matrix_csv(tmp_path / "m.csv", matrix)
    save_vector_csv(tmp_path / "v.csv", vector)
    assert np.allclose(load_matrix_csv(tmp_path / "m.csv"), matrix, atol=1e-12)
    assert np.allclose(load_vector_csv(tmp_path / "v.csv"), vector, atol=1e-12)


def test_vector_accepts_single_row(tmp_path):
    path = tmp_path / "row.csv"
    path.write_text("1.5,2.5,3.5\n")
    assert np.array_equal(load_vector_csv(path), [1.5, 2.5, 3.5])


_BAD_CSV = {
    "ragged": b"1,2,3\n4,5\n",
    "non-numeric": b"1,2\n3,abc\n",
    "non-utf8": b"1,2\n3,\xff\xfe\n",
    "empty": b"",
}


def _bad_csv(tmp_path, case):
    """A file of one bad kind; "missing" names a path that does not exist."""
    path = tmp_path / f"{case}.csv"
    if case != "missing":
        path.write_bytes(_BAD_CSV[case])
    return path


@pytest.mark.parametrize("case", ["missing", "ragged", "non-numeric", "non-utf8"])
@pytest.mark.parametrize("load", [load_matrix_csv, load_vector_csv],
                         ids=["matrix", "vector"])
def test_unreadable_csv_raises_input_error(tmp_path, case, load):
    path = _bad_csv(tmp_path, case)
    with pytest.raises(InputError, match="could not read") as info:
        load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_compressed_csv_loads_as_plain(tmp_path, suffix):
    """A compressed file loads as its plain text does, as numpy's own
    path-based loader decodes it."""
    module = {".gz": gzip, ".bz2": bz2, ".xz": lzma, ".lzma": lzma}[suffix]
    text = "1.5,-2\n3,4e-3\n"
    plain, packed = tmp_path / "h.csv", tmp_path / f"h.csv{suffix}"
    plain.write_text(text)
    with module.open(packed, "wt") as handle:
        handle.write(text)
    assert load_matrix_csv(packed).tobytes() == load_matrix_csv(plain).tobytes()
    assert load_matrix_csv(packed).tobytes() == np.loadtxt(packed, delimiter=",").tobytes()


@pytest.mark.parametrize("case", ["missing", *_BAD_CSV])
@pytest.mark.parametrize("role", ["matrix", "y"])
def test_bad_csv_exits_2(tmp_path, toy_files, role, case, capsys):
    """Every bad input file stops the CLI with exit 2 and one error line;
    an empty file loads as an empty array and fails the shape checks."""
    matrix_path, y_path = toy_files
    bad = str(_bad_csv(tmp_path, case))
    args = ["ecme", "--matrix", bad if role == "matrix" else matrix_path,
            "--y", bad if role == "y" else y_path, "--r", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.fixture()
def exact_fit_files(tmp_path):
    """A noiseless Gaussian problem whose ADORE search fits some levels
    exactly, so those levels score USS = +inf."""
    problem = random_instance(60, 30, 3, 0.0, 1)
    matrix_path, y_path = tmp_path / "H.csv", tmp_path / "y.csv"
    save_matrix_csv(matrix_path, problem.operator.matrix)
    save_vector_csv(y_path, problem.y)
    return str(matrix_path), str(y_path)


def _strict_json(path):
    """Parse ``path`` as RFC 8259 JSON: Infinity, -Infinity and NaN are refused."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_save_json_writes_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "values.json"
    save_json(path, {"values": [math.inf, -math.inf, math.nan, 1.5], "flag": True})
    assert _strict_json(path) == {"values": ["inf", "-inf", "nan", 1.5], "flag": True}


def test_adore_out_is_strict_json(tmp_path, exact_fit_files, capsys):
    matrix_path, y_path = exact_fit_files
    out = tmp_path / "adore.json"
    assert main(["adore", "--matrix", matrix_path, "--y", y_path,
                 "--out", str(out)]) == 0
    payload = _strict_json(out)
    assert "inf" in [entry["uss"] for entry in payload["probed"]]


def test_adore_out_time_covers_every_probe(tmp_path, exact_fit_files, monkeypatch,
                                           capsys):
    """The file's elapsed_seconds is the whole search, not its last solver run."""
    durations = []
    dore = model_selection.dore_run

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = dore(*args, **kwargs)
        durations.append(time.perf_counter() - start)
        return result

    monkeypatch.setattr(model_selection, "dore_run", timed)
    matrix_path, y_path = exact_fit_files
    out = tmp_path / "adore.json"
    assert main(["adore", "--matrix", matrix_path, "--y", y_path,
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(durations) == payload["dore_runs"] >= 2
    assert payload["elapsed_seconds"] >= sum(durations)


def test_adore_out_records_each_probe_start_and_iterations(tmp_path, exact_fit_files,
                                                          monkeypatch, capsys):
    """Each probed entry of --out carries its solver iterations and the level
    its run started from, and the summary line prints their total."""
    calls = []
    dore = model_selection.dore_run

    def recorded(op, y, r, s0=None, stop=None):
        result = dore(op, y, r, s0=s0, stop=stop)
        calls.append((r, s0 is None, result.iterations))
        return result

    monkeypatch.setattr(model_selection, "dore_run", recorded)
    matrix_path, y_path = exact_fit_files
    out = tmp_path / "adore.json"
    assert main(["adore", "--matrix", matrix_path, "--y", y_path,
                 "--out", str(out)]) == 0
    probed = {entry["r"]: entry for entry in _strict_json(out)["probed"]}
    assert len(calls) >= 2 and calls[0][1]  # the first run starts from zero
    for r, cold, iterations in calls:
        assert probed[r]["iterations"] == iterations
        assert (probed[r]["start_r"] is None) == cold
        assert probed[r]["start_r"] is None or probed[r]["start_r"] in probed
    assert any(entry["start_r"] is not None for entry in probed.values())
    if 0 in probed:
        assert (probed[0]["iterations"], probed[0]["start_r"]) == (0, None)
    total = sum(iterations for _, _, iterations in calls)
    assert f"solver runs of {total} iterations" in capsys.readouterr().out


@pytest.mark.parametrize("solver", ["ecme", "dore"])
def test_solver_subcommands(tmp_path, toy_files, solver, capsys):
    matrix_path, y_path = toy_files
    out = tmp_path / "result.json"
    signal = tmp_path / "estimate.csv"
    code = main([solver, "--matrix", matrix_path, "--y", y_path, "--r", "1",
                 "--out", str(out), "--out-signal", str(signal)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert {"iterations", "converged", "final_sigma2", "trace",
            "elapsed_seconds"} <= set(payload)
    estimate = load_vector_csv(signal)
    assert np.count_nonzero(estimate) <= 1
    assert solver in capsys.readouterr().out


def test_iht_subcommand_requires_orthonormal(toy_files, capsys):
    matrix_path, y_path = toy_files
    code = main(["iht", "--matrix", matrix_path, "--y", y_path, "--r", "1"])
    assert code == 2  # toy matrix rows are not orthonormal
    assert "orthonormal" in capsys.readouterr().err


def test_adore_subcommand(tmp_path, toy_files, capsys):
    matrix_path, y_path = toy_files
    out = tmp_path / "adore.json"
    code = main(["adore", "--matrix", matrix_path, "--y", y_path,
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "r_selected" in payload and "probed" in payload


def test_adore_resolution_below_one_exits_2(toy_files, capsys):
    matrix_path, y_path = toy_files
    assert main(["adore", "--matrix", matrix_path, "--y", y_path,
                 "--resolution", "0"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: resolution"), lines


@pytest.mark.parametrize("command", ["ecme", "dore", "adore"])
def test_non_finite_tol_exits_2(toy_files, capsys, command):
    matrix_path, y_path = toy_files
    level = [] if command == "adore" else ["--r", "1"]
    assert main([command, "--matrix", matrix_path, "--y", y_path, *level,
                 "--tol", "inf"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: tol must be positive"), lines
    assert captured.out == ""


def test_analyze_exact(tmp_path, toy_files, capsys):
    matrix_path, _ = toy_files
    out = tmp_path / "cert.json"
    code = main(["analyze", "--matrix", matrix_path, "--r-max", "2",
                 "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["exact"] is True
    assert cert["spark"] == 3
    assert cert["per_r"][1]["rho_min"] == pytest.approx(1 / 3, abs=1e-12)
    assert cert["per_r"][1]["gamma"] == pytest.approx(1.618, abs=1e-3)
    assert cert["guarantees"][0]["p0_unique"] is True
    assert cert["guarantees"][0]["recovery_guaranteed"] is False


def test_analyze_spark_over_guard_prints_lower_bound(tmp_path, capsys):
    """The spark search would enumerate 847 subsets, past a guard of 300 that
    the min-SSQ and RIC levels (at most 45 supports) stay under: the
    certificate reports spark's exact lower bound in place of its value."""
    matrix_path, out = tmp_path / "H.csv", tmp_path / "c.json"
    save_matrix_csv(matrix_path, np.random.default_rng(5).standard_normal((6, 10)))
    assert main(["analyze", "--matrix", str(matrix_path), "--r-max", "1",
                 "--guard", "300", "--out", str(out)]) == 0
    assert "spark >= 3 (exact search over guard)" in capsys.readouterr().out
    cert = json.loads(out.read_text())
    assert (cert["spark"], cert["urp"], cert["spark_min"]) == (None, None, 3)


def test_analyze_has_no_exact_flag(toy_files, capsys):
    """Exact mode is the default; --sampled alone selects the other mode."""
    matrix_path, _ = toy_files
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--matrix", matrix_path, "--r-max", "1", "--exact"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert "--exact" not in capsys.readouterr().out


def test_analyze_sampled_labeled_non_exact(tmp_path, toy_files):
    matrix_path, _ = toy_files
    out = tmp_path / "bounds.json"
    code = main(["analyze", "--matrix", matrix_path, "--r-max", "2",
                 "--sampled", "--samples", "50", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["exact"] is False
    assert payload["mode"] == "sampled"
    assert "rho_min_upper_bound" in payload["per_r"][0]


def test_exit_code_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a\nnumber,grid\n")
    code = main(["ecme", "--matrix", str(bad), "--y", str(bad), "--r", "1"])
    assert code == 2


@pytest.mark.parametrize("solver", ["ecme", "dore", "adore"])
def test_exit_code_non_finite_measurements(tmp_path, toy_files, solver, capsys):
    matrix_path, _ = toy_files
    y_path = tmp_path / "y_nan.csv"
    y_path.write_text("2.0\nnan\n")
    args = [solver, "--matrix", matrix_path, "--y", str(y_path)]
    if solver != "adore":
        args += ["--r", "1"]
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["nan", "inf"])
@pytest.mark.parametrize("mode", [[], ["--sampled", "--samples", "50"]],
                         ids=["exact", "sampled"])
def test_exit_code_non_finite_matrix(tmp_path, entry, mode, capsys):
    matrix_path = tmp_path / "H_bad.csv"
    matrix_path.write_text(f"1.0,0.0,1.0\n0.0,{entry},1.0\n")
    assert main(["analyze", "--matrix", str(matrix_path), "--r-max", "1", *mode]) == 2
    assert "finite" in capsys.readouterr().err


def test_exit_code_zero_samples(tmp_path, toy_files, capsys):
    matrix_path, _ = toy_files
    out = tmp_path / "bounds.json"
    code = main(["analyze", "--matrix", matrix_path, "--r-max", "1",
                 "--sampled", "--samples", "0", "--out", str(out)])
    assert code == 2
    assert "n_samples" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["ecme", "--r", "1"], ["analyze", "--r-max", "1"],
    ["analyze", "--r-max", "1", "--sampled", "--samples", "50"],
], ids=["ecme", "analyze-exact", "analyze-sampled"])
def test_exit_code_empty_matrix(tmp_path, toy_files, command, capsys):
    _, y_path = toy_files
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    args = [command[0], "--matrix", str(empty), *command[1:]]
    if command[0] == "ecme":
        args += ["--y", y_path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["analyze", "--matrix", "{empty}", "--r-max", "1"],
    ["ecme", "--matrix", "{matrix}", "--y", "{empty}", "--r", "1"],
], ids=["analyze-empty-matrix", "ecme-empty-y"])
def test_empty_csv_gives_one_error_line(tmp_path, toy_files, command):
    matrix_path, _ = toy_files
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    args = [arg.format(empty=empty, matrix=matrix_path) for arg in command]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "sparserecon.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr


@pytest.mark.parametrize("r_max", ["0", "4"])
@pytest.mark.parametrize("mode", [[], ["--sampled", "--samples", "50"]],
                         ids=["exact", "sampled"])
def test_exit_code_r_max_outside_range(tmp_path, toy_files, r_max, mode, capsys):
    matrix_path, _ = toy_files
    out = tmp_path / "bounds.json"
    code = main(["analyze", "--matrix", matrix_path, "--r-max", r_max, *mode,
                 "--out", str(out)])
    assert code == 2
    assert "r_max" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("guard", ["0", "-1"])
def test_exit_code_guard_below_one(toy_files, guard, capsys):
    matrix_path, _ = toy_files
    code = main(["analyze", "--matrix", matrix_path, "--r-max", "1",
                 "--guard", guard])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: guard"), lines


def test_exit_code_guard_with_sampled(tmp_path, toy_files, capsys):
    matrix_path, _ = toy_files
    out = tmp_path / "bounds.json"
    code = main(["analyze", "--matrix", matrix_path, "--r-max", "1",
                 "--sampled", "--samples", "5", "--guard", "1",
                 "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: guard"), lines
    assert captured.out == ""
    assert not out.exists()


def test_exit_code_samples_in_exact_mode(tmp_path, toy_files, capsys):
    matrix_path, _ = toy_files
    out = tmp_path / "cert.json"
    for samples in ("5", "-3"):
        code = main(["analyze", "--matrix", matrix_path, "--r-max", "1",
                     "--samples", samples, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: samples"), lines
        assert captured.out == ""
        assert not out.exists()


def test_exit_code_size_guard(toy_files, capsys):
    matrix_path, _ = toy_files
    code = main(["analyze", "--matrix", matrix_path, "--r-max", "2",
                 "--guard", "2"])
    assert code == 3
    assert "guard" in capsys.readouterr().err


def test_phantom_subcommand(tmp_path, capsys):
    out = tmp_path / "phantom.json"
    code = main(["phantom", "--side", "32", "--lines", "16",
                 "--method", "dore", "--max-iter", "200", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "dore"
    assert payload["side"] == 32
    assert "psnr" in capsys.readouterr().out


def test_bench_subcommand(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(
        "side = 32\nlines = 10\nmethods = dore, mn\nmax_iter = 200\n"
    )
    csv_out = tmp_path / "rows.csv"
    json_out = tmp_path / "summary.json"
    code = main(["bench", "--config", str(config),
                 "--out-csv", str(csv_out), "--out-json", str(json_out)])
    assert code == 0
    rows = csv_out.read_text().strip().splitlines()
    assert rows[0].startswith("method,")
    assert len(rows) == 3
    summary = json.loads(json_out.read_text())
    assert len(summary["reports"]) == 2
    assert summary["config"]["side"] == 32


def test_bench_missing_config(capsys):
    assert main(["bench", "--config", "/nonexistent/path.cfg"]) == 2


@pytest.mark.parametrize("text", ["side = abc\n", "side = 32\nlines = 6, x\n"],
                         ids=["side", "lines"])
def test_bench_non_numeric_config_value(tmp_path, text, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(text)
    assert main(["bench", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config line"), lines
    assert captured.out == ""


@pytest.fixture()
def solver_calls(monkeypatch):
    """Count the solver cells the bench sweep starts."""
    calls = []
    run_method = experiments.run_method

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_method(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_method", counted)
    return calls


def _bench_error(tmp_path, capsys, text):
    """Run `recon bench` on config text; it must exit 2 with one error line."""
    config = tmp_path / "bench.cfg"
    config.write_text(text)
    assert main(["bench", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert captured.out == ""
    return lines[0]


@pytest.mark.parametrize("key, text, value", [
    ("side", "48", 48),
    ("side", "16", 16),
    ("lines", "", ()),
    ("lines", "10, 0", (10, 0)),
    ("methods", "", ()),
    ("methods", "dore, bogus", ("dore", "bogus")),
    ("tol", "0", 0.0),
    ("tol", "inf", float("inf")),
    ("max_iter", "0", 0),
    ("adore_resolution", "0", 0),
], ids=["side-48", "side-16", "lines-empty", "lines-zero", "methods-empty",
        "methods-unknown", "tol", "tol-inf", "max_iter", "adore_resolution"])
def test_bench_config_checked_before_any_solver(tmp_path, capsys, solver_calls, key,
                                                text, value):
    with pytest.raises(InputError):
        BenchConfig(**{key: value})
    settings = {"side": "32", "lines": "10", "methods": "dore, adore", key: text}
    config = "".join(f"{name} = {setting}\n" for name, setting in settings.items())
    line = _bench_error(tmp_path, capsys, config)
    assert solver_calls == []
    assert key in line, line


def test_bench_duplicate_key_exits_2(tmp_path, capsys):
    text = "side = 32\nlines = 10\nmethods = mn\nside = 64\n"
    line = _bench_error(tmp_path, capsys, text)
    assert line == "error: config line 4: side is set twice"


@pytest.mark.parametrize("method, r", [("mn", "-7"), ("adore", "5")])
def test_phantom_r_rejected_where_unused(tmp_path, capsys, method, r):
    out = tmp_path / "phantom.json"
    code = main(["phantom", "--side", "32", "--lines", "10", "--method", method,
                 "--r", r, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: r applies to ecme, iht and dore only, not to {method}"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("method, resolution",
                         [("dore", "0"), ("ecme", "64"), ("iht", "1"), ("mn", "5")])
def test_phantom_resolution_rejected_where_unused(tmp_path, capsys, method, resolution):
    out = tmp_path / "phantom.json"
    code = main(["phantom", "--side", "32", "--lines", "10", "--method", method,
                 "--resolution", resolution, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: resolution applies to adore only, not to {method}"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag, expected", [([], 64), (["--resolution", "3"], 3)],
                         ids=["default", "set"])
def test_phantom_adore_resolution(monkeypatch, capsys, flag, expected):
    seen = []

    def recorded(method, op, y, r, stop, resolution):
        seen.append(resolution)
        return experiments.run_method(method, op, y, r, stop, resolution)

    monkeypatch.setattr(cli, "run_method", recorded)
    assert main(["phantom", "--side", "32", "--lines", "10", "--method", "adore",
                 "--max-iter", "200", *flag]) == 0
    assert seen == [expected]
    assert "method=adore" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag", [
    (["ecme", "--matrix", "{matrix}", "--y", "{y}", "--r", "1"], "--out"),
    (["ecme", "--matrix", "{matrix}", "--y", "{y}", "--r", "1"], "--out-signal"),
    (["analyze", "--matrix", "{matrix}", "--r-max", "1"], "--out"),
    (["phantom", "--side", "32", "--lines", "10", "--method", "mn"], "--out"),
    (["bench", "--config", "{config}"], "--out-csv"),
    (["bench", "--config", "{config}"], "--out-json"),
], ids=["ecme-out", "ecme-out-signal", "analyze-out", "phantom-out",
        "bench-out-csv", "bench-out-json"])
def test_unwritable_output_gives_one_error_line(tmp_path, toy_files, command, flag,
                                                capsys):
    matrix_path, y_path = toy_files
    config = tmp_path / "bench.cfg"
    config.write_text("side = 32\nlines = 10\nmethods = mn\n")
    missing = tmp_path / "missing" / "out.file"
    args = [arg.format(matrix=matrix_path, y=y_path, config=config) for arg in command]
    assert main([*args, flag, str(missing)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: could not write"), lines
    assert not missing.parent.exists()
