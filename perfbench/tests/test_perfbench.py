"""Tests of the benchmark itself, on the small instance sizes.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bench_workloads  # noqa: E402
import sparserecon.matrix_analysis  # noqa: E402
import sparserecon.recon  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, tmp_path, seed=1, trace=False):
    text = io.StringIO()
    result = bench.run(workload, seed, 0, trace, size="small", out=text, out_dir=tmp_path)
    lines = text.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


def _detail(lines):
    return json.loads(next(line for line in lines if line.startswith("detail "))[7:])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    result, lines = _run(workload, tmp_path, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: entry["unit"] for name, entry in result["metrics"].items()}
    for metric in declared:
        assert any(line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
                   for line in lines), metric["name"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        assert (tmp_path / f"spans-{workload}-seed1.csv").is_file()
        assert result["metrics"]["trace.unattributed_frac"]["value"] < 0.05


def _corrupt_certificate(monkeypatch):
    certify = sparserecon.matrix_analysis.certify

    def corrupted(h, r_max, *args, **kwargs):
        cert = certify(h, r_max, *args, **kwargs)
        first = dataclasses.replace(cert.per_r[0], rho_min=cert.per_r[0].rho_min + 0.01)
        return dataclasses.replace(cert, per_r=(first,) + cert.per_r[1:])

    monkeypatch.setattr(sparserecon.matrix_analysis, "certify", corrupted)


def _corrupt_trace(monkeypatch):
    ecme_run = sparserecon.recon.ecme_run

    def corrupted(*args, **kwargs):
        result = ecme_run(*args, **kwargs)
        result.trace[-1] = result.trace[0] + 1.0
        return result

    monkeypatch.setattr(sparserecon.recon, "ecme_run", corrupted)


@pytest.mark.parametrize("workload, corrupt", [("certify", _corrupt_certificate),
                                               ("dense", _corrupt_trace)])
def test_corrupted_output_counts_as_failed(workload, corrupt, monkeypatch, tmp_path):
    corrupt(monkeypatch)
    result, lines = _run(workload, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["passed_frac"]["value"] < 1.0
    detail = _detail(lines)
    assert detail["failed_frac"] == result["failed"] / result["attempted"] > 0
    assert detail["violations"]


def test_second_seed_gives_the_same_metric_names(tmp_path):
    first, _ = _run("certify", tmp_path, seed=1)
    second, _ = _run("certify", tmp_path, seed=2)
    assert set(first["metrics"]) == set(second["metrics"])


def test_same_seed_gives_the_same_inputs(tmp_path):
    def inputs(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        bench_workloads.WORKLOADS["dense"]("small").generate(seed, workdir)
        return {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}

    assert inputs(3, "first") == inputs(3, "again")
    assert inputs(3, "third") != inputs(4, "other")


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
