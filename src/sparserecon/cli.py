"""Command-line front end.

    recon ecme|iht|dore --matrix H.csv --y y.csv --r K [--tol --max-iter --out --out-signal]
    recon adore --matrix H.csv --y y.csv [--resolution L ...]
    recon analyze --matrix H.csv --r-max K [--sampled] [--out cert.json]
    recon phantom --side 64 --lines 22 --method dore [--r K | --resolution L] [--out report.json]
    recon bench --config bench.cfg [--out-csv ...] [--out-json ...]

Exit codes: 0 success, 2 input error, 3 size-guard error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from .dataio import (
    load_matrix_csv,
    load_vector_csv,
    save_json,
    save_text,
    save_vector_csv,
)
from .errors import InputError, SizeGuardError, _count
from .experiments import (
    CSV_HEADER,
    KNOWN_METHODS,
    BenchConfig,
    benchmark_sweep,
    parse_bench_config,
    phantom_problem,
    phantom_psnr,
    report_csv_row,
    run_method,
)
from .matrix_analysis import (MIN_SSQ_GUARD, SAMPLED_SUPPORTS, certify, min_ssq_sampled,
                              ric_sampled)
from .operators import DenseOperator
from .recon import DEFAULT_MAX_ITER, DEFAULT_TOL, StoppingRule

# every registered method except the minimum-norm baseline is a subcommand
_SOLVER_COMMANDS = tuple(name for name in KNOWN_METHODS if name != "mn")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recon",
        description="Sparse signal reconstruction by hard thresholding, "
                    "with exact sensing-matrix analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _SOLVER_COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} solver")
        cmd.add_argument("--matrix", required=True, help="sensing matrix CSV")
        cmd.add_argument("--y", required=True, help="measurement vector CSV")
        if name == "adore":
            cmd.add_argument("--resolution", type=int, default=1,
                             help="golden-section resolution L (default 1)")
        else:
            cmd.add_argument("--r", type=int, required=True, help="sparsity level")
        cmd.add_argument("--tol", type=float, default=DEFAULT_TOL)
        cmd.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
        cmd.add_argument("--out", help="write the result JSON here")
        cmd.add_argument("--out-signal", help="write the signal estimate CSV here")

    cmd = sub.add_parser("analyze", help="exact matrix measures and certificate")
    cmd.add_argument("--matrix", required=True)
    cmd.add_argument("--r-max", type=int, required=True)
    cmd.add_argument("--sampled", action="store_true",
                     help="sampled non-exact bounds instead of a certificate")
    cmd.add_argument("--samples", type=int)
    cmd.add_argument("--guard", type=int,
                     help=f"enumeration guard (exact mode; default {MIN_SSQ_GUARD})")
    cmd.add_argument("--out", help="write the certificate JSON here")

    cmd = sub.add_parser("phantom", help="desk-scale tomographic reconstruction")
    cmd.add_argument("--side", type=int, default=64)
    cmd.add_argument("--lines", type=int, default=22)
    cmd.add_argument("--method", choices=KNOWN_METHODS, default="dore")
    cmd.add_argument("--r", type=int, default=None,
                     help="sparsity level (default: true support size)")
    cmd.add_argument("--tol", type=float, default=DEFAULT_TOL)
    cmd.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    cmd.add_argument("--resolution", type=int, default=None,
                     help="golden-section resolution for adore")
    cmd.add_argument("--out", help="write the report JSON here")

    cmd = sub.add_parser("bench", help="benchmark sweep over sampling densities")
    cmd.add_argument("--config", required=True, help="key=value config file")
    cmd.add_argument("--out-csv", help="write report rows CSV here")
    cmd.add_argument("--out-json", help="write report summary JSON here")
    return parser


def _cmd_solver(args) -> int:
    op = DenseOperator(load_matrix_csv(args.matrix))
    y = load_vector_csv(args.y)
    stop = StoppingRule(tol=args.tol, max_iter=args.max_iter)
    # adore has --resolution and no --r; the other solvers the reverse
    run = run_method(args.command, op, y, getattr(args, "r", None), stop,
                     getattr(args, "resolution", 1))
    if args.command == "adore":
        auto = run.result
        print(f"adore: selected r={auto.r_selected} after {auto.dore_runs} "
              f"solver runs of {sum(auto.iterations)} iterations; "
              f"final sigma2={auto.final.estimate.sigma2:.6g}")
    else:
        print(f"{args.command}: iterations={run.iterations} "
              f"converged={run.converged} sigma2={run.result.estimate.sigma2:.6g}")
    if args.out:
        # the registry's clock: the whole library call, every ADORE probe included
        save_json(args.out, {**run.result.to_json_dict(),
                             "elapsed_seconds": run.elapsed_seconds})
    if args.out_signal:
        save_vector_csv(args.out_signal, run.estimate)
    return 0


def _cmd_analyze(args) -> int:
    matrix = load_matrix_csv(args.matrix)
    _count(args.r_max, "r_max", 1, matrix.shape[1])
    if args.sampled and args.guard is not None:
        raise InputError("guard applies to exact mode only, not to --sampled")
    if not args.sampled and args.samples is not None:
        raise InputError("samples applies to --sampled mode only, not to exact mode")
    guard = MIN_SSQ_GUARD if args.guard is None else args.guard
    if args.sampled:
        samples = SAMPLED_SUPPORTS if args.samples is None else args.samples
        per_r = []
        for r in range(1, args.r_max + 1):
            rho, rho_support = min_ssq_sampled(matrix, r, samples)
            gamma, gamma_support = ric_sampled(matrix, r, samples)
            per_r.append({
                "r": r,
                "rho_min_upper_bound": rho,
                "rho_support": list(rho_support),
                "gamma_lower_bound": gamma,
                "gamma_support": list(gamma_support),
            })
        payload = {
            "mode": "sampled",
            "exact": False,
            "note": "sampled supports only: rho values upper-bound the true "
                    "minimum, gamma values lower-bound the true constant",
            "per_r": per_r,
        }
        print(f"sampled bounds for r=1..{args.r_max} "
              f"({samples} supports per level)")
    else:
        cert = certify(matrix, args.r_max, guard=guard)
        payload = {"mode": "exact", "exact": True, **cert.to_json_dict()}
        spark_text = str(cert.spark) if cert.spark is not None \
            else f">= {cert.spark_min} (exact search over guard)"
        print(f"certificate: spark {spark_text}, urp={cert.urp}, "
              f"coherence={cert.coherence:.6g}")
        for entry in cert.per_r:
            print(f"  r={entry.r}: min-ssq={entry.rho_min:.6g} "
                  f"ric={entry.gamma:.6g}")
        for flag in cert.flags:
            print(f"  r={flag.r}: unique={flag.p0_unique} "
                  f"recovery={flag.recovery_guaranteed} "
                  f"(min 2r-ssq={flag.rho_2r_min:.6g})")
    if args.out:
        save_json(args.out, payload)
    return 0


def _cmd_phantom(args) -> int:
    if args.r is not None and args.method in ("adore", "mn"):
        raise InputError(f"r applies to ecme, iht and dore only, not to {args.method}")
    if args.resolution is not None and args.method != "adore":
        raise InputError(f"resolution applies to adore only, not to {args.method}")
    problem = phantom_problem(args.side, args.lines)
    r = args.r if args.r is not None else problem.truth_support_size
    resolution = BenchConfig.adore_resolution if args.resolution is None else args.resolution
    stop = StoppingRule(tol=args.tol, max_iter=args.max_iter)
    op = problem.operator
    run = run_method(args.method, op, problem.y, r, stop, resolution)
    value = phantom_psnr(problem, run.estimate)
    n_over_m = op.n_rows / op.n_cols
    print(f"phantom side={args.side} lines={args.lines} N/m={n_over_m:.3f} "
          f"method={args.method} r={run.r_used}: psnr={value:.2f} dB, "
          f"iterations={run.iterations}, converged={run.converged}")
    if args.out:
        save_json(args.out, {
            "side": args.side,
            "lines": args.lines,
            "n_over_m": n_over_m,
            "method": args.method,
            "r_used": run.r_used,
            "psnr_db": value,
            "iterations": run.iterations,
            "converged": run.converged,
        })
    return 0


def _cmd_bench(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = parse_bench_config(handle.read())
    except OSError as exc:
        raise InputError(f"could not read config {args.config}: {exc}") from exc
    reports = benchmark_sweep(config)
    lines = [CSV_HEADER] + [report_csv_row(rep) for rep in reports]
    print("\n".join(lines))
    if args.out_csv:
        save_text(args.out_csv, "\n".join(lines) + "\n")
    if args.out_json:
        save_json(args.out_json, {
            "config": asdict(config),
            "reports": [rep.to_json_dict() for rep in reports],
        })
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = dict.fromkeys(_SOLVER_COMMANDS, _cmd_solver)
    handlers.update(analyze=_cmd_analyze, phantom=_cmd_phantom, bench=_cmd_bench)
    try:
        return handlers[args.command](args)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
