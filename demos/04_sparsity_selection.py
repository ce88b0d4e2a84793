#!/usr/bin/env python3
"""Choosing the sparsity level from the data alone.

The USS score balances model size against fitted variance and is invariant
to rescaling the measurements.  On a tiny instance the exact
maximum-likelihood variance is computable by brute-force support
enumeration, and the score peaks exactly at the true support size.  At
realistic sizes the automatic driver replaces the exact variance with the
accelerated solver's estimate and locates the peak by golden-section
search, paying one solver run per probed level.  Each run starts from the
estimate of the nearest level probed before it (from zero for the first).

Run:  python3 demos/04_sparsity_selection.py
"""

import math

import numpy as np

from sparserecon import (
    DenseOperator,
    StoppingRule,
    UssScorer,
    adore_run,
    exact_ml_bruteforce,
    partial_dct_matrix,
)

rng = np.random.default_rng(11)

# --- tiny instance: exact score curve by brute force ------------------------
m, n, r_true = 10, 8, 2
op = DenseOperator(rng.standard_normal((n, m)))
truth = np.zeros(m)
truth[rng.choice(m, size=r_true, replace=False)] = rng.standard_normal(r_true) + 1.0
y = op.apply(truth)

scorer = UssScorer(op, y)
print(f"tiny instance: m={m}, N={n}, true support size {r_true}")
print(f"{'r':>3} {'sigma2_ML(r)':>14} {'USS(r)':>12}")
for r in range(0, math.ceil(n / 2) + 1):
    est = exact_ml_bruteforce(op, y, r)
    evaluation = scorer.evaluate(r, est.sigma2)
    label = f"{evaluation.uss_value:12.4f}" if math.isfinite(evaluation.uss_value) \
        else f"     +inf(g={evaluation.growth_rate})"
    print(f"{r:>3} {est.sigma2:>14.6e} {label}")
print("infinite scores rank by their divergence rate N - r - 2, so the")
print(f"smallest perfect fit wins: the peak sits at r = {r_true}\n")

# --- realistic path: golden-section search with solver surrogates -----------
rows = (1, 2, 3, 4, 6, 8, 9, 11, 12, 13, 15, 17, 19, 20, 21,
        23, 26, 28, 29, 30, 31)
bench = DenseOperator(partial_dct_matrix(32, rows))
truth = np.zeros(32)
truth[17] = 1.8
y = bench.apply(truth)
result = adore_run(bench, y, resolution=1,
                   stop=StoppingRule(tol=1e-24, max_iter=3000))
print("automatic run on the 21x32 DCT benchmark with a 1-sparse truth:")
print(f"  probed levels : {[e.r for e in result.evaluations]}")
for e, start, iterations in zip(result.evaluations, result.start_r, result.iterations):
    if e.r == 0:
        print("    r= 0: the empty model, no solver run")
    else:
        origin = "zero" if start is None else f"the r={start} estimate"
        print(f"    r={e.r:>2}: {iterations:>3} iterations from {origin}")
print(f"  solver runs   : {result.dore_runs} "
      f"(vs {math.ceil(21 / 2) + 1} for an exhaustive scan)")
print(f"  selected r    : {result.r_selected}")
err = np.linalg.norm(result.final.estimate.s - truth)
print(f"  recovery error: {err:.2e}")
