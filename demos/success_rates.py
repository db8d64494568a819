"""Phase-transition curves: recovery success rate versus sparsity.

Desk-scale analog of the signal-recovery comparison: PGROTP against
subspace pursuit and orthogonal matching pursuit on 100x200 Gaussian
instances, noiseless and with small measurement noise.  Success means the
relative reconstruction error is at most 1e-3.
"""

from pgthresh.bench import (ExperimentConfig, SUCCESS_HEADER,
                            success_rate_experiment, success_rows, write_csv)

K_GRID = tuple(range(2, 41, 4))

all_results = []
for sigma in (0.0, 0.001):
    cfg = ExperimentConfig(m=100, n=200, k_grid=K_GRID, q_list=("2k",),
                           algorithms=("pgrotp", "sp", "omp"), trials=10,
                           sigma=sigma, seed=7, threads=4)
    results = success_rate_experiment(cfg)
    all_results.extend(results)
    label = "noiseless" if sigma == 0 else f"sigma={sigma}"
    print(f"\nsuccess rates ({label}), {cfg.trials} trials per cell")
    print(f"{'k':>4}" + "".join(f"{a:>10}" for a in cfg.algorithms))
    for k in K_GRID:
        rates = [next(r.rate for r in results
                      if r.k == k and r.algorithm == a)
                 for a in cfg.algorithms]
        print(f"{k:>4}" + "".join(f"{r:>10.2f}" for r in rates))

rows = success_rows(all_results)
write_csv(rows, "success_rates.csv", SUCCESS_HEADER)
print(f"\nwrote success_rates.csv ({len(rows)} rows)")
