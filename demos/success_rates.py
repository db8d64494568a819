"""Phase-transition curves: recovery success rate versus sparsity.

Desk-scale analog of the signal-recovery comparison: PGROTP against
subspace pursuit and orthogonal matching pursuit on 100x200 Gaussian
instances, noiseless and with small measurement noise.  Success means the
relative reconstruction error is at most 1e-3.
"""

from pgthresh.bench import (ExperimentConfig, SUCCESS_HEADER,
                            success_rate_experiment, write_csv)

K_GRID = tuple(range(2, 41, 4))

rows = []
for sigma in (0.0, 0.001):
    cfg = ExperimentConfig(m=100, n=200, k_grid=K_GRID, q_list=("2k",),
                           algorithms=("pgrotp", "sp", "omp"), trials=10,
                           sigma=sigma, seed=7, threads=4)
    cells = success_rate_experiment(cfg)
    rows.extend(cells)
    rates = {(k, algo): rate for _, _, k, _, algo, _, _, _, rate in cells}
    label = "noiseless" if sigma == 0 else f"sigma={sigma}"
    print(f"\nsuccess rates ({label}), {cfg.trials} trials per cell")
    print(f"{'k':>4}" + "".join(f"{a:>10}" for a in cfg.algorithms))
    for k in K_GRID:
        print(f"{k:>4}" + "".join(f"{rates[k, a]:>10.2f}"
                                  for a in cfg.algorithms))

write_csv(rows, "success_rates.csv", SUCCESS_HEADER)
print(f"\nwrote success_rates.csv ({len(rows)} rows)")
