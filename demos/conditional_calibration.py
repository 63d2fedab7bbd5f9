"""Marginal versus calibration-conditional guarantees.

The usual conformal guarantee averages over calibration draws: an
unlucky calibration set can undercover and nothing in the marginal
p-value warns about it. The conditional regime inflates each p-value
just enough that, with probability 1 - delta over calibration draws,
the guarantee holds for the realized calibration set itself.

This costs power. The demo makes the cost visible, then shows the three
band constructions side by side.
"""

import numpy as np

from confanom import (EstimationSpec, PipelineConfig, ScorerSpec,
                      build_adjustment, compute_p_values, fit, make_rng,
                      select, split, statistical_power)

rng = make_rng(42)
train = rng.normal(size=(2000, 8))
X = rng.normal(size=(500, 8))
X[-50:] += 2.0
labels = np.zeros(500, dtype=int)
labels[-50:] = 1

scorer = ScorerSpec(kind="knn_distance")

marginal = fit(PipelineConfig(scorer=scorer, strategy=split(1000), seed=9),
               train)

print("method       power@0.1   mean inflation")
dec = select(marginal, X, alpha=0.1)
base = compute_p_values(marginal, X)
print(f"{'marginal':12} {statistical_power(labels, dec):9.2f} {'':>14}")

for method in ("asymptotic", "simes", "mc"):
    config = PipelineConfig(
        scorer=scorer, strategy=split(1000), seed=9,
        estimation=EstimationSpec(regime="conditional_empirical",
                                  method=method, delta=0.1))
    fitted = fit(config, train)
    dec = select(fitted, X, alpha=0.1)
    cond = compute_p_values(fitted, X)
    inflation = float(np.mean(cond.values - base.values))
    print(f"{method:12} {statistical_power(labels, dec):9.2f} "
          f"{inflation:14.4f}")

# The adjustment is a pure function of (n, delta, method): a lookup from
# marginal grid values to inflated ones. Inspect the head of each table
n = 1000
print("\nrank r: marginal r/(n+1) -> adjusted, first 5 ranks")
for method in ("asymptotic", "simes", "mc"):
    table = build_adjustment(n, 0.1, method, seed=0)
    head = ", ".join(f"{v:.4f}" for v in table.adjusted[:5])
    print(f"{method:12} {head}")

# mc calibrates the band by simulation and the simes closed form (the
# generalized Simes band with k = n/2) lies below it at the smallest ranks,
# so both keep selecting here; simes pays for that by mapping every rank above
# about n/2 to 1, hence its larger mean inflation.  The asymptotic DKW band
# pushes the small ranks above the BH cut at this n and alpha, which is why
# its power collapses while its guarantee is the same
