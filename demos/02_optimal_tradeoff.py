"""Finding the optimal tradeoff beta for a set of classifiers.

The rankings induced by the F-score family always form a shortest path
between the precision ranking and the recall ranking, so there is a
well-defined midpoint: the beta whose ranking is equally far from both.
The median of the pairwise crossing values gives it in closed form.
"""

import math

from prtradeoff import (
    PRECISION,
    RECALL,
    PerformanceSet,
    analyze_set,
    fbeta,
    fixed_priors_spec,
    frechet_variance,
    geodesic_check,
    heuristic_beta,
    optimal_beta,
    rank_by_score,
    kendall_distance,
    sample_parts,
)

# sixty classifiers at a fixed 5% positive prior (uniform ROC points)
pset = PerformanceSet.from_parts(sample_parts(fixed_priors_spec(0.05), seed=7, count=60))

# the shortest-path identity holds exactly, for every beta
residuals = geodesic_check(pset, [0.05, 0.3, 1.0, 3.0, 20.0])
print("shortest-path residuals (all zero):", residuals)

b2_star, crossings = optimal_beta(pset)
print(f"\npairwise crossings: {len(crossings)}")
print(f"optimal beta^2 (median crossing): {b2_star:.4f}")
print(f"optimal beta:                     {math.sqrt(b2_star):.4f}")

print("\nFrechet variance along the family (minimized at the optimum)")
for beta in (0.05, 0.2, math.sqrt(b2_star), 1.0, 5.0):
    print(f"  beta={beta:7.4f}: {frechet_variance(pset, beta):.5f}")

r_pr = rank_by_score(pset, PRECISION)
r_re = rank_by_score(pset, RECALL)
r_star = rank_by_score(pset, fbeta(math.sqrt(b2_star)))
print(f"\nd(precision, optimum) = {kendall_distance(r_pr, r_star):.4f}")
print(f"d(optimum, recall)    = {kendall_distance(r_star, r_re):.4f}")

# how good are the usual candidates on this set?
report = analyze_set(pset)
print(f"\nheuristic beta (error-mass ratio): {heuristic_beta(pset):.4f}")
print("\ndegree of optimality per candidate")
for name, cell in report.optimality.items():
    print(
        f"  {name:>10}: degree={float(cell.degree):6.1%}  "
        f"agree={float(cell.p_agree):.3f} optimal={float(cell.p_optimal):.3f} "
        f"not-optimal={float(cell.p_not_optimal):.3f}"
    )
print("\nat a 5% positive prior the balanced F1 nearly copies the recall")
print("ranking; the optimal beta is far below 1.")
