"""The discrete manifold of rankings swept by the F-score family.

Sweeping beta enumerates a path of rankings, one plateau at a time; each
transition swaps two adjacent classifiers.  Projected to two principal
components the path draws the familiar arc from the precision ranking to
the recall ranking.
"""

import numpy as np

from prtradeoff import (
    PerformanceSet,
    build_path,
    fixed_priors_spec,
    marker_rankings,
    pca_project,
    rank_trajectories,
    sample_parts,
)

pset = PerformanceSet.from_parts(
    sample_parts(fixed_priors_spec(0.1), seed=11, count=12),
    labels=tuple(f"clf{i:02d}" for i in range(12)),
)
path = build_path(pset)

print(f"{len(pset)} classifiers, {path.n_plateaus} distinct rankings")
print(f"transitions at beta = {np.round(path.transition_betas, 3)}")
print(f"optimal plateau: {path.optimal_plateau} (distance nearest to half)")

print("\nrank trajectories (rows: classifiers, columns: plateaus)")
traj = rank_trajectories(path)
for label, row in zip(pset.labels, traj):
    print(f"  {label}: {' '.join(f'{r:2d}' for r in row)}")

markers = marker_rankings(path)
coords, explained = pca_project(path, markers)
print(f"\nPCA of the rank vectors: {explained[0]:.1%} + {explained[1]:.1%} variance")
print("path coordinates (precision end first, recall end last):")
for k in range(path.n_plateaus):
    print(f"  plateau {k:2d}: ({coords[k, 0]:7.3f}, {coords[k, 1]:7.3f})")
for name, row in zip(markers, coords[path.n_plateaus:]):
    print(f"  {name:>10}: ({row[0]:7.3f}, {row[1]:7.3f})")

# to plot: scatter pc1 against pc2 and connect the plateau points in order,
# e.g. plt.plot(coords[:path.n_plateaus, 0], coords[:path.n_plateaus, 1], "-o")
