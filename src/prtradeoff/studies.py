"""Distribution-level studies: the Table-1 cells of the paper.

Each cell is a number computed under one of the families pi1..pi5,
paired with the value the paper reports and the tolerance it is checked
against.  Every Monte Carlo cell derives its seeds from one base seed, so
the whole table is a pure function of ``(n_pairs, seed)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import distributions as dist
from .scores import F1, PRECISION, RECALL

PRIOR_GRID = tuple(np.linspace(0.1, 0.9, 9))


def mc_f1_degree(spec: dist.DistributionSpec, n_pairs: int, seed: int) -> float:
    """Degree of optimality of F1 under a family, from three Monte Carlo taus.

    The taus of (precision, recall), (precision, F1) and (F1, recall) use
    seeds ``seed``, ``seed + 1`` and ``seed + 2``.
    """
    t_pr_re = dist.mc_kendall_tau(spec, PRECISION, RECALL, n_pairs, seed).value
    t1 = dist.mc_kendall_tau(spec, PRECISION, F1, n_pairs, seed + 1).value
    t2 = dist.mc_kendall_tau(spec, F1, RECALL, n_pairs, seed + 2).value
    p_agree = (1.0 + t_pr_re) / 2.0
    p_bad = abs(t1 - t2) / 4.0
    p_good = 1.0 - p_agree - p_bad
    return p_good / (p_good + p_bad)


def table1_cells(n_pairs: int, seed: int) -> list[tuple[str, float, float, float]]:
    """The Table-1 cells as ``(name, value, expected, tolerance)`` rows."""
    cells = [("pi1_f1_degree", mc_f1_degree(dist.uniform_spec(), n_pairs, seed), 1.0, 0.01)]
    vals = [
        mc_f1_degree(dist.fixed_tn_spec(ptn), n_pairs, seed + 10 * (i + 1))
        for i, ptn in enumerate((0.0, 0.3, 0.6))
    ]
    cells.append(("pi2_f1_degree", sum(vals) / len(vals), 1.0, 0.01))

    # the pi3/pi4 ROC geometry does not depend on the prior, so the grid
    # priors act as independent replicates, each with its own seed
    per_prior = max(n_pairs // len(PRIOR_GRID), 10**5)
    for family, expected in (("pi3", math.log(4.0) - 0.5), ("pi4", 5.0 / 6.0)):
        vals = [
            dist.mc_pencil_optimality(family, 1.0, per_prior, seed + 50 + i)
            for i in range(len(PRIOR_GRID))
        ]
        cells.append((f"{family}_sivf_degree", sum(vals) / len(vals), expected, 0.01))

    cells.append(("pi3_f1_prior", dist.f1_equidistance_prior("pi3"), 0.381, 0.01))
    cells.append(("pi4_f1_prior", dist.f1_equidistance_prior("pi4"), 0.325, 0.01))
    cells.append(
        ("pi5_sivf_prior", dist.sivf_equidistance_prior_near_oracle(n_pairs, seed + 99), 0.561, 0.02)
    )
    return cells
