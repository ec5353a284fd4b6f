"""Distribution-level studies: the Table-1 cells and the ``sweep`` tables of each family.

Each Table-1 cell is a number computed under one of the families
pi1..pi5, paired with the value the paper reports and the tolerance it
is checked against.  Every Monte Carlo number derives its seed from one
base seed, so each study, and each row of its tables, is a pure function
of its arguments.
"""

from __future__ import annotations

import math

import numpy as np

from . import distributions as dist
from .scores import F1, PRECISION, RECALL, SIVF, fbeta

PRIOR_GRID = tuple(np.linspace(0.1, 0.9, 9))

# (name, name, score, score) pairs whose tau pi1 and pi2 report; pair i
# takes seed + i.  The first three give the degree of optimality of F1.
SCORE_PAIRS = (
    ("precision", "recall", PRECISION, RECALL),
    ("precision", "f1", PRECISION, F1),
    ("f1", "recall", F1, RECALL),
    ("precision", "sivf", PRECISION, SIVF),
    ("sivf", "recall", SIVF, RECALL),
)

# vertex offsets at which pi3 and pi4 check the closed forms by Monte Carlo
_MC_OFFSETS = (0.1, 0.25, 0.61585, 1.0, 2.0, 5.0)


def _score_pair_taus(spec, pairs, n_pairs: int, seed: int) -> list[dist.McEstimate]:
    return [
        dist.mc_kendall_tau(spec, s1, s2, n_pairs, seed + i)
        for i, (_, _, s1, s2) in enumerate(pairs)
    ]


def mc_f1_degree(spec: dist.DistributionSpec, n_pairs: int, seed: int) -> float:
    """Degree of optimality of F1 under a family, from three Monte Carlo taus.

    The taus of (precision, recall), (precision, F1) and (F1, recall) use
    seeds ``seed``, ``seed + 1`` and ``seed + 2``: the first three rows of
    ``sweep_tables``' ``taus`` table at the same seed.
    """
    t_pr_re, t1, t2 = (e.value for e in _score_pair_taus(spec, SCORE_PAIRS[:3], n_pairs, seed))
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
    # priors act as independent replicates, each with its own seed; the
    # replicates of both families share one concurrent map
    per_prior = max(n_pairs // len(PRIOR_GRID), 10**5)
    expected = {"pi3": math.log(4.0) - 0.5, "pi4": 5.0 / 6.0}
    star = {family: dist.optimal_vertex_offset(family) for family in expected}
    replicates = [(family, seed + 50 + i) for family in expected for i in range(len(PRIOR_GRID))]
    degrees = dist._map_concurrently(
        lambda job: dist.mc_pencil_optimality(
            job[0], 1.0, per_prior, job[1], optimal_offset=star[job[0]]
        ),
        replicates,
    )
    for family in expected:
        vals = [d for (f, _), d in zip(replicates, degrees) if f == family]
        cells.append((f"{family}_sivf_degree", sum(vals) / len(vals), expected[family], 0.01))

    cells.append(("pi3_f1_prior", dist.f1_equidistance_prior("pi3"), 0.381, 0.01))
    cells.append(("pi4_f1_prior", dist.f1_equidistance_prior("pi4"), 0.325, 0.01))
    cells.append(
        ("pi5_sivf_prior", dist.sivf_equidistance_prior_near_oracle(n_pairs, seed + 99), 0.561, 0.02)
    )
    return cells


def sweep_tables(
    spec: dist.DistributionSpec, n_pairs: int, seed: int
) -> tuple[dict[str, tuple], dict]:
    """The study of one family: its ``(header, rows)`` tables by file stem, and its summary values.

    pi1 and pi2 give ``taus``; pi3 and pi4 ``analytic_correlations``,
    ``adaptation``, ``f1_equidistance`` and ``mc_validation``; pi5 ``pr_re``,
    ``adaptation`` and ``f1_equidistance``.
    """
    if spec.family in ("pi1", "pi2"):
        return _score_pair_tables(spec, n_pairs, seed)
    if spec.family in ("pi3", "pi4"):
        return _pencil_tables(spec, n_pairs, seed)
    return _near_oracle_tables(spec, n_pairs, seed)


def _score_pair_tables(spec, n_pairs: int, seed: int):
    estimates = _score_pair_taus(spec, SCORE_PAIRS, n_pairs, seed)
    rows = [
        (n1, n2, est.value, est.half_width, est.n_pairs)
        for (n1, n2, _, _), est in zip(SCORE_PAIRS, estimates)
    ]
    tables = {"taus": (("score1", "score2", "tau", "half_width", "n_pairs"), rows)}
    return tables, {f"tau_{n1}_{n2}": tau for n1, n2, tau, _, _ in rows}


def _pencil_tables(spec, n_pairs: int, seed: int):
    tau = dist.analytic_tau_fixed_priors if spec.family == "pi3" else dist.analytic_tau_above_no_skill
    star = dist.optimal_vertex_offset(spec.family)
    priors = np.linspace(0.02, 0.98, 49)
    tables = {
        "analytic_correlations": (
            ("vertex_offset", "tau_precision_fbeta", "tau_fbeta_recall"),
            [(o, tau("pr", o), tau("re", o)) for o in np.geomspace(1e-3, 1e3, 121)],
        ),
        "adaptation": (
            ("prior_pos", "beta_star_squared", "recall_weight", "recall_weight_sivf", "recall_weight_f1"),
            [(p, *dist.beta_for_offset(star, p), 1.0 - p, 0.5) for p in priors],
        ),
        "f1_equidistance": (
            ("prior_pos", "tau_precision_f1", "tau_f1_recall"),
            # p / (1 - p) is the balanced F-score's vertex offset at prior p
            [(p, tau("pr", p / (1.0 - p)), tau("re", p / (1.0 - p))) for p in priors],
        ),
        "mc_validation": (
            ("vertex_offset", "beta", "analytic_pr", "mc_pr", "half_width_pr",
             "analytic_re", "mc_re", "half_width_re"),
            [
                _mc_validation_row(spec, tau, off, n_pairs, seed + 2 * i)
                for i, off in enumerate(_MC_OFFSETS)
            ],
        ),
    }
    return tables, {"optimal_vertex_offset": star}


def _mc_validation_row(spec, tau, offset: float, n_pairs: int, seed: int) -> tuple:
    """Both sides at this vertex offset, closed form vs Monte Carlo; seeds seed and seed + 1."""
    beta = math.sqrt(dist.beta_for_offset(offset, spec.prior_pos)[0])
    est1 = dist.mc_kendall_tau(spec, PRECISION, fbeta(beta), n_pairs, seed)
    est2 = dist.mc_kendall_tau(spec, fbeta(beta), RECALL, n_pairs, seed + 1)
    return (offset, beta, tau("pr", offset), est1.value, est1.half_width,
            tau("re", offset), est2.value, est2.half_width)


def _near_oracle_tables(spec, n_pairs: int, seed: int):
    priors = sorted(set(PRIOR_GRID) | {spec.prior_pos})
    rows = [_near_oracle_rows(p, n_pairs, seed + i) for i, p in enumerate(priors)]
    pr_re, adaptation, f1_equidistance = zip(*rows)
    tables = {
        "pr_re": (("prior_pos", "tau_analytic", "tau_mc", "half_width"), pr_re),
        "adaptation": (("prior_pos", "vertex_offset", "beta_star", "recall_weight"), adaptation),
        "f1_equidistance": (("prior_pos", "tau_precision_f1", "tau_f1_recall"), f1_equidistance),
    }
    summary = {"sivf_equidistance_prior": dist.sivf_equidistance_prior_near_oracle(n_pairs, seed + 300)}
    return tables, summary


def _near_oracle_rows(p: float, n_pairs: int, seed: int) -> tuple[tuple, tuple, tuple]:
    """A prior's ``pr_re``, ``adaptation`` and ``f1_equidistance`` rows; seeds seed, + 100, + 200."""
    est = dist.mc_kendall_tau(dist.near_oracle_spec(p), PRECISION, RECALL, n_pairs, seed)
    off = dist.mc_optimal_vertex_offset_near_oracle(p, n_pairs, seed + 100)
    b2, b = dist.beta_for_offset(off, p)
    t1, t2 = dist.mc_tau_sides_near_oracle(p, p / (1.0 - p), n_pairs, seed + 200)
    return (
        (p, dist.analytic_tau_pr_re_near_oracle(p), est.value, est.half_width),
        (p, off, math.sqrt(b2), b),
        (p, t1, t2),
    )
