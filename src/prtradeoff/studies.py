"""Distribution-level studies: the Table-1 cells and the ``sweep`` tables of each family.

Each Table-1 cell is a number computed under one of the families
pi1..pi5, paired with the value the paper reports and the tolerance it
is checked against.  Every Monte Carlo number derives its seed from one
base seed, so each study, and each row of its tables, is a pure function
of its arguments.

Each study runs as one concurrent map (``distributions._map_concurrently``)
over all its independent pieces: every 65,536-pair block of every Monte
Carlo tau, every pencil replicate, and each near-oracle search or
streamed pass.  The queue holds the longest pieces first (the searches
and passes, then the replicates, then the blocks), so no long piece
starts while the other threads run out of work.  The results are then
combined cell by cell, in table order, and a study raises the error of
its first failing cell, whichever piece failed first in time.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import distributions as dist
from .scores import F1, PRECISION, RECALL, SIVF, fbeta

# k / 10 is the float nearest each decimal, the value a --param of 0.3 parses to
PRIOR_GRID = tuple(k / 10 for k in range(1, 10))

# (name, name, score, score) pairs whose tau pi1 and pi2 report; pair i
# takes seed + i.  The first three give the degree of optimality of F1.
SCORE_PAIRS = (
    ("precision", "recall", PRECISION, RECALL),
    ("precision", "f1", PRECISION, F1),
    ("f1", "recall", F1, RECALL),
    ("precision", "sivf", PRECISION, SIVF),
    ("sivf", "recall", SIVF, RECALL),
)

# vertex offsets at which pi3 and pi4 check the closed forms by Monte Carlo;
# 0.61585 is pi3's optimal_vertex_offset (0.6158497...) rounded to 5 places
_MC_OFFSETS = (0.1, 0.25, 0.61585, 1.0, 2.0, 5.0)


def _map_pieces(*groups) -> list[list]:
    """Every piece of every group, through one concurrent map; each group's results, in order.

    The queue hands the pieces out in the order given, so callers give the
    longest pieces first: then no long piece starts last while the other
    threads idle.  A piece that raises returns its exception in place of
    its result, the other pieces still run, and ``_ok`` raises it when
    its cell is combined.  So a study raises the error that the
    sequential code raised first, in cell order, whichever piece failed
    first in time.
    """
    results = iter(dist._map_concurrently(_attempt, [piece for group in groups for piece in group]))
    return [list(itertools.islice(results, len(group))) for group in groups]


def _attempt(piece):
    try:
        return piece()
    except Exception as exc:  # raised again, in cell order, by _ok
        return exc


def _ok(result):
    """A piece's result, or the exception it returned, raised."""
    if isinstance(result, Exception):
        raise result
    return result


def _score_pair_blocks(spec, pairs, n_pairs: int, seed: int) -> list[list]:
    """The block pieces of the tau of each (score1, score2) pair; pair i takes seed + i."""
    return [dist._tau_blocks(spec, s1, s2, n_pairs, seed + i) for i, (s1, s2) in enumerate(pairs)]


def _score_pair_taus(per_tau: list[list], n_pairs: int, seed: int) -> list[dist.McEstimate]:
    """The estimates from the block results of ``_score_pair_blocks``, one after another."""
    return [
        dist._tau_estimate([_ok(r) for r in blocks], n_pairs, seed + i)
        for i, blocks in enumerate(per_tau)
    ]


_F1_PAIRS = [(s1, s2) for _, _, s1, s2 in SCORE_PAIRS[:3]]


def _f1_degree(taus: list[dist.McEstimate], n_pairs: int) -> float:
    t_pr_re, t1, t2 = (e.value for e in taus)
    if t_pr_re == 1.0:
        raise ValueError(
            f"F1's degree of optimality is undefined: precision and recall agree on all "
            f"{n_pairs} sampled pairs (tau = 1); sample more pairs"
        )
    p_agree = (1.0 + t_pr_re) / 2.0
    p_bad = abs(t1 - t2) / 4.0
    p_good = 1.0 - p_agree - p_bad
    return p_good / (p_good + p_bad)


def mc_f1_degree(spec: dist.DistributionSpec, n_pairs: int, seed: int) -> float:
    """Degree of optimality of F1 under a family, from three Monte Carlo taus.

    The taus of (precision, recall), (precision, F1) and (F1, recall) use
    seeds ``seed``, ``seed + 1`` and ``seed + 2``: the first three rows of
    ``sweep_tables``' ``taus`` table at the same seed.  Raises ValueError
    when no sampled pair has precision and recall disagreeing, since the
    degree is then undefined.
    """
    per_tau = _map_pieces(*_score_pair_blocks(spec, _F1_PAIRS, n_pairs, seed))
    return _f1_degree(_score_pair_taus(per_tau, n_pairs, seed), n_pairs)


def table1_cells(n_pairs: int, seed: int) -> list[tuple[str, float, float, float]]:
    """The Table-1 cells as ``(name, value, expected, tolerance)`` rows.

    Every Monte Carlo piece of the table runs in one concurrent map, the
    longest first: the pi5 prior search, the pencil replicates, then the
    blocks of the twelve F1 taus.
    """
    # the F1 degrees: pi1 at seed, then the three pi2 slices at seed + 10, + 20, + 30
    f1_specs = [(dist.uniform_spec(), seed)]
    f1_specs += [(dist.fixed_tn_spec(ptn), seed + 10 * (i + 1)) for i, ptn in enumerate((0.0, 0.3, 0.6))]
    blocks = [b for spec, s in f1_specs for b in _score_pair_blocks(spec, _F1_PAIRS, n_pairs, s)]
    # the pi3/pi4 ROC geometry does not depend on the prior, so the grid
    # priors act as independent replicates, each with its own seed
    per_prior = max(n_pairs // len(PRIOR_GRID), 10**5)
    expected = {"pi3": math.log(4.0) - 0.5, "pi4": 5.0 / 6.0}
    replicates = [
        functools.partial(dist.mc_pencil_optimality, family, 1.0, per_prior, seed + 50 + i)
        for family in expected
        for i in range(len(PRIOR_GRID))
    ]
    search = functools.partial(dist.sivf_equidistance_prior_near_oracle, n_pairs, seed + 99)
    [prior], degrees, *per_tau = _map_pieces([search], replicates, *blocks)

    pi1, *pi2 = (
        _f1_degree(_score_pair_taus(per_tau[3 * k : 3 * k + 3], n_pairs, s), n_pairs)
        for k, (_, s) in enumerate(f1_specs)
    )
    cells = [("pi1_f1_degree", pi1, 1.0, 0.01), ("pi2_f1_degree", sum(pi2) / len(pi2), 1.0, 0.01)]
    for k, family in enumerate(expected):
        vals = [_ok(d) for d in degrees[k * len(PRIOR_GRID) : (k + 1) * len(PRIOR_GRID)]]
        cells.append((f"{family}_sivf_degree", sum(vals) / len(vals), expected[family], 0.01))
    cells.append(("pi3_f1_prior", dist.f1_equidistance_prior("pi3"), 0.381, 0.01))
    cells.append(("pi4_f1_prior", dist.f1_equidistance_prior("pi4"), 0.325, 0.01))
    cells.append(("pi5_sivf_prior", _ok(prior), 0.561, 0.02))
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
    pairs = [(s1, s2) for _, _, s1, s2 in SCORE_PAIRS]
    per_tau = _map_pieces(*_score_pair_blocks(spec, pairs, n_pairs, seed))
    estimates = _score_pair_taus(per_tau, n_pairs, seed)
    rows = [
        (n1, n2, est.value, est.half_width, est.n_pairs)
        for (n1, n2, _, _), est in zip(SCORE_PAIRS, estimates)
    ]
    tables = {"taus": (("score1", "score2", "tau", "half_width", "n_pairs"), rows)}
    return tables, {f"tau_{n1}_{n2}": tau for n1, n2, tau, _, _ in rows}


def _pencil_tables(spec, n_pairs: int, seed: int):
    tau = dist._analytic_tau(spec.family)
    star = dist.optimal_vertex_offset(spec.family)
    priors = np.linspace(0.02, 0.98, 49)
    # both sides at each Monte Carlo offset, (precision, F) at seed + 2i and (F, recall) at seed + 2i + 1
    betas = [math.sqrt(dist.beta_for_offset(off, spec.prior_pos)[0]) for off in _MC_OFFSETS]
    pairs = [pair for beta in betas for pair in ((PRECISION, fbeta(beta)), (fbeta(beta), RECALL))]
    per_tau = _map_pieces(*_score_pair_blocks(spec, pairs, n_pairs, seed))
    estimates = _score_pair_taus(per_tau, n_pairs, seed)
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
                (off, beta, tau("pr", off), est1.value, est1.half_width,
                 tau("re", off), est2.value, est2.half_width)
                for off, beta, est1, est2 in zip(_MC_OFFSETS, betas, estimates[::2], estimates[1::2])
            ],
        ),
    }
    return tables, {"optimal_vertex_offset": star}


def _near_oracle_tables(spec, n_pairs: int, seed: int):
    """Row i, at prior p: its tau at seed + i, its offset at seed + 100 + i, its sides at seed + 200 + i."""
    priors = sorted(set(PRIOR_GRID) | {spec.prior_pos})
    blocks, offsets, sides = [], [], []
    for i, p in enumerate(priors):
        blocks.append(dist._tau_blocks(dist.near_oracle_spec(p), PRECISION, RECALL, n_pairs, seed + i))
        offsets.append(functools.partial(dist.mc_optimal_vertex_offset_near_oracle, p, n_pairs, seed + 100 + i))
        # p / (1 - p) is the balanced F-score's vertex offset at prior p
        sides.append(functools.partial(dist.mc_tau_sides_near_oracle, p, p / (1.0 - p), n_pairs, seed + 200 + i))
    search = functools.partial(dist.sivf_equidistance_prior_near_oracle, n_pairs, seed + 300)
    [prior], offsets, sides, *per_tau = _map_pieces([search], offsets, sides, *blocks)

    pr_re, adaptation, f1_equidistance = [], [], []
    for i, p in enumerate(priors):
        est = dist._tau_estimate([_ok(r) for r in per_tau[i]], n_pairs, seed + i)
        pr_re.append((p, dist.analytic_tau_pr_re_near_oracle(p), est.value, est.half_width))
        off = _ok(offsets[i])
        b2, b = dist.beta_for_offset(off, p)
        adaptation.append((p, off, math.sqrt(b2), b))
        f1_equidistance.append((p, *_ok(sides[i])))
    tables = {
        "pr_re": (("prior_pos", "tau_analytic", "tau_mc", "half_width"), pr_re),
        "adaptation": (("prior_pos", "vertex_offset", "beta_star", "recall_weight"), adaptation),
        "f1_equidistance": (("prior_pos", "tau_precision_f1", "tau_f1_recall"), f1_equidistance),
    }
    return tables, {"sivf_equidistance_prior": _ok(prior)}
