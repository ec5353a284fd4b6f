"""The counting engine against direct re-ranking.

``frechet_curve``, ``frechet_variance``, ``equidistance_gap`` and
``build_path`` count pair crossings instead of ranking the whole set at
each beta.  The oracle here ranks every item directly with
``rank_by_score`` and counts discordant pairs with ``discordance``; it
is kept in this file only, so the shortcut is never checked against
itself.  On sets with ties the oracle is ``pairwise_sides``, which
decides every pair by its own gaps in precision, recall and the F-score:
re-ranking can differ from it where near-ties chain.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from prtradeoff import (
    F1,
    PRECISION,
    RECALL,
    SIVF,
    PerformanceSet,
    analyze_set,
    build_path,
    discordance,
    equidistance_gap,
    fbeta,
    frechet_curve,
    frechet_variance,
    optimality_decomposition,
    pair_crossings,
    rank_by_score,
    rank_trajectories,
    UndefinedScoreError,
)
from prtradeoff import ranking, tradeoff
from prtradeoff.scores import TIE_TOL, fbeta_values, score_values

from conftest import roc_pset


def direct_sides(pset, beta):
    """(d(Pr, F_beta), d(F_beta, Re)) by ranking every item at beta."""
    r_pr = rank_by_score(pset, PRECISION)
    r_re = rank_by_score(pset, RECALL)
    r = rank_by_score(pset, fbeta(beta))
    return discordance(r_pr, r)[0], discordance(r, r_re)[0]


def pairwise_signs(values):
    """Over all pairs i < j: +1 where values[i] - values[j] > TIE_TOL, -1 where it is below -TIE_TOL, else 0."""
    i, j = np.triu_indices(len(values), 1)
    gap = values[i] - values[j]
    return np.where(gap > TIE_TOL, 1, np.where(gap < -TIE_TOL, -1, 0))


def pairwise_discordance(f, g):
    """The pairs that the value vectors f and g order oppositely, each decided by its own two gaps."""
    return int(np.sum(pairwise_signs(f) * pairwise_signs(g) < 0))


def pairwise_sides(pset, beta):
    """(d(Pr, F_beta), d(F_beta, Re)) over all pairs, each decided by its own gaps under TIE_TOL.

    A pair tied by either of its two scores is not discordant.
    """
    pr, re = (score_values(score, pset.parts) for score in (PRECISION, RECALL))
    f = fbeta_values(pset.parts, beta)
    return pairwise_discordance(pr, f), pairwise_discordance(f, re)


def direct_variance(pset, beta):
    d1, d2 = direct_sides(pset, beta)
    d1, d2 = d1 / pset.total_pairs, d2 / pset.total_pairs
    return d1 * d1 + d2 * d2


def probe_betas(pset):
    """0, every transition root, and the geometric midpoints between and past them."""
    roots = sorted({math.sqrt(t) for t in pair_crossings(pset).thetas})
    mids = [math.sqrt(a * b) for a, b in zip(roots, roots[1:])]
    return [0.0, *roots, *mids, *(2.0 * r for r in roots[-1:])]


def window_edges(pset):
    """Each crossing pair's tie-window ends as betas, with their float neighbours.

    The window is |x - theta| <= c (1 + x), c = ``ranking._tie_slack``;
    a pair is decided by its own F-scores inside it and counted outside.
    """
    theta = pset.crossings.thetas
    i, j = pset.crossings.pairs.T
    c = ranking._tie_slack(pset.parts, i, j, theta)
    ends = np.concatenate([(theta - c) / (1.0 + c), (theta + c)[c < 1.0] / (1.0 - c[c < 1.0])])
    b = np.sqrt(ends[ends >= 0.0])
    return np.concatenate([b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)]).tolist()


def dense_grid_plateaus(pset, path):
    """Distinct rankings met along a dense beta grid (the acceptance-10 oracle)."""
    grid = (
        np.geomspace(path.transition_betas[0] / 2, path.transition_betas[-1] * 2, 2500)
        if len(path.transition_betas)
        else np.geomspace(1e-3, 1e3, 50)
    )
    seen = [rank_by_score(pset, fbeta(0.0)).ranks]
    for b in grid:
        r = rank_by_score(pset, fbeta(b)).ranks
        if r != seen[-1]:
            seen.append(r)
    return len(seen)


def assert_path_matches_direct_probing(pset, path):
    r_pr = rank_by_score(pset, PRECISION)
    betas = path.transition_betas
    probes = [0.0, *(math.sqrt(a * b) for a, b in zip(betas, betas[1:])), *(2.0 * b for b in betas[-1:])]
    assert len(probes) == path.n_plateaus
    for k, b in enumerate(probes):
        r = rank_by_score(pset, fbeta(b))
        assert path.ranking(k) == r
        assert path.swaps[k] == discordance(r_pr, r)[0]
    traj = rank_trajectories(path)
    assert traj.shape == (len(pset), path.n_plateaus)
    for k in range(path.n_plateaus):
        assert tuple(traj[:, k]) == path.ranking(k).ranks


cell = st.floats(min_value=0.01, max_value=1.0, allow_nan=False, allow_subnormal=False)
performances = st.lists(st.tuples(cell, cell, cell, cell), min_size=2, max_size=25)


def tie_free(rows):
    pset = PerformanceSet.from_parts(rows)
    assume(not rank_by_score(pset, PRECISION).has_ties)
    assume(not rank_by_score(pset, RECALL).has_ties)
    return pset


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(performances)
def test_counted_frechet_quantities_match_direct_reranking(rows):
    pset = tie_free(rows)
    betas = probe_betas(pset)
    curve = frechet_curve(pset, betas=betas)
    assert [b for b, _ in curve] == betas
    for b, v in curve:
        assert v == direct_variance(pset, b)
    for b in betas[:: max(1, len(betas) // 5)]:
        assert frechet_variance(pset, b) == direct_variance(pset, b)
    for t in [0.0, *pair_crossings(pset).thetas]:
        d1, d2 = direct_sides(pset, math.sqrt(t))
        assert equidistance_gap(pset, t) == Fraction(abs(d1 - d2), pset.total_pairs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(performances)
def test_swap_built_path_matches_direct_reranking(rows):
    pset = tie_free(rows)
    assert_path_matches_direct_probing(pset, build_path(pset))


grid_cell = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 0.75, 1.0])
tied_performances = st.lists(st.tuples(grid_cell, grid_cell, grid_cell, grid_cell), min_size=2, max_size=12)


# Four F-scores near 0.4 lie 9.6e-13, 9.6e-13 and 1.9e-12 apart at this
# beta: each pair's own gap orders the outer two and ties the rest, while
# re-ranking by #{j : f_j >= f_i - TIE_TOL} chains the near-ties.
CHAINED_TIES = [
    (0.25, 1, 0.5, 1), (0, 0.1, 0.5, 0.1), (0.2, 0.25, 0.1, 0.25), (0.25, 0.5, 1, 0.5),
    (0, 1, 0.1, 0), (0.75, 0.1, 0.5, 0.2), (0.5, 0.5, 0.2, 0.1), (1, 1, 1, 0.2),
    (0.2, 0, 0.75, 0.25), (0.75, 0.1, 0.1, 0.75), (0.2, 0.2, 0.1, 0.1), (0, 0.1, 0.1, 0.1),
]
CHAINED_BETA = 0.9999999999879988

# Recalls 0.5, 0.5 + 0.6e-12 and 0.5 + 1.2e-12: each pair's own gap
# orders only the outer two, while re-ranking by recall puts the third
# ahead of the second and ties the first two.
CHAINED_RECALLS = [(0.1, 0.5), (0.05, 0.5 + 0.6e-12), (0.3, 0.5 + 1.2e-12), (0.4, 0.9)]


def pairwise_variance(pset, beta):
    d1, d2 = (d / pset.total_pairs for d in pairwise_sides(pset, beta))
    return d1 * d1 + d2 * d2


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tied_performances)
@example(CHAINED_TIES)
@example(roc_pset(CHAINED_RECALLS, prior=0.3).parts.tolist())
def test_counting_on_sets_with_ties_matches_pairwise_decisions(rows):
    # precision and recall must be defined; ties and degenerate pairs are welcome
    assume(all(fp + tp > 0 and fn + tp > 0 for _, fp, fn, tp in rows))
    pset = PerformanceSet.from_parts(rows)
    betas = probe_betas(pset) + [0.37, 1.0, 3.3, CHAINED_BETA] + window_edges(pset)
    for b, v in frechet_curve(pset, betas=betas):
        assert v == pairwise_variance(pset, b)
    for t in [0.0, *pair_crossings(pset).thetas]:
        d1, d2 = pairwise_sides(pset, math.sqrt(t))
        assert equidistance_gap(pset, t) == Fraction(abs(d1 - d2), pset.total_pairs)
    # d(Pr, Re) and the decomposition against F_beta*, candidates at crossings among them
    extra = {fbeta(b).label(): fbeta(b) for b in np.sqrt(pset.crossings.thetas[:3])}  # one beta per label
    report = analyze_set(pset, extra_betas=[score.beta for score in extra.values()])
    pr, re = (score_values(score, pset.parts) for score in (PRECISION, RECALL))
    assert report.discordant_pr_re == pairwise_discordance(pr, re)
    b2_star = pset.crossings.beta_star_squared
    if report.discordant_pr_re and b2_star is not None:
        star = fbeta_values(pset.parts, math.sqrt(b2_star))
        scores = {"f1": F1, "sivf": SIVF, **extra}
        if report.heuristic is not None:
            scores["heuristic"] = fbeta(report.heuristic)
        for name, breakdown in report.optimality.items():
            d_bad = pairwise_discordance(score_values(scores[name], pset.parts), star)
            assert breakdown.p_not_optimal == Fraction(d_bad, pset.total_pairs)


def test_pairwise_decisions_give_the_chained_tie_set_sides_8_and_7():
    pset = PerformanceSet.from_parts(CHAINED_TIES)
    assert pairwise_sides(pset, CHAINED_BETA) == (8, 7)
    assert frechet_variance(pset, CHAINED_BETA) == pairwise_variance(pset, CHAINED_BETA)


def test_the_report_and_the_curve_count_chained_recalls_alike():
    pset = roc_pset(CHAINED_RECALLS, prior=0.3)
    report = analyze_set(pset)
    (_, variance), = frechet_curve(pset, [math.inf])
    assert report.discordant_pr_re == 3
    # F_inf ranks as recall, so the variance there is d(Pr, F_inf)^2 alone
    assert variance == (report.discordant_pr_re / pset.total_pairs) ** 2
    pr, re = (score_values(score, pset.parts) for score in (PRECISION, RECALL))
    assert pairwise_discordance(pr, re) == 3
    # re-ranking recall chains the near-ties: it orders items 1 and 2, which the pair rule ties
    assert rank_by_score(pset, RECALL).ranks == (4, 4, 3, 1)


@pytest.mark.xfail(strict=True, reason="re-ranking chains near-ties: (8, 8) where each pair's own gap gives (8, 7)")
def test_reranking_matches_pairwise_decisions_on_chained_ties():
    pset = PerformanceSet.from_parts(CHAINED_TIES)
    assert direct_sides(pset, CHAINED_BETA) == pairwise_sides(pset, CHAINED_BETA)


def test_two_disjoint_pairs_crossing_at_the_same_theta():
    # at prior 1/2 a pair crosses at the offset of the ROC pencil line
    # through both points; both lines below pass through (-1.7, 0)
    pset = roc_pset([(0.1, 0.6), (0.4, 0.7), (0.3, 0.5), (0.9, 0.65)])
    crossings = pair_crossings(pset)
    assert sum(abs(t - 1.7) <= 1e-12 for t in crossings.thetas) == 2
    path = build_path(pset)
    assert pset.crossings.coalesced
    k = path.plateau_of(math.sqrt(1.7) * (1 + 1e-9))
    steps = [b - a for a, b in zip(path.swaps, path.swaps[1:])]
    assert steps[k - 1] == 2
    assert_path_matches_direct_probing(pset, path)
    assert path.n_plateaus == dense_grid_plateaus(pset, path)


def test_three_items_reversing_as_a_block():
    # three points on one pencil line through (-1, 0), plus a unanimous leader
    pset = roc_pset([(0.1, 0.55), (0.3, 0.65), (0.6, 0.8), (0.02, 0.95)])
    path = build_path(pset)
    assert pset.crossings.coalesced
    assert path.n_plateaus == 2
    assert path.transition_betas.tolist() == [pytest.approx(1.0)]
    assert path.ranking(0).ranks == (2, 3, 4, 1)
    assert path.ranking(1).ranks == (4, 3, 2, 1)
    assert path.swaps.tolist() == [0, 3]
    assert_path_matches_direct_probing(pset, path)
    assert path.n_plateaus == dense_grid_plateaus(pset, path)
    # the block is tied at its own beta: discordant with neither endpoint
    assert direct_sides(pset, path.transition_betas[0]) == (0, 0)
    assert frechet_variance(pset, path.transition_betas[0]) == 0.0


def test_near_tied_recalls_tie_over_a_wide_band_of_beta():
    # recalls 1e-9 apart: the pairs cross near beta^2 = 1e8 and their
    # F-scores stay within TIE_TOL over a relative 1e-3 of beta^2 there,
    # so all three pairs are tied at each other's crossing
    offset = 1.0001e8
    pset = roc_pset([(0.1, 0.5), (0.3, 0.5 + 1e-9), (0.6, 0.5 + 0.25 / (offset + 0.1)), (0.05, 0.9)])
    assert pair_crossings(pset).n_crossings == 3
    betas = probe_betas(pset)
    for b, v in frechet_curve(pset, betas=betas):
        assert v == direct_variance(pset, b)
    for t in pair_crossings(pset).thetas:
        assert direct_sides(pset, math.sqrt(t)) == (0, 0)
        assert equidistance_gap(pset, t) == 0


def test_overflowing_beta_fails_like_direct_ranking():
    pset = roc_pset([(0.1, 0.6), (0.4, 0.7), (0.2, 0.8)])
    with pytest.raises(UndefinedScoreError):
        rank_by_score(pset, fbeta(1e200))
    with pytest.raises(UndefinedScoreError):
        frechet_variance(pset, 1e200)
    assert frechet_variance(pset, math.inf) == direct_variance(pset, math.inf)


@pytest.mark.parametrize("combos", [1, 5, 64])
def test_direct_decisions_in_small_chunks_match_direct_reranking(combos, monkeypatch):
    # small integer cells give coincident crossings (9 of 32 repeat one)
    # and 4 pairs that precision or recall ties, whose tie windows reach 0
    # or inf; the probes inside each window, its ends and their neighbours
    # among them, are decided a few (beta, pair) combinations at a time
    monkeypatch.setattr(tradeoff, "_COMBOS", combos)
    pset = PerformanceSet.from_parts(np.random.default_rng(0).integers(1, 5, (24, 4)))
    for b, v in frechet_curve(pset, betas=probe_betas(pset) + [0.37, 1.0, 3.3] + window_edges(pset)):
        assert v == direct_variance(pset, b)
    for t in [0.0, *pair_crossings(pset).thetas]:
        d1, d2 = direct_sides(pset, math.sqrt(t))
        assert equidistance_gap(pset, t) == Fraction(abs(d1 - d2), pset.total_pairs)


def test_direct_decisions_stay_bounded_in_memory():
    # 300 items with integer cells in 1..6: the curve's 2172 betas fall
    # inside tie windows 193,649 times, one chunk of direct decisions.  The
    # curve peaked at 22.8 MB (21.4 MB with the crossings already cached);
    # deciding the ill-conditioned pairs at every beta took 1,529,088 rows
    # and peaked at 33.7 MB, and deciding every combination at once at 82 MB.
    pset = PerformanceSet.from_parts(np.random.default_rng(1).integers(1, 7, (300, 4)))
    tracemalloc.start()
    try:
        frechet_curve(pset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 10**6


def test_pair_counts_build_no_square_array():
    # uniform ROC at n=3000: one n x n float64 array alone is 72 MB
    pset = roc_pset(np.random.default_rng(0).uniform(size=(3000, 2)))
    pset.crossings
    r_pr, r_re = rank_by_score(pset, PRECISION), rank_by_score(pset, RECALL)
    for count in (lambda: discordance(r_pr, r_re), lambda: optimality_decomposition(pset, F1)):
        tracemalloc.start()
        try:
            count()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10**6


def test_pairs_are_decided_directly_only_inside_their_tie_windows(monkeypatch):
    # uniform ROC at n=2000 has B = 972,244 probes and m = 486,101
    # crossings; each direct decision passes two rows to fbeta_values.
    # Deciding each pair only inside its own tie window takes 972,238 rows;
    # deciding the ill-conditioned pairs at every probe took 24,118,442.
    rows = []

    def counted(parts, beta):
        rows.append(len(parts))
        return fbeta_values(parts, beta)

    monkeypatch.setattr(tradeoff, "fbeta_values", counted)
    pset = roc_pset(np.random.default_rng(0).uniform(size=(2000, 2)))
    curve = frechet_curve(pset)
    assert sum(rows) <= 2 * (len(curve) + pset.crossings.n_crossings)
