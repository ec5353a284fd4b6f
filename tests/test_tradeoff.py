import dataclasses
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from prtradeoff import (
    F1,
    PRECISION,
    RECALL,
    SIVF,
    Performance,
    PerformanceSet,
    TradeoffReport,
    ZeroDenominatorError,
    analyze_set,
    discordance,
    equidistance_gap,
    evaluate,
    fbeta,
    fixed_priors_spec,
    frechet_curve,
    frechet_variance,
    geodesic_check,
    heuristic_beta,
    kendall_tau,
    optimal_beta,
    optimality_decomposition,
    pair_crossings,
    rank_by_score,
    sample_parts,
    score_values,
)

from conftest import random_pset


def exact_crossing(p1, p2):
    """Fraction-arithmetic oracle for the equalizing beta^2."""
    f = lambda x: Fraction(x).limit_denominator(10**9)
    num = f(p1.ptp) * f(p2.pfp) - f(p2.ptp) * f(p1.pfp)
    den = f(p1.ptp) * f(p2.pfn) - f(p2.ptp) * f(p1.pfn)
    if den == 0:
        return None
    return -num / den


def pair_summary(p1, p2):
    return pair_crossings(PerformanceSet((p1, p2)))


def test_crossing_fp_fn_swap_symmetry():
    p1 = Performance(0.25, 0.25, 0.25, 0.25)
    p2 = Performance(0.25, 0.15, 0.35, 0.25)
    summary = pair_summary(p1, p2)
    assert summary.thetas.tolist() == pytest.approx([1.0])
    assert evaluate(F1, p1) == pytest.approx(0.5)
    assert evaluate(F1, p2) == pytest.approx(0.5)


def test_crossing_negative_ratio_is_none():
    p1 = Performance(0.25, 0.25, 0.25, 0.25)
    p2 = Performance(0.4, 0.2, 0.1, 0.3)
    assert exact_crossing(p1, p2) == Fraction(-1, 2)
    summary = pair_summary(p1, p2)
    assert (summary.n_crossings, summary.unanimous_pairs, summary.degenerate_pairs) == (0, 1, 0)


def test_crossing_unanimous_pair_is_none():
    # first beats second under precision and recall alike
    p1 = Performance(0.25, 0.10, 0.10, 0.55)
    p2 = Performance(0.25, 0.20, 0.20, 0.35)
    assert evaluate(PRECISION, p1) > evaluate(PRECISION, p2)
    assert evaluate(RECALL, p1) > evaluate(RECALL, p2)
    summary = pair_summary(p1, p2)
    assert (summary.n_crossings, summary.unanimous_pairs, summary.degenerate_pairs) == (0, 1, 0)


def test_crossing_pair_tied_under_precision_or_recall_is_unanimous():
    # equal precision, and (mirrored) equal recall: F orders the pair as the
    # other endpoint does at every beta, so neither endpoint contradicts it
    p1 = Performance(0.25, 0.25, 0.25, 0.25)
    p2 = Performance(0.4, 0.1, 0.4, 0.1)
    assert evaluate(PRECISION, p1) == evaluate(PRECISION, p2)
    assert evaluate(RECALL, p1) > evaluate(RECALL, p2)
    for q1, q2 in ((p1, p2), (p1, Performance(0.4, 0.4, 0.1, 0.1))):
        summary = pair_summary(q1, q2)
        assert (summary.n_crossings, summary.unanimous_pairs, summary.degenerate_pairs) == (0, 1, 0)


def test_a_pair_tied_under_precision_stays_out_of_the_median_pool():
    # items 0 and 1 share precision 2/3; three of the other five pairs are contradicted
    pset = PerformanceSet.from_parts([[10, 2, 3, 4], [10, 4, 5, 8], [10, 3, 9, 5], [10, 7, 2, 6]])
    summary = pset.crossings
    assert (summary.n_crossings, summary.unanimous_pairs, summary.degenerate_pairs) == (3, 3, 0)
    assert summary.beta_star_squared == pytest.approx(1.6, rel=1e-14)
    assert analyze_set(pset).equidistance_gap == 0


def test_crossing_degenerate_pair_is_counted():
    p = Performance(0.3, 0.2, 0.3, 0.2)
    summary = pair_summary(p, p)
    assert (summary.n_crossings, summary.unanimous_pairs, summary.degenerate_pairs) == (0, 0, 1)


def test_crossing_symmetric_in_arguments():
    rng = np.random.default_rng(20)
    for _ in range(200):
        e = rng.standard_exponential((2, 4))
        p1, p2 = (Performance(*row) for row in e)
        a, b = pair_summary(p1, p2), pair_summary(p2, p1)
        assert a.thetas.tolist() == b.thetas.tolist()
        assert (a.degenerate_pairs, a.unanimous_pairs) == (b.degenerate_pairs, b.unanimous_pairs)


def test_crossing_equalizes_the_fscores():
    rng = np.random.default_rng(21)
    found = 0
    while found < 100:
        e = rng.standard_exponential((2, 4))
        p1, p2 = (Performance(*row) for row in e)
        thetas = pair_summary(p1, p2).thetas
        if not thetas.size:
            continue
        found += 1
        beta = math.sqrt(thetas[0])
        assert abs(evaluate(fbeta(beta), p1) - evaluate(fbeta(beta), p2)) <= 1e-12


def test_optimal_beta_single_crossing():
    pset = PerformanceSet(
        (Performance(0.25, 0.25, 0.25, 0.25), Performance(0.25, 0.15, 0.35, 0.25))
    )
    b2, thetas = optimal_beta(pset)
    assert b2 == pytest.approx(1.0)
    assert thetas == pytest.approx(np.array([1.0]))
    # the balanced score sits in the argmin plateau of a brute-force grid
    grid = [v for _, v in frechet_curve(pset, betas=np.geomspace(1e-4, 1e4, 500))]
    assert frechet_variance(pset, math.sqrt(b2)) <= min(grid) + 1e-15


def unanimous_pset():
    # ROC points with y/x and y both increasing: precision and recall agree
    ys = np.linspace(0.2, 0.8, 6)
    xs = ys / (2.0 + ys)
    parts = np.stack([0.7 * (1 - xs), 0.7 * xs, 0.3 * (1 - ys), 0.3 * ys], axis=1)
    return PerformanceSet.from_parts(parts)


def test_optimal_beta_unanimous_set():
    pset = unanimous_pset()
    assert kendall_tau(rank_by_score(pset, PRECISION), rank_by_score(pset, RECALL)) == 1.0
    b2, thetas = optimal_beta(pset)
    assert b2 is None
    assert thetas.shape == (0,)
    assert pset.crossings.beta_star_interval is None


def test_optimal_beta_matches_grid_search_oracle():
    grid = np.geomspace(1e-4, 1e4, 2000)
    for seed, n in [(0, 5), (1, 20), (2, 10), (3, 20), (4, 5)]:
        pset = random_pset(seed, n)
        b2, thetas = optimal_beta(pset)
        if b2 is None:
            continue
        v_star = frechet_variance(pset, math.sqrt(b2))
        v_grid = min(v for _, v in frechet_curve(pset, betas=grid))
        assert v_star <= v_grid + 1e-15
        gap = equidistance_gap(pset, b2)
        assert gap <= Fraction(1, pset.total_pairs)


def test_optimal_interval_brackets_the_median():
    pset = random_pset(5, 12)
    b2, thetas = optimal_beta(pset)
    lo, hi = pset.crossings.beta_star_interval
    assert lo <= b2 <= hi
    if len(thetas) % 2 == 1:
        assert lo == hi == b2


def test_frechet_variance_zero_on_agreeing_rankings():
    # pfp == pfn makes precision equal recall item-wise, so all rankings agree
    rng = np.random.default_rng(22)
    items = []
    for _ in range(8):
        a, c = rng.uniform(0.05, 0.3, 2)
        b = rng.uniform(0.05, (1 - a - c) / 2 * 0.9)
        items.append(Performance(a, b, b, 1 - a - 2 * b - c + c))
    pset = PerformanceSet(tuple(items))
    for beta in (0.0, 0.3, 1.0, 5.0):
        assert frechet_variance(pset, beta) == 0.0


def test_frechet_variance_at_beta_zero():
    pset = random_pset(6, 15)
    r_pr = rank_by_score(pset, PRECISION)
    r_re = rank_by_score(pset, RECALL)
    d, total = discordance(r_pr, r_re)
    assert frechet_variance(pset, 0.0) == pytest.approx((d / total) ** 2)


def test_frechet_curve_probes_every_plateau():
    pset = random_pset(7, 8)
    curve = frechet_curve(pset)
    betas = [b for b, _ in curve]
    assert betas == sorted(betas)
    assert betas[0] == 0.0
    thetas = [t for t in pair_crossings(pset).thetas if t > 0]
    for t in thetas:
        assert math.sqrt(t) in betas
    b2, _ = optimal_beta(pset)
    v_star = frechet_variance(pset, math.sqrt(b2))
    assert min(v for _, v in curve) == pytest.approx(v_star)
    # a scalar is one beta, and nested betas are read flat: one row per beta
    assert frechet_curve(pset, 1.0).tolist() == [[1.0, frechet_variance(pset, 1.0)]]
    assert frechet_curve(pset, [[0.5, 1.0]]).tolist() == frechet_curve(pset, [0.5, 1.0]).tolist()


def test_geodesic_identity_exact():
    rng = np.random.default_rng(23)
    for seed in range(10):
        pset = random_pset(seed + 100, 12)
        betas = list(np.geomspace(0.01, 100, 25)) + [0.0]
        assert geodesic_check(pset, betas) == [0] * len(betas)
        # at a transition beta the pairs of its group tie, and each is missing from both sides
        crossings = pset.crossings
        groups = np.diff(np.append(crossings.transitions, crossings.n_crossings))
        assert geodesic_check(pset, crossings.transition_betas) == groups.tolist()
        # at beta = 0 the whole distance sits on the recall side
        assert frechet_variance(pset, 0.0) == pytest.approx(
            (discordance(rank_by_score(pset, PRECISION), rank_by_score(pset, RECALL))[0]
             / pset.total_pairs) ** 2
        )


def test_correlation_form_of_the_identity():
    rng = np.random.default_rng(24)
    for seed in range(5):
        pset = random_pset(seed + 200, 10)
        r_pr = rank_by_score(pset, PRECISION)
        r_re = rank_by_score(pset, RECALL)
        t_pr_re = kendall_tau(r_pr, r_re)
        for beta in rng.uniform(0.05, 20.0, 10):
            r = rank_by_score(pset, fbeta(beta))
            s = kendall_tau(r_pr, r) + kendall_tau(r, r_re)
            assert abs(s - (1.0 + t_pr_re)) <= 1e-12


def _sign(x, tol=1e-12):
    if abs(x) <= tol:
        return 0
    return 1 if x > 0 else -1


def pair_classification_oracle(pset, candidate, beta_star_squared):
    """Classify each pair explicitly: agree / optimal choice / not optimal.

    With an odd crossing count the optimum sits exactly at a transition
    and ties that pair; a tied pair is discordant with nothing, so it
    falls into the optimal-choice bucket, matching the package's tie
    convention.
    """
    v_pr = score_values(PRECISION, pset.parts).tolist()
    v_re = score_values(RECALL, pset.parts).tolist()
    v_cand = score_values(candidate, pset.parts).tolist()
    v_star = score_values(fbeta(math.sqrt(beta_star_squared)), pset.parts).tolist()
    n = len(pset)
    agree = optimal = not_optimal = 0
    for i, j in combinations(range(n), 2):
        s_pr = _sign(v_pr[i] - v_pr[j])
        s_re = _sign(v_re[i] - v_re[j])
        if s_pr * s_re >= 0:
            agree += 1
            continue
        s_cand = _sign(v_cand[i] - v_cand[j])
        s_star = _sign(v_star[i] - v_star[j])
        if s_cand * s_star < 0:
            not_optimal += 1
        else:
            optimal += 1
    total = n * (n - 1) // 2
    return (
        Fraction(agree, total),
        Fraction(optimal, total),
        Fraction(not_optimal, total),
    )


def test_decomposition_formulas_match_pair_counting():
    for seed, candidate in [(30, PRECISION), (31, F1), (32, fbeta(0.37)), (33, RECALL)]:
        pset = random_pset(seed, 14)
        b2, _ = optimal_beta(pset)
        got = optimality_decomposition(pset, candidate, b2)
        want = pair_classification_oracle(pset, candidate, b2)
        assert (got.p_agree, got.p_optimal, got.p_not_optimal) == want
        assert got.p_agree + got.p_optimal + got.p_not_optimal == 1
        assert got.degree == want[1] / (want[1] + want[2])


def test_decomposition_at_the_optimum():
    pset = random_pset(34, 12)
    b2, _ = optimal_beta(pset)
    got = optimality_decomposition(pset, fbeta(math.sqrt(b2)), b2)
    assert got.p_not_optimal == 0
    assert got.degree == 1
    assert not got.vacuous


def test_decomposition_vacuous_on_unanimous_set():
    got = optimality_decomposition(unanimous_pset(), F1)
    assert got.vacuous
    assert got.degree == 1
    assert got.p_agree == 1


@pytest.mark.parametrize("b2", [-1.0, -0.0001, math.nan, -math.inf])
def test_negative_or_nan_beta_squared_is_rejected_by_name(b2):
    pset = random_pset(34, 12)
    with pytest.raises(ValueError, match="beta_squared must be >= 0"):
        equidistance_gap(pset, b2)
    # before the vacuous breakdown, which a set that never disagrees returns
    for s in (pset, unanimous_pset()):
        with pytest.raises(ValueError, match="beta_star_squared must be >= 0"):
            optimality_decomposition(s, F1, b2)


@pytest.mark.parametrize(
    "check, value, want",
    [
        (lambda pset, v: equidistance_gap(pset, v), np.float64(np.nan), "^beta_squared must be >= 0, got nan$"),
        (
            lambda pset, v: optimality_decomposition(pset, F1, v),
            np.float64(-2.0),
            "^beta_star_squared must be >= 0, got -2.0$",
        ),
    ],
    ids=["equidistance_gap", "optimality_decomposition"],
)
def test_a_numpy_scalar_is_reported_as_a_float(check, value, want):
    with pytest.raises(ValueError, match=want):
        check(random_pset(34, 12), value)


def test_f1_is_suboptimal_at_extreme_priors():
    pset = PerformanceSet.from_parts(sample_parts(fixed_priors_spec(0.9), 0, 60))
    b2, _ = optimal_beta(pset)
    got = optimality_decomposition(pset, F1, b2)
    assert got.p_not_optimal > 0
    assert got.degree < 0.95


def test_heuristic_beta():
    rng = np.random.default_rng(25)
    items = []
    for _ in range(6):
        a, c = rng.uniform(0.05, 0.3, 2)
        b = (1 - a - c) / 2
        items.append(Performance(a, b, b, c))
    assert heuristic_beta(PerformanceSet(tuple(items))) == pytest.approx(1.0)

    two = PerformanceSet(
        (Performance(0.2, 0.2, 0.1, 0.5), Performance(0.2, 0.1, 0.2, 0.5))
    )
    assert heuristic_beta(two) == pytest.approx(1.0)

    no_fn = PerformanceSet(
        (Performance(0.5, 0.2, 0.0, 0.3), Performance(0.4, 0.3, 0.0, 0.3))
    )
    with pytest.raises(ZeroDenominatorError):
        heuristic_beta(no_fn)


def test_analyze_set_without_false_negatives_has_no_heuristic():
    report = analyze_set(PerformanceSet.from_parts([[5, 1, 0, 4], [3, 4, 0, 3], [6, 2, 0, 2]]))
    assert report.heuristic is None
    assert list(report.optimality) == ["f1", "sivf"] and report.skipped_candidates == {}


def test_distance_from_precision_is_monotone_in_beta():
    pset = random_pset(35, 15)
    r_pr = rank_by_score(pset, PRECISION)
    last = -1
    for beta in np.geomspace(1e-3, 1e3, 60):
        d, _ = discordance(r_pr, rank_by_score(pset, fbeta(beta)))
        assert d >= last
        last = d


def test_equidistance_gap_for_both_transition_parities():
    seen = {0: 0, 1: 0}
    for seed in range(40):
        pset = random_pset(seed + 300, 5)
        b2, thetas = optimal_beta(pset)
        if b2 is None:
            continue
        seen[len(thetas) % 2] += 1
        assert equidistance_gap(pset, b2) <= Fraction(1, pset.total_pairs)
    assert seen[0] > 0 and seen[1] > 0


def test_analyze_set_report_consistency():
    pset = random_pset(36, 20)
    report = analyze_set(pset, extra_betas=(0.5,))
    assert report.pset is pset
    assert len(report.pset) == 20
    assert report.pset.total_pairs == 190
    assert report.tau_pr_re == pytest.approx(1 - 2 * report.discordant_pr_re / 190)
    assert set(report.optimality) >= {"f1", "sivf", "heuristic", "fbeta(0.5)"}
    crossings = report.pset.crossings
    lo, hi = crossings.beta_star_interval
    assert lo <= crossings.beta_star_squared <= hi
    assert crossings.n_crossings + crossings.unanimous_pairs + crossings.degenerate_pairs == 190
    for breakdown in report.optimality.values():
        assert breakdown.p_agree + breakdown.p_optimal + breakdown.p_not_optimal == 1
    assert report.equidistance_gap <= Fraction(1, 190)


def test_analyze_set_keeps_every_extra_beta_or_raises():
    pset = random_pset(36, 20)
    report = analyze_set(pset, extra_betas=(2.0, 2.0))
    assert [name for name in report.optimality if name.startswith("fbeta")] == ["fbeta(2)"]
    with pytest.raises(ValueError, match="share the label 'fbeta\\(1\\)'"):
        analyze_set(pset, extra_betas=(1.0000001, 1.0000002))


def test_analyze_set_ranks_nothing_and_reads_each_candidate_once(monkeypatch):
    from prtradeoff import ranking, tradeoff

    def no_ranking(*args):
        raise AssertionError("ranked")

    for module, name in ((tradeoff, "rank_by_score"), (tradeoff, "discordance"), (ranking, "ranks_from_values")):
        monkeypatch.setattr(module, name, no_ranking)
    read = []

    def counting_values(pset, score):
        read.append(score)
        return ranking._defined_values(pset, score)

    monkeypatch.setattr(tradeoff, "_defined_values", counting_values)
    pset = random_pset(36, 20)
    report = analyze_set(pset, extra_betas=(0.5,))
    b2_star = report.pset.crossings.beta_star_squared
    f1 = optimality_decomposition(pset, F1, b2_star)
    monkeypatch.undo()

    others = [s for s in read if s not in (PRECISION, RECALL)]
    assert len(report.optimality) == 4
    assert others[0] == fbeta(math.sqrt(b2_star))  # F_beta*, read once for every candidate
    assert others[1:5] == [F1, SIVF, fbeta(heuristic_beta(pset)), fbeta(0.5)]
    assert len(others) == 5 + 2  # then F_beta* and F1 for optimality_decomposition
    assert report.optimality["f1"] == f1
    ranked = {name: discordance(rank_by_score(pset, score), rank_by_score(pset, fbeta(math.sqrt(b2_star))))[0]
              for name, score in (("f1", F1), ("fbeta(0.5)", fbeta(0.5)))}
    for name, d in ranked.items():
        assert report.optimality[name].p_not_optimal == Fraction(d, pset.total_pairs)


def test_a_set_shares_one_read_only_crossing_summary():
    pset = random_pset(41, 15)
    summary = pset.crossings
    assert pset.crossings is summary
    assert summary.thetas.dtype == np.float64
    assert (np.diff(summary.thetas) >= 0).all()
    with pytest.raises(ValueError):
        pair_crossings(pset).thetas[0] = 1.0
    with pytest.raises(ValueError):
        summary.pairs[0, 0] = 0
    # optimal_beta and the report read the crossings in place
    b2, thetas = optimal_beta(pset)
    assert np.array_equal(thetas, summary.thetas)
    assert np.shares_memory(thetas, pset.crossings.thetas)
    assert not thetas.flags.writeable
    assert type(b2) is float
    report = analyze_set(pset)
    assert report.pset is pset
    assert report.pset.crossings is summary


def test_a_report_holds_only_what_the_analysis_computes():
    # the set's size, pair count and crossing facts are read from report.pset
    assert [f.name for f in dataclasses.fields(TradeoffReport)] == [
        "pset", "tau_pr_re", "discordant_pr_re", "equidistance_gap",
        "heuristic", "frechet_curve", "correlations", "optimality", "skipped_candidates",
    ]
