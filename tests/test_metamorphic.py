"""Metamorphic relations of the finite-set engine and of the distribution estimates.

Each test transforms its input in a way whose effect on the result is
known without computing the result: swapping the false-positive and
false-negative cells turns precision into recall and beta into 1/beta;
reordering the items or scaling a row of counts changes no crossing.
The sets are rows of integer counts, so ties between items are common.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prtradeoff import (
    F1,
    PRECISION,
    RECALL,
    PerformanceSet,
    fixed_tn_spec,
    frechet_curve,
    mc_kendall_tau,
    rank_by_score,
    uniform_spec,
)

EPS = np.finfo(float).eps

cells = st.integers(1, 40)
count_sets = st.lists(st.tuples(cells, cells, cells, cells), min_size=2, max_size=16)


def mirrored(counts):
    """The rows with their false-positive and false-negative counts swapped."""
    return [(tn, fn, fp, tp) for tn, fp, fn, tp in counts]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(count_sets)
def test_swapping_false_positives_and_false_negatives_mirrors_the_crossings(counts):
    pset, twin = PerformanceSet.from_parts(counts), PerformanceSet.from_parts(mirrored(counts))
    a, b = pset.crossings, twin.crossings
    assert a.n_crossings == b.n_crossings
    # the mirror crosses at 1/beta^2 where the set crosses at beta^2
    np.testing.assert_allclose(1.0 / b.thetas[::-1], a.thetas, rtol=4 * EPS, atol=0)
    r_pr, r_re = (rank_by_score(pset, score) for score in (PRECISION, RECALL))
    assert (rank_by_score(twin, PRECISION), rank_by_score(twin, RECALL)) == (r_re, r_pr)
    if a.n_crossings:
        lo, hi = a.beta_star_interval
        lo_twin, hi_twin = b.beta_star_interval
        assert math.isclose(lo_twin, 1.0 / hi, rel_tol=4 * EPS)
        assert math.isclose(hi_twin, 1.0 / lo, rel_tol=4 * EPS)
    curve = frechet_curve(pset)
    betas = np.array([beta for beta, _ in curve])
    with np.errstate(divide="ignore"):
        inverse = 1.0 / betas  # beta = 0, precision, becomes infinity, recall
    assert [v for _, v in frechet_curve(twin, inverse)] == [v for _, v in curve]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(count_sets, st.data())
def test_item_order_and_row_scale_change_no_crossing(counts, data):
    n = len(counts)
    order = data.draw(st.permutations(range(n)))
    ks = data.draw(st.lists(st.integers(2, 8), min_size=n, max_size=n))
    thetas = PerformanceSet.from_parts(counts).crossings.thetas
    shuffled = PerformanceSet.from_parts([counts[i] for i in order]).crossings.thetas
    scaled = PerformanceSet.from_parts([[k * c for c in row] for k, row in zip(ks, counts)]).crossings.thetas
    assert shuffled.tobytes() == thetas.tobytes()
    assert scaled.tobytes() == thetas.tobytes()


# rows of 64 counts normalize to exact binary fractions, so a pair that
# precision or recall ties in exact arithmetic ties in floating point too
small = st.integers(1, 20)
dyadic_sets = st.lists(
    st.tuples(small, small, small).map(lambda c: (64 - sum(c), *c)), min_size=2, max_size=14
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dyadic_sets)
def test_the_optimal_plateau_has_the_least_frechet_variance(counts):
    pset = PerformanceSet.from_parts(counts)
    summary = pset.crossings
    if not summary.n_crossings:
        return
    distinct = [summary.thetas[0]]
    for t in summary.thetas[1:].tolist():
        if t > distinct[-1] * (1 + 1e-9):
            distinct.append(t)
    # probe k (in beta^2) lies strictly inside the k-th interval between distinct crossings
    probes = [distinct[0] / 2, *(math.sqrt(x * y) for x, y in zip(distinct, distinct[1:])), 2 * distinct[-1]]
    variances = [v for _, v in frechet_curve(pset, np.sqrt(probes))]
    # beta*^2's interval, or both intervals beside it when it is a crossing itself
    b2 = summary.beta_star_squared
    first = bisect_left(distinct, b2 * (1 - 1e-9))
    last = bisect_right(distinct, b2 * (1 + 1e-9))
    assert min(variances[first : last + 1]) <= min(variances)


def test_fp_fn_symmetric_families_put_f1_midway_between_precision_and_recall():
    # pi1 and pi2 draw the false-positive and false-negative cells alike,
    # so tau(Pr, F1) = tau(F1, Re); the estimates may differ by four of
    # their difference's standard errors (each half-width is 1.96 of its own)
    for spec in (uniform_spec(), fixed_tn_spec(0.3)):
        a = mc_kendall_tau(spec, PRECISION, F1, 10**6, 1901)
        b = mc_kendall_tau(spec, F1, RECALL, 10**6, 1902)
        assert abs(a.value - b.value) <= 4 * math.hypot(a.half_width, b.half_width) / 1.96, spec.label()
