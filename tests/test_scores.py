import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prtradeoff import (
    F1,
    FPR,
    IOU,
    PRECISION,
    RECALL,
    SIVF,
    TNR,
    ImportanceWeights,
    Performance,
    PerformanceSet,
    ScoreFunction,
    above_no_skill_spec,
    evaluate,
    fbeta,
    fbeta_importance,
    fixed_priors_spec,
    fixed_tn_spec,
    near_oracle_spec,
    pencil_vertex_offset,
    ranking_score,
    sample,
    sample_parts,
    score_values,
    sivf_importance,
    uniform_spec,
)


def random_performance(rng, min_ptp=0.0):
    while True:
        e = rng.standard_exponential(4)
        e = e / e.sum()
        if e[3] > min_ptp:
            return Performance(*e)


def test_precision_at_symmetric_quarter_point():
    p = Performance(0.25, 0.25, 0.25, 0.25)
    assert evaluate(PRECISION, p) == 0.5
    assert evaluate(RECALL, p) == 0.5


def test_f1_exact_rational_value():
    # 2 * 0.4 / (0.2 + 0.1 + 2 * 0.4) = 8/11, checked in exact arithmetic
    p = Performance(0.3, 0.2, 0.1, 0.4)
    expected = Fraction(2, 1) * Fraction(4, 10) / (Fraction(3, 10) + Fraction(8, 10))
    assert expected == Fraction(8, 11)
    assert abs(evaluate(F1, p) - float(expected)) < 1e-15


def test_fbeta_collapses_when_precision_equals_recall():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b, c = rng.uniform(0.05, 0.4, 3)
        p = Performance(a, b, b, c)  # pfp == pfn forces precision == recall
        x = evaluate(PRECISION, p)
        assert abs(evaluate(RECALL, p) - x) < 1e-12
        for beta in (0.0, 0.3, 1.0, 4.0, math.inf):
            assert abs(evaluate(fbeta(beta), p) - x) < 1e-12


def test_zero_denominator_outcomes():
    p = Performance(0.5, 0.5, 0.0, 0.0)
    assert evaluate(PRECISION, p) == 0.0
    assert evaluate(RECALL, p) is None
    assert evaluate(SIVF, p) is None  # positive prior is zero

    all_tn = Performance(1.0, 0.0, 0.0, 0.0)
    assert evaluate(fbeta(1.0), all_tn) is None
    assert evaluate(IOU, all_tn) is None

    no_neg = Performance(0.0, 0.0, 0.5, 0.5)
    assert evaluate(FPR, no_neg) is None
    assert evaluate(TNR, no_neg) is None
    assert evaluate(SIVF, no_neg) is None


def test_counts_are_normalized():
    p = Performance(90, 5, 3, 2)
    assert (p.ptn, p.pfp, p.pfn, p.ptp) == (0.9, 0.05, 0.03, 0.02)
    assert p.prior_pos == 0.05
    with pytest.raises(ValueError):
        Performance(1, -2, 3, 4)
    with pytest.raises(ValueError):
        Performance(0, 0, 0, 0)
    with pytest.raises(ValueError):
        Performance(1, 2, 3, math.nan)


def test_fbeta_count_form_agrees_with_harmonic_mean_form():
    rng = np.random.default_rng(2)
    for _ in range(300):
        p = random_performance(rng, min_ptp=1e-6)
        pr = evaluate(PRECISION, p)
        re = evaluate(RECALL, p)
        for beta in (0.0, 0.2, 0.5, 1.0, 2.0, 10.0, rng.uniform(0, 5)):
            b2 = beta * beta
            harmonic = 1.0 / ((1.0 / (1.0 + b2)) / pr + (b2 / (1.0 + b2)) / re)
            assert abs(evaluate(fbeta(beta), p) - harmonic) <= 1e-12


def test_fbeta_monotone_in_beta_between_endpoints():
    rng = np.random.default_rng(3)
    betas = np.geomspace(1e-3, 1e3, 40)
    for _ in range(100):
        p = random_performance(rng, min_ptp=1e-6)
        pr = evaluate(PRECISION, p)
        re = evaluate(RECALL, p)
        vals = [evaluate(fbeta(b), p) for b in betas]
        lo, hi = min(pr, re), max(pr, re)
        assert all(lo - 1e-12 <= v <= hi + 1e-12 for v in vals)
        diffs = np.diff(vals)
        if pr <= re:
            assert (diffs >= -1e-15).all()
        else:
            assert (diffs <= 1e-15).all()


def test_beta_endpoints_match_precision_and_recall():
    rng = np.random.default_rng(4)
    corner_cases = [
        Performance(0.5, 0.0, 0.5, 0.0),  # precision undefined, recall 0
        Performance(0.5, 0.5, 0.0, 0.0),  # recall undefined, precision 0
    ]
    for p in [random_performance(rng) for _ in range(200)] + corner_cases:
        assert evaluate(fbeta(0.0), p) == evaluate(PRECISION, p)
        assert evaluate(fbeta(math.inf), p) == evaluate(RECALL, p)


def test_score_values_matches_scalar_evaluate():
    rng = np.random.default_rng(5)
    perfs = [random_performance(rng) for _ in range(50)]
    perfs += [
        Performance(1.0, 0.0, 0.0, 0.0),
        Performance(0.0, 1.0, 0.0, 0.0),
        Performance(0.0, 0.0, 1.0, 0.0),
        Performance(0.0, 0.0, 0.0, 1.0),
        Performance(0.5, 0.5, 0.0, 0.0),
        Performance(0.5, 0.0, 0.5, 0.0),
    ]
    parts = np.array([p.as_array() for p in perfs])
    scores = [PRECISION, RECALL, SIVF, FPR, TNR, IOU, fbeta(0.0), F1, fbeta(3.7), fbeta(math.inf)]
    for score in scores:
        vec = score_values(score, parts)
        for i, p in enumerate(perfs):
            scalar = evaluate(score, p)
            if scalar is None:
                assert math.isnan(vec[i])
            else:
                assert vec[i] == scalar


def test_evaluate_is_none_where_beta_squared_overflows():
    # beta^2 = inf makes the F-score inf / inf: undefined, not NaN
    p = Performance(0.25, 0.25, 0.25, 0.25)
    assert evaluate(fbeta(1e200), p) is None
    assert math.isnan(score_values(fbeta(1e200), p.as_array()[None, :])[0])


def test_score_function_validation():
    with pytest.raises(ValueError):
        ScoreFunction("fbeta")
    with pytest.raises(ValueError):
        fbeta(-1.0)
    with pytest.raises(ValueError):
        ScoreFunction("precision", beta=1.0)
    with pytest.raises(ValueError):
        ScoreFunction("accuracy")
    assert F1.label() == "fbeta(1)"
    assert SIVF.label() == "sivf"


def test_fbeta_importance_values():
    assert fbeta_importance(1.0) == ImportanceWeights(0.0, 1.0, 1.0, 2.0)
    assert fbeta_importance(0.0) == ImportanceWeights(0.0, 1.0, 0.0, 1.0)
    assert fbeta_importance(2.0) == ImportanceWeights(0.0, 1.0, 4.0, 5.0)
    with pytest.raises(ValueError):
        fbeta_importance(math.inf)
    with pytest.raises(ValueError):
        fbeta_importance(-0.5)
    with pytest.raises(ValueError):
        ImportanceWeights(0.0, 0.0, 0.0, 0.0)


def test_importance_weights_reproduce_fbeta_values():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = random_performance(rng)
        beta = rng.uniform(0.0, 4.0)
        got = ranking_score(fbeta_importance(beta), p)
        want = evaluate(fbeta(beta), p)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-12


def test_importance_weights_are_scale_free():
    rng = np.random.default_rng(7)
    w = ImportanceWeights(0.0, 1.0, 2.5, 3.5)
    w3 = ImportanceWeights(0.0, 3.0, 7.5, 10.5)
    for _ in range(100):
        p = random_performance(rng)
        assert abs(ranking_score(w, p) - ranking_score(w3, p)) <= 1e-12


def test_sivf_importance_values_and_reproduction():
    w = sivf_importance(0.5)
    assert (w.w_tn, w.w_fp, w.w_fn, w.w_tp) == (0.0, 0.5, 0.5, 1.0)
    w = sivf_importance(0.2)
    assert (w.w_tn, w.w_fp, w.w_fn, w.w_tp) == (0.0, 0.2, 0.8, pytest.approx(1.6))
    w = sivf_importance(0.8)
    assert (w.w_tn, w.w_fp, w.w_fn, w.w_tp) == (
        0.0,
        0.8,
        pytest.approx(0.2),
        pytest.approx(0.4),
    )
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            sivf_importance(bad)
    # with the weights built from the performance's own priors, the
    # ranking score reproduces the SIVF value itself
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = random_performance(rng)
        if not 0 < p.prior_pos < 1:
            continue
        got = ranking_score(sivf_importance(p.prior_pos), p)
        assert abs(got - evaluate(SIVF, p)) <= 1e-12


def test_iou_f1_monotone_relation():
    rng = np.random.default_rng(9)
    vals = []
    for _ in range(200):
        p = random_performance(rng, min_ptp=1e-9)
        iou = evaluate(IOU, p)
        f1 = evaluate(F1, p)
        assert abs(f1 - 2.0 * iou / (1.0 + iou)) <= 1e-12
        vals.append((iou, f1))
    for (i1, f1a), (i2, f2a) in zip(vals, vals[1:]):
        if i1 != i2:
            assert (i1 < i2) == (f1a < f2a)


def test_pencil_vertex_offset():
    assert pencil_vertex_offset(1.0, 0.5) == 1.0
    assert pencil_vertex_offset(2.0, 0.2) == 1.0
    assert pencil_vertex_offset(1.0, 1e-12) < 1e-11  # precision limit
    assert pencil_vertex_offset(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        pencil_vertex_offset(1.0, 1.0)
    with pytest.raises(ValueError):
        pencil_vertex_offset(-1.0, 0.5)


def test_tnr_fpr_complement():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = random_performance(rng)
        if p.prior_neg > 0:
            assert abs(evaluate(TNR, p) + evaluate(FPR, p) - 1.0) <= 1e-12


def normalized_oracle(row):
    """Each cell over ((a + b) + c) + d: the order of Python's sum over the four cells."""
    a, b, c, d = (float(v) for v in row)
    total = ((a + b) + c) + d
    return tuple(v / total for v in (a, b, c, d))


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


_cells = {
    "counts": st.integers(0, 10**9),
    "unit": st.floats(0.0, 1.0),
    "subnormal": st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True),
    "mixed": st.one_of(
        st.integers(0, 10**9), st.floats(0.0, 1.0), st.floats(0.0, 1e-300), st.floats(0.0, 1e300)
    ),
}


@pytest.mark.parametrize("kind", sorted(_cells))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_normalization_is_bit_exact_against_python_sum_order(kind, data):
    row = st.tuples(*[_cells[kind]] * 4).filter(lambda r: sum(r) > 0)
    rows = data.draw(st.lists(row, min_size=1, max_size=20))
    expected = [normalized_oracle(r) for r in rows]
    assert bits(PerformanceSet.from_parts(rows).parts) == bits(expected)
    for r, e in zip(rows, expected):
        p = Performance(*r)
        assert bits((p.ptn, p.pfp, p.pfn, p.ptp)) == bits(e)


nan, inf = math.nan, math.inf


@pytest.mark.parametrize(
    "row, message",
    [
        ((nan, 1, 1, 1), "non-finite cell value nan"),
        ((1, -inf, 1, 1), "non-finite cell value -inf"),
        ((1, 1, 1, inf), "non-finite cell value inf"),
        ((1, -1, nan, 1), "negative cell value -1.0"),
        ((nan, -1, 1, 1), "non-finite cell value nan"),
        ((0, 0, 0, 0), "all four cells are zero"),
        ((1e308, 1e308, 0, 0), "normalization failed to reach the simplex"),
    ],
)
def test_bad_cells_raise_the_first_problem_of_the_first_bad_row(row, message):
    with pytest.raises(ValueError) as err:
        Performance(*row)
    assert str(err.value) == message
    # a later bad row does not mask it
    with pytest.raises(ValueError) as err:
        PerformanceSet.from_parts([(1, 2, 3, 4), row, (-2, 1, 1, 1)])
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec",
    [
        uniform_spec(),
        fixed_tn_spec(0.3),
        fixed_priors_spec(0.2),
        above_no_skill_spec(0.4),
        near_oracle_spec(0.3),
    ],
    ids=lambda spec: spec.family,
)
def test_a_sampled_set_holds_exactly_the_sampled_performances(spec):
    stacked = [(p.ptn, p.pfp, p.pfn, p.ptp) for p in sample(spec, 5, 500)]
    assert bits(PerformanceSet.from_parts(sample_parts(spec, 5, 500)).parts) == bits(stacked)
    assert bits(PerformanceSet(tuple(sample(spec, 5, 500))).parts) == bits(stacked)
