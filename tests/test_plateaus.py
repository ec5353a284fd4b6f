"""The plateau structure read from a set's sorted crossing array, against the code it replaced.

``CrossingSummary.transitions`` groups the crossings with array
operations and decides only the close ones one at a time;
``beta_star_interval`` and ``beta_star_squared`` read the two middle
crossings in place; ``beta_grid`` builds every probe grid with one
``np.unique``; ``RankingPath.plateau_of`` is one ``searchsorted``.  The
oracles are the sequential grouping loop, ``np.median``,
``sorted(set(...))`` and ``bisect``, kept in this file only.  The rows of
``correlations_vs_beta`` are checked against rankings computed directly
from the scores at every grid beta, and against the Frechet curve.
"""

import dataclasses
import math
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from prtradeoff import (
    PRECISION,
    RECALL,
    TIE_TOL,
    CrossingSummary,
    analyze_set,
    build_path,
    correlations_vs_beta,
    discordance,
    fbeta,
    frechet_curve,
    ingest,
    rank_by_score,
)
from prtradeoff.ranking import beta_grid

from conftest import random_pset, roc_pset

DATA = Path(__file__).parent / "data"

# gaps between neighbouring crossings: equal, well inside, at, just past
# and far past the tie tolerance; chains of 0.3e-12 gaps group by their first
GAPS = (0.0, 0.3e-12, 1e-12, 1.2e-12, 1e-9)
BASES = (1e-12, 1e-3, 0.5, 1.0, 7.0)


def sequential_groups(thetas):
    """The grouping loop ``build_path`` ran over every crossing.

    Returns the first value of each group, and each crossing's group
    number (from 1).
    """
    unique, group = [], []
    for t in np.asarray(thetas).tolist():
        if not unique or t - unique[-1] > TIE_TOL:
            unique.append(t)
        group.append(len(unique))
    return unique, group


def oracle_transitions(thetas):
    _, group = sequential_groups(thetas)
    return [g for g in range(len(group)) if g == 0 or group[g] != group[g - 1]]


def oracle_swaps(thetas):
    unique, group = sequential_groups(thetas)
    return tuple(np.cumsum(np.bincount(np.array(group, dtype=int), minlength=len(unique) + 1)).tolist())


def oracle_coalesced(thetas):
    """The neighbour-difference rule ``CrossingSummary.coalesced`` used."""
    return bool((np.diff(thetas) <= TIE_TOL).any())


def oracle_interval(thetas):
    ts = sorted(np.asarray(thetas).tolist())
    m = len(ts)
    if m == 0:
        return None
    if m % 2 == 1:
        return (ts[m // 2], ts[m // 2])
    return (ts[m // 2 - 1], ts[m // 2])


def clustered(base, gaps):
    """Sorted crossing values: base plus the running sum of the gaps (none without a base)."""
    ts = np.array([] if base is None else base + np.cumsum([0.0, *gaps]))
    ts.flags.writeable = False
    return ts


def summary_of(thetas):
    return CrossingSummary(thetas, 0, 0, np.zeros((len(thetas), 2), dtype=np.int32))


def hexes(values):
    return [float(v).hex() for v in values]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.none(), st.sampled_from(BASES)),
    st.lists(st.sampled_from(GAPS), max_size=40),
)
def test_transitions_match_the_sequential_grouping(base, gaps):
    thetas = clustered(base, gaps)
    summary = summary_of(thetas)
    assert summary.transitions.tolist() == oracle_transitions(thetas)
    assert summary.coalesced == oracle_coalesced(thetas)
    assert not summary.transitions.flags.writeable
    assert summary.transitions is summary.transitions  # computed once
    assert hexes(summary.transition_betas) == hexes(math.sqrt(t) for t in thetas[summary.transitions])
    assert not summary.transition_betas.flags.writeable
    assert summary.transition_betas is summary.transition_betas


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1e6, allow_subnormal=False), max_size=30))
def test_the_optimum_is_the_two_middle_crossings_read_in_place(values):
    thetas = np.sort(np.array(values, dtype=float))
    summary = summary_of(thetas)
    assert summary.beta_star_interval == oracle_interval(thetas)
    if values:
        assert float(np.median(thetas)).hex() == summary.beta_star_squared.hex()
        assert type(summary.beta_star_squared) is float
    else:
        assert summary.beta_star_squared is None


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6), st.integers(3, 8), st.sampled_from(BASES), st.data())
def test_the_path_groups_its_swaps_like_the_sequential_loop(seed, n, base, data):
    # a real tie-free set whose crossing values are replaced by a clustered
    # array, so that build_path groups the set's own swaps by them
    pset = random_pset(seed, n)
    try:
        build_path(pset)
    except ValueError:
        assume(False)
    m = pset.crossings.n_crossings
    assume(m > 0)
    gaps = data.draw(st.lists(st.sampled_from(GAPS), min_size=m - 1, max_size=m - 1))
    thetas = clustered(base, gaps)
    pset.__dict__["crossings"] = dataclasses.replace(pset.crossings, thetas=thetas)
    path = build_path(pset)
    unique, _ = sequential_groups(thetas)
    assert path.transition_betas.tolist() == [math.sqrt(t) for t in unique]
    assert path.transition_betas is pset.crossings.transition_betas
    assert np.array_equal(path.swaps, oracle_swaps(thetas))
    assert pset.crossings.coalesced == oracle_coalesced(thetas)
    assert path.n_plateaus == len(unique) + 1


def old_frechet_grid(pset, grid_points, grid_span):
    bs = set(np.geomspace(grid_span[0], grid_span[1], grid_points))
    bs.add(0.0)
    roots = np.sqrt(pset.crossings.thetas).tolist()
    bs.update(roots)
    bs.update(math.sqrt(a * b) for a, b in zip(roots, roots[1:]))
    if roots:
        bs.add(2.0 * roots[-1])
    return sorted(bs)


def direct_counts(pset, betas):
    """(d(Pr, F_beta), d(F_beta, Re)) per beta, from rankings computed directly from the scores."""
    r_pr, r_re = rank_by_score(pset, PRECISION), rank_by_score(pset, RECALL)
    out = []
    for b in betas:
        r = rank_by_score(pset, fbeta(b))
        out.append((discordance(r_pr, r)[0], discordance(r, r_re)[0]))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def assert_grids_match_the_old_code(pset, grid_points, grid_span):
    old = old_frechet_grid(pset, grid_points, grid_span)
    curve = frechet_curve(pset, None, grid_points, grid_span)
    assert hexes(b for b, _ in curve) == hexes(old)
    assert hexes(v for _, v in curve) == hexes(v for _, v in frechet_curve(pset, old))
    path = build_path(pset)
    grid = beta_grid(grid_points, grid_span, path.transition_betas)
    steps = path.transition_betas
    assert hexes(grid) == hexes(sorted(set(np.geomspace(*grid_span, grid_points)) | set(steps) | {0.0}))
    assert path.plateau_of(grid).tolist() == [bisect_left(steps, b) for b in grid.tolist()]


def assert_correlations_match_direct_rankings(pset, grid_points, grid_span):
    """Each row is (T - 2 d) / T of the direct counts d, and implies the curve's variance at its beta."""
    total = pset.total_pairs
    rows = correlations_vs_beta(pset, grid_points, grid_span)
    grid = beta_grid(grid_points, grid_span, pset.crossings.transition_betas)
    assert hexes(rows[:, 0]) == hexes(grid)
    d = direct_counts(pset, grid)
    assert hexes(rows[:, 1:].ravel()) == hexes(((total - 2 * d) / total).ravel())
    assert np.array_equal(analyze_set(pset, (), grid_points, grid_span).correlations, rows)
    curve = frechet_curve(pset, None, grid_points, grid_span)
    k = np.searchsorted(curve[:, 0], grid)
    assert hexes(curve[k, 0]) == hexes(grid)  # every grid beta is one of the curve's
    d1, d2 = d[:, 0] / total, d[:, 1] / total
    assert hexes(curve[k, 1]) == hexes(d1 * d1 + d2 * d2)


# ROC points on a coarse grid: many pairs share a pencil line, so their
# crossings coincide and the sets coalesce
coarse_points = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=2, max_size=10, unique=True
).map(lambda pts: [(x / 10, y / 10) for x, y in pts])
spans = st.sampled_from([(1e-3, 1e3), (0.1, 10.0), (0.5, 0.5), (2.0, 3.0)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coarse_points, st.integers(1, 50), spans)
def test_grids_match_the_old_code_and_correlations_the_direct_rankings(points, grid_points, grid_span):
    pset = roc_pset(points)
    try:
        build_path(pset)
    except ValueError:
        assume(False)
    assert_grids_match_the_old_code(pset, grid_points, grid_span)
    assert_correlations_match_direct_rankings(pset, grid_points, grid_span)


@pytest.mark.parametrize(
    "pset",
    [
        roc_pset([(0.1, 0.6), (0.4, 0.7), (0.3, 0.5), (0.9, 0.65)]),
        roc_pset([(0.1, 0.55), (0.3, 0.65), (0.6, 0.8), (0.02, 0.95)]),
    ],
    ids=["two-pairs-at-one-theta", "three-items-as-a-block"],
)
def test_grids_match_the_old_code_and_correlations_the_direct_rankings_on_coalesced_sets(pset):
    assert pset.crossings.coalesced
    assert pset.crossings.coalesced == oracle_coalesced(pset.crossings.thetas)
    assert_grids_match_the_old_code(pset, 41, (1e-3, 1e3))
    assert_correlations_match_direct_rankings(pset, 41, (1e-3, 1e3))


@pytest.mark.parametrize("name", ["roc120.csv", "nearoracle57.csv", "coalesced14.csv"])
def test_grids_plateaus_and_correlations_match_their_oracles_on_the_fixtures(name):
    pset = ingest(DATA / name)
    thetas = pset.crossings.thetas
    assert pset.crossings.transitions.tolist() == oracle_transitions(thetas)
    assert np.array_equal(build_path(pset).swaps, oracle_swaps(thetas))
    for grid_points, grid_span in ((41, (1e-3, 1e3)), (17, (0.01, 50.0))):
        assert_grids_match_the_old_code(pset, grid_points, grid_span)
        assert_correlations_match_direct_rankings(pset, grid_points, grid_span)


def test_plateau_of_rejects_nan_and_negative_betas():
    path = build_path(ingest(DATA / "nearoracle57.csv"))
    for beta, shown in ((math.nan, "nan"), (-1.0, "-1.0"), (-math.inf, "-inf")):
        with pytest.raises(ValueError, match=f"^beta must be >= 0, got {shown}$"):
            path.plateau_of(beta)
    with pytest.raises(ValueError, match="^beta must be >= 0, got nan$"):
        path.plateau_of(np.array([1.0, math.nan]))
    assert path.plateau_of(0.0) == 0
    assert path.plateau_of(math.inf) == path.n_plateaus - 1


def test_correlations_reject_a_nan_grid():
    pset = ingest(DATA / "nearoracle57.csv")
    with pytest.raises(ValueError, match="grid span must satisfy 0 < min <= max < inf"):
        correlations_vs_beta(pset, 5, (math.nan, 1.0))


@pytest.mark.parametrize("span", [(0.0, 1.0), (-1.0, 1.0), (1e-3, math.inf), (math.nan, 1.0), (1.0, math.nan), (2.0, 1.0)])
def test_both_grids_reject_a_span_outside_the_positive_reals(span):
    pset = ingest(DATA / "nearoracle57.csv")
    for probe in (lambda: frechet_curve(pset, None, 5, span), lambda: correlations_vs_beta(pset, 5, span)):
        with pytest.raises(ValueError, match="grid span must satisfy 0 < min <= max < inf"):
            probe()
