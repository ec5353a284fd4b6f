"""The plateau structure read from a set's sorted crossing array, against the code it replaced.

``CrossingSummary.transitions`` groups the positive crossings with array
operations and decides only the close ones one at a time;
``beta_star_interval`` and ``beta_star_squared`` read the two middle
crossings in place; ``beta_grid`` builds every probe grid with one
``np.unique``; ``RankingPath.plateau_of`` is one ``searchsorted``.  The
oracles are the sequential grouping loop, ``np.median``,
``sorted(set(...))`` and ``bisect``, kept in this file only.
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
    TIE_TOL,
    CrossingSummary,
    Performance,
    PerformanceSet,
    build_path,
    correlations_vs_beta,
    frechet_curve,
    ingest,
    sample,
    uniform_spec,
)
from prtradeoff.ranking import beta_grid

DATA = Path(__file__).parent / "data"

# gaps between neighbouring crossings: equal, well inside, at, just past
# and far past the tie tolerance; chains of 0.3e-12 gaps group by their first
GAPS = (0.0, 0.3e-12, 1e-12, 1.2e-12, 1e-9)
BASES = (1e-12, 1e-3, 0.5, 1.0, 7.0)


def sequential_groups(thetas):
    """The grouping loop ``build_path`` ran over every crossing.

    Returns the index of the first positive crossing, the first value of
    each group, and each positive crossing's group number (from 1).
    """
    first = int(np.searchsorted(thetas, 0.0, "right"))
    unique, group = [], []
    for t in np.asarray(thetas)[first:].tolist():
        if not unique or t - unique[-1] > TIE_TOL:
            unique.append(t)
        group.append(len(unique))
    return first, unique, group


def oracle_transitions(thetas):
    first, _, group = sequential_groups(thetas)
    return [first + g for g in range(len(group)) if g == 0 or group[g] != group[g - 1]]


def oracle_swaps(thetas):
    _, unique, group = sequential_groups(thetas)
    return tuple(np.cumsum(np.bincount(np.array(group, dtype=int), minlength=len(unique) + 1)).tolist())


def oracle_coalesced(thetas):
    """The neighbour-difference rule ``CrossingSummary.coalesced`` used."""
    ts = np.asarray(thetas)
    ts = ts[ts > 0]
    return bool((np.diff(ts) <= TIE_TOL).any())


def oracle_interval(thetas):
    ts = sorted(np.asarray(thetas).tolist())
    m = len(ts)
    if m == 0:
        return None
    if m % 2 == 1:
        return (ts[m // 2], ts[m // 2])
    return (ts[m // 2 - 1], ts[m // 2])


def clustered(base, gaps, zeros=0):
    """Sorted crossing values: ``zeros`` zeros, then base plus the running sum of the gaps (none without a base)."""
    positive = [] if base is None else base + np.cumsum([0.0, *gaps])
    ts = np.concatenate([np.zeros(zeros), positive])
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
    st.integers(0, 3),
)
def test_transitions_match_the_sequential_grouping(base, gaps, zeros):
    thetas = clustered(base, gaps, zeros)
    summary = summary_of(thetas)
    assert summary.transitions.tolist() == oracle_transitions(thetas)
    assert summary.coalesced == oracle_coalesced(thetas)
    assert not summary.transitions.flags.writeable
    assert summary.transitions is summary.transitions  # computed once


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
    pset = PerformanceSet(tuple(sample(uniform_spec(), seed, n)))
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
    _, unique, _ = sequential_groups(thetas)
    assert path.transition_betas == tuple(math.sqrt(t) for t in unique)
    assert path.swaps == oracle_swaps(thetas)
    assert pset.crossings.coalesced == oracle_coalesced(thetas)
    assert path.n_plateaus == len(unique) + 1


def old_frechet_grid(pset, grid_points, grid_span):
    bs = set(np.geomspace(grid_span[0], grid_span[1], grid_points))
    bs.add(0.0)
    thetas = pset.crossings.thetas
    roots = np.sqrt(thetas[thetas > 0]).tolist()
    bs.update(roots)
    bs.update(math.sqrt(a * b) for a, b in zip(roots, roots[1:]))
    if roots:
        bs.add(2.0 * roots[-1])
    return sorted(bs)


def old_correlations(path, grid_points, grid_span):
    total = path.pset.total_pairs
    d_pr_re = path.swaps[-1]
    grid = sorted(
        set(np.geomspace(grid_span[0], grid_span[1], grid_points))
        | set(path.transition_betas)
        | {0.0}
    )
    rows = []
    for b in grid:
        n1 = path.swaps[bisect_left(path.transition_betas, float(b))]
        n2 = d_pr_re - n1
        rows.append((b, (total - 2 * n1) / total, (total - 2 * n2) / total))
    return rows


def assert_grids_match_the_old_code(pset, grid_points, grid_span):
    old = old_frechet_grid(pset, grid_points, grid_span)
    curve = frechet_curve(pset, None, grid_points, grid_span)
    assert hexes(b for b, _ in curve) == hexes(old)
    assert hexes(v for _, v in curve) == hexes(v for _, v in frechet_curve(pset, old))
    path = build_path(pset)
    new_rows = correlations_vs_beta(path, grid_points, grid_span)
    old_rows = old_correlations(path, grid_points, grid_span)
    assert [hexes(r) for r in new_rows] == [hexes(r) for r in old_rows]
    grid = beta_grid(grid_points, grid_span, path.transition_betas)
    assert hexes(grid) == hexes(r[0] for r in old_rows)
    assert path.plateau_of(grid).tolist() == [bisect_left(path.transition_betas, b) for b in grid.tolist()]


def roc_pset(points, prior=0.5):
    q = 1.0 - prior
    return PerformanceSet(
        tuple(Performance(q * (1 - x), q * x, prior * (1 - y), prior * y) for x, y in points)
    )


# ROC points on a coarse grid: many pairs share a pencil line, so their
# crossings coincide and the sets coalesce
coarse_points = st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=2, max_size=10, unique=True
).map(lambda pts: [(x / 10, y / 10) for x, y in pts])
spans = st.sampled_from([(1e-3, 1e3), (0.1, 10.0), (0.5, 0.5), (2.0, 3.0)])


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coarse_points, st.integers(1, 50), spans)
def test_grids_and_correlations_match_the_old_code(points, grid_points, grid_span):
    pset = roc_pset(points)
    try:
        build_path(pset)
    except ValueError:
        assume(False)
    assert_grids_match_the_old_code(pset, grid_points, grid_span)


@pytest.mark.parametrize(
    "pset",
    [
        roc_pset([(0.1, 0.6), (0.4, 0.7), (0.3, 0.5), (0.9, 0.65)]),
        roc_pset([(0.1, 0.55), (0.3, 0.65), (0.6, 0.8), (0.02, 0.95)]),
    ],
    ids=["two-pairs-at-one-theta", "three-items-as-a-block"],
)
def test_grids_and_correlations_match_the_old_code_on_coalesced_sets(pset):
    assert pset.crossings.coalesced
    assert pset.crossings.coalesced == oracle_coalesced(pset.crossings.thetas)
    assert_grids_match_the_old_code(pset, 41, (1e-3, 1e3))


@pytest.mark.parametrize("name", ["roc120.csv", "nearoracle57.csv"])
def test_grids_and_plateaus_match_the_old_code_on_the_fixtures(name):
    pset = ingest(DATA / name)
    thetas = pset.crossings.thetas
    assert pset.crossings.transitions.tolist() == oracle_transitions(thetas)
    assert build_path(pset).swaps == oracle_swaps(thetas)
    assert_grids_match_the_old_code(pset, 41, (1e-3, 1e3))
    assert_grids_match_the_old_code(pset, 17, (0.01, 50.0))


def test_plateau_of_rejects_nan_and_negative_betas():
    path = build_path(ingest(DATA / "nearoracle57.csv"))
    for beta in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            path.plateau_of(beta)
    with pytest.raises(ValueError, match="beta must be >= 0"):
        path.plateau_of(np.array([1.0, math.nan]))
    assert path.plateau_of(0.0) == 0
    assert path.plateau_of(math.inf) == path.n_plateaus - 1


def test_correlations_reject_a_nan_grid():
    path = build_path(ingest(DATA / "nearoracle57.csv"))
    with pytest.raises(ValueError, match="beta must be >= 0"):
        correlations_vs_beta(path, 5, (math.nan, 1.0))
