import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from prtradeoff import (
    PRECISION,
    RECALL,
    DegenerateSpreadError,
    Performance,
    PerformanceSet,
    RankingPath,
    build_path,
    fbeta,
    kendall_distance,
    marker_rankings,
    pca_project,
    rank_by_score,
    rank_trajectories,
    sample_parts,
    spearman_distance,
    uniform_spec,
    fixed_priors_spec,
)


def roc_pset(points, prior=0.5):
    q = 1.0 - prior
    parts = [
        (q * (1 - x), q * x, prior * (1 - y), prior * y) for x, y in points
    ]
    return PerformanceSet.from_parts(parts)


def random_pset(seed, n):
    return PerformanceSet.from_parts(sample_parts(uniform_spec(), seed, n))


def engineered_three_item_pset():
    """Two crossings at beta^2 = 0.2 and 1.7; the third pair is unanimous.

    At prior 1/2 the crossing beta^2 equals the ROC pencil offset
    (y2 x1 - y1 x2) / (y1 - y2), hand-picked here to give 0.2 and 1.7.
    """
    return roc_pset([(0.1, 0.6), (0.4, 0.7), (0.2, 0.8)])


def test_unanimous_set_gives_single_plateau():
    ys = np.linspace(0.2, 0.8, 5)
    xs = ys / (2.0 + ys)
    pset = roc_pset(list(zip(xs, ys)), prior=0.3)
    path = build_path(pset)
    assert path.n_plateaus == 1
    assert path.transition_betas == ()
    assert path.swaps == (0,)
    assert path.ranking(0).ranks == rank_by_score(pset, RECALL).ranks


def test_engineered_three_item_path():
    pset = engineered_three_item_pset()
    path = build_path(pset)
    assert path.n_plateaus == 3
    assert path.transition_betas == (
        pytest.approx(math.sqrt(0.2)),
        pytest.approx(math.sqrt(1.7)),
    )
    assert path.swaps == (0, 1, 2)
    assert not pset.crossings.coalesced
    # cross-check each plateau against direct ranking at an interior beta
    for beta, expect in [(0.1, 0), (1.0, 1), (10.0, 2)]:
        assert rank_by_score(pset, fbeta(beta)).ranks == path.ranking(expect).ranks
        assert path.plateau_of(beta) == expect


def test_path_endpoints_and_monotone_distances():
    for seed in range(6):
        pset = random_pset(seed + 50, 10)
        path = build_path(pset)
        assert path.ranking(0).ranks == rank_by_score(pset, PRECISION).ranks
        assert path.ranking(path.n_plateaus - 1).ranks == rank_by_score(pset, RECALL).ranks
        d = path.swaps
        assert all(type(s) is int for s in d)
        assert all(b > a for a, b in zip(d, d[1:]))
        full = kendall_distance(path.ranking(0), path.ranking(path.n_plateaus - 1))
        assert d[-1] / pset.total_pairs == pytest.approx(full)
        # without coalescing every transition is exactly one adjacent swap
        if not pset.crossings.coalesced:
            assert d == tuple(range(path.n_plateaus))


def test_plateau_count_matches_dense_grid_oracle():
    rng = np.random.default_rng(60)
    for seed in range(40):
        pset = random_pset(seed + 100, 7)
        path = build_path(pset)
        if path.transition_betas:
            lo = path.transition_betas[0] / 2
            hi = path.transition_betas[-1] * 2
            grid = np.geomspace(lo, hi, 3000)
        else:
            grid = np.geomspace(1e-3, 1e3, 50)
        seen = [rank_by_score(pset, fbeta(0.0)).ranks]
        for b in grid:
            r = rank_by_score(pset, fbeta(b)).ranks
            if r != seen[-1]:
                seen.append(r)
        assert len(seen) == path.n_plateaus
        assert len(seen) == 1 + len(path.transition_betas)


def test_path_requires_tie_free_endpoints():
    p = Performance(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError):
        build_path(PerformanceSet((p, p)))


def test_marker_rankings():
    pset = random_pset(61, 12)
    path = build_path(pset)
    markers = marker_rankings(path)
    assert markers["f1"].ranks == rank_by_score(pset, fbeta(1.0)).ranks
    assert "sivf" in markers
    half = Fraction(path.swaps[-1], 2)
    plateaus = [path.ranking(k) for k in range(path.n_plateaus)]
    s_star = path.swaps[plateaus.index(markers["optimal"])]
    assert abs(s_star - half) <= Fraction(1, 2)


def test_optimal_plateau_is_nearest_to_halfway():
    for seed in range(5):
        pset = random_pset(seed + 70, 9)
        path = build_path(pset)
        k = path.optimal_plateau
        half = Fraction(path.swaps[-1], 2)
        gaps = [abs(s - half) for s in path.swaps]
        assert gaps[k] == min(gaps)


def test_pca_projection_is_contractive_and_deterministic():
    pset = random_pset(62, 15)
    path = build_path(pset)
    markers = marker_rankings(path)
    coords, explained = pca_project(path, markers)
    coords2, _ = pca_project(path, markers)
    assert (coords == coords2).all()
    assert explained[0] >= explained[1] >= 0.0

    rows = [path.ranking(k) for k in range(path.n_plateaus)] + list(markers.values())
    assert coords.shape == (len(rows), 2)
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            planar = float(np.hypot(*(coords[i] - coords[j])))
            assert planar <= spearman_distance(rows[i], rows[j]) + 1e-9


def test_pca_identical_rankings_map_together():
    pset = random_pset(63, 10)
    path = build_path(pset)
    markers = marker_rankings(path)
    coords, _ = pca_project(path, markers)
    names = list(markers)
    f1_row = path.n_plateaus + names.index("f1")
    f1_plateau = path.plateau_of(1.0)
    assert coords[f1_row] == pytest.approx(coords[f1_plateau], abs=1e-12)


def test_pca_explains_fixed_prior_manifold():
    pset = PerformanceSet.from_parts(sample_parts(fixed_priors_spec(0.1), 64, 60))
    path = build_path(pset)
    _, explained = pca_project(path, marker_rankings(path))
    assert explained[0] + explained[1] >= 0.90


def test_pca_degenerate_spread():
    ys = np.linspace(0.2, 0.8, 4)
    xs = ys / (2.0 + ys)
    path = build_path(roc_pset(list(zip(xs, ys)), prior=0.3))
    with pytest.raises(DegenerateSpreadError):
        pca_project(path, {})


def test_rank_trajectories():
    pset = engineered_three_item_pset()
    path = build_path(pset)
    traj = rank_trajectories(path)
    assert traj.shape == (3, 3)
    n = len(pset)
    assert (traj.sum(axis=0) == n * (n + 1) // 2).all()
    for k in range(path.n_plateaus):
        assert tuple(traj[:, k]) == path.ranking(k).ranks

    # a unanimous leader keeps rank 1 across the whole sweep
    pset2 = roc_pset([(0.05, 0.9), (0.4, 0.7), (0.2, 0.8)])
    path2 = build_path(pset2)
    traj2 = rank_trajectories(path2)
    lead = int(np.argmin(traj2[:, 0]))
    assert (traj2[lead] == 1).all()


def test_path_holds_one_read_only_copy_of_its_ranks():
    assert [f.name for f in dataclasses.fields(RankingPath)] == [
        "pset", "transition_betas", "ranks", "swaps"
    ]
    path = build_path(random_pset(65, 10))
    with pytest.raises(ValueError):
        path.ranks[0, 0] = 1
    traj = rank_trajectories(path)
    assert np.shares_memory(traj, path.ranks)
    with pytest.raises(ValueError):
        traj[0, 0] = 1


def test_plateau_bounds_are_read_from_the_transition_betas():
    # plateau k holds between (0, *transition_betas, inf)[k] and the next one
    assert not hasattr(RankingPath, "plateau_bounds")
