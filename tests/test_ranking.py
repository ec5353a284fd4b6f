import copy
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from prtradeoff import (
    F1,
    IOU,
    PRECISION,
    LengthMismatchError,
    Performance,
    PerformanceSet,
    Ranking,
    discordance,
    kendall_distance,
    kendall_tau,
    rank_by_score,
    ranks_from_values,
    spearman_distance,
    uniform_spec,
    sample_parts,
)
from prtradeoff import build_path, fixed_priors_spec, ingest
from prtradeoff import ranking
from prtradeoff.ranking import _tie_slack
from prtradeoff.scores import TIE_TOL, normalize_parts

from conftest import random_pset


def pset_with_precision(values):
    """Items whose precision equals the given values (pfp + ptp fixed at 1/2)."""
    items = tuple(
        Performance(0.25, (1.0 - v) / 2.0, 0.25, v / 2.0) for v in values
    )
    return PerformanceSet(items)


def bubble_swap_count(r1, r2):
    """Independent oracle: adjacent swaps needed to sort r2 into r1's order."""
    order = sorted(range(len(r1)), key=lambda i: r1[i])
    seq = [r2[i] for i in order]
    swaps = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                swaps += 1
                changed = True
    return swaps


def test_rank_by_score_counting():
    r = rank_by_score(pset_with_precision([0.9, 0.5, 0.7]), PRECISION)
    assert r.ranks == (1, 3, 2)


def test_ties_share_worst_rank():
    r = rank_by_score(pset_with_precision([0.9, 0.5, 0.5]), PRECISION)
    assert r.ranks == (1, 3, 3)
    assert r.has_ties


def test_rank_invariant_under_monotone_transforms():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v = rng.uniform(0.01, 0.99, 12)
        base = ranks_from_values(v)
        assert (ranks_from_values(v**3) == base).all()
        assert (ranks_from_values(np.exp(v)) == base).all()
    # a real monotone score pair: F1 is an increasing transform of IoU
    for _ in range(20):
        pset = random_pset(int(rng.integers(2**32)), 10)
        assert rank_by_score(pset, F1).ranks == rank_by_score(pset, IOU).ranks


def test_discordance_examples():
    r = Ranking((1, 2, 3, 4))
    assert discordance(r, r) == (0, 6)
    assert discordance(r, Ranking((4, 3, 2, 1))) == (6, 6)
    assert discordance(Ranking((1, 2, 3)), Ranking((2, 1, 3))) == (1, 3)
    with pytest.raises(LengthMismatchError):
        discordance(Ranking((1, 2)), Ranking((1, 2, 3)))


def test_tied_pairs_are_not_discordant():
    # pair (2,3) is tied in the first ranking: only the two pairs against
    # item 1 can disagree
    assert discordance(Ranking((1, 3, 3)), Ranking((3, 1, 1))) == (2, 3)


def test_kendall_distance_and_tau_examples():
    r = Ranking((1, 2, 3))
    assert kendall_distance(r, r) == 0.0
    assert kendall_tau(r, r) == 1.0
    rev = Ranking((3, 2, 1))
    assert kendall_distance(r, rev) == 1.0
    assert kendall_tau(r, rev) == -1.0
    swap = Ranking((2, 1, 3))
    assert kendall_distance(r, swap) == pytest.approx(1 / 3)
    assert kendall_tau(r, swap) == pytest.approx(1 / 3)


def test_kendall_metric_axioms_on_random_permutations():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        a, b, c = (Ranking(tuple(rng.permutation(n) + 1)) for _ in range(3))
        assert kendall_distance(a, a) == 0.0
        assert kendall_distance(a, b) == kendall_distance(b, a)
        if kendall_distance(a, b) == 0.0:
            assert a.ranks == b.ranks
        assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c) + 1e-15


def test_discordance_equals_bubble_sort_swaps():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(3, 15))
        r1 = tuple(rng.permutation(n) + 1)
        r2 = tuple(rng.permutation(n) + 1)
        d, total = discordance(Ranking(r1), Ranking(r2))
        assert d == bubble_swap_count(r1, r2)
        assert total == n * (n - 1) // 2


def test_kendall_tau_matches_scipy():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        r1 = tuple(rng.permutation(n) + 1)
        r2 = tuple(rng.permutation(n) + 1)
        ours = kendall_tau(Ranking(r1), Ranking(r2))
        ref = kendalltau(r1, r2).statistic
        assert abs(ours - ref) <= 1e-12


def test_spearman_distance():
    assert spearman_distance(Ranking((1, 2)), Ranking((1, 2))) == 0.0
    assert spearman_distance(Ranking((1, 2)), Ranking((2, 1))) == pytest.approx(math.sqrt(2))
    assert spearman_distance(Ranking((1, 2, 3)), Ranking((3, 2, 1))) == pytest.approx(math.sqrt(8))


def test_ranking_validation():
    with pytest.raises(ValueError):
        Ranking((0, 1, 2))
    with pytest.raises(ValueError):
        Ranking((1, 2, 4))
    with pytest.raises(ValueError):
        Ranking(())
    with pytest.raises(ValueError):
        Ranking(((1, 2), (2, 1)))


@pytest.mark.parametrize(
    "ranks", [(1.5, 2.0), (1.0, 2.0), ("1", "2"), (True, True), (1, None)], ids=repr
)
def test_ranking_rejects_non_integer_ranks(ranks):
    # as with ``operator.index``, no float, str or bool passes for an integer
    with pytest.raises(TypeError):
        Ranking(ranks)


def test_ranking_is_one_read_only_int32_array():
    r = Ranking((2, 1, 3))
    a = r.as_array()
    assert a is r.as_array()
    assert a.dtype == np.int32 and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0] = 1
    assert r.ranks == (2, 1, 3) and all(type(x) is int for x in r.ranks)
    assert r == Ranking(np.array([2, 1, 3], dtype=np.uint8))
    assert hash(r) == hash(Ranking([2, 1, 3]))
    assert r != Ranking((1, 2, 3)) and r != Ranking((1, 2))
    assert repr(r) == "Ranking(ranks=(2, 1, 3))"
    # a caller's writeable array is copied, so changing it later changes nothing
    mine = np.array([1, 2], dtype=np.int32)
    r2 = Ranking(mine)
    mine[0] = 2
    assert r2.ranks == (1, 2)
    values = np.array([0.9, 0.5, 0.7])
    assert ranks_from_values(values).dtype == np.int32
    assert rank_by_score(pset_with_precision(values), PRECISION).as_array().dtype == np.int32


def square_signs(v, tol):
    """Every pair's order as one n x n matrix: sign of v_i - v_j beyond tol, 0 for a tie."""
    gap = v[:, None] - v
    return np.sign(gap) * (np.abs(gap) > tol)


@pytest.mark.parametrize("combos", [1, 7, 1 << 18])
def test_pair_counts_in_row_blocks_match_the_square_comparison(combos, monkeypatch):
    # values on a 1/5 grid, jittered so that near-ties within TIE_TOL chain
    monkeypatch.setattr(ranking, "_COMBOS", combos)
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        f, g = (rng.integers(0, 5, n) / 5 + rng.choice([-4e-13, 0.0, 4e-13, 9e-13], n) for _ in range(2))
        want = int((np.triu(square_signs(f, TIE_TOL) * square_signs(g, TIE_TOL), 1) < 0).sum())
        assert ranking._discordant_pairs(f, g, TIE_TOL) == want
        r_f, r_g = ranks_from_values(f), ranks_from_values(g)
        assert (r_f == (f[None, :] - f[:, None] >= -TIE_TOL).sum(axis=1)).all()
        want = int((np.triu(square_signs(r_f, 0) * square_signs(r_g, 0), 1) < 0).sum())
        assert discordance(Ranking(r_f), Ranking(r_g)) == (want, n * (n - 1) // 2)


def test_has_ties():
    assert not Ranking((3, 1, 2)).has_ties
    assert Ranking((1, 3, 3)).has_ties
    assert Ranking((2, 2)).has_ties
    assert not Ranking((1,)).has_ties


def test_spearman_distance_does_not_overflow():
    # |rank difference| exceeds 46340 here, where an int32 square overflows
    n = 50_000
    identity, reversed_ = Ranking(np.arange(1, n + 1)), Ranking(np.arange(n, 0, -1))
    assert spearman_distance(identity, reversed_) == math.sqrt((n**3 - n) // 3)


def test_performance_set_basics():
    items = tuple(Performance(*row) for row in [(1, 1, 1, 1), (2, 1, 1, 0)])
    pset = PerformanceSet(items, labels=("a", "b"))
    assert len(pset) == 2
    assert pset.total_pairs == 1
    assert pset.parts.shape == (2, 4)
    assert pset.parts[0, 0] == 0.25
    with pytest.raises(LengthMismatchError):
        PerformanceSet(items, labels=("only-one",))
    with pytest.raises(ValueError):
        PerformanceSet(())
    roundtrip = PerformanceSet.from_parts(pset.parts, pset.labels)
    assert roundtrip.parts == pytest.approx(pset.parts)
    assert not pset.parts.flags.writeable and not roundtrip.parts.flags.writeable
    with pytest.raises(ValueError):
        pset.parts[0, 0] = 1.0
    assert roundtrip != pset and roundtrip == roundtrip  # equality is identity
    for shape in ((3, 3), (4,)):
        with pytest.raises(ValueError, match="expected an"):
            PerformanceSet.from_parts(np.ones(shape))
    with pytest.raises(ValueError, match="empty performance set"):
        PerformanceSet.from_parts(np.ones((0, 4)))


@pytest.mark.parametrize(
    "copier", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_keep_the_rows_bit_for_bit_and_every_array_read_only(copier):
    pset = PerformanceSet.from_parts(sample_parts(uniform_spec(), 18, 300), [f"m{k}" for k in range(300)])
    # normalizing these rows again would move some of them
    assert (normalize_parts(pset.parts) != pset.parts).any()
    crossings, r_pr = pset.crossings, rank_by_score(pset, PRECISION)
    twin = copier(pset)
    assert twin.parts.tobytes() == pset.parts.tobytes() and twin.labels == pset.labels
    assert twin.crossings.thetas.tobytes() == crossings.thetas.tobytes()
    assert rank_by_score(twin, PRECISION) == r_pr
    arrays = [twin.parts, twin.crossings.thetas, twin.crossings.pairs]
    assert not any(a.flags.writeable for a in arrays)
    ranking = copier(r_pr)
    assert ranking == r_pr
    assert ranking.as_array().dtype == np.int32 and not ranking.as_array().flags.writeable


def assert_rows_are_swaps(pset):
    """Each crossing row (a, b) has the F order a, b below its theta: tp_a fp_b - tp_b fp_a > 0."""
    tn, fp, fn, tp = pset.parts.T
    a, b = pset.crossings.pairs.T
    assert (tp[a] * fp[b] - tp[b] * fp[a] > 0).all()
    # the tie window is the pair's, whichever item comes first
    theta = pset.crossings.thetas
    assert _tie_slack(pset.parts, a, b, theta).tobytes() == _tie_slack(pset.parts, b, a, theta).tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_crossing_rows_are_swaps_that_precision_orders_on_roc_sets(seed):
    pset = random_pset(seed, 40, fixed_priors_spec(0.3))  # uniform ROC points
    assert pset.crossings.n_crossings
    assert_rows_are_swaps(pset)
    build_path(pset)  # tie-free: the numerator's sign is the precision order
    r_pr = rank_by_score(pset, PRECISION).as_array()
    ahead, behind = pset.crossings.pairs.T
    assert (r_pr[ahead] < r_pr[behind]).all()


def test_crossing_rows_are_swaps_on_a_coalesced_set():
    assert_rows_are_swaps(ingest(Path(__file__).parent / "data" / "coalesced14.csv"))


cells = st.integers(1, 40)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(cells, cells, cells, cells), min_size=2, max_size=16))
def test_crossing_rows_are_swaps_on_integer_twins_and_near_ties(counts):
    mirrored = [(tn, fn, fp, tp) for tn, fp, fn, tp in counts]
    # a million times the counts, nudged by a count or two: equal rows nearly tie
    m = 10**6
    near = [(tn * m, fp * m + k % 3, fn * m, tp * m + k % 2) for k, (tn, fp, fn, tp) in enumerate(counts)]
    for rows in (counts, mirrored, near):
        assert_rows_are_swaps(PerformanceSet.from_parts(rows))
