"""The near-oracle searches read the frozen pairs a window at a time; passes over the whole array are the oracles.

The offset search must return exactly the median of the crossings,
computed below from its definition on the whole (4, n) array of
uniforms, and split the sides that ``mc_tau_sides_near_oracle`` counts
evenly.  The prior search keeps only the pairs still live in its
bracket.  ``_full_pass_discordant`` and the prior bisection below are
copies of the implementation that evaluated every frozen pair at every
probe, run on the whole array.  The prior search must return exactly the
same float, and at every probe it must count exactly the full pass's
(A, B), also at a probe exactly on a breakpoint.  The offset bisection
of that implementation is kept as a reference for the median.  Uniforms
quantized to multiples of 1/16 force coincident points, pairs with
c = uy - vy = 0, linear and double-rooted h, and breakpoints exactly on
dyadic probes such as the first prior probe 0.5; nudging some of them by
2**-30 makes the same cases nearly, not exactly, degenerate.  The
searches read those through their one reading function,
``_near_oracle_window``.
"""

import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest

from prtradeoff import distributions as dist

PRIORS = (0.1, 0.3, 0.561, 0.9)


def _full_pass_discordant(uniforms, prior, offset):
    ux, uy, vx, vy = uniforms
    x1, y1 = ux * prior, prior + uy * (1.0 - prior)
    x2, y2 = vx * prior, prior + vy * (1.0 - prior)

    def sign(off):
        return np.sign(y1 * (x2 + off) - y2 * (x1 + off))

    s_pr, s_re, s_f = sign(0.0), np.sign(y1 - y2), sign(offset)
    return (s_pr < 0) & (s_f > 0), (s_f < 0) & (s_re > 0)


def _full_pass_gap(uniforms, prior, offset, trace):
    a, b = _full_pass_discordant(uniforms, prior, offset)
    trace.append((int(np.count_nonzero(a)), int(np.count_nonzero(b))))
    return float(1.0 - 4.0 * np.mean(a)) - float(1.0 - 4.0 * np.mean(b))


def _full_pass_offset(uniforms, prior, trace=None):
    """The offset bisection that the median replaced; ``trace`` collects its (A, B) at each probe."""
    trace = [] if trace is None else trace
    lo, hi = 1e-4, 100.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _full_pass_gap(uniforms, prior, mid, trace) > 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _full_pass_prior(uniforms, trace=None):
    """The prior bisection; ``trace`` collects its (A, B) at each probe."""
    trace = [] if trace is None else trace
    lo, hi = 0.05, 0.95
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _full_pass_gap(uniforms, mid, 1.0, trace) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _crossings(uniforms, prior):
    """The crossing offsets of the pairs precision and recall order oppositely, sorted."""
    ux, uy, vx, vy = uniforms
    x1, y1 = ux * prior, prior + uy * (1.0 - prior)
    x2, y2 = vx * prior, prior + vy * (1.0 - prior)
    counted = (y1 > y2) & (np.sign(y1 * x2 - y2 * x1) < 0)
    x1, y1, x2, y2 = x1[counted], y1[counted], x2[counted], y2[counted]
    return np.sort((y2 * x1 - y1 * x2) / (y1 - y2))


def _median_offset(uniforms, prior):
    """The median crossing: the middle one, or the mean of the two middle ones."""
    thetas = _crossings(uniforms, prior)
    m = len(thetas)
    return float(thetas[m // 2]) if m % 2 else (float(thetas[m // 2 - 1]) + float(thetas[m // 2])) / 2


def _uniform(n_pairs, seed):
    """The frozen pairs' uniforms, rows (ux, uy, vx, vy), drawn whole."""
    return dist._generator(seed).uniform(0.0, 1.0, (4, n_pairs))


@functools.lru_cache(maxsize=4)
def _quantized(n_pairs, seed):
    """Multiples of 1/16 in (0, 1), half of them nudged by +-2**-30: exact and near ties."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(4):
        u = rng.integers(1, 16, n_pairs) / 16.0
        u += rng.choice([0.0, 0.0, 2.0**-30, -(2.0**-30)], n_pairs)
        draws.append(u)
    uniforms = np.stack(draws)
    uniforms.flags.writeable = False  # shared by every read of the cache
    return uniforms


def _read_from(draw, monkeypatch):
    """Make the searches read their frozen pairs from ``draw``'s array."""
    if draw is _quantized:
        monkeypatch.setattr(
            dist, "_near_oracle_window", lambda n, seed, first, stop: _quantized(n, seed)[:, first:stop]
        )


@pytest.mark.parametrize("seed", range(20))
def test_searches_equal_full_pass_bisection(seed):
    n = 2000 + 400 * seed
    uniforms = _uniform(n, seed)
    assert dist.sivf_equidistance_prior_near_oracle(n, seed) == _full_pass_prior(uniforms)
    for prior in PRIORS:
        assert dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed) == _median_offset(uniforms, prior), prior


@pytest.mark.parametrize("seed", range(20))
def test_searches_equal_full_pass_bisection_on_quantized_uniforms(seed, monkeypatch):
    n = 500 + 100 * seed
    _read_from(_quantized, monkeypatch)
    uniforms = _quantized(n, seed)
    assert dist.sivf_equidistance_prior_near_oracle(n, seed) == _full_pass_prior(uniforms)
    for prior in PRIORS:
        assert dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed) == _median_offset(uniforms, prior), prior


DRAWS = pytest.mark.parametrize("draw", [_uniform, _quantized], ids=["uniform", "quantized"])


def _counted_probes(monkeypatch):
    """The (A, B) counts the searches turn into taus, in call order, once ``_tau`` is watched."""
    seen = []
    tau = dist._tau
    monkeypatch.setattr(dist, "_tau", lambda discordant, n: seen.append(int(discordant)) or tau(discordant, n))
    return seen


# quantized draws on which the first prior probe, 0.5, is exactly a breakpoint of a counted pair
ON_BREAKPOINT = (800, 3)


@DRAWS
@pytest.mark.parametrize("n, seed", [(1500, 0), (1500, 1), ON_BREAKPOINT])
@pytest.mark.parametrize("window", [97, 1 << 14])
def test_counts_equal_full_pass_at_every_probe(draw, n, seed, window, monkeypatch):
    _read_from(draw, monkeypatch)
    monkeypatch.setattr(dist, "_WINDOW", window)
    uniforms = draw(n, seed)
    if draw is _quantized and (n, seed) == ON_BREAKPOINT:
        ux, uy, vx, vy = uniforms
        x1, y1, x2, y2 = 0.5 * ux, 0.5 + 0.5 * uy, 0.5 * vx, 0.5 + 0.5 * vy
        on = (y1 * x2 - y2 * x1 == 0) | (y1 * (x2 + 1.0) - y2 * (x1 + 1.0) == 0)
        assert np.any(on & (uy > vy))
    seen = _counted_probes(monkeypatch)
    got = dist.sivf_equidistance_prior_near_oracle(n, seed)
    want = []
    assert got == _full_pass_prior(uniforms, want)
    assert list(zip(seen[::2], seen[1::2])) == want


def test_a_gap_that_keeps_its_sign_is_an_error_not_a_bracket_end():
    # on 3 pairs the gap has one sign over the whole bracket: a bisection
    # would report the bracket's end (0.95) as the optimum
    with pytest.raises(ValueError, match=r"keeps one sign over the bracket \[.+\] on 3 sampled pairs; sample more"):
        dist.sivf_equidistance_prior_near_oracle(3, 0)


def test_an_offset_without_crossings_is_an_error():
    # no pair of these 3 is ordered oppositely by precision and recall: both
    # sides are 0 at every offset, and there is no median to report
    assert len(_crossings(_uniform(3, 0), 0.3)) == 0
    with pytest.raises(ValueError, match="none of the 3 sampled pairs oppositely; sample more pairs"):
        dist.mc_optimal_vertex_offset_near_oracle(0.3, 3, 0)


@pytest.mark.parametrize("n", [1, 3, 5, 65535, 65537, 3 * 65536 + 3])
def test_windows_are_the_columns_of_the_whole_draw(n):
    # every window edge at and next to a row end, a Philox step and a window
    whole = _uniform(n, 7)
    w = dist._WINDOW
    edges = {0, 1, 2, 3, 4, 5, n // 2, w - 1, w, w + 1, 65535, 65536, 65537, n - 3, n - 1, n}
    edges = sorted(e for e in edges if 0 <= e <= n)
    rng = np.random.default_rng(n)
    windows = [(a, b) for a in edges for b in edges if a < b]
    windows += [tuple(sorted(rng.choice(n + 1, 2, replace=False))) for _ in range(20) if n > 1]
    for first, stop in windows:
        assert np.array_equal(dist._near_oracle_window(n, 7, first, stop), whole[:, first:stop]), (first, stop)
    blocks = list(dist._near_oracle_blocks(n, 7))
    assert [u.shape[1] for u in blocks] == [min(w, n - first) for first in range(0, n, w)]
    assert np.array_equal(np.concatenate(blocks, axis=1), whole)


def test_sides_equal_full_pass():
    uniforms = _uniform(5000, 8)
    for prior in PRIORS:
        for offset in (0.01, 1.0, 7.0):
            a, b = _full_pass_discordant(uniforms, prior, offset)
            want = (float(1.0 - 4.0 * np.mean(a)), float(1.0 - 4.0 * np.mean(b)))
            assert dist.mc_tau_sides_near_oracle(prior, offset, 5000, 8) == want


def _searches(n, seed):
    return [dist.sivf_equidistance_prior_near_oracle(n, seed)] + [
        dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed) for prior in PRIORS
    ]


@DRAWS
@pytest.mark.parametrize(
    "window, n",
    [(1, 1500), (1000, 70_000), (1 << 16, 70_000), (70_001, 70_000)],
    ids=["1", "1000", "2**16", "above-n"],
)
def test_building_in_blocks_changes_nothing(draw, window, n, monkeypatch):
    _read_from(draw, monkeypatch)
    monkeypatch.setattr(dist, "_WINDOW", n)
    whole = _searches(n, 5)
    monkeypatch.setattr(dist, "_WINDOW", window)
    assert _searches(n, 5) == whole


def test_prior_search_holds_few_per_pair_temporaries():
    # The four frozen uniforms are 32 bytes a pair.  At 2 * 10**5 pairs the
    # search, run first in a fresh process, peaked at 2.32 times their size
    # when the breakpoints were built from whole-sample temporaries, and at
    # 1.69 when they are built block by block.
    n = 2 * 10**5
    tracemalloc.start()
    try:
        dist.sivf_equidistance_prior_near_oracle(n, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 4 * 8 * n


MILLION_PAIR_SEARCHES = pytest.mark.parametrize(
    "search",
    [
        lambda: dist.sivf_equidistance_prior_near_oracle(10**6, 1),
        lambda: dist.mc_optimal_vertex_offset_near_oracle(0.3, 10**6, 1),
        lambda: dist.mc_tau_sides_near_oracle(0.3, 1.0, 10**6, 1),
    ],
    ids=["prior", "offset", "sides"],
)


@MILLION_PAIR_SEARCHES
def test_searches_hold_under_half_the_frozen_uniforms(search):
    # The four frozen uniforms are 32 bytes a pair.  Held as one (4, n)
    # array, the three searches peaked at 1.34, 1.21 and 1.14 times their
    # size at 10**6 pairs; read block by block into sorted breakpoints, at
    # 0.37, 0.27 and 0.20; read a window at a time and kept only while
    # live, at 0.30, 0.22 and 0.05.  The offset search, which keeps only
    # the crossings it takes the median of, peaks at 0.10.
    tracemalloc.start()
    try:
        search()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 4 * 8 * 10**6


@MILLION_PAIR_SEARCHES
def test_searches_free_their_memory_without_the_cycle_collector(search):
    # nothing a search keeps live may sit in a reference cycle: the cycle
    # would hold its kept pairs until the collector ran
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for _ in range(3):
            search()
            now, _ = tracemalloc.get_traced_memory()
            assert now - start <= 2**20
    finally:
        tracemalloc.stop()
        gc.enable()


def _assert_even_split(prior, offset, n, seed, uniforms, seen):
    """At ``offset``, A and B differ by at most 1 plus the crossings equal to it, in the sides' own counts."""
    seen.clear()
    dist.mc_tau_sides_near_oracle(prior, offset, n, seed)
    a, b = seen
    ties = np.count_nonzero(_crossings(uniforms, prior) == offset)
    assert abs(a - b) <= 1 + ties, (prior, a, b, ties)


@DRAWS
@pytest.mark.parametrize("window", [1, 97, 1000, 1 << 14, 1 << 16, 70_001])
def test_offset_is_the_median_crossing_at_every_window(draw, window, monkeypatch):
    _read_from(draw, monkeypatch)
    monkeypatch.setattr(dist, "_WINDOW", window)
    n = 1500 if window == 1 else 70_000
    uniforms = draw(n, 5)
    for prior in PRIORS:
        assert dist.mc_optimal_vertex_offset_near_oracle(prior, n, 5) == _median_offset(uniforms, prior), prior


@DRAWS
@pytest.mark.parametrize("n, seed", [(1500, 0), (1501, 1), (20_000, 2), (70_001, 3)])
def test_offset_splits_the_counted_sides_evenly(draw, n, seed, monkeypatch):
    _read_from(draw, monkeypatch)
    uniforms = draw(n, seed)
    seen = _counted_probes(monkeypatch)
    for prior in PRIORS:
        got = dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed)
        _assert_even_split(prior, got, n, seed, uniforms, seen)


@pytest.mark.parametrize("seed", range(10))
def test_the_offset_bisection_found_the_lower_middle_crossing(seed):
    # the bisection moved up while A < B, so on an even pool it stopped at
    # the lower of the two middle crossings, with A one short of B
    n = 2000 + 400 * seed
    uniforms = _uniform(n, seed)
    for prior in PRIORS:
        thetas = _crossings(uniforms, prior)
        lower_middle = float(thetas[(len(thetas) - 1) // 2])
        assert _full_pass_offset(uniforms, prior) == pytest.approx(lower_middle, rel=1e-12, abs=0), prior


@pytest.mark.parametrize(
    "prior, n, seed",
    [(1e-4, 2 * 10**5, 5), (0.995, 20_000, 109)],
    ids=["below", "above"],
)
def test_offsets_outside_the_old_bisection_bracket(prior, n, seed, monkeypatch):
    # the offset bisection searched [1e-4, 100] and raised here, where the
    # medians lie near 6.1e-5 and 194; seed 109 draws the offset pairs of
    # the 0.995 row of `sweep --family pi5 --param 0.995 --pairs 20000`
    uniforms = _uniform(n, seed)
    got = dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed)
    assert got == _median_offset(uniforms, prior)
    assert not 1e-4 <= got <= 100.0
    _assert_even_split(prior, got, n, seed, uniforms, _counted_probes(monkeypatch))
