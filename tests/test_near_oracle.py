"""The near-oracle searches keep only the pairs still live in their bracket; a full pass over every pair is the oracle.

``_full_pass_discordant`` and the two bisections below are copies of the
implementation that evaluated every frozen pair at every probe, run on
the whole (4, n) array of uniforms, which the searches themselves only
read a window at a time.  The searches must return exactly the same
floats, and at every probe they must count exactly the full pass's
(A, B), also at a probe exactly on a breakpoint.  Uniforms
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
    """The offset bisection; ``trace`` collects its (A, B) at each probe."""
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
        got = dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed)
        assert got == _full_pass_offset(uniforms, prior), prior


@pytest.mark.parametrize("seed", range(20))
def test_searches_equal_full_pass_bisection_on_quantized_uniforms(seed, monkeypatch):
    n = 500 + 100 * seed
    _read_from(_quantized, monkeypatch)
    uniforms = _quantized(n, seed)
    assert dist.sivf_equidistance_prior_near_oracle(n, seed) == _full_pass_prior(uniforms)
    for prior in PRIORS:
        got = dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed)
        assert got == _full_pass_offset(uniforms, prior), prior


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
    searches = [(lambda: dist.sivf_equidistance_prior_near_oracle(n, seed), lambda t: _full_pass_prior(uniforms, t))]
    searches += [
        (
            functools.partial(dist.mc_optimal_vertex_offset_near_oracle, prior, n, seed),
            functools.partial(_full_pass_offset, uniforms, prior),
        )
        for prior in PRIORS
    ]
    seen = _counted_probes(monkeypatch)
    for search, full_pass in searches:
        seen.clear()
        got = search()
        want = []
        assert got == full_pass(want)
        assert list(zip(seen[::2], seen[1::2])) == want


@pytest.mark.parametrize(
    "search",
    [
        lambda: dist.sivf_equidistance_prior_near_oracle(3, 0),
        lambda: dist.mc_optimal_vertex_offset_near_oracle(0.1, 3, 0),
        lambda: dist.mc_optimal_vertex_offset_near_oracle(0.3, 3, 0),
    ],
    ids=["prior", "offset-0.1", "offset-0.3"],
)
def test_a_gap_that_keeps_its_sign_is_an_error_not_a_bracket_end(search):
    # on 3 pairs the gap has one sign over the whole bracket: a bisection
    # would report the bracket's end (0.95, 1e-4) as the optimum
    with pytest.raises(ValueError, match=r"keeps one sign over the bracket \[.+\] on 3 sampled pairs; sample more"):
        search()


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
    # live, at 0.30, 0.22 and 0.05.
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
