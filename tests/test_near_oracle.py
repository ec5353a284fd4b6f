"""The near-oracle searches count sorted breakpoints; a full pass over every pair is the oracle.

``_full_pass_discordant`` and the two bisections below are copies of the
implementation that evaluated every frozen pair at every probe, run on
the whole (4, n) array of uniforms, which the searches themselves only
read a window or a pair at a time.  The counted searches must return
exactly the same floats, and the counting kernels must return exactly
the full pass's counts at any probe, including probes on and next to a
breakpoint.  Uniforms quantized to multiples of 1/16 force coincident
points, pairs with c = uy - vy = 0, linear and double-rooted h, and
breakpoints exactly on dyadic probes such as the first prior probe 0.5;
nudging some of them by 2**-30 makes the same cases nearly, not exactly,
degenerate.  The searches read those through their one reading function,
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


def _full_pass_gap(uniforms, prior, offset):
    a, b = _full_pass_discordant(uniforms, prior, offset)
    return float(1.0 - 4.0 * np.mean(a)) - float(1.0 - 4.0 * np.mean(b))


def _full_pass_offset(uniforms, prior):
    lo, hi = 1e-4, 100.0
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if _full_pass_gap(uniforms, prior, mid) > 0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _full_pass_prior(uniforms):
    lo, hi = 0.05, 0.95
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _full_pass_gap(uniforms, mid, 1.0) > 0:
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


def _probes(values, lo, hi, grid):
    """Every breakpoint, its two float neighbours, and a grid, inside (lo, hi)."""
    probes = np.concatenate(
        [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf), grid]
    )
    return [float(x) for x in probes if lo < x < hi]


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


@DRAWS
@pytest.mark.parametrize("seed", range(3))
def test_counts_equal_full_pass_at_and_around_every_breakpoint(draw, seed, monkeypatch):
    _read_from(draw, monkeypatch)
    uniforms = draw(1500, seed)

    def full(prior, offset):
        return [int(np.count_nonzero(side)) for side in _full_pass_discordant(uniforms, prior, offset)]

    counts = dist._prior_counts(1500, seed, 0.05, 0.95)
    if draw is _quantized:
        assert counts.irregular.size > 0  # zero leading coefficients and double roots
    grid = np.concatenate([np.linspace(0.05, 0.95, 91), np.arange(1, 64) / 64])
    for prior in _probes(counts.values, 0.05, 0.95, grid):
        assert counts(prior).tolist() == full(prior, 1.0), prior

    grid = np.concatenate([np.geomspace(1e-4, 100.0, 61), np.arange(1, 64) / 16])
    for prior in PRIORS:
        counts = dist._offset_counts(1500, seed, prior, 1e-4, 100.0)
        for offset in _probes(counts.values, 1e-4, 100.0, grid):
            assert counts(offset).tolist() == full(prior, offset), (prior, offset)


@DRAWS
@pytest.mark.parametrize("seed", range(2))
def test_batched_counts_equal_scalar_counts(draw, seed, monkeypatch):
    _read_from(draw, monkeypatch)
    kernels = [(dist._prior_counts(1500, seed, 0.05, 0.95), 0.05, 0.95, np.linspace(0.05, 0.95, 91))]
    kernels += [
        (dist._offset_counts(1500, seed, prior, 1e-4, 100.0), 1e-4, 100.0, np.geomspace(1e-4, 100.0, 61))
        for prior in PRIORS
    ]
    for counts, lo, hi, grid in kernels:
        probes = _probes(counts.values, lo, hi, grid)
        batched = counts(np.array(probes))
        assert batched.shape == (2, len(probes))
        assert batched.T.tolist() == [counts(x).tolist() for x in probes]


@pytest.mark.parametrize("n", [1, 3, 5, 65535, 65537, 3 * 65536 + 3])
def test_windows_are_the_columns_of_the_whole_draw(n):
    # every window edge at and next to a row end, a Philox step and a block
    whole = _uniform(n, 7)
    edges = {0, 1, 2, 3, 4, 5, n // 2, 65535, 65536, 65537, n - 3, n - 1, n}
    edges = sorted(e for e in edges if 0 <= e <= n)
    rng = np.random.default_rng(n)
    windows = [(a, b) for a in edges for b in edges if a < b]
    windows += [tuple(sorted(rng.choice(n + 1, 2, replace=False))) for _ in range(20) if n > 1]
    for first, stop in windows:
        assert np.array_equal(dist._near_oracle_window(n, 7, first, stop), whole[:, first:stop]), (first, stop)
    blocks = list(dist._near_oracle_blocks(n, 7))
    assert [first for first, _ in blocks] == list(range(0, n, dist._BLOCK))
    assert np.array_equal(np.concatenate([u for _, u in blocks], axis=1), whole)


@pytest.mark.parametrize("n", [1, 5, 70_000])
def test_pair_reader_rereads_any_pair_by_position(n, monkeypatch):
    whole = _uniform(n, 4)
    rng = np.random.default_rng(n)
    ids = rng.integers(0, n, 300)  # with repeats
    assert np.array_equal(dist._PairReader(n, 4)(ids), whole[:, ids])
    # kept pairs are read from what was kept, every other pair from the stream once
    pairs = dist._PairReader(n, 4)
    kept = np.unique(rng.integers(0, n, 5))
    pairs.keep(kept, np.zeros((4, kept.size)))
    reads = []
    window = dist._near_oracle_window
    monkeypatch.setattr(dist, "_near_oracle_window", lambda *args: reads.append(args) or window(*args))
    want = whole[:, ids]
    want[:, np.isin(ids, kept)] = 0.0
    fresh = sorted(set(ids.tolist()) - set(kept.tolist()))
    assert np.array_equal(pairs(ids), want)
    assert sorted(first for _, _, first, _ in reads) == fresh
    assert np.array_equal(pairs(ids[::-1]), want[:, ::-1])
    assert len(reads) == len(fresh)
    assert pairs(ids[:0]).shape == (4, 0)


def test_sides_equal_full_pass():
    uniforms = _uniform(5000, 8)
    for prior in PRIORS:
        for offset in (0.01, 1.0, 7.0):
            a, b = _full_pass_discordant(uniforms, prior, offset)
            want = (float(1.0 - 4.0 * np.mean(a)), float(1.0 - 4.0 * np.mean(b)))
            assert dist.mc_tau_sides_near_oracle(prior, offset, 5000, 8) == want


KERNEL_ARRAYS = ("values", "pairs", "before", "cum", "base", "irregular")


def _kernels(n, seed):
    return [dist._prior_counts(n, seed, 0.05, 0.95)] + [
        dist._offset_counts(n, seed, prior, 1e-4, 100.0) for prior in PRIORS
    ]


def _searches(n, seed):
    return [dist.sivf_equidistance_prior_near_oracle(n, seed)] + [
        dist.mc_optimal_vertex_offset_near_oracle(prior, n, seed) for prior in PRIORS
    ]


@DRAWS
@pytest.mark.parametrize(
    "block, n",
    [(1, 1500), (1000, 70_000), (1 << 16, 70_000), (70_001, 70_000)],
    ids=["1", "1000", "2**16", "above-n"],
)
def test_building_in_blocks_changes_nothing(draw, block, n, monkeypatch):
    _read_from(draw, monkeypatch)
    monkeypatch.setattr(dist, "_BLOCK", n)
    whole, whole_results = _kernels(n, 5), _searches(n, 5)
    monkeypatch.setattr(dist, "_BLOCK", block)
    for got, want in zip(_kernels(n, 5), whole):
        for name in KERNEL_ARRAYS:
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert _searches(n, 5) == whole_results


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
    # size at 10**6 pairs; read block by block, at 0.37, 0.27 and 0.20.
    tracemalloc.start()
    try:
        search()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 4 * 8 * 10**6


@MILLION_PAIR_SEARCHES
def test_searches_free_their_memory_without_the_cycle_collector(search):
    # a kernel's ``direct`` must not refer back to the kernel: such a cycle
    # would keep each search's breakpoints until the collector ran
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
