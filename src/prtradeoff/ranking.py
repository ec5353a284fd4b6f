"""Rank vectors over finite performance sets, and distances between rankings.

The rank of an item is the number of items whose score is greater than or
equal to its own, so the best item has rank 1 and, without ties, the rank
vector is a permutation of 1..n.  Ties (within ``TIE_TOL``) share the
worst rank of their group and contribute nothing to pair discordance;
this is the conservative extension of the tie-free definitions and is the
convention used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scores import (
    PRECISION,
    RECALL,
    TIE_TOL,
    Performance,
    ScoreFunction,
    UndefinedScoreError,
    score_values,
)


class LengthMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class PerformanceSet:
    """An ordered, immutable collection of performances (index = identity).

    What is derived from the whole set is computed on first use and cached.
    """

    items: tuple[Performance, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        items = tuple(self.items)
        if not items:
            raise ValueError("empty performance set")
        object.__setattr__(self, "items", items)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(items):
                raise LengthMismatchError(
                    f"{len(labels)} labels for {len(items)} items"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def parts(self) -> np.ndarray:
        """(n, 4) array of (ptn, pfp, pfn, ptp) rows."""
        return np.array([p.as_array() for p in self.items])

    @property
    def total_pairs(self) -> int:
        n = len(self.items)
        return n * (n - 1) // 2

    @cached_property
    def crossings(self) -> CrossingSummary:
        """The set's ``pair_crossings``, which every finite-set quantity counts over."""
        return pair_crossings(self)

    @cached_property
    def endpoint_rankings(self) -> tuple[Ranking, Ranking]:
        """The precision and recall rankings, the two ends of the F-score path."""
        return rank_by_score(self, PRECISION), rank_by_score(self, RECALL)

    @classmethod
    def from_parts(cls, parts: np.ndarray, labels=None) -> "PerformanceSet":
        return cls(tuple(Performance(*row) for row in np.asarray(parts)), labels)


@dataclass(frozen=True)
class Ranking:
    """Vector of integer ranks, aligned with a performance set's items."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        n = len(ranks)
        if n == 0:
            raise ValueError("empty ranking")
        if any(r < 1 or r > n for r in ranks):
            raise ValueError(f"ranks must lie in 1..{n}")
        object.__setattr__(self, "ranks", ranks)

    def __len__(self) -> int:
        return len(self.ranks)

    def as_array(self) -> np.ndarray:
        return np.array(self.ranks)

    @property
    def has_ties(self) -> bool:
        return len(set(self.ranks)) != len(self.ranks)


@dataclass(frozen=True, eq=False)
class CrossingSummary:
    """All pairwise F-score crossing values of a set, with exclusion counters.

    Row k of ``pairs`` holds the item indices (i < j) of the pair that
    crosses at ``thetas[k]``.  Both arrays are read-only: a set shares them.
    The path's plateaus and the optimal tradeoff are read from them.
    """

    thetas: np.ndarray = field(repr=False)  # float64, sorted, >= 0
    degenerate_pairs: int      # pairs tied under every F-score (excluded)
    unanimous_pairs: int       # pairs with no finite equalizing beta
    pairs: np.ndarray = field(repr=False)

    @property
    def n_crossings(self) -> int:
        return len(self.thetas)

    @property
    def beta_star_interval(self) -> tuple[float, float] | None:
        """The two middle crossings: the beta^2 range minimizing the Frechet variance, or None."""
        m = self.n_crossings
        return (float(self.thetas[(m - 1) // 2]), float(self.thetas[m // 2])) if m else None

    @property
    def beta_star_squared(self) -> float | None:
        """The median crossing value (as ``np.median`` gives it), or None when there is no crossing."""
        if not self.n_crossings:
            return None
        lo, hi = self.beta_star_interval
        return lo if self.n_crossings % 2 else (lo + hi) / 2

    @cached_property
    def transitions(self) -> np.ndarray:
        """Read-only indices into ``thetas`` of the crossings that open a plateau.

        A positive crossing joins the current group, one transition of the
        ranking, when it lies within TIE_TOL of the group's first crossing.
        Only crossings within TIE_TOL of their predecessor need that test.
        """
        first = int(np.searchsorted(self.thetas, 0.0, "right"))  # thetas are sorted and >= 0
        ts = self.thetas[first:]
        opens = np.ones(len(ts), dtype=bool)
        opens[1:] = np.diff(ts) > TIE_TOL
        close = np.flatnonzero(~opens)
        head, last = 0.0, -2
        for k, t, before in zip(close.tolist(), ts[close].tolist(), ts[close - 1].tolist()):
            if k - 1 != last:  # the crossing before k opened a group
                head = before
            if t - head > TIE_TOL:
                opens[k] = True
                head = t
            last = k
        out = np.flatnonzero(opens) + first
        out.flags.writeable = False
        return out

    @property
    def coalesced(self) -> bool:
        """Whether some transition groups several positive crossings."""
        starts = self.transitions
        return bool(len(starts)) and len(starts) < self.n_crossings - int(starts[0])


def beta_grid(grid_points: int, grid_span: tuple[float, float], extra) -> np.ndarray:
    """Sorted distinct betas of ``np.geomspace(*grid_span, grid_points)``, 0 and ``extra``."""
    return np.unique(np.concatenate([np.geomspace(*grid_span, grid_points), [0.0], extra]))


def _check_betas(betas) -> np.ndarray:
    """The betas as a float array; ValueError unless each is >= 0 (NaN is not)."""
    b = np.asarray(betas, dtype=float)
    bad = np.flatnonzero(~(b >= 0))
    if bad.size:
        raise ValueError(f"beta must be >= 0, got {b.reshape(-1)[bad[0]]!r}")
    return b


def pair_crossings(pset: PerformanceSet) -> CrossingSummary:
    """All crossings of the set, computed anew; ``pset.crossings`` keeps one summary per set."""
    parts = pset.parts
    n = len(pset)
    if n < 2:
        raise ValueError("need at least 2 items")
    tn, fp, fn, tp = parts.T
    iu, ju = np.triu_indices(n, 1)
    num = tp[iu] * fp[ju] - tp[ju] * fp[iu]
    den = tp[iu] * fn[ju] - tp[ju] * fn[iu]
    degenerate = (num == 0) & (den == 0)
    n_deg = int(degenerate.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = np.where(den != 0, -num / den, np.inf)
    # the temporaries are O(n^2): release each as soon as it is used
    del num, den
    crossing = np.flatnonzero(~degenerate & np.isfinite(theta) & (theta >= 0))
    del degenerate
    theta = theta[crossing]
    order = np.argsort(theta)
    theta = theta[order] + 0.0  # + 0.0 normalizes -0.0
    crossing = crossing[order]
    del order
    pairs = np.empty((len(crossing), 2), dtype=np.int32)  # n^2 memory keeps n far below 2^31
    pairs[:, 0] = iu[crossing]
    pairs[:, 1] = ju[crossing]
    theta.flags.writeable = False
    pairs.flags.writeable = False
    return CrossingSummary(
        thetas=theta,
        degenerate_pairs=n_deg,
        unanimous_pairs=len(iu) - n_deg - len(crossing),
        pairs=pairs,
    )


def ranks_from_values(values: np.ndarray) -> np.ndarray:
    """rank[i] = #{j : values[j] >= values[i] - TIE_TOL} (ties share the worst rank)."""
    v = np.asarray(values, dtype=float)
    return (v[None, :] - v[:, None] >= -TIE_TOL).sum(axis=1)


def rank_by_score(pset: PerformanceSet, score: ScoreFunction) -> Ranking:
    """Ranking induced by a score; raises UndefinedScoreError for items outside its domain."""
    values = score_values(score, pset.parts)
    bad = np.flatnonzero(np.isnan(values))
    if bad.size:
        raise UndefinedScoreError(int(bad[0]), score.label())
    return Ranking(tuple(int(r) for r in ranks_from_values(values)))


def _pair_signs(r: Ranking) -> np.ndarray:
    a = r.as_array()
    return np.sign(a[:, None] - a[None, :])


def discordance(r1: Ranking, r2: Ranking) -> tuple[int, int]:
    """(number of pairs ranked in opposite order, total number of pairs).

    Pairs tied in either ranking are not discordant.  Counts are exact
    integers.
    """
    if len(r1) != len(r2):
        raise LengthMismatchError(f"rankings of length {len(r1)} and {len(r2)}")
    n = len(r1)
    if n < 2:
        raise ValueError("need at least 2 items for pairwise statistics")
    prod = _pair_signs(r1) * _pair_signs(r2)
    discordant = int((np.triu(prod, 1) < 0).sum())
    return discordant, n * (n - 1) // 2


# Half-width, relative to 1 + probe, of the band of breakpoints around a
# probe whose pairs ``_SideCounts`` decides directly.  It sets only how much
# work goes to those direct decisions, never a result.
_BAND = 1e-6
# Most (probe, pair) combinations of irregular pairs decided at once: bounds memory.
_BLOCK = 1 << 18


class _SideCounts:
    """Discordant-pair counts [A, B] at any probe of one variable, from breakpoints sorted once.

    Along a one-parameter family of scores a pair changes its state (in A,
    in B, or neither) only at its breakpoints in the parameter, so the
    counts at a probe are the states of all pairs past their breakpoints,
    found with ``searchsorted``.  ``direct(probes, k, ids)`` decides pair
    ``ids[t]`` at ``probes[k[t]]`` for every t and returns two boolean
    arrays: whether each of these combos is in A, and whether it is in B.
    It decides each pair with a breakpoint within ``_BAND (1 + probe)`` of
    a probe, and the ``irregular`` pairs at every probe.

    Each regular pair ``ids[i]`` enters with ``start[:, i]``, its (A, B)
    below every breakpoint, and with one entry in each of ``slots``, a list
    of (values, jumps) arrays that this consumes.  Across the slots a
    pair's values increase, and the (2, m) jumps change (A, B) at them.
    Probes lie in [lo, hi]: breakpoints above ``hi`` plus the widest band
    are dropped, and positive ones below ``lo`` minus it are folded into
    the starting counts.  NaN is no breakpoint, nor is a value <= 0 below
    that range.
    """

    def __init__(self, direct, irregular, ids, start, slots: list, lo: float, hi: float):
        self.direct = direct
        self.irregular = irregular
        left = lo - 2.0 * _BAND * (1.0 + lo)
        right = hi + 2.0 * _BAND * (1.0 + hi)
        self.base = start.sum(axis=1)
        state = start
        kept = []
        while slots:  # consumed slot by slot, to free each as soon as it is used
            values, jumps = slots.pop(0)
            fold = (values > 0) & (values < left)
            self.base += jumps[:, fold].sum(axis=1)
            state[:, fold] += jumps[:, fold]
            k = np.flatnonzero((values >= left) & (values <= right))
            kept.append((values[k], ids[k], state[:, k], jumps[:, k]))
            state[:, k] += jumps[:, k]
        values, pairs, before, jumps = (np.concatenate(x, axis=-1) for x in zip(*kept))
        del kept
        order = np.argsort(values)
        self.values = values[order]
        self.pairs = pairs[order]
        self.n_ids = int(pairs.max()) + 1 if pairs.size else 1
        self.before = before[:, order].astype(bool)  # (A, B) of the pair just below the breakpoint
        self.cum = np.zeros((2, len(order) + 1), np.int32)
        np.cumsum(jumps[:, order], axis=1, out=self.cum[:, 1:])

    def __call__(self, probes) -> np.ndarray:
        """(2, m) counts at an array of m probes; (2,) at a scalar probe."""
        at = np.asarray(probes, dtype=float)
        p = at.reshape(-1)
        m = len(p)
        band = np.where(np.isinf(p), 0.0, _BAND * (1.0 + p))
        k0 = np.searchsorted(self.values, p - band, "left")
        k1 = np.searchsorted(self.values, p + band, "right")
        counts = self.base[:, None] + self.cum[:, k0]
        width = k1 - k0
        if width.any():
            # pairs with a breakpoint in a probe's band replace their state
            # below it, once per probe even with several breakpoints there
            k = np.repeat(np.arange(m), width)
            pos = np.arange(len(k)) + np.repeat(k0 - (np.cumsum(width) - width), width)
            _, first = np.unique(k * self.n_ids + self.pairs[pos], return_index=True)
            k, pos = k[first], pos[first]
            counts += _tally(k, self.direct(p, k, self.pairs[pos]), m)
            counts -= _tally(k, self.before[:, pos], m)
        if self.irregular.size:
            step = max(1, _BLOCK // self.irregular.size)
            for s in range(0, m, step):
                block = np.arange(s, min(s + step, m))
                k = np.repeat(block, self.irregular.size)
                counts += _tally(k, self.direct(p, k, np.tile(self.irregular, len(block))), m)
        return counts if at.ndim else counts[:, 0]


def _tally(k: np.ndarray, flags, m: int) -> np.ndarray:
    """(2, m): per probe, how many of the combos at probes ``k`` have each of the two flags."""
    a, b = flags
    return np.array([np.bincount(k[a], minlength=m), np.bincount(k[b], minlength=m)])


def kendall_distance(r1: Ranking, r2: Ranking) -> float:
    """Fraction of discordant pairs, in [0, 1]."""
    d, total = discordance(r1, r2)
    return d / total


def kendall_tau(r1: Ranking, r2: Ranking) -> float:
    """Rank correlation: 1 - 2 * kendall_distance, in [-1, 1]."""
    d, total = discordance(r1, r2)
    return 1.0 - 2.0 * d / total


def spearman_distance(r1: Ranking, r2: Ranking) -> float:
    """Euclidean (straight-line) distance between the two rank vectors."""
    if len(r1) != len(r2):
        raise LengthMismatchError(f"rankings of length {len(r1)} and {len(r2)}")
    diff = r1.as_array() - r2.as_array()
    return float(np.sqrt((diff * diff).sum()))
