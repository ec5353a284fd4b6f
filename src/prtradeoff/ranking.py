"""Rank vectors over finite performance sets, and distances between rankings.

The rank of an item is the number of items whose score is greater than or
equal to its own, so the best item has rank 1 and, without ties, the rank
vector is a permutation of 1..n.  Ties (within ``TIE_TOL``) share the
worst rank of their group and contribute nothing to pair discordance;
this is the conservative extension of the tie-free definitions and is the
convention used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scores import (
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
    """An ordered, immutable collection of performances (index = identity)."""

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
        object.__setattr__(
            self, "_parts", np.array([p.as_array() for p in items])
        )

    def __len__(self) -> int:
        return len(self.items)

    @property
    def parts(self) -> np.ndarray:
        """(n, 4) array of (ptn, pfp, pfn, ptp) rows."""
        return self._parts

    @property
    def total_pairs(self) -> int:
        n = len(self.items)
        return n * (n - 1) // 2

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


def ranks_from_values(values: np.ndarray, tol: float = TIE_TOL) -> np.ndarray:
    """rank[i] = #{j : values[j] >= values[i] - tol} (ties share the worst rank)."""
    v = np.asarray(values, dtype=float)
    return (v[None, :] - v[:, None] >= -tol).sum(axis=1)


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
