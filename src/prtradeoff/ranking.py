"""Rank vectors over finite performance sets, and distances between rankings.

The rank of an item is the number of items whose score is greater than or
equal to its own, so the best item has rank 1 and, without ties, the rank
vector is a permutation of 1..n.  Ties (within ``TIE_TOL``) share the
worst rank of their group and contribute nothing to pair discordance;
this is the conservative extension of the tie-free definitions and is the
convention used throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scores import (
    PRECISION,
    RECALL,
    TIE_TOL,
    ScoreFunction,
    UndefinedScoreError,
    normalize_parts,
    score_values,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    """The array itself, not a copy, made read-only."""
    a.flags.writeable = False
    return a


class LengthMismatchError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class PerformanceSet:
    """An ordered, immutable set of performances (index = identity).

    The set is one read-only (n, 4) float64 array ``parts`` of (ptn, pfp,
    pfn, ptp) rows.  Built from ``Performance`` objects, it stacks their
    values, which are normalized already; built from an array (see
    ``from_parts``), it normalizes the rows with ``normalize_parts``.
    Equality is identity.  What is derived from the whole set is computed
    on first use and cached.
    """

    parts: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if isinstance(self.parts, np.ndarray):
            parts = normalize_parts(self.parts)
        else:
            parts = np.array([(p.ptn, p.pfp, p.pfn, p.ptp) for p in self.parts], dtype=float)
        if not len(parts):
            raise ValueError("empty performance set")
        object.__setattr__(self, "parts", _read_only(parts))
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != len(parts):
                raise LengthMismatchError(
                    f"{len(labels)} labels for {len(parts)} items"
                )
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def total_pairs(self) -> int:
        n = len(self.parts)
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
    def from_parts(cls, parts, labels=None) -> "PerformanceSet":
        """The set of the rows of an (n, 4) array of cell values, each normalized by its total."""
        return cls(np.asarray(parts, dtype=float), labels)

    def __getstate__(self):  # a copy keeps the rows bit for bit and derives its caches anew
        return {"parts": self.parts, "labels": self.labels}

    def __setstate__(self, state):
        _read_only(state["parts"])
        self.__dict__.update(state)


class Ranking:
    """Vector of integer ranks in 1..n, aligned with a performance set's items.

    The ranks are one read-only int32 array: one given as such is kept,
    any other integer ranks are copied, and non-integer ranks raise TypeError.
    """

    def __init__(self, ranks):
        a = np.asarray(ranks)
        if a.ndim != 1 or not a.size:
            raise ValueError(f"ranks must be one non-empty vector, got shape {a.shape}")
        if a.dtype.kind not in "iu":
            raise TypeError(f"ranks must be integers, got dtype {a.dtype}")
        if a.min() < 1 or a.max() > a.size:
            raise ValueError(f"ranks must lie in 1..{a.size}")
        if a.dtype != np.int32 or a.flags.writeable:
            a = _read_only(a.astype(np.int32))
        self._ranks = a

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self._ranks.tolist())

    def __len__(self) -> int:
        return len(self._ranks)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ranking) and np.array_equal(self._ranks, other._ranks)

    def __hash__(self) -> int:
        return hash(self._ranks.tobytes())

    def __repr__(self) -> str:
        return f"Ranking(ranks={self.ranks!r})"

    def __reduce__(self):
        return Ranking, (self._ranks,)

    def as_array(self) -> np.ndarray:
        """The read-only int32 rank array itself, not a copy."""
        return self._ranks

    @property
    def has_ties(self) -> bool:
        return bool(np.bincount(self._ranks).max() > 1)


@dataclass(frozen=True, eq=False)
class CrossingSummary:
    """F-score crossing values of the pairs precision and recall order oppositely, with exclusion counters.

    Row k of ``pairs`` is the swap (ahead, behind) of the pair that
    crosses at ``thetas[k]``: every F-score with beta^2 below it puts
    ``ahead`` first, every one above it ``behind``.  Both arrays are
    read-only: a set shares them.  The path's plateaus and the optimal
    tradeoff are read from them.
    """

    thetas: np.ndarray = field(repr=False)  # float64, sorted, > 0
    degenerate_pairs: int      # pairs tied under every F-score (excluded)
    unanimous_pairs: int       # neither degenerate nor contradicted: precision and recall agree, or one of them ties the pair
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

        A crossing joins the current group, one transition of the
        ranking, when it lies within TIE_TOL of the group's first crossing.
        Only crossings within TIE_TOL of their predecessor need that test.
        """
        ts = self.thetas
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
        return _read_only(np.flatnonzero(opens))

    @cached_property
    def transition_betas(self) -> np.ndarray:
        """Read-only betas at which the ranking changes: the square roots of the transitions' crossings."""
        return _read_only(np.sqrt(self.thetas[self.transitions]))

    @property
    def coalesced(self) -> bool:
        """Whether some transition groups several crossings."""
        return len(self.transitions) < self.n_crossings


def beta_grid(grid_points: int, grid_span: tuple[float, float], extra) -> np.ndarray:
    """Sorted distinct betas of ``np.geomspace(*grid_span, grid_points)``, 0 and ``extra``.

    ValueError unless ``0 < grid_span[0] <= grid_span[1] < inf``.
    """
    lo, hi = grid_span
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(f"grid span must satisfy 0 < min <= max < inf, got {grid_span!r}")
    # sorted, then each value that differs from its left neighbour: np.unique's
    # result, without the numpy.ma import its first call makes
    grid = np.sort(np.concatenate([np.geomspace(*grid_span, grid_points), [0.0], extra]))
    return grid[np.concatenate([[True], grid[1:] != grid[:-1]])]


def _check_betas(betas) -> np.ndarray:
    """The betas as a float array; ValueError unless each is >= 0 (NaN is not)."""
    b = np.asarray(betas, dtype=float)
    bad = np.flatnonzero(~(b >= 0))
    if bad.size:
        raise ValueError(f"beta must be >= 0, got {float(b.reshape(-1)[bad[0]])!r}")
    return b


def pair_crossings(pset: PerformanceSet) -> CrossingSummary:
    """The crossings of the set's contradicted pairs, computed anew; ``pset.crossings`` keeps one summary per set."""
    parts = pset.parts
    n = len(pset)
    if n < 2:
        raise ValueError("need at least 2 items")
    tn, fp, fn, tp = parts.T
    iu, ju = np.triu_indices(n, 1)
    num = tp[iu] * fp[ju] - tp[ju] * fp[iu]
    den = tp[iu] * fn[ju] - tp[ju] * fn[iu]
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = -num / den  # den == 0 gives NaN for a degenerate pair (num == 0 too), else +-inf
    # the temporaries are O(n^2): release each as soon as it is used
    j_ahead = num < 0  # F_beta(i) - F_beta(j) has the sign of num + beta^2 den: j is ahead below theta
    del num, den
    n_deg = int(np.isnan(theta).sum())
    crossing = np.flatnonzero((theta > 0) & (theta < np.inf))
    theta = theta[crossing]
    order = np.argsort(theta)
    theta, crossing = theta[order], crossing[order]
    del order
    swap = j_ahead[crossing]
    pairs = np.empty((len(crossing), 2), dtype=np.int32)  # n^2 memory keeps n far below 2^31
    pairs[:, 0] = iu[crossing]
    pairs[:, 1] = ju[crossing]
    pairs[swap] = pairs[swap, ::-1]  # (ahead, behind)
    return CrossingSummary(
        thetas=_read_only(theta),
        degenerate_pairs=n_deg,
        unanimous_pairs=len(iu) - n_deg - len(crossing),
        pairs=_read_only(pairs),
    )


def _tie_slack(parts: np.ndarray, i: np.ndarray, j: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per crossing pair (i, j): how close beta^2 must be to theta, over 1 + theta, for a tie.

    With P = pfp + ptp, R = pfn + ptp and S = max(P, R), the F-score gap
    of the pair at beta^2 = x is (1 + x) |den| |x - theta| / (D_i D_j),
    where D = P + x R <= (1 + x) S.  So the pair can tie under TIE_TOL, or
    be ordered against its theta, only where |x - theta| <= c (1 + x),
    c = TIE_TOL S_i S_j / |den| (doubled here for the rounding of the
    F-scores).  Theta's own rounding error is added; (j, i) gives the same bits.
    """
    tn, fp, fn, tp = parts.T
    s = np.maximum(fp + tp, fn + tp)
    a, b = tp[i] * fp[j], tp[j] * fp[i]
    c, d = tp[i] * fn[j], tp[j] * fn[i]
    den = np.abs(c - d)
    theta_error = 4.0 * np.finfo(float).eps * (a + b + theta * (c + d)) / den
    return 2.0 * TIE_TOL * (s[i] * s[j]) / den + theta_error / (1.0 + theta)


def ranks_from_values(values: np.ndarray) -> np.ndarray:
    """rank[i] = #{j : values[j] >= values[i] - TIE_TOL} (ties share the worst rank)."""
    v = np.asarray(values, dtype=float)
    return (v[None, :] - v[:, None] >= -TIE_TOL).sum(axis=1, dtype=np.int32)


def rank_by_score(pset: PerformanceSet, score: ScoreFunction) -> Ranking:
    """Ranking induced by a score; raises UndefinedScoreError for items outside its domain."""
    values = score_values(score, pset.parts)
    bad = np.flatnonzero(np.isnan(values))
    if bad.size:
        raise UndefinedScoreError(int(bad[0]), score.label())
    return Ranking(_read_only(ranks_from_values(values)))  # the ranking keeps this array as it is


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
    a, b = r1.as_array(), r2.as_array()
    prod = np.sign(a[:, None] - a) * np.sign(b[:, None] - b)
    discordant = int((np.triu(prod, 1) < 0).sum())
    return discordant, n * (n - 1) // 2


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
    diff = np.subtract(r1.as_array(), r2.as_array(), dtype=np.int64)  # int32 squares overflow
    return float(np.sqrt((diff * diff).sum()))
