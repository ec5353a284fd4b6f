"""The discrete manifold of rankings swept by the F-score family.

Sweeping beta from 0 (precision) to infinity (recall) over a fixed
tie-free set, the induced ranking is piecewise constant and changes only
at the pairwise crossing betas.  The resulting path of rankings, one per
plateau, materializes the curve along which the optimal tradeoff lives;
projecting the rank vectors to two principal components reproduces the
usual picture of that curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ranking import PerformanceSet, Ranking, _check_betas, _read_only, rank_by_score
from .scores import F1, SIVF, UndefinedScoreError


class DegenerateSpreadError(ValueError):
    """All rankings identical: nothing to project."""


@dataclass(frozen=True, eq=False)
class RankingPath:
    """Plateau-by-plateau record of the beta sweep over one set, in read-only arrays.

    ``transition_betas`` is the set's ``crossings.transition_betas``, the
    betas at which the ranking changes; ``ranks`` has one row of ranks
    per plateau, so it is one longer.  ``swaps[k]`` is
    the number of pair swaps from precision to plateau k, which is the
    number of pairs plateau k orders against precision; the last one is
    d(Pr, Re).  Whether crossings coalesce, and the optimal beta^2, are
    the set's: ``pset.crossings``.  Paths compare by identity.
    """

    pset: PerformanceSet
    transition_betas: np.ndarray  # (n_plateaus - 1,) float64
    ranks: np.ndarray = field(repr=False)  # (n_plateaus, n_items) int32
    swaps: np.ndarray  # (n_plateaus,) int64

    @property
    def n_plateaus(self) -> int:
        return len(self.ranks)

    def ranking(self, k: int) -> Ranking:
        """The ranking on plateau k, a view of its row."""
        return Ranking(self.ranks[k])

    def plateau_of(self, beta):
        """Index of the plateau containing the given beta; an array of betas gives an array."""
        k = np.searchsorted(self.transition_betas, _check_betas(beta), "left")
        return int(k) if k.ndim == 0 else k

    @property
    def optimal_plateau(self) -> int:
        """Plateau whose distance from precision is nearest to half the total."""
        return int(np.argmin(np.abs(2 * self.swaps - self.swaps[-1])))  # the first, on a tie


def build_path(pset: PerformanceSet) -> RankingPath:
    """Enumerate every ranking induced by the F-score family on the set.

    Requires a tie-free set (distinct precision values and distinct
    recall values).  The first plateau is precision itself.  At each of
    the set's ``crossings.transitions`` every row (ahead, behind) of the
    group's ``crossings.pairs`` swaps: ``ahead``, first under precision on
    such a set, gains one rank and ``behind`` loses one.  A plateau's
    distance from precision is the number of swaps so far; the last
    plateau is checked against recall.  Every array of the path is returned read-only.
    """
    r_pr, r_re = pset.endpoint_rankings
    if r_pr.has_ties or r_re.has_ties:
        raise ValueError("set has tied precision or recall values; path is ambiguous")

    crossings = pset.crossings
    bounds = np.append(crossings.transitions, crossings.n_crossings)  # plateau k >= 1 swaps bounds[k-1]:bounds[k]
    group = np.repeat(np.arange(1, len(bounds)), np.diff(bounds))

    ranks = np.zeros((len(bounds), len(pset)), dtype=np.int32)
    ranks[0] = r_pr.as_array()
    ahead, behind = crossings.pairs.T
    np.add.at(ranks, (group, ahead), 1)
    np.add.at(ranks, (group, behind), -1)
    np.cumsum(ranks, axis=0, out=ranks)
    if not np.array_equal(ranks[-1], r_re.as_array()):
        raise RuntimeError("last plateau does not match the recall ranking")

    return RankingPath(pset, crossings.transition_betas, _read_only(ranks), _read_only(bounds))


def marker_rankings(path: RankingPath) -> dict[str, Ranking]:
    """Rankings of the named scores, for plotting on top of the path.

    Precision and recall are the path endpoints already.  The balanced
    and the skew-insensitive F-scores are ranked directly (so F1 ties the
    pairs of a crossing at beta = 1), each skipped when undefined on the
    set; the optimal tradeoff is the plateau of the median crossing.
    """
    out = {}
    for name, score in (("f1", F1), ("sivf", SIVF)):
        try:
            out[name] = rank_by_score(path.pset, score)
        except UndefinedScoreError:
            pass
    b2_star = path.pset.crossings.beta_star_squared
    out["optimal"] = path.ranking(path.plateau_of(math.sqrt(b2_star or 0.0)))
    return out


def pca_project(
    path: RankingPath, markers: dict[str, Ranking]
) -> tuple[np.ndarray, tuple[float, float]]:
    """Two-component principal projection of the path's rank vectors and the given markers.

    Rows of the returned coordinate array follow the path plateaus, then
    the rankings of ``markers`` (usually ``marker_rankings(path)``, or an
    empty dict) in their iteration order.  The projection is an orthogonal map of
    the centered rank vectors, so pairwise planar distances never exceed
    the corresponding Spearman distances.  Component signs are fixed
    (first nonzero loading positive) to make outputs reproducible.
    """
    x = np.vstack([path.ranks, *(r.as_array() for r in markers.values())], dtype=float)
    x -= x.mean(axis=0, keepdims=True)
    cov = x.T @ x / max(len(x) - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    total = float(eigvals.sum())
    if total <= 0.0:
        raise DegenerateSpreadError("all rankings identical")
    comps = eigvecs[:, order[:2]]
    for j in range(comps.shape[1]):
        nz = np.flatnonzero(np.abs(comps[:, j]) > 1e-12)
        if nz.size and comps[nz[0], j] < 0:
            comps[:, j] = -comps[:, j]
    coords = x @ comps
    explained = (float(eigvals[0]) / total, float(eigvals[1]) / total)
    return coords, explained


def rank_trajectories(path: RankingPath) -> np.ndarray:
    """(n_items, n_plateaus) read-only view of the path's ranks: one step function of beta per item."""
    return path.ranks.T
