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

from .ranking import PerformanceSet, Ranking, _check_betas, beta_grid, rank_by_score
from .scores import SIVF, UndefinedScoreError


class DegenerateSpreadError(ValueError):
    """All rankings identical: nothing to project."""


@dataclass(frozen=True)
class RankingPath:
    """Plateau-by-plateau record of the beta sweep over one set.

    ``transition_betas`` holds the distinct betas (square roots of the
    crossing beta^2 values) at which the ranking changes; ``ranks`` has
    one row of ranks per plateau, so it is one longer, and is read-only:
    consumers read it in place.  ``swaps[k]`` is the number of pair swaps
    from precision to plateau k, which is the number of pairs plateau k
    orders against precision; the last one is d(Pr, Re).  Whether
    crossings coalesce, and the optimal beta^2, are the set's:
    ``pset.crossings``.
    """

    pset: PerformanceSet
    transition_betas: tuple[float, ...]
    ranks: np.ndarray = field(compare=False, repr=False)  # (n_plateaus, n_items), read-only
    swaps: tuple[int, ...]

    @property
    def n_plateaus(self) -> int:
        return len(self.ranks)

    def ranking(self, k: int) -> Ranking:
        """The ranking on plateau k."""
        return Ranking(tuple(self.ranks[k].tolist()))

    def plateau_of(self, beta):
        """Index of the plateau containing the given beta; an array of betas gives an array."""
        k = np.searchsorted(self.transition_betas, _check_betas(beta), "left")
        return int(k) if k.ndim == 0 else k

    @property
    def optimal_plateau(self) -> int:
        """Plateau whose distance from precision is nearest to half the total."""
        gaps = [abs(2 * s - self.swaps[-1]) for s in self.swaps]
        return gaps.index(min(gaps))


def build_path(pset: PerformanceSet) -> RankingPath:
    """Enumerate every ranking induced by the F-score family on the set.

    Requires a tie-free set (distinct precision values and distinct
    recall values).  The first plateau is precision itself.  At each of
    the set's ``crossings.transitions`` every pair of the group swaps from
    its precision order to its recall order: the item that was ahead gains
    one rank, the other loses one.  A plateau's distance from precision
    is the number of swaps so far; the last plateau is checked against
    recall.  The rank matrix is returned read-only.
    """
    r_pr, r_re = pset.endpoint_rankings
    if r_pr.has_ties or r_re.has_ties:
        raise ValueError("set has tied precision or recall values; path is ambiguous")

    crossings = pset.crossings
    starts = crossings.transitions
    bounds = np.append(starts, crossings.n_crossings)  # plateau k >= 1 swaps bounds[k-1]:bounds[k]
    group = np.repeat(np.arange(1, len(bounds)), np.diff(bounds))

    ranks = np.zeros((len(bounds), len(pset)), dtype=np.int64)
    ranks[0] = r_pr.as_array()
    i, j = crossings.pairs[bounds[0]:].T
    i_first = ranks[0, i] < ranks[0, j]
    ahead, behind = np.where(i_first, i, j), np.where(i_first, j, i)
    np.add.at(ranks, (group, ahead), 1)
    np.add.at(ranks, (group, behind), -1)
    np.cumsum(ranks, axis=0, out=ranks)
    if not np.array_equal(ranks[-1], r_re.as_array()):
        raise RuntimeError("last plateau does not match the recall ranking")

    ranks.flags.writeable = False
    return RankingPath(
        pset=pset,
        transition_betas=tuple(np.sqrt(crossings.thetas[starts]).tolist()),
        ranks=ranks,
        swaps=tuple((bounds - bounds[0]).tolist()),
    )


def marker_rankings(path: RankingPath) -> dict[str, Ranking]:
    """Rankings of the named scores, for plotting on top of the path.

    Precision and recall are the path endpoints already.  The balanced
    F-score reuses its plateau's ranking; the skew-insensitive score is
    ranked directly (and skipped when undefined on the set); the optimal
    tradeoff is the plateau of the median crossing.
    """
    out = {"f1": path.ranking(path.plateau_of(1.0))}
    try:
        out["sivf"] = rank_by_score(path.pset, SIVF)
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
    x = np.vstack([path.ranks, *(r.ranks for r in markers.values())], dtype=float)
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


def correlations_vs_beta(
    path: RankingPath, grid_points: int, grid_span: tuple[float, float]
) -> list[tuple[float, float, float]]:
    """(beta, tau(Pr, F_beta), tau(F_beta, Re)) rows on a log grid plus 0 and every transition beta.

    Exact step values from the plateau swap counts, via the shortest-path
    identity d(Pr, Re) = d(Pr, F) + d(F, Re), as correctly rounded ratios
    of discordant-pair counts.
    """
    total = path.pset.total_pairs
    grid = beta_grid(grid_points, grid_span, path.transition_betas)
    n1 = np.array(path.swaps)[path.plateau_of(grid)]
    tau1, tau2 = ((total - 2 * n) / total for n in (n1, path.swaps[-1] - n1))
    return list(zip(grid.tolist(), tau1.tolist(), tau2.tolist()))


def rank_trajectories(path: RankingPath) -> np.ndarray:
    """(n_items, n_plateaus) read-only view of the path's ranks: one step function of beta per item."""
    return path.ranks.T
