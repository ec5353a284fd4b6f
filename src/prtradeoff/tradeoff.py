"""The optimal ranking tradeoff between precision and recall.

For any finite performance set, the rankings induced by the F-score
family sweep a shortest path (in Kendall distance) from the
precision-induced ranking to the recall-induced one.  The ranking changes
only at the finitely many ``beta^2`` values at which two performances
receive equal F-scores; the median of those crossing values is the
optimal tradeoff, the minimizer of the Frechet variance
``d^2(precision, F) + d^2(F, recall)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .ranking import _BAND, PerformanceSet, _check_betas, _SideCounts, beta_grid, discordance
from .ranking import pair_crossings, rank_by_score
from .scores import (
    F1,
    PRECISION,
    RECALL,
    SIVF,
    TIE_TOL,
    Performance,
    ScoreFunction,
    UndefinedScoreError,
    fbeta,
    fbeta_values,
)


class DegeneratePairError(ValueError):
    """Two performances that every F-score puts on an equal footing."""


class ZeroDenominatorError(ZeroDivisionError):
    pass


def crossing_beta_squared(p1: Performance, p2: Performance) -> float | None:
    """The beta^2 at which the two performances get equal F-scores.

    Returns None when no such finite beta exists: either the ratio is
    negative (the pair is ordered the same way by precision and recall,
    so no F-score can reverse it) or only recall equalizes them.  Raises
    DegeneratePairError when the pair is tied under every F-score.
    """
    summary = pair_crossings(PerformanceSet((p1, p2)))
    if summary.degenerate_pairs:
        raise DegeneratePairError("pair is equivalent under every F-score")
    return float(summary.thetas[0]) if summary.n_crossings else None


def optimal_beta(pset: PerformanceSet) -> tuple[float | None, np.ndarray]:
    """Median crossing value (the optimal beta^2) and the sorted crossings.

    The crossings are the set's own read-only array
    (``pset.crossings.thetas``), not a copy.  Returns None and an empty
    array when precision and recall already agree on every pair, in which
    case every beta is optimal.  Degenerate pairs are excluded from the
    median pool; their count is available through ``pset.crossings``.
    """
    summary = pset.crossings
    return summary.beta_star_squared, summary.thetas


def _tie_slack(parts: np.ndarray, i: np.ndarray, j: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per pair: how close beta^2 must be to theta, over 1 + theta, for a tie.

    With P = pfp + ptp, R = pfn + ptp and S = max(P, R), the F-score gap
    of the pair at beta^2 = x is (1 + x) |den| |x - theta| / (D_i D_j),
    where D = P + x R <= (1 + x) S.  So the pair can tie under TIE_TOL, or
    be ordered against its theta, only where |x - theta| <= c (1 + x),
    c = TIE_TOL S_i S_j / |den| (doubled here for the rounding of the
    F-scores).  The rounding error of theta itself is added.
    """
    tn, fp, fn, tp = parts.T
    s = np.maximum(fp + tp, fn + tp)
    a, b = tp[i] * fp[j], tp[j] * fp[i]
    c, d = tp[i] * fn[j], tp[j] * fn[i]
    den = np.abs(c - d)
    theta_error = 4.0 * np.finfo(float).eps * (a + b + theta * (c + d)) / den
    return 2.0 * TIE_TOL * s[i] * s[j] / den + theta_error / (1.0 + theta)


def _side_counts(pset: PerformanceSet, betas) -> tuple[np.ndarray, np.ndarray]:
    """d(Pr, F_beta) and d(F_beta, Re) as discordant-pair counts, one per beta.

    Only a crossing pair can be discordant with either endpoint.  Each
    one is decided by comparing its own two F-scores under TIE_TOL, as a
    ranking would; counting makes that cheap.  A pair that precision and
    recall order strictly oppositely keeps the precision order below its
    theta and takes the recall order above it: its one breakpoint, in
    beta^2, for ``_SideCounts``.  Pairs that tie under precision or recall
    or whose tie slack does not fit twice in the band are irregular: they
    are compared directly at every probe.
    """
    betas = _check_betas(betas)
    with np.errstate(over="ignore"):
        b2 = betas * betas
    # a finite beta whose square overflows leaves every F-score undefined
    bad = np.flatnonzero(np.isinf(b2) & np.isfinite(betas))
    if bad.size:
        raise UndefinedScoreError(0, fbeta(betas[bad[0]]).label())
    parts = pset.parts
    r_pr, r_re = (r.as_array() for r in pset.endpoint_rankings)
    i, j = pset.crossings.pairs.T
    theta = pset.crossings.thetas
    s_pr = np.sign(r_pr[j] - r_pr[i])  # +1 where item i is ahead
    s_re = np.sign(r_re[j] - r_re[i])
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = (s_pr * s_re < 0) & (_tie_slack(parts, i, j, theta) <= _BAND / 2)
    reg = np.flatnonzero(regular)
    # below theta the F order is precision's, so the pair is in B; above it, in A
    start = np.array([[0], [1]], np.int8).repeat(len(reg), axis=1)
    jumps = np.broadcast_to(np.array([[1], [-1]], np.int8), start.shape)

    def direct(probes, k, pair):
        b = betas[k]  # beta itself: the F-scores square it on their own
        gap = fbeta_values(parts[i[pair]], b) - fbeta_values(parts[j[pair]], b)
        s_f = np.where(gap > TIE_TOL, 1, np.where(gap < -TIE_TOL, -1, 0))
        return s_pr[pair] * s_f < 0, s_f * s_re[pair] < 0

    block = (np.flatnonzero(~regular), reg, start, [(theta[reg], jumps)])
    counts = _SideCounts(direct, [block], 0.0, math.inf)
    d_pr, d_re = counts(b2)
    return d_pr, d_re


def frechet_variance(pset: PerformanceSet, beta: float) -> float:
    """d^2(precision, F_beta) + d^2(F_beta, recall) on the set, in [0, 2]."""
    return frechet_curve(pset, [beta])[0][1]


def frechet_curve(
    pset: PerformanceSet,
    betas=None,
    grid_points: int = 41,
    grid_span: tuple[float, float] = (1e-3, 1e3),
) -> list[tuple[float, float]]:
    """Sampled (beta, Frechet variance) curve.

    The variance is piecewise constant between ranking transitions, so
    when ``betas`` is not given the log-spaced grid is augmented with the
    transition betas themselves and the geometric midpoints of adjacent
    transitions: every plateau, including the optimal one, is probed.
    The transitions and the counts come from the set's cached crossings.
    """
    if betas is None:
        thetas = pset.crossings.thetas
        roots = np.sqrt(thetas[thetas > 0])
        mids = np.sqrt(roots[:-1] * roots[1:])
        betas = beta_grid(grid_points, grid_span, np.concatenate([roots, mids, 2.0 * roots[-1:]]))
    d1, d2 = (d / pset.total_pairs for d in _side_counts(pset, betas))
    return list(zip(np.asarray(betas, dtype=float).tolist(), (d1 * d1 + d2 * d2).tolist()))


def geodesic_check(pset: PerformanceSet, betas) -> list[int]:
    """Exact integer residuals of the shortest-path identity, one per beta.

    residual = discordant(Pr, Re) - discordant(Pr, F_beta) - discordant(F_beta, Re);
    zero for every beta on tie-free sets.  Every ranking is computed
    directly from the scores, so this checks the counting shortcut of
    ``frechet_curve`` and ``build_path`` instead of relying on it.
    """
    r_pr = rank_by_score(pset, PRECISION)
    r_re = rank_by_score(pset, RECALL)
    d_pr_re, _ = discordance(r_pr, r_re)
    out = []
    for b in betas:
        r = rank_by_score(pset, fbeta(b))
        out.append(d_pr_re - discordance(r_pr, r)[0] - discordance(r, r_re)[0])
    return out


@dataclass(frozen=True)
class OptimalityBreakdown:
    """Exact pair fractions for one candidate score against the optimal tradeoff.

    p_agree: pairs on which precision and recall agree (no choice to make);
    p_not_optimal: pairs on which the candidate contradicts the optimal
    tradeoff; p_optimal: the rest.  The three sum to 1 exactly.  ``degree``
    is p_optimal / (p_optimal + p_not_optimal); when there is nothing to
    choose (p_agree == 1) it is 1 by convention and ``vacuous`` is set.
    """

    p_agree: Fraction
    p_optimal: Fraction
    p_not_optimal: Fraction
    degree: Fraction
    vacuous: bool = False


def _breakdowns(pset: PerformanceSet, beta_star_squared: float | None):
    """d(Pr, Re) and a function giving any candidate's breakdown.

    F_beta* is ranked once here for all candidates.
    """
    r_pr, r_re = pset.endpoint_rankings
    d_pr_re, total = discordance(r_pr, r_re)
    if d_pr_re == 0 or beta_star_squared is None:
        one = Fraction(1)
        vacuous = OptimalityBreakdown(one, Fraction(0), Fraction(0), one, vacuous=True)
        return d_pr_re, lambda candidate: vacuous
    r_star = rank_by_score(pset, fbeta(math.sqrt(beta_star_squared)))
    p_agree = 1 - Fraction(d_pr_re, total)

    def breakdown(candidate: ScoreFunction) -> OptimalityBreakdown:
        d_bad, _ = discordance(rank_by_score(pset, candidate), r_star)
        p_bad = Fraction(d_bad, total)
        p_good = 1 - p_agree - p_bad
        return OptimalityBreakdown(p_agree, p_good, p_bad, p_good / (p_good + p_bad))

    return d_pr_re, breakdown


def optimality_decomposition(
    pset: PerformanceSet,
    candidate: ScoreFunction,
    beta_star_squared: float | None = None,
) -> OptimalityBreakdown:
    """How optimal the candidate's ranking is, as exact pair fractions.

    ``beta_star_squared`` may be passed to reuse a precomputed optimum;
    otherwise it is derived from the set.  A set on which precision and
    recall never disagree yields the vacuous breakdown (degree 1).
    """
    if beta_star_squared is None:
        beta_star_squared = pset.crossings.beta_star_squared
    elif not beta_star_squared >= 0:  # NaN is not
        raise ValueError(f"beta_star_squared must be >= 0, got {beta_star_squared!r}")
    _, breakdown = _breakdowns(pset, beta_star_squared)
    return breakdown(candidate)


def heuristic_beta(pset: PerformanceSet) -> float:
    """Error-mass heuristic: beta^2 = sum(pfp) / sum(pfn) over the set."""
    parts = pset.parts
    fp_sum = float(parts[:, 1].sum())
    fn_sum = float(parts[:, 2].sum())
    if fn_sum == 0:
        raise ZeroDenominatorError("no item has false negatives")
    return math.sqrt(fp_sum / fn_sum)


def equidistance_gap(pset: PerformanceSet, beta_squared: float) -> Fraction:
    """|d(Pr, F) - d(F, Re)| at the given beta^2, as an exact fraction.

    Counted over the set's cached crossings.
    """
    if not beta_squared >= 0:  # NaN is not
        raise ValueError(f"beta_squared must be >= 0, got {beta_squared!r}")
    d_pr, d_re = _side_counts(pset, [math.sqrt(beta_squared)])
    return Fraction(abs(int(d_pr[0]) - int(d_re[0])), pset.total_pairs)


@dataclass(frozen=True)
class TradeoffReport:
    """What the analysis pipeline computes for one performance set.

    The set's own facts are read from ``pset``: its size and pair count
    (``len(pset)``, ``pset.total_pairs``) and its crossings, the optimal
    beta^2, its interval and the degenerate and unanimous pair counts
    (``pset.crossings``).  The report holds no copy of them.
    """

    pset: PerformanceSet = field(repr=False)
    tau_pr_re: float
    discordant_pr_re: int
    equidistance_gap: Fraction | None
    heuristic: float | None
    frechet_curve: tuple[tuple[float, float], ...]
    optimality: dict[str, OptimalityBreakdown] = field(default_factory=dict)
    skipped_candidates: dict[str, str] = field(default_factory=dict)


def analyze_set(
    pset: PerformanceSet,
    extra_betas=(),
    grid_points: int = 41,
    grid_span: tuple[float, float] = (1e-3, 1e3),
) -> TradeoffReport:
    """Full tradeoff analysis of one set.

    The optimality map always covers the balanced F-score, the
    skew-insensitive F-score and the error-mass heuristic (candidates
    whose score is undefined somewhere on the set are skipped and listed
    with the reason); ``extra_betas`` adds user-chosen F-scores, keyed by
    their labels.  Two different betas with one label raise ValueError.
    """
    b2_star = pset.crossings.beta_star_squared
    d_pr_re, breakdown = _breakdowns(pset, b2_star)

    try:
        heur: float | None = heuristic_beta(pset)
    except ZeroDenominatorError:
        heur = None

    candidates: dict[str, ScoreFunction] = {"f1": F1, "sivf": SIVF}
    if heur is not None:
        candidates["heuristic"] = fbeta(heur)
    for b in extra_betas:
        cand = fbeta(b)
        known = candidates.setdefault(cand.label(), cand)
        if known != cand:  # the map is keyed by label: neither beta may be lost
            raise ValueError(
                f"betas {known.beta!r} and {cand.beta!r} share the label {cand.label()!r}"
            )

    optimality: dict[str, OptimalityBreakdown] = {}
    skipped: dict[str, str] = {}
    for name, cand in candidates.items():
        try:
            optimality[name] = breakdown(cand)
        except UndefinedScoreError as exc:
            skipped[name] = str(exc)

    return TradeoffReport(
        pset=pset,
        tau_pr_re=1.0 - 2.0 * d_pr_re / pset.total_pairs,
        discordant_pr_re=d_pr_re,
        equidistance_gap=None if b2_star is None else equidistance_gap(pset, b2_star),
        heuristic=heur,
        frechet_curve=tuple(frechet_curve(pset, None, grid_points, grid_span)),
        optimality=optimality,
        skipped_candidates=skipped,
    )
