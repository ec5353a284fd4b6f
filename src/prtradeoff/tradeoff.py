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

from .ranking import PerformanceSet, _check_betas, _read_only, _tie_slack, beta_grid, discordance
from .ranking import pair_crossings, rank_by_score  # perfbench/tracer.py wraps tradeoff.pair_crossings
from .scores import (
    F1,
    PRECISION,
    RECALL,
    SIVF,
    TIE_TOL,
    ScoreFunction,
    UndefinedScoreError,
    fbeta,
    fbeta_values,
)


class ZeroDenominatorError(ZeroDivisionError):
    pass


def optimal_beta(pset: PerformanceSet) -> tuple[float | None, np.ndarray]:
    """Median crossing value (the optimal beta^2) and the sorted crossings.

    The median pool is the set's own read-only ``pset.crossings.thetas``,
    not a copy: one crossing per pair that precision and recall order
    oppositely.  Returns None and an empty array when there is none, in
    which case every beta is optimal.  The excluded pairs, degenerate or
    unanimous, are counted in ``pset.crossings``.
    """
    summary = pset.crossings
    return summary.beta_star_squared, summary.thetas


# Most (beta, pair) combinations decided directly at once: bounds memory.
_COMBOS = 1 << 18


def _side_counts(pset: PerformanceSet, betas) -> tuple[np.ndarray, np.ndarray]:
    """d(Pr, F_beta) and d(F_beta, Re) as discordant-pair counts, one per beta of a flat array.

    Only a crossing pair can be discordant with either endpoint, and each
    is decided by its own two F-scores under TIE_TOL, as a ranking would.
    Outside its tie window, |x - theta| <= c (1 + x) with c from
    ``_tie_slack``, that decision at beta^2 = x is fixed: the pair's row
    (ahead, behind) is the F order below theta and its reverse above it.
    So two ``searchsorted`` calls place every pair's window ends among
    the sorted probes, and each side counts the fixed states with one
    difference array.  Only the probes inside a pair's window decide it
    directly, ``_COMBOS`` (probe, pair) combinations at a time.
    """
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
    s_pr = np.sign(r_pr[j] - r_pr[i])  # +1 where the endpoint puts item i ahead, as F does below theta
    s_re = np.sign(r_re[j] - r_re[i])
    c = _tie_slack(parts, i, j, theta)
    with np.errstate(divide="ignore"):
        hi = np.where(c < 1.0, (theta + c) / (1.0 - c), np.inf)
    # the distinct probes in order: an F-score reads beta only through beta^2
    x, at, back = np.unique(b2, return_index=True, return_inverse=True)
    first = np.searchsorted(x, (theta - c) / (1.0 + c), "left")  # probes below the window
    stop = np.searchsorted(x, hi, "right")  # probes from stop on are above it

    def fixed(s: np.ndarray) -> np.ndarray:  # per probe, the pairs fixed against the order s
        below, above = s < 0, s > 0
        diff = np.bincount(stop[above], minlength=len(x) + 1) - np.bincount(first[below], minlength=len(x) + 1)
        return np.count_nonzero(below) + np.cumsum(diff[: len(x)])

    d_pr, d_re = fixed(s_pr), fixed(s_re)
    # the (probe, pair) combinations inside the windows, pair after pair:
    # combination t < ends[g] belongs to pair live[g]
    live = np.flatnonzero(stop > first)
    ends = np.cumsum(stop[live] - first[live])
    for start in range(0, ends[-1] if len(ends) else 0, _COMBOS):
        t = np.arange(start, min(start + _COMBOS, ends[-1]))
        g = np.searchsorted(ends, t, "right")
        pair = live[g]
        k = stop[pair] - (ends[g] - t)  # the probe
        del t, g  # the chunk's temporaries are freed before the F-scores are formed
        b = betas[at[k]]  # beta itself: the F-scores square it on their own
        gap = fbeta_values(parts[i[pair]], b) - fbeta_values(parts[j[pair]], b)
        s_f = np.where(gap > TIE_TOL, 1, np.where(gap < -TIE_TOL, -1, 0))
        d_pr += np.bincount(k[s_pr[pair] * s_f < 0], minlength=len(x))
        d_re += np.bincount(k[s_f * s_re[pair] < 0], minlength=len(x))
    return d_pr[back], d_re[back]


def _variance_rows(pset: PerformanceSet, betas: np.ndarray, d_pr, d_re) -> np.ndarray:
    """Read-only (beta, d^2(Pr, F) + d^2(F, Re)) rows from the two sides' discordant-pair counts."""
    d1, d2 = (d / pset.total_pairs for d in (d_pr, d_re))
    return _read_only(np.column_stack((betas, d1 * d1 + d2 * d2)))


def _tau_rows(pset: PerformanceSet, betas: np.ndarray, d_pr, d_re) -> np.ndarray:
    """Read-only (beta, tau(Pr, F), tau(F, Re)) rows from the two sides' discordant-pair counts."""
    total = pset.total_pairs
    return _read_only(np.column_stack((betas, *((total - 2 * d) / total for d in (d_pr, d_re)))))


def _curve_betas(pset: PerformanceSet, grid_points: int, grid_span: tuple[float, float]) -> np.ndarray:
    """The log grid, 0, every crossing beta, the geometric midpoints of adjacent ones and twice the last."""
    roots = np.sqrt(pset.crossings.thetas)
    mids = np.sqrt(roots[:-1] * roots[1:])
    return beta_grid(grid_points, grid_span, np.concatenate([roots, mids, 2.0 * roots[-1:]]))


def frechet_variance(pset: PerformanceSet, beta: float) -> float:
    """d^2(precision, F_beta) + d^2(F_beta, recall) on the set, in [0, 2]."""
    return float(frechet_curve(pset, [beta])[0, 1])


def frechet_curve(
    pset: PerformanceSet,
    betas=None,
    grid_points: int = 41,
    grid_span: tuple[float, float] = (1e-3, 1e3),
) -> np.ndarray:
    """Sampled Frechet variance: a read-only (m, 2) float64 array of (beta, variance) rows.

    One row per beta of ``betas``, read flat.  The variance is piecewise
    constant between ranking transitions, so when ``betas`` is not given
    the log-spaced grid is augmented with the crossing betas and the
    geometric midpoints of adjacent crossings: every plateau, including
    the optimal one, is probed.  The counts read the cached crossings.
    """
    betas = _curve_betas(pset, grid_points, grid_span) if betas is None else _check_betas(betas).ravel()
    return _variance_rows(pset, betas, *_side_counts(pset, betas))


def correlations_vs_beta(pset: PerformanceSet, grid_points: int, grid_span: tuple[float, float]) -> np.ndarray:
    """(beta, tau(Pr, F_beta), tau(F_beta, Re)) rows on a log grid plus 0 and every transition beta.

    A read-only (m, 3) float64 array of the correctly rounded (T - 2 d) / T
    of the discordant-pair counts d that the Frechet curve reads too.
    """
    grid = beta_grid(grid_points, grid_span, pset.crossings.transition_betas)
    return _tau_rows(pset, grid, *_side_counts(pset, grid))


def geodesic_check(pset: PerformanceSet, betas) -> list[int]:
    """Exact integer residuals of the shortest-path identity, one per beta.

    residual = discordant(Pr, Re) - discordant(Pr, F_beta) - discordant(F_beta, Re); on tie-free
    sets, zero off the crossings and, at a transition beta, the size of its group.  Every ranking is computed
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
        raise ValueError(f"beta_star_squared must be >= 0, got {float(beta_star_squared)!r}")
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
        raise ValueError(f"beta_squared must be >= 0, got {float(beta_squared)!r}")
    return _gap(pset, *_side_counts(pset, np.array([math.sqrt(beta_squared)])))


def _gap(pset: PerformanceSet, d_pr: np.ndarray, d_re: np.ndarray) -> Fraction:
    """|d(Pr, F) - d(F, Re)| at the last probe of a count pass, as an exact fraction."""
    return Fraction(abs(int(d_pr[-1]) - int(d_re[-1])), pset.total_pairs)


@dataclass(frozen=True, eq=False)
class TradeoffReport:
    """What the analysis pipeline computes for one performance set.

    The set's own facts are read from ``pset``: its size and pair count
    (``len(pset)``, ``pset.total_pairs``) and its crossings, the optimal
    beta^2, its interval and the degenerate and unanimous pair counts
    (``pset.crossings``).  The report holds no copy of them and compares
    by identity.
    """

    pset: PerformanceSet = field(repr=False)
    tau_pr_re: float
    discordant_pr_re: int
    equidistance_gap: Fraction | None
    heuristic: float | None
    frechet_curve: np.ndarray  # (m, 2) float64, read-only
    correlations: np.ndarray  # (m, 3) float64, read-only: correlations_vs_beta's rows
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
    The curve, the correlation rows (on a subset of its probes) and the gap at beta* read one count pass.
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

    betas = _curve_betas(pset, grid_points, grid_span)
    d_pr, d_re = _side_counts(pset, np.append(betas, math.sqrt(b2_star or 0.0)))  # beta* is the last probe
    k = np.searchsorted(betas, beta_grid(grid_points, grid_span, pset.crossings.transition_betas))
    return TradeoffReport(
        pset=pset,
        tau_pr_re=1.0 - 2.0 * d_pr_re / pset.total_pairs,
        discordant_pr_re=d_pr_re,
        equidistance_gap=None if b2_star is None else _gap(pset, d_pr, d_re),
        heuristic=heur,
        frechet_curve=_variance_rows(pset, betas, d_pr[:-1], d_re[:-1]),
        correlations=_tau_rows(pset, betas[k], d_pr[k], d_re[k]),
        optimality=optimality,
        skipped_candidates=skipped,
    )
