"""Two-class classification performances and the scores used to rank them.

A performance is a probability measure over the four classification
outcomes (true negative, false positive, false negative, true positive),
i.e. a normalized confusion matrix: a point in the 3-simplex.  Scores are
real functions of a performance; some of them are undefined on parts of
the simplex (e.g. recall needs at least one positive ground truth), and
that is reported as a value-level ``None``, never as an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance used everywhere two score values are compared for a tie.
TIE_TOL = 1e-12

_SIMPLEX_TOL = 1e-12

KINDS = ("precision", "recall", "fbeta", "sivf", "fpr", "tnr", "iou")


class UndefinedScoreError(ValueError):
    """A score was required on a performance outside its domain."""

    def __init__(self, index: int, kind: str):
        self.index = index
        self.kind = kind
        super().__init__(f"score {kind!r} is undefined for item {index}")


def normalize_parts(rows) -> np.ndarray:
    """Rows of nonnegative cell values divided by their totals: a new (n, 4) float64 array.

    Each total is ``((a + b) + c) + d``, the order of Python's ``sum`` over
    the four cells, so a row normalizes here bit for bit as ``Performance``
    normalizes it.  Raises ValueError for a shape other than (n, 4) and,
    for the first bad row, on its first non-finite or negative cell (in
    cell order), on a zero total, or when the normalized row misses the
    simplex (an overflowed total).
    """
    parts = np.asarray(rows, dtype=float)
    if parts.ndim != 2 or parts.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) array of cell values, got shape {parts.shape}")
    a, b, c, d = parts.T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        total = ((a + b) + c) + d
        out = parts / total[:, None]
        a, b, c, d = out.T
        # NaN or infinite cells and zero or overflowed totals all miss the simplex
        bad = ~(np.abs(((a + b) + c) + d - 1.0) <= _SIMPLEX_TOL) | (parts < 0).any(axis=1)
    if bad.any():
        r = int(np.argmax(bad))
        for v in parts[r].tolist():
            if not math.isfinite(v):
                raise ValueError(f"non-finite cell value {v!r}")
            if v < 0:
                raise ValueError(f"negative cell value {v!r}")
        if total[r] == 0:
            raise ValueError("all four cells are zero")
        raise ValueError("normalization failed to reach the simplex")
    return out


@dataclass(frozen=True)
class Performance:
    """A normalized two-class confusion matrix.

    The constructor accepts any nonnegative cell values (raw counts or
    probabilities) and normalizes them by their total, so
    ``Performance(90, 5, 3, 2)`` and ``Performance(0.9, 0.05, 0.03, 0.02)``
    denote the same point.  It is the one-row case of ``normalize_parts``,
    which validates and divides the cells.
    """

    ptn: float
    pfp: float
    pfn: float
    ptp: float

    def __post_init__(self):
        vals = normalize_parts([(self.ptn, self.pfp, self.pfn, self.ptp)])[0].tolist()
        for name, v in zip(("ptn", "pfp", "pfn", "ptp"), vals):
            object.__setattr__(self, name, v)

    @property
    def prior_neg(self) -> float:
        return self.ptn + self.pfp

    @property
    def prior_pos(self) -> float:
        return self.pfn + self.ptp

    def as_array(self) -> np.ndarray:
        return np.array([self.ptn, self.pfp, self.pfn, self.ptp])


def roc_columns(fpr, tpr, prior_pos: float) -> tuple:
    """The (ptn, pfp, pfn, ptp) columns of ROC points at a positive-class prior."""
    q = 1.0 - prior_pos
    return q * (1.0 - fpr), q * fpr, prior_pos * (1.0 - tpr), prior_pos * tpr


def roc_to_parts(fpr, tpr, prior_pos: float) -> np.ndarray:
    """(..., 4) performances (ptn, pfp, pfn, ptp) of ROC points at a positive-class prior."""
    return np.stack(roc_columns(fpr, tpr, prior_pos), axis=-1)


@dataclass(frozen=True)
class ScoreFunction:
    """Identifier (plus parameter) of a score usable for ranking.

    ``kind`` is one of ``KINDS``; ``beta`` is present iff ``kind ==
    "fbeta"`` and may be ``math.inf`` (which makes the score identical to
    recall, as ``beta = 0`` makes it identical to precision).
    """

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.kind == "fbeta":
            if self.beta is None:
                raise ValueError("fbeta requires a beta parameter")
            b = float(self.beta)
            if math.isnan(b) or b < 0:
                raise ValueError(f"beta must be >= 0, got {self.beta!r}")
            object.__setattr__(self, "beta", b)
        elif self.beta is not None:
            raise ValueError(f"score {self.kind!r} takes no beta parameter")

    def label(self) -> str:
        if self.kind == "fbeta":
            return f"fbeta({self.beta:g})"
        return self.kind


PRECISION = ScoreFunction("precision")
RECALL = ScoreFunction("recall")
SIVF = ScoreFunction("sivf")
FPR = ScoreFunction("fpr")
TNR = ScoreFunction("tnr")
IOU = ScoreFunction("iou")


def fbeta(beta: float) -> ScoreFunction:
    return ScoreFunction("fbeta", float(beta))


F1 = fbeta(1.0)


def evaluate(score: ScoreFunction, p: Performance) -> float | None:
    """Score value on one performance, or None where the score is undefined.

    The F-score uses the form ``(1 + beta^2) ptp / (pfp + beta^2 pfn +
    (1 + beta^2) ptp)``, which extends the weighted harmonic mean of
    precision and recall to every performance whose denominator is
    nonzero and agrees with it wherever both are defined.
    """
    value = float(score_values(score, p.as_array()[None, :])[0])
    return None if math.isnan(value) else value


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, NaN elsewhere."""
    return np.where(den > 0, num / den, np.nan)


def _fbeta_columns(fp, fn, tp, beta) -> np.ndarray:
    """F-scores from the fp, fn and tp columns; ``beta`` is a scalar or one beta per row."""
    # a Python float keeps the common scalar case on NumPy's scalar fast path
    beta = float(beta) if np.ndim(beta) == 0 else np.asarray(beta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        b2 = beta * beta
        scaled_tp = (1.0 + b2) * tp
        out = _ratio(scaled_tp, fp + b2 * fn + scaled_tp)
        at_inf = np.isinf(beta)
        if np.any(at_inf):
            out = np.where(at_inf, _ratio(tp, fn + tp), out)
    return out


def fbeta_values(parts: np.ndarray, beta) -> np.ndarray:
    """F-scores of the rows of an (n, 4) array, each at its own beta.

    ``beta`` is a scalar or an (n,) array; ``beta = inf`` gives recall.
    Returns NaN wherever the score is undefined.
    """
    parts = np.asarray(parts, dtype=float)
    return _fbeta_columns(parts[:, 1], parts[:, 2], parts[:, 3], beta)


def score_columns(score: ScoreFunction, tn, fp, fn, tp) -> np.ndarray:
    """Score values from the four outcome columns (n,) of simplex points.

    The one formula of each score: ``score_values`` passes the columns of
    an (n, 4) array, the Monte Carlo blocks pass contiguous columns.
    Returns an (n,) float array with NaN wherever the score is undefined.
    """
    kind = score.kind
    if kind == "fbeta":
        return _fbeta_columns(fp, fn, tp, score.beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "precision":
            out = _ratio(tp, fp + tp)
        elif kind == "recall":
            out = _ratio(tp, fn + tp)
        elif kind == "sivf":
            neg, pos = tn + fp, fn + tp
            tpr = tp / pos
            fpr_ = fp / neg
            out = np.where((neg > 0) & (pos > 0), 2.0 * tpr / (tpr + fpr_ + 1.0), np.nan)
        elif kind == "fpr":
            out = _ratio(fp, tn + fp)
        elif kind == "tnr":
            out = _ratio(tn, tn + fp)
        elif kind == "iou":
            out = _ratio(tp, fp + fn + tp)
        else:
            raise AssertionError(kind)
    return out


def score_values(score: ScoreFunction, parts: np.ndarray) -> np.ndarray:
    """Score values of the rows of an (n, 4) array of simplex points.

    Returns an (n,) float array with NaN wherever the score is undefined.
    """
    return score_columns(score, *np.asarray(parts, dtype=float).T)


@dataclass(frozen=True)
class ImportanceWeights:
    """Nonnegative outcome weights defining a ranking score.

    Two proportional weight vectors induce the same score ordering, so
    weights are meaningful only up to a positive scale factor.
    """

    w_tn: float
    w_fp: float
    w_fn: float
    w_tp: float

    def __post_init__(self):
        ws = (self.w_tn, self.w_fp, self.w_fn, self.w_tp)
        if any(w < 0 or not math.isfinite(w) for w in ws):
            raise ValueError("weights must be finite and nonnegative")
        if all(w == 0 for w in ws):
            raise ValueError("at least one weight must be positive")


def ranking_score(weights: ImportanceWeights, p: Performance) -> float | None:
    """Weighted fraction of satisfied outcomes; None on zero total weight.

    This is the generic form whose particular cases include every F-score
    (see ``fbeta_importance``) and, at fixed class priors, the
    skew-insensitive F-score (see ``sivf_importance``).
    """
    num = weights.w_tn * p.ptn + weights.w_tp * p.ptp
    den = num + weights.w_fp * p.pfp + weights.w_fn * p.pfn
    return num / den if den > 0 else None


def fbeta_importance(beta: float) -> ImportanceWeights:
    """Importance weights whose ranking score equals the F-score: (0, 1, beta^2, 1 + beta^2)."""
    b = float(beta)
    if not math.isfinite(b) or b < 0:
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    b2 = b * b
    return ImportanceWeights(0.0, 1.0, b2, 1.0 + b2)


def _check_prior_pos(prior_pos) -> float:
    """A positive class prior, strictly inside (0, 1): no F-score is defined at 0 or 1."""
    p = float(prior_pos)
    if not 0.0 < p < 1.0:
        raise ValueError(f"prior_pos must be in (0, 1), got {prior_pos!r}")
    return p


def sivf_importance(prior_pos: float) -> ImportanceWeights:
    """Importance weights matching the skew-insensitive F-score at fixed priors.

    Proportional to (0, prior_pos, prior_neg, 2 prior_neg); at those
    priors the resulting ranking score reproduces the SIVF value itself.
    """
    p = _check_prior_pos(prior_pos)
    q = 1.0 - p
    return ImportanceWeights(0.0, p, q, 2.0 * q)


def pencil_vertex_offset(beta: float, prior_pos: float) -> float:
    """Offset of the F-score's ROC isometric pencil vertex at fixed priors.

    At class prior ``prior_pos``, the F-score isometrics in ROC space are
    straight lines through ``(-offset, 0)`` with
    ``offset = beta^2 prior_pos / (1 - prior_pos)``.  Precision has offset
    0, recall infinity, and the skew-insensitive F-score offset 1
    regardless of the priors.  ``prior_pos`` must be strictly inside
    (0, 1): at 0 there is no positive class, and no F-score.
    """
    b = float(beta)
    if math.isnan(b) or b < 0:
        raise ValueError(f"beta must be >= 0, got {beta!r}")
    p = _check_prior_pos(prior_pos)
    return b * b * p / (1.0 - p)
