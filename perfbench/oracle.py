"""Output checks with oracles independent of the code being timed.

Nothing here imports ``prtradeoff``.  The finite-set oracles recompute
scores, pair discordance and F-score crossings directly from the
generated ROC coordinates with plain NumPy pair comparisons, using the
package's documented tie convention (values within 1e-12 are tied and a
pair tied in either ranking is not discordant).  Each check returns
``(problems, err)``: exact checks that failed, and the largest
|value - reference| / tolerance over the toleranced ones.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from inputs import read_roc_csv

TIE_TOL = 1e-12
BETA_STAR_RTOL = 1e-9
TAU_ATOL = 1e-12
# pi5 Monte Carlo tau must lie within this many 95% half-widths of the closed form
SWEEP_HALF_WIDTHS = 3.0
# Table-1 cells: the paper's values and tolerances, pinned here independently of the CLI
TABLE1_CELLS = {
    "pi1_f1_degree": (1.0, 0.01),
    "pi2_f1_degree": (1.0, 0.01),
    "pi3_sivf_degree": (math.log(4.0) - 0.5, 0.01),
    "pi4_sivf_degree": (5.0 / 6.0, 0.01),
    "pi3_f1_prior": (0.381, 0.01),
    "pi4_f1_prior": (0.325, 0.01),
    "pi5_sivf_prior": (0.561, 0.02),
}
_BLOCK = 256


class RocSet:
    """Confusion cells of a generated ROC file, with its crossings and discordance."""

    def __init__(self, path):
        fpr, tpr, prior = read_roc_csv(path)
        fpr, tpr = np.array(fpr), np.array(tpr)
        q = 1.0 - prior
        self.fp, self.fn, self.tp = q * fpr, prior * (1.0 - tpr), prior * tpr
        self.n = len(fpr)
        self.total_pairs = self.n * (self.n - 1) // 2
        self.precision = self.tp / (self.tp + self.fp)
        self.recall = tpr
        self.d_pr_re = self.discordant(self.precision, self.recall)
        self._sides: dict[float, tuple[int, int]] = {}

    def fbeta(self, beta: float) -> np.ndarray:
        b2 = beta * beta
        return (1.0 + b2) * self.tp / (self.fp + b2 * self.fn + (1.0 + b2) * self.tp)

    def sides(self, beta: float) -> tuple[int, int]:
        """(d(Pr, F_beta), d(F_beta, Re)) as discordant pair counts."""
        if beta not in self._sides:
            f = self.fbeta(beta)
            self._sides[beta] = (self.discordant(self.precision, f), self.discordant(f, self.recall))
        return self._sides[beta]

    def _upper_blocks(self):
        """(rows, columns, mask) blocks covering every pair i < j once."""
        cols = np.arange(self.n)
        for start in range(0, self.n, _BLOCK):
            rows = np.arange(start, min(start + _BLOCK, self.n))
            yield rows, cols, cols[None, :] > rows[:, None]

    def discordant(self, a: np.ndarray, b: np.ndarray) -> int:
        count = 0
        for rows, cols, upper in self._upper_blocks():
            da = a[rows, None] - a[None, cols]
            db = b[rows, None] - b[None, cols]
            opposite = ((da > TIE_TOL) & (db < -TIE_TOL)) | ((da < -TIE_TOL) & (db > TIE_TOL))
            count += int((opposite & upper).sum())
        return count

    @functools.cached_property
    def median_crossing(self) -> float:
        """Median over pairs of the beta^2 at which the two F-scores are equal."""
        thetas = []
        tp, fp, fn = self.tp, self.fp, self.fn
        for rows, cols, upper in self._upper_blocks():
            num = tp[rows, None] * fp[None, cols] - tp[None, cols] * fp[rows, None]
            den = tp[rows, None] * fn[None, cols] - tp[None, cols] * fn[rows, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                theta = -num / den
            keep = upper & (den != 0) & np.isfinite(theta) & (theta >= 0)
            thetas.append(theta[keep])
        return float(np.median(np.concatenate(thetas)))


def _fractions_sum_to_one(fractions: dict) -> list[str]:
    return [
        f"{name}: fractions sum to {sum(map(Fraction, parts))}"
        for name, parts in fractions.items()
        if sum(map(Fraction, parts)) != 1
    ]


def _rel_err(value, reference: float, rtol: float) -> float:
    if value is None:
        return math.inf
    return abs(value - reference) / (rtol * abs(reference))


def check_analyze(ev: dict, ref: RocSet) -> tuple[list[str], float]:
    problems = _fractions_sum_to_one(ev["fractions"])
    total, d_pr_re = ev["total_pairs"], ev["discordant_precision_recall"]
    if total != ref.total_pairs or d_pr_re != ref.d_pr_re:
        problems.append(f"discordant {d_pr_re}/{total}, oracle {ref.d_pr_re}/{ref.total_pairs}")
    if Fraction(ev["plateaus"][-1][3]) != Fraction(d_pr_re, total):
        problems.append("last plateau distance differs from d(precision, recall)")
    for k, lo, hi, exact in ev["plateaus"]:
        lo, hi = float(lo), float(hi)
        beta = 0.0 if int(k) == 0 else 2.0 * lo if math.isinf(hi) else math.sqrt(lo * hi)
        d1, d2 = ref.sides(beta)
        if ref.d_pr_re - d1 - d2 != 0:
            problems.append(f"geodesic residual {ref.d_pr_re - d1 - d2} at beta={beta!r}")
        if Fraction(exact) != Fraction(d1, total):
            problems.append(f"plateau {k}: distance {exact}, oracle {d1}/{total}")
    err = _rel_err(ev["beta_star_squared"], ref.median_crossing, BETA_STAR_RTOL)
    return problems, err


def check_pipeline(ev: dict, ref: RocSet) -> tuple[list[str], float]:
    problems = _fractions_sum_to_one(ev["fractions"])
    b2 = ev["beta_star_squared"]
    err = _rel_err(b2, ref.median_crossing, BETA_STAR_RTOL)
    if b2 is not None:
        d1, d2 = ref.sides(math.sqrt(b2))
        gap = d1 - d2
        if gap != 0:
            problems.append(f"equidistance gap {gap} pairs at beta*^2={b2!r}")
    tau = 1.0 - 2.0 * ref.d_pr_re / ref.total_pairs
    err = max(err, abs(ev["tau_pr_re"] - tau) / TAU_ATOL)
    return problems, err


def check_sweep(ev: dict) -> tuple[list[str], float]:
    if not ev["pr_re"]:
        return ["pr_re.csv has no rows"], 0.0
    err = max(
        abs(mc - analytic) / (SWEEP_HALF_WIDTHS * half_width) if half_width > 0 else math.inf
        for _, analytic, mc, half_width in ev["pr_re"]
    )
    return [], err


def check_table1(ev: dict) -> tuple[list[str], float]:
    missing = sorted(set(TABLE1_CELLS) - set(ev["cells"]))
    err = max(
        (abs(ev["cells"][c] - expected) / tol
         for c, (expected, tol) in TABLE1_CELLS.items() if c in ev["cells"]),
        default=0.0,
    )
    return [f"missing cell {c}" for c in missing], err
