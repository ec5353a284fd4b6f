"""Seeded workload inputs and operation plans.

Everything the program receives is made here from the workload seed: ROC
CSV files plus command-line flags.  Generation uses only the standard
library, so the orchestrating process never imports the code under test.
Coordinates are continuous draws, which keeps precision and recall free
of ties (``build_path`` refuses tied sets), and are written as plain
``repr(float)`` text, the format ``ingest`` parses.  Draws are stratified
(one point per grid cell, one threshold per interval) and rows shuffled:
the inputs stay uniform, but the number of pair crossings, and with it
the work, varies by under 2% between seeds instead of about 11%.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("analyze-path", "beta-star-large", "sweep-near-oracle", "table1")

ANALYZE_SETS = 3
ANALYZE_GRID = (12, 10)  # fpr strata x tpr strata: n = 120 classifiers per set
ANALYZE_PRIOR = 0.3

# (mean, sd) of the positive-class score of each binormal classifier; the
# negative-class score is N(0, 1).  Unequal spreads make the ROC curves
# cross, so precision and recall contradict each other on many pairs.
LARGE_CLASSIFIERS = (
    (0.6, 0.7), (0.9, 1.4), (1.1, 0.9), (1.3, 1.8),
    (1.6, 1.1), (1.9, 2.2), (2.3, 1.3), (2.7, 2.6),
)
LARGE_THRESHOLDS = 500
LARGE_PRIOR = 0.05

SWEEP_PAIRS = 200_000
TABLE1_PAIRS = 1_000_000


def _upper_tail(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _write_roc_csv(path: Path, rows, prior: float) -> None:
    with open(path, "w") as fh:
        fh.write("label,fpr,tpr,prior_pos\n")
        for label, fpr, tpr in rows:
            fh.write(f"{label},{float(fpr)!r},{float(tpr)!r},{float(prior)!r}\n")


def uniform_roc_rows(rng: random.Random):
    """One classifier with uniform fpr and tpr in each cell of the ROC grid."""
    nx, ny = ANALYZE_GRID
    points = [((i + rng.random()) / nx, (j + rng.random()) / ny) for i in range(nx) for j in range(ny)]
    rng.shuffle(points)
    return [(f"c{k:03d}", fpr, tpr) for k, (fpr, tpr) in enumerate(points)]


def binormal_threshold_rows(rng: random.Random):
    """Every threshold of each binormal classifier as one ROC point."""
    rows = []
    for k, (mean, sd) in enumerate(LARGE_CLASSIFIERS):
        for j in range(LARGE_THRESHOLDS):
            t = -2.5 + 6.5 * (j + rng.random()) / LARGE_THRESHOLDS
            rows.append((f"m{k}t{j:03d}", _upper_tail(t), _upper_tail((t - mean) / sd)))
    rng.shuffle(rows)
    return rows


def make_plan(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs under ``workdir`` and return one pass of operations.

    An operation is either a CLI command (``argv`` without the output
    directory, which the runner appends fresh for every call) or the
    library pipeline on one CSV.  ``input`` names the generated file the
    output checks read.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "analyze-path":
        plan = []
        for s in range(ANALYZE_SETS):
            path = workdir / f"set{s}.csv"
            _write_roc_csv(path, uniform_roc_rows(rng), ANALYZE_PRIOR)
            plan.append({
                "name": f"analyze set{s}",
                "kind": "cli",
                "input": str(path),
                "argv": ["analyze", "--input", str(path), "--seed", str(seed)],
            })
        return plan
    if workload == "beta-star-large":
        path = workdir / "thresholds.csv"
        _write_roc_csv(path, binormal_threshold_rows(rng), LARGE_PRIOR)
        return [{"name": "pipeline thresholds", "kind": "pipeline", "input": str(path)}]
    if workload == "sweep-near-oracle":
        return [{
            "name": "sweep pi5",
            "kind": "cli",
            "argv": ["sweep", "--family", "pi5", "--param", "0.3",
                     "--pairs", str(SWEEP_PAIRS), "--seed", str(seed)],
        }]
    if workload == "table1":
        return [{
            "name": "table1",
            "kind": "cli",
            "argv": ["table1", "--pairs", str(TABLE1_PAIRS), "--seed", str(seed)],
        }]
    raise ValueError(f"unknown workload {workload!r}")


def read_roc_csv(path) -> tuple[list[float], list[float], float]:
    """(fpr, tpr, prior) columns of a file written by ``_write_roc_csv``."""
    fpr, tpr, prior = [], [], None
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, f, t, p = line.rstrip("\n").split(",")
            fpr.append(float(f))
            tpr.append(float(t))
            prior = float(p)
    return fpr, tpr, prior
