"""Command-line interface.

Four subcommands: ``analyze`` a CSV of performances (tradeoff report plus
plot-ready tables), ``manifold`` (ranking path, trajectories and PCA for
a CSV), ``sweep`` (Monte Carlo / analytic study of one distribution
family), and ``table1`` (the distribution-level summary cells, checked
against their expected values; exit code 3 on failure).

All outputs are deterministic given (input file, seed, flags).  Every CSV
starts with a comment line carrying the resolved-config hash and the
seed; JSON reports embed the same fields.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import distributions as dist
from . import studies
from .ingest import ingest
from .manifold import DegenerateSpreadError, build_path, marker_rankings, pca_project, rank_trajectories
from .tradeoff import OptimalityBreakdown, analyze_set

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECKS = 3


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _comments(config_hash: str, seed: int) -> list[str]:
    return [f"config={config_hash} seed={seed}"]


# Rows formatted and written at a time, so the writer's memory does not
# grow with a table's length.
_CHUNK = 1024
# csv.writer's minimal quoting: a field holding one of these is quoted.
_SPECIAL = (",", '"', "\r", "\n")


def _quote(label: str) -> str:
    if any(c in label for c in _SPECIAL):
        return '"' + label.replace('"', '""') + '"'
    return label


def _fields(column) -> list[str]:
    """A column's cells as csv.writer writes them: str() of each, None empty, labels quoted."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        # one C-level repr of the list; each number's repr is its str()
        return repr(column.tolist())[1:-1].split(", ") if len(column) else []
    values = list(column)
    kinds = set(map(type, values))
    if kinds <= {float, int, bool}:
        return repr(values)[1:-1].split(", ") if values else []
    if kinds == {str}:
        joined = "".join(values)  # one scan of the column, not one per label
        return list(map(_quote, values)) if any(c in joined for c in _SPECIAL) else values
    return [_quote(v) if isinstance(v, str) else "" if v is None else str(v) for v in values]


def _write_table(path: Path, comments, header, columns) -> None:
    """One CSV: ``# `` comment lines, the header, then the rows of the columns.

    The bytes are csv.writer's for two or more columns; csv.writer would
    also quote a lone empty field.  Each chunk's fields are interleaved
    with their separators and joined once.
    """
    n_rows = len(columns[0]) if len(columns) else 0
    width = 2 * len(columns)
    ends = [","] * (len(columns) - 1) + ["\r\n"]
    with open(path, "w", newline="") as fh:
        fh.write("".join(f"# {line}\n" for line in comments))
        fh.write(",".join(_fields(header)) + "\r\n")
        for a in range(0, n_rows, _CHUNK):
            m = min(_CHUNK, n_rows - a)
            pieces = [""] * (width * m)
            for j, (column, end) in enumerate(zip(columns, ends)):
                pieces[2 * j :: width] = _fields(column[a : a + _CHUNK])
                pieces[2 * j + 1 :: width] = [end] * m
            fh.write("".join(pieces))


def _beta_texts(betas: np.ndarray, texts: list[str], values) -> list[str]:
    """The text of each value: ``texts[k]`` where ``betas[k]``, sorted, has its bits; any other value is formatted."""
    values = np.asarray(values, dtype=float)
    at = np.searchsorted(betas, values).clip(max=len(betas) - 1)
    out = [texts[k] for k in at.tolist()]
    for m in np.flatnonzero(betas[at].view(np.int64) != values.view(np.int64)).tolist():
        out[m] = repr(float(values[m]))
    return out


def _out_dir(path) -> Path:
    """The output directory, created once every result of a command is computed."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _csv_prefix(label: str) -> str:
    """An item label as the first field of a row, quoted as ``_write_table`` quotes it, and its comma."""
    return _quote(label) + ","


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _breakdown_payload(b: OptimalityBreakdown) -> dict:
    return {
        "p_agree": float(b.p_agree),
        "p_agree_exact": _frac(b.p_agree),
        "p_optimal": float(b.p_optimal),
        "p_optimal_exact": _frac(b.p_optimal),
        "p_not_optimal": float(b.p_not_optimal),
        "p_not_optimal_exact": _frac(b.p_not_optimal),
        "degree": float(b.degree),
        "degree_exact": _frac(b.degree),
        "vacuous": b.vacuous,
    }


def _item_labels(pset) -> tuple[str, ...]:
    if pset.labels is not None:
        return pset.labels
    return tuple(f"item_{i:03d}" for i in range(len(pset)))


def _pca_table(path) -> tuple[list[str], tuple]:
    """pca.csv's extra comment lines and its columns (kinds, names, coords): the plateaus, then the markers."""
    markers = marker_rankings(path)
    names = [f"plateau_{k}" for k in range(path.n_plateaus)] + list(markers)
    kinds = ["plateau"] * path.n_plateaus + ["marker"] * len(markers)
    try:
        coords, explained = pca_project(path, markers)
        extra = [f"explained_variance_ratio={explained[0]!r},{explained[1]!r}"]
    except DegenerateSpreadError:
        # every ranking coincides: the projection collapses to one point
        coords = np.zeros((len(names), 2))
        extra = ["degenerate_spread=all rankings identical", "explained_variance_ratio=0.0,0.0"]
    return extra, (kinds, names, coords)


def _plateau_ends(path) -> np.ndarray:
    """0, the transition betas and inf: plateau k holds between ends k and k + 1."""
    return np.concatenate(([0.0], path.transition_betas, [math.inf]))


def _run_starts(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every item's runs of constant rank, from the set's swaps: (plateaus, ranks, cut).

    Item i's runs start on ``plateaus[cut[i]:cut[i + 1]]``, ascending,
    with the ranks ``ranks[cut[i]:cut[i + 1]]``.  Plateau 0 starts one of
    each item; plateau k >= 1 starts one of each item whose swaps in group
    k do not cancel, the group being rows ``swaps[k-1]:swaps[k]`` of
    ``pset.crossings.pairs`` with +1 for ``ahead`` and -1 for ``behind``.
    """
    n, p = len(path.pset), path.n_plateaus
    group = np.repeat(np.arange(1, p), np.diff(path.swaps))
    keys = (path.pset.crossings.pairs.T.astype(np.int64) * p + group).ravel()  # item * p + plateau: aheads, behinds
    order = np.argsort(keys)
    head = np.flatnonzero(np.diff(keys[order], prepend=-1))
    net = np.add.reduceat(np.where(order < len(group), 1, -1), head)
    items, plateaus = np.divmod(np.sort(np.concatenate([keys[order[head[net != 0]]], np.arange(n) * p])), p)
    ranks = rank_trajectories(path)[items, plateaus]
    return plateaus, ranks, np.searchsorted(items, np.arange(n + 1))


def _write_manifold_files(out: Path, path, pca, comments, bounds) -> None:
    # bounds is the text of each _plateau_ends(path) entry.  plateaus.csv
    # reduces each distance with gcd; swap counts and the pair total are
    # exact in float64 and division is correctly rounded, so s / total is
    # float(Fraction(s, total)).
    # rank_trajectories.csv has n_items x n_plateaus rows.  It is written one
    # item at a time, and each of the item's runs of constant rank is one
    # join over the plateaus' cells "k,beta_low,beta_high,".
    swaps, total = path.swaps, path.pset.total_pairs
    g = np.gcd(swaps, total)
    exact = [f"{s}/{t}" for s, t in zip((swaps // g).tolist(), (total // g).tolist())]
    header = ("plateau", "beta_low", "beta_high", "distance_from_precision_exact", "distance_from_precision")
    columns = (range(path.n_plateaus), bounds[:-1], bounds[1:], exact, swaps / total)
    _write_table(out / "plateaus.csv", comments, header, columns)

    cells = [f"{k},{lo},{hi}," for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    plateaus, ranks, cut = _run_starts(path)
    trajectories = out / "rank_trajectories.csv"
    _write_table(trajectories, comments, ("item", "plateau", "beta_low", "beta_high", "rank"), ())
    with open(trajectories, "a", newline="") as fh:
        for label, lo, hi in zip(_item_labels(path.pset), cut[:-1].tolist(), cut[1:].tolist()):
            prefix = _csv_prefix(label)
            starts = plateaus[lo:hi].tolist()
            parts = []
            for a, b, rank in zip(starts, [*starts[1:], len(cells)], ranks[lo:hi].tolist()):
                tail = f"{rank}\r\n"
                parts += (prefix, (tail + prefix).join(cells[a:b]), tail)
            fh.write("".join(parts))

    extra, (kinds, names, coords) = pca
    _write_table(out / "pca.csv", [*comments, *extra], ("kind", "label", "pc1", "pc2"), (kinds, names, *coords.T))


def cmd_analyze(args) -> int:
    config = {
        "command": "analyze",
        "input": str(args.input),
        "prior": args.prior,
        "betas": list(args.beta or ()),
        "seed": args.seed,
        "grid_min": args.grid_min,
        "grid_max": args.grid_max,
        "grid_points": args.grid_points,
    }
    chash = _config_hash(config)
    comments = _comments(chash, args.seed)

    pset = ingest(args.input, args.prior)
    report = analyze_set(pset, args.beta or (), args.grid_points, (args.grid_min, args.grid_max))
    path = build_path(pset)
    pca = _pca_table(path)

    crossings = pset.crossings
    payload = {
        "config": config,
        "config_hash": chash,
        "seed": args.seed,
        "n_items": len(pset),
        "total_pairs": pset.total_pairs,
        "tau_precision_recall": report.tau_pr_re,
        "discordant_precision_recall": report.discordant_pr_re,
        "beta_star_squared": crossings.beta_star_squared,
        "beta_star": None
        if crossings.beta_star_squared is None
        else math.sqrt(crossings.beta_star_squared),
        "beta_star_interval": crossings.beta_star_interval,
        "transition_count": crossings.n_crossings,
        "degenerate_pairs": crossings.degenerate_pairs,
        "unanimous_pairs": crossings.unanimous_pairs,
        "coalesced_transitions": crossings.coalesced,
        "equidistance_gap": None
        if report.equidistance_gap is None
        else _frac(report.equidistance_gap),
        "heuristic_beta": report.heuristic,
        "n_plateaus": path.n_plateaus,
        "optimality": {
            name: _breakdown_payload(b) for name, b in report.optimality.items()
        },
        "skipped_candidates": report.skipped_candidates,
    }
    # The curve's betas hold every beta analyze writes but inf, so each is
    # formatted once; the other beta columns and the plateau bounds take
    # their texts by bits.  sqrt is correctly rounded in NumPy as in math.
    betas, variances = report.frechet_curve.T
    texts = []
    for a in range(0, len(betas), _CHUNK):  # as _write_table does: a whole column of floats raised the peak RSS
        texts += _fields(betas[a : a + _CHUNK])
    bounds = _beta_texts(betas, texts, _plateau_ends(path))
    thetas = crossings.thetas
    tables = {  # stem: (header, columns)
        "transitions": (
            ("index", "theta", "beta"),
            (range(len(thetas)), thetas, _beta_texts(betas, texts, np.sqrt(thetas))),
        ),
        "correlations_vs_beta": (
            ("beta", "tau_precision_fbeta", "tau_fbeta_recall"),
            (_beta_texts(betas, texts, report.correlations[:, 0]), *report.correlations.T[1:]),
        ),
        "frechet_variance": (("beta", "variance"), (texts, variances)),
        "optimality": (
            ("candidate", "p_agree", "p_optimal", "p_not_optimal", "degree", "vacuous"),
            [*zip(*(
                (name, float(b.p_agree), float(b.p_optimal), float(b.p_not_optimal),
                 float(b.degree), b.vacuous)
                for name, b in report.optimality.items()
            ))],
        ),
    }

    out = _out_dir(args.out)
    _write_json(out / "report.json", payload)
    for stem, (header, columns) in tables.items():
        _write_table(out / f"{stem}.csv", comments, header, columns)
    del texts, tables  # the midpoints' texts go before the trajectories are written
    _write_manifold_files(out, path, pca, comments, bounds)
    return EXIT_OK


def cmd_manifold(args) -> int:
    config = {
        "command": "manifold",
        "input": str(args.input),
        "prior": args.prior,
        "seed": args.seed,
    }
    chash = _config_hash(config)
    path = build_path(ingest(args.input, args.prior))
    pca = _pca_table(path)
    bounds = _fields(_plateau_ends(path))
    _write_manifold_files(_out_dir(args.out), path, pca, _comments(chash, args.seed), bounds)
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = {
        "command": "sweep",
        "family": args.family,
        "param": args.param,
        "pairs": args.pairs,
        "seed": args.seed,
    }
    chash = _config_hash(config)
    # pi1 takes no parameter, so it rejects a --param passed as its ptn
    key = "ptn" if args.family in ("pi1", "pi2") else "prior_pos"
    spec = dist.DistributionSpec(args.family, **{key: args.param})
    tables, summary = studies.sweep_tables(spec, args.pairs, args.seed)

    out = _out_dir(args.out)
    for stem, (header, rows) in tables.items():
        _write_table(out / f"{stem}.csv", _comments(chash, args.seed), header, [*zip(*rows)])
    summary = {**summary, "config": config, "config_hash": chash, "seed": args.seed}
    _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_table1(args) -> int:
    config = {"command": "table1", "pairs": args.pairs, "seed": args.seed}
    chash = _config_hash(config)
    seed = args.seed
    results = [
        {"cell": name, "value": value, "expected": expected, "tolerance": tol,
         "passed": abs(value - expected) <= tol}
        for name, value, expected, tol in studies.table1_cells(args.pairs, seed)
    ]
    for r in results:
        print(
            f"table1 {r['cell']}: value={r['value']:.6f} expected={r['expected']:.6f} "
            f"tol={r['tolerance']} {'PASS' if r['passed'] else 'FAIL'}"
        )

    out = _out_dir(args.out)
    _write_json(
        out / "table1.json",
        {"config": config, "config_hash": chash, "seed": seed, "cells": results},
    )
    header = ("cell", "value", "expected", "tolerance", "passed")
    _write_table(out / "table1.csv", _comments(chash, seed), header, [[r[h] for r in results] for h in header])
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_CHECKS


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prtradeoff",
        description="Precision/recall ranking tradeoffs along the F-score family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="tradeoff report and plot data for a CSV of performances")
    p.add_argument("--input", required=True, help="CSV file (counts or ROC schema)")
    p.add_argument("--prior", type=float, default=None, help="positive-class prior for ROC-form files")
    p.add_argument("--beta", type=float, action="append", help="extra candidate F-score beta (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-min", type=float, default=1e-3)
    p.add_argument("--grid-max", type=float, default=1e3)
    p.add_argument("--grid-points", type=int, default=41)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("manifold", help="ranking path, trajectories and PCA for a CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--prior", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_manifold)

    p = sub.add_parser("sweep", help="study one distribution family")
    p.add_argument("--family", required=True, choices=dist.FAMILIES)
    p.add_argument("--param", type=float, default=None, help="ptn for pi2, prior_pos for pi3..pi5")
    p.add_argument("--pairs", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="distribution-level summary cells with pass/fail checks")
    p.add_argument("--pairs", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # IngestError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
