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
import csv
import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import distributions as dist
from . import studies
from .ingest import ingest
from .manifold import (
    DegenerateSpreadError,
    build_path,
    correlations_vs_beta,
    marker_rankings,
    pca_project,
    rank_trajectories,
)
from .tradeoff import OptimalityBreakdown, analyze_set

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECKS = 3


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _comments(config_hash: str, seed: int) -> list[str]:
    return [f"config={config_hash} seed={seed}"]


def _write_csv_head(fh, comments, header):
    for line in comments:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def _write_csv(path: Path, comments, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        _write_csv_head(fh, comments, header).writerows(rows)


def _write_tables(out: Path, comments, tables: dict) -> None:
    """One ``<stem>.csv`` per ``stem: (header, rows)`` entry."""
    for stem, (header, rows) in tables.items():
        _write_csv(out / f"{stem}.csv", comments, header, rows)


def _out_dir(path) -> Path:
    """The output directory, created once every result of a command is computed."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _csv_prefix(*fields) -> str:
    """The fields as the start of a row in ``_write_csv``'s dialect, ending with a comma.

    Used for item labels, which may need quoting.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow((*fields, ""))
    return buf.getvalue()[: -len("\r\n")]


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


def _pca_table(path) -> tuple[list[str], list[tuple]]:
    """pca.csv's extra comment lines and its rows: the plateaus, then the markers."""
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
    rows = [
        (kind, name, coords[i, 0], coords[i, 1])
        for i, (kind, name) in enumerate(zip(kinds, names))
    ]
    return extra, rows


def _write_manifold_files(out: Path, path, pca, comments) -> None:
    # Each plateau's cells "k,beta_low,beta_high," are formatted once, as
    # csv.writer would: str() of each bound, a Python float, the last one inf.
    # plateaus.csv reduces each distance with gcd; int / int is correctly
    # rounded, so s / total is float(Fraction(s, total)).
    # rank_trajectories.csv has n_items x n_plateaus rows.  It is written one
    # item at a time, and each of the item's runs of constant rank is one join.
    bounds = ["0.0", *map(str, path.transition_betas), "inf"]
    cells = [f"{k},{lo},{hi}," for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    total = path.pset.total_pairs
    with open(out / "plateaus.csv", "w", newline="") as fh:
        header = ("plateau", "beta_low", "beta_high", "distance_from_precision_exact", "distance_from_precision")
        _write_csv_head(fh, comments, header)
        rows = []
        for cell, s in zip(cells, path.swaps):
            g = math.gcd(s, total)
            rows.append(f"{cell}{s // g}/{total // g},{s / total}\r\n")
        fh.write("".join(rows))

    with open(out / "rank_trajectories.csv", "w", newline="") as fh:
        _write_csv_head(fh, comments, ("item", "plateau", "beta_low", "beta_high", "rank"))
        for label, ranks in zip(_item_labels(path.pset), rank_trajectories(path)):
            prefix = _csv_prefix(label)
            starts = [0, *(np.flatnonzero(np.diff(ranks)) + 1).tolist()]
            parts = []
            for a, b, rank in zip(starts, [*starts[1:], len(cells)], ranks[starts].tolist()):
                tail = f"{rank}\r\n"
                parts.append(prefix + (tail + prefix).join(cells[a:b]) + tail)
            fh.write("".join(parts))

    extra, rows = pca
    _write_csv(out / "pca.csv", [*comments, *extra], ("kind", "label", "pc1", "pc2"), rows)


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
    grid_span = (args.grid_min, args.grid_max)
    report = analyze_set(
        pset,
        extra_betas=args.beta or (),
        grid_points=args.grid_points,
        grid_span=grid_span,
    )
    path = build_path(pset)
    correlations = correlations_vs_beta(path, args.grid_points, grid_span)
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
    tables = {
        "transitions": (
            ("index", "theta", "beta"),
            [(i, t, math.sqrt(t)) for i, t in enumerate(crossings.thetas.tolist())],
        ),
        "correlations_vs_beta": (("beta", "tau_precision_fbeta", "tau_fbeta_recall"), correlations),
        "frechet_variance": (("beta", "variance"), report.frechet_curve),
        "optimality": (
            ("candidate", "p_agree", "p_optimal", "p_not_optimal", "degree", "vacuous"),
            [
                (name, float(b.p_agree), float(b.p_optimal), float(b.p_not_optimal),
                 float(b.degree), b.vacuous)
                for name, b in report.optimality.items()
            ],
        ),
    }

    out = _out_dir(args.out)
    _write_json(out / "report.json", payload)
    _write_tables(out, comments, tables)
    _write_manifold_files(out, path, pca, comments)
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
    _write_manifold_files(_out_dir(args.out), path, pca, _comments(chash, args.seed))
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
    _write_tables(out, _comments(chash, args.seed), tables)
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
    _write_csv(
        out / "table1.csv",
        _comments(chash, seed),
        ("cell", "value", "expected", "tolerance", "passed"),
        [(r["cell"], r["value"], r["expected"], r["tolerance"], r["passed"]) for r in results],
    )
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_CHECKS


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
