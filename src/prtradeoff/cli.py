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
from .ingest import IngestError, ingest
from .manifold import (
    DegenerateSpreadError,
    build_path,
    marker_rankings,
    pca_project,
    rank_trajectories,
)
from .scores import F1, PRECISION, RECALL, SIVF, fbeta
from .tradeoff import OptimalityBreakdown, analyze_set

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECKS = 3

_MC_OFFSETS = (0.1, 0.25, 0.61585, 1.0, 2.0, 5.0)
_PRIOR_GRID = tuple(np.linspace(0.1, 0.9, 9))


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _comments(config_hash: str, seed: int, extra=()) -> list[str]:
    return [f"config={config_hash} seed={seed}", *extra]


def _write_csv_head(fh, comments, header):
    for line in comments:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    return writer


def _write_csv(path: Path, comments, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        _write_csv_head(fh, comments, header).writerows(rows)


def _csv_prefix(*fields) -> str:
    """The fields as the start of a row in ``_write_csv``'s dialect, ending with a comma."""
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


def _plateau_bounds(path, k: int) -> tuple[float, float]:
    lo = 0.0 if k == 0 else path.transition_betas[k - 1]
    hi = path.transition_betas[k] if k < len(path.transition_betas) else math.inf
    return lo, hi


def _write_manifold_files(out: Path, path, comments) -> None:
    labels = _item_labels(path.pset)

    rows = []
    for k, d in enumerate(path.distances_from_precision):
        lo, hi = _plateau_bounds(path, k)
        rows.append((k, lo, hi, _frac(d), float(d)))
    _write_csv(
        out / "plateaus.csv",
        comments,
        ("plateau", "beta_low", "beta_high", "distance_from_precision_exact", "distance_from_precision"),
        rows,
    )

    # n_items x n_plateaus rows: format each plateau's cells and each label once
    cells = [_csv_prefix(k, *_plateau_bounds(path, k)) for k in range(path.n_plateaus)]
    with open(out / "rank_trajectories.csv", "w", newline="") as fh:
        _write_csv_head(fh, comments, ("item", "plateau", "beta_low", "beta_high", "rank"))
        for label, ranks in zip(labels, rank_trajectories(path).tolist()):
            prefix = _csv_prefix(label)
            fh.write("".join([f"{prefix}{cell}{r}\r\n" for cell, r in zip(cells, ranks)]))

    names = [f"plateau_{k}" for k in range(path.n_plateaus)]
    kinds = ["plateau"] * path.n_plateaus
    for name in marker_rankings(path):
        names.append(name)
        kinds.append("marker")
    try:
        coords, explained = pca_project(path)
        extra = [f"explained_variance_ratio={explained[0]!r},{explained[1]!r}"]
    except DegenerateSpreadError:
        # every ranking coincides: the projection collapses to one point
        coords = np.zeros((len(names), 2))
        extra = ["degenerate_spread=all rankings identical", "explained_variance_ratio=0.0,0.0"]
    rows = [
        (kind, name, coords[i, 0], coords[i, 1])
        for i, (kind, name) in enumerate(zip(kinds, names))
    ]
    _write_csv(
        out / "pca.csv",
        [*comments, *extra],
        ("kind", "label", "pc1", "pc2"),
        rows,
    )


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    pset = ingest(args.input, args.prior)
    report = analyze_set(
        pset,
        extra_betas=args.beta or (),
        grid_points=args.grid_points,
        grid_span=(args.grid_min, args.grid_max),
    )
    path = build_path(pset)

    payload = {
        "config": config,
        "config_hash": chash,
        "seed": args.seed,
        "n_items": report.n_items,
        "total_pairs": report.total_pairs,
        "tau_precision_recall": report.tau_pr_re,
        "discordant_precision_recall": report.discordant_pr_re,
        "beta_star_squared": report.beta_star_squared,
        "beta_star": None
        if report.beta_star_squared is None
        else math.sqrt(report.beta_star_squared),
        "beta_star_interval": None
        if report.beta_star_interval is None
        else list(report.beta_star_interval),
        "transition_count": len(report.transition_thetas),
        "degenerate_pairs": report.degenerate_pairs,
        "unanimous_pairs": report.unanimous_pairs,
        "coalesced_transitions": report.coalesced,
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
    _write_json(out / "report.json", payload)

    _write_csv(
        out / "transitions.csv",
        comments,
        ("index", "theta", "beta"),
        [(i, t, math.sqrt(t)) for i, t in enumerate(report.transition_thetas)],
    )

    # correlations vs beta: exact step values from the plateau distances,
    # via the shortest-path identity d(Pr,Re) = d(Pr,F) + d(F,Re), as
    # correctly rounded ratios of discordant-pair counts
    total = report.total_pairs
    grid = sorted(
        set(np.geomspace(args.grid_min, args.grid_max, args.grid_points))
        | set(path.transition_betas)
        | {0.0}
    )
    rows = []
    for b in grid:
        d1 = path.distances_from_precision[path.plateau_of(b)]
        n1 = d1.numerator * (total // d1.denominator)
        n2 = report.discordant_pr_re - n1
        rows.append((b, (total - 2 * n1) / total, (total - 2 * n2) / total))
    _write_csv(
        out / "correlations_vs_beta.csv",
        comments,
        ("beta", "tau_precision_fbeta", "tau_fbeta_recall"),
        rows,
    )

    _write_csv(
        out / "frechet_variance.csv",
        comments,
        ("beta", "variance"),
        [(b, v) for b, v in report.frechet_curve],
    )

    rows = []
    for name, b in report.optimality.items():
        rows.append(
            (
                name,
                float(b.p_agree),
                float(b.p_optimal),
                float(b.p_not_optimal),
                float(b.degree),
                b.vacuous,
            )
        )
    _write_csv(
        out / "optimality.csv",
        comments,
        ("candidate", "p_agree", "p_optimal", "p_not_optimal", "degree", "vacuous"),
        rows,
    )

    _write_manifold_files(out, path, comments)
    return EXIT_OK


def cmd_manifold(args) -> int:
    config = {
        "command": "manifold",
        "input": str(args.input),
        "prior": args.prior,
        "seed": args.seed,
    }
    chash = _config_hash(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pset = ingest(args.input, args.prior)
    path = build_path(pset)
    _write_manifold_files(out, path, _comments(chash, args.seed))
    return EXIT_OK


def _spec_for(family: str, param: float | None) -> dist.DistributionSpec:
    if family == "pi1":
        if param is not None:
            raise ValueError("pi1 takes no --param")
        return dist.uniform_spec()
    if param is None:
        raise ValueError(f"{family} requires --param")
    if family == "pi2":
        return dist.fixed_tn_spec(param)
    return dist.DistributionSpec(family, prior_pos=float(param))


def cmd_sweep(args) -> int:
    config = {
        "command": "sweep",
        "family": args.family,
        "param": args.param,
        "pairs": args.pairs,
        "seed": args.seed,
    }
    chash = _config_hash(config)
    comments = _comments(chash, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = _spec_for(args.family, args.param)
    n = args.pairs
    summary: dict = {"config": config, "config_hash": chash, "seed": args.seed}

    if args.family in ("pi1", "pi2"):
        score_pairs = [
            ("precision", "recall", PRECISION, RECALL),
            ("precision", "f1", PRECISION, F1),
            ("f1", "recall", F1, RECALL),
            ("precision", "sivf", PRECISION, SIVF),
            ("sivf", "recall", SIVF, RECALL),
        ]
        rows = []
        for i, (n1, n2, s1, s2) in enumerate(score_pairs):
            est = dist.mc_kendall_tau(spec, s1, s2, n, args.seed + i)
            rows.append((n1, n2, est.value, est.half_width, est.n_pairs))
            summary[f"tau_{n1}_{n2}"] = est.value
        _write_csv(
            out / "taus.csv",
            comments,
            ("score1", "score2", "tau", "half_width", "n_pairs"),
            rows,
        )

    elif args.family in ("pi3", "pi4"):
        tau = (
            dist.analytic_tau_fixed_priors
            if args.family == "pi3"
            else dist.analytic_tau_above_no_skill
        )
        offsets = np.geomspace(1e-3, 1e3, 121)
        _write_csv(
            out / "analytic_correlations.csv",
            comments,
            ("vertex_offset", "tau_precision_fbeta", "tau_fbeta_recall"),
            [(o, tau("pr", o), tau("re", o)) for o in offsets],
        )

        star = dist.optimal_vertex_offset(args.family)
        summary["optimal_vertex_offset"] = star
        priors = np.linspace(0.02, 0.98, 49)
        rows = []
        for p in priors:
            b2, b = dist.beta_for_offset(star, p)
            rows.append((p, b2, b, 1.0 - p, 0.5))
        _write_csv(
            out / "adaptation.csv",
            comments,
            ("prior_pos", "beta_star_squared", "recall_weight", "recall_weight_sivf", "recall_weight_f1"),
            rows,
        )

        rows = []
        for p in priors:
            off = p / (1.0 - p)  # the balanced F-score's vertex offset at this prior
            rows.append((p, tau("pr", off), tau("re", off)))
        _write_csv(
            out / "f1_equidistance.csv",
            comments,
            ("prior_pos", "tau_precision_f1", "tau_f1_recall"),
            rows,
        )

        prior = spec.prior_pos
        rows = []
        for i, off in enumerate(_MC_OFFSETS):
            b2, _ = dist.beta_for_offset(off, prior)
            beta = math.sqrt(b2)
            est1 = dist.mc_kendall_tau(spec, PRECISION, fbeta(beta), n, args.seed + 2 * i)
            est2 = dist.mc_kendall_tau(spec, fbeta(beta), RECALL, n, args.seed + 2 * i + 1)
            rows.append(
                (off, beta, tau("pr", off), est1.value, est1.half_width,
                 tau("re", off), est2.value, est2.half_width)
            )
        _write_csv(
            out / "mc_validation.csv",
            comments,
            ("vertex_offset", "beta", "analytic_pr", "mc_pr", "half_width_pr",
             "analytic_re", "mc_re", "half_width_re"),
            rows,
        )

    else:  # pi5
        priors = sorted(set(_PRIOR_GRID) | {spec.prior_pos})
        rows = []
        for i, p in enumerate(priors):
            est = dist.mc_kendall_tau(
                dist.near_oracle_spec(p), PRECISION, RECALL, n, args.seed + i
            )
            rows.append((p, dist.analytic_tau_pr_re_near_oracle(p), est.value, est.half_width))
        _write_csv(
            out / "pr_re.csv",
            comments,
            ("prior_pos", "tau_analytic", "tau_mc", "half_width"),
            rows,
        )

        rows = []
        for i, p in enumerate(priors):
            off = dist.mc_optimal_vertex_offset_near_oracle(p, n, args.seed + 100 + i)
            b2, b = dist.beta_for_offset(off, p)
            rows.append((p, off, math.sqrt(b2), b))
        _write_csv(
            out / "adaptation.csv",
            comments,
            ("prior_pos", "vertex_offset", "beta_star", "recall_weight"),
            rows,
        )

        rows = []
        for i, p in enumerate(priors):
            t1, t2 = dist.mc_tau_sides_near_oracle(p, p / (1.0 - p), n, args.seed + 200 + i)
            rows.append((p, t1, t2))
        _write_csv(
            out / "f1_equidistance.csv",
            comments,
            ("prior_pos", "tau_precision_f1", "tau_f1_recall"),
            rows,
        )
        summary["sivf_equidistance_prior"] = dist.sivf_equidistance_prior_near_oracle(
            n, args.seed + 300
        )

    _write_json(out / "summary.json", summary)
    return EXIT_OK


def cmd_table1(args) -> int:
    config = {"command": "table1", "pairs": args.pairs, "seed": args.seed}
    chash = _config_hash(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = args.pairs
    seed = args.seed
    cells = []

    def mc_f1_degree(spec, seed0: int) -> float:
        t_pr_re = dist.mc_kendall_tau(spec, PRECISION, RECALL, n, seed0).value
        t1 = dist.mc_kendall_tau(spec, PRECISION, F1, n, seed0 + 1).value
        t2 = dist.mc_kendall_tau(spec, F1, RECALL, n, seed0 + 2).value
        p_agree = (1.0 + t_pr_re) / 2.0
        p_bad = abs(t1 - t2) / 4.0
        p_good = 1.0 - p_agree - p_bad
        return p_good / (p_good + p_bad)

    cells.append(
        ("pi1_f1_degree", mc_f1_degree(dist.uniform_spec(), seed), 1.0, 0.01)
    )
    vals = [
        mc_f1_degree(dist.fixed_tn_spec(ptn), seed + 10 * (i + 1))
        for i, ptn in enumerate((0.0, 0.3, 0.6))
    ]
    cells.append(("pi2_f1_degree", sum(vals) / len(vals), 1.0, 0.01))

    for family, expected in (("pi3", math.log(4.0) - 0.5), ("pi4", 5.0 / 6.0)):
        per_prior = max(n // len(_PRIOR_GRID), 10**5)
        vals = [
            dist.mc_pencil_optimality(family, 1.0, per_prior, seed + 50 + i)
            for i in range(len(_PRIOR_GRID))
        ]
        cells.append((f"{family}_sivf_degree", sum(vals) / len(vals), expected, 0.01))

    cells.append(("pi3_f1_prior", dist.f1_equidistance_prior("pi3"), 0.381, 0.01))
    cells.append(("pi4_f1_prior", dist.f1_equidistance_prior("pi4"), 0.325, 0.01))
    cells.append(
        (
            "pi5_sivf_prior",
            dist.sivf_equidistance_prior_near_oracle(n, seed + 99),
            0.561,
            0.02,
        )
    )

    results = []
    all_ok = True
    for name, value, expected, tol in cells:
        ok = abs(value - expected) <= tol
        all_ok &= ok
        results.append(
            {"cell": name, "value": value, "expected": expected, "tolerance": tol, "passed": ok}
        )
        print(
            f"table1 {name}: value={value:.6f} expected={expected:.6f} "
            f"tol={tol} {'PASS' if ok else 'FAIL'}"
        )

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
    return EXIT_OK if all_ok else EXIT_CHECKS


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
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
