"""One workload in a fresh interpreter: run passes of its plan, time each operation.

Usage (started by run.py, not by hand):
    python3 child.py PLAN_JSON RESULT_JSON SECONDS TRACE SRC_DIR

Passes repeat for about SECONDS (at least one pass).  Only the call
into the program is timed; collecting the evidence the checks need and
removing each operation's output directory happen between timings.  With
TRACE=1 the tracer wraps the library before the first pass and its spans
go into the result file.
"""

from __future__ import annotations

import importlib
import json
import shutil
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """High-water resident set of this process since exec.

    ``getrusage(RUSAGE_SELF).ru_maxrss`` would also count the parent's
    resident set at fork, which exec carries over into the child's figure.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _read_csv_rows(path: Path) -> list[list[str]]:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def _cli_evidence(argv: list[str], out: Path) -> dict:
    command = argv[0]
    if command == "analyze":
        report = json.loads((out / "report.json").read_text())
        plateaus = _read_csv_rows(out / "plateaus.csv")
        picks = sorted({0, len(plateaus) // 4, len(plateaus) // 2,
                        3 * len(plateaus) // 4, len(plateaus) - 1})
        return {
            "total_pairs": report["total_pairs"],
            "discordant_precision_recall": report["discordant_precision_recall"],
            "beta_star_squared": report["beta_star_squared"],
            "fractions": {
                name: [b["p_agree_exact"], b["p_optimal_exact"], b["p_not_optimal_exact"]]
                for name, b in report["optimality"].items()
            },
            # plateau, beta_low, beta_high, distance_from_precision_exact
            "plateaus": [plateaus[k][:4] for k in picks],
        }
    if command == "sweep":
        return {"pr_re": [[float(x) for x in row] for row in _read_csv_rows(out / "pr_re.csv")]}
    if command == "table1":
        cells = json.loads((out / "table1.json").read_text())["cells"]
        return {"cells": {c["cell"]: c["value"] for c in cells}}
    raise ValueError(f"no evidence reader for {command!r}")


def _pipeline(pt, path: str):
    """ingest -> optimal_beta -> kendall_tau(precision, recall) -> decomposition of F1 and SIVF."""
    pset = pt.ingest(path)
    b2, _ = pt.optimal_beta(pset)
    tau = pt.kendall_tau(pt.rank_by_score(pset, pt.PRECISION), pt.rank_by_score(pset, pt.RECALL))
    decomposition = {
        name: pt.optimality_decomposition(pset, score, b2)
        for name, score in (("f1", pt.F1), ("sivf", pt.SIVF))
    }
    return b2, tau, decomposition


def _pipeline_evidence(b2, tau, decomposition) -> dict:
    return {
        "beta_star_squared": b2,
        "tau_pr_re": tau,
        "fractions": {
            name: [str(b.p_agree), str(b.p_optimal), str(b.p_not_optimal)]
            for name, b in decomposition.items()
        },
    }


def main(argv: list[str]) -> int:
    plan_path, result_path, seconds, trace, src = argv
    t0 = time.perf_counter()
    cli = importlib.import_module("prtradeoff.cli")
    import_s = time.perf_counter() - t0
    pt = importlib.import_module("prtradeoff")
    if not Path(pt.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"prtradeoff imported from {pt.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    plan = json.loads(Path(plan_path).read_text())
    out_root = Path(result_path).parent / "out"
    passes = []
    deadline = time.perf_counter() + float(seconds)
    # start another pass only if it should end less than half a pass late
    while not passes or time.perf_counter() + passes[-1]["seconds"] / 2 < deadline:
        ops = []
        for index, op in enumerate(plan):
            out = out_root / f"{len(passes)}-{index}"
            cli_argv = [*op["argv"], "--out", str(out)] if op["kind"] == "cli" else None
            record = {"op": index, "rc": None, "error": None, "evidence": None}
            start = time.perf_counter()
            try:
                if cli_argv:
                    record["rc"] = cli.main(cli_argv)
                else:
                    result = _pipeline(pt, op["input"])
                    record["rc"] = 0
            except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["seconds"] = time.perf_counter() - start
            if record["rc"] == 0:
                try:
                    if cli_argv:
                        files = [f for f in out.rglob("*") if f.is_file()]
                        record["out_files"] = len(files)
                        record["out_bytes"] = sum(f.stat().st_size for f in files)
                        record["evidence"] = _cli_evidence(cli_argv, out)
                    else:
                        record["evidence"] = _pipeline_evidence(*result)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    record["error"] = f"unreadable output: {type(exc).__name__}: {exc}"
            shutil.rmtree(out, ignore_errors=True)
            ops.append(record)
        passes.append({"seconds": sum(r["seconds"] for r in ops), "ops": ops})

    report = {
        "import_s": import_s,
        "peak_rss_mb": _peak_rss_mb(),
        "passes": passes,
        "spans": tracer.spans if tracer else None,
    }
    Path(result_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
