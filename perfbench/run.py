"""Benchmark of prtradeoff's two engines, end to end and per module.

    python3 perfbench/run.py --workload analyze-path --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from the root of a checkout; the package is imported from its
``src`` directory.  Each workload runs in its own fresh interpreter
(child.py) on inputs made from ``--seed`` (inputs.py) and repeats passes
of its operations for ``--seconds``.  Outputs are checked afterwards, in
this process, by oracle.py.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` splits the time between an untraced and a
traced child and prints the per-layer metrics, each per pass, plus
``trace.overhead_s``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import oracle
from inputs import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Import probes, half before and half after the workload child, so that
# they sample the host at two moments of the run; the untraced child's own
# import is one more sample.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
# One BLAS thread: the workloads barely use BLAS, and on two shared cores
# spinning BLAS workers only add noise.
BLAS_THREADS = "1"
SETUP_PROBE = (
    "import time; t0 = time.perf_counter(); import prtradeoff.cli; "
    "t1 = time.perf_counter(); print(t1 - t0, prtradeoff.cli.__file__)"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}
MC_FAMILIES = ("pi1", "pi2", "pi5")
PER_LAYER = {
    "tradeoff.frechet_curve.self_s": "s",
    "tradeoff.frechet_curve.betas": "count",
    "tradeoff.equidistance_gap.self_s": "s",
    "tradeoff.optimality_decomposition.self_s": "s",
    "tradeoff.analyze_set.self_s": "s",
    "manifold.build_path.self_s": "s",
    "manifold.build_path.plateaus": "count",
    "manifold.marker_rankings.self_s": "s",
    "manifold.pca_project.self_s": "s",
    "manifold.rank_trajectories.self_s": "s",
    "ranking.ranks_from_values.calls": "count",
    "ranking.ranks_from_values.self_s": "s",
    "ranking.discordance.calls": "count",
    "ranking.discordance.self_s": "s",
    "ranking.discordance.pairs": "count",
    "ranking.rank_by_score.self_s": "s",
    "tradeoff.pair_crossings.calls": "count",
    "tradeoff.pair_crossings.self_s": "s",
    "tradeoff.pair_crossings.crossings": "count",
    "tradeoff.optimal_beta.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "distributions.near_oracle.self_s": "s",
    "distributions.near_oracle.pairs": "count",
    "distributions.mc_kendall_tau.calls": "count",
    "distributions.mc_kendall_tau.self_s": "s",
    "distributions.mc_kendall_tau.pairs": "count",
    **{f"distributions.mc_kendall_tau.{f}.mpairs_per_s": "Mpairs/s" for f in MC_FAMILIES},
    "distributions.mc_pencil_optimality.self_s": "s",
    "distributions.mc_pencil_optimality.pairs": "count",
    "distributions.optimal_vertex_offset.calls": "count",
    "distributions.optimal_vertex_offset.self_s": "s",
    "scores.score_values.calls": "count",
    "scores.score_values.self_s": "s",
    "scores.score_values.rows": "count",
    "ingest.ingest.self_s": "s",
    "ingest.ingest.rows": "count",
    "trace.overhead_s": "s",
    "check.fail_ratio": "1",
    "check.check_err": "1",
}


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # imports use cached bytecode, as an installed package would
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc


def measure_setup(count: int) -> list[float]:
    """Import time of prtradeoff.cli, once per fresh interpreter."""
    samples = []
    for _ in range(count):
        seconds, path = _run_child(["-c", SETUP_PROBE], 60).stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise BenchError(f"prtradeoff imported from {path}, not from {SRC}")
        samples.append(float(seconds))
    return samples


def run_workload_child(workdir: Path, tag: str, seconds: float, trace: bool) -> dict:
    result = workdir / tag / "result.json"
    result.parent.mkdir()
    _run_child(
        [str(HERE / "child.py"), str(workdir / "plan.json"), str(result),
         repr(seconds), "1" if trace else "0", str(SRC)],
        CHILD_TIMEOUT_S,
    )
    return json.loads(result.read_text())


def check_ops(plan: list[dict], runs) -> tuple[int, int, float, list[str]]:
    """(attempted, failed, check_err, failure notes) over every operation of the runs."""
    reference = functools.cache(oracle.RocSet)  # one oracle per input file
    attempted = failed = 0
    check_err = 0.0
    notes = []
    for record in (r for run in runs for p in run["passes"] for r in p["ops"]):
        op = plan[record["op"]]
        attempted += 1
        if record["error"]:
            problems = [record["error"]]
        elif record["rc"] != 0:
            problems = [f"exit code {record['rc']}"]
        else:
            ev = record["evidence"]
            if op["kind"] == "pipeline":
                problems, err = oracle.check_pipeline(ev, reference(op["input"]))
            elif op["argv"][0] == "analyze":
                problems, err = oracle.check_analyze(ev, reference(op["input"]))
            elif op["argv"][0] == "sweep":
                problems, err = oracle.check_sweep(ev)
            else:
                problems, err = oracle.check_table1(ev)
            if not math.isfinite(err) or err > 1.0:
                problems.append(f"check error {err!r} exceeds its tolerance")
            elif err > check_err:
                check_err = err
        if problems:
            failed += 1
            notes.append(f"{op['name']}: " + "; ".join(map(str, problems)))
    return attempted, failed, check_err, notes


def median_pass_s(run: dict) -> float:
    return statistics.median(p["seconds"] for p in run["passes"])


def end_to_end(setup: list[float], run: dict) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": median_pass_s(run),
        "op_p50_s": statistics.median(r["seconds"] for p in run["passes"] for r in p["ops"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run: dict) -> dict:
    """Per-pass sums of span self times and counters, by span name."""
    spans = run["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    family_pairs: dict[str, float] = defaultdict(float)
    family_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, counters) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += end - start - covered[i]
        for key, value in (counters or {}).items():
            if key == "family":
                family_pairs[value] += counters["pairs"]
                family_s[value] += end - start
            else:
                totals[f"{name}.{key}"] += value
    for p in run["passes"]:
        for r in p["ops"]:
            totals["cli.bytes_written"] += r.get("out_bytes", 0)
            totals["cli.files_written"] += r.get("out_files", 0)
    passes = len(run["passes"])
    metrics = {name: totals.get(name, 0.0) / passes for name in PER_LAYER}
    for f in MC_FAMILIES:
        key = f"distributions.mc_kendall_tau.{f}.mpairs_per_s"
        metrics[key] = family_pairs[f] / family_s[f] / 1e6 if family_s[f] else 0.0
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    plan = make_plan(workload, seed, workdir / "inputs")
    (workdir / "plan.json").write_text(json.dumps(plan))
    setup = measure_setup(SETUP_PROBES // 2)
    runs = {"untraced": run_workload_child(workdir, "untraced", seconds / 2 if trace else seconds, False)}
    if trace:
        runs["traced"] = run_workload_child(workdir, "traced", seconds / 2, True)
    setup += measure_setup(SETUP_PROBES - SETUP_PROBES // 2)
    setup.append(runs["untraced"]["import_s"])

    attempted, failed, check_err, notes = check_ops(plan, runs.values())
    for note in notes:
        print(f"{workload} FAILED {note}", file=sys.stderr)

    e2e = end_to_end(setup, runs["untraced"])
    if trace:
        metrics = per_layer(runs["traced"])
        metrics["trace.overhead_s"] = median_pass_s(runs["traced"]) - e2e["wall_s"]
        metrics["check.fail_ratio"] = failed / attempted
        metrics["check.check_err"] = check_err
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    untraced = runs["untraced"]
    print(f"{workload}: {len(untraced['passes'])} passes, "
          f"{sum(len(p['ops']) for p in untraced['passes'])} operations untraced, "
          f"{len(setup)} setup samples; no tail percentile at this sample count")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:12.6g} {END_TO_END[name]}")
    print(f"  {'fail_ratio':<12} {failed / attempted:12.6g} 1")
    print(f"  {'check_err':<12} {check_err:12.6g} 1")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that subprocess.run
    # kills and reaps the running child before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "prtradeoff" / "cli.py").is_file():
        print(f"error: no prtradeoff sources under {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), workdir)
        except BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
