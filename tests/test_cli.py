import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import prtradeoff
from prtradeoff import PRECISION, RECALL, cli

FIXTURE = Path(__file__).parent / "data" / "nearoracle57.csv"


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, header, rows


def test_analyze_on_frozen_fixture(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(FIXTURE), "--out", str(out), "--beta", "2.0"]) == 0
    report = json.loads((out / "report.json").read_text())

    assert report["n_items"] == 57
    assert report["total_pairs"] == 1596
    # this set was engineered so the optimal beta lands near 0.463
    assert report["beta_star"] == pytest.approx(0.463, abs=0.005)
    lo, hi = report["beta_star_interval"]
    assert lo <= report["beta_star_squared"] <= hi
    assert report["tau_precision_recall"] == pytest.approx(3 / 7)

    f1 = report["optimality"]["f1"]
    assert f1["degree"] < 1.0
    assert not f1["vacuous"]
    for name in ("f1", "sivf", "heuristic", "fbeta(2)"):
        cell = report["optimality"][name]
        total = sum(
            Fraction(cell[k])
            for k in ("p_agree_exact", "p_optimal_exact", "p_not_optimal_exact")
        )
        assert total == 1

    expected_files = {
        "report.json",
        "transitions.csv",
        "correlations_vs_beta.csv",
        "frechet_variance.csv",
        "optimality.csv",
        "plateaus.csv",
        "rank_trajectories.csv",
        "pca.csv",
    }
    assert {p.name for p in out.iterdir()} == expected_files

    comments, header, rows = read_csv_rows(out / "correlations_vs_beta.csv")
    assert comments[0].startswith("# config=")
    assert "seed=0" in comments[0]
    assert header == ["beta", "tau_precision_fbeta", "tau_fbeta_recall"]
    # correlation sides sum to 1 + tau(Pr, Re) on every grid row
    for row in rows:
        assert float(row[1]) + float(row[2]) == pytest.approx(1 + 3 / 7)


def test_analyze_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["analyze", "--input", str(FIXTURE)]
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _run_python(*argv):
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_analyze_runs_as_a_script(tmp_path):
    out = tmp_path / "out"
    proc = _run_python("-m", "prtradeoff.cli", "analyze", "--input", str(FIXTURE), "--out", str(out))
    assert proc.returncode == 0
    assert (out / "report.json").exists()


def test_analyze_vacuous_set(tmp_path):
    ys = np.linspace(0.2, 0.8, 5)
    xs = ys / (2.0 + ys)
    csv_path = tmp_path / "unanimous.csv"
    lines = ["fpr,tpr"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(xs, ys)]
    csv_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(csv_path), "--prior", "0.3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["beta_star"] is None
    assert report["beta_star_interval"] is None
    assert report["tau_precision_recall"] == 1.0
    assert all(cell["vacuous"] for cell in report["optimality"].values())


def test_input_errors_exit_2(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(tmp_path / "nope.csv"), "--out", str(out)]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli.main(["analyze", "--input", str(bad), "--out", str(out)]) == 2
    roc = tmp_path / "roc.csv"
    roc.write_text("fpr,tpr\n0.1,0.8\n0.2,0.9\n")
    assert cli.main(["analyze", "--input", str(roc), "--out", str(out)]) == 2  # prior missing
    assert cli.main(["sweep", "--family", "pi3", "--out", str(out)]) == 2  # param missing
    assert cli.main(["sweep", "--family", "pi1", "--param", "0.5", "--out", str(out)]) == 2


def test_importing_the_cli_loads_no_scipy(tmp_path):
    proc = _run_python(
        "-c", "import sys, prtradeoff.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    # with scipy blocked, any import of it raises ImportError: every command still runs
    argvs = [
        ["table1", "--pairs", "20000"],
        ["sweep", "--family", "pi3", "--param", "0.3", "--pairs", "20000"],
        ["analyze", "--input", str(FIXTURE)],
        ["manifold", "--input", str(FIXTURE)],
    ]
    script = "\n".join(
        [
            "import sys",
            "sys.modules['scipy'] = None",
            "import prtradeoff",
            "from prtradeoff import cli",
            *(
                f"print('exit', cli.main({argv + ['--out', str(tmp_path / str(k))]!r}))"
                for k, argv in enumerate(argvs)
            ),
            "print('root', prtradeoff.f1_equidistance_prior('pi4').hex())",
        ]
    )
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    results = [line.split() for line in proc.stdout.splitlines() if line.startswith(("exit ", "root "))]
    assert results[0][1] in ("0", "3")  # 3: a pinned cell misses its tolerance at 20,000 pairs
    assert results[1:] == [["exit", "0"]] * 3 + [["root", "0x1.4c4e3f686ef12p-2"]]


def test_importing_the_cli_starts_no_thread():
    # the Monte Carlo pool starts with the first concurrent map, not at import
    proc = _run_python("-c", "import threading, prtradeoff.cli; print(threading.active_count())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


@pytest.mark.parametrize(
    "span",
    [("--grid-min", "0"), ("--grid-min", "-1"), ("--grid-max", "inf"), ("--grid-min", "nan"), ("--grid-max", "nan")],
    ids=["min-zero", "min-negative", "max-inf", "min-nan", "max-nan"],
)
def test_bad_grid_span_exits_2_and_writes_nothing(tmp_path, capsys, span):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["analyze", "--input", str(FIXTURE), *span, "--out", str(out)]) == 2
    assert "grid span must satisfy 0 < min <= max < inf" in capsys.readouterr().err
    assert not out.exists()


def test_extra_betas_sharing_a_label_exit_2_and_write_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["analyze", "--input", str(FIXTURE), "--out", str(out)]
    assert cli.main([*argv, "--beta", "1.0000001", "--beta", "1.0000002"]) == 2
    assert "share the label 'fbeta(1)'" in capsys.readouterr().err
    assert not out.exists()
    # an exact repeat is one candidate
    assert cli.main([*argv, "--beta", "2", "--beta", "2"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [name for name in report["optimality"] if name.startswith("fbeta")] == ["fbeta(2)"]


@pytest.mark.parametrize("family", ["pi3", "pi4"])
def test_failing_sweep_writes_nothing(tmp_path, family):
    # the analytic tables need no pairs; the Monte Carlo ones reject 0 pairs
    out = tmp_path / "out"
    argv = ["sweep", "--family", family, "--param", "0.3", "--pairs", "0", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()


def test_manifold_command(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["manifold", "--input", str(FIXTURE), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"plateaus.csv", "rank_trajectories.csv", "pca.csv"}
    comments, header, rows = read_csv_rows(out / "plateaus.csv")
    assert len(rows) >= 2
    # distances from precision are nondecreasing along the path
    dists = [float(r[4]) for r in rows]
    assert dists == sorted(dists)
    _, _, traj_rows = read_csv_rows(out / "rank_trajectories.csv")
    assert len(traj_rows) == 57 * len(rows)


def test_manifold_reads_the_path_in_place(tmp_path):
    # 200 uniform ROC points: about 4900 plateaus, a 7.8 MB rank matrix.  The
    # path's own matrix plus PCA's one float matrix come to 2.4 times its
    # size; a further copy of it (the trajectories, an int64 stack) exceeds the bound.
    fpr, tpr = np.random.default_rng(0).uniform(size=(2, 200))
    csv_path = tmp_path / "roc200.csv"
    csv_path.write_text("fpr,tpr\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(fpr.tolist(), tpr.tolist())))
    nbytes = prtradeoff.build_path(prtradeoff.ingest(csv_path, 0.5)).ranks.nbytes
    argv = ["manifold", "--input", str(csv_path), "--prior", "0.5", "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * nbytes


def _reference_manifold_csvs(path, comment_line):
    """plateaus.csv and rank_trajectories.csv as csv.writer writes them, one row at a time."""
    pset = path.pset
    labels = pset.labels or [f"item_{i:03d}" for i in range(len(pset))]
    plateaus, trajectories = io.StringIO(newline=""), io.StringIO(newline="")
    for buf in (plateaus, trajectories):
        buf.write(comment_line)
    ends = (0.0, *path.transition_betas, math.inf)
    bounds = list(zip(ends, ends[1:]))  # plateau k holds between ends[k] and ends[k + 1]
    writer = csv.writer(plateaus)
    writer.writerow(("plateau", "beta_low", "beta_high", "distance_from_precision_exact", "distance_from_precision"))
    for k, s in enumerate(path.swaps):
        d = Fraction(s, pset.total_pairs)
        writer.writerow((k, *bounds[k], f"{d.numerator}/{d.denominator}", float(d)))
    writer = csv.writer(trajectories)
    writer.writerow(("item", "plateau", "beta_low", "beta_high", "rank"))
    for i, label in enumerate(labels):
        for k in range(path.n_plateaus):
            writer.writerow((label, k, *bounds[k], int(path.ranks[k, i])))
    return {"plateaus.csv": plateaus.getvalue(), "rank_trajectories.csv": trajectories.getvalue()}


QUOTED_LABELS = ["plain", "with, comma", 'say "hi"', 'both, "x"', "two\nlines"]


def _roc_csv(csv_path, fpr, tpr, labels=None):
    header, columns = ("fpr", "tpr"), [fpr.tolist(), tpr.tolist()]
    if labels is not None:
        header, columns = ("label", *header), [labels, *columns]
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def _ranks_return(path):
    """Whether some item leaves a rank and later comes back to it."""
    for row in path.ranks.T.tolist():
        runs = [r for k, r in enumerate(row) if k == 0 or r != row[k - 1]]
        if len(set(runs)) < len(runs):
            return True
    return False


def _assert_manifold_matches_reference(tmp_path, csv_path):
    out = tmp_path / "out"
    assert cli.main(["manifold", "--input", str(csv_path), "--prior", "0.4", "--out", str(out)]) == 0
    path = prtradeoff.build_path(prtradeoff.ingest(csv_path, 0.4))
    comment_line = (out / "plateaus.csv").read_text().split("\n", 1)[0] + "\n"
    assert comment_line.startswith("# config=")
    for name, text in _reference_manifold_csvs(path, comment_line).items():
        assert (out / name).read_bytes() == text.encode(), name
    return path


@pytest.mark.parametrize("seed", range(6))
def test_manifold_files_match_a_row_by_row_writer(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = (2, 5, 12, 30, 45, 60)[seed]
    fpr, tpr = rng.uniform(size=(2, n))
    labels = [QUOTED_LABELS[i] if i < len(QUOTED_LABELS) else f"m{i}" for i in rng.permutation(n)]
    csv_path = tmp_path / "set.csv"
    # odd seeds have no label column: the CLI names the items itself
    _roc_csv(csv_path, fpr, tpr, None if seed % 2 else labels)
    path = _assert_manifold_matches_reference(tmp_path, csv_path)
    if n >= 30:
        assert _ranks_return(path)


def test_manifold_files_match_a_row_by_row_writer_without_crossings(tmp_path):
    # every score ranks the items alike: one plateau from beta 0 to inf
    tpr = np.linspace(0.2, 0.8, 5)
    csv_path = tmp_path / "unanimous.csv"
    _roc_csv(csv_path, tpr / (2.0 + tpr), tpr, QUOTED_LABELS)
    path = _assert_manifold_matches_reference(tmp_path, csv_path)
    assert path.n_plateaus == 1


def _count_calls(monkeypatch, name):
    """Wrap ``prtradeoff.<name>`` in every package module that binds it; returns its calls' arguments."""
    original = getattr(prtradeoff, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "prtradeoff":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_analyze_derives_each_per_set_quantity_once(tmp_path, monkeypatch):
    crossings = _count_calls(monkeypatch, "pair_crossings")
    ranked = _count_calls(monkeypatch, "rank_by_score")
    markers = _count_calls(monkeypatch, "marker_rankings")
    roc120 = FIXTURE.parent / "roc120.csv"
    assert cli.main(["analyze", "--input", str(roc120), "--out", str(tmp_path / "out")]) == 0
    labels = [score.label() for _, score in ranked]
    assert len(crossings) == 1
    assert labels.count(PRECISION.label()) == 1
    assert labels.count(RECALL.label()) == 1
    assert len(markers) == 1


def test_pca_of_identical_rankings_collapses_to_one_point(tmp_path):
    # a dominance chain: every score ranks the three items alike
    csv_path = tmp_path / "chain.csv"
    csv_path.write_text("fpr,tpr\n0.1,0.9\n0.2,0.8\n0.3,0.7\n")
    for command in ("manifold", "analyze"):
        out = tmp_path / command
        argv = [command, "--input", str(csv_path), "--prior", "0.3", "--out", str(out)]
        assert cli.main(argv) == 0
        comments, header, rows = read_csv_rows(out / "pca.csv")
        assert comments[1:] == ["# degenerate_spread=all rankings identical",
                                "# explained_variance_ratio=0.0,0.0"]
        assert header == ["kind", "label", "pc1", "pc2"]
        assert [r[1] for r in rows] == ["plateau_0", "f1", "sivf", "optimal"]
        assert all(float(x) == 0.0 for r in rows for x in r[2:])


def test_sweep_pi1(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--family", "pi1", "--pairs", "40000", "--out", str(out)]) == 0
    comments, header, rows = read_csv_rows(out / "taus.csv")
    assert header == ["score1", "score2", "tau", "half_width", "n_pairs"]
    got = {(r[0], r[1]): float(r[2]) for r in rows}
    assert got[("precision", "recall")] == pytest.approx(1 / 3, abs=0.03)
    assert got[("precision", "f1")] == pytest.approx(2 / 3, abs=0.03)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tau_precision_recall"] == got[("precision", "recall")]


def test_sweep_pi3_adaptation_matches_closed_form(tmp_path):
    from prtradeoff import adapted_beta

    out = tmp_path / "out"
    assert cli.main(
        ["sweep", "--family", "pi3", "--param", "0.5", "--pairs", "40000", "--out", str(out)]
    ) == 0
    names = {p.name for p in out.iterdir()}
    assert names == {
        "analytic_correlations.csv",
        "adaptation.csv",
        "f1_equidistance.csv",
        "mc_validation.csv",
        "summary.json",
    }
    _, _, rows = read_csv_rows(out / "adaptation.csv")
    for row in rows:
        prior, b2, b = float(row[0]), float(row[1]), float(row[2])
        want_b2, want_b = adapted_beta("pi3", prior)
        assert b2 == pytest.approx(want_b2)
        assert b == pytest.approx(want_b)
    _, _, rows = read_csv_rows(out / "mc_validation.csv")
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[2]), abs=3 * float(row[4]) + 0.01)
        assert float(row[6]) == pytest.approx(float(row[5]), abs=3 * float(row[7]) + 0.01)


def test_sweep_pi5(tmp_path):
    out = tmp_path / "out"
    assert cli.main(
        ["sweep", "--family", "pi5", "--param", "0.3", "--pairs", "30000", "--out", str(out)]
    ) == 0
    _, _, rows = read_csv_rows(out / "pr_re.csv")
    for row in rows:
        assert float(row[2]) == pytest.approx(float(row[1]), abs=0.05)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sivf_equidistance_prior"] == pytest.approx(0.561, abs=0.05)


def test_table1_quick(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["table1", "--pairs", "150000", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert captured.count("PASS") == 7
    payload = json.loads((out / "table1.json").read_text())
    assert len(payload["cells"]) == 7
    assert all(cell["passed"] for cell in payload["cells"])


def test_table1_failing_checks_exit_3(tmp_path, capsys):
    # 400 pairs is far too noisy for the tolerances: checks must fail loudly
    out = tmp_path / "out"
    code = cli.main(["table1", "--pairs", "400", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in captured
    payload = json.loads((out / "table1.json").read_text())
    assert not all(cell["passed"] for cell in payload["cells"])


def test_table1_with_too_few_pairs_exits_2_and_writes_nothing(tmp_path, capsys):
    # at seed 0 precision and recall order the one sampled pair alike
    out = tmp_path / "out"
    code = cli.main(["table1", "--pairs", "1", "--seed", "0", "--out", str(out)])
    assert code == 2
    assert "precision and recall agree on all 1 sampled pairs" in capsys.readouterr().err
    assert not out.exists()
