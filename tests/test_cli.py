import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    # correlation sides sum to 1 + tau(Pr, Re) off the transitions; at a
    # transition beta the pairs of its group tie and count on neither side
    crossings = prtradeoff.ingest(FIXTURE).crossings
    groups = np.diff(np.append(crossings.transitions, crossings.n_crossings))
    tied = dict(zip(crossings.transition_betas.tolist(), groups.tolist()))
    assert 0 < sum(float(row[0]) in tied for row in rows) < len(rows)
    for row in rows:
        extra = 2 * tied.get(float(row[0]), 0) / 1596
        assert float(row[1]) + float(row[2]) == pytest.approx(1 + 3 / 7 + extra, abs=1e-12)


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


def test_analyze_skips_an_undefined_candidate_and_marker(tmp_path):
    # item a has no negatives, so the skew-insensitive score is undefined on it
    csv_path = tmp_path / "counts.csv"
    csv_path.write_text("model,tn,fp,fn,tp\na,0,0,3,7\nb,50,10,2,8\nc,40,20,1,9\nd,45,5,6,5\n")
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(csv_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["skipped_candidates"] == {"sivf": "score 'sivf' is undefined for item 0"}
    assert list(report["optimality"]) == ["f1", "heuristic"]
    _, _, rows = read_csv_rows(out / "pca.csv")
    assert [row[1] for row in rows if row[0] == "marker"] == ["f1", "optimal"]


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
    assert results[1:] == [["exit", "0"]] * 3 + [["root", "0x1.4c4e3f686ef17p-2"]]


def test_importing_the_cli_starts_no_thread():
    # each study, and each direct mc_kendall_tau call, runs one concurrent
    # map that starts its own helper threads; none start at import
    proc = _run_python(
        "-c",
        "import sys, threading, prtradeoff.cli; "
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 False"


def test_analyze_loads_no_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma on its first call; analyze's grids do without it
    proc = _run_python(
        "-c",
        "import sys; from prtradeoff import cli; "
        f"code = cli.main(['analyze', '--input', {str(FIXTURE)!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'numpy.ma' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


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


def test_sweep_pi5_on_too_few_pairs_exits_2_and_writes_nothing(tmp_path, capsys):
    # on 3 pairs precision and recall order no pair oppositely at some
    # prior: there is no crossing to take the median of, so no offset
    out = tmp_path / "out"
    argv = ["sweep", "--family", "pi5", "--param", "0.3", "--pairs", "3", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "sample more pairs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_pi5_on_one_pair_reports_the_first_rows_offset(tmp_path, capsys):
    # the prior search fails too, and it is first in the queue; the error
    # raised is the first row's offset's, the first failure in table order
    out = tmp_path / "out"
    argv = ["sweep", "--family", "pi5", "--param", "0.3", "--pairs", "1", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "order none of the 1 sampled pairs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_pi5_reports_offsets_above_100(tmp_path):
    # at prior 0.995 the median crossing is near 194, outside the [1e-4, 100]
    # that the offset search once bisected over
    out = tmp_path / "out"
    argv = ["sweep", "--family", "pi5", "--param", "0.995", "--pairs", "20000", "--out", str(out)]
    assert cli.main(argv) == 0
    _, _, rows = read_csv_rows(out / "adaptation.csv")
    assert {float(row[0]): float(row[1]) for row in rows}[0.995] > 100.0


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


def _roc200(tmp_path):
    """200 uniform ROC points: about 4900 plateaus, about 10^6 rank entries."""
    fpr, tpr = np.random.default_rng(0).uniform(size=(2, 200))
    csv_path = tmp_path / "roc200.csv"
    csv_path.write_text("fpr,tpr\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(fpr.tolist(), tpr.tolist())))
    return csv_path


def test_manifold_reads_the_path_in_place(tmp_path):
    # The path's own int32 matrix plus PCA's one float matrix come to 12
    # bytes an entry, about 13.8 with the rest; one more int32 copy of the
    # ranks exceeds the bound.
    csv_path = _roc200(tmp_path)
    entries = prtradeoff.build_path(prtradeoff.ingest(csv_path, 0.5)).ranks.size
    argv = ["manifold", "--input", str(csv_path), "--prior", "0.5", "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * entries


def test_analyze_writes_its_tables_in_bounded_memory(tmp_path, monkeypatch):
    # Once the PCA, the last result, is computed, the command only formats
    # and writes: about 1.5 MB of tables besides rank_trajectories.csv's
    # 10^6 rows (55 MB).  Building each table's rows as Python lists for
    # csv.writer takes about 1100 bytes a plateau over what is held at that
    # point.  Chunked columns, the curve's beta texts (the midpoints' are
    # dropped before the trajectories are written), the plateau bounds and
    # cells that every item's trajectory rows reuse, and the run starts,
    # sliced per item from arrays, take about 480; keeping the midpoints'
    # texts took 580, and holding rank_trajectories.csv whole would take
    # over 10,000.
    csv_path = _roc200(tmp_path)
    plateaus = prtradeoff.build_path(prtradeoff.ingest(csv_path, 0.5)).n_plateaus
    held = []

    def project_then_mark(*args, _project=cli.pca_project):
        result = _project(*args)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(cli, "pca_project", project_then_mark)
    argv = ["analyze", "--input", str(csv_path), "--prior", "0.5", "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert peak - held[0] <= 600 * plateaus

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


def _assert_manifold_matches_reference(tmp_path, csv_path, prior=0.4):
    out = tmp_path / "out"
    flags = [] if prior is None else ["--prior", str(prior)]
    assert cli.main(["manifold", "--input", str(csv_path), *flags, "--out", str(out)]) == 0
    path = prtradeoff.build_path(prtradeoff.ingest(csv_path, prior))
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



def _reference_analyze_csvs(csv_path, prior, betas, comment_line):
    """analyze's tables as csv.writer writes them, one row at a time, from the library's results."""
    pset = prtradeoff.ingest(csv_path, prior)
    report = prtradeoff.analyze_set(pset, extra_betas=betas)
    path = prtradeoff.build_path(pset)
    markers = prtradeoff.marker_rankings(path)
    names = [f"plateau_{k}" for k in range(path.n_plateaus)] + list(markers)
    kinds = ["plateau"] * path.n_plateaus + ["marker"] * len(markers)
    try:
        coords, explained = prtradeoff.pca_project(path, markers)
        pca_comments = [f"explained_variance_ratio={explained[0]!r},{explained[1]!r}"]
    except prtradeoff.DegenerateSpreadError:
        coords = np.zeros((len(names), 2))
        pca_comments = ["degenerate_spread=all rankings identical", "explained_variance_ratio=0.0,0.0"]
    tables = {
        "transitions.csv": (
            ("index", "theta", "beta"),
            [(i, t, math.sqrt(t)) for i, t in enumerate(pset.crossings.thetas)],
        ),
        "correlations_vs_beta.csv": (
            ("beta", "tau_precision_fbeta", "tau_fbeta_recall"),
            prtradeoff.correlations_vs_beta(pset, 41, (1e-3, 1e3)),
        ),
        "frechet_variance.csv": (("beta", "variance"), report.frechet_curve),
        "optimality.csv": (
            ("candidate", "p_agree", "p_optimal", "p_not_optimal", "degree", "vacuous"),
            [
                (name, float(b.p_agree), float(b.p_optimal), float(b.p_not_optimal), float(b.degree), b.vacuous)
                for name, b in report.optimality.items()
            ],
        ),
        "pca.csv": (("kind", "label", "pc1", "pc2"), [(*kn, *xy) for kn, xy in zip(zip(kinds, names), coords)]),
    }
    texts = _reference_manifold_csvs(path, comment_line)
    for name, (header, rows) in tables.items():
        buf = io.StringIO(newline="")
        buf.write(comment_line + "".join(f"# {c}\n" for c in pca_comments if name == "pca.csv"))
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)  # NumPy rows write str() of each np.float64 cell
        texts[name] = buf.getvalue()
    return texts


def _assert_analyze_matches_reference(tmp_path, csv_path, prior=0.4):
    out = tmp_path / "out"
    flags = [] if prior is None else ["--prior", str(prior)]
    assert cli.main(["analyze", "--input", str(csv_path), *flags, "--beta", "0.5", "--out", str(out)]) == 0
    comment_line = (out / "pca.csv").read_text().split("\n", 1)[0] + "\n"
    assert comment_line.startswith("# config=")
    want = _reference_analyze_csvs(csv_path, prior, (0.5,), comment_line)
    assert sorted(want) == sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    for name, text in want.items():
        assert (out / name).read_bytes() == text.encode(), name


@pytest.mark.parametrize("n", [2, 12, 45])
def test_analyze_tables_match_a_row_by_row_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    fpr, tpr = rng.uniform(size=(2, n))
    labels = [QUOTED_LABELS[i] if i < len(QUOTED_LABELS) else f"m{i}" for i in rng.permutation(n)]
    csv_path = tmp_path / "set.csv"
    _roc_csv(csv_path, fpr, tpr, labels)
    _assert_analyze_matches_reference(tmp_path, csv_path)


@pytest.mark.parametrize("command", ["analyze", "manifold"])
def test_coalesced_crossings_match_a_row_by_row_writer(tmp_path, command):
    # coalesced groups: some transitions.csv betas repeat, and a plateau
    # changes the ranks of more than two items
    csv_path = FIXTURE.parent / "coalesced14.csv"
    pset = prtradeoff.ingest(csv_path)
    assert pset.crossings.coalesced
    assert len(set(np.sqrt(pset.crossings.thetas).tolist())) < pset.crossings.n_crossings
    if command == "analyze":
        _assert_analyze_matches_reference(tmp_path, csv_path, None)
    else:
        _assert_manifold_matches_reference(tmp_path, csv_path, None)


@pytest.mark.parametrize("command", ["analyze", "manifold"])
def test_a_block_reversal_matches_a_row_by_row_writer(tmp_path, command):
    # three items on one pencil line reverse at once: the middle one swaps
    # ahead and behind in the same group, so its run must not split
    csv_path = tmp_path / "block.csv"
    _roc_csv(csv_path, np.array([0.1, 0.3, 0.6, 0.02]), np.array([0.55, 0.65, 0.8, 0.95]))
    if command == "analyze":
        _assert_analyze_matches_reference(tmp_path, csv_path, 0.5)
    else:
        path = _assert_manifold_matches_reference(tmp_path, csv_path, 0.5)
        assert path.n_plateaus == 2 and path.pset.crossings.coalesced
        assert path.ranks[:, 1].tolist() == [3, 3]


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-7, 0.1]
number_cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.integers(), st.booleans())
label_cells = st.one_of(st.sampled_from(["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "x\r\ny"]), st.text(',"\r\n aé'))
column_cells = {
    "numbers": number_cells,
    "labels": label_cells,
    "mixed": st.one_of(number_cells, label_cells, st.none()),
}


@st.composite
def tables(draw):
    """A header and its columns: float arrays, or lists of numbers, of labels, or of anything csv writes."""
    n_rows, width = draw(st.integers(0, 20)), draw(st.integers(2, 5))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float array", *column_cells]), min_size=width, max_size=width)):
        cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()) if kind == "float array" else column_cells[kind]
        column = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(np.array(column, dtype=float) if kind == "float array" else column)
    return draw(st.lists(label_cells, min_size=width, max_size=width)), columns


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk-1", "chunk-7", "chunk-default"])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables(), comments=st.lists(st.text("ab=, ")))
def test_table_writer_matches_csv_writer(tmp_path, chunk, table, comments):
    header, columns = table
    buf = io.StringIO(newline="")
    buf.write("".join(f"# {line}\n" for line in comments))
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(cli, "_CHUNK", chunk)
        cli._write_table(tmp_path / "table.csv", comments, header, columns)
    assert (tmp_path / "table.csv").read_bytes() == buf.getvalue().encode()


def test_consecutive_commands_share_no_state(tmp_path):
    from test_golden import DISTRIBUTION_GOLDEN

    argv = ["analyze", "--input", str(FIXTURE)]
    assert cli.main([*argv, "--beta", "2", "--out", str(tmp_path / "with")]) == 0
    assert cli.main([*argv, "--out", str(tmp_path / "without")]) == 0
    with_beta, without = (json.loads((tmp_path / d / "report.json").read_text()) for d in ("with", "without"))
    assert "fbeta(2)" in with_beta["optimality"]
    assert "fbeta(2)" not in without["optimality"]
    assert without["config"]["betas"] == []

    sweep = ("sweep", "--family", "pi1", "--pairs", "20000")
    assert cli.main([*sweep, "--out", str(tmp_path / "sweep")]) == 0
    for fname, digest in DISTRIBUTION_GOLDEN[sweep].items():
        assert hashlib.sha256((tmp_path / "sweep" / fname).read_bytes()).hexdigest() == digest, fname

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


def test_analyze_formats_each_beta_once(tmp_path, monkeypatch):
    # Every float cell goes through repr.  A beta of the Frechet curve is
    # written in up to four tables, and its text is made once: it is handed
    # to repr once more than its value appears in the columns of other
    # quantities (theta, tau, variance, distance, PCA).  coalesced14 repeats
    # betas in transitions.csv, and some of its thetas equal betas.
    formatted = []

    def counting_repr(obj):
        formatted.extend(obj if isinstance(obj, list) else [obj])
        return repr(obj)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    csv_path = FIXTURE.parent / "coalesced14.csv"
    out = tmp_path / "out"
    assert cli.main(["analyze", "--input", str(csv_path), "--out", str(out)]) == 0
    others = Counter()
    for table in out.glob("*.csv"):
        rows = csv.reader(line for line in table.read_text().splitlines() if not line.startswith("#"))
        header = next(rows)
        for row in rows:
            for name, text in zip(header, row):
                if not name.startswith("beta") and not text.lstrip("-").isdigit():
                    try:
                        others[float(text)] += 1
                    except ValueError:  # a label
                        pass
    counts = Counter(v for v in formatted if type(v) is float)
    betas = prtradeoff.analyze_set(prtradeoff.ingest(csv_path)).frechet_curve[:, 0].tolist()
    assert {b: counts[b] - others[b] for b in betas} == dict.fromkeys(betas, 1)


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
