"""Golden outputs of ``analyze`` on three frozen inputs, of ``manifold`` on one, and of ``table1`` and ``sweep``.

The ``analyze`` hashes and their compressed ``pca.csv`` files under
``data/golden`` were produced by the implementation that probed every
plateau by re-ranking all items, before the finite-set engine switched
to counting crossings.  The ``table1`` and ``sweep`` hashes were produced
by the implementation whose near-oracle searches evaluated every frozen
pair at every bisection probe, before they switched to counting sorted
breakpoints; the two ``sweep`` runs at 200000 pairs by the
implementation that drew and counted Monte Carlo blocks one after
another, before the blocks were counted concurrently; the ``sweep`` run
of pi3 by the implementation whose CLI built the study tables itself,
before they moved into ``prtradeoff.studies``.  The ``manifold`` hashes
and ``roc120_manifold_pca.csv.gz`` were produced by the implementation
that recomputed a set's crossings and endpoint rankings on every use,
before the set cached them.  The ``coalesced14.csv`` hashes and
``coalesced14_pca.csv.gz`` were produced by the implementation that
wrote ``rank_trajectories.csv`` one row per (item, plateau) and formed a
``Fraction`` for each ``plateaus.csv`` row, before those files were
written run by run.  The three ``correlations_vs_beta.csv`` hashes and
``coalesced14_pca.csv.gz`` were regenerated by the implementation that
counts each correlation row over the crossing pairs with
``tradeoff._side_counts``, as the Frechet curve is counted, so that the
pairs of a crossing tie at its beta, and that ranks the ``f1`` marker
with ``rank_by_score``.  The ``table1`` hashes, the ``adaptation.csv`` and
``summary.json`` hashes of the pi3 and pi4 ``sweep`` runs and the
``pr_re.csv``, ``adaptation.csv`` and ``f1_equidistance.csv`` hashes of
the pi5 run were regenerated by the implementation that finds the pi3
and pi4 optimum by float bisection on the closed-form equidistance gap,
and builds the prior grid from exact decimals, so that pi5's ``--param
0.3`` is one of the grid's nine rows.  The pi5 ``adaptation.csv`` hash was
regenerated by the implementation that takes the optimal offset as the
median of the sampled crossings, the mean of the two middle ones on an
even pool, instead of bisecting on the equidistance gap.  The ``analyze`` and ``manifold``
runs use a relative ``--input`` from inside ``tests/data``, because the
input path is part of the config hash that every output carries.  ``pca.csv`` goes
through an eigendecomposition whose last bits depend on the
linear-algebra library, so it is compared numerically; every other file
must match byte for byte.
"""

import csv
import gzip
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from prtradeoff import cli
from prtradeoff.ingest import ingest

DATA = Path(__file__).parent / "data"

GOLDEN = {
    ("nearoracle57.csv", ("--beta", "2.0")): {
        "report.json": "56338d8bc8286698b9429d5c15671a33b1649ab45a6ea6771f2a2c36ac44d928",
        "transitions.csv": "9970b3a2ee3438eb2cf495b27866ed09d531a70152251eb0932cda024f7acc50",
        "correlations_vs_beta.csv": "b6ba7ecfc2f6b1e5ca957f945dc01180035cf4a7b98cad9532e9bd604231a614",
        "frechet_variance.csv": "51a97693df2227488dd7227b75f9165ed39ca96e090c6f11a44077a3daa1d348",
        "optimality.csv": "dde541a704a786879ac3086c5e4425e96d6646df754c9b8e44647967390b5f18",
        "plateaus.csv": "dbee403b2ad5a1b159593d84d8f49cc8437a249717e1f1dd4328926004002b0b",
        "rank_trajectories.csv": "75134a14bcb313b9bc722895d9fbc5ff43cdb322857bc48d39ccb75b7c86311e",
    },
    # 120 ROC points, one per cell of a 12 x 10 grid, at prior 0.3
    ("roc120.csv", ()): {
        "report.json": "8eddd2ff7d40afc2b8007ef9d18eb49632edb4e3e50b34f69c824986fb386c79",
        "transitions.csv": "f46ad54e796820a8696a725328c48b6ee64f6a57a7d94c3e566329a8b9e35e39",
        "correlations_vs_beta.csv": "27ca2867eea8b858735e9ee4521e58a1df3291103b571a818c1638f93b275b8a",
        "frechet_variance.csv": "97f7764879218f54ccfe026540db05ba071e7a8b6273c99095158b5ac1a54e30",
        "optimality.csv": "12eaff38149a95a0e56eef5d70109a84cad2255877ebf47d81cb348eefb1163f",
        "plateaus.csv": "b15206b0ea070e0419e2b839fd8eb3f71a9dcf48fac42940cee3d55b74980a5e",
        "rank_trajectories.csv": "5859d03ace4b9b23d1979cc3589eba3fa75482eb544b8b2f6117b33e56411842",
    },
    # 14 labelled count rows, two labels CSV-quoted; five items share F_1, so ten
    # crossings coalesce into one transition at beta = 1
    ("coalesced14.csv", ()): {
        "report.json": "1c64a938405c011f788c422f1f1d58b676e7c8ff28fbe257350b903ef3a5db02",
        "transitions.csv": "123dfe4b88f97ea171fa16d913eec5b4e5face7ec92655793cd77d0d125a5ad4",
        "correlations_vs_beta.csv": "370f3ebb6633d68c4c382f584cd18acbee67eb379dc0440f31720bbc30b1d276",
        "frechet_variance.csv": "86a4b8003abba59e259cb0fba265bf7b9d75e738aa90166d5ecfde134142b43f",
        "optimality.csv": "350c891c4098d5f2a5d598cbb26f9d3e35b34958ed56918faf17148a57039943",
        "plateaus.csv": "bdb6d0ea1c470f41a6507a62c24f940b993d84893745c3681ebee158c8c74c26",
        "rank_trajectories.csv": "663908c76385b20aab39e001754463ba357f7ea0efeab94743bc7644658fdac3",
    },
}


def test_coalesced_fixture_coalesces_and_quotes_labels():
    pset = ingest(DATA / "coalesced14.csv")
    assert pset.crossings.coalesced
    assert {"baseline, v1", 'the "tuned" model'} <= set(pset.labels)


def _pca_table(text):
    """(comment lines, explained ratios, header, kind/label cells, (rows, 2) coordinates)."""
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    explained = [l for l in comments if "explained_variance_ratio=" in l]
    ratios = [float(x) for x in explained[0].split("=", 1)[1].split(",")]
    rows = list(csv.reader(io.StringIO("\n".join(l for l in lines if not l.startswith("#")))))
    names = [tuple(r[:2]) for r in rows[1:]]
    coords = np.array([[float(r[2]), float(r[3])] for r in rows[1:]])
    return [c for c in comments if c not in explained], ratios, rows[0], names, coords


@pytest.mark.parametrize("key", list(GOLDEN), ids=[name for name, _ in GOLDEN])
def test_analyze_matches_golden_outputs(key, tmp_path, monkeypatch):
    name, extra = key
    out = tmp_path / "out"
    monkeypatch.chdir(DATA)
    assert cli.main(["analyze", "--input", name, *extra, "--out", str(out)]) == 0

    for fname, digest in GOLDEN[key].items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest, fname

    _assert_pca_matches(out / "pca.csv", f"{Path(name).stem}_pca.csv.gz")


def _numeric_rows(path):
    return [tuple(map(float, row)) for row in csv.reader(l for l in path.read_text().splitlines()[2:])]


@pytest.mark.parametrize("key", list(GOLDEN), ids=[name for name, _ in GOLDEN])
def test_analyze_correlations_imply_the_frechet_variance(key, tmp_path, monkeypatch):
    # each correlation row is (T - 2 d) / T of two discordant-pair counts, and
    # those counts give the Frechet variance the curve reports at the same beta
    name, extra = key
    out = tmp_path / "out"
    monkeypatch.chdir(DATA)
    assert cli.main(["analyze", "--input", name, *extra, "--out", str(out)]) == 0
    total = json.loads((out / "report.json").read_text())["total_pairs"]
    variance = dict(_numeric_rows(out / "frechet_variance.csv"))
    rows = _numeric_rows(out / "correlations_vs_beta.csv")
    assert rows
    for beta, *taus in rows:
        d = [round(total * (1.0 - tau) / 2.0) for tau in taus]
        assert [(total - 2 * k) / total for k in d] == taus, beta
        v1, v2 = d[0] / total, d[1] / total
        assert variance[beta] == v1 * v1 + v2 * v2, beta


def _assert_pca_matches(path, golden_name):
    golden = gzip.decompress((DATA / "golden" / golden_name).read_bytes())
    want = _pca_table(golden.decode())
    got = _pca_table(path.read_text())
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)
    assert got[2:4] == want[2:4]
    np.testing.assert_allclose(got[4], want[4], rtol=1e-9, atol=1e-9)


MANIFOLD_GOLDEN = {
    "plateaus.csv": "1b9fced22a5814f3b36fae6c5eaeb323040b0df763aeab40c756c239aa4d6450",
    "rank_trajectories.csv": "98c599d5ece91b99ba666d1fc9b8e8ab2b2564d2df3bef933f039d0e5f820da4",
}


def test_manifold_matches_golden_outputs(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.chdir(DATA)
    assert cli.main(["manifold", "--input", "roc120.csv", "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == sorted([*MANIFOLD_GOLDEN, "pca.csv"])
    for fname, digest in MANIFOLD_GOLDEN.items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest, fname
    _assert_pca_matches(out / "pca.csv", "roc120_manifold_pca.csv.gz")


DISTRIBUTION_GOLDEN = {
    ("table1", "--pairs", "150000", "--seed", "0"): {
        "table1.json": "69e601292d467e55c3eda80954169f3f30c26b913f11c795ba82e69e61757086",
        "table1.csv": "1ad194f9f75810ac7b34af632b8dd5cb374eda97b5923cfc341454c93c536d4c",
    },
    ("sweep", "--family", "pi1", "--pairs", "20000"): {
        "summary.json": "5b7bd89f93f0d2da559facbef9a2a244d76a73712a3b77eb40ebbf2ce2a883c4",
        "taus.csv": "9b8f4d59f4c97c652616e70d347d662fad4713277e39eb07cd5abfd4403f1eae",
    },
    ("sweep", "--family", "pi2", "--param", "0.3", "--pairs", "20000"): {
        "summary.json": "689d3351c32aab645a1b2bb30d8b70809a46ff0374e63ddd853b4cb03bb7b13a",
        "taus.csv": "4a2907f178c3d55589e261272c05715e0da6df1f658a3032daa2610d64fe4c4a",
    },
    # four Monte Carlo blocks per tau: the blocks are counted concurrently
    ("sweep", "--family", "pi1", "--pairs", "200000"): {
        "summary.json": "5c12528c4af45ca81b91a438c83545a4efa0597b574b7b48d4c3455de394f7db",
        "taus.csv": "1fc86e0a69f91bde5bb26a7ed6a45bbd7e8601f177c9fc56f684cc3af6a61b85",
    },
    ("sweep", "--family", "pi2", "--param", "0.3", "--pairs", "200000"): {
        "summary.json": "fc65ae26a9016a4427d1c8d4a90c9991020d030d59f8aa3fa7e5299520f408c8",
        "taus.csv": "05db7b06cafaf90c398e12805c890924f9fd8b389663a2506ba0e0fddb607943",
    },
    ("sweep", "--family", "pi3", "--param", "0.5", "--pairs", "20000"): {
        "adaptation.csv": "56e63792bf418bd09b3cb5dbfaf798bc4c9108279683d58c4baaa25a318d3c69",
        "analytic_correlations.csv": "166827a6a9ff8058ac56f76d6eec7cce7193cc537281a2166ff130b78fb87860",
        "f1_equidistance.csv": "9beb6f428f83d40ccdbe08298d9674cddc3d9115cf7fb546df239f592ee3d6cc",
        "mc_validation.csv": "f7f8dd183aaa7b7bab170fc3f15eb6d8f99eaf845273768b18f940d9aafd21b9",
        "summary.json": "5b0652fb358aadeaab9aee7d78fcc97754435795d9433e56ea7eef34de41d01e",
    },
    ("sweep", "--family", "pi4", "--param", "0.3", "--pairs", "20000"): {
        "adaptation.csv": "1dd46697448cfea379ee63105851623309aca9a9e2e47f7a9189ded3d1e5065c",
        "analytic_correlations.csv": "a6eff7a7c37548a5964fb9c6ee8e2dd66c3f022d9c273bdc66fe40ca7c49b8b1",
        "f1_equidistance.csv": "24097ce95ad949a8ee7295d4f38eb993b5ea88fe5233484bc4074cd6981f5e6d",
        "mc_validation.csv": "5d7ee9fd92d32bc385764a91fceb713ce120703cac06b4612d1570dada0b800c",
        "summary.json": "16acdf28836c19ef00b9813fde39ff071ecc5facf82d93ed985111d07324f055",
    },
    ("sweep", "--family", "pi5", "--param", "0.3", "--pairs", "20000"): {
        "adaptation.csv": "7283a0afdf1eaade1941a203734059b498a962527e0db832f653cdc2ee6a2ad3",
        "f1_equidistance.csv": "435d18f12fa30c004bf6bd089a4b6a845743da20785d37f083a1d478a485498a",
        "pr_re.csv": "41c0f570bb0be382c7b179afdd6bd019a10eca560e930af16d980998d45fb3aa",
        "summary.json": "3b3e2a17251117fda813f9b07a88cd636d602d8b1aa7858ac02798683c55c781",
    },
}


def _golden_id(argv):
    if argv[0] == "table1":
        return "table1"
    pairs = argv[argv.index("--pairs") + 1]
    return f"sweep-{argv[2]}" + ("" if pairs == "20000" else f"-{pairs}")


@pytest.mark.parametrize("argv", list(DISTRIBUTION_GOLDEN), ids=_golden_id)
def test_distribution_commands_match_golden_outputs(argv, tmp_path):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    want = DISTRIBUTION_GOLDEN[argv]
    assert sorted(f.name for f in out.iterdir()) == sorted(want)
    for fname, digest in want.items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest, fname
