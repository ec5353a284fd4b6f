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
written run by run.  The ``analyze`` and ``manifold`` runs use a
relative ``--input`` from inside ``tests/data``, because the input path
is part of the config hash that every output carries.  ``pca.csv`` goes
through an eigendecomposition whose last bits depend on the
linear-algebra library, so it is compared numerically; every other file
must match byte for byte.
"""

import csv
import gzip
import hashlib
import io
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
        "correlations_vs_beta.csv": "6ce1ab7b9e30a333402e43eaa8dc1c2e542cdf0e8da1bc3718c0bb36b5623d13",
        "frechet_variance.csv": "51a97693df2227488dd7227b75f9165ed39ca96e090c6f11a44077a3daa1d348",
        "optimality.csv": "dde541a704a786879ac3086c5e4425e96d6646df754c9b8e44647967390b5f18",
        "plateaus.csv": "dbee403b2ad5a1b159593d84d8f49cc8437a249717e1f1dd4328926004002b0b",
        "rank_trajectories.csv": "75134a14bcb313b9bc722895d9fbc5ff43cdb322857bc48d39ccb75b7c86311e",
    },
    # 120 ROC points, one per cell of a 12 x 10 grid, at prior 0.3
    ("roc120.csv", ()): {
        "report.json": "8eddd2ff7d40afc2b8007ef9d18eb49632edb4e3e50b34f69c824986fb386c79",
        "transitions.csv": "f46ad54e796820a8696a725328c48b6ee64f6a57a7d94c3e566329a8b9e35e39",
        "correlations_vs_beta.csv": "3bb2cbb19f5d39c47d64f9237f19258d755e9e231c79df72954bdd7e20a1330b",
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
        "correlations_vs_beta.csv": "9afbee245733ab12850269e3fb767860b07d787d607b8ea79c366703bdc07f98",
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
        "table1.json": "9cfdf2b03ac8e3e173cd05d8cad663dbac328bb0f1936b9b3bb862ecc58d54f4",
        "table1.csv": "a8499b408d193770f44238c8e23427d2ccd75f75b6c126e7dac077136339e06d",
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
        "adaptation.csv": "c93080103e4d312eb4149e131723555df57e64c564fb8cd49a672bf7f66bb5ce",
        "analytic_correlations.csv": "166827a6a9ff8058ac56f76d6eec7cce7193cc537281a2166ff130b78fb87860",
        "f1_equidistance.csv": "9beb6f428f83d40ccdbe08298d9674cddc3d9115cf7fb546df239f592ee3d6cc",
        "mc_validation.csv": "f7f8dd183aaa7b7bab170fc3f15eb6d8f99eaf845273768b18f940d9aafd21b9",
        "summary.json": "52b7b4da486a57641d17b1233fc8d1fb74f41ca75bc3ef6cb9a3a33e7a43710f",
    },
    ("sweep", "--family", "pi4", "--param", "0.3", "--pairs", "20000"): {
        "adaptation.csv": "1110bef9a72e30d313bbea297de4e145e48c5b747adac9026c2c1af19bae5947",
        "analytic_correlations.csv": "a6eff7a7c37548a5964fb9c6ee8e2dd66c3f022d9c273bdc66fe40ca7c49b8b1",
        "f1_equidistance.csv": "24097ce95ad949a8ee7295d4f38eb993b5ea88fe5233484bc4074cd6981f5e6d",
        "mc_validation.csv": "5d7ee9fd92d32bc385764a91fceb713ce120703cac06b4612d1570dada0b800c",
        "summary.json": "d0a6306064208e4e22f88d12561f8188ef74f9b5052d3cc2eedb1fade74830d9",
    },
    ("sweep", "--family", "pi5", "--param", "0.3", "--pairs", "20000"): {
        "adaptation.csv": "cbed91ca9f3b6c93fe76ececc2c5d42fc612a5261c8e0ccb52c6981a1d363260",
        "f1_equidistance.csv": "5f532c5160648b584530c46f9e3f70453723d03096ce5d39a681023ef128c697",
        "pr_re.csv": "ad9664cc75c81a4bf3843f1baff34068f23376132b77544665bea3fbd8e4ed34",
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
