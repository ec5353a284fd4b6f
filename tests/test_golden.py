"""Golden outputs of ``analyze`` on two frozen inputs.

The hashes and the compressed ``pca.csv`` files under ``data/golden``
were produced by the implementation that probed every plateau by
re-ranking all items, before the finite-set engine switched to counting
crossings.  Both CLI runs use a relative ``--input`` from inside
``tests/data``, because the input path is part of the config hash that
every output carries.  ``pca.csv`` goes through an eigendecomposition
whose last bits depend on the linear-algebra library, so it is compared
numerically; every other file must match byte for byte.
"""

import csv
import gzip
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from prtradeoff import cli

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
}


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

    golden = gzip.decompress((DATA / "golden" / f"{Path(name).stem}_pca.csv.gz").read_bytes())
    want = _pca_table(golden.decode())
    got = _pca_table((out / "pca.csv").read_text())
    assert got[0] == want[0]
    assert got[1] == pytest.approx(want[1], rel=1e-9, abs=1e-9)
    assert got[2:4] == want[2:4]
    np.testing.assert_allclose(got[4], want[4], rtol=1e-9, atol=1e-9)
