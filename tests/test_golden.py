"""Every curve and table against the golden record in perfbench/golden/.

Each product is run in-process (curves with --points 512, plus alpha-bounds
on its default alpha grid) and compared with its recorded CSV: the comment
and column lines exactly, every number to 1e-12 relative.  The benchmark
holds the same files to byte identity; the relative bound here leaves room
for last-digit differences between libm and SIMD builds.
"""

import math
from pathlib import Path

import pytest

from hilbertnorm.cli import CURVES, TABLES, main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

PRODUCTS = (
    [(name, ["curve", name, "--points", "512"]) for name in CURVES]
    + [("alpha-bounds.default", ["curve", "alpha-bounds"])]
    + [(name, ["table", name]) for name in TABLES]
)


def _same_field(got, want):
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=0.0)
    except ValueError:
        return False


@pytest.mark.parametrize("stem, argv", PRODUCTS, ids=[p[0] for p in PRODUCTS])
def test_product_matches_golden(stem, argv, capsys):
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / f"{stem}.csv").read_text().splitlines()
    assert len(got) == len(want)
    # comment lines and the column line
    n_head = next(i for i, line in enumerate(want) if not line.startswith("#")) + 1
    assert got[:n_head] == want[:n_head]
    for got_row, want_row in zip(got[n_head:], want[n_head:]):
        got_fields, want_fields = got_row.split(","), want_row.split(",")
        assert len(got_fields) == len(want_fields)
        assert all(map(_same_field, got_fields, want_fields)), (got_row, want_row)
