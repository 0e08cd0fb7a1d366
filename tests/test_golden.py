"""The verify checks, every curve and every table against the golden record
in perfbench/golden/.

The verify reports (run_all at tol 1e-8, the verify default) are held to
verify.json by the benchmark's rule: each status exactly, each computed value
and target endpoint within that check's own tolerance.  Each product is run
in-process (curves with --points 512, plus alpha-bounds on its default alpha
grid) and compared with its recorded CSV: the comment and column lines
exactly, every number to 1e-12 relative.  The benchmark holds the same files
to byte identity; the relative bound here leaves room for last-digit
differences between libm and SIMD builds.
"""

import json
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


def _within(got, want, tol):
    if math.isnan(want):
        return math.isnan(got)
    return got == want or abs(got - want) <= tol


def test_verify_matches_golden(verify_run):
    reports, _ = verify_run
    golden = json.loads((GOLDEN / "verify.json").read_text())["checks"]
    assert [r.name for r in reports] == [want["name"] for want in golden]
    for report, want in zip(reports, golden):
        tol = want["tolerance"]
        got_target = report.target if isinstance(report.target, tuple) else (report.target,)
        want_target = [float(v) for v in want["target"].strip("()").split("..")]
        assert ("PASS" if report.passed else "FAIL") == want["status"], report.name
        assert _within(report.computed, want["computed"], tol), (report, want)
        assert len(got_target) == len(want_target), (report, want)
        assert all(_within(float(g), w, tol)
                   for g, w in zip(got_target, want_target)), (report, want)
