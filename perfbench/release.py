"""``release``: what a user runs to reproduce the paper.

Primary round: in-process ``hilbertnorm verify`` at the default
configuration (tol 1e-8, trunc 2048, seed 1729), the 16 checks.
Secondary round: every curve with ``--points 512`` and every table.

Verdicts must match the golden record exactly and each computed value must
match it within that check's own tolerance; curve and table output must be
byte-identical to the golden files.  Before timing, each curve is also run
once without ``--points``: the README documents a default of 512, so the
output must equal the ``--points 512`` golden file (``alpha-bounds`` defaults
to the alpha grid and has its own golden file).
"""

import contextlib
import io
import json
import math
from pathlib import Path

from common import Part, Workload

GOLDEN = Path(__file__).resolve().parent / "golden"
POINTS = "512"


def products(curves, tables):
    """(file stem, argv) of every data product."""
    return ([(name, ["curve", name, "--points", POINTS]) for name in curves]
            + [(name, ["table", name]) for name in tables])


def probes(curves):
    """(golden file stem, argv) of the no-``--points`` curve probes."""
    return [(name + ".default" if name == "alpha-bounds" else name,
             ["curve", name]) for name in curves]


def run_cli(main, argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def parse_verify(text):
    """Split verify stdout into header lines and check rows."""
    header, rows = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line)
        else:
            name, computed, target, status = line.split(",")
            rows.append({"name": name, "computed": float(computed),
                         "target": target, "status": status})
    return header, rows


def _target_values(target):
    return [float(v) for v in target.strip("()").split("..")]


def _matches(value, golden, tol):
    if math.isnan(golden):
        return math.isnan(value)
    return value == golden or abs(value - golden) <= tol


def check_verify(result, golden, tally):
    code, text = result
    try:
        header, rows = parse_verify(text)
    except ValueError as exc:
        tally.check(False, f"verify: unreadable output ({exc})")
        return
    tally.check(code == golden["exit_code"] and header == golden["header"]
                and len(rows) == len(golden["checks"]),
                f"verify: exit code {code}, {len(rows)} check rows")
    by_name = {row["name"]: row for row in rows}
    for want in golden["checks"]:
        got = by_name.get(want["name"])
        tol = want["tolerance"]
        ok = (got is not None
              and got["status"] == want["status"]
              and _matches(got["computed"], want["computed"], tol)
              and all(_matches(g, w, tol) for g, w in zip(
                  _target_values(got["target"]),
                  _target_values(want["target"]))))
        tally.check(ok, f"verify {want['name']}: got {got}, golden {want}")


def build(seed, entry, tally):
    # The seed does not reach the program: release keeps the product
    # default of 1729, so every run does the same work.
    del seed
    from hilbertnorm import cli

    main = entry(cli.main)
    golden = json.loads((GOLDEN / "verify.json").read_text())
    expected = {path.stem: path.read_text()
                for path in GOLDEN.glob("*.csv")}
    product_list = products(cli.CURVES, cli.TABLES)

    for stem, argv in probes(cli.CURVES):
        try:
            code, text = run_cli(cli.main, argv)
        except Exception as exc:  # the defect being recorded raises here
            tally.error(f"hilbertnorm {' '.join(argv)}: "
                        f"{type(exc).__name__}: {exc}")
            continue
        tally.check(code == 0 and text == expected.get(stem),
                    f"hilbertnorm {' '.join(argv)}: exit {code}")

    def run_products():
        return [(stem, run_cli(main, argv)) for stem, argv in product_list]

    def check_products(results, tally):
        for stem, (code, text) in results:
            tally.check(code == 0 and text == expected.get(stem),
                        f"product {stem}: exit {code} or output differs")

    return Workload(
        primary=Part(lambda: run_cli(main, ["verify"]),
                     lambda result, tally: check_verify(result, golden, tally)),
        secondary=Part(run_products, check_products, min_rounds=3),
    )
