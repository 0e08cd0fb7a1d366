"""Write the golden record that the ``release`` workload compares against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_golden.py

It writes ``perfbench/golden/verify.json`` (stdout header, exit code, and per
check: name, computed value, target, verdict and the check's own tolerance)
and one file per data product with the exact CLI output.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hilbertnorm import cli  # noqa: E402

from release import GOLDEN, parse_verify, probes, products, run_cli  # noqa: E402


def main():
    GOLDEN.mkdir(exist_ok=True)
    reports = []
    run_all = cli.run_all

    def capturing_run_all(*args, **kwargs):
        reports.extend(run_all(*args, **kwargs))
        return reports

    cli.run_all = capturing_run_all
    try:
        code, text = run_cli(cli.main, ["verify"])
    finally:
        cli.run_all = run_all
    header, rows = parse_verify(text)
    for row, report in zip(rows, reports):
        if row["name"] != report.name:
            raise SystemExit(f"stdout row {row['name']} != {report.name}")
        row["tolerance"] = report.tolerance
    record = {"exit_code": code, "header": header, "checks": rows}
    (GOLDEN / "verify.json").write_text(json.dumps(record, indent=1) + "\n")

    outputs = products(cli.CURVES, cli.TABLES)
    outputs += [(stem, argv) for stem, argv in probes(cli.CURVES)
                if stem.endswith(".default")]
    for stem, argv in outputs:
        code, text = run_cli(cli.main, argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        (GOLDEN / f"{stem}.csv").write_text(text)
    print(f"wrote {len(outputs) + 1} golden files to {GOLDEN}")


if __name__ == "__main__":
    main()
