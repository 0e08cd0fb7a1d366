"""Command-line front end for the verification suite and its data products.

Subcommands:

* ``verify`` -- run every verification check and print one report line per
  check (name, computed value, target, PASS/FAIL).  Check details go to
  standard error.  Exit status 0 when everything passes, 1 when a check
  fails, 3 when a check could not converge numerically.
* ``curve`` -- emit (abscissa, ordinate) rows for a named objective curve at
  the canonical evaluation grid of the corresponding supremum search, for
  downstream plotting.
* ``table`` -- emit a named summary table (norm bounds, modulus-mean band
  grid, unboundedness witnesses).
* ``list`` -- enumerate the registered check, curve, and table names.

All data output goes to standard out; diagnostics go to standard error.
Identical configuration produces byte-identical output.  CSV uses comma
separators, 17 significant digits, and '#'-prefixed comment lines carrying
the package version and the active configuration; JSON carries the same
payload as one object.
"""

import argparse
import collections.abc
import dataclasses
import json
import math
import numbers
import sys

import numpy as np

from . import __version__
from .catalog import DEFAULT_TRUNCATION
from .quadrature import QuadratureError
from .supsearch import (DEFAULT_N_GRID, DivergenceError, halfline_grid, pointwise,
                        unit_grid)
from .verification import (
    BLOCH_LOG_NORM,
    CHECK_NAMES,
    DEFAULT_ALPHA_GRID,
    DEFAULT_SEED,
    DEFAULT_TOLERANCE,
    H1_LOG_LOWER,
    H1_LOG_UPPER,
    HINF_LOG_NORM,
    WITNESS_ALPHAS,
    alpha_bound_values,
    bloch_a_objective,
    bloch_b_objective,
    h1_sup_objective,
    hinf_objective,
    hinf_sup_objective,
    inner_tolerance,
    modulus_band_grid,
    require_alpha_window,
    run_all,
    unboundedness_profile,
)

_FORMATS = ("csv", "json")


def _number(name, value):
    """value if it is a real number (not a bool), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Reproducible run parameters shared by every subcommand."""

    tolerance: float = DEFAULT_TOLERANCE
    truncation: int = DEFAULT_TRUNCATION
    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    output_format: str = "csv"
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0.0 < _number("tolerance", self.tolerance) < math.inf:
            raise ValueError("tolerance must be positive and finite")
        # x % 1 is nan for an infinite or nan x, so those fail here too
        if _number("truncation", self.truncation) % 1 != 0 or self.truncation < 16:
            raise ValueError("truncation must be an integer >= 16")
        if self.output_format not in _FORMATS:
            raise ValueError(
                f"output_format must be one of {', '.join(_FORMATS)}")
        if _number("seed", self.seed) % 1 != 0 or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        # a string passes as iterable, and its characters fail as entries
        if not isinstance(self.alpha_grid, collections.abc.Iterable):
            raise ValueError(f"alpha_grid must be a list, not {self.alpha_grid!r}")
        grid = tuple(float(_number("alpha_grid entry", a)) for a in self.alpha_grid)
        if not grid:
            raise ValueError("alpha_grid must not be empty")
        for a in grid:
            require_alpha_window(a)
        object.__setattr__(self, "alpha_grid", grid)
        object.__setattr__(self, "truncation", int(self.truncation))
        object.__setattr__(self, "seed", int(self.seed))

    def summary(self):
        grid = ",".join(format(a, "g") for a in self.alpha_grid)
        return (f"tolerance={self.tolerance:g} truncation={self.truncation} "
                f"seed={self.seed} alpha_grid={grid} "
                f"format={self.output_format}")


def _config_from_args(args):
    """Merge defaults, optional JSON config file, and explicit flags (flags
    win)."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    data = {}
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - fields)
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(unknown)}; valid keys: "
                f"{', '.join(sorted(fields))}")
        data.update(raw)
    for field, attr in (("tolerance", "tol"), ("truncation", "trunc"),
                        ("seed", "seed"), ("output_format", "format")):
        value = getattr(args, attr, None)
        if value is not None:
            data[field] = value
    return RunConfig(**data)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _fmt_target(target):
    if isinstance(target, tuple):
        lo, hi = target
        return f"({_fmt(float(lo))}..{_fmt(float(hi))})"
    return _fmt(float(target))


def _fmt_partial(partial):
    """A non-convergent check's partial result: the value and error
    estimate of a quadrature or search result, or the span and last point
    of a divergence witness's (arg, value) pairs."""
    if isinstance(partial, list):
        arg, value = partial[-1]
        return (f"divergence witness of {len(partial)} points, last "
                f"({_fmt(arg)}, {_fmt(value)})")
    return (f"value {_fmt(partial.value)}, error estimate "
            f"{partial.error_estimate:.3e}")


def _emit(name, columns, rows, config, out):
    """Write one data product in the configured format."""
    if config.output_format == "json":
        payload = {
            "version": __version__,
            "config": dataclasses.asdict(config),
            "name": name,
            "columns": list(columns),
            "rows": [list(row) for row in rows],
        }
        out.write(json.dumps(payload, indent=2))
        out.write("\n")
        return
    out.write(f"# hilbertnorm {__version__}\n")
    out.write(f"# config: {config.summary()}\n")
    out.write(f"# {name}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# curve registry
# ---------------------------------------------------------------------------


def _unit_radii(config, points):
    return unit_grid(DEFAULT_N_GRID if points is None else points)[1]


def _halfline_points(config, points):
    return halfline_grid(DEFAULT_N_GRID if points is None else points)


def _alpha_points(config, points):
    if points is None:
        return config.alpha_grid
    lo, hi = min(config.alpha_grid), max(config.alpha_grid)
    step = (hi - lo) / (points - 1) if points > 1 else 0.0
    return tuple(lo + i * step for i in range(points))


# name -> (columns, grid(config, points), objective factory(config)); the
# objective maps the grid, an ndarray of abscissae, to the remaining columns
# of each row (the growth-space objectives in one integration).
CURVES = {
    "bloch-A-objective": (("r", "value"), _unit_radii, lambda config:
                          bloch_a_objective(inner_tolerance(config.tolerance))),
    "bloch-B-objective": (("r", "value"), _unit_radii, lambda config:
                          bloch_b_objective(inner_tolerance(config.tolerance))),
    "h1-sup-objective": (("x", "value"), _halfline_points,
                         lambda config: h1_sup_objective),
    "hinf-sup-objective": (("x", "value"), _halfline_points,
                           lambda config: hinf_sup_objective),
    "hinf-objective": (("r", "value"), _unit_radii,
                       lambda config: hinf_objective),
    "alpha-bounds": (("alpha", "lower", "upper"), _alpha_points,
                     lambda config: pointwise(alpha_bound_values)),
}


# ---------------------------------------------------------------------------
# table registry
# ---------------------------------------------------------------------------


def _table_norm_summary(config):
    rows = [
        ("B", "B_log", BLOCH_LOG_NORM, BLOCH_LOG_NORM, BLOCH_LOG_NORM),
        ("Hinf", "Hinf_log", HINF_LOG_NORM, HINF_LOG_NORM, HINF_LOG_NORM),
        ("H1", "H1_log", H1_LOG_LOWER, H1_LOG_UPPER, None),
    ]
    for a in config.alpha_grid:
        lower, upper = alpha_bound_values(float(a))
        label = format(a, "g")
        rows.append((f"B^{label}", f"B^{label}_log", lower, upper, None))
    return rows


def _table_ic_bound_grid(config):
    slack = max(config.tolerance, 1e-10)
    return [
        (c, r, value, compared, lower, upper,
         lower - slack <= compared <= upper + slack)
        for c, r, value, compared, lower, upper
        in modulus_band_grid(max(1e-10, 0.01 * config.tolerance))
    ]


def _table_witnesses(config):
    rows = []
    for alpha in WITNESS_ALPHAS:
        js, rs, vals = unboundedness_profile(alpha)
        for j, r, v in zip(js, rs, vals):
            rows.append((alpha, int(j), float(r), float(v)))
    return rows


TABLES = {
    "norm-summary": (
        ("source", "target", "lower", "upper", "exact"), _table_norm_summary),
    "ic-bound-grid": (
        ("c", "r", "value", "compared", "lower", "upper", "within"),
        _table_ic_bound_grid),
    "unboundedness-witnesses": (
        ("alpha", "j", "r", "value"), _table_witnesses),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(config, out=None, err=None):
    """Run every check; report one line per check.  Returns the exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    out.write(f"# hilbertnorm {__version__}\n")
    out.write(f"# config: {config.summary()}\n")
    reports = run_all(tol=config.tolerance, truncation=config.truncation,
                      seed=config.seed, alpha_grid=config.alpha_grid)
    nonconvergent = False
    all_passed = True
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        out.write(f"{report.name},{_fmt(report.computed)},"
                  f"{_fmt_target(report.target)},{status}\n")
        partial = ("" if report.partial is None
                   else f"; partial result: {_fmt_partial(report.partial)}")
        err.write(f"# {report.name}: {report.detail}{partial}\n")
        all_passed = all_passed and report.passed
        if math.isnan(report.computed):
            nonconvergent = True
    if nonconvergent:
        return 3
    return 0 if all_passed else 1


def cmd_curve(name, config, points=None, out=None):
    """Emit one registered curve.  Returns the exit code."""
    out = sys.stdout if out is None else out
    columns, grid, factory = CURVES[name]
    xs = np.asarray(grid(config, points), dtype=float)
    rows = [(x, *np.atleast_1d(v).tolist())
            for x, v in zip(xs.tolist(), factory(config)(xs))]
    _emit(name, columns, rows, config, out)
    return 0


def cmd_table(name, config, out=None):
    """Emit one registered table.  Returns the exit code."""
    out = sys.stdout if out is None else out
    columns, builder = TABLES[name]
    rows = builder(config)
    _emit(name, columns, rows, config, out)
    return 0


def cmd_list(out=None):
    """Enumerate the check, curve, and table registries."""
    out = sys.stdout if out is None else out
    out.write("checks:\n")
    for name in CHECK_NAMES:
        out.write(f"  {name}\n")
    out.write("curves:\n")
    for name in CURVES:
        out.write(f"  {name}\n")
    out.write("tables:\n")
    for name in TABLES:
        out.write(f"  {name}\n")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hilbertnorm",
        description="Verified numerics for integral-operator norm bounds "
                    "on analytic function spaces of the unit disk.")
    parser.add_argument("--version", action="version",
                        version=f"hilbertnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON file with RunConfig fields; explicit "
                             "flags override it")

    p_verify = sub.add_parser(
        "verify", parents=[common],
        help="run all verification checks")
    # the help writes the tolerance as 1e-8, not as format's 1e-08
    p_verify.add_argument("--tol", type=float, metavar="T",
                          help=f"check tolerance (default "
                               f"{DEFAULT_TOLERANCE:g})".replace("e-0", "e-"))
    p_verify.add_argument("--trunc", type=int, metavar="N",
                          help=f"series truncation order (default {DEFAULT_TRUNCATION})")
    p_verify.add_argument("--seed", type=int, metavar="S",
                          help=f"seed for randomized checks (default {DEFAULT_SEED})")

    p_curve = sub.add_parser(
        "curve", parents=[common],
        help="emit a named objective curve as CSV or JSON")
    p_curve.add_argument("name", help="curve name (see 'list')")
    p_curve.add_argument("--format", choices=_FORMATS,
                         help="output format (default csv)")
    p_curve.add_argument("--points", type=int, metavar="P",
                         help=f"number of grid points (default {DEFAULT_N_GRID}; "
                              "alpha-bounds defaults to the alpha grid)")

    p_table = sub.add_parser(
        "table", parents=[common],
        help="emit a named summary table as CSV or JSON")
    p_table.add_argument("name", help="table name (see 'list')")
    p_table.add_argument("--format", choices=_FORMATS,
                         help="output format (default csv)")

    sub.add_parser("list", help="list check, curve, and table names")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        return cmd_list()

    try:
        config = _config_from_args(args)
        if args.command == "verify":
            return cmd_verify(config)
        points = getattr(args, "points", None)
        if points is not None and points < 2:
            raise ValueError("--points must be at least 2")
        if args.command == "curve":
            if args.name not in CURVES:
                raise ValueError(
                    f"unknown curve '{args.name}'; valid names: "
                    f"{', '.join(CURVES)}")
            return cmd_curve(args.name, config, points)
        if args.name not in TABLES:
            raise ValueError(
                f"unknown table '{args.name}'; valid names: "
                f"{', '.join(TABLES)}")
        return cmd_table(args.name, config)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, DivergenceError) as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
