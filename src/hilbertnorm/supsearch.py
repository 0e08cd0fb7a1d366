"""One-dimensional supremum search over [0, 1) and [0, infinity).

Both searches run one core on a grid in a search coordinate x and differ
only in the grid and in the map from x to the objective's argument: the unit
interval uses r = 1 - e^{-x}, saturated at the largest double below 1, so a
uniform x-grid packs radii geometrically toward the boundary; the half-line
uses x itself, uniform on [0, 10] with a log-spaced tail. The core evaluates
the grid, raises a divergence signal carrying the witness values when the
objective blows up along the tail, classifies the first point within the tie
band of the maximum (ties break toward the smallest argument) as AtZero,
Interior or AtBoundaryLimit, and refines its bracket by golden section in x.
Objectives map an ndarray of arguments to an ndarray of values: the grid is
one call, and refinement is speculative, each call evaluating every point
the next three golden steps can reach, with the same result as one point
per step. A removable singularity at 0 is the objective's job: the
objective returns its value at 0, and the searcher never extrapolates to
points it did not evaluate. pointwise lifts a scalar closed form to such an
objective in its own scalar arithmetic.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupResult",
    "DivergenceError",
    "INTERIOR",
    "AT_ZERO",
    "AT_BOUNDARY_LIMIT",
    "supremum_unit",
    "supremum_halfline",
    "pointwise",
]

INTERIOR = "Interior"
AT_ZERO = "AtZero"
AT_BOUNDARY_LIMIT = "AtBoundaryLimit"

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_MAX_ITER = 160
_LOOKAHEAD = 3  # golden steps per objective call, at most 7 points a bracket
_R_MAX = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SupResult:
    """value: the supremum found (>= every evaluated objective value);
    arg: maximizer in original coordinates, the last grid point for a
    boundary limit, or 0 for a supremum at the left edge;
    boundary: one of Interior, AtZero, AtBoundaryLimit;
    error_estimate: conservative accuracy indicator for value."""
    value: float
    arg: float
    boundary: str
    error_estimate: float


class DivergenceError(Exception):
    """Objective grows without bound along the boundary grid. Carries the
    witness (arg, value) pairs over the final decade."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or []


def _golden_max(fun, lo, hi):
    """Golden-section maximization on every bracket [lo[i], hi[i]] in
    lockstep. fun(x, i) returns the objective of bracket i[j] at x[j] for
    index arrays i: first at the two interior points of every bracket, in
    one call, then once per _LOOKAHEAD golden steps of the brackets still
    live. A step's point follows from the comparison of the bracket's two
    interior values, so the next _LOOKAHEAD steps can reach at most
    2^_LOOKAHEAD - 1 points, all known before any of their values: the
    first step's point, then two points for each outcome of each
    comparison. The call evaluates all of them, and the steps are then
    taken one at a time on those values with the arithmetic of a one-point
    step, so the result is bit for bit that of one point per step. A
    bracket stops once it is 1e-12 relative narrow (never on its two
    interior values agreeing: they can agree while they straddle the peak),
    or after 160 steps. Returns the arrays (x_best, f_best)."""
    lo, hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi))
    live = np.arange(lo.size)
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = np.split(np.asarray(fun(np.concatenate([c, d]),
                                     np.concatenate([live, live])),
                                 dtype=float), 2)
    x_best, f_best = np.empty(lo.size), np.empty(lo.size)

    def finish(ids, c, d, fc, fd):
        at_c = fc >= fd
        x_best[ids], f_best[ids] = np.where(at_c, c, d), np.where(at_c, fc, fd)

    steps = 0
    while live.size:
        depth = min(_LOOKAHEAD, _GOLDEN_MAX_ITER - steps)
        # the brackets the next depth steps can reach, level by level: the
        # first step goes the way the known values say, each later one both
        # ways (children 2k and 2k + 1 of node k step left and right)
        left = first = fc >= fd
        owner, levels = live, []
        for level in range(depth):
            if level:
                lo, c, d, hi, owner = (np.repeat(v, 2)
                                       for v in (lo, c, d, hi, owner))
                left = np.arange(lo.size) % 2 == 0
            lo, hi = np.where(left, lo, c), np.where(left, d, hi)
            width = hi - lo
            step = _INVPHI * width
            x = np.where(left, hi - step, lo + step)
            c, d = np.where(left, x, d), np.where(left, c, x)
            done = width <= 1e-12 * np.maximum(1.0, np.abs(c))
            levels.append((x, owner, c, d, done))
        fx = np.asarray(fun(np.concatenate([v[0] for v in levels]),
                            np.concatenate([v[1] for v in levels])),
                        dtype=float)
        # take the steps one at a time on those values: node idx of a level
        # is entry idx of its arrays and of its slice of fx
        left, idx, start = first, np.arange(live.size), 0
        for level, (x, _, c, d, done) in enumerate(levels):
            if level:
                left = fc >= fd
                idx = 2 * idx + ~left
            f = fx[start + idx]
            start += x.size
            fc, fd = np.where(left, f, fd), np.where(left, fc, f)
            stop = done[idx]
            if np.count_nonzero(stop):
                finish(live[stop], c[idx[stop]], d[idx[stop]], fc[stop],
                       fd[stop])
                idx, fc, fd, live = (v[~stop] for v in (idx, fc, fd, live))
        lo, c, d, hi = lo[idx], c[idx], d[idx], hi[idx]
        steps += depth
        if steps == _GOLDEN_MAX_ITER:
            finish(live, c, d, fc, fd)
            break
    return x_best, f_best


def _check_divergence(xs, vals, x_span_tail):
    """Raise DivergenceError if the tail grows by a factor > 10 over the
    last x_span_tail of the grid (log(10), the final decade of boundary
    approach, on the unit interval) and is monotone."""
    x_last = xs[-1]
    # pick the comparison point at least a full decade back
    idx = int(np.searchsorted(xs, x_last - x_span_tail, side="right")) - 1
    idx = min(max(idx, 0), len(xs) - 2)
    tail = vals[idx:]
    if vals[-1] > 0 and np.all(np.diff(tail) > 0) and vals[-1] > 10.0 * max(vals[idx], 1e-300):
        witness = list(zip(xs[idx:].tolist(), tail.tolist()))
        raise DivergenceError(
            f"objective grows by factor {vals[-1] / max(vals[idx], 1e-300):.3g} "
            "over the final decade of boundary approach",
            witness=witness)


def unit_grid(n_grid=512, x_max=40.0):
    """Canonical evaluation radii for unit-interval suprema: r = 1 - e^{-x}
    for x uniform on [0, x_max], saturated at the largest double below 1 and
    deduplicated there.  Returns (xs, rs)."""
    xs = np.linspace(0.0, x_max, n_grid)
    rs = -np.expm1(-xs)
    rs = np.minimum(rs, _R_MAX)
    keep = np.concatenate([[True], rs[1:] > rs[:-1]])
    return xs[keep], rs[keep]


def halfline_grid(n_grid=512, x_max=60.0):
    """Canonical evaluation abscissae for half-line suprema: a uniform grid
    on [0, 10] extended by a log-spaced tail to x_max."""
    n_lin = max(n_grid - 128, 16)
    return np.concatenate([np.linspace(0.0, 10.0, n_lin),
                           np.geomspace(10.0, x_max, 129)[1:]])


def pointwise(f):
    """The array map of the scalar function f: a 1-d array of arguments maps
    to the array of f at each of them, taken as Python floats, so f keeps
    its scalar arithmetic (np.log, np.expm1 and ** over an array round some
    values differently from the scalar calls); a scalar argument gives f's
    own value."""
    @functools.wraps(f)
    def lifted(x):
        if np.ndim(x) == 0:
            return f(x)
        return np.array([f(v) for v in np.asarray(x, dtype=float).tolist()])
    return lifted


def _search(g, tol, xs, args, to_arg, limit_at_infinity, tail_span):
    """Supremum of g over the grid args = to_arg(xs), the body of both
    public searches. g maps an ndarray of arguments to an ndarray of values
    of the same shape. The grid is one call; the first point within the tie
    band of the grid maximum is classified, and its bracket is golden-refined
    in x, one call on the bracket's two interior points and then one on the
    up to 7 points that each next three golden steps can reach.
    limit_at_infinity, when it beats the grid maximum by more than the tie
    band, is the supremum at arg = infinity; tail_span is the x-distance the
    divergence test looks back over."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol {tol} must be positive and finite")

    def evaluate(args):
        vals = np.asarray(g(args), dtype=float)
        if vals.shape != args.shape:
            raise ValueError(f"objective returned shape {vals.shape} for "
                             f"{args.shape} arguments")
        return vals

    vals = evaluate(args)
    bad = np.nonzero(~np.isfinite(vals))[0]
    if bad.size:
        raise ValueError(f"objective not finite at {args[bad[0]]!r}")
    _check_divergence(xs, vals, tail_span)

    vmax = float(np.max(vals))
    tie_tol = max(tol, 4.0 * np.finfo(float).eps) * max(1.0, abs(vmax))
    if limit_at_infinity is not None and float(limit_at_infinity) > vmax + tie_tol:
        return SupResult(float(limit_at_infinity), math.inf, AT_BOUNDARY_LIMIT,
                         float(abs(float(limit_at_infinity) - vals[-1])))

    attains = np.nonzero(vals >= vmax - tie_tol)[0]
    ibest = int(attains[0])
    last = len(xs) - 1
    # A strictly increasing tail whose tie band reaches the last point is a
    # boundary-limit supremum, also when the increments dropped below the
    # tie tolerance; plateaus keep first-index ties.
    if ((ibest == last or (ibest != 0 and int(attains[-1]) == last))
            and np.all(np.diff(vals[-3:]) > 0)):
        return SupResult(vmax, float(args[-1]), AT_BOUNDARY_LIMIT,
                         float(abs(vals[-1] - vals[-2])))

    x_star, v_star = (float(v[0]) for v in _golden_max(
        lambda x, _: evaluate(np.array([to_arg(v) for v in x.tolist()])),
        xs[max(ibest - 1, 0)], xs[min(ibest + 1, last)]))
    if ibest == 0 and v_star <= vals[0] + tie_tol:
        return SupResult(vmax, 0.0, AT_ZERO,
                         float(abs(vals[0] - vals[1])) if len(vals) > 1 else 0.0)
    value = max(vmax, v_star)
    arg = float(to_arg(x_star)) if v_star >= vmax else float(args[ibest])
    return SupResult(value, arg, INTERIOR,
                     float(abs(v_star - vmax) + tol * max(1.0, value)))


def supremum_unit(g, tol, n_grid=512, x_max=40.0):
    """Supremum of g over r in [0, 1).

    g maps an ndarray of radii to an ndarray of values of the same shape,
    its value at r = 0 included. Evaluates g on r = 1 - e^{-x} for x uniform
    on [0, x_max] in one call (the grid saturates at the largest double
    below 1 and is deduplicated there), golden-refines the winning bracket
    in x, up to 7 radii per call, and classifies the maximizer."""
    xs, rs = unit_grid(n_grid, x_max)
    return _search(g, tol, xs, rs, lambda x: min(-math.expm1(-x), _R_MAX),
                   None, math.log(10.0))


def supremum_halfline(g, tol, limit_at_infinity=None, n_grid=512,
                      x_max=60.0):
    """Supremum of g over x in [0, infinity).

    g maps an ndarray of abscissae to an ndarray of values, as in
    supremum_unit. Uniform grid on [0, 10] plus a log-spaced tail to x_max;
    a caller-supplied limit at infinity enters the comparison as an
    ordinary candidate (ties break toward the smallest argument, with
    infinity largest)."""
    xs = halfline_grid(n_grid, x_max)
    return _search(g, tol, xs, xs, float, limit_at_infinity,
                   x_max - x_max / 10.0)
