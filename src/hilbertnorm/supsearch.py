"""One-dimensional supremum search over [0, 1) and [0, infinity).

Both searches run one core on a grid in a search coordinate x and differ
only in the grid and in the map from x to the objective's argument: the unit
interval uses r = 1 - e^{-x}, saturated at the largest double below 1, so a
uniform x-grid packs radii geometrically toward the boundary; the half-line
uses x itself, uniform on [0, 10] with a log-spaced tail. The core evaluates
the grid, raises a divergence signal carrying the witness values when the
objective blows up along the tail, and classifies the first point within the
tie band of the maximum (ties break toward the smallest argument) as AtZero,
Interior or AtBoundaryLimit. A maximum at the first grid point is AtZero
unless one call on 7 geometric points below the second one finds a larger
value; an interior maximum is refined by Brent's method in x, one point per
call. Objectives map an ndarray of arguments to an ndarray of values, so the
grid is one call. A removable singularity at 0 is the objective's job: the
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

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_R_MAX = np.nextafter(1.0, 0.0)

# The default grids of both searches: the number of points, and the end of
# the x-range on the unit interval and on the half-line.
DEFAULT_N_GRID = 512
DEFAULT_UNIT_X_MAX = 40.0
DEFAULT_HALFLINE_X_MAX = 60.0


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


def _brent_max(fun, lo, hi):
    """Maximum of the scalar function fun on [lo, hi] by Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5): a parabolic step through the three best points when it lands
    inside the bracket and moves less than half the step before last, a
    golden-section step into the larger side otherwise. One point per call,
    each strictly inside [lo, hi]; stops once the best point x is within
    2 t - (b - a)/2 of the middle of the bracket [a, b] left,
    t = sqrt(eps) |x| + 1e-12. Returns (x_best, f_best)."""
    a, b = lo, hi
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = -fun(x)  # Brent minimizes; so does this core, -fun
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + 1e-12
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, -fx
        p = q = r = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = -fun(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _check_divergence(xs, vals, x_span_tail):
    """Raise DivergenceError if the tail grows by a factor > 10 over the
    last x_span_tail of the grid (log(10), the final decade of boundary
    approach, on the unit interval) and is monotone. A grid spanning less
    than x_span_tail has no such tail and passes."""
    x_last = xs[-1]
    if x_last - xs[0] < x_span_tail:
        return
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


def unit_grid(n_grid=DEFAULT_N_GRID, x_max=DEFAULT_UNIT_X_MAX):
    """Canonical evaluation radii for unit-interval suprema: r = 1 - e^{-x}
    for x uniform on [0, x_max], saturated at the largest double below 1 and
    deduplicated there.  Returns (xs, rs)."""
    xs = np.linspace(0.0, x_max, n_grid)
    rs = -np.expm1(-xs)
    rs = np.minimum(rs, _R_MAX)
    keep = np.concatenate([[True], rs[1:] > rs[:-1]])
    return xs[keep], rs[keep]


def halfline_grid(n_grid=DEFAULT_N_GRID, x_max=DEFAULT_HALFLINE_X_MAX):
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
    band of the grid maximum, max(tol, 4 eps) times its modulus so that the
    class does not depend on the scale of g, is classified. A maximum at
    the first point takes one more call, on the 7 points x1 10^-k,
    k = 7..1, below the second grid point x1: it is AtZero unless one of
    them beats it by more than the tie band, and then the best of them is
    refined in its place. _brent_max refines the grid maximum, which may
    lie past that first point, between its two neighbours in x, one point
    per call. An interior supremum's error estimate is the tie band of its
    value.
    limit_at_infinity, when it beats the grid maximum by more than the tie
    band, is the supremum at arg = infinity; tail_span is the x-distance the
    divergence test looks back over."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol {tol} must be positive and finite")
    band = max(tol, 4.0 * np.finfo(float).eps)

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
    tie_tol = band * abs(vmax)
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

    if ibest == 0:
        # one call between the first two grid points, at x1 10^-k
        edges = [float(xs[0]), *(float(xs[1]) * 10.0 ** -k for k in range(7, 0, -1)),
                 float(xs[1])]
        near_args = np.array([to_arg(x) for x in edges[1:-1]])
        near_vals = evaluate(near_args)
        j = int(np.argmax(near_vals))
        if not near_vals[j] > vals[0] + tie_tol:
            return SupResult(vmax, 0.0, AT_ZERO, float(abs(vals[0] - vals[1])))
        vmax, arg_best, lo, hi = (float(near_vals[j]), float(near_args[j]),
                                  edges[j], edges[j + 2])
    else:
        top = int(np.argmax(vals))
        arg_best, lo, hi = (float(args[top]), float(xs[top - 1]),
                            float(xs[min(top + 1, last)]))
    x_star, v_star = _brent_max(
        lambda x: float(evaluate(np.array([to_arg(x)]))[0]), lo, hi)
    value = max(vmax, v_star)
    arg = float(to_arg(x_star)) if v_star >= vmax else arg_best
    return SupResult(value, arg, INTERIOR, band * abs(value))


def _require_grid(n_grid, x_max, x_min):
    """ValueError unless n_grid >= 2 and x_min < x_max < infinity."""
    if not n_grid >= 2:
        raise ValueError(f"n_grid {n_grid} must be at least 2")
    if not x_min < x_max < math.inf:
        raise ValueError(f"x_max {x_max} must be finite and above {x_min:g}")


def supremum_unit(g, tol, n_grid=DEFAULT_N_GRID, x_max=DEFAULT_UNIT_X_MAX):
    """Supremum of g over r in [0, 1).

    g maps an ndarray of radii to an ndarray of values of the same shape,
    its value at r = 0 included. Evaluates g on r = 1 - e^{-x} for x uniform
    on [0, x_max] in one call (the grid saturates at the largest double
    below 1 and is deduplicated there), classifies the maximizer and
    refines it in x: one call on 7 radii below the second grid radius for a
    maximum at r = 0, one radius per call in Brent's method. n_grid must
    be at least 2 and x_max positive and finite."""
    _require_grid(n_grid, x_max, 0.0)
    xs, rs = unit_grid(n_grid, x_max)
    return _search(g, tol, xs, rs, lambda x: min(-math.expm1(-x), _R_MAX),
                   None, math.log(10.0))


def supremum_halfline(g, tol, limit_at_infinity=None, n_grid=DEFAULT_N_GRID,
                      x_max=DEFAULT_HALFLINE_X_MAX):
    """Supremum of g over x in [0, infinity).

    g maps an ndarray of abscissae to an ndarray of values, as in
    supremum_unit. Uniform grid on [0, 10] plus a log-spaced tail to x_max;
    a caller-supplied limit at infinity, not NaN, enters the comparison as
    an ordinary candidate (ties break toward the smallest argument, with
    infinity largest). n_grid must be at least 2 and x_max finite and
    above 10, where the tail starts."""
    _require_grid(n_grid, x_max, 10.0)
    if limit_at_infinity is not None and math.isnan(limit_at_infinity):
        raise ValueError("limit_at_infinity must not be NaN")
    xs = halfline_grid(n_grid, x_max)
    return _search(g, tol, xs, xs, float, limit_at_infinity,
                   x_max - x_max / 10.0)
