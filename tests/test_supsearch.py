"""Supremum search over the unit interval and the half-line."""

import math
import re

import numpy as np
import pytest

from hilbertnorm.supsearch import (
    AT_BOUNDARY_LIMIT,
    AT_ZERO,
    INTERIOR,
    DivergenceError,
    SupResult,
    halfline_grid,
    pointwise,
    supremum_halfline,
    supremum_unit,
    unit_grid,
    _brent_max,
)


def _array_twin(g):
    """The objective g on an ndarray of arguments, one value per element."""
    return lambda args: np.array([g(float(a)) for a in args])


# Both entry points search the same problems through the array twin of each
# objective, the unit search through r = 1 - e^{-x}.  Each objective below
# is a function of the distance to the boundary, e = 1 - r = e^{-x}, which
# both coordinates compute without cancellation.
SEARCHES = {
    "unit": (supremum_unit, lambda r: 1.0 - r, unit_grid()[1]),
    "halfline": (supremum_halfline, lambda x: math.exp(-x), halfline_grid()),
}
both_searches = pytest.mark.parametrize("entry", sorted(SEARCHES))


def _search(entry, h, tol, **kwargs):
    search, dist, _ = SEARCHES[entry]
    return search(_array_twin(lambda t: h(dist(t))), tol, **kwargs)


@both_searches
def test_interior_maximum(entry):
    res = _search(entry, lambda e: e * (1.0 - e), 1e-10)
    assert res.boundary == INTERIOR
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert SEARCHES[entry][1](res.arg) == pytest.approx(0.5, abs=1e-4)


@both_searches
def test_maximum_at_zero(entry):
    res = _search(entry, lambda e: 1.0 / (2.0 - e), 1e-10)
    assert res.boundary == AT_ZERO
    assert res.value == 1.0
    assert res.arg == 0.0


def test_unit_boundary_limit():
    res = supremum_unit(lambda r: r, 1e-10)
    assert res.boundary == AT_BOUNDARY_LIMIT
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.arg < 1.0


@pytest.mark.parametrize("power", [0.1, 0.5])
@both_searches
def test_boundary_limit_steep_tail(entry, power):
    # 1 - e^power keeps rising to the last grid point.  At power 0.5 on the
    # half-line the increments past x = 46 fall below the tie tolerance; a
    # rising tail is still a boundary limit, not an interior maximum at the
    # first point of the tie band.
    def h(e):
        return 1.0 - e ** power

    res = _search(entry, h, 1e-10)
    _, dist, grid = SEARCHES[entry]
    assert res.boundary == AT_BOUNDARY_LIMIT
    assert res.arg == grid[-1]
    assert res.value == h(dist(grid[-1]))


def test_unit_limit_replaces_removable_point():
    # the objective owns its value at the removable point r = 0, where
    # sin(r)/r would raise ZeroDivisionError
    def g(r):
        return math.sin(r) / r if r else 1.0

    res = supremum_unit(_array_twin(g), 1e-10)
    assert res.value == 1.0
    assert res.boundary == AT_ZERO


@both_searches
def test_divergence_detected(entry):
    with pytest.raises(DivergenceError):
        _search(entry, lambda e: 1.0 / e, 1e-8)


@both_searches
def test_rejects_nonfinite_objective(entry):
    with pytest.raises(ValueError):
        _search(entry, lambda e: math.inf if e < 0.5 else 1.0, 1e-8)


@both_searches
def test_rejects_bad_tolerance(entry):
    with pytest.raises(ValueError):
        _search(entry, lambda e: 1.0 - e, 0.0)


@both_searches
def test_rejects_infinite_tolerance(entry):
    # an infinite tie band put every grid point in it: the search reported
    # AtZero for objectives that rise to the boundary
    with pytest.raises(ValueError, match="finite"):
        _search(entry, lambda e: 1.0 - e, math.inf)


@pytest.mark.parametrize("search, kwargs, name", [
    (supremum_unit, {"n_grid": 0}, "n_grid"),
    (supremum_unit, {"n_grid": 1}, "n_grid"),
    (supremum_unit, {"x_max": -1.0}, "x_max"),
    (supremum_unit, {"x_max": 0.0}, "x_max"),
    (supremum_unit, {"x_max": math.nan}, "x_max"),
    (supremum_unit, {"x_max": math.inf}, "x_max"),
    (supremum_halfline, {"n_grid": 1}, "n_grid"),
    (supremum_halfline, {"x_max": 5.0}, "x_max"),
    (supremum_halfline, {"x_max": 10.0}, "x_max"),
    (supremum_halfline, {"x_max": math.nan}, "x_max"),
    (supremum_halfline, {"x_max": math.inf}, "x_max"),
    (supremum_halfline, {"limit_at_infinity": math.nan}, "limit_at_infinity"),
    (supremum_halfline, {"limit_at_infinity": np.float64("nan")}, "limit_at_infinity"),
])
def test_rejects_a_bad_grid_or_limit(search, kwargs, name):
    # the grid parameters once gave an IndexError, a misleading non-finite
    # objective or, on the half-line, a grid running back down from 10 to
    # x_max; a NaN limit was dropped
    with pytest.raises(ValueError, match=name):
        search(lambda x: x / (1.0 + x), 1e-8, **kwargs)


@pytest.mark.parametrize("search, x_max", [(supremum_unit, 1e-3),
                                           (supremum_halfline, 10.5)])
def test_accepts_the_smallest_grids(search, x_max):
    # two grid points and x_max just inside its range still search, and
    # the supremum of a rising objective is at the end of the range
    res = search(lambda x: 2.0 - 1.0 / (1.0 + x), 1e-8, n_grid=2, x_max=x_max)
    assert res.boundary == AT_BOUNDARY_LIMIT and 0.0 < res.arg <= x_max


@pytest.mark.parametrize("g, kwargs", [
    (lambda r: r, {"x_max": 2.0}),
    (lambda r: r / (1.0 + r), {"n_grid": 2, "x_max": 1e-3}),
], ids=["r-to-2", "r-over-1-plus-r-two-points"])
def test_short_grid_has_no_divergent_tail(g, kwargs):
    # a grid shorter than the final decade once compared its last value with
    # the 0 at r = 0, floored to 1e-300, and raised DivergenceError with a
    # growth factor near 1e300; a bounded objective rising to the end of the
    # range has its supremum there
    res = supremum_unit(_array_twin(g), 1e-8, **kwargs)
    r_end = -math.expm1(-kwargs["x_max"])
    assert res.boundary == AT_BOUNDARY_LIMIT and res.arg == r_end
    assert res.value == g(r_end)


# Scalar objectives on [0, 1), the keywords of their unit search, and the
# result each gave when a scalar objective took one point per call (grid
# point by grid point, one refinement point per call) and a limit_at_zero
# argument replaced the value at r = 0, which the objectives below now
# return themselves; the arguments and error estimates of the two interior
# suprema are those of Brent refinement, their values those of the golden
# section before it; reprs round-trip, so == is bit for bit.
UNIT_OBJECTIVES = [
    (lambda r: (1.0 - r) * r, {},
     SupResult(0.25, 0.499999994774665, INTERIOR, 2.5e-10)),
    (lambda r: 1.0 / (1.0 + r), {},
     SupResult(1.0, 0.0, AT_ZERO, 0.0700205458221056)),
    (lambda r: 1.0 - (1.0 - r) ** 0.1, {},
     SupResult(0.9746171126138676, 0.9999999999999999, AT_BOUNDARY_LIMIT,
               0.00182181771687151)),
    (lambda r: math.sin(5.0 * r) * (1.0 - r), {},
     SupResult(0.7130497995967379, 0.2612792934979051, INTERIOR,
               7.130497995967379e-10)),
    (lambda r: math.sin(r) / r if r else 1.0, {},
     SupResult(1.0, 0.0, AT_ZERO, 0.0009445608140793427)),
    (lambda r: 2.0, {"n_grid": 64, "x_max": 25.0},
     SupResult(2.0, 0.0, AT_ZERO, 0.0)),
]


@pytest.mark.parametrize("case", range(len(UNIT_OBJECTIVES)))
def test_vectorized_twin_gives_identical_result(case):
    # the array search of the twin gives the scalar search's result; so
    # does the library's lift of g
    g, kwargs, scalar = UNIT_OBJECTIVES[case]
    assert supremum_unit(_array_twin(g), 1e-9, **kwargs) == scalar
    assert supremum_unit(pointwise(g), 1e-9, **kwargs) == scalar


def test_vectorized_grid_is_one_call():
    calls = []

    def g(rs):
        calls.append(rs.size)
        return rs * (1.0 - rs)

    supremum_unit(g, 1e-10)
    # the grid, then Brent refinement, one point per call
    assert calls[0] == unit_grid()[1].size
    assert len(calls) > 1 and set(calls[1:]) == {1}


@both_searches
def test_interior_error_estimate_is_scale_free(entry):
    # the error estimate of an interior supremum is the tie band of its
    # value, relative like the band; tol * max(1, value) was absolute below
    # 1 and did not shrink with the objective
    res = _search(entry, lambda e: e * (1.0 - e), 1e-9)
    small = _search(entry, lambda e: 1e-6 * e * (1.0 - e), 1e-9)
    assert res.boundary == small.boundary == INTERIOR
    assert small.error_estimate == pytest.approx(1e-6 * res.error_estimate,
                                                 rel=1e-12)


@both_searches
def test_maximum_at_zero_takes_one_probe_call(entry):
    # a grid maximum at the first point takes one call on at most 7 points
    # between the first two grid points, and none of them beats it
    calls = []
    search, dist, grid = SEARCHES[entry]

    def g(args):
        calls.append(args.copy())
        return np.array([1.0 / (2.0 - dist(float(a))) for a in args])

    res = search(g, 1e-10)
    assert res == SupResult(1.0, 0.0, AT_ZERO, res.error_estimate)
    assert len(calls) == 2 and calls[0].size == grid.size
    assert 1 <= calls[1].size <= 7
    assert np.all((0.0 < calls[1]) & (calls[1] < grid[1]))


@both_searches
def test_narrow_bump_below_the_first_grid_step_is_interior(entry):
    # a bump of width x1/4000 at x1 10^-3, invisible to the grid, whose
    # maximum is at 0: the probe call finds it, and Brent refines it
    search = SEARCHES[entry][0]
    to_x = (lambda r: -math.log1p(-r)) if entry == "unit" else (lambda x: x)
    x1 = float((unit_grid()[0] if entry == "unit" else halfline_grid())[1])
    center = 1e-3 * x1
    width = center / 4.0

    def h(x):
        return 1.0 / (1.0 + x) + 0.5 * math.exp(-((x - center) / width) ** 2)

    res = search(_array_twin(lambda a: h(to_x(a))), 1e-10)
    # the maximum of h on 2001 points, then on 2001 more around the best
    peak, step = center, width
    for _ in range(2):
        xs = np.linspace(peak - step, peak + step, 2001).tolist()
        dense, peak = max((h(x), x) for x in xs)
        step /= 1000.0
    assert res.boundary == INTERIOR
    assert res.value == pytest.approx(dense, rel=1e-12)
    assert res.value >= dense
    assert to_x(res.arg) == pytest.approx(center, rel=1e-2)


@both_searches
def test_interior_supremum_is_refined_where_it_is_attained(entry):
    # tanh(x) enters the 1e-8 tie band at x ~ 9.6 and stays in it, a long
    # plateau before the maximum at x = 20: the search refines the grid
    # maximum, not the first point of the band, and reports its argument
    search = SEARCHES[entry][0]
    to_x = (lambda r: -math.log1p(-r)) if entry == "unit" else (lambda x: x)
    xs = unit_grid()[0] if entry == "unit" else halfline_grid()

    def h(x):
        return math.tanh(x) - 1e-9 * ((x - 20.0) / 15.0) ** 2

    res = search(_array_twin(lambda a: h(to_x(a))), 1e-8)
    step = float(np.max(np.diff(xs[(xs > 19.0) & (xs < 21.0)])))
    assert res.boundary == INTERIOR
    assert abs(to_x(res.arg) - 20.0) <= step
    assert h(to_x(res.arg)) >= res.value - 1e-8 * res.value


# Problems of one-dimensional maximization, (fun(x), lo, hi, maximizers):
# the maximizers are the interval of x where fun attains its maximum. The
# 1e30-wide bracket ran golden section into its 160-step cap.
_PEAKS = [0.3, 2e-4, 40.0, -1.0]
GOLDEN_CASES = {
    "interior-peak": [(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, (0.3, 0.3))],
    "monotone-to-zero": [(lambda x: math.exp(-x), 0.0, 1.0, (0.0, 0.0))],
    "plateau-ties": [(lambda x: min(x, 0.25), 0.0, 1.0, (0.25, 1.0))],
    "flat": [(lambda x: 1.0, 0.0, 1.0, (0.0, 1.0))],
    "brackets-stop-apart": [
        (lambda x, p=p: -(x - p) ** 2, lo, hi, (p, p))
        for p, lo, hi in zip(_PEAKS, [0.0, 0.0, 5.0, -3.0], [1.0, 1e-3, 100.0, 2.0])],
    "step-cap": [(lambda x: -x, 0.0, 1e30, (0.0, 0.0))],
}


# Each problem under the exact maps x -> +-s x of the coordinate, s = 1,
# 2^10, 2^-20, 2^30; a leading "one-bracket-" marks the mirrored sign. The
# test's name and ids are those of the golden-section test it replaced.
@pytest.mark.parametrize("case, sign, scale", [
    pytest.param(case, sign, 2.0 ** e, id=f"{prefix}{case}-{k}")
    for prefix, sign in (("", 1.0), ("one-bracket-", -1.0))
    for case in sorted(GOLDEN_CASES)
    for k, e in enumerate((0, 10, -20, 30), start=1)])
def test_golden_lookahead_is_bit_identical_to_plain_steps(case, sign, scale):
    # the contract of _brent_max: one point per call, every point strictly
    # inside the bracket, termination, the best point evaluated returned,
    # and, the problems being unimodal, a maximizer within 2 t of it,
    # t = sqrt(eps) |x| + 1e-12 (Brent's stop), unless its value is within
    # the 4 eps of rounding of the maximum; smooth peaks to 1e-8
    for fun, lo, hi, (left, right) in GOLDEN_CASES[case]:
        top = fun(left)
        lo, hi = sorted((sign * scale * lo, sign * scale * hi))
        left, right = sorted((sign * scale * left, sign * scale * right))
        points = {}

        def recorded(x):
            assert type(x) is float and lo < x < hi
            points[x] = fun(sign * x / scale)
            return points[x]

        x, f = _brent_max(recorded, lo, hi)
        assert len(points) <= 300
        assert points[x] == f == max(points.values())
        t = math.sqrt(np.finfo(float).eps) * abs(x) + 1e-12
        assert (left - 2.0 * t <= x <= right + 2.0 * t
                or f >= top - 4.0 * np.finfo(float).eps * abs(top))
        if case in ("interior-peak", "brackets-stop-apart"):
            assert abs(x - left) <= 1e-8 * abs(left)


def test_vectorized_rejects_nonfinite_grid_value():
    rs = unit_grid()[1]
    with pytest.raises(ValueError, match=re.escape(repr(rs[3]))):
        supremum_unit(lambda r: np.where(r >= rs[3], np.nan, r), 1e-8)


def test_vectorized_honours_limit_at_zero():
    # sin(r)/r owns its limit 1 at r = 0, and the search takes it verbatim
    def g(rs):
        return np.divide(np.sin(rs), rs, out=np.ones(rs.size), where=rs > 0.0)

    res = supremum_unit(g, 1e-10)
    assert res == SupResult(1.0, 0.0, AT_ZERO, res.error_estimate)
    # without it the search does not extrapolate: nan at r = 0 is an error
    with pytest.raises(ValueError, match=re.escape(repr(0.0))):
        supremum_unit(lambda rs: np.divide(np.sin(rs), rs,
                                           out=np.full(rs.size, np.nan),
                                           where=rs > 0.0), 1e-10)


@pytest.mark.parametrize("wrong", [
    lambda rs: 1.0,
    lambda rs: rs[:-1],
    lambda rs: np.ones((rs.size, 2)),
])
def test_vectorized_rejects_wrong_output_shape(wrong):
    with pytest.raises(ValueError, match="shape"):
        supremum_unit(wrong, 1e-8)


def test_unit_validation_grid_dominance():
    rng = np.random.default_rng(424242)
    for _ in range(10):
        a, b = rng.uniform(0.5, 3.0, size=2)
        c = rng.uniform(1.0, 6.0)

        def g(r):
            return a * math.sin(c * r) + b * r * (1.0 - r)

        res = supremum_unit(_array_twin(g), 1e-9)
        probes = rng.uniform(0.0, 1.0 - 1e-9, size=200)
        best = max(g(float(r)) for r in probes)
        assert res.value >= best - 1e-6 * max(1.0, abs(best))


def test_halfline_interior_maximum():
    res = supremum_halfline(_array_twin(lambda x: x * math.exp(-x)), 1e-10,
                            limit_at_infinity=0.0)
    assert res.boundary == INTERIOR
    assert res.value == pytest.approx(1.0 / math.e, abs=1e-9)
    assert res.arg == pytest.approx(1.0, abs=1e-4)


def test_halfline_limit_at_infinity_wins():
    # grid maximum 0.9 * 60/61 < 0.9, declared limit strictly above it
    res = supremum_halfline(lambda x: 0.9 * x / (x + 1.0), 1e-10,
                            limit_at_infinity=0.9)
    assert res.boundary == AT_BOUNDARY_LIMIT
    assert res.value == 0.9
    assert res.arg == math.inf


def test_halfline_equal_limit_ties_to_finite_argument():
    # 1 - e^{-x} rounds to exactly 1.0 on the deep grid, matching the
    # declared limit; ties break toward the smallest argument, so the
    # finite maximizer wins over infinity.
    res = supremum_halfline(_array_twin(lambda x: -math.expm1(-x)), 1e-10,
                            limit_at_infinity=1.0)
    assert res.value == 1.0
    assert res.arg < math.inf


def test_halfline_maximum_at_zero():
    res = supremum_halfline(_array_twin(lambda x: math.exp(-x)), 1e-10,
                            limit_at_infinity=0.0)
    assert res.boundary == AT_ZERO
    assert res.value == 1.0


def test_halfline_divergence_detected():
    with pytest.raises(DivergenceError):
        supremum_halfline(lambda x: x * x, 1e-8)


def test_maximum_at_last_point_reports_that_point():
    # The largest grid value is the last one, but the tail dips before it,
    # so it is no boundary limit.  Brent refinement of the last bracket
    # never reaches the endpoint; the reported argument is the point that
    # attains the reported value.
    xs = halfline_grid()

    def g(x):
        return x + 2.0 * min(abs(x - xs[-2]), 1.0)

    res = supremum_halfline(_array_twin(g), 1e-10)
    assert res.boundary == INTERIOR
    assert res.arg == xs[-1]
    assert res.value == g(xs[-1])


def test_pointwise_keeps_scalar_arithmetic():
    # math.log1p at each point, not np.log1p over the array, which rounds
    # some values differently; a scalar argument gives the scalar value
    lifted = pointwise(math.log1p)
    assert lifted.__name__ == "log1p"
    assert lifted(0.5) == math.log1p(0.5) and type(lifted(0.5)) is float
    xs = np.linspace(0.0, 0.99, 1001)
    got = lifted(xs)
    assert got.shape == xs.shape
    assert got.tolist() == [math.log1p(x) for x in xs.tolist()]


def test_unit_grid_shape():
    xs, rs = unit_grid()
    assert rs[0] == 0.0
    assert rs[-1] == np.nextafter(1.0, 0.0)
    assert np.all(np.diff(rs) > 0.0)
    assert np.all(rs < 1.0)
    assert len(xs) == len(rs) <= 512


def test_unit_grid_respects_requested_size():
    xs, rs = unit_grid(16, 4.0)
    assert len(rs) == 16
    assert rs[-1] == pytest.approx(-math.expm1(-4.0), rel=1e-15)


def test_halfline_grid_shape():
    xs = halfline_grid()
    assert len(xs) == 512
    assert xs[0] == 0.0
    assert xs[-1] == 60.0
    assert np.all(np.diff(xs) > 0.0)


def test_search_is_deterministic():
    def g(r):
        return math.sin(5.0 * r) * (1.0 - r)

    a = supremum_unit(_array_twin(g), 1e-10)
    b = supremum_unit(_array_twin(g), 1e-10)
    assert (a.value, a.arg, a.boundary) == (b.value, b.arg, b.boundary)
