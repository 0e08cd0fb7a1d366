"""Supremum search over the unit interval and the half-line."""

import math
import re

import numpy as np
import pytest

from hilbertnorm import supsearch
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
    _INVPHI,
    _golden_max,
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


# Scalar objectives on [0, 1), the keywords of their unit search, and the
# result each gave when a scalar objective took one point per call (grid
# point by grid point, one golden step per call) and a limit_at_zero
# argument replaced the value at r = 0, which the objectives below now
# return themselves; reprs round-trip, so == is bit for bit.
UNIT_OBJECTIVES = [
    (lambda r: (1.0 - r) * r, {},
     SupResult(0.25, 0.49999999994151884, INTERIOR, 3.186469249039145e-05)),
    (lambda r: 1.0 / (1.0 + r), {},
     SupResult(1.0, 0.0, AT_ZERO, 0.0700205458221056)),
    (lambda r: 1.0 - (1.0 - r) ** 0.1, {},
     SupResult(0.9746171126138676, 0.9999999999999999, AT_BOUNDARY_LIMIT,
               0.00182181771687151)),
    (lambda r: math.sin(5.0 * r) * (1.0 - r), {},
     SupResult(0.7130497995967379, 0.26127929084657714, INTERIOR,
               0.0005793747001800192)),
    (lambda r: math.sin(r) / r if r else 1.0, {},
     SupResult(1.0, 0.0, AT_ZERO, 0.0009445608140793427)),
    (lambda r: 2.0, {"n_grid": 64, "x_max": 25.0},
     SupResult(2.0, 0.0, AT_ZERO, 0.0)),
]


@pytest.mark.parametrize("case", range(len(UNIT_OBJECTIVES)))
def test_vectorized_twin_gives_identical_result(case):
    # the array search of the twin, three golden steps per call, gives the
    # scalar search's result; so does the library's lift of g
    g, kwargs, scalar = UNIT_OBJECTIVES[case]
    assert supremum_unit(_array_twin(g), 1e-9, **kwargs) == scalar
    assert supremum_unit(pointwise(g), 1e-9, **kwargs) == scalar


def test_vectorized_grid_is_one_call():
    # the golden steps of the winning bracket, counted by the one-point
    # reference below on the same bracket around the grid maximum
    xs, rs = unit_grid()
    best = int(np.argmax(rs * (1.0 - rs)))

    def one_point(x, _):
        r = np.array([-math.expm1(-v) for v in x.tolist()])
        return r * (1.0 - r)

    steps = _plain_golden_max(one_point, xs[best - 1], xs[best + 1])[2]
    calls = []

    def g(rs):
        calls.append(rs.size)
        return rs * (1.0 - rs)

    supremum_unit(g, 1e-10)
    # the grid, then both interior points, then one call of at most
    # 2^3 - 1 points for every three golden steps
    assert calls[0] == rs.size
    assert calls[1] == 2
    assert max(calls[2:]) <= 7
    assert len(calls) - 2 == math.ceil(steps / 3)


def _plain_golden_max(fun, lo, hi):
    """Golden section with one objective call per step on every live
    bracket: the reference _golden_max reproduces bit for bit at every
    lookahead. Returns (x_best, f_best, steps)."""
    lo, hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi))
    live = np.arange(lo.size)
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = (np.array(fun(x, live), dtype=float) for x in (c, d))
    steps = 0
    while live.size and steps < 160:
        steps += 1
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        hi[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        lo[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        c[lt] = hi[lt] - _INVPHI * (hi[lt] - lo[lt])
        d[rt] = lo[rt] + _INVPHI * (hi[rt] - lo[rt])
        fx = np.asarray(fun(np.where(left, c[live], d[live]), live), dtype=float)
        fc[lt], fd[rt] = fx[left], fx[~left]
        done = hi[live] - lo[live] <= 1e-12 * np.maximum(1.0, np.abs(c[live]))
        live = live[~done]
    at_c = fc >= fd
    return np.where(at_c, c, d), np.where(at_c, fc, fd), steps


_PEAKS = np.array([0.3, 2e-4, 40.0, -1.0])

# (objective fun(x, i), lo, hi) of golden-section searches
GOLDEN_CASES = {
    "interior-peak": (lambda x, i: -(x - 0.3) ** 2, 0.0, 1.0),
    "monotone-to-zero": (lambda x, i: np.exp(-x), 0.0, 1.0),
    "plateau-ties": (lambda x, i: np.minimum(x, 0.25), 0.0, 1.0),
    "flat": (lambda x, i: np.ones_like(x), 0.0, 1.0),
    "brackets-stop-apart": (lambda x, i: -(x - _PEAKS[i]) ** 2,
                            [0.0, 0.0, 5.0, -3.0], [1.0, 1e-3, 100.0, 2.0]),
    "step-cap": (lambda x, i: -x, 0.0, 1e30),
}


@pytest.mark.parametrize("lookahead", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_lookahead_is_bit_identical_to_plain_steps(case, lookahead,
                                                          monkeypatch):
    monkeypatch.setattr(supsearch, "_LOOKAHEAD", lookahead)
    fun, lo, hi = GOLDEN_CASES[case]
    plain = []

    def recorded(x, i):
        plain.extend(zip(i.tolist(), x.tolist()))
        return fun(x, i)

    x_ref, f_ref, steps = _plain_golden_max(recorded, lo, hi)
    calls, points = [], set()

    def counted(x, i):
        calls.append(np.bincount(i).max())
        points.update(zip(i.tolist(), x.tolist()))
        return fun(x, i)

    x_best, f_best = _golden_max(counted, lo, hi)
    assert np.array_equal(x_best, x_ref) and np.array_equal(f_best, f_ref)
    # every point of the plain steps, bit for bit, among those evaluated
    assert points.issuperset(plain)
    # both interior points in one call, then one call per lookahead steps,
    # each with at most 2^lookahead - 1 points of a bracket
    assert calls[0] == 2
    assert max(calls[1:]) <= 2 ** lookahead - 1
    assert len(calls) - 1 == math.ceil(steps / lookahead)
    if case == "step-cap":
        assert steps == 160
    if case == "brackets-stop-apart":
        alone = {_plain_golden_max(lambda x, i: fun(x, i + k), lo[k], hi[k])[2]
                 for k in range(len(lo))}
        assert len(alone) == len(lo)


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
    # so it is no boundary limit.  Golden refinement of the last bracket
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
