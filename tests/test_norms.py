"""Tests for the norm functionals on the unit disk."""

import math

import mpmath
import numpy as np
import pytest

from hilbertnorm.catalog import (
    CoefficientSeries,
    Kind,
    TestFunction,
    eval_series,
    taylor_coeffs,
)
from hilbertnorm import norms
from hilbertnorm.norms import (
    _mean_objective,
    bloch_norm,
    bloch_seminorm,
    bloch_seminorm_details,
    hardy_inequality_gap,
    hardy_norm,
    hardy_norm_details,
    i_c,
)
from hilbertnorm.quadrature import QuadratureError, integrate
from hilbertnorm.supsearch import (
    AT_BOUNDARY_LIMIT,
    AT_ZERO,
    INTERIOR,
    SupResult,
    pointwise,
    supremum_unit,
    unit_grid,
)

# sup_r I_{-1/2}(r) for the c = p*alpha - 1 route at p = 1, alpha = 1/2
K_HALF = 1.18034059901609623


# ---------------------------------------------------------------------------
# integral-mean norms


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("log_weighted", [False, True])
def test_hardy_norm_of_constant(p, log_weighted):
    res = hardy_norm_details(TestFunction(Kind.CONSTANT), p, log_weighted, 1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.boundary == AT_ZERO


def test_hardy_norm_power_singularity():
    # the means of (1-z)^{-1/2} in H^1 increase to Gamma(1/2)/Gamma(3/4)^2
    fn = TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5)
    val = hardy_norm(fn, 1.0, False, 1e-6)
    assert val == pytest.approx(K_HALF, abs=1e-5)


def test_hardy_norm_h2_is_coefficient_norm():
    # the norm is Parseval's sqrt(sum |a_k|^2); the reference is the direct
    # 128-point trapezoid rule, which integrates |f|^2 exactly past degree 64
    rng = np.random.default_rng(101)
    for _ in range(20):
        deg = int(rng.integers(1, 65))
        a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        s = CoefficientSeries(a, deg + 1, 0.0)
        expected = _reference_mean(a, 1.0, 2.0, n=128)
        assert hardy_norm(s, 2.0, False, 1e-5) == pytest.approx(
            expected, rel=1e-12)


def test_hardy_norm_sup_mean():
    s = CoefficientSeries(np.array([1.0, 1.0]), 2, 0.0)
    assert hardy_norm(s, math.inf, False, 1e-8) == pytest.approx(2.0, abs=1e-6)


def test_hardy_norm_log_weight_shrinks():
    rng = np.random.default_rng(102)
    for _ in range(3):
        deg = int(rng.integers(1, 9))
        a = rng.standard_normal(deg + 1)
        s = CoefficientSeries(a, deg + 1, 0.0)
        unweighted = hardy_norm(s, 2.0, False, 1e-4)
        weighted = hardy_norm(s, 2.0, True, 1e-4)
        assert weighted <= unweighted + 1e-8


# ---------------------------------------------------------------------------
# boundary-mean route for exact polynomials


def _random_polynomials(seed, count, max_degree=64):
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        polys.append(rng.standard_normal(deg + 1)
                     + 1j * rng.standard_normal(deg + 1))
    return polys


@pytest.fixture(scope="module")
def fft_references():
    """200 seeded polynomials with M_1(1, f) and M_3(1, f) from one
    2^18-point trapezoid rule each."""
    cases = []
    for a in _random_polynomials(105, 200):
        modulus = np.abs(np.fft.fft(a, 1 << 18))
        refs = {p: float(np.mean(modulus ** p)) ** (1.0 / p) for p in (1.0, 3.0)}
        cases.append((a, refs))
    return cases


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_hardy_norm_exact_matches_fft_reference(fft_references, tol):
    for a, refs in fft_references:
        s = CoefficientSeries(a, a.size, 0.0)
        for p, ref in refs.items():
            value = hardy_norm(s, p, False, tol)
            assert abs(value - ref) <= tol * max(1.0, ref), (a.size, p)


def test_hardy_norm_exact_agrees_with_sweep():
    # the sweep over r < 1 approaches the boundary mean from below (it may
    # classify its plateau near r = 1 as interior)
    for a in _random_polynomials(107, 4, max_degree=16):
        s = CoefficientSeries(a, a.size, 0.0)
        swept = supremum_unit(_mean_objective(s, 1.0, False, 1e-7), 1e-6)
        fast = hardy_norm_details(s, 1.0, False, 1e-6)
        assert fast.value == pytest.approx(swept.value, rel=1e-6)


def test_hardy_norm_exact_classification():
    s = CoefficientSeries(np.array([1.0, 0.5j, -0.25]), 3, 0.0)
    res = hardy_norm_details(s, 1.0, False, 1e-8)
    assert res.boundary == AT_BOUNDARY_LIMIT
    assert res.arg == float(unit_grid()[1][-1])
    assert 0.0 <= res.error_estimate <= 1e-8
    const = hardy_norm_details(
        CoefficientSeries(np.array([-3.0 + 4.0j]), 1, 0.0), 1.0, False, 1e-8)
    assert const == SupResult(5.0, 0.0, AT_ZERO, 0.0)
    for p, log_weighted in ((2.0, False), (math.inf, False), (math.inf, True),
                            (1.0, True), (3.0, True)):
        empty = hardy_norm_details(CoefficientSeries(np.array([]), 0, 0.0),
                                   p, log_weighted, 1e-8)
        assert empty == SupResult(0.0, 0.0, AT_ZERO, 0.0)


@pytest.mark.parametrize("p,log_weighted,tail_bound", [
    (1.0, True, 0.0),
    (2.0, False, None),
    (1.0, False, 0.5),
    (math.inf, False, 0.0),
])
def test_hardy_norm_other_inputs_keep_the_sweep(p, log_weighted, tail_bound):
    a = np.array([0.5, -1.0 + 0.25j])
    s = CoefficientSeries(a, a.size, tail_bound)
    tol = 1e-4
    expected = supremum_unit(
        _mean_objective(s, p, log_weighted, max(0.1 * tol, 1e-13)), tol)
    assert hardy_norm_details(s, p, log_weighted, tol) == expected


def test_hardy_norm_exact_unconverged_raises():
    # 1 + z vanishes on the circle: the trapezoid error decays only like
    # n^-2, so 1e-12 is out of reach of the largest rule
    s = CoefficientSeries(np.array([1.0, 1.0]), 2, 0.0)
    with pytest.raises(QuadratureError) as info:
        hardy_norm(s, 1.0, False, 1e-12)
    partial = info.value.result
    assert partial.boundary == AT_BOUNDARY_LIMIT
    assert partial.value == pytest.approx(4.0 / math.pi, rel=1e-10)


def _one_circle_ladder(coeffs, p, inner_tol):
    """The boundary mean of one exact polynomial (p != 2, not constant) as
    a scalar ladder: one row through _trapezoid_means per level and the
    stop rule in Python floats, the reference the batched ladder must
    match bit for bit."""
    coeffs, m, floor = norms._normalized(coeffs, p)
    n = 1 << max(6, (2 * coeffs.size - 1).bit_length())
    mean = float(norms._trapezoid_means(coeffs[None, :], n, p)[0])
    agreed = 0
    while agreed < 2:
        new = float(norms._trapezoid_means(coeffs[None, :], n, p, mean)[0])
        n *= 2
        agreed = agreed + 1 if abs(new - mean) <= inner_tol * max(floor, new) else 0
        change = m * abs(new ** (1.0 / p) - mean ** (1.0 / p))
        mean = new
    return SupResult(m * mean ** (1.0 / p), norms._LAST_RADIUS, AT_BOUNDARY_LIMIT,
                     change)


def _bits(result):
    return (result.value.hex(), result.arg.hex(), result.boundary,
            result.error_estimate.hex())


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_boundary_ladder_keeps_every_series_bits(p):
    # the 100 seeded polynomials of h1-upper-internals (seed 1729, degrees
    # 1-64, inner tolerance 1e-5), with a constant and the zero series among
    # them: one ladder gives every series the bits of its own hardy_norm
    # call and, off p = 2, of a scalar one-circle ladder, on |f/m|^p with
    # m = max |a_k| at every p (norms._normalized)
    polys = _random_polynomials(1729, 100)
    polys[10:10] = [np.array([2.5 - 1.0j, 0.0, 0.0]), np.zeros(3, dtype=complex)]
    series = {3 * i + 1: a for i, a in enumerate(polys)}
    got = norms._boundary_norms(series, p, 1e-5)
    assert sorted(got) == sorted(series)
    for member, a in series.items():
        alone = hardy_norm_details(CoefficientSeries(a, a.size, 0.0), p, False, 1e-4)
        assert _bits(got[member]) == _bits(alone), member
        if p != 2.0 and a[1:].any():
            assert _bits(got[member]) == _bits(_one_circle_ladder(a, p, 1e-5)), member
    assert got[31] == SupResult(abs(2.5 - 1.0j), 0.0, AT_ZERO, 0.0)
    assert got[34] == SupResult(0.0, 0.0, AT_ZERO, 0.0)


def test_hardy_inequality_gaps_are_the_one_series_gaps():
    # h1-upper-internals takes its 100 gaps from one ladder; each equals the
    # gap of its series alone, and a series with no tail bound keeps the
    # sweep
    series = [CoefficientSeries(a, a.size, 0.0) for a in _random_polynomials(1729, 100)]
    series.append(CoefficientSeries(np.array([1.0, 0.5j]), 2, None))
    gaps = norms._hardy_inequality_gaps(series, 1e-4)
    assert gaps == [hardy_inequality_gap(s, 1e-4) for s in series]
    with pytest.raises(TypeError):
        norms._hardy_inequality_gaps(series + [[1.0, 2.0]], 1e-4)
    with pytest.raises(ValueError):
        norms._hardy_inequality_gaps(series, 0.0)


def test_boundary_ladder_names_the_unconverged_member():
    # 1 + z vanishes on the circle, so its mean does not converge to 1e-13
    # by 2^20 points, while the series beside it converge and leave the
    # ladder: the error names member 7 and carries its last mean
    rng = np.random.default_rng(5)
    series = {3: rng.standard_normal(3) + 0j, 7: np.array([1.0, 1.0 + 0j]),
              9: rng.standard_normal(2) + 0j}
    with pytest.raises(QuadratureError) as info:
        norms._boundary_norms(series, 1.0, 1e-13)
    assert info.value.member == 7
    partial = info.value.result
    assert partial.boundary == AT_BOUNDARY_LIMIT
    assert partial.value == pytest.approx(4.0 / math.pi, rel=1e-10)
    assert 0.0 < partial.error_estimate < 1e-10


# ---------------------------------------------------------------------------
# swept route for series: all radii of a trapezoid level in one FFT pass


def _reference_mean(coeffs, r, p, n=1 << 16):
    """M_p(r, f) by the direct n-point trapezoid rule, a zero-padded FFT:
    exact for p = 2 once n > degree, so it checks the package's Parseval
    sum by another route."""
    row = coeffs * r ** np.arange(coeffs.size)
    return float(np.mean(np.abs(np.fft.fft(row, n)) ** p)) ** (1.0 / p)


def _reference_weighted_sup(coeffs, p):
    """sup_r M_p(r, f) / (1 - 2 log(1-r)) on x = -log(1-r): a 41-point grid
    on [0, 40] with 2^12-point means picks the bracket, then golden section
    with 2^16-point means narrows it to a width of 1e-4 in x."""
    def objective(x, n=1 << 16):
        r = min(-math.expm1(-x), np.nextafter(1.0, 0.0))
        return _reference_mean(coeffs, r, p, n) / (1.0 + 2.0 * x)

    xs = np.linspace(0.0, 40.0, 41)
    i = int(np.argmax([objective(x, 1 << 12) for x in xs]))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = objective(c), objective(d)
    best = max(objective(xs[i]), fc, fd)
    while hi - lo > 1e-4:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective(d)
        best = max(best, fc, fd)
    return best


def test_series_means_meet_tol_near_boundary():
    # one agreement between two doublings missed tol on 16 of these 200
    # means, by up to 20 x tol; the rule needs two in a row
    rs = np.array([1.0 - 1e-3, 1.0 - 1e-6])
    tol = 1e-5
    for a in _random_polynomials(2, 100):
        got = norms._series_means(a, rs, 1.0, tol)
        for r, value in zip(rs, got):
            want = _reference_mean(a, r, 1.0)
            assert abs(value - want) <= tol * max(1.0, want), (a.size, r)


def _first_rule(a):
    """The point count the series trapezoid rules start from."""
    return 1 << max(6, (2 * a.size - 1).bit_length())


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_midpoint_step_matches_the_direct_rule(p):
    # a doubling averages the old n-point mean with the n-point rule on the
    # rows turned by pi/n: within a few ulps of the direct 2n-point rule
    eps = np.finfo(float).eps
    rs = np.array([0.0, 0.5, 0.9, 1.0])
    for a in _random_polynomials(111, 12):
        rows = a * rs[:, None] ** np.arange(a.size)
        n = _first_rule(a)
        while n <= 1 << 14:
            old = norms._trapezoid_means(rows, n, p)
            got = norms._trapezoid_means(rows, n, p, old)
            want = np.mean(np.abs(np.fft.fft(rows, 2 * n, axis=1)) ** p, axis=1)
            assert np.all(np.abs(got - want) <= 8 * eps * want), (a.size, n)
            n *= 2


def test_series_doublings_transform_only_the_new_points(monkeypatch):
    # each doubling transforms the level's n new points, never 2n. The
    # boundary mean takes complex FFTs of lengths n0, n0, 2 n0, 4 n0, ...;
    # the swept means one complex FFT of n0 points and the real FFT of its
    # squared modulus, then real inverse FFTs of lengths n0, 2 n0, ..., and
    # no complex FFT for a circle away from the zeros of f
    calls = []

    def recording(name):
        transform = getattr(np.fft, name)

        def recorded(a, n=None, *args, **kwargs):
            calls.append((name, n))
            return transform(a, n, *args, **kwargs)
        return recorded

    for name in ("fft", "rfft", "irfft"):
        monkeypatch.setattr(norms.np.fft, name, recording(name))
    a = np.array([1.0, 0.9, 0.5j, -0.3])
    n0 = _first_rule(a)
    norms._boundary_norms({0: a}, 1.0, 1e-12)[0]
    assert len(calls) >= 3
    assert calls == [("fft", n0)] + [("fft", n0 << k) for k in range(len(calls) - 1)]
    calls.clear()
    norms._series_means(a, np.array([0.99]), 1.0, 1e-12)
    assert len(calls) >= 4
    assert calls == [("fft", n0), ("rfft", None)] + [
        ("irfft", n0 << k) for k in range(len(calls) - 2)]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_real_doublings_match_the_complex_ones(monkeypatch, p):
    # the doublings from |f|^2 by real inverse FFTs against the complex FFTs
    # of the turned rows, out to the saturated radius: the largest relative
    # difference measured over these means is 4.0e-16, 1.8 ulp. The first
    # level, which also gives the autocorrelations, keeps the complex bits
    rs = np.array([0.0, 0.5, 1.0 - 1e-6, np.nextafter(1.0, 0.0)])
    for a in _random_polynomials(113, 24):
        rows, n = a * rs[:, None] ** np.arange(a.size), _first_rule(a)
        first = norms._autocorrelations(a, rs, n, p)[0]
        assert first.tobytes() == norms._trapezoid_means(rows, n, p).tobytes()
        real = norms._series_means(a, rs, p, 1e-12)
        with monkeypatch.context() as m:
            # every row near a zero: every doubling takes the complex FFT
            m.setattr(norms, "_NEAR_ZERO", math.inf)
            full = norms._series_means(a, rs, p, 1e-12)
        np.testing.assert_allclose(real, full, rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("tol", [1e-9, 1e-10, 1e-12])
@pytest.mark.parametrize("k", [4, 8])
def test_near_zero_circles_keep_the_complex_doublings(tol, k):
    # M_1(1, (1 + rho z)^k) = 2F1(-k/2, -k/2; 1; rho^2), exact (boundary
    # mean) and swept (unweighted, no tail bound). f has a zero of order k
    # on or just outside the unit circle, where |f| taken from |f|^2 loses
    # its relative digits: with the near-zero guard off (_NEAR_ZERO = -inf)
    # the swept norms missed tol by 2.5-2.6 x at k = 8, tol 1e-9, and by
    # 1.6-9.3 x at tol 1e-10
    for rho in (1.0, 1.0 - 1e-3, 1.0 - 1e-6):
        a = np.array([math.comb(k, j) * rho ** j for j in range(k + 1)])
        want = float(mpmath.hyp2f1(-k / 2, -k / 2, 1, mpmath.mpf(rho) ** 2))
        for tail in (0.0, None):
            value = hardy_norm(CoefficientSeries(a, a.size, tail), 1.0, False, tol)
            assert abs(value - want) <= tol * want, (rho, tail)


def test_series_means_p2_match_parseval():
    # the means at p = 2 are Parseval's sqrt(sum |a_k|^2 r^2k); the direct
    # 128-point trapezoid rule is exact past degree 64, so only rounding
    # separates the two, out to the saturated radius and the boundary
    rs = np.array([0.0, 0.5, 1.0 - 1e-6, np.nextafter(1.0, 0.0)])
    for a in _random_polynomials(112, 24):
        got = norms._series_means(a, rs, 2.0, 1e-13)
        want = [_reference_mean(a, r, 2.0, n=128) for r in rs]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        boundary = norms._boundary_norms({0: a}, 2.0, 1e-13)[0]
        assert boundary.value == pytest.approx(
            _reference_mean(a, 1.0, 2.0, n=128), rel=1e-13, abs=0.0)
        assert boundary.error_estimate == (
            (a.size + 1) * np.finfo(float).eps * boundary.value)


def test_series_means_p2_take_no_fft(monkeypatch):
    # both p = 2 routes, exact and swept, are Parseval's sum: no FFT and no
    # adaptive fallback in the angle (the module's only integrate call on a
    # series)
    def forbidden(*args, **kwargs):
        raise AssertionError("p = 2 series mean took an FFT or the fallback")

    for name in ("fft", "rfft", "irfft"):
        monkeypatch.setattr(norms.np.fft, name, forbidden)
    monkeypatch.setattr(norms, "integrate", forbidden)
    a = np.array([1.0, 0.9, 0.5j, -0.3])
    for tail, log_weighted in ((0.0, False), (None, False), (0.0, True)):
        value = hardy_norm(CoefficientSeries(a, a.size, tail), 2.0, log_weighted, 1e-8)
        assert 0.0 < value <= math.sqrt(float(np.sum(np.abs(a) ** 2))) + 1e-8


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_leftover_radii_take_one_engine_call(monkeypatch, p):
    # 1 + rho z has its zero 1e-6 outside the unit circle: at these radii
    # the ladder ends unconverged at tol 1e-12, and the leftover radii are
    # the members of one integration, each with the bits of a one-radius
    # integration of |f(r e^{i theta})|^p (p = 3 converges on the ladder)
    a = np.array([1.0, 1.0 - 1e-6])
    rs = np.array([1.0 - 1e-6, 1.0 - 1e-9, np.nextafter(1.0, 0.0)])
    members = []

    def counted(f, lo, hi, tol):
        members.append(np.size(hi))
        return integrate(f, lo, hi, tol)

    monkeypatch.setattr(norms, "integrate", counted)
    got = norms._series_means(a, rs, p, 1e-12)
    assert members == [rs.size]
    for r, mean in zip(rs.tolist(), got.tolist()):
        one = integrate(lambda t: np.abs(np.polynomial.polynomial.polyval(
            r * np.exp(1j * t), a)) ** p, 0.0, 2.0 * np.pi, 1e-12)
        assert mean == (one.value / (2.0 * np.pi)) ** (1.0 / p), r


@pytest.mark.parametrize("p, c", [
    (p, c) for p in (2.0, 3.0) for c in (1e-200, 1e-160, 1e150, 1e200)
] + [(1.0, 1e-200), (1.0, 1e200)])
def test_series_norms_scale_with_the_coefficients(c, p):
    # ||c s||_p = |c| ||s||_p: |f|^p once underflowed to 0 (or 1e-4 off in
    # subnormals) at the small scales and overflowed to a QuadratureError at
    # the large ones, on the exact and the swept route. At p = 1 the swept
    # doublings square |f|, which would overflow at 1e200 unscaled. The swept means are
    # compared at every grid radius too: the search's error estimate tol *
    # max(1, value) is absolute below 1, so its result is not scale-free.
    a = np.array([1.0, 0.5j, -0.25])
    for tail, log_weighted in ((0.0, False), (None, False), (0.0, True), (None, True)):
        scaled, unit = (CoefficientSeries(b, 3, tail) for b in (c * a, a))
        assert hardy_norm(scaled, p, log_weighted, 1e-6) / c == pytest.approx(
            hardy_norm(unit, p, log_weighted, 1e-6), rel=1e-12)
        rs = unit_grid()[1]
        np.testing.assert_allclose(
            _mean_objective(scaled, p, log_weighted, 1e-7)(rs) / c,
            _mean_objective(unit, p, log_weighted, 1e-7)(rs), rtol=1e-12)


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-200])
def test_series_norm_class_is_scale_free(c):
    # the search's tie band is relative to the grid maximum: an absolute
    # band tol below 1 once tied grid points short of the peak of this
    # log-weighted norm with it at c = 1e-3, refining a bracket there to a
    # value 5.4e-6 low, and at c = 1e-200 tied every point and classed it
    # AtZero
    res = hardy_norm_details(
        CoefficientSeries(c * np.array([0.1, 0.0, 0.0, 1.0]), 4, 0.0), 2.0,
        True, 1e-6)
    assert res.boundary == INTERIOR
    assert res.value / c == pytest.approx(0.13151087968294675, rel=1e-12)


def test_series_maxima_reach_the_dense_grid_maximum():
    # the circle maxima refine the 4096-angle grid: each must reach the
    # maximum over 2^16 angles, out to the saturated radius
    rs = np.array([0.0, 0.5, 0.9, 0.99, 1.0 - 1e-6, np.nextafter(1.0, 0.0)])
    tol = 1e-9
    for a in _random_polynomials(3, 12):
        got = norms._series_maxima(a, rs)
        for r, value in zip(rs, got):
            row = a * r ** np.arange(a.size)
            want = float(np.max(np.abs(np.fft.fft(row, 1 << 16))))
            assert value >= want - tol * max(1.0, want), (a.size, r)


def test_series_maxima_match_a_dense_fft_reference():
    # Newton refinement of the circle maxima, plain and with every NumPy
    # floating-point event trapped: never below the 4096-angle grid it
    # refines, never more than 1e-12 below the maximum over 2^20 angles,
    # and above that maximum by at most the grid's own error, which
    # Bernstein's inequality bounds for |f|^2, of degree d, by the factor
    # 1 / (1 - (pi d / 2^20)^2 / 2) on the square
    rs = unit_grid()[1][[0, 10, 60, 150, 300, -1]]
    rng = np.random.default_rng(36)
    for degree in (4, 11, 40, 97, 256):
        a = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        got = norms._series_maxima(a, rs)
        with np.errstate(all="raise"):
            assert norms._series_maxima(a, rs).tobytes() == got.tobytes()
        slack = 1.0 / math.sqrt(1.0 - 0.5 * (math.pi * degree / (1 << 20)) ** 2)
        for r, value in zip(rs, got):
            row = a * r ** np.arange(a.size)
            grid = float(np.max(np.abs(np.fft.ifft(row, 4096, norm="forward"))))
            dense = float(np.max(np.abs(np.fft.ifft(row, 1 << 20, norm="forward"))))
            assert value >= grid, (degree, r)
            assert dense * (1.0 - 1e-12) <= value <= dense * slack * (1.0 + 1e-12), (degree, r)


# (p, log_weighted, tail_bound) of the norms that keep the radial sweep
SWEPT_KINDS = [(1.0, True, 0.0), (2.0, True, 0.0),
               (2.0, False, None), (1.0, False, None)]


def test_hardy_norm_swept_series_matches_references():
    tol = 1e-4
    for i, a in enumerate(_random_polynomials(109, 100)):
        p, log_weighted, tail = SWEPT_KINDS[i % 4]
        if log_weighted:
            ref = _reference_weighted_sup(a, p)
        else:
            # M_p(r) never decreases, so the unweighted sup is at r = 1
            ref = _reference_mean(a, 1.0, p)
        value = hardy_norm(CoefficientSeries(a, a.size, tail), p, log_weighted, tol)
        assert abs(value - ref) <= tol * max(1.0, ref), (a.size, p, log_weighted)


def test_hardy_norm_swept_long_series(monkeypatch):
    # 10^4 coefficients: the first rule has 2^15 points, so an FFT block
    # holds at most two radii, and the doubling runs past 2^14 up to 4 times
    # the first rule without the adaptive fallback in the angle. p = 4 keeps
    # the trapezoid ladder (p = 2 is Parseval's sum) and converges at once:
    # |f|^4 = |f^2|^2 is a trigonometric polynomial of degree below the first
    # rule
    def no_fallback(*args):
        raise AssertionError("adaptive fallback taken")

    monkeypatch.setattr(norms, "integrate", no_fallback)
    a = np.random.default_rng(110).standard_normal(10_000) / np.arange(1, 10_001)
    value = hardy_norm(CoefficientSeries(a, a.size, None), 4.0, False, 1e-6)
    assert value == pytest.approx(_reference_mean(a, 1.0, 4.0), rel=1e-6)


@pytest.mark.parametrize("f,p,log_weighted", [
    (TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5), 1.0, True),
    (TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 0.5), 1.0, False),
    (TestFunction(Kind.HALF_LOG), math.inf, True),
    (TestFunction(Kind.CONSTANT), 2.0, False),
    (CoefficientSeries(np.array([0.5, -1.0 + 0.25j, 0.3j]), 3, None),
     math.inf, True),
    (TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5), 2.0, True),
])
def test_hardy_norm_scalar_routes_match_scalar_sweep(f, p, log_weighted):
    # the search over the lockstep means returns what the search over the
    # one-member means returns: a lockstep member's mean is bit for bit its
    # one-member mean (on a 64-point grid, which keeps the one-member
    # objective, one call per radius, cheap)
    tol = 1e-4
    objective = _mean_objective(f, p, log_weighted, max(0.1 * tol, 1e-13))
    one_member = pointwise(lambda r: float(objective(np.array([r]))[0]))
    assert (supremum_unit(objective, tol, n_grid=64)
            == supremum_unit(one_member, tol, n_grid=64))


def test_hardy_norm_validation():
    fn = TestFunction(Kind.CONSTANT)
    with pytest.raises(ValueError):
        hardy_norm(fn, 0.5, False, 1e-8)
    with pytest.raises(ValueError):
        hardy_norm(fn, 2.0, False, 0.0)
    with pytest.raises(TypeError):
        hardy_norm([1.0, 2.0], 2.0, False, 1e-8)


def test_hardy_norm_rejects_infinite_tol():
    # an infinite tie band made the sweep report AtZero, and the exact
    # polynomial's boundary mean stopped after two doublings
    exact = CoefficientSeries(np.random.default_rng(3).standard_normal(30), 30, 0.0)
    for f, p, log_weighted in [(CoefficientSeries([0.0, 1.0], 2, 0.0), 2.0, True),
                               (exact, 1.0, False)]:
        with pytest.raises(ValueError, match="finite"):
            hardy_norm_details(f, p, log_weighted, math.inf)


# ---------------------------------------------------------------------------
# Bloch seminorms


def test_bloch_seminorm_of_constant():
    res = bloch_seminorm_details(TestFunction(Kind.CONSTANT), 1.0, False, 1e-8)
    assert res.value == 0.0
    assert res.boundary == AT_ZERO


def test_bloch_seminorm_half_log_alpha_one():
    # (1-r^2) * 1/(1-r^2) is identically 1
    res = bloch_seminorm_details(TestFunction(Kind.HALF_LOG), 1.0, False, 1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.boundary == AT_ZERO


def test_bloch_seminorm_certified_series_route():
    # truncation of the half-log function: derivative coefficients are
    # nonnegative reals, so the radial closed form applies and the objective
    # (1-r^2)(1 + r^2 + ... + r^62) = 1 - r^64 peaks at r = 0
    s = taylor_coeffs(TestFunction(Kind.HALF_LOG), 64)
    res = bloch_seminorm_details(s, 1.0, False, 1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.boundary == AT_ZERO


def test_bloch_seminorm_polar_route():
    # f = z - z^2/4 has derivative 1 - z/2: no nonnegativity certificate, and
    # the circle maximum of |f'| sits on the negative axis, so the seminorm
    # is max_r (1-r^2)(1 + r/2), attained where 3r^2 + 4r - 1 = 0
    s = CoefficientSeries(np.array([0.0, 1.0, -0.25]), 3, 0.0)
    res = bloch_seminorm_details(s, 1.0, False, 1e-8)
    x = (math.sqrt(7.0) - 2.0) / 3.0
    assert res.value == pytest.approx((1.0 - x * x) * (1.0 + 0.5 * x), abs=1e-8)


def _polar_grid_max(d):
    """max over 1024 angles 2 pi j / 1024 of |p(r e^{i theta})| for the
    polynomial p with coefficients d, at 1500 radii r = 1 - e^{-x} (x
    uniform on [0, 40]), as one matrix product of the coefficient rows
    d_k r^k with the table of e^{i k theta}. Returns (radii, maxima)."""
    _, rs = unit_grid(1500)
    k = np.arange(d.size)
    table = np.exp(2j * np.pi * np.outer(k, np.arange(1024)) / 1024.0)
    return rs, np.max(np.abs((d * rs[:, None] ** k) @ table), axis=1)


@pytest.mark.parametrize("seed", range(20))
def test_bloch_seminorm_no_certificate_matches_polar_grid(seed):
    # complex polynomials of degree 2-19: the seminorm is a supremum over
    # the whole disk, so it must reach the maximum of a dense polar grid
    # (refining along one ray of a coarse scan fell short by up to 1.5 %)
    rng = np.random.default_rng(1000 + seed)
    deg = int(rng.integers(2, 20))
    a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    s = CoefficientSeries(a, a.size, 0.0)
    rs, maxima = _polar_grid_max(np.arange(1, a.size) * a[1:])
    tol = 1e-8
    for log_weighted in (False, True):
        weight = 1.0 - 2.0 * np.log1p(-rs) if log_weighted else 1.0
        want = float(np.max((1.0 - rs) * (1.0 + rs) * maxima / weight))
        got = bloch_seminorm(s, 1.0, log_weighted, tol)
        assert got >= want - tol * max(1.0, want), (deg, log_weighted)


def test_bloch_seminorm_polar_route_dominates_grid():
    rng = np.random.default_rng(103)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    s = CoefficientSeries(a, 6, 0.0)
    val = bloch_seminorm(s, 1.2, False, 1e-8)
    d = np.arange(1, 6) * a[1:]
    dsar = CoefficientSeries(d, 5, 0.0)
    for _ in range(50):
        r = float(rng.uniform(0.0, 0.9999))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        z = r * complex(math.cos(theta), math.sin(theta))
        pointwise = (1.0 - r * r) ** 1.2 * abs(eval_series(dsar, z))
        assert pointwise <= val * (1.0 + 1e-6) + 1e-9


@pytest.mark.parametrize("seed", [None] + list(range(0, 200, 5)))
def test_bloch_seminorm_polar_route_near_boundary(seed):
    # Real series without a radial certificate whose radial search refines
    # out to the last radius, where r e^{i theta} can round onto |z| = 1:
    # the circle maxima must stay inside the disk.  seed None is a degree-3
    # reproducer; the seeded series have degree 1-29.
    if seed is None:
        coeffs = np.random.default_rng(31).standard_normal(4)
    else:
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(int(rng.integers(1, 30)) + 1)
    s = CoefficientSeries(coeffs, coeffs.size, 0.0)
    res = bloch_seminorm_details(s, 1.0, False, 1e-8)
    d = np.arange(1, coeffs.size) * coeffs[1:]
    _, rs = unit_grid(128)
    z = rs[:, None] * np.exp(2j * np.pi * np.arange(64) / 64.0)[None, :]
    grid = (1.0 - rs * rs)[:, None] * np.abs(np.polynomial.polynomial.polyval(z, d))
    assert math.isfinite(res.value)
    assert res.value >= float(np.max(grid))


def test_bloch_seminorm_empty_derivative():
    s = CoefficientSeries(np.array([3.0]), 1, 0.0)
    res = bloch_seminorm_details(s, 1.0, False, 1e-8)
    assert res.value == 0.0
    assert res.boundary == AT_ZERO


def test_bloch_norm_adds_value_at_zero():
    # f = 2 + z: |f(0)| = 2, seminorm sup (1-r^2) = 1 at r = 0
    s = CoefficientSeries(np.array([2.0, 1.0]), 2, 0.0)
    assert bloch_norm(s, 1.0, False, 1e-8) == pytest.approx(3.0, abs=1e-10)
    assert bloch_norm(TestFunction(Kind.HALF_LOG), 1.0, False, 1e-8) == \
        pytest.approx(1.0, abs=1e-10)


def test_bloch_seminorm_rejects_infinite_tol():
    for f in (TestFunction(Kind.HALF_LOG), TestFunction(Kind.CONSTANT)):
        with pytest.raises(ValueError, match="finite"):
            bloch_seminorm_details(f, 1.0, False, math.inf)


def test_bloch_seminorm_validation():
    fn = TestFunction(Kind.HALF_LOG)
    with pytest.raises(ValueError):
        bloch_seminorm(fn, 0.0, False, 1e-8)
    with pytest.raises(ValueError):
        bloch_seminorm(fn, 1.0, False, -1e-8)
    with pytest.raises(TypeError):
        bloch_seminorm("not a function", 1.0, False, 1e-8)
    with pytest.raises(TypeError):
        bloch_norm("not a function", 1.0, False, 1e-8)


# ---------------------------------------------------------------------------
# circular power means


def test_i_c_frozen_values():
    assert i_c(-0.5, 0.99, 1e-10) == pytest.approx(1.14497761595783540, abs=1e-8)
    assert i_c(0.5, 0.9, 1e-10) == pytest.approx(2.48803137128106375, abs=1e-8)
    assert i_c(0.0, 0.9, 1e-10) == pytest.approx(1.45184267337578772, abs=1e-8)
    assert i_c(0.7, 0.99, 1e-10) == pytest.approx(16.1876782165641923, rel=1e-8)


def test_i_c_at_zero_radius():
    for c in (-0.7, 0.0, 0.4):
        assert i_c(c, 0.0, 1e-10) == 1.0


def test_i_c_saturated_radius_is_finite():
    r = np.nextafter(1.0, 0.0)
    val = i_c(-0.5, r, 1e-9)
    assert math.isfinite(val)
    assert val == pytest.approx(K_HALF, abs=1e-6)


def test_i_c_domain():
    with pytest.raises(ValueError):
        i_c(0.5, 1.0, 1e-9)
    with pytest.raises(ValueError):
        i_c(0.5, -0.1, 1e-9)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_i_c_rejects_a_non_finite_c(c):
    # a NaN c once raised QuadratureError, as if the mean did not converge
    with pytest.raises(ValueError, match="finite c"):
        i_c(c, 0.5, 1e-8)
    with pytest.raises(ValueError, match="finite c"):
        i_c(c, np.array([0.0, 0.5]), 1e-8)


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
@pytest.mark.parametrize("c", [-0.7, 0.0, 0.98])
def test_i_c_array_equals_scalar_loop_bit_for_bit(c, tol):
    # every grid radius, r = 0 first and the saturated radii last, as one
    # lockstep integration against one scalar call per radius
    rs = unit_grid()[1]
    assert rs[0] == 0.0
    got = i_c(c, rs, tol)
    assert isinstance(got, np.ndarray) and got.shape == rs.shape
    want = np.array([i_c(c, float(r), tol) for r in rs])
    assert got[0] == 1.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_i_c_scalar_and_array_types():
    assert isinstance(i_c(0.5, 0.9, 1e-10), float)
    assert isinstance(i_c(0.5, np.float64(0.9), 1e-10), float)
    assert i_c(0.5, np.array([]), 1e-10).shape == (0,)
    assert np.array_equal(i_c(0.5, np.zeros(3), 1e-10), np.ones(3))


# hardy_norm_details(extremal, p, w, 1e-8), field for field: (alpha, p,
# log_weighted) -> SupResult. Pinned on the sinh-mapped lockstep means of
# _catalog_means; the i_c sweep before them gave the same classes and args,
# with (0.5, 1, False) 1.1803405949975931 (1.1e-14 off the hypergeometric
# reference, now 5.1e-15) and (0.99, 2, False) one ulp higher.
_EXTREMAL_SUPS = {
    (0.5, 1.0, False): SupResult(1.1803405949976122, 0.9999999999999999,
                                 AT_BOUNDARY_LIMIT, 1.664513638033327e-09),
    (0.5, 1.0, True): SupResult(1.0, 0.0, AT_ZERO, 0.13505675974214526),
    (0.5, 2.0, False): SupResult(3.5150524332573605, 0.9999999999999999,
                                 AT_BOUNDARY_LIMIT, 0.03152577075054985),
    (0.5, 2.0, True): SupResult(1.0, 0.0, AT_ZERO, 0.1347493472521616),
    (0.99, 1.0, False): SupResult(10.382493964961146, 0.9999999999999999,
                                  AT_BOUNDARY_LIMIT, 0.15226757066307073),
    (0.99, 1.0, True): SupResult(1.0, 0.0, AT_ZERO, 0.13415895684047907),
    (0.99, 2.0, False): SupResult(46803737.962162465, 0.9999999999999999,
                                  AT_BOUNDARY_LIMIT, 13478301.862316687),
    (0.99, 2.0, True): SupResult(628460.7867233896, 0.9999999999999999,
                                 AT_BOUNDARY_LIMIT, 172493.29292910162),
}


@pytest.mark.parametrize("key", sorted(_EXTREMAL_SUPS))
def test_extremal_sweep_keeps_its_sup_result(key):
    alpha, p, log_weighted = key
    fn = TestFunction(Kind.HARDY_ALPHA_EXTREMAL, alpha)
    res = hardy_norm_details(fn, p, log_weighted, 1e-8)
    assert res == _EXTREMAL_SUPS[key]
    if res.boundary == AT_BOUNDARY_LIMIT:
        # M_p(r)^p = 2F1(pa/2, pa/2; 1; r^2) at the reported radius
        with mpmath.workdps(30):
            r = mpmath.mpf(res.arg)
            ref = mpmath.hyp2f1(p * alpha / 2, p * alpha / 2, 1, r * r) ** (1 / p)
            if log_weighted:
                ref /= 1 - 2 * mpmath.log1p(-r)
            assert abs(res.value - ref) <= 1e-13 * ref


# Catalog means on the spiked lockstep route (_catalog_means): each kind
# against a closed form of M_2 by Parseval, the Hardy extremal against i_c.
_SPIKED_RADII = (0.05, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6)


def _half_log_m2(r):
    # sum_{k odd} r^(2k)/k^2 = (Li2(r^2) - Li2(-r^2))/2
    return mpmath.sqrt((mpmath.polylog(2, r * r) - mpmath.polylog(2, -r * r)) / 2)


def _bloch_extremal_m2(r):
    # alpha = 3/2: f = (1-z^2)^(-1/2) - 1, whose squared coefficients sum to
    # (2/pi) K(r^4) - 1 (K of parameter m, as mpmath takes it)
    return mpmath.sqrt(2 / mpmath.pi * mpmath.ellipk(r ** 4) - 1)


@pytest.mark.parametrize("fn,ref,radii", [
    (TestFunction(Kind.HALF_LOG), _half_log_m2,
     _SPIKED_RADII + (float(np.nextafter(1.0, 0.0)),)),
    # 1 - z from the rounded point lost digits here: 2.6e-11 relative at
    # 1 - 1e-9
    (TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5), _bloch_extremal_m2,
     _SPIKED_RADII + (1.0 - 1e-8, 1.0 - 1e-9)),
])
def test_spiked_means_match_parseval(fn, ref, radii):
    got = norms._catalog_means(fn, 2.0, 1e-13)([0.0] + list(radii))
    assert got[0] == 0.0
    with mpmath.workdps(30):
        for r, m in zip(radii, got[1:]):
            want = ref(mpmath.mpf(r))
            assert abs(m - want) <= 1e-12 * want, r


@pytest.mark.parametrize("alpha,p", [(0.5, 1.0), (0.99, 1.0), (0.99, 2.0)])
def test_spiked_means_hardy_extremal_match_i_c(alpha, p):
    # the swept means against the independent i_c route, on every grid
    # radius out to 1 - 1e-6
    rs = unit_grid()[1]
    rs = rs[rs <= 1.0 - 1e-6]
    got = np.array(norms._catalog_means(
        TestFunction(Kind.HARDY_ALPHA_EXTREMAL, alpha), p, 1e-12)(rs.tolist()))
    want = i_c(p * alpha - 1.0, rs, 1e-12) ** (1.0 / p)
    assert got[0] == 1.0
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_spiked_means_bloch_extremal_h2_log_norm():
    # sup_r sqrt((2/pi) K(r^4) - 1) / (1 - 2 log(1-r)), maximized by mpmath:
    # 0.0969290981324184 at r* = 0.956763284632805. The per-radius trapezoid
    # means this replaced raised QuadratureError here.
    res = hardy_norm_details(TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5), 2.0,
                             True, 1e-4)
    assert res.boundary == "Interior"
    assert abs(res.value - 0.0969290981324184) <= 1e-4 * 0.0969290981324184


def test_i_c_array_domain():
    for bad in ([0.5, 1.0], [0.0, -0.1, 0.5], [0.5, math.nan]):
        with pytest.raises(ValueError):
            i_c(0.5, np.array(bad), 1e-9)
    with pytest.raises(ValueError):
        i_c(0.5, np.full((2, 2), 0.5), 1e-9)


# ---------------------------------------------------------------------------
# coefficient inequality


def test_hardy_inequality_gap_lhs_formula():
    s = CoefficientSeries(np.array([3.0, -4.0j]), 2, 0.0)
    lhs, rhs = hardy_inequality_gap(s, 1e-6)
    assert lhs == pytest.approx(3.0 + 4.0 / 2.0, rel=1e-15)
    assert lhs <= rhs


def test_hardy_inequality_gap_seeded_polynomials():
    rng = np.random.default_rng(104)
    for _ in range(5):
        deg = int(rng.integers(1, 9))
        a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        s = CoefficientSeries(a, deg + 1, 0.0)
        lhs, rhs = hardy_inequality_gap(s, 1e-4)
        assert lhs <= rhs + 1e-4 * max(1.0, rhs)


def test_hardy_inequality_gap_type_error():
    with pytest.raises(TypeError):
        hardy_inequality_gap([1.0, 2.0], 1e-6)
