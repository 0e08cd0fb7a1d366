"""Test-function catalog: closed forms, Taylor coefficients, series algebra."""

import math

import numpy as np
import pytest

from hilbertnorm.catalog import (
    CoefficientSeries,
    Kind,
    TestFunction,
    derivative_series,
    eval as cat_eval,
    eval_series,
    taylor_coeffs,
)

HALF_LOG_AT_HALF = 0.549306144334054846  # (1/2) log 3, 30-digit reference


def test_function_validation():
    TestFunction(Kind.CONSTANT)
    TestFunction(Kind.HALF_LOG)
    TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5)
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5)
    with pytest.raises(ValueError):
        TestFunction(Kind.CONSTANT, 1.0)
    with pytest.raises(ValueError):
        TestFunction(Kind.HALF_LOG, 0.5)
    with pytest.raises(ValueError):
        TestFunction(Kind.HARDY_ALPHA_EXTREMAL)
    with pytest.raises(ValueError):
        TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 1.0)
    with pytest.raises(ValueError):
        TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.0)
    with pytest.raises(ValueError):
        TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 0.0)


def test_eval_constant():
    fn = TestFunction(Kind.CONSTANT)
    assert cat_eval(fn, 0.3 + 0.2j) == 1.0 + 0.0j
    assert cat_eval(fn, 0.0) == 1.0


def test_eval_half_log():
    fn = TestFunction(Kind.HALF_LOG)
    assert cat_eval(fn, 0.0) == 0.0
    assert cat_eval(fn, 0.5) == pytest.approx(HALF_LOG_AT_HALF, rel=1e-15)
    # odd function
    assert cat_eval(fn, -0.5) == pytest.approx(-HALF_LOG_AT_HALF, rel=1e-15)


def test_eval_hardy_extremal():
    fn = TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5)
    assert cat_eval(fn, 0.0) == 1.0
    assert cat_eval(fn, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_eval_bloch_extremal():
    fn = TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5)
    assert cat_eval(fn, 0.0) == 0.0
    r = 0.5
    want = ((1.0 - r * r) ** -0.5 - 1.0) / 1.0  # ((1-z^2)^{1-a} - 1)/(2(a-1))
    assert cat_eval(fn, r) == pytest.approx(want, rel=1e-13)


def test_eval_scalar_array_parity():
    zs = np.array([0.0, 0.3, 0.5j, -0.2 + 0.4j])
    for kind, param in ((Kind.CONSTANT, None), (Kind.HALF_LOG, None),
                        (Kind.HARDY_ALPHA_EXTREMAL, 0.7),
                        (Kind.BLOCH_ALPHA_EXTREMAL, 1.3)):
        fn = TestFunction(kind, param)
        arr = cat_eval(fn, zs)
        for z, v in zip(zs, arr):
            assert cat_eval(fn, complex(z)) == pytest.approx(v, abs=1e-15)


def test_eval_rejects_outside_disk():
    fn = TestFunction(Kind.HALF_LOG)
    for z in (1.0, -1.0, 1.0 + 0.0j, 2.0, 0.8 + 0.7j):
        with pytest.raises(ValueError):
            cat_eval(fn, z)


def test_eval_rejects_nan():
    fn = TestFunction(Kind.HALF_LOG)
    for z in (math.nan, complex(0.5, math.nan), np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            cat_eval(fn, z)


def test_eval_series_rejects_nan():
    s = taylor_coeffs(TestFunction(Kind.HALF_LOG), 8)
    for z in (math.nan, complex(math.nan, 0.5), np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            eval_series(s, z)


def test_radial_domination():
    # all four kinds have nonnegative Taylor coefficients, so the modulus on
    # any circle is maximized on the positive real axis
    rng = np.random.default_rng(1001)
    fns = [TestFunction(Kind.CONSTANT), TestFunction(Kind.HALF_LOG),
           TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.6),
           TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.7)]
    for _ in range(50):
        r = float(rng.uniform(0.0, 0.999))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        z = r * math.cos(theta) + 1j * r * math.sin(theta)
        if abs(z) >= 1.0:
            continue
        for fn in fns:
            assert abs(cat_eval(fn, z)) <= abs(cat_eval(fn, abs(z))) + 1e-12


def test_taylor_constant():
    s = taylor_coeffs(TestFunction(Kind.CONSTANT), 4)
    assert np.array_equal(s.coeffs, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    assert s.tail_bound == 0.0
    assert s.truncation_order == 4


def test_taylor_half_log():
    s = taylor_coeffs(TestFunction(Kind.HALF_LOG), 8)
    want = np.zeros(8, dtype=complex)
    want[1::2] = 1.0 / np.arange(1, 8, 2)
    assert np.allclose(s.coeffs, want, atol=0.0)
    assert s.tail_bound == pytest.approx(1.0 / 8.0)


def test_taylor_hardy_recurrence():
    al = 0.5
    s = taylor_coeffs(TestFunction(Kind.HARDY_ALPHA_EXTREMAL, al), 4)
    # (1-z)^{-a}: a_0 = 1, a_1 = a, a_2 = a(a+1)/2, a_3 = a(a+1)(a+2)/6
    want = [1.0, al, al * (al + 1.0) / 2.0, al * (al + 1.0) * (al + 2.0) / 6.0]
    assert np.allclose(s.coeffs, want, rtol=1e-15)
    assert s.tail_bound is not None and s.tail_bound > 0.0


def test_taylor_bloch_even_series():
    s = taylor_coeffs(TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5), 33)
    assert np.all(s.coeffs[1::2] == 0.0)
    assert s.coeffs[0] == 0.0
    fn = TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5)
    z = 0.3
    gap = abs(eval_series(s, z) - cat_eval(fn, z))
    assert gap <= s.tail_bound * abs(z) ** s.truncation_order / (1.0 - abs(z)) + 1e-12


def test_taylor_bloch_steep_has_no_tail_certificate():
    s = taylor_coeffs(TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 2.5), 16)
    assert s.tail_bound is None


def test_taylor_rejects_empty_request():
    with pytest.raises(ValueError):
        taylor_coeffs(TestFunction(Kind.CONSTANT), 0)


@pytest.mark.parametrize("n", [2.5, "4", True, math.inf, math.nan, 0])
def test_taylor_rejects_non_integral_count(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        taylor_coeffs(TestFunction(Kind.HALF_LOG), n)


def test_series_matches_closed_form_within_tail():
    rng = np.random.default_rng(5150)
    fns = [TestFunction(Kind.HALF_LOG),
           TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.4),
           TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.8)]
    for fn in fns:
        s = taylor_coeffs(fn, 256)
        for _ in range(20):
            r = float(rng.uniform(0.0, 0.9))
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            z = complex(r * math.cos(theta), r * math.sin(theta))
            bound = s.tail_bound * abs(z) ** s.truncation_order / (1.0 - abs(z))
            assert abs(eval_series(s, z) - cat_eval(fn, z)) <= bound + 1e-14


def test_series_tight_truncation_value():
    s = taylor_coeffs(TestFunction(Kind.HALF_LOG), 64)
    assert abs(eval_series(s, 0.5) - HALF_LOG_AT_HALF) < 1e-12


def test_series_invariants():
    s = CoefficientSeries(np.array([1.0, 2.0]), 2, 0.0)
    assert s.truncation_order == 2
    assert not s.coeffs.flags.writeable
    inferred = CoefficientSeries(np.array([1.0, 2.0, 3.0]))
    assert inferred.truncation_order == 3
    with pytest.raises(ValueError):
        CoefficientSeries(np.array([1.0]), 5, 0.0)
    with pytest.raises(ValueError):
        CoefficientSeries(np.array([1.0]), 1, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_series_rejects_non_finite_coefficients(bad):
    # a NaN coefficient once sent the exact H^p route up to 2^20 points and
    # out with "last change nan"; Parseval's sum would return nan silently
    with pytest.raises(ValueError, match="finite"):
        CoefficientSeries(np.array([1.0, bad]), 2, 0.0)


def test_eval_series_empty_is_zero():
    empty = CoefficientSeries(np.zeros(0), 0, 0.0)
    assert eval_series(empty, 0.5) == 0.0
    assert np.all(eval_series(empty, np.array([0.1, 0.2j])) == 0.0)


def test_eval_series_linearity():
    rng = np.random.default_rng(77)
    a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    b = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    sa = CoefficientSeries(a, 9, 0.0)
    sb = CoefficientSeries(b, 9, 0.0)
    sab = CoefficientSeries(2.0 * a - 3.0j * b, 9, 0.0)
    for z in (0.4, -0.3 + 0.5j, 0.0):
        want = 2.0 * eval_series(sa, z) - 3.0j * eval_series(sb, z)
        assert eval_series(sab, z) == pytest.approx(want, abs=1e-13)


def test_eval_series_rejects_outside_disk():
    s = CoefficientSeries(np.array([1.0, 1.0]), 2, 0.0)
    with pytest.raises(ValueError):
        eval_series(s, 1.0)


def test_derivative_series_shift():
    s = CoefficientSeries(np.array([5.0, 3.0, 2.0, 1.0]), 4, 0.0)
    d = derivative_series(s)
    assert np.allclose(d.coeffs, [3.0, 4.0, 3.0])
    assert d.truncation_order == 3
    assert d.tail_bound == 0.0


def test_derivative_of_constant_is_empty():
    d = derivative_series(CoefficientSeries(np.array([7.0]), 1, 0.0))
    assert d.coeffs.size == 0
    assert d.truncation_order == 0
    assert eval_series(d, 0.3) == 0.0


def test_derivative_drops_uncontrolled_tail():
    d = derivative_series(CoefficientSeries(np.array([1.0, 1.0]), 2, 2.0))
    assert d.tail_bound is None


def test_derivative_linearity():
    rng = np.random.default_rng(4242)
    a = rng.standard_normal(7)
    b = rng.standard_normal(7)
    da = derivative_series(CoefficientSeries(a, 7, 0.0))
    db = derivative_series(CoefficientSeries(b, 7, 0.0))
    dsum = derivative_series(CoefficientSeries(a + b, 7, 0.0))
    assert np.allclose(dsum.coeffs, da.coeffs + db.coeffs, atol=1e-15)


def test_derivative_matches_difference_quotient():
    rng = np.random.default_rng(31337)
    coeffs = rng.standard_normal(10)
    s = CoefficientSeries(coeffs, 10, 0.0)
    d = derivative_series(s)
    z = 0.37 + 0.21j
    h = 1e-7
    fd = (eval_series(s, z + h) - eval_series(s, z - h)) / (2.0 * h)
    assert eval_series(d, z) == pytest.approx(fd, rel=1e-6)
