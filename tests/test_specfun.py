"""Gamma/Beta wrappers, the dilogarithm, the reflection self-test, and the
logarithmic weight."""

import math

import mpmath
import numpy as np
import pytest

from hilbertnorm.specfun import beta, dilog, gamma, log_weight, reflection_residual
from hilbertnorm.supsearch import unit_grid

# 30-digit reference values (independent high-precision evaluation, frozen)
GAMMA_HALF = 1.77245385090551602729816748334
GAMMA_THREE_QUARTERS = 1.22541670246517764512909830336
GAMMA_THREE_HALVES = 0.886226925452758013649083741671


def test_gamma_reference_values():
    assert gamma(0.5) == pytest.approx(GAMMA_HALF, rel=1e-14)
    assert gamma(0.75) == pytest.approx(GAMMA_THREE_QUARTERS, rel=1e-14)
    assert gamma(1.5) == pytest.approx(GAMMA_THREE_HALVES, rel=1e-14)
    assert gamma(1.0) == 1.0
    assert gamma(5.0) == 24.0


def test_gamma_negative_nonintegers():
    # Gamma(-0.5) = -2 sqrt(pi)
    assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_rejects_poles(x):
    with pytest.raises(ValueError):
        gamma(x)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_gamma_rejects_nonfinite(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_beta_reference_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)
    # B(2, 3) = 1/12
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)


def test_beta_matches_gamma_product():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        s = float(rng.uniform(0.1, 20.0))
        t = float(rng.uniform(0.1, 20.0))
        want = gamma(s) * gamma(t) / gamma(s + t)
        assert beta(s, t) == pytest.approx(want, rel=1e-12)


def test_beta_is_exactly_symmetric():
    rng = np.random.default_rng(99)
    for _ in range(100):
        s = float(rng.uniform(0.05, 30.0))
        t = float(rng.uniform(0.05, 30.0))
        assert beta(s, t) == beta(t, s)


@pytest.mark.parametrize("s,t", [(0.0, 1.0), (1.0, 0.0), (-0.5, 1.0), (1.0, -2.0)])
def test_beta_rejects_out_of_domain(s, t):
    with pytest.raises(ValueError):
        beta(s, t)


def test_reflection_residual_small_at_nonintegers():
    points = (0.1, 0.25, 1.0 / 3.0, 0.4, 0.45, 0.6, 2.0 / 3.0, 0.75, 1.3, 2.6)
    for z in points:
        assert reflection_residual(z) < 1e-12


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.25, 0.5, math.nextafter(0.5, 1.0),
                               0.75, 0.99, 1.0 - 1e-12])
def test_dilog_matches_mpmath(x):
    # both sides of the reflection switch at 1/2, and the deep end where
    # log(x) log(1-x) -> 0
    with mpmath.workdps(30):
        want = float(mpmath.polylog(2, mpmath.mpf(x)))
    assert dilog(x) == pytest.approx(want, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("x", [-1e-3, 1.0, 2.0])
def test_dilog_rejects_out_of_domain(x):
    with pytest.raises(ValueError):
        dilog(x)


@pytest.mark.parametrize("z", [0.0, 1.0, -3.0])
def test_reflection_residual_rejects_integers(z):
    with pytest.raises(ValueError):
        reflection_residual(z)


def test_log_weight_values():
    assert log_weight(0.0) == 1.0
    # 1 - 2 log(1/2) = 1 + 2 log 2
    assert log_weight(0.5) == pytest.approx(1.0 + 2.0 * math.log(2.0), rel=1e-15)


def test_log_weight_scalar_array_parity():
    rs = np.array([0.0, 0.1, 0.5, 0.9, 0.999])
    arr = log_weight(rs)
    assert isinstance(arr, np.ndarray)
    for r, v in zip(rs, arr):
        assert log_weight(float(r)) == v


def test_log_weight_float_route_has_the_array_bits():
    # a float (np.float64 included) skips the 0-d array but keeps the bits
    # of np.log1p over an array; math.log1p would not (another
    # implementation, which differs in the last bit on some radii)
    rng = np.random.default_rng(37)
    rs = np.concatenate([unit_grid()[1], rng.uniform(0.0, 1.0, 10_000)])
    want = log_weight(rs)
    floats = [log_weight(r) for r in rs.tolist()]
    assert all(type(v) is float for v in floats)
    assert np.array(floats).tobytes() == want.tobytes()
    assert np.array([log_weight(r) for r in rs]).tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [math.nan, 1.0, -1e-300, math.inf])
def test_log_weight_float_route_rejects_out_of_domain(r):
    for value in (r, np.float64(r)):
        with pytest.raises(ValueError):
            log_weight(value)


def test_log_weight_strictly_increasing():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r1, r2 = sorted(rng.uniform(0.0, 1.0 - 1e-12, size=2))
        if r1 == r2:
            continue
        assert log_weight(r1) < log_weight(r2)


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
def test_log_weight_rejects_out_of_domain(r):
    with pytest.raises(ValueError):
        log_weight(r)


def test_log_weight_rejects_nan():
    # NaN compares false with both bounds, so it must fail the domain check
    # rather than come back as a weight of nan
    with pytest.raises(ValueError):
        log_weight(math.nan)
    with pytest.raises(ValueError):
        log_weight(np.array([0.5, math.nan]))


def test_log_weight_at_least_one():
    rng = np.random.default_rng(11)
    rs = rng.uniform(0.0, 1.0 - 1e-12, size=100)
    assert np.all(log_weight(rs) >= 1.0)
