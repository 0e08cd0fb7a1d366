"""Differential oracle: the adaptive integrators against mpmath.quad.

Smooth integrands: integrate on a finite interval, and integrate_halfline on
integrands that decay at least like x^-2, the rate its rational map needs.

Singular integrands: rows x^a (1-x)^b g(x) with declared endpoint
exponents a, b in (-0.95, 1) and smooth factors g are integrated as the
members of one lockstep integration and one row at a time
(integrate_singular), and compared with mpmath's tanh-sinh quadrature at
30 significant digits.  Tanh-sinh alone loses most digits for exponents near -1, so the reference
splits [0, 1] at 1/2 and removes each endpoint power by the exact
substitution x = u^(1/(1+a)) in 30-digit arithmetic, leaving mpmath smooth
integrands.

Hypergeometric oracles: the circle means I_c(r) = 2F1(s, s; 1; r^2) with
s = (1 + c)/2, and the integral form of the operator on the Hardy extremal
(1 - z)^-a, whose image is 2F1(1, 1; 2 - a; z)/(1 - a) (Euler's integral),
against mpmath's hyp2f1 at 30 digits, independent of every integrator in
the package.  The h1 numerator is held to the same image: its profile
integral K(z) = 2F1(1 - a, 1 - a; 2 - a; z)/(1 - a) up to |1 - z| = 1e-11,
and its circle mean M_1(r, Hf) against mpmath.quad of |hyp2f1| over the
angle, split at (1 - r) 10^k so the spike at theta = 0 is resolved.  The
closed form the h1 search runs on, Hf(z) = z^(a-1) (1-z)^(-a) B_z(1-a, a),
is held to mpmath's incomplete beta betainc on both sides of its switch
from continued fraction to reflection series, and its circle means to the
same hyp2f1 reference.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from hilbertnorm.catalog import Kind, TestFunction  # noqa: E402
from hilbertnorm.hilbertop import apply_integral  # noqa: E402
from hilbertnorm.norms import i_c  # noqa: E402
from hilbertnorm.quadrature import (  # noqa: E402
    QuadratureError,
    SingularitySpec,
    integrate,
    integrate_halfline,
    integrate_singular,
)
from hilbertnorm.verification import (  # noqa: E402
    _BAND_CS,
    _BAND_RS,
    _h1_closed_means,
    _h1_image_closed,
    _h1_numerator_mean,
    _h1_profile_integral,
)

TOL = 1e-10

_exponent = st.floats(min_value=-0.95, max_value=1.0, exclude_max=True,
                      allow_nan=False)
_factor = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)


def _reference(a, b, c, k):
    def g(x):
        return mpmath.cos(k * x) / (1 + c * x)

    with mpmath.workdps(30):
        qa = 1 / (1 + mpmath.mpf(a))
        qb = 1 / (1 + mpmath.mpf(b))
        half = mpmath.mpf(1) / 2
        left = mpmath.quad(
            lambda u: qa * (1 - u ** qa) ** b * g(u ** qa), [0, half ** (1 + a)])
        right = mpmath.quad(
            lambda v: qb * (1 - v ** qb) ** a * g(1 - v ** qb), [0, half ** (1 + b)])
        return float(left + right)


def _family(a, b, c, k):
    def family(members, x):
        base = x ** a * (1.0 - x) ** b * np.cos(k * x)
        return base / (1.0 + c[members, None] * x)
    return family


def _close(got, want):
    return abs(got - want) <= 10.0 * TOL * max(1.0, abs(want))


def _check(values, a, b, cs, k):
    for got, ci in zip(values, cs):
        assert _close(got, _reference(a, b, ci, k))


def _on_examples(test):
    """Run test on the shared strategy: 40 derandomized examples."""
    return settings(max_examples=40, deadline=None, derandomize=True)(
        given(a=_exponent, b=_exponent,
              cs=st.lists(_factor, min_size=1, max_size=3), k=_factor)(test))


@_on_examples
def test_family_matches_mpmath(a, b, cs, k):
    # one lockstep member per factor c, on array bounds
    c = np.array(cs)
    res = integrate_singular(_family(a, b, c, k), np.zeros(c.size), np.ones(c.size),
                             SingularitySpec(a, b), TOL)
    _check(res.value, a, b, cs, k)


@_on_examples
def test_singular_matches_mpmath(a, b, cs, k):
    # the scalar heap engine, one member at a time
    c = np.array(cs)
    values = [integrate_singular(lambda x: _family(a, b, c, k)(i, x),
                                 0.0, 1.0, SingularitySpec(a, b), TOL).value
              for i in range(c.size)]
    _check(values, a, b, cs, k)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lo=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
       w=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
       c=_factor, k=_factor)
def test_integrate_matches_mpmath(lo, w, c, k):
    got = integrate(lambda x: np.cos(k * x) / (1.0 + c * x * x),
                    lo, lo + w, TOL).value
    with mpmath.workdps(30):
        # split the oscillations for tanh-sinh
        want = float(mpmath.quad(
            lambda x: mpmath.cos(k * x) / (1 + c * x * x),
            mpmath.linspace(lo, lo + w, 9)))
    assert _close(got, want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(s=st.floats(min_value=2.0, max_value=4.0, allow_nan=False),
       c=_factor, a=st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
def test_halfline_matches_mpmath(s, c, a):
    got = integrate_halfline(
        lambda x: np.log1p(x) * np.exp(-c * x) / (1.0 + x) ** s, a, TOL).value
    with mpmath.workdps(30):
        want = float(mpmath.quad(
            lambda x: mpmath.log(1 + x) * mpmath.exp(-c * x) / (1 + x) ** s,
            [a, a + 1, mpmath.inf]))
    assert _close(got, want)


def test_halfline_slow_decay_raises():
    # (1+x)^-1.5 is outside the O(x^-2) contract: the mapped integrand
    # blows up at u = 1, and the call must raise rather than return a number,
    # naming the contract and an x-range that reaches infinity, and carrying
    # the partial result short of the tolerance (the integral is 2)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(QuadratureError) as info:
        integrate_halfline(lambda x: (1.0 + x) ** -1.5, 0.0, TOL)
    message = str(info.value)
    assert "O(x^-2)" in message and message.split(":")[0].endswith(", inf]")
    partial = info.value.result
    assert partial is not None and partial.evaluations > 15
    assert partial.error_estimate > TOL
    assert abs(partial.value - 2.0) <= partial.error_estimate


@pytest.mark.parametrize("c", _BAND_CS)
def test_circle_mean_matches_hypergeometric(c):
    for r in _BAND_RS + (1.0 - 1e-6,):
        got = i_c(c, r, 1e-12)
        with mpmath.workdps(30):
            s = (1 + mpmath.mpf(c)) / 2
            want = float(mpmath.hyp2f1(s, s, 1, mpmath.mpf(r) ** 2))
        assert abs(got - want) <= 1e-11 * abs(want), (c, r)


@pytest.mark.parametrize("a", [0.5, 0.99])
def test_hardy_extremal_image_matches_hypergeometric(a):
    fn = TestFunction(Kind.HARDY_ALPHA_EXTREMAL, a)
    for z in (0.3 + 0.2j, 0.99 * np.exp(0.01j), 0.999999 * np.exp(1e-5j)):
        got = apply_integral(fn, complex(z), 1e-12)
        with mpmath.workdps(30):
            am = mpmath.mpf(a)
            want = complex(mpmath.hyp2f1(1, 1, 2 - am, mpmath.mpc(z)) / (1 - am))
        assert abs(got - want) <= 1e-10 * abs(want), (a, z)


def test_h1_profile_integral_matches_hypergeometric():
    # |1 - z| from 1e-11 to 1 on three rays out of z = 1, inside the disk,
    # every point a member of one call
    a = 0.99
    am = mpmath.mpf(a)
    rays = np.exp(1j * np.array([0.0, 1.0, 1.5]))
    zs = (1.0 - np.outer(10.0 ** np.arange(-11, 1), rays)).ravel()
    zs = zs[np.abs(zs) < 1.0]
    for z, got in zip(zs, _h1_profile_integral(a, zs).value):
        with mpmath.workdps(30):
            want = complex(mpmath.hyp2f1(1 - am, 1 - am, 2 - am, mpmath.mpc(z))
                           / (1 - am))
        assert abs(got - want) <= 1e-12 * abs(want), (z, got, want)


@pytest.mark.parametrize("a", [0.5, 0.99])
def test_h1_numerator_mean_matches_hypergeometric(a):
    # at a = 0.5 the spike of width about 1 - r at theta = 0 carries a share
    # of about sqrt(1 - r) of the mean, so radii this near the boundary
    # test that it is resolved; the closed-form means the search runs on
    # are held to the same reference at the radii of their cross-check
    radii = (0.3, 0.99, 1.0 - 1e-6)
    closed, closed_values = _h1_closed_means(a, np.array(radii))
    assert closed_values > 0
    near = (1.0 - 1.2e-8, 1.0 - 2.4e-9) if a == 0.5 else ()
    means, values = _h1_numerator_mean(a, np.array(radii + near))
    assert values > 0
    for r, got in zip(radii + near, means.tolist()):
        # 15 digits keep each reference under a second and still resolve
        # 1e-10; the breakpoints put the spike of width 1 - r in its own piece
        with mpmath.workdps(15):
            am, rm = mpmath.mpf(a), mpmath.mpf(r)
            breaks = [(1 - rm) * 10 ** k for k in range(20)
                      if (1.0 - r) * 10.0 ** k < math.pi]
            want = float(mpmath.quad(
                lambda th: abs(mpmath.hyp2f1(1, 1, 2 - am, rm * mpmath.expj(th))),
                [0] + breaks + [mpmath.pi]) / ((1 - am) * mpmath.pi))
        assert abs(got - want) <= 1e-10 * want, (a, r)
        if r in radii:
            assert abs(closed[radii.index(r)] - want) <= 1e-10 * want, (a, r)


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
def test_h1_image_closed_matches_incomplete_beta(a):
    # radii out to 1 - 1e-11, angles from 0 to pi, and both sides of
    # |1 - z| = 1/2, where the continued fraction hands over to the
    # reflection series
    zs = []
    for r in (0.05, 0.3, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-11):
        thetas = [0.0, 1e-9, 1e-4, 0.3, 1.0, 2.0, math.pi]
        c = (1.0 + r * r - 0.25) / (2.0 * r)
        if abs(c) <= 1.0:
            switch = math.acos(c)
            thetas += [switch * (1.0 - 1e-9), switch * (1.0 + 1e-9),
                       switch - 0.01, switch + 0.01]
        zs.extend(r * np.exp(1j * np.array(thetas)))
    zs = np.array(zs)
    assert (abs(1.0 - zs) > 0.5).any() and (abs(1.0 - zs) <= 0.5).any()
    got = _h1_image_closed(a, zs)
    with mpmath.workdps(40):
        am = mpmath.mpf(a)
        for z, g in zip(zs, got):
            zm = mpmath.mpc(z)
            want = complex(zm ** (am - 1) * (1 - zm) ** (-am)
                           * mpmath.betainc(1 - am, am, 0, zm))
            assert abs(g - want) <= 1e-14 * abs(want), (a, z, g, want)
