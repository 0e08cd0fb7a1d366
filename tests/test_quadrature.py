"""Adaptive quadrature: plain, endpoint-singular and half-line integrals, and
the circle means and maxima of polynomials that run on its circle helpers."""

import math
import re

import numpy as np
import pytest

from hilbertnorm.norms import _series_maxima, _series_means
from hilbertnorm.quadrature import (
    QuadratureError,
    QuadResult,
    SingularitySpec,
    _heap,
    _WIDE,
    integrate,
    integrate_halfline,
    integrate_singular,
)

TOL = 1e-10


def test_polynomial_exact():
    res = integrate(lambda t: t ** 3, 0.0, 1.0, TOL)
    assert res.value == pytest.approx(0.25, abs=1e-14)
    assert res.evaluations > 0


def test_sine_integral():
    res = integrate(np.sin, 0.0, math.pi, TOL)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_estimate <= TOL * 2.0 + 1e-14


def test_complex_integrand():
    res = integrate(lambda t: np.exp(1j * t), 0.0, 1.0, TOL)
    want = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert complex(res.value) == pytest.approx(want, abs=1e-12)


def test_oscillatory_needs_more_panels():
    smooth = integrate(lambda t: t * t, 0.0, 1.0, TOL)
    wiggly = integrate(lambda t: np.sin(40.0 * t) ** 2, 0.0, 1.0, TOL)
    assert wiggly.value == pytest.approx(0.5 - math.sin(80.0) / 160.0, abs=1e-10)
    assert wiggly.evaluations > smooth.evaluations


def test_error_estimate_is_honest():
    rng = np.random.default_rng(314)
    for _ in range(20):
        a, b, c = rng.standard_normal(3)
        res = integrate(lambda t: a * t * t + b * t + c, 0.0, 2.0, 1e-9)
        truth = a * 8.0 / 3.0 + 2.0 * b + 2.0 * c
        assert abs(res.value - truth) <= max(res.error_estimate, 1e-12) + 1e-12


def test_singular_pure_power_right():
    spec = SingularitySpec(right_exponent=-0.9)
    res = integrate_singular(
        lambda t: (1.0 - t) ** -0.9, 0.0, 1.0, spec, 1e-10)
    assert res.value == pytest.approx(10.0, rel=1e-9)
    assert res.singular_flags == (False, True)


def test_singular_both_endpoints_beta():
    spec = SingularitySpec(left_exponent=-0.5, right_exponent=-0.5)
    res = integrate_singular(
        lambda t: t ** -0.5 * (1.0 - t) ** -0.5, 0.0, 1.0, spec, 1e-10)
    assert res.value == pytest.approx(math.pi, rel=1e-10)
    assert res.singular_flags == (True, True)


def test_singular_log_blowup_under_power_majorant():
    spec = SingularitySpec(right_exponent=-0.5)
    res = integrate_singular(
        lambda t: -np.log1p(-t), 0.0, 1.0, spec, 1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def test_singular_extreme_exponent():
    spec = SingularitySpec(right_exponent=-0.99)
    res = integrate_singular(
        lambda t: (1.0 - t) ** -0.99, 0.0, 1.0, spec, 1e-9)
    assert res.value == pytest.approx(100.0, rel=1e-8)


def test_singularity_spec_rejects_nonintegrable():
    with pytest.raises(ValueError):
        SingularitySpec(right_exponent=-1.0)
    with pytest.raises(ValueError):
        SingularitySpec(left_exponent=-1.3)


def test_undeclared_divergence_raises():
    with pytest.raises(QuadratureError) as info:
        integrate(lambda t: 1.0 / t, 0.0, 1.0, 1e-10, panel_cap=256)
    assert isinstance(info.value.result, QuadResult)


def test_halfline_exponential():
    res = integrate_halfline(lambda x: np.exp(-x), 0.0, 1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_halfline_power_tail():
    res = integrate_halfline(lambda x: x ** -2.0, 1.0, 1e-10)
    assert res.value == pytest.approx(1.0, rel=1e-9)


def _circle_mean(coeffs, r, p, tol):
    """M_p(r, f) of the polynomial with these coefficients through the norms'
    series routes: the doubling trapezoid means for p finite (with the
    angular fallback, norms._angular_mean), the circle maxima for p = inf
    (norms._series_maxima), which take no tol."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if p == math.inf:
        return float(_series_maxima(coeffs, [r])[0])
    return float(_series_means(coeffs, [r], p, tol)[0])


def test_circle_mean_constant_any_p():
    for p in (1.0, 2.0, 3.5, math.inf):
        assert _circle_mean([1.0], 0.5, p, 1e-10) == pytest.approx(1.0, abs=1e-12)


def test_circle_mean_identity_function():
    # |f(z)| = |z| = r on the circle, so every mean equals r
    for p in (1.0, 2.0, math.inf):
        assert _circle_mean([0.0, 1.0], 0.7, p, 1e-10) == (
            pytest.approx(0.7, abs=1e-10))


def test_circle_mean_quadratic_mean_closed_form():
    # M_2(r, 1+z)^2 = 1 + r^2
    r = 0.6
    got = _circle_mean([1.0, 1.0], r, 2.0, 1e-11)
    assert got == pytest.approx(math.sqrt(1.0 + r * r), rel=1e-9)


def test_circle_mean_sup_norm():
    r = 0.8
    got = _circle_mean([1.0, 1.0], r, math.inf, 1e-10)
    assert got == pytest.approx(1.0 + r, rel=1e-9)


def _dense_circle_max(coeffs, r):
    """max |f| on |z| = r for a polynomial f: a 2^16-point FFT grid, then a
    8193-point local grid around each of its three largest values."""
    n = 1 << 16
    h = 2.0 * math.pi / n
    grid = np.abs(np.fft.ifft(coeffs * r ** np.arange(coeffs.size), n)) * n
    best = 0.0
    for j in np.argsort(grid)[-3:]:
        z = r * np.exp(1j * (2.0 * math.pi * j / n + np.linspace(-h, h, 8193)))
        best = max(best, float(np.max(np.abs(
            np.polynomial.polynomial.polyval(z, coeffs)))))
    return best


def test_circle_mean_sup_norm_of_polynomials_respects_tol():
    # The refinement stops on bracket width alone, 1e-12 relative, so the
    # maximum meets the dense reference to 1e-12 with no tol to pass.
    rng = np.random.default_rng(2718)
    for _ in range(12):
        degree = int(rng.integers(1, 33))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        r = float(rng.uniform(0.3, 0.999))
        want = _dense_circle_max(coeffs, r)
        got = _circle_mean(coeffs, r, math.inf, None)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_circle_mean_sup_norm_symmetric_straddle():
    # Seed 16, degree 14, r = 0.7: the two interior golden-section values
    # once agreed within tol while straddling the peak, and the maximum came
    # out 6.5e-9 relative low at tol 1e-9.
    rng = np.random.default_rng(16)
    coeffs = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    r = 0.7
    n = 1 << 20
    fft_max = float(np.max(np.abs(np.fft.ifft(coeffs * r ** np.arange(15), n)))) * n
    got = _circle_mean(coeffs, r, math.inf, None)
    assert abs(got - fft_max) <= 1e-9 * fft_max
    assert got == pytest.approx(_dense_circle_max(coeffs, r), rel=1e-13)


def test_circle_mean_meets_tol_near_boundary():
    # Near r = 1 the trapezoid error of M_1 can cross zero between two
    # doublings; stopping at the first agreement missed tol on 10 of these
    # 200 polynomials, by up to 80 x tol.  Two consecutive agreements meet it.
    rng = np.random.default_rng(1)
    r, tol = 1.0 - 1e-6, 1e-5
    for _ in range(200):
        degree = int(rng.integers(1, 65))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        want = float(np.mean(np.abs(
            np.fft.fft(coeffs * r ** np.arange(coeffs.size), 1 << 16))))
        got = _circle_mean(coeffs, r, 1.0, tol)
        assert abs(got - want) <= tol * max(1.0, want), degree


def test_circle_mean_nondecreasing_in_radius():
    rng = np.random.default_rng(2718)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    means = _series_means(coeffs, [0.2, 0.5, 0.8, 0.95], 1.0, 1e-9)
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 1e-8


def test_circle_mean_near_saturated_radius():
    # radii a few ulps below 1 must evaluate without domain errors
    r = np.nextafter(1.0, 0.0)
    got = _circle_mean([0.0, 1.0], r, 1.0, 1e-8)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_integration_is_deterministic():
    def f(t):
        return np.exp(-t) * np.sin(3.0 * t)

    first = integrate(f, 0.0, 5.0, 1e-11)
    second = integrate(f, 0.0, 5.0, 1e-11)
    assert first.value == second.value
    assert first.error_estimate == second.error_estimate
    assert first.evaluations == second.evaluations


# ---------------------------------------------------------------------------
# a family of integrals, one lockstep member each
# ---------------------------------------------------------------------------

_SPECS = (
    SingularitySpec(-0.5, -0.3),
    SingularitySpec(None, -0.7),
    SingularitySpec(-0.6, None),
    SingularitySpec(None, None),
)


def _power_family(spec, cs):
    """Members x^a (1-x)^b / (1 + c x), one for each c, with the declared
    (a, b); and the same integrands one at a time."""
    a = spec.left_exponent or 0.0
    b = spec.right_exponent or 0.0
    c = np.array(cs)

    def family(members, x):
        return x ** a * (1.0 - x) ** b / (1.0 + c[members, None] * x)

    return family, [lambda x, ck=ck: x ** a * (1.0 - x) ** b / (1.0 + ck * x)
                    for ck in cs]


@pytest.mark.parametrize("spec", _SPECS)
def test_family_rows_match_scalar_integrator(spec):
    # every declared form, endpoints alone and together, in lockstep
    tol = 1e-10
    cs = (0.0, 0.5, 3.0, 20.0)
    family, rows = _power_family(spec, cs)
    res = integrate_singular(family, np.zeros(len(cs)), 1.0, spec, tol)
    assert res.value.shape == (len(cs),)
    assert res.error_estimate.shape == (len(cs),)
    assert res.singular_flags == (spec.left_exponent is not None,
                                  spec.right_exponent is not None)
    for got, err, row in zip(res.value, res.error_estimate, rows):
        one = integrate_singular(row, 0.0, 1.0, spec, tol)
        assert got == one.value and err == one.error_estimate


def test_family_beta_rows():
    # members x^(a+k-1) (1-x)^(b-1) integrate to B(a+k, b); the declared
    # left exponent a-1 is a majorant of every member's
    a, b = 0.3, 0.45
    ks = np.arange(5)

    def family(members, x):
        return x ** (a + ks[members, None] - 1.0) * (1.0 - x) ** (b - 1.0)

    res = integrate_singular(family, np.zeros(ks.size), 1.0,
                             SingularitySpec(a - 1.0, b - 1.0), 1e-11)
    for k, got in zip(ks, res.value):
        want = math.exp(math.lgamma(a + k) + math.lgamma(b)
                        - math.lgamma(a + k + b))
        assert got == pytest.approx(want, rel=1e-10)
        assert res.error_estimate[k] <= 1e-9


def test_family_complex_rows_and_shape():
    # members e^(i k x) over [0, 2]
    ks = np.arange(1.0, 7.0)

    def family(members, x):
        return np.exp(1j * ks[members, None] * x)

    res = integrate(family, np.zeros(ks.size), 2.0, 1e-11)
    assert res.value.shape == ks.shape and res.value.dtype == complex
    want = (np.exp(2j * ks) - 1.0) / (1j * ks)
    assert np.max(np.abs(res.value - want)) <= 1e-10


def test_family_members_converge_independently():
    # a gentle member must not hide a member that needs a much finer mesh
    def family(members, x):
        return np.where(members[:, None] == 0, 1.0, np.sin(60.0 * x) ** 2)

    res = integrate(family, np.zeros(2), 1.0, 1e-10)
    assert res.value[0] == pytest.approx(1.0, abs=1e-13)
    assert res.value[1] == pytest.approx(
        0.5 - math.sin(120.0) / 240.0, abs=1e-9)


def test_family_freezes_panels_at_float_resolution():
    # an interval four ulps wide: its panels soon cannot be bisected, and a
    # member that is rough at that scale freezes them instead of looping
    a = 1.0
    b = a + 4.0 * np.spacing(a)

    def family(members, x):
        return np.where(members[:, None] == 0, 1.0, 1e8 * np.sin(1e17 * x))

    res = integrate(family, np.full(2, a), b, 1e-12)
    assert res.value[0] == pytest.approx(b - a, rel=1e-12)
    # the frozen error stays in the estimate but left the convergence test
    assert res.error_estimate[1] > 1e-12


def test_singular_failure_on_second_piece_counts_the_first():
    # the right piece fails; its partial result is that of the right piece
    # integrated alone at half the tolerance, plus the converged left share
    # int_0^(1/2) ((1-t)^-1.5 + 1) dt = 2 (sqrt 2 - 1) + 1/2
    def f(t):
        return 1.0 / (1.0 - t) ** 1.5 + 1.0

    with pytest.raises(QuadratureError) as info:
        integrate_singular(f, 0.0, 1.0, SingularitySpec(-0.5, -0.5), 1e-10,
                           panel_cap=64)
    with pytest.raises(QuadratureError) as right:
        integrate_singular(f, 0.5, 1.0, SingularitySpec(None, -0.5), 5e-11,
                           panel_cap=64)
    partial, alone = info.value.result, right.value.result
    assert partial.singular_flags == (True, True)
    assert alone.singular_flags == (False, True)
    assert str(info.value) == str(right.value)
    assert partial.value - alone.value == pytest.approx(
        2.0 * (math.sqrt(2.0) - 1.0) + 0.5, abs=1e-6)
    assert partial.error_estimate >= alone.error_estimate
    assert partial.evaluations > alone.evaluations


def _check_failure_of_one_member_counts_its_first_piece(n):
    # the even members ((1-t)^-1, log-divergent) fail on the right piece and
    # member 0 raises; the odd members ((1-t)^-0.5) converge; the partial
    # result is member 0's alone
    def family(members, t):
        return 1.0 / (1.0 - t) ** (1.0 - 0.5 * (members[:, None] % 2))

    with pytest.raises(QuadratureError) as info:
        integrate_singular(family, np.zeros(n), np.ones(n),
                           SingularitySpec(-0.5, -0.5), 1e-10, panel_cap=64)
    with pytest.raises(QuadratureError) as alone:
        integrate_singular(lambda t: 1.0 / (1.0 - t), 0.0, 1.0,
                           SingularitySpec(-0.5, -0.5), 1e-10, panel_cap=64)
    assert info.value.member == 0
    partial = info.value.result
    assert partial.singular_flags == (True, True)
    assert np.ndim(partial.value) == 0
    assert partial == alone.value.result
    # the left share alone is log 2 = 0.69...; the right piece adds more
    assert partial.value > math.log(2.0)


def test_singular_failure_of_one_member_counts_its_first_piece():
    _check_failure_of_one_member_counts_its_first_piece(2)


def test_wide_singular_failure_of_one_member_counts_its_first_piece():
    _check_failure_of_one_member_counts_its_first_piece(WIDE)


def test_family_validation():
    # one member with a > b, or no tolerance, rejects the whole family
    def family(members, x):
        return np.cos(x)

    with pytest.raises(ValueError, match="a < b"):
        integrate_singular(family, np.zeros(3), np.array([1.0, -1.0, 1.0]),
                           SingularitySpec(), 1e-8)
    with pytest.raises(ValueError, match="tol"):
        integrate_singular(family, np.zeros(3), 1.0, SingularitySpec(), 0.0)


def test_integrators_reject_a_non_finite_tol():
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol"):
            integrate(np.sin, 0.0, 10.0, tol)
        with pytest.raises(ValueError, match="tol"):
            integrate_halfline(lambda x: 1.0 / (1.0 + x * x), 0.0, tol)


def test_integrators_reject_an_infinite_bound_and_name_the_halfline():
    with pytest.raises(ValueError, match="integrate_halfline"):
        integrate(lambda x: np.exp(-x), 0.0, math.inf, 1e-8)
    with pytest.raises(ValueError, match="integrate_halfline"):
        integrate_singular(lambda k, x: np.exp(-x), np.zeros(2),
                           np.array([1.0, math.inf]), SingularitySpec(), 1e-8)


def test_halfline_rejects_a_non_finite_start():
    for a in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="half-line start"):
            integrate_halfline(lambda x: 1.0 / (1.0 + x * x), a, 1e-8)


@pytest.mark.parametrize("cap", [0, -5])
def test_integrators_reject_a_panel_cap_below_one(cap):
    with pytest.raises(ValueError, match="panel_cap"):
        integrate(np.sin, 0.0, 1.0, 1e-8, panel_cap=cap)
    with pytest.raises(ValueError, match="panel_cap"):
        integrate_halfline(lambda x: 1.0 / (1.0 + x * x), 0.0, 1e-8, panel_cap=cap)


def test_integrators_reject_an_empty_member_array():
    with pytest.raises(ValueError, match="no member"):
        integrate(lambda k, x: x, np.zeros(0), 1.0, 1e-8)


def test_family_is_deterministic():
    def family(members, x):
        return np.where(members[:, None] == 0, np.exp(-x) * np.sin(3.0 * x),
                        np.cos(7.0 * x))

    first = integrate(family, np.zeros(2), 5.0, 1e-11)
    second = integrate(family, np.zeros(2), 5.0, 1e-11)
    assert np.array_equal(first.value, second.value)
    assert np.array_equal(first.error_estimate, second.error_estimate)
    assert first.evaluations == second.evaluations


# ---------------------------------------------------------------------------
# heap engine: many members in lockstep
#
# A call of fewer than _WIDE members keeps each member's panels in a heap, a
# wider one keeps all panels in flat arrays; NARROW and WIDE member counts
# run the same checks through both.

NARROW, WIDE = 10, 80
assert NARROW < _WIDE <= WIDE


def _seeded_members(n=10, seed=16):
    """Per-member intervals [a, b] and complex frequencies w."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 0.5, n)
    b = a + rng.uniform(0.2, 2.0, n)
    w = rng.uniform(0.5, 30.0, n) + 1j * rng.uniform(-2.0, 2.0, n)
    return a, b, w


def _check_members_equal_their_one_member_calls(n):
    # (b - x)^-0.4 e^(i w x) on [a, b], the right end declared, each member
    # with its own interval and frequency
    a, b, w = _seeded_members(n)
    spec = SingularitySpec(None, -0.4)

    def family(members, x):
        return (b[members, None] - x) ** -0.4 * np.exp(1j * w[members, None] * x)

    batch = integrate_singular(family, a, b, spec, 1e-11)
    assert batch.value.shape == batch.error_estimate.shape == a.shape
    assert batch.singular_flags == (False, True)
    total = 0
    for k, (ak, bk, wk) in enumerate(zip(a, b, w)):
        one = integrate_singular(lambda x: (bk - x) ** -0.4 * np.exp(1j * wk * x),
                                 ak, bk, spec, 1e-11)
        assert batch.value[k] == one.value
        assert batch.error_estimate[k] == one.error_estimate
        total += one.evaluations
    # a batch counts the evaluations of all its members
    assert batch.evaluations == total


def test_lockstep_members_equal_their_one_member_calls():
    _check_members_equal_their_one_member_calls(NARROW)


def test_wide_lockstep_members_equal_their_one_member_calls():
    _check_members_equal_their_one_member_calls(WIDE)


def _special_members(n, seed=26):
    """(integrand, a, b) of n members: one of each case the bookkeeping must
    get right, then seeded e^(i w x) members, most of which converge with
    4 to 7 panels, where a complex np.sum no longer adds in order."""
    rng = np.random.default_rng(seed)
    rows = [
        (lambda x: 0j * x, 0.0, 1.0),
        # resasc == 0, and |K - G| is not
        (lambda x: (1.0 + 1.0j) + 0.0 * x, 0.0, 1.0),
        # resabs below the floor of the error estimate
        (lambda x: 1e-300 * np.exp(1j * x), 0.0, 1.0),
        # four ulps wide: the panels freeze at float resolution
        (lambda x: 1e8 * np.exp(1e17j * x), 1.0, 1.0 + 4.0 * np.spacing(1.0)),
        # opposite steps on the halves of [0, 2]: their panels have equal
        # errors and opposite values, so the lowest seq decides which half
        # is refined last before the member converges, and the sign of
        # its value
        (lambda x: 3.2 * np.where(x < 1.0, 1.0, -1.0) * (np.mod(x, 1.0) < 0.8) + 0j * x,
         0.0, 2.0),
    ]
    while len(rows) < n:
        w = rng.uniform(10.0, 40.0) + 1j * rng.uniform(-2.0, 2.0)
        a = rng.uniform(-1.0, 0.5)
        rows.append((lambda x, w=w: np.exp(1j * w * x), a, a + rng.uniform(0.5, 1.5)))
    return rows[:n]


def _lockstep(rows, dtype):
    """The lockstep form of the scalar integrands rows[k][0]: each sees
    only its own rows of x."""
    def family(members, x):
        y = np.empty(x.shape, dtype)
        for k in np.unique(members).tolist():
            at = members == k
            y[at] = rows[k][0](x[at])
        return y

    return family


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [NARROW, WIDE])
def test_lockstep_special_members_equal_their_one_member_calls(n, dtype):
    rows = _special_members(n)
    if dtype is float:
        rows = [(lambda x, g=g: g(x).real, a, b) for g, a, b in rows]
    a, b = np.array([r[1] for r in rows]), np.array([r[2] for r in rows])
    batch = _heap(_lockstep(rows, dtype), a, b, 1e-10, 1 << 16)
    assert batch.value.dtype == dtype
    for k, (g, ak, bk) in enumerate(rows):
        one = integrate(g, ak, bk, 1e-10)
        assert batch.value[k] == one.value
        assert batch.error_estimate[k] == one.error_estimate
        assert batch.evaluations[k] == one.evaluations
    # the frozen member's four ulps hold four panels
    assert batch.evaluations[3] == 15 + 3 * 30


def test_lockstep_integrand_gets_one_row_per_panel():
    seen = []
    c = np.array([10.0, 20.0, 30.0])

    def family(members, x):
        seen.append((members.copy(), x.shape))
        return np.sin(c[members, None] * x) ** 2

    b = np.array([1.0, 2.0, 3.0])
    res = integrate(family, 0.0, b, 1e-10)
    assert np.allclose(res.value, b / 2.0 - np.sin(2.0 * c * b) / (4.0 * c),
                       rtol=0.0, atol=1e-9)
    # the first call has one panel per member, later calls both halves of
    # every split panel, and one call serves the splits of all members
    assert seen[0][1] == (3, 15) and list(seen[0][0]) == [0, 1, 2]
    assert all(shape == (members.size, 15) and members.size % 2 == 0
               for members, shape in seen[1:])
    splits = (res.evaluations - 3 * 15) // 30
    assert len(seen) - 1 < splits


def _check_member_without_convergence_raises_its_partial(n):
    # members 1 and n - 1 cannot converge; the first of them raises
    def family(members, x):
        bad = (members[:, None] == 1) | (members[:, None] == n - 1)
        return np.where(bad, 1.0 / x, np.cos(x))

    with pytest.raises(QuadratureError, match="member 1: no convergence") as info:
        integrate(family, np.zeros(n), np.ones(n), 1e-10, panel_cap=64)
    with pytest.raises(QuadratureError) as alone:
        integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-10, panel_cap=64)
    assert info.value.member == 1
    assert info.value.result == alone.value.result


def test_lockstep_member_without_convergence_raises_its_partial():
    _check_member_without_convergence_raises_its_partial(3)


def test_wide_lockstep_member_without_convergence_raises_its_partial():
    _check_member_without_convergence_raises_its_partial(WIDE)


def _check_member_turning_nonfinite_raises_its_partial(n):
    # the members are finite on their first panel; the centre of a refined
    # panel hits the bad point of members 2 and n - 1, and the first raises
    def rough(x):
        return np.where(x == 0.25, np.inf, np.sin(40.0 * x))

    def family(members, x):
        bad = (members[:, None] == 2) | (members[:, None] == n - 1)
        return np.where(bad, rough(x), np.cos(x))

    match = r"member 2: integrand not finite on panel \[0, 0.5\]"
    with pytest.raises(QuadratureError, match=match) as info:
        integrate(family, np.zeros(n), np.ones(n), 1e-10)
    with pytest.raises(QuadratureError) as alone:
        integrate(rough, 0.0, 1.0, 1e-10)
    assert isinstance(info.value.result, QuadResult)
    assert info.value.member == 2
    assert info.value.result == alone.value.result


def test_lockstep_member_turning_nonfinite_raises_its_partial():
    _check_member_turning_nonfinite_raises_its_partial(3)


def test_wide_lockstep_member_turning_nonfinite_raises_its_partial():
    _check_member_turning_nonfinite_raises_its_partial(WIDE)


def test_lockstep_bounds_validation():
    with pytest.raises(ValueError):
        integrate(lambda k, x: x, np.zeros((2, 2)), 1.0, 1e-8)
    with pytest.raises(ValueError):
        integrate(lambda k, x: x, np.zeros(2), np.array([1.0, 0.0]), 1e-8)
    with pytest.raises(QuadratureError, match="shape"):
        integrate(lambda k, x: x[:, :3], np.zeros(2), np.ones(2), 1e-8)


# ---------------------------------------------------------------------------
# near singularity outside the left end (sinh substitution)
# ---------------------------------------------------------------------------

_DISTANCES = tuple(10.0 ** np.arange(-12, 2))


def _near_rows(d):
    """1/sqrt(d^2 + x^2) and d/(d^2 + x^2), with their integrals over
    [0, b]: asinh(b/d) and atan(b/d)."""
    rows = (lambda x: 1.0 / np.sqrt(d * d + x * x), lambda x: d / (d * d + x * x))
    return rows, (lambda b: np.arcsinh(b / d), lambda b: np.arctan(b / d))


@pytest.mark.parametrize("d", _DISTANCES)
def test_near_singularity_closed_forms(d):
    tol = 1e-12
    spec = SingularitySpec(left_distance=d)
    rows, integrals = _near_rows(d)
    b = np.array([0.25, 1.0, 4.0])
    for j, (row, integral) in enumerate(zip(rows, integrals)):
        one = integrate_singular(row, 0.0, 1.0, spec, tol)
        assert one.singular_flags == (True, False)
        batch = integrate_singular(lambda members, x: row(x), 0.0, b, spec, tol)
        for got, want in ((one.value, integral(1.0)), *zip(batch.value, integral(b))):
            assert abs(got - want) <= tol * max(1.0, abs(want)), (d, j, got, want)


def test_near_singularity_members_equal_their_one_member_calls():
    # a spike at distance 1e-9 outside the left end 0, times a member's own
    # oscillation, on a member's own interval [0, b]; the left end is 0
    # because the integrand sees x = a + delta sinh(u) rounded, so x - a
    # keeps only the digits of delta that |a| leaves
    a, b, w = _seeded_members()
    b = b - a
    d = 1e-9
    spec = SingularitySpec(left_distance=d)

    def row(wk, x):
        return np.exp(1j * wk * x) / np.sqrt(d * d + x * x)

    batch = integrate_singular(
        lambda members, x: row(w[members, None], x), 0.0, b, spec, 1e-11)
    assert batch.singular_flags == (True, False)
    total = 0
    for k, (bk, wk) in enumerate(zip(b, w)):
        one = integrate_singular(lambda x: row(wk, x), 0.0, bk, spec, 1e-11)
        assert batch.value[k] == one.value
        assert batch.error_estimate[k] == one.error_estimate
        total += one.evaluations
    assert batch.evaluations == total


def test_near_singularity_with_declared_right_end():
    # the interval is split at its midpoint: sinh map on the left half,
    # power substitution on the right half
    d = 1e-8
    spec = SingularitySpec(right_exponent=-0.5, left_distance=d)
    res = integrate_singular(lambda x: d / (d * d + x * x) + (1.0 - x) ** -0.5,
                             0.0, 1.0, spec, 1e-12)
    assert res.singular_flags == (True, True)
    assert res.value == pytest.approx(math.atan(1.0 / d) + 2.0, rel=1e-12)


@pytest.mark.parametrize("right", [None, -0.5])
def test_near_singularity_array_distances_equal_their_one_member_calls(right):
    # each member its own spike distance, alone and with a declared right
    # end: a member's value, error and evaluations are those of its
    # one-member call with the scalar distance, bit for bit
    a, b, w = _seeded_members()
    b = b - a
    d = 10.0 ** np.linspace(-11.0, -1.0, b.size)

    def row(dk, wk, bk, x):
        y = np.exp(1j * wk * x) / np.sqrt(dk * dk + x * x)
        return y if right is None else y * (bk - x) ** right

    batch = integrate_singular(
        lambda k, x: row(d[k, None], w[k, None], b[k, None], x), 0.0, b,
        SingularitySpec(right_exponent=right, left_distance=d), 1e-11)
    assert batch.singular_flags == (True, right is not None)
    total = 0
    for k, (dk, wk, bk) in enumerate(zip(d, w, b)):
        one = integrate_singular(
            lambda x: row(dk, wk, bk, x), 0.0, bk,
            SingularitySpec(right_exponent=right, left_distance=float(dk)), 1e-11)
        members = integrate_singular(
            lambda k, x: row(dk, wk, bk, x), 0.0, np.array([bk]),
            SingularitySpec(right_exponent=right, left_distance=np.array([dk])), 1e-11)
        assert batch.value[k] == one.value == members.value[0]
        assert batch.error_estimate[k] == one.error_estimate
        assert members.evaluations == one.evaluations
        total += one.evaluations
    assert batch.evaluations == total


def test_near_singularity_validation():
    for d in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="distance"):
            SingularitySpec(left_distance=d)
        with pytest.raises(ValueError, match="distance"):
            SingularitySpec(left_distance=np.array([1e-3, d, 1.0]))
    with pytest.raises(ValueError, match="1-d array"):
        SingularitySpec(left_distance=np.full((2, 2), 1e-3))
    # one member whose (b - a)/delta overflows
    with pytest.raises(ValueError, match="distance 4.94066e-324 is too small"):
        integrate_singular(lambda k, x: np.cos(x), 0.0, np.ones(3),
                           SingularitySpec(left_distance=np.array([1e-3, 5e-324, 1.0])),
                           1e-8)
    with pytest.raises(ValueError, match="exclude"):
        SingularitySpec(left_exponent=-0.5, left_distance=1e-3)
    # a distance so small that (b - a)/delta overflows
    with pytest.raises(ValueError, match="too small"):
        integrate_singular(np.cos, 0.0, 1.0, SingularitySpec(left_distance=5e-324), 1e-8)


def test_singularity_spec_compares_and_hashes_by_value():
    # an array distance is kept as a tuple of floats, a scalar as a float
    d = np.array([1e-3, 0.5])
    spec = SingularitySpec(right_exponent=-0.5, left_distance=d)
    assert spec.left_distance == (1e-3, 0.5)
    same = SingularitySpec(right_exponent=-0.5, left_distance=[1e-3, 0.5])
    assert spec == same and hash(spec) == hash(same)
    assert spec != SingularitySpec(right_exponent=-0.5, left_distance=d[::-1])
    assert spec != SingularitySpec(right_exponent=-0.5, left_distance=1e-3)
    scalar = SingularitySpec(left_distance=np.float64(0.5))
    assert type(scalar.left_distance) is float
    assert len({spec, same, scalar, SingularitySpec(left_distance=0.5)}) == 2


def test_halfline_error_names_the_failing_half():
    # f = 1/x is not O(x^-2): the refinement reaches u = 1, where the mapped
    # integrand is not finite; both halves of that split panel share one
    # call, and the error names the half that reached u = 1
    calls = []

    def f(x):
        calls.append(x)
        return 1.0 / x

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError, match="O\\(x\\^-2\\)") as info:
            integrate_halfline(f, 1.0, 1e-10)
    assert isinstance(info.value.result, QuadResult)
    named = float(re.search(r"x in \[(\S+), inf\]", str(info.value)).group(1))
    halves = calls[-1].reshape(-1, 15)
    assert halves.shape[0] == 2
    failing = np.isinf(halves).any(axis=1)
    assert failing.sum() == 1
    assert named == float(f"{halves[failing].min():g}")
    assert named != float(f"{halves[~failing].min():g}")
