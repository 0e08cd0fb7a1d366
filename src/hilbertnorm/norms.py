"""Norm functionals on the unit disk.

Six families: the integral-mean norms H^p and their logarithmically weighted
variants H^p_log, and the alpha-Bloch seminorms/norms B^alpha and B^alpha_log,
together with the circular power means I_c and the two sides of the
coefficient inequality sum |a_n|/(n+1) <= pi * ||f||_{H^1}.

Every norm is a supremum over the radius. In general it is delegated to the
sup-search module; the objective at fixed radius is a circle mean, which
this module computes on its own circle helpers (or a
closed-form radial expression when the input certifies nonnegative
power-series coefficients, which makes |f(z)| <= f(|z|) along every circle).
Unbounded functionals surface as the sup-search divergence signal rather
than a value. One case needs no search: by Hardy's convexity theorem M_p(r, f)
is nondecreasing in r, so the unweighted H^p norm (p finite) of an exact
polynomial (tail_bound == 0) is its boundary mean M_p(1, f), a trapezoid rule
on the roots of unity that a zero-padded FFT evaluates.
"""

import math

import numpy as np

from .catalog import (Kind, TestFunction, CoefficientSeries, eval as cat_eval,
                      eval_series, derivative_series, _eval_log)
from .quadrature import (QuadratureError, SingularitySpec, integrate,
                         integrate_singular)
from .specfun import log_weight
from .supsearch import (SupResult, _golden_max, pointwise, supremum_unit,
                        unit_grid, AT_ZERO, AT_BOUNDARY_LIMIT)

__all__ = [
    "hardy_norm",
    "hardy_norm_details",
    "bloch_seminorm",
    "bloch_seminorm_details",
    "bloch_norm",
    "i_c",
    "hardy_inequality_gap",
]

_EPS = np.finfo(float).eps


def _validate_p(p):
    if p != math.inf and not p >= 1.0:
        raise ValueError("p must satisfy p >= 1 or p = inf")
    return float(p)


def _inner_tol(tol):
    """Tolerance of the circle means inside a radial search to tol."""
    return max(0.1 * tol, 1e-13)


def _weight_at(r, log_weighted):
    return float(log_weight(r)) if log_weighted else 1.0


def _circle_points(r, theta):
    """Points r e^{i theta}, kept strictly inside the unit disk.

    When r is within a few ulps of 1, rounding in the complex multiply can
    land a point exactly on (or outside) the unit circle; those points are
    pulled back onto |z| < 1, an inward shift of a few 1e-16 that is far
    below every quadrature tolerance."""
    pts = r * np.exp(1j * np.asarray(theta, dtype=float))
    mags = np.abs(pts)
    bad = mags >= 1.0
    if np.any(bad):
        pts = np.where(bad, pts * ((1.0 - 4.0 * _EPS) / np.where(bad, mags, 1.0)), pts)
    return pts


def _circle_pair(r, theta):
    """The points z = r e^{i theta} and 1 - z, the latter as (1-r) +
    2 r sin^2(theta/2) - i r sin(theta), free of cancellation near z = 1."""
    return (r * np.exp(1j * theta),
            (1.0 - r) + 2.0 * r * np.sin(0.5 * theta) ** 2 - 1j * r * np.sin(theta))


def _angular_mean(f, r, p, tol):
    """(mean of |f|^p on the circle of radius r)^(1/p) by adaptive
    quadrature in the angle: the fallback of the doubling trapezoid rules,
    for integrands with structure on an angular scale a uniform grid cannot
    afford (radii within ~1e-10 of the boundary)."""
    def g(t):
        return np.abs(np.asarray(f(_circle_points(r, t)))) ** p

    res = integrate(g, 0.0, 2.0 * np.pi, tol)
    return (float(np.real(res.value)) / (2.0 * np.pi)) ** (1.0 / p)


def _spiked_means(r, power, top, tol):
    """Means (1/top) int_0^top power(r, theta) dtheta at the radii of the
    1-d array r, 0 < r < 1, with the integrand values spent: (means,
    values). Every radius is a member of one lockstep integration;
    power(r, theta) gets the radii of its rows as a column.

    The integrand is taken to be a spike at theta = 0 of width delta =
    (1-r)/sqrt(r), such as a power of |1 - r e^{i theta}|, whose square
    (1-r)^2 + 4 r sin^2(theta/2) is about r (delta^2 + theta^2). It is
    declared as a near singularity at that distance, its own for each
    radius, whose sinh substitution integrates it as a smooth function at
    every r."""
    r = np.asarray(r, dtype=float)
    rk = r[:, None]
    dist = np.array([(1.0 - x) / math.sqrt(x) for x in r.tolist()])
    res = integrate_singular(lambda k, theta: power(rk[k], theta),
                             np.zeros(r.size), np.full(r.size, top),
                             SingularitySpec(left_distance=dist), tol)
    return res.value / top, res.evaluations


def _catalog_means(f, p, tol):
    """Radii -> M_p(r, f) for a non-constant catalog function, p finite: the
    radii r > 0 are one _spiked_means call, and r = 0 gives |f(0)|.

    Every kind is singular only at z = 1, and half-log and the Bloch
    extremal also at z = -1. The Hardy extremal's mean is over [0, pi], on
    the modulus |1 - z|^2 = (1-r)^2 + 4 r sin^2(theta/2) free of
    cancellation (as in i_c). Half-log and the Bloch extremal have real
    coefficients and are odd or even, so |f| is symmetric under theta ->
    -theta and theta -> pi - theta: their mean is over [0, pi/2], with the
    spike at z = -1 folded onto the one at theta = 0, and they take log(1-z)
    from 1-z free of cancellation (_circle_pair). Radii go in and means
    come out as arrays; the p-th roots are taken per radius in scalar
    arithmetic (supsearch.pointwise)."""
    if f.kind is Kind.HARDY_ALPHA_EXTREMAL:
        top, expo = math.pi, -0.5 * p * f.param

        def power(r, theta):
            s = np.sin(0.5 * theta)
            return ((1.0 - r) ** 2 + 4.0 * r * s * s) ** expo
    else:
        top = 0.5 * math.pi

        def power(r, theta):
            z, omz = _circle_pair(r, theta)
            return np.abs(_eval_log(f, z, np.log(omz))) ** p

    at_zero = abs(cat_eval(f, 0.0))
    root = pointwise(lambda m: m ** (1.0 / p))

    def means(rs):
        rs = np.asarray(rs, dtype=float)
        out = np.full(rs.size, at_zero)
        inside = rs > 0.0
        if inside.any():
            out[inside] = root(_spiked_means(rs[inside], power, top, tol)[0])
        return out

    return means


def _mean_objective(f, p, log_weighted, inner_tol):
    """Radii -> M_p(r, f) / weight(r), array in and array out, choosing the
    cheapest sound route. A series takes all radii in one FFT pass per
    trapezoid level (p finite) or in one circle-maximum pass (p = inf); a
    non-constant catalog function with p finite takes them in one lockstep
    integration with the spike at theta = 0 declared (_catalog_means); a
    catalog maximum (p = inf) and a constant's every mean are |f(r)|, as
    the catalog's nonnegative coefficients put the maximum on the positive
    axis. A catalog function's |f(r)| and weight are taken per radius in
    scalar arithmetic, as the one-radius objective rounds them (np.log over
    an array rounds differently)."""
    if isinstance(f, CoefficientSeries):
        def means(rs):
            if p == math.inf:
                return _series_maxima(f.coeffs, rs)
            return _series_means(f.coeffs, rs, p, inner_tol)

        weight = log_weight
    elif isinstance(f, TestFunction):
        if p == math.inf or f.kind is Kind.CONSTANT:
            means = pointwise(lambda r: abs(cat_eval(f, r)))
        else:
            means = _catalog_means(f, p, inner_tol)
        weight = pointwise(lambda r: float(log_weight(r)))
    else:
        raise TypeError("expected a TestFunction or CoefficientSeries")
    if not log_weighted:
        return means
    return lambda rs: means(rs) / weight(rs)


# Trapezoid rules of the swept series means run in blocks of at most this
# many points, so the FFT work arrays stay near 1 MB.
_BLOCK_POINTS = 1 << 16
# Largest trapezoid rule of a swept series mean before the angular
# fallback, and the angular grid of a series circle maximum.
_TRAPEZOID_MAX_POINTS = 1 << 14
_CIRCLE_MAX_GRID = 4096


def _trapezoid_means(rows, n, p, means=None):
    """Mean of |f|^p over the n-th roots of unity for the polynomial of each
    row, one zero-padded FFT per row. Given those n-point means, the
    midpoint step returns the 2n-point ones instead: it evaluates only the n
    new points, midway between the old, as the n-point rule on the rows
    turned by pi/n (a_k e^{i pi k/n}, block by block, so no turned copy of
    all rows is made), and averages that with the old means. These sums of
    halves stay within a few ulps of the direct 2n-point rule."""
    turn = (1.0 if means is None
            else np.exp(1j * np.pi / n * np.arange(rows.shape[1])))
    out = np.empty(rows.shape[0])
    step = max(1, _BLOCK_POINTS // n)
    for i in range(0, rows.shape[0], step):
        # sum / n is np.mean's arithmetic without its call overhead
        out[i:i + step] = (np.abs(np.fft.fft(rows[i:i + step] * turn, n, axis=1))
                           ** p).sum(axis=1) / n
    return out if means is None else 0.5 * (means + out)


def _series_means(coeffs, rs, p, inner_tol):
    """M_p(r, f) at every radius of rs for the polynomial with these
    coefficients (p finite). The circle of radius r carries the polynomial
    with coefficients a_k r^k, so the first trapezoid level is one n-point
    FFT per radius, and so is each doubling, by the midpoint step of
    _trapezoid_means (sums of halves, within a few ulps of the full rule).
    n starts where _boundary_norm starts and doubles for the radii still
    live; a radius stops after two consecutive doublings that each move its
    mean of |f|^p by at most inner_tol * max(1, mean). Radii still live
    after the level at max(2^14, 4 n0) points, which leaves the rule room
    for three levels, take adaptive quadrature in the angle
    (_angular_mean)."""
    rs = np.asarray(rs, dtype=float)
    rows = coeffs * rs[:, None] ** np.arange(coeffs.size)
    n = 1 << max(6, (2 * coeffs.size - 1).bit_length())
    n_max = max(_TRAPEZOID_MAX_POINTS, 4 * n)
    means = _trapezoid_means(rows, n, p)
    agreed = np.zeros(rs.size, dtype=int)
    live = np.arange(rs.size)
    while live.size and n < n_max:
        new = _trapezoid_means(rows[live], n, p, means[live])
        n *= 2
        ok = np.abs(new - means[live]) <= inner_tol * np.maximum(1.0, new)
        agreed[live] = np.where(ok, agreed[live] + 1, 0)
        means[live] = new
        live = live[agreed[live] < 2]
    out = means ** (1.0 / p)
    for i in live:
        out[i] = _angular_mean(
            lambda z: np.polynomial.polynomial.polyval(z, coeffs),
            rs[i], p, inner_tol)
    return out


def _series_maxima(coeffs, rs):
    """M_inf(r, f) at every radius of rs for the polynomial with these
    coefficients. |f(r e^{2 pi i j / n})| is one unscaled inverse FFT of
    a_k r^k per radius (n: 4096, or more for a longer series), in blocks of
    radii. The grid maximum of each circle is refined around its top three
    local maxima by golden section, every bracket of every circle in one
    lockstep search (supsearch._golden_max)."""
    rs = np.asarray(rs, dtype=float)
    if not coeffs.size:  # the zero function, which polyval cannot take
        return np.zeros(rs.size)
    rows = coeffs * rs[:, None] ** np.arange(coeffs.size)
    n = max(_CIRCLE_MAX_GRID, 1 << (coeffs.size - 1).bit_length())
    step = max(1, _BLOCK_POINTS // n)
    best, circles, peaks = [], [], []
    for start in range(0, rs.size, step):
        vals = np.abs(np.fft.ifft(rows[start:start + step], n, axis=1, norm="forward"))
        i, j = np.nonzero((vals >= np.roll(vals, 1, axis=1))
                          & (vals >= np.roll(vals, -1, axis=1)))
        # the local maxima of each circle in descending order; keep three
        order = np.lexsort((-vals[i, j], i))
        i, j = i[order], j[order]
        top = np.arange(i.size) - np.searchsorted(i, i) < 3
        circles.append(i[top] + start)
        peaks.append(j[top])
        best.append(np.max(vals, axis=1))
    best, k = np.concatenate(best), np.concatenate(circles)
    theta, h = 2.0 * np.pi * np.concatenate(peaks) / n, 2.0 * np.pi / n
    _, refined = _golden_max(lambda t, i: np.abs(np.polynomial.polynomial.polyval(
        _circle_points(rs[k[i]], t), coeffs)), theta - h, theta + h)
    np.maximum.at(best, k, refined)
    return best


# Largest trapezoid rule of the boundary mean: a polynomial whose zeros keep
# away from the unit circle converges long before it.
_BOUNDARY_MAX_POINTS = 1 << 20
# The radius the sweep reports for a supremum in the boundary limit.
_LAST_RADIUS = float(unit_grid()[1][-1])


def _boundary_norm(coeffs, p, inner_tol):
    """M_p(1, f) for the polynomial with these coefficients, shaped like the
    sweep's result. The mean of |f|^p over the n-th roots of unity is one
    zero-padded FFT; n doubles until two consecutive doublings each move it
    by at most inner_tol * max(1, mean) (a single agreement can be a chance
    crossing of two error terms). Each doubling is one more n-point FFT, by
    the midpoint step of _trapezoid_means (sums of halves, within a few ulps
    of the full 2n-point rule)."""
    if not np.any(coeffs[1:]):
        # constant: a flat objective, which the sweep ties to r = 0
        return SupResult(abs(complex(coeffs[0])) if coeffs.size else 0.0,
                         0.0, AT_ZERO, 0.0)
    n = 1 << max(6, (2 * coeffs.size - 1).bit_length())
    mean = float(_trapezoid_means(coeffs[None, :], n, p)[0])
    change, agreed = math.inf, 0
    while agreed < 2:
        if 2 * n > _BOUNDARY_MAX_POINTS:
            raise QuadratureError(
                f"boundary mean not converged at {n} points (last change "
                f"{change:.3e})", SupResult(mean ** (1.0 / p), _LAST_RADIUS,
                                            AT_BOUNDARY_LIMIT, change))
        new = float(_trapezoid_means(coeffs[None, :], n, p, mean)[0])
        n *= 2
        agreed = agreed + 1 if abs(new - mean) <= inner_tol * max(1.0, new) else 0
        change = abs(new ** (1.0 / p) - mean ** (1.0 / p))
        mean = new
    return SupResult(mean ** (1.0 / p), _LAST_RADIUS, AT_BOUNDARY_LIMIT, change)


def hardy_norm_details(f, p, log_weighted, tol):
    """Full search result for sup_r M_p(r, f)/weight(r)."""
    p = _validate_p(p)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol {tol} must be positive and finite")
    inner_tol = _inner_tol(tol)
    if (isinstance(f, CoefficientSeries) and f.tail_bound == 0.0
            and not log_weighted and p != math.inf):
        return _boundary_norm(f.coeffs, p, inner_tol)
    objective = _mean_objective(f, p, log_weighted, inner_tol)
    return supremum_unit(objective, tol)


def hardy_norm(f, p, log_weighted, tol):
    """sup over 0 <= r < 1 of the p-th integral mean of f on the circle of
    radius r, divided by 1 - 2 log(1-r) in the log-weighted variant.

    For an exact polynomial (a CoefficientSeries with tail_bound == 0),
    unweighted and with p finite, the means never decrease in r (Hardy's
    convexity theorem), so the norm is the boundary mean M_p(1, f), computed
    by a doubling FFT trapezoid rule instead of the radial sweep; it raises
    QuadratureError if that rule has not converged at 2^20 points. Every
    other input is swept over the grid radii; for a non-constant catalog
    function with p finite, the means at all of them are one lockstep
    integration that declares the function's boundary spike (_catalog_means)."""
    return hardy_norm_details(f, p, log_weighted, tol).value


def _bloch_objective(deriv, alpha, log_weighted):
    """Radii -> (1-r^2)^alpha |f'| / weight(r), with |f'| given as
    deriv(r, 1-r^2), radius by radius in scalar arithmetic."""
    @pointwise
    def objective(r):
        om2 = (1.0 - r) * (1.0 + r)
        return om2 ** alpha * deriv(r, om2) / _weight_at(r, log_weighted)
    return objective


def _catalog_derivative(f):
    """|f'(r)| as deriv(r, 1-r^2) in closed form for the non-constant catalog
    functions (all of which have nonnegative derivative coefficients)."""
    if f.kind is Kind.HALF_LOG:
        return lambda r, om2: 1.0 / om2  # f'(z) = 1/(1-z^2)
    a = f.param
    if f.kind is Kind.HARDY_ALPHA_EXTREMAL:
        return lambda r, om2: a * (1.0 - r) ** (-a - 1.0)  # a (1-z)^{-a-1}
    return lambda r, om2: r * om2 ** (-a)  # f'(z) = z (1-z^2)^{-a}


def bloch_seminorm_details(f, alpha, log_weighted, tol):
    """Full search result for sup over the disk of (1-|z|^2)^alpha |f'(z)| /
    weight(|z|)."""
    alpha = float(alpha)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol {tol} must be positive and finite")

    if isinstance(f, TestFunction):
        if f.kind is Kind.CONSTANT:
            return SupResult(0.0, 0.0, AT_ZERO, 0.0)
        return supremum_unit(
            _bloch_objective(_catalog_derivative(f), alpha, log_weighted), tol)

    if not isinstance(f, CoefficientSeries):
        raise TypeError("expected a TestFunction or CoefficientSeries")

    d = derivative_series(f)
    if d.coeffs.size == 0:
        return SupResult(0.0, 0.0, AT_ZERO, 0.0)

    certified = bool(np.all(d.coeffs.imag == 0.0) and np.all(d.coeffs.real >= 0.0))
    if certified:
        return supremum_unit(_bloch_objective(
            lambda r, om2: abs(eval_series(d, r)), alpha, log_weighted), tol)

    # No radial certificate: the circle maximum of |f'| at every radius.
    maxima = _mean_objective(d, math.inf, log_weighted, _inner_tol(tol))
    return supremum_unit(lambda rs: ((1.0 - rs) * (1.0 + rs)) ** alpha * maxima(rs),
                         tol)


def bloch_seminorm(f, alpha, log_weighted, tol):
    """sup over the disk of (1-|z|^2)^alpha |f'(z)|, divided by the log
    weight at |z| in the weighted variant."""
    return bloch_seminorm_details(f, alpha, log_weighted, tol).value


def bloch_norm(f, alpha, log_weighted, tol):
    """|f(0)| + the alpha-Bloch seminorm."""
    if isinstance(f, TestFunction):
        at_zero = abs(cat_eval(f, 0.0))
    elif isinstance(f, CoefficientSeries):
        at_zero = abs(complex(f.coeffs[0])) if f.coeffs.size else 0.0
    else:
        raise TypeError("expected a TestFunction or CoefficientSeries")
    return at_zero + bloch_seminorm(f, alpha, log_weighted, tol)


def i_c(c, r, tol):
    """Circular mean of |1 - r e^{i theta}|^{-(1+c)}: a float for a scalar
    r, an ndarray for a 1-d array r, whose radii r > 0 are the members of
    one lockstep integration over [0, pi] (r = 0 gives exactly 1).

    The modulus is built from |1 - re^{i theta}|^2 = (1-r)^2 +
    4 r sin^2(theta/2), which stays fully accurate when r is within a few
    ulps of 1 (forming the circle point itself would not)."""
    rs = np.asarray(r, dtype=float)
    if rs.ndim > 1 or not np.all((0.0 <= rs) & (rs < 1.0)):
        raise ValueError("i_c requires 0 <= r < 1, a scalar or a 1-d array")
    inside = rs.reshape(-1) > 0.0
    live = rs.reshape(-1)[inside].tolist()
    # (1-r)^2 and 4r per member as the scalar call rounds them, as columns
    omr2 = np.array([[(1.0 - x) ** 2] for x in live])
    four_r = np.array([[4.0 * x] for x in live])
    expo = -0.5 * (1.0 + float(c))

    def integrand(k, theta):
        s = np.sin(0.5 * theta)
        return (omr2[k] + four_r[k] * s * s) ** expo

    out = np.ones(rs.size)
    if live:
        out[inside] = integrate(integrand, 0.0, np.full(len(live), math.pi),
                                tol).value / math.pi
    return float(out[0]) if rs.ndim == 0 else out


def hardy_inequality_gap(s, tol):
    """The two sides of the coefficient inequality for an H^1 function:
    (sum_{n<N} |a_n|/(n+1), pi * ||s||_{H^1}). The first component can never
    exceed the second."""
    if not isinstance(s, CoefficientSeries):
        raise TypeError("expected a CoefficientSeries")
    n = np.arange(s.coeffs.size, dtype=float)
    lhs = float(np.sum(np.abs(s.coeffs) / (n + 1.0))) if s.coeffs.size else 0.0
    rhs = math.pi * hardy_norm(s, 1.0, False, tol)
    return lhs, rhs
