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
polynomial (tail_bound == 0) is its boundary mean M_p(1, f): Parseval's sum
at p = 2 (as at every radius), else a trapezoid rule on the roots of unity
that a zero-padded FFT evaluates. The swept means of a series at p != 2
double their trapezoid rules from |f|^2, a real trigonometric polynomial
whose coefficients are the autocorrelation of a_k r^k: one real inverse FFT
per doubling, except on a circle that passes near a zero of f, which keeps
the complex FFT. The radii whose ladder has not converged at its largest
rule are the members of one lockstep adaptive integration in the angle.
"""

import math

import numpy as np

from .catalog import (Kind, TestFunction, CoefficientSeries, eval as cat_eval,
                      eval_series, derivative_series, _eval_log)
from .quadrature import (QuadratureError, SingularitySpec, integrate,
                         integrate_singular)
from .specfun import log_weight
from .supsearch import (SupResult, pointwise, supremum_unit, unit_grid,
                        AT_ZERO, AT_BOUNDARY_LIMIT)

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
    """Tolerance of the circle means inside a radial search to tol, which
    must be positive and finite."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol {tol} must be positive and finite")
    return max(0.1 * tol, 1e-13)


def _circle_pair(r, theta):
    """The points z = r e^{i theta} and 1 - z, the latter as (1-r) +
    2 r sin^2(theta/2) - i r sin(theta), free of cancellation near z = 1."""
    return (r * np.exp(1j * theta),
            (1.0 - r) + 2.0 * r * np.sin(0.5 * theta) ** 2 - 1j * r * np.sin(theta))


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
    res = integrate_singular(lambda k, theta: power(rk[k], theta),
                             np.zeros(r.size), np.full(r.size, top),
                             SingularitySpec(left_distance=(1.0 - r) / np.sqrt(r)),
                             tol)
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
    cheapest sound route. A series takes all radii in one Parseval sum (p =
    2), one FFT pass per trapezoid level (other p finite) or one
    circle-maximum pass (p = inf); a non-constant catalog function with p
    finite takes them in one lockstep integration with the spike at theta =
    0 declared (_catalog_means); a catalog maximum (p = inf) and a
    constant's every mean are |f(r)|, as the catalog's nonnegative
    coefficients put the maximum on the positive axis. A catalog function's
    |f(r)| is taken per radius in scalar arithmetic, as the one-radius
    objective rounds it (np.log over an array rounds differently); the
    weight is log_weight of the radii, whose float route has the bits of
    its array route."""
    if isinstance(f, CoefficientSeries):
        def means(rs):
            if p == math.inf:
                return _series_maxima(f.coeffs, rs)
            return _series_means(f.coeffs, rs, p, inner_tol)
    elif isinstance(f, TestFunction):
        if p == math.inf or f.kind is Kind.CONSTANT:
            means = pointwise(lambda r: abs(cat_eval(f, r)))
        else:
            means = _catalog_means(f, p, inner_tol)
    else:
        raise TypeError("expected a TestFunction or CoefficientSeries")
    if not log_weighted:
        return means
    return lambda rs: means(rs) / log_weight(rs)


# Trapezoid rules of the swept series means run in blocks of at most this
# many points, so the FFT work arrays stay near 1 MB; the complex trapezoid
# rules (_trapezoid_means) in blocks of at most _TRAPEZOID_BLOCK_POINTS (one
# row, if a row has more), so that each work array stays under 128 KB,
# glibc's first mmap threshold, which a freed larger one would raise.
_BLOCK_POINTS = 1 << 16
_TRAPEZOID_BLOCK_POINTS = 1 << 12
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
    step = max(1, _TRAPEZOID_BLOCK_POINTS // n)
    for i in range(0, rows.shape[0], step):
        modulus = np.abs(np.fft.fft(rows[i:i + step] * turn, n, axis=1))
        if p != 1.0:
            modulus **= p
        # sum / n is np.mean's arithmetic without its call overhead
        out[i:i + step] = modulus.sum(axis=1) / n
    return out if means is None else 0.5 * (means + out)


def _normalized(coeffs, p):
    """(coeffs / m, m, m^-p) for m = max |a_k| (1 for the zero series), as
    hypot scales, so that |f/m|^p (and |f/m|^2) neither underflows nor
    overflows; m^-p (at most e^707) is the stop rules' max(1, mean) in
    units of |f/m|^p."""
    m = float(np.abs(coeffs).max(initial=0.0)) or 1.0
    return coeffs / m, m, math.exp(min(-p * math.log(m), 707.0))


# A doubling of a swept series mean takes the complex FFT instead of the
# real one for a row whose |f|^2 falls below this fraction of its mean at a
# new point: |f| taken from |f|^2 has lost relative digits there.
_NEAR_ZERO = 1e-6


def _autocorrelations(coeffs, rs, n, p):
    """(means, corr) for the first level of a swept trapezoid ladder on the
    rows a_k r^k of the radii rs, each block of rows built as it is
    transformed: means is _trapezoid_means(rows, n, p), bit for bit, and
    corr holds each row's autocorrelation c_j = sum_k a_{k+j} conj(a_k),
    0 <= j < K, the coefficients of the real trigonometric polynomial
    |f(e^{i theta})|^2 = sum_{|j| < K} c_j e^{ij theta} (c_{-j} =
    conj(c_j)). They are read off the squared modulus at the n points by one
    real FFT, which aliases none of them for rows of K coefficients when n
    >= 2K - 1."""
    powers = np.arange(coeffs.size)
    means, corr = np.empty(rs.size), np.empty((rs.size, coeffs.size), dtype=complex)
    step = max(1, _BLOCK_POINTS // n)
    for i in range(0, rs.size, step):
        rows = coeffs * rs[i:i + step, None] ** powers
        modulus = np.abs(np.fft.fft(rows, n, axis=1))
        means[i:i + step] = (modulus ** p).sum(axis=1) / n
        modulus *= modulus
        corr[i:i + step] = np.fft.rfft(modulus, axis=1,
                                       norm="forward")[:, :coeffs.size].conj()
    return means, corr


def _real_midpoint_means(corr, live, n, p, means):
    """The midpoint step of _trapezoid_means for the rows live, from their
    autocorrelations corr[live] (_autocorrelations): |f|^2 at the n new
    points e^{i pi (2m+1)/n} is one real inverse FFT of c_j e^{i pi j/n}
    per row, about half the work of the complex FFT of the turned row.
    Given the rows' n-point means, returns their 2n-point means and the
    mask of the rows near a zero, whose |f|^2 falls below _NEAR_ZERO c_0 at
    a new point: their means are to be replaced by the complex step."""
    turn = np.exp(1j * np.pi / n * np.arange(corr.shape[1]))
    out, near = np.empty(live.size), np.empty(live.size, dtype=bool)
    step = max(1, _BLOCK_POINTS // n)
    for i in range(0, live.size, step):
        block = corr[live[i:i + step]]
        squares = np.fft.irfft(block * turn, n, axis=1, norm="forward")
        near[i:i + step] = squares.min(axis=1) < _NEAR_ZERO * block[:, 0].real
        # rounding can take a near row's |f|^2 below 0; its mean is replaced
        np.maximum(squares, 0.0, out=squares)
        if p == 1.0:
            np.sqrt(squares, out=squares)
        else:
            np.power(squares, 0.5 * p, out=squares)
        out[i:i + step] = squares.sum(axis=1) / n
    return 0.5 * (means + out), near


def _series_means(coeffs, rs, p, inner_tol):
    """M_p(r, f) at every radius of rs for the polynomial with these
    coefficients (p finite), scaled by m = max |a_k| (_normalized) at every
    p, as the ladder squares |f|. At p = 2 it is Parseval's sum, M_2(r, f)^2
    = sum |a_k|^2 r^2k, by Horner in r^2. Every other p takes a trapezoid
    ladder: the circle of radius r carries the polynomial with coefficients
    a_k r^k, so the first level is one n-point FFT per radius, which also
    gives the autocorrelation of the row (_autocorrelations). Each doubling
    evaluates only the n new points, by the midpoint step of
    _trapezoid_means (sums of halves, within a few ulps of the full rule),
    from |f|^2 by one real inverse FFT per radius (_real_midpoint_means); a
    radius whose |f|^2 falls below _NEAR_ZERO times its mean at a new point
    takes that level's complex FFT of its turned row instead, as |f| taken
    from a tiny |f|^2 has lost relative digits. n starts where
    _boundary_norms starts and doubles for the radii still live; a radius
    stops after two consecutive doublings that each move its mean of |f|^p
    by at most inner_tol * max(1, mean). Radii still live after the level
    at max(2^14, 4 n0) points, which leaves the rule room for three levels,
    are the members of one lockstep adaptive integration of |f(r e^{i
    theta})|^p over [0, 2 pi], each member with the bits of its one-radius
    integration."""
    rs = np.asarray(rs, dtype=float)
    if not coeffs.size:  # the zero function, which has no autocorrelation
        return np.zeros(rs.size)
    coeffs, m, floor = _normalized(coeffs, p)
    if p == 2.0:
        total, r2 = np.zeros(rs.size), rs * rs
        for b in (np.abs(coeffs[::-1]) ** 2).tolist():
            total = total * r2 + b
        return m * np.sqrt(total)
    n = 1 << max(6, (2 * coeffs.size - 1).bit_length())
    n_max = max(_TRAPEZOID_MAX_POINTS, 4 * n)
    means, corr = _autocorrelations(coeffs, rs, n, p)
    agreed = np.zeros(rs.size, dtype=int)
    live = np.arange(rs.size)
    while live.size and n < n_max:
        new, near = _real_midpoint_means(corr, live, n, p, means[live])
        if near.any():
            turned = live[near]
            new[near] = _trapezoid_means(
                coeffs * rs[turned, None] ** np.arange(coeffs.size), n, p,
                means[turned])
        n *= 2
        ok = np.abs(new - means[live]) <= inner_tol * np.maximum(floor, new)
        agreed[live] = np.where(ok, agreed[live] + 1, 0)
        means[live] = new
        live = live[agreed[live] < 2]
    out = m * means ** (1.0 / p)
    if live.size:
        # one lockstep integration in the angle, the p-th roots per radius
        # in scalar arithmetic
        rk = rs[live, None]
        res = integrate(
            lambda k, theta: np.abs(np.polynomial.polynomial.polyval(
                rk[k] * np.exp(1j * theta), coeffs)) ** p,
            0.0, np.full(live.size, 2.0 * np.pi), inner_tol)
        out[live] = [m * (v / (2.0 * np.pi)) ** (1.0 / p) for v in res.value.tolist()]
    return out


def _series_maxima(coeffs, rs):
    """M_inf(r, f) at every radius of rs for the polynomial with these
    coefficients. |f(r e^{2 pi i j / n})| is one unscaled inverse FFT of
    a_k r^k per radius (n: 4096, or more for a longer series), in blocks of
    radii. The grid maximum of each circle is refined around its top three
    local maxima by 4 Newton steps on theta for g = |f(r e^{i theta})|^2,
    every peak of every circle in lockstep: a step is taken only where
    g'' < 0 and is clipped to one grid spacing h around its grid point, and
    the refined value counts only where it beats the grid's."""
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
    theta0, h = 2.0 * np.pi * np.concatenate(peaks) / n, 2.0 * np.pi / n
    # Newton on g = |F|^2, F(theta) = f(z) / m at z = r e^{i theta}, m the
    # circle's grid maximum, which keeps the products in range at every
    # scale of the coefficients: F' = i z f'/m and F'' = -(z f' + z^2 f'')/m
    # give g'/2 = -Im(conj(F) z f'/m), g''/2 = |z f'/m|^2 + Re(conj(F) F'')
    m = np.where(best[k] > 0.0, best[k], 1.0)
    polyval, polyder = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    d1, d2 = polyder(coeffs), polyder(coeffs, 2)
    theta = theta0
    for _ in range(4):
        z = rs[k] * np.exp(1j * theta)
        f, zf1 = polyval(z, coeffs) / m, z * polyval(z, d1) / m
        g1 = -np.imag(np.conj(f) * zf1)
        g2 = np.abs(zf1) ** 2 - np.real(np.conj(f) * (zf1 + z * z * polyval(z, d2) / m))
        newton = np.divide(g1, g2, out=np.zeros_like(g1), where=g2 < 0.0)
        theta = np.clip(theta - newton, theta0 - h, theta0 + h)
    refined = np.abs(polyval(rs[k] * np.exp(1j * theta), coeffs))
    np.maximum.at(best, k, refined)
    return best


# Largest trapezoid rule of the boundary mean: a polynomial whose zeros keep
# away from the unit circle converges long before it.
_BOUNDARY_MAX_POINTS = 1 << 20
# The radius the sweep reports for a supremum in the boundary limit.
_LAST_RADIUS = float(unit_grid()[1][-1])


def _boundary_norms(series, p, inner_tol):
    """{member: M_p(1, f)} for the polynomials of the dict {member:
    coefficients}, each shaped like the sweep's result. At p = 2 it is
    Parseval's sqrt(sum |a_k|^2), with the rounding bound (size + 1) eps
    value as its error estimate. Every other p takes the mean of |f/m|^p (m
    as in _normalized) over the n-th roots of unity, one zero-padded FFT;
    n doubles until two consecutive doublings each move the mean of |f|^p
    by at most inner_tol * max(1, mean) (a single agreement can be a
    chance crossing of two error terms). Each doubling is one more complex n-point FFT, by the
    midpoint step of _trapezoid_means (sums of halves, within a few ulps of
    the full 2n-point rule): a single circle is too little work for the
    real route of the swept means to pay. The series that start at the
    same n climb the ladder together, the rows of one zero-padded table
    that each doubling transforms in one _trapezoid_means call, and leave
    it as they converge; every row keeps the bits of its own ladder. A
    series not converged at 2^20 points raises QuadratureError with its
    member and its last mean."""
    out, ladders = {}, {}
    for member, coeffs in series.items():
        if not coeffs[1:].any():
            # constant: a flat objective, which the sweep ties to r = 0
            out[member] = SupResult(abs(complex(coeffs[0])) if coeffs.size else 0.0,
                                    0.0, AT_ZERO, 0.0)
        elif p == 2.0:
            value = float(_series_means(coeffs, np.ones(1), p, inner_tol)[0])
            out[member] = SupResult(value, _LAST_RADIUS, AT_BOUNDARY_LIMIT,
                                    (coeffs.size + 1) * _EPS * value)
        else:
            n = 1 << max(6, (2 * coeffs.size - 1).bit_length())
            ladders.setdefault(n, []).append(
                (member,) + _normalized(coeffs, p))
    for n, ladder in ladders.items():
        # the rows of table and the entries of the sequences beside it are
        # the series still on the ladder; the stop rule runs per row in
        # scalar arithmetic, as a one-series ladder takes it
        members, rows, ms, floors = zip(*ladder)
        table = np.zeros((len(rows), max(row.size for row in rows)), dtype=complex)
        for j, row in enumerate(rows):
            table[j, :row.size] = row
        agreed, last = [0] * len(rows), [math.inf] * len(rows)
        means = _trapezoid_means(table, n, p)
        while True:
            if 2 * n > _BOUNDARY_MAX_POINTS:
                result = _boundary_result(ms[0], float(means[0]), last[0], p)
                raise QuadratureError(
                    f"boundary mean not converged at {n} points (last change "
                    f"{result.error_estimate:.3e})", result, members[0])
            new = _trapezoid_means(table, n, p, means)
            n *= 2
            last = means.tolist()
            for j, (before, after) in enumerate(zip(last, new.tolist())):
                close = abs(after - before) <= inner_tol * max(floors[j], after)
                agreed[j] = agreed[j] + 1 if close else 0
                if agreed[j] == 2:
                    out[members[j]] = _boundary_result(ms[j], after, before, p)
            means = new
            if 2 in agreed:
                keep = [j for j, count in enumerate(agreed) if count < 2]
                if not keep:
                    break
                table, means = table[keep], means[keep]
                members, ms, floors, agreed, last = (
                    [column[j] for j in keep]
                    for column in (members, ms, floors, agreed, last))
    return out


def _boundary_result(m, mean, last, p):
    """The boundary norm m mean^(1/p), the p-th roots in scalar arithmetic,
    with the change from the last mean as its error estimate."""
    return SupResult(m * mean ** (1.0 / p), _LAST_RADIUS, AT_BOUNDARY_LIMIT,
                     m * abs(mean ** (1.0 / p) - last ** (1.0 / p)))


def hardy_norm_details(f, p, log_weighted, tol):
    """Full search result for sup_r M_p(r, f)/weight(r)."""
    p = _validate_p(p)
    inner_tol = _inner_tol(tol)
    if (isinstance(f, CoefficientSeries) and f.tail_bound == 0.0
            and not log_weighted and p != math.inf):
        return _boundary_norms({0: f.coeffs}, p, inner_tol)[0]
    objective = _mean_objective(f, p, log_weighted, inner_tol)
    return supremum_unit(objective, tol)


def hardy_norm(f, p, log_weighted, tol):
    """sup over 0 <= r < 1 of the p-th integral mean of f on the circle of
    radius r, divided by 1 - 2 log(1-r) in the log-weighted variant.

    For an exact polynomial (a CoefficientSeries with tail_bound == 0),
    unweighted and with p finite, the means never decrease in r (Hardy's
    convexity theorem), so the norm is the boundary mean M_p(1, f) instead
    of the radial sweep: Parseval's sqrt(sum |a_k|^2) at p = 2, and at every
    other p a doubling FFT trapezoid rule, which raises QuadratureError if it
    has not converged at 2^20 points. Every other input is swept over the
    grid radii; for a non-constant catalog function with p finite, the
    means at all of them are one lockstep integration that declares the
    function's boundary spike (_catalog_means)."""
    return hardy_norm_details(f, p, log_weighted, tol).value


def _bloch_objective(deriv, alpha, log_weighted):
    """Radii -> (1-r^2)^alpha |f'| / weight(r), with |f'| given as
    deriv(r, 1-r^2), radius by radius in scalar arithmetic."""
    @pointwise
    def objective(r):
        om2 = (1.0 - r) * (1.0 + r)
        return om2 ** alpha * deriv(r, om2) / (log_weight(r) if log_weighted else 1.0)
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
    if not math.isfinite(c):
        raise ValueError(f"i_c requires a finite c, not {c}")
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
    exceed the second. The one-series case of _hardy_inequality_gaps."""
    return _hardy_inequality_gaps([s], tol)[0]


def _hardy_inequality_gaps(series, tol):
    """hardy_inequality_gap of each series of the list. The H^1 norms of the
    exact series (tail_bound == 0) are one boundary-mean ladder
    (_boundary_norms), whose QuadratureError names the list index of a
    series it did not converge; the others are swept one by one."""
    if not all(isinstance(s, CoefficientSeries) for s in series):
        raise TypeError("expected a CoefficientSeries")
    exact = _boundary_norms({i: s.coeffs for i, s in enumerate(series)
                             if s.tail_bound == 0.0}, 1.0, _inner_tol(tol))
    gaps = []
    for i, s in enumerate(series):
        n = np.arange(s.coeffs.size, dtype=float)
        lhs = float(np.sum(np.abs(s.coeffs) / (n + 1.0))) if s.coeffs.size else 0.0
        norm = exact[i].value if i in exact else hardy_norm(s, 1.0, False, tol)
        gaps.append((lhs, math.pi * norm))
    return gaps
