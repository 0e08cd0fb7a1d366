"""End-to-end verification checks for the integral-operator norm bounds.

Each check computes one of the package's headline quantities from scratch —
operator norms between weighted and log-weighted growth spaces, the
two-sided bounds for the power-weight family, the Hardy-space constants,
and the supporting circle-mean and Gamma-function identities — and compares
it against an independently derived target: a closed form, a second
quadrature route, or a proven enclosing interval.  Every check returns a
:class:`CheckReport`; :func:`run_all` executes the default suite in a fixed
order and never raises on a numerical failure (a non-convergent quadrature
is reported as a failed check instead).
"""

from __future__ import annotations

import dataclasses
import math
import types

import numpy as np

from .catalog import (
    DEFAULT_TRUNCATION,
    CoefficientSeries,
    Kind,
    TestFunction,
    eval_series,
    taylor_coeffs,
)
from .hilbertop import (
    _pole_distance,
    apply_integral,
    apply_matrix,
    derivative_at,
    derivative_at_pathshifted,
)
from .norms import (_circle_pair, _spiked_means, bloch_norm,
                    hardy_inequality_gap, hardy_norm, i_c)
from .quadrature import (
    QuadratureError,
    SingularitySpec,
    integrate,
    integrate_halfline,
    integrate_singular,
)
from .specfun import beta, dilog, gamma, log_weight, reflection_residual
from .supsearch import (AT_ZERO, DivergenceError, pointwise, supremum_halfline,
                        supremum_unit)

_LOG2 = math.log(2.0)

# The operator norms the checks certify (H1 -> H1_log as the bracket
# [pi, 2 pi]); the norm-summary table reads them from here.
BLOCH_LOG_NORM = 1.5
HINF_LOG_NORM = 1.0
H1_LOG_LOWER = math.pi
H1_LOG_UPPER = 2.0 * math.pi

DEFAULT_ALPHA_GRID = (1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9)

# Power weights alpha whose closed-form bounds L and U the suite evaluates;
# both degenerate at the ends of (1, 2).
ALPHA_WINDOW = (1.001, 1.999)


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``target`` is either a single value that ``computed`` must match to
    within ``tolerance``, or an inclusive ``(low, high)`` interval that must
    contain it; ``detail`` records the sub-facts the check established."""

    name: str
    computed: float
    target: float | tuple
    tolerance: float
    passed: bool
    detail: str


def _om2(r):
    # (1 - r^2) without cancellation for r near 1
    return (1.0 - r) * (1.0 + r)


def inner_tolerance(tol):
    """Tolerance of the integrals inside an objective sought to tol."""
    return max(1e-12, 0.01 * tol)


# ---------------------------------------------------------------------------
# objective functions shared with the CLI curve emitter
# ---------------------------------------------------------------------------

def _radial_average(integrand, r, spec, inner_tol):
    """int_0^1 integrand(k, t) dt for each radius r[k] of a 1-d array r, in
    one integration, or for a scalar r as its one-point case."""
    n = np.size(r)
    value = integrate_singular(
        integrand, np.zeros(n), np.ones(n), spec, inner_tol).value
    return value if np.ndim(r) else float(value[0])


def _kernel_average(r, inner_tol):
    """The average of the kernel t/((1-r)+tr) over t in [0, 1], for a
    scalar or 1-d array r."""
    rk = np.reshape(r, (-1, 1))
    return _radial_average(lambda k, t: t / ((1.0 - rk[k]) + t * rk[k]),
                           r, SingularitySpec(), inner_tol)


def _kernel_average_closed(r):
    """The kernel average in closed form: the series sum r^k/((k+1)(k+2))
    for r <= 1/2, where 1/r + ((1-r)/r^2) log(1-r) cancels toward r = 0,
    and that expression above."""
    if r > 0.5:
        return 1.0 / r + ((1.0 - r) / (r * r)) * math.log1p(-r)
    total = 0.0
    power = 1.0
    k = 0
    while power > 1e-17 * (k + 1) * (k + 2) * total:
        total += power / ((k + 1) * (k + 2))
        k += 1
        power *= r
    return total


def _half_log_average(r, inner_tol):
    """The kernel-weighted average of the composed half-log over t in [0, 1],
    for a scalar or 1-d array r; its integrand blows up like a half power at
    t = 1."""
    rk = np.reshape(r, (-1, 1))
    omr = 1.0 - rk
    opr = 1.0 + rk
    # math.log, not np.log: an array log rounds some values differently
    log_omr = np.vectorize(math.log)(omr)

    def integrand(k, t):
        kernel = t / (omr[k] + t * rk[k])
        return kernel * (np.log(omr[k] + t * opr[k]) - log_omr[k] - np.log1p(-t))

    return _radial_average(integrand, r, SingularitySpec(None, -0.5), inner_tol)


def _half_log_average_closed(r):
    """The half-log average in closed form through the dilogarithm, for
    0 < r < 1: with a = 1 - r and c = 1 + r it is t1 + t2 + t3, where
    t1 = ((2 log 2 - a log a)/c - 1)/r - (a/r^2) I with
    I = -(log c - log r) log a - (log a)^2/2 + Li2(a/c) - Li2(1/c),
    t2 = -log a (1/r + a log a / r^2) and t3 = 1/r - a Li2(r)/r^2.
    The terms cancel like 1/r^2 toward r = 0, so digits go as eps/r^2
    there; the radii a search visits start at r ~ 0.08. At r = 0 it is the
    limit int_0^1 t log((1+t)/(1-t)) dt = 1."""
    if r == 0.0:
        return 1.0
    a = 1.0 - r
    c = 1.0 + r
    log_a = math.log(a)
    big_i = (-(math.log(c) - math.log(r)) * log_a - 0.5 * log_a * log_a
             + dilog(a / c) - dilog(1.0 / c))
    t1 = ((2.0 * _LOG2 - a * log_a) / c - 1.0) / r - (a / (r * r)) * big_i
    t2 = -log_a * (1.0 / r + a * log_a / (r * r))
    t3 = 1.0 / r - a * dilog(r) / (r * r)
    return t1 + t2 + t3


def bloch_a_objective(inner_tol):
    """Radial objective whose supremum (plus one) is the constant-witness
    norm: (1+r)/weight(r) times the average of t/((1-r)+tr) over t. It maps
    a scalar or 1-d array of radii to its values, an array in one
    integration."""
    return lambda r: (1.0 + r) * _kernel_average(r, inner_tol) / log_weight(r)


def bloch_b_objective(inner_tol):
    """Radial objective whose supremum fixes the half-log witness constant:
    (1+r)/weight(r) times the kernel-weighted average of the composed
    logarithm. It maps a scalar or 1-d array of radii to its values, an
    array in one integration."""
    return lambda r: (1.0 + r) * _half_log_average(r, inner_tol) / log_weight(r)


@pointwise
def h1_sup_objective(x):
    """x e^x / ((e^x - 1)(1 + x)), evaluated stably; limits 1 at both ends."""
    if x == 0.0:
        return 1.0
    return x / (-math.expm1(-x) * (1.0 + x))


@pointwise
def hinf_sup_objective(x):
    """x e^x / ((e^x - 1)(2x + 1)), evaluated stably; limits (1, 1/2)."""
    if x == 0.0:
        return 1.0
    return x / (-math.expm1(-x) * (2.0 * x + 1.0))


@pointwise
def hinf_objective(r):
    """(1/r) log(1/(1-r)) / weight(r) with the removable value 1 at r = 0."""
    if r == 0.0:
        return 1.0
    return (-math.log1p(-r) / r) / log_weight(r)


def require_alpha_window(alpha):
    """Raise ValueError unless alpha lies in ALPHA_WINDOW."""
    lo, hi = ALPHA_WINDOW
    if not lo <= alpha <= hi:
        raise ValueError(
            f"alpha {alpha:g} outside the window [{lo:g}, {hi:g}]: both "
            "closed-form bounds degenerate at the window endpoints")


def _extremal_profile(alpha):
    """t -> (1-t^2)^(1-alpha), the integrand of the profile integral J."""
    return lambda t: np.exp((1.0 - alpha) * (np.log1p(-t) + np.log1p(t)))


def _lower_from_profile(j, alpha):
    """L(alpha) assembled from the profile integral J."""
    return (j / (2.0 * (alpha - 1.0))
            + (3.0 * alpha - 5.0) / (4.0 * (alpha - 1.0) * (2.0 - alpha)))


def alpha_bound_values(alpha):
    """Closed-form lower and upper norm bounds (L, U) for the power weight
    alpha in (1, 2): L from a Beta-function evaluation of the extremal
    profile integral, U from the reflection form pi/sin plus 1/(2-alpha)."""
    require_alpha_window(alpha)
    lower = _lower_from_profile(0.5 * beta(0.5, 2.0 - alpha), alpha)
    upper = math.pi / math.sin(math.pi * (alpha - 1.0)) + 1.0 / (2.0 - alpha)
    return lower, upper


def _image_log_bloch(fn, alpha, tol, inner_tol):
    """The log-weighted alpha-Bloch norm of Hf along the radius, |Hf(0)| +
    sup_r (1-r^2)^alpha |(Hf)'(r)| / weight(r) through the shifted-path
    derivative, and the search result for the supremum; the 256-radius grid
    is one call of the derivative's array route."""
    def objective(r):
        return (_om2(r) ** alpha
                * np.abs(derivative_at_pathshifted(fn, r, inner_tol))
                / log_weight(r))

    h0 = abs(apply_integral(fn, 0.0, inner_tol))
    sup = supremum_unit(objective, tol, n_grid=256)
    return h0 + sup.value, sup


# ---------------------------------------------------------------------------
# growth-space checks
# ---------------------------------------------------------------------------

def compute_A(tol):
    """Constant-witness norm constant: 1 + sup of the radial objective.

    The supremum is searched on the closed-form kernel average
    (:func:`_kernel_average_closed`); it is attained in the limit r -> 0
    with value 1/2, so the constant equals 3/2 exactly.  The quadrature
    average is cross-checked against the closed form at r = 0.25, 0.5,
    0.75 and 0.9, and against 2 - 2 log 2 at r = 1/2."""
    it = inner_tolerance(tol)
    sup = supremum_unit(pointwise(
        lambda r: (1.0 + r) * _kernel_average_closed(r) / log_weight(r)), tol)
    computed = 1.0 + sup.value

    radii = (0.25, 0.5, 0.75, 0.9)
    averages = _kernel_average(np.array(radii), it).tolist()
    cross = max(abs(q - _kernel_average_closed(r))
                for r, q in zip(radii, averages))
    mid = abs(averages[1] - (2.0 - 2.0 * _LOG2))
    passed = (
        abs(computed - BLOCH_LOG_NORM) <= tol
        and sup.boundary == AT_ZERO
        and cross <= 100.0 * it
        and mid <= 1e-9
    )
    detail = (
        f"supremum {sup.value:.12g} attained as r -> 0 ({sup.boundary}); "
        f"closed-form average cross-check max diff {cross:.2e}; "
        f"average at r=1/2 off 2-2log2 by {mid:.2e}"
    )
    return CheckReport("bloch-A-constant", computed, BLOCH_LOG_NORM, tol, passed, detail)


def compute_B(tol, a_report=None):
    """Half-log-witness norm constant B = log 2 + sup/2 of its objective.

    The supremum is searched on the closed-form half-log average
    (:func:`_half_log_average_closed`, through the dilogarithm); it peaks
    at an interior radius, r = 0.998063 (x* = -log(1 - r) = 6.24645 in the
    search coordinate).  The peak is flat in x, so only the bracket width
    stops the search there: two values within tol of each other can still
    straddle x* by a few 1e-3.  The quadrature average must agree with the
    closed form to 100 times the inner tolerance at the maximizer and at
    r = 0.25, 0.5, 0.75 and 0.9, all five in one integration.  B must land
    strictly inside (log 2, 2 log 2) and
    below the constant-witness value, taken from ``a_report`` (a finished
    :func:`compute_A` report at the same tol) or computed here when it is
    not given.  The quadrature objective stays below 2 log 2 at deep radii,
    and the inner integral at r = 1/2 is dominated by a half-line integral
    with the closed-form value (4/3) log 4, checked for equality."""
    it = inner_tolerance(tol)
    sup = supremum_unit(pointwise(
        lambda r: (1.0 + r) * _half_log_average_closed(r) / log_weight(r)), tol)
    computed = _LOG2 + 0.5 * sup.value
    x_star = -math.log1p(-sup.arg)

    radii = (sup.arg, 0.25, 0.5, 0.75, 0.9)
    averages = _half_log_average(np.array(radii), it).tolist()
    cross = max(abs(q - _half_log_average_closed(r))
                for r, q in zip(radii, averages))

    deep = bloch_b_objective(it)(
        np.array([1.0 - 10.0 ** (-k) for k in (12, 13, 14, 15)]))
    tail_ok = bool(np.all(_LOG2 + 0.5 * deep < 2.0 * _LOG2 + tol))

    r_half = 0.5

    def halfline_integrand(x):
        return (2.0 * (1.0 - r_half) * np.log(x)
                / ((1.0 + r_half) + (1.0 - r_half) * x) ** 2)

    half_val = float(integrate_halfline(halfline_integrand, 1.0, it).value)
    half_bound = (2.0 / (1.0 + r_half)) * math.log(2.0 / (1.0 - r_half))
    h_mid = averages[2]
    half_ok = (abs(half_val - half_bound) <= 1e-6
               and h_mid <= half_val + tol)

    if a_report is None:
        a_report = compute_A(tol)
    passed = (
        _LOG2 - tol <= computed <= 2.0 * _LOG2 + tol
        and cross <= 100.0 * it
        and tail_ok
        and half_ok
        and computed < a_report.computed
    )
    detail = (
        f"supremum {sup.value:.12g} at r = {sup.arg:.9g}, x* = {x_star:.9g} "
        f"({sup.boundary}); quadrature average off the closed form by at "
        f"most {cross:.2e} at x* and r = 0.25, 0.5, 0.75, 0.9; "
        f"deep-radius values stay below 2 log 2: {tail_ok}; half-line "
        f"dominating integral {half_val:.12g} matches (4/3) log 4 to "
        f"{abs(half_val - half_bound):.2e} and dominates the r=1/2 inner "
        f"integral {h_mid:.9g}; below constant-witness value "
        f"{a_report.computed:.9g}"
    )
    return CheckReport(
        "bloch-B-constant", computed, (_LOG2, 2.0 * _LOG2), tol, passed, detail)


def norm_bloch_to_blochlog(tol, a_report=None, b_report=None):
    """Operator norm from the growth space to its log-weighted image:
    max of the two witness constants, which equals 3/2.

    The constants come from ``a_report`` and ``b_report`` (finished
    :func:`compute_A` and :func:`compute_B` reports at the same tol), each
    computed here when it is not given.  Both witnesses are recomputed
    directly as |Hf(0)| plus the supremum of the log-weighted derivative
    objective along the radius, using the shifted-path derivative; they must
    reproduce the two constants."""
    if a_report is None:
        a_report = compute_A(tol)
    if b_report is None:
        b_report = compute_B(tol, a_report=a_report)
    it = inner_tolerance(tol)

    w1, _ = _image_log_bloch(TestFunction(Kind.CONSTANT), 1.0, tol, it)
    w2, _ = _image_log_bloch(TestFunction(Kind.HALF_LOG), 1.0, tol, it)
    computed = max(a_report.computed, b_report.computed)
    slack = 1e-4
    passed = (
        a_report.passed
        and b_report.passed
        and abs(computed - BLOCH_LOG_NORM) <= tol
        and BLOCH_LOG_NORM - slack <= w1 <= BLOCH_LOG_NORM + slack
        and b_report.computed - slack <= w2 <= BLOCH_LOG_NORM + slack
    )
    detail = (
        f"constant witness {w1:.12g} reaches the norm 3/2; half-log witness "
        f"{w2:.12g} reproduces the second constant {b_report.computed:.12g}; "
        f"norm = max of the two constants"
    )
    return CheckReport(
        "bloch-to-blochlog-norm", computed, BLOCH_LOG_NORM, tol, passed, detail)


# ---------------------------------------------------------------------------
# power-weight family checks
# ---------------------------------------------------------------------------

def alpha_lower_bound(alpha, tol):
    """Lower norm bound L(alpha) for the power weight, two ways, plus a
    direct ratio witness.

    L is assembled from the profile integral J = int (1-t^2)^(1-alpha) dt by
    quadrature and compared with the Beta-function closed form; the ratio
    ||Hf||/||f|| for the extremal f must land in [L - tol, U + 1e-4].  The
    derivative of Hf at 0 is checked against its exact value
    1/(4(2-alpha)), and the nonnegative Taylor coefficients of f certify
    that the radial search reaches the supremum over the disk."""
    require_alpha_window(alpha)
    it = inner_tolerance(min(tol, 1e-8))

    j_quad = float(integrate_singular(
        _extremal_profile(alpha), 0.0, 1.0, SingularitySpec(None, 1.0 - alpha),
        it).value)
    l_quad = _lower_from_profile(j_quad, alpha)
    l_closed, u_value = alpha_bound_values(alpha)

    fn = TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, alpha)
    image_norm, _ = _image_log_bloch(fn, alpha, tol, it)
    ratio = image_norm / bloch_norm(fn, alpha, False, tol)
    bracket_ok = (l_closed - tol <= ratio <= u_value + 1e-4)

    d_closed = 1.0 / (4.0 * (2.0 - alpha))
    lim0 = abs(derivative_at(fn, 0.0, it))
    lim_eps = abs(derivative_at(fn, 1e-6, it))
    limit_ok = (abs(lim0 - d_closed) <= 1e-6 * max(1.0, d_closed)
                and abs(lim_eps - d_closed) <= 1e-5 * max(1.0, d_closed))

    # These coefficients of f are nonnegative, and so is every later one (the
    # recurrence ratio (m+alpha-1)/(m+1) > 0 keeps its sign).  H has positive
    # entries 1/(n+k+1), so (Hf)' has nonnegative coefficients as well and
    # |(Hf)'(z)| <= (Hf)'(|z|): for any alpha the radial supremum is the disk's.
    a = taylor_coeffs(fn, DEFAULT_TRUNCATION).coeffs
    radial_ok = bool(np.all(a.imag == 0.0) and np.all(a.real >= 0.0))

    passed = (abs(l_quad - l_closed) <= tol and bracket_ok and limit_ok
              and radial_ok)
    detail = (
        f"quadrature route {l_quad:.12g} vs closed form {l_closed:.12g}; "
        f"direct ratio {ratio:.9g} lies in [L - tol, U + 1e-4] with "
        f"U = {u_value:.9g}: {bracket_ok}; derivative at 0 matches "
        f"1/(4(2-alpha)) = {d_closed:.9g} to {abs(lim0 - d_closed):.2e}; "
        f"radial reduction certified (the {a.size} Taylor coefficients of f "
        f"are real and nonnegative): {radial_ok}"
    )
    return CheckReport(
        f"alpha-lower-bound-{alpha:g}", l_quad, l_closed, tol, passed, detail)


def alpha_upper_bound(alpha):
    """Upper norm bound U(alpha), computed through the reflection form
    pi/sin((alpha-1)pi) and re-derived through the Beta-function route
    B(2-alpha, alpha)/(alpha-1); the two must agree to 1e-10.

    Also certifies the two facts the bound rests on: the weight-ratio
    supremum (1+r)^alpha / weight(r) equals 1 (attained as r -> 0) and the
    lower bound never exceeds the upper bound."""
    tol = 1e-10
    l_closed, u_sin = alpha_bound_values(alpha)
    u_beta = beta(2.0 - alpha, alpha) / (alpha - 1.0) + 1.0 / (2.0 - alpha)

    sup = supremum_unit(
        pointwise(lambda r: (1.0 + r) ** alpha / log_weight(r)), 1e-8)

    passed = (
        abs(u_sin - u_beta) <= tol * max(1.0, abs(u_beta))
        and l_closed <= u_sin + tol
        and abs(sup.value - 1.0) <= 1e-8
        and sup.boundary == AT_ZERO
    )
    detail = (
        f"reflection route {u_sin:.15g} vs Beta route {u_beta:.15g} "
        f"(diff {abs(u_sin - u_beta):.2e}); weight-ratio supremum "
        f"{sup.value:.12g} at r -> 0; lower bound {l_closed:.9g} <= U"
    )
    return CheckReport(
        f"alpha-upper-bound-{alpha:g}", u_sin, u_beta, tol, passed, detail)


def alpha_bounds_order(alpha_grid=DEFAULT_ALPHA_GRID):
    """L(alpha) <= U(alpha) across the working grid of weights."""
    tol = 1e-10
    worst = -math.inf
    worst_alpha = None
    pieces = []
    for a in alpha_grid:
        lower, upper = alpha_bound_values(a)
        gap = lower - upper
        if gap > worst:
            worst = gap
            worst_alpha = a
        pieces.append(f"{a:g}: L={lower:.6g} U={upper:.6g}")
    passed = worst <= tol
    detail = ("largest L - U gap "
              f"{worst:.6g} at alpha = {worst_alpha:g}; " + "; ".join(pieces))
    return CheckReport(
        "alpha-bounds-order", worst, (-math.inf, 0.0), tol, passed, detail)


def unboundedness_profile(alpha):
    """Dyadic-radius growth profile used by the unboundedness witnesses.

    Returns (js, rs, vals) for j = 1..20 and r_j = 1 - 2^-j: for alpha in
    (0, 1) the log-weighted derivative objective of the transformed extremal
    at r_j, for alpha >= 2 the partial integral of the extremal profile over
    [0, r_j].  Either sequence must grow without bound for the corresponding
    operator to be unbounded."""
    if not (0.0 < alpha < 1.0 or alpha >= 2.0):
        raise ValueError(
            "unboundedness witness requires alpha in (0, 1) or alpha >= 2")
    it = 1e-9
    js = np.arange(1, 21)
    rs = 1.0 - 0.5 ** js

    if alpha < 1.0:
        fn = TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, alpha)
        derivatives = derivative_at(fn, rs, it).tolist()
        vals = np.array([_om2(r) ** alpha * abs(d) / log_weight(r)
                         for r, d in zip(rs.tolist(), derivatives)])
    else:
        integrand = _extremal_profile(alpha)
        vals = integrate(lambda _, t: integrand(t), 0.0, rs, it).value
    return js, rs, vals


def alpha_unboundedness_witness(alpha):
    """Witness that no finite norm bound exists outside the (1, 2) window.

    For alpha in (0, 1) the log-weighted derivative objective of the
    transformed extremal is evaluated at the dyadic radii 1 - 2^-j,
    j = 1..20: it must grow monotonically with a factor above 10 over the
    last ten doublings.  For alpha >= 2 the partial profile integrals over
    [0, 1 - 2^-j] play the same role; at alpha = 2 the growth is
    logarithmic, so the requirement relaxes to strict monotone growth with
    non-vanishing increments and any factor above 1."""
    js, rs, vals = unboundedness_profile(alpha)
    if alpha < 1.0:
        mode = "log-weighted derivative objective of the transformed extremal"
    else:
        mode = "partial integrals of the extremal profile"

    diffs = np.diff(vals)
    monotone = bool(np.all(diffs > 0.0))
    factor = float(vals[-1] / vals[9])
    if alpha == 2.0:
        sustained = bool(diffs[-1] >= 0.9 * diffs[-2])
        passed = monotone and sustained and factor > 1.0
        target = (1.0, math.inf)
        extra = (f"; increments keep their size "
                 f"(last/prev = {float(diffs[-1] / diffs[-2]):.4f})")
    else:
        passed = monotone and factor > 10.0
        target = (10.0, math.inf)
        extra = ""
    detail = (
        f"{mode}: value {vals[9]:.6g} at j=10 grows to {vals[-1]:.6g} at "
        f"j=20 (factor {factor:.4g}); strictly increasing: {monotone}{extra}"
    )
    return CheckReport(
        f"alpha-unbounded-{alpha:g}", factor, target, 0.0, passed, detail)


# ---------------------------------------------------------------------------
# Hardy-space checks
# ---------------------------------------------------------------------------

def h1_upper_bound_internals(tol, seed=1729):
    """Ingredients of the Hardy-to-log-weighted upper bound 2 pi.

    Verifies the telescoping coefficient identity sum_n 1/((n+k)(n+k+1)) =
    1/(k+1) (partial sums to 10^6 plus the exact tail), the coefficient
    inequality sum |a_n|/(n+1) <= pi ||f|| on seeded random polynomials, and
    that the bound's profile function has supremum exactly 1, attained as
    x -> 0, so the assembled bound is 2 pi * 1."""
    n_terms = 1_000_000
    # 1/(m(m+1)) for m = 1 .. n_terms + 50, built in place block by block so
    # that no full-size temporary exists; each partial sum is one slice
    terms = np.empty(n_terms + 50)
    block = 1 << 16
    for lo in range(0, terms.size, block):
        out = terms[lo:lo + block]
        m = np.arange(lo + 1.0, lo + out.size + 1.0)
        np.multiply(m, m + 1.0, out=out)
        np.divide(1.0, out, out=out)
    worst_tel = 0.0
    for k in range(51):
        partial = float(np.sum(terms[k:k + n_terms]))
        total = partial + 1.0 / (n_terms + k + 1.0)
        worst_tel = max(worst_tel, abs(total - 1.0 / (k + 1.0)))
    telescope_ok = worst_tel <= 1e-9

    # The coefficient inequality has O(1) slack on random polynomials, so the
    # norm on the right-hand side only needs a few correct digits.  Each norm
    # is the FFT boundary mean of an exact polynomial, which converges
    # geometrically, so a tighter tolerance would cost little but would add
    # no discriminating power.
    gap_tol = max(tol, 1e-4)
    rng = np.random.default_rng(seed)
    min_margin = math.inf
    hardy_ok = True
    for _ in range(100):
        degree = int(rng.integers(1, 65))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        series = CoefficientSeries(coeffs, degree + 1, 0.0)
        lhs, rhs = hardy_inequality_gap(series, gap_tol)
        margin = rhs - lhs
        min_margin = min(min_margin, margin)
        hardy_ok = hardy_ok and lhs <= rhs + gap_tol * max(1.0, rhs)

    sup = supremum_halfline(h1_sup_objective, tol, limit_at_infinity=1.0)
    sup_ok = abs(sup.value - 1.0) <= tol and sup.boundary == AT_ZERO

    computed = H1_LOG_UPPER * sup.value
    passed = telescope_ok and hardy_ok and sup_ok
    detail = (
        f"telescoping identity residual {worst_tel:.2e} over k = 0..50; "
        f"coefficient inequality holds on 100 seeded polynomials "
        f"(smallest slack {min_margin:.4g}); profile supremum "
        f"{sup.value:.12g} attained as x -> 0; assembled bound 2 pi"
    )
    return CheckReport(
        "h1-upper-internals", computed, H1_LOG_UPPER, tol, passed, detail)


_H1_T_TOL = 1e-9


def _h1_profile_integral(alpha, z):
    """K(z) = int_0^1 ((1-z) + z t)^(alpha-1) (1-t)^(-alpha) dt at each point
    of the 1-d array z in the unit disk, as one integrate_singular result:
    every point is one member of a lockstep integration.

    At t = 0 the factor d^(alpha-1), d = (1-z) + z t, is singular only in
    the limit |1-z| -> 0: its zero t = -(1-z)/z lies outside [0, 1], at
    about |1-z| from t = 0 when z is near 1.  It is declared as a near
    singularity at that distance (hilbertop._pole_distance), whose sinh
    substitution spreads it over the piece for every alpha."""
    zk = z[:, None]
    omz = 1.0 - zk

    def profile(k, t):
        d = omz[k] + zk[k] * t
        # log|d| + i arg(d) is the principal log (Re d > 0) at a third of
        # the cost of the complex log ufunc
        log_d = np.log(np.abs(d)) + 1j * np.angle(d)
        return np.exp((alpha - 1.0) * log_d - alpha * np.log1p(-t))

    return integrate_singular(
        profile, np.zeros(z.size), np.ones(z.size),
        SingularitySpec(right_exponent=-alpha, left_distance=_pole_distance(z)),
        _H1_T_TOL)


def _h1_numerator_mean(alpha, r):
    """Circle means (1/pi) int_0^pi |Hf(r e^(i theta))| dtheta of the image
    of the Hardy extremal (1-z)^(-alpha) at the radii of the 1-d array r,
    0 < r < 1, with the integrand values they spent: (means, values).

    It is computed through the factorization |Hf(z)| = |1-z|^(-alpha) |K(z)|
    (_h1_profile_integral), on the angular integration of _h1_image_means:
    every radius is one member, and each round integrates K at all the new
    angles of every member in one lockstep call.  This quadrature route is
    the cross-check of the closed-form means (_h1_closed_means) that
    h1_lower_bound searches on."""
    spent = 0

    def image(z, omz):
        nonlocal spent
        k = _h1_profile_integral(alpha, z.ravel())
        spent += k.evaluations
        return np.abs(omz) ** -alpha * np.abs(k.value).reshape(z.shape)

    means, values = _h1_image_means(r, image)
    return means, spent + values


# Depth of the backward continued fraction and length of the reflection
# series in _h1_image_closed, and the radii of its quadrature cross-check.
_H1_CF_DEPTH = 40
_H1_SERIES_TERMS = 60
_H1_CROSS_RADII = (0.3, 0.99, 1.0 - 1e-6)


def _h1_image_closed(alpha, z, omz=None):
    """Hf(z) = z^(alpha-1) (1-z)^(-alpha) B_z(1-alpha, alpha) for the Hardy
    extremal (1-z)^(-alpha), at the points of the array z in the unit disk;
    omz, when given, is 1-z computed without cancellation.

    For |1-z| > 1/2 it is the continued fraction of DLMF 8.17.22, whose
    prefactor z^(1-alpha) (1-z)^alpha cancels the branch factors:
    Hf = CF(z)/(1-alpha), evaluated backward at a fixed depth.  For
    |1-z| <= 1/2 it is the reflection B_z(1-alpha, alpha) = pi/sin(pi alpha)
    - (1-z)^alpha S with S = sum_n (alpha)_n/(n! (n+alpha)) (1-z)^n, a power
    series in |1-z| <= 1/2."""
    z = np.asarray(z, dtype=complex)
    omz = 1.0 - z if omz is None else np.asarray(omz, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    far = np.abs(omz) > 0.5
    p = 1.0 - alpha
    zf = z[far]
    t = np.ones_like(zf)
    for n in range(_H1_CF_DEPTH, 0, -1):
        m = n // 2
        if n % 2:
            c = -(p + m) * (1.0 + m) / ((p + 2 * m) * (p + 2 * m + 1.0))
        else:
            c = m * (alpha - m) / ((p + 2 * m - 1.0) * (p + 2 * m))
        t = 1.0 + (c * zf) / t
    out[far] = 1.0 / (p * t)
    coeffs = []
    rising = 1.0
    for n in range(_H1_SERIES_TERMS):
        coeffs.append(rising / (n + alpha))
        rising *= (alpha + n) / (n + 1.0)
    w = omz[~far]
    series = np.zeros_like(w)
    for c in reversed(coeffs):
        series = series * w + c
    out[~far] = z[~far] ** (alpha - 1.0) * (
        math.pi / math.sin(math.pi * alpha) * w ** (-alpha) - series)
    return out


def _h1_image_means(r, image):
    """Circle means (1/pi) int_0^pi image(z, 1-z) dtheta at the radii of the
    1-d array r, 0 < r < 1, with the integrand values spent, every radius a
    member of one lockstep integration (norms._spiked_means at tol 1e-7).
    image(z, omz) gives |Hf| at the points z = r e^(i theta), with omz =
    1-z free of cancellation (norms._circle_pair).  Near the boundary |Hf|
    ~ |1-z|^(-alpha) is the spike at theta = 0 that _spiked_means declares."""
    return _spiked_means(r, lambda rk, theta: image(*_circle_pair(rk, theta)),
                         math.pi, 1e-7)


def _h1_closed_means(alpha, r):
    """Circle means of the image of the Hardy extremal at the radii of the
    1-d array r, 0 < r < 1, on the closed form _h1_image_closed
    (_h1_image_means).  Returns (means, integrand values)."""
    return _h1_image_means(
        r, lambda z, omz: np.abs(_h1_image_closed(alpha, z, omz)))


def h1_lower_bound(alpha, tol):
    """Hardy-space ratio witness against its closed-form floor
    Gamma((2-alpha)/2)^2 / Gamma(2-alpha), for alpha in (0, 1).

    The numerator is the supremum over radii of the circle mean of |Hf| for
    the boundary-singular extremal, divided by the log weight.  The search
    runs on the incomplete-beta closed form of Hf (_h1_image_closed), every
    grid radius a member of one lockstep angular integration
    (_h1_closed_means); its r = 0 value is the operator integral Hf(0), an
    independent route.  The quadrature route (_h1_numerator_mean) cross-checks
    the closed-form means at three radii, and a relative difference above
    1e-7 fails the check.  The denominator is the swept Hardy norm of the
    extremal itself, printed next to the boundary mean
    Gamma(1-alpha)/Gamma(1-alpha/2)^2 it falls short of as alpha -> 1.  As
    alpha -> 1 the floor approaches pi, which is asserted at alpha = 0.99.
    The detail counts the numerator search's objective calls, the radii
    they evaluated and their integrand values, and prints the cross-check's
    difference."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("floor comparison requires alpha in (0, 1)")
    floor = gamma((2.0 - alpha) / 2.0) ** 2 / gamma(2.0 - alpha)
    fn = TestFunction(Kind.HARDY_ALPHA_EXTREMAL, alpha)
    spent = {"calls": 0, "radii": 0, "values": 0}

    def objective(r):
        spent["calls"] += 1
        spent["radii"] += r.size
        out = np.empty(r.size)
        inside = r > 0.0
        out[~inside] = abs(apply_integral(fn, 0.0, _H1_T_TOL)) / log_weight(0.0)
        if inside.any():
            means, values = _h1_closed_means(alpha, r[inside])
            spent["values"] += values
            out[inside] = means / log_weight(r[inside])
        return out

    sup = supremum_unit(objective, max(tol, 1e-6), n_grid=64, x_max=25.0)
    numerator = sup.value
    closed, _ = _h1_closed_means(alpha, np.array(_H1_CROSS_RADII))
    means, _ = _h1_numerator_mean(alpha, np.array(_H1_CROSS_RADII))
    cross = float(np.max(np.abs(means - closed) / closed))
    denominator = hardy_norm(fn, 1.0, False, tol)
    boundary_mean = gamma(1.0 - alpha) / gamma(1.0 - alpha / 2.0) ** 2
    ratio = numerator / denominator
    ratio_tol = max(tol, 1e-6)

    passed = ratio >= floor - ratio_tol and cross <= 1e-7
    pi_note = ""
    if alpha >= 0.99:
        near_pi = abs(floor - H1_LOG_LOWER) < 0.05
        passed = passed and near_pi
        pi_note = (f"; floor sits within {abs(floor - H1_LOG_LOWER):.4f} of pi, "
                   f"the limiting value as the weight exponent approaches 1")
    detail = (
        f"numerator supremum {numerator:.9g} ({sup.boundary} at "
        f"r = {sup.arg:.6g}), denominator {denominator:.9g} (boundary mean "
        f"Gamma(1-a)/Gamma(1-a/2)^2 = {boundary_mean:.9g}), ratio "
        f"{ratio:.9g} >= floor - tol with floor {floor:.9g}{pi_note}; "
        f"numerator search: {spent['calls']} objective calls over "
        f"{spent['radii']} radii, {spent['values']} circle-mean integrand "
        f"values; closed-form means match the quadrature route to "
        f"{cross:.2e} relative (<= 1e-7) at r = 0.3, 0.99, 1 - 1e-6"
    )
    return CheckReport(
        f"h1-lower-bound-{alpha:g}", ratio, (floor, math.inf),
        ratio_tol, passed, detail)


def hinf_norm(tol):
    """Norm of the operator into the log-weighted bounded functions: 1.

    The radial objective (1/r) log(1/(1-r)) / weight(r) has supremum 1
    attained as r -> 0; the matching profile function on the half line has
    the same supremum with far-field limit 1/2, cross-checked numerically;
    and the matrix action on the constant input reproduces the harmonic
    coefficients 1/(n+1) exactly."""
    sup = supremum_unit(hinf_objective, tol)

    sup6 = supremum_halfline(hinf_sup_objective, tol, limit_at_infinity=0.5)
    far = hinf_sup_objective(1e9)
    far_ok = abs(far - 0.5) <= 1e-8

    series = apply_matrix(taylor_coeffs(TestFunction(Kind.CONSTANT), 1), 64)
    harmonic = 1.0 / (np.arange(64) + 1.0)
    exact_ok = bool(
        np.array_equal(series.coeffs.real, harmonic)
        and not series.coeffs.imag.any()
    )

    computed = sup.value
    passed = (
        abs(computed - HINF_LOG_NORM) <= tol
        and sup.boundary == AT_ZERO
        and abs(sup6.value - HINF_LOG_NORM) <= tol
        and sup6.boundary == AT_ZERO
        and far_ok
        and exact_ok
    )
    detail = (
        f"radial objective supremum {computed:.12g} attained as r -> 0; "
        f"half-line profile supremum {sup6.value:.12g} with far value "
        f"{far:.12g} matching 1/2; matrix action on the constant input "
        f"gives 1/(n+1) exactly: {exact_ok}"
    )
    return CheckReport("hinf-norm", computed, HINF_LOG_NORM, tol, passed, detail)


# ---------------------------------------------------------------------------
# representation and special-function checks
# ---------------------------------------------------------------------------

def _half_log_image(n_terms):
    """b_n = sum_{k odd} 1/(k(n+k+1)), n < n_terms: the exact image of the
    half-log series. As 1/(k(n+k+1)) = (1/(n+1))(1/k - 1/(n+k+1)), it is
    D_n / (2(n+1)) with D_n = psi(n/2+1) - psi(1/2): D_0 = 2 log 2, D_1 = 2
    and D_{n+2} = D_n + 2/(n+2), one cumulative sum per parity."""
    n = np.arange(n_terms, dtype=float)
    d = np.concatenate(((2.0 * _LOG2, 2.0), 2.0 / n[2:]))[:n_terms]
    d[0::2], d[1::2] = np.cumsum(d[0::2]), np.cumsum(d[1::2])
    return d / (2.0 * (n + 1.0))


def representation_agreement(tol, truncation=DEFAULT_TRUNCATION, seed=1729):
    """Matrix action versus integral form at 20 random points, |z| <= 0.95.

    The constant input has an exact (finite) coefficient series, so its
    residual isolates the output truncation and quadrature error. The
    half-log image comes from its closed form (_half_log_image), and the
    matrix action on the first N = DEFAULT_TRUNCATION half-log coefficients
    must fall below it by 0..1/(2N) at output indices n < N, up to roundoff:
    the dropped tail sum_{k>N odd} 1/(k(n+k+1)) is largest at n = 0."""
    agree_tol = max(tol, 1e-6)
    quad_tol = 1e-9
    rng = np.random.default_rng(seed)
    radii = 0.95 * np.sqrt(rng.random(20))
    angles = 2.0 * math.pi * rng.random(20)
    zs = radii * np.exp(1j * angles)

    def worst_residual(fn, out):
        direct = apply_integral(fn, zs, quad_tol)
        return float(np.max(np.abs(eval_series(out, zs) - direct)))

    fn_const = TestFunction(Kind.CONSTANT)
    res_const = worst_residual(
        fn_const, apply_matrix(taylor_coeffs(fn_const, 1), truncation))
    fn_half = TestFunction(Kind.HALF_LOG)
    res_half = worst_residual(fn_half, CoefficientSeries(_half_log_image(truncation)))
    n = DEFAULT_TRUNCATION
    gap = _half_log_image(n) - apply_matrix(taylor_coeffs(fn_half, n), n).coeffs.real
    gap_ok = bool(np.all(gap >= -1e-14) and np.all(gap <= 0.5 / n + 1e-14))

    computed = max(res_const, res_half)
    passed = computed <= agree_tol and gap_ok
    detail = (
        f"constant-input residual {res_const:.3e}; half-log residual "
        f"{res_half:.3e} of the closed-form image; matrix action on the "
        f"first {n} half-log coefficients below the image by "
        f"[{gap.min():.4e}, {gap.max():.4e}] within 1/(2N) = "
        f"{0.5 / n:.4e}: {gap_ok}; output order {truncation}"
    )
    return CheckReport(
        "series-integral-agreement", computed, 0.0, agree_tol, passed, detail)


# (c, r) grid of the modulus-mean bands: both signs of c and the log borderline
# c = 0, with r deep enough to expose the r -> 1 asymptotics.
_BAND_CS = (-0.7, -0.5, -0.3, 0.0, 0.3, 0.5, 0.7)
_BAND_RS = (0.1, 0.5, 0.9, 0.99)


def modulus_band_grid(ic_tol):
    """Rows (c, r, value, compared, lower, upper) over the band grid: value
    is I_c(r) computed to ic_tol, and lower <= compared <= upper is the
    band of that cell (see modulus_mean_bands)."""
    rows = []
    for c in _BAND_CS:
        for r, value in zip(_BAND_RS, i_c(c, np.array(_BAND_RS), ic_tol).tolist()):
            if c < 0.0:
                band = (value, 1.0, gamma(-c) / gamma((1.0 - c) / 2.0) ** 2)
            elif c > 0.0:
                band = ((1.0 - r * r) ** c * value, 1.0,
                        gamma(c) / gamma((1.0 + c) / 2.0) ** 2)
            else:
                band = (r * r * value / (-math.log1p(-(r * r))), 1.0 / math.pi, 1.0)
            rows.append((c, r, value) + band)
    return rows


def modulus_mean_bands(tol):
    """Two-sided bands for the circle means of the boundary kernel powers.

    For I_c(r), the integral mean of |1 - r e^(i theta)|^(-(1+c)):
    c < 0: 1 <= I_c <= Gamma(-c)/Gamma((1-c)/2)^2;
    c > 0: 1 <= (1-r^2)^c I_c <= Gamma(c)/Gamma((1+c)/2)^2;
    c = 0: 1/pi <= r^2 I_0 / log(1/(1-r^2)) <= 1,
    over a grid of exponents and radii."""
    worst = 0.0
    worst_cell = None
    for c, r, _, banded, low, high in modulus_band_grid(1e-10):
        violation = max(low - banded, banded - high, 0.0)
        if violation > worst:
            worst = violation
            worst_cell = (c, r, banded, low, high)
    passed = worst <= tol
    if worst_cell is None:
        detail = "all 28 grid cells sit inside their bands"
    else:
        c, r, banded, low, high = worst_cell
        detail = (
            f"worst band violation {worst:.3e} at (c, r) = ({c:g}, {r:g}): "
            f"value {banded:.9g} against [{low:.9g}, {high:.9g}]"
        )
    return CheckReport(
        "modulus-mean-bands", worst, 0.0, tol, passed, detail)


def gamma_identities(tol):
    """Gamma-function identities used throughout the bounds.

    The reflection identity Gamma(z) Gamma(1-z) sin(pi z) = pi must hold to
    1e-12 at ten non-integer points, and the two-endpoint singular integral
    int t^(a-1) (1-t)^(-a) dt must reproduce pi/sin(pi a) to 1e-8 for
    a in {0.3, 0.5, 0.7}."""
    points = (0.1, 0.25, 1.0 / 3.0, 0.4, 0.45, 0.6, 2.0 / 3.0, 0.75, 1.3, 2.6)
    worst_reflection = max(abs(reflection_residual(z)) for z in points)
    reflection_ok = worst_reflection < 1e-12

    worst_beta = 0.0
    for a in (0.3, 0.5, 0.7):
        def integrand(t, a=a):
            return np.exp((a - 1.0) * np.log(t) - a * np.log1p(-t))

        value = float(integrate_singular(
            integrand, 0.0, 1.0, SingularitySpec(a - 1.0, -a), 1e-10).value)
        worst_beta = max(worst_beta, abs(value - math.pi / math.sin(math.pi * a)))
    beta_ok = worst_beta <= 1e-8

    passed = reflection_ok and beta_ok
    detail = (
        f"reflection identity residual {worst_reflection:.2e} over ten "
        f"points; two-endpoint singular integral matches pi/sin(pi a) to "
        f"{worst_beta:.2e}"
    )
    return CheckReport(
        "gamma-identities", worst_beta, 0.0, 1e-8, passed, detail)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

# The default suite in its canonical order: check(run) reads the run's
# parameters and, from run.done, the reports finished so far, so the two
# growth-space constants are computed once.
_CHECKS = (
    ("bloch-A-constant", lambda run: compute_A(run.tol)),
    ("bloch-B-constant",
     lambda run: compute_B(run.tol, a_report=run.done["bloch-A-constant"])),
    ("bloch-to-blochlog-norm",
     lambda run: norm_bloch_to_blochlog(
         run.tol, a_report=run.done["bloch-A-constant"],
         b_report=run.done["bloch-B-constant"])),
    ("alpha-lower-bound-1.5", lambda run: alpha_lower_bound(1.5, run.tol)),
    ("alpha-upper-bound-1.5", lambda run: alpha_upper_bound(1.5)),
    ("alpha-bounds-order", lambda run: alpha_bounds_order(run.alpha_grid)),
    ("alpha-unbounded-0.5", lambda run: alpha_unboundedness_witness(0.5)),
    ("alpha-unbounded-2", lambda run: alpha_unboundedness_witness(2.0)),
    ("alpha-unbounded-2.5", lambda run: alpha_unboundedness_witness(2.5)),
    ("h1-upper-internals",
     lambda run: h1_upper_bound_internals(run.tol, run.seed)),
    ("h1-lower-bound-0.5", lambda run: h1_lower_bound(0.5, run.tol)),
    ("h1-lower-bound-0.99", lambda run: h1_lower_bound(0.99, run.tol)),
    ("hinf-norm", lambda run: hinf_norm(run.tol)),
    ("series-integral-agreement",
     lambda run: representation_agreement(run.tol, run.truncation, run.seed)),
    ("modulus-mean-bands", lambda run: modulus_mean_bands(run.tol)),
    ("gamma-identities", lambda run: gamma_identities(run.tol)),
)
CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_all(tol=1e-8, truncation=DEFAULT_TRUNCATION, seed=1729,
            alpha_grid=DEFAULT_ALPHA_GRID):
    """Run the default verification suite in its canonical order.

    Numerical non-convergence inside a check is captured as a failed
    CheckReport rather than an exception, so the suite always returns one
    report per registered check."""
    run = types.SimpleNamespace(tol=tol, truncation=truncation, seed=seed,
                                alpha_grid=alpha_grid, done={})
    for name, check in _CHECKS:
        try:
            report = check(run)
        except (QuadratureError, DivergenceError) as exc:
            report = CheckReport(
                name, math.nan, math.nan, tol, False,
                f"numerical non-convergence: {exc}")
        run.done[name] = report
    return list(run.done.values())
