"""``quad-direct``: many small, independent integrations through the public
API, with no supremum search.

Primary round, scalar integrands (16 of each, parameters stratified over
their ranges):
  * ``integrate_singular`` of t^(a-1) (1-t)^(-a) on [0, 1], both endpoints
    declared; reference pi / sin(pi a);
  * ``i_c(c, r)`` with r up to 1 - 1e-6; reference
    2F1((1+c)/2, (1+c)/2; 1; r^2) from mpmath;
  * ``integrate_halfline`` of 2(1-r) log x / ((1+r) + (1-r) x)^2 on
    [1, inf); reference (2/(1+r)) log(2/(1-r)).
Secondary round, the operator integrals: ``apply_integral`` and
``derivative_at_pathshifted`` on all four catalog kinds at 6 seeded points
each; references are ``mpmath.quad`` of Hf(z) = int f(t)/(1-tz) dt and
(Hf)'(z) = int t f(t)/(1-tz)^2 dt, in s = 1 - t with the endpoint power
removed by substitution.

References are computed once, before timing; a round repeats the same
inputs.
"""

import math

import mpmath
import numpy as np

from common import Part, Workload, close

N_SCALAR = 16       # cases per scalar integral family
N_POINTS = 6        # evaluation points per catalog kind and operator form
TOL_BETA = 1e-10    # the tolerance gamma-identities uses
TOL = 1e-9


def _strata(rng, n, lo, hi):
    """n draws, one uniform in each of n equal slices of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def scalar_cases(rng):
    """(kind, parameters, reference) of the scalar integrals."""
    cases = []
    for a in _strata(rng, N_SCALAR, 0.1, 0.9):
        cases.append(("beta", (float(a),), math.pi / math.sin(math.pi * a)))
    cs = _strata(rng, N_SCALAR, -0.9, 0.9)
    decades = rng.permutation(_strata(rng, N_SCALAR, 0.3, 6.0))
    for c, decade in zip(cs, decades):
        r = 1.0 - 10.0 ** -float(decade)
        lam = (1.0 + float(c)) / 2.0
        ref = float(mpmath.hyp2f1(lam, lam, 1, mpmath.mpf(r) ** 2))
        cases.append(("i_c", (float(c), r), ref))
    for r in _strata(rng, N_SCALAR, 0.05, 0.95):
        ref = (2.0 / (1.0 + r)) * math.log(2.0 / (1.0 - r))
        cases.append(("halfline", (float(r),), ref))
    return cases


def _mp_kind(kind, param):
    """A catalog function at t = 1 - s, written in s so that no digits are
    lost near the singular end t = 1, and its power exponent there."""
    if kind == "Constant":
        return (lambda s: mpmath.mpf(1)), 0.0
    if kind == "HalfLog":
        return (lambda s: mpmath.log((2 - s) / s) / 2), 0.0
    if kind == "HardyAlphaExtremal":
        return (lambda s: s ** (-param)), -param
    return ((lambda s: ((s * (2 - s)) ** (1 - param) - 1) / (2 * (param - 1))),
            min(0.0, 1.0 - param))


def _mp_integral(g, exponent):
    """int_0^1 g(s) ds for g ~ s^exponent at 0, through s = u^(1/(1+e)),
    which leaves a bounded integrand for mpmath's tanh-sinh rule."""
    q = 1 / (1 + mpmath.mpf(exponent))
    return mpmath.quad(lambda u: q * u ** (q - 1) * g(u ** q), [0, 1])


def operator_cases(rng):
    """(kind, param, z, form, reference) of the operator integrals."""
    cases = []
    kinds = (("Constant", [None] * N_POINTS),
             ("HalfLog", [None] * N_POINTS),
             ("HardyAlphaExtremal", _strata(rng, N_POINTS, 0.1, 0.9)),
             ("BlochAlphaExtremal",
              np.concatenate([_strata(rng, N_POINTS // 2, 0.2, 0.9),
                              _strata(rng, N_POINTS - N_POINTS // 2, 1.1, 1.8)])))
    with mpmath.workdps(25):
        for kind, params in kinds:
            radii = np.sqrt(_strata(rng, N_POINTS, 0.0, 0.81))
            angles = 2.0 * math.pi * rng.random(N_POINTS)
            for param, rad, ang in zip(params, radii, angles):
                param = None if param is None else float(param)
                z = complex(rad * math.cos(ang), rad * math.sin(ang))
                f, exponent = _mp_kind(kind, param)
                omz = 1 - mpmath.mpc(z)
                # 1 - t z = (1 - z) + s z
                value = _mp_integral(lambda s: f(s) / (omz + s * z), exponent)
                deriv = _mp_integral(
                    lambda s: (1 - s) * f(s) / (omz + s * z) ** 2, exponent)
                cases.append((kind, param, z, "apply_integral", complex(value)))
                cases.append((kind, param, z, "derivative_at_pathshifted",
                              complex(deriv)))
    return cases


def build(seed, entry, tally):
    import hilbertnorm as hn

    integrate_singular = entry(hn.integrate_singular)
    integrate_halfline = entry(hn.integrate_halfline)
    i_c = entry(hn.i_c)
    forms = {"apply_integral": entry(hn.apply_integral),
             "derivative_at_pathshifted": entry(hn.derivative_at_pathshifted)}
    rng = np.random.default_rng(seed)
    scalar = scalar_cases(rng)
    operator = operator_cases(rng)

    def scalar_call(kind, params):
        if kind == "beta":
            (a,) = params

            def integrand(t):
                return np.exp((a - 1.0) * np.log(t) - a * np.log1p(-t))

            spec = hn.SingularitySpec(a - 1.0, -a)
            return integrate_singular(integrand, 0.0, 1.0, spec, TOL_BETA).value
        if kind == "i_c":
            return i_c(*params, TOL)
        (r,) = params

        def integrand(x):
            return (2.0 * (1.0 - r) * np.log(x)
                    / ((1.0 + r) + (1.0 - r) * x) ** 2)

        return integrate_halfline(integrand, 1.0, TOL).value

    scalar_tol = {"beta": TOL_BETA, "i_c": TOL, "halfline": TOL}
    functions = [(hn.TestFunction(hn.Kind(kind), param), z, forms[form])
                 for kind, param, z, form, _ in operator]

    def run_scalar():
        return [scalar_call(kind, params) for kind, params, _ in scalar]

    def check_scalar(values, tally):
        for value, (kind, params, ref) in zip(values, scalar):
            tally.check(close(value, ref, scalar_tol[kind]),
                        f"{kind}{params}: {value!r} vs reference {ref!r}")

    def run_operator():
        return [form(fn, z, TOL) for fn, z, form in functions]

    def check_operator(values, tally):
        for value, (kind, param, z, form, ref) in zip(values, operator):
            tally.check(close(value, ref, TOL),
                        f"{form} {kind}({param}) at {z}: {value!r} vs "
                        f"reference {ref!r}")

    return Workload(primary=Part(run_scalar, check_scalar),
                    secondary=Part(run_operator, check_operator),
                    trace_rounds=20)
