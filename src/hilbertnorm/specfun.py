"""Real special functions and the logarithmic weight.

Gamma and Beta are thin, validated wrappers over the C library routines
exposed by ``math``; those are correctly rounded to well under the 1e-12
relative-error contract on [0.1, 50] (checked against 30-digit references in
the test suite). Beta goes through log-gamma sums so values near the domain
edges neither overflow nor lose digits to naive products. The dilogarithm
on [0, 1) is a power series below 1/2 and Euler's reflection above it
(Lewin, *Polylogarithms and Associated Functions*, 1981).
"""

import math

import numpy as np

__all__ = ["log_weight", "gamma", "beta", "dilog", "reflection_residual"]


def log_weight(r):
    """Logarithmic weight 1 - 2*log(1-r) = log(e/(1-r)^2) for r in [0, 1).

    Accepts a float or ndarray; strictly increasing, equal to 1 at r = 0. A
    Python float (np.float64 included) is checked by Python comparisons and
    gives a float without a 0-d array; np.log1p on it has the bits of the
    array route (math.log1p does not: it is another implementation, and
    differs in the last bit on some radii).
    """
    if isinstance(r, float):
        if not 0.0 <= r < 1.0:  # NaN fails it too
            raise ValueError("log_weight requires 0 <= r < 1")
        return float(1.0 - 2.0 * np.log1p(-r))
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < 1.0)):  # NaN fails it too
        raise ValueError("log_weight requires 0 <= r < 1")
    out = 1.0 - 2.0 * np.log1p(-r)
    return float(out) if out.ndim == 0 else out


def gamma(x):
    """Gamma function for real x, excluding the poles at 0, -1, -2, ..."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma requires finite x")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at x = {x:g}")
    return math.gamma(x)


def beta(s, t):
    """Beta function Gamma(s)Gamma(t)/Gamma(s+t) for s, t > 0, in log space.

    The evaluation path is symmetric in (s, t): exp(lgamma(s) + lgamma(t)
    - lgamma(s+t)), and float addition commutes, so beta(s, t) == beta(t, s)
    exactly as computed.
    """
    s = float(s)
    t = float(t)
    if not (s > 0.0 and t > 0.0):
        raise ValueError("beta requires s > 0 and t > 0")
    return math.exp(math.lgamma(s) + math.lgamma(t) - math.lgamma(s + t))


def dilog(x):
    """Dilogarithm Li2(x) = sum_{k>=1} x^k / k^2 for 0 <= x < 1.

    The series converges at least like 2^-k for x <= 1/2; above 1/2 Euler's
    reflection Li2(x) = pi^2/6 - log(x) log(1-x) - Li2(1-x) maps x to
    1 - x < 1/2, which is exact in floating point there.
    """
    x = float(x)
    if not 0.0 <= x < 1.0:
        raise ValueError("dilog requires 0 <= x < 1")
    if x > 0.5:
        y = 1.0 - x
        return math.pi ** 2 / 6.0 - math.log(x) * math.log(y) - dilog(y)
    total = 0.0
    power = x
    k = 1
    while power > 1e-17 * k * k * total:
        total += power / (k * k)
        k += 1
        power *= x
    return total


def _sinpi(x):
    """sin(pi*x) with range reduction, exact at integers and half-integers."""
    x = math.fmod(x, 2.0)
    if x < 0.0:
        x += 2.0
    if x < 0.5:
        return math.sin(math.pi * x)
    if x < 1.5:
        return math.sin(math.pi * (1.0 - x))
    return math.sin(math.pi * (x - 2.0))


def reflection_residual(z):
    """Relative residual of gamma(z)*gamma(1-z) = pi/sin(pi*z), z non-integer.

    Self-test quantity: |gamma(z)gamma(1-z) - pi/sin(pi z)| / (pi/|sin(pi z)|).
    """
    z = float(z)
    if z == math.floor(z):
        raise ValueError("reflection residual undefined at integers")
    s = _sinpi(z)
    product = gamma(z) * gamma(1.0 - z)
    reference = math.pi / s
    return abs(product - reference) / (math.pi / abs(s))
