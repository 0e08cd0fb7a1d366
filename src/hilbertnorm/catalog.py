"""Analytic functions on the unit disk: truncated Taylor series and the four
closed-form test functions the verification suite drives through the
operator.

Kinds:
  Constant            f(z) = 1
  HalfLog             g(z) = (1/2) log((1+z)/(1-z))
  HardyAlphaExtremal  f(z) = (1-z)^(-alpha),                 0 < alpha < 1
  BlochAlphaExtremal  f(z) = ((1-z^2)^(1-alpha) - 1)/(2(alpha-1)), alpha != 1

All powers and logs take the principal branch; 1-z and 1-z^2 stay clear of
the cut for |z| < 1, so the choice is canonical. All four kinds have
nonnegative Taylor coefficients, and so do their derivatives, which certifies
the radial reduction used by the norm computations.
"""

import enum
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "Kind",
    "TestFunction",
    "CoefficientSeries",
    "eval",
    "taylor_coeffs",
    "eval_series",
    "derivative_series",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 2048


def _expm1_complex(w):
    """exp(w) - 1 for complex arrays, series-stabilized near w = 0."""
    w = np.asarray(w)
    out = np.exp(w) - 1.0
    small = np.abs(w) < 1e-4
    if np.any(small):
        ws = np.where(small, w, 0.0)
        series = ws * (1.0 + ws * (0.5 + ws * (1.0 / 6.0)))
        out = np.where(small, series, out)
    return out


class Kind(enum.Enum):
    CONSTANT = "Constant"
    HALF_LOG = "HalfLog"
    BLOCH_ALPHA_EXTREMAL = "BlochAlphaExtremal"
    HARDY_ALPHA_EXTREMAL = "HardyAlphaExtremal"


@dataclass(frozen=True)
class TestFunction:
    kind: Kind
    param: Optional[float] = None

    def __post_init__(self):
        if self.kind in (Kind.CONSTANT, Kind.HALF_LOG):
            if self.param is not None:
                raise ValueError(f"{self.kind.value} takes no parameter")
        elif self.kind is Kind.HARDY_ALPHA_EXTREMAL:
            if self.param is None or not 0.0 < self.param < 1.0:
                raise ValueError("HardyAlphaExtremal requires 0 < alpha < 1")
        elif self.kind is Kind.BLOCH_ALPHA_EXTREMAL:
            if self.param is None or self.param <= 0.0 or self.param == 1.0:
                raise ValueError("BlochAlphaExtremal requires alpha > 0, alpha != 1")


@dataclass(frozen=True, eq=False)
class CoefficientSeries:
    """Truncated Taylor series a_0..a_{N-1} with N = truncation_order.

    tail_bound, when present, is a constant C with |a_k| <= C for all k >= N,
    so evaluation at |z| = r is off by at most C r^N / (1 - r)."""
    coeffs: np.ndarray
    truncation_order: int = field(default=-1)
    tail_bound: Optional[float] = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex, copy=True).reshape(-1)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        if self.truncation_order == -1:
            object.__setattr__(self, "truncation_order", arr.size)
        if self.truncation_order != arr.size:
            raise ValueError("truncation_order must equal the number of coefficients")
        if self.tail_bound is not None and not self.tail_bound >= 0.0:
            raise ValueError("tail_bound must be nonnegative")


def _require_in_disk(z):
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) < 1.0):  # NaN fails it too
        raise ValueError("argument must satisfy |z| < 1")
    return z


def eval(fn, z):
    """Closed-form value of a test function at z (scalar or array), |z| < 1."""
    z = _require_in_disk(z)
    out = (np.ones_like(z) if fn.kind is Kind.CONSTANT
           else _eval_log(fn, z, np.log1p(-z)))
    return complex(out) if out.ndim == 0 else out


def _eval_log(fn, z, log_omz):
    """A non-constant test function at the points z, given log(1-z): eval
    takes log1p(-z), and a caller that forms 1-z without cancellation near
    z = 1 takes its log (norms._catalog_means)."""
    if fn.kind is Kind.HALF_LOG:
        return 0.5 * (np.log1p(z) - log_omz)
    if fn.kind is Kind.HARDY_ALPHA_EXTREMAL:
        return np.exp(-fn.param * log_omz)
    a = fn.param
    return _expm1_complex((1.0 - a) * (log_omz + np.log1p(z))) / (2.0 * (a - 1.0))


def _count(name, value):
    """value as an int if it is a finite, integral real number >= 1 (not a
    bool), else ValueError: int() alone would truncate 2.5 and take '4'."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value % 1 != 0 or value < 1):
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
    return int(value)


def taylor_coeffs(fn, n):
    """First n Taylor coefficients of a test function, with a tail bound from
    the closed form's coefficient recurrence."""
    n = _count("n", n)
    a = np.zeros(n)
    if fn.kind is Kind.CONSTANT:
        a[0] = 1.0
        tail = 0.0
    elif fn.kind is Kind.HALF_LOG:
        k = np.arange(1, n, 2)
        a[k] = 1.0 / k
        tail = 1.0 / n
    elif fn.kind is Kind.HARDY_ALPHA_EXTREMAL:
        al = fn.param
        # a_{k+1} = a_k (k + alpha)/(k + 1); decreasing since alpha < 1
        c = 1.0
        for k in range(n):
            a[k] = c
            c *= (k + al) / (k + 1.0)
        tail = c
    else:
        al = fn.param
        scale = 2.0 * (al - 1.0)
        # (1-w)^{1-alpha} = sum c_m w^m with c_{m+1} = c_m (m + alpha - 1)/(m + 1)
        c = 1.0
        m = 0
        while 2 * m < n:
            if m > 0:
                a[2 * m] = c / scale
            c *= (m + al - 1.0) / (m + 1.0)
            m += 1
        if al < 2.0:
            tail = abs(c / scale)
        elif al == 2.0:
            tail = abs(1.0 / scale)
        else:
            tail = None
    return CoefficientSeries(a, n, tail)


def eval_series(s, z):
    """Horner evaluation of the truncated series at z (scalar or array)."""
    z = _require_in_disk(z)
    if s.coeffs.size == 0:
        out = np.zeros_like(z)
    else:
        out = np.polynomial.polynomial.polyval(z, s.coeffs)
    out = np.asarray(out)
    return complex(out) if out.ndim == 0 else out


def derivative_series(s):
    """Series of the derivative: coefficients k a_k shifted down one index."""
    n = s.coeffs.size
    if n <= 1:
        return CoefficientSeries(np.zeros(0), 0, 0.0 if s.tail_bound == 0.0 else None)
    d = s.coeffs[1:] * np.arange(1, n)
    return CoefficientSeries(d, n - 1, 0.0 if s.tail_bound == 0.0 else None)
