"""The Hilbert matrix operator in its four equivalent forms.

Coefficient action:      (Hf)_n   = sum_k a_k / (n + k + 1)
Integral form:           Hf(z)    = int_0^1 f(t) / (1 - t z) dt
Derivative kernel:       (Hf)'(z) = int_0^1 t f(t) / (1 - t z)^2 dt
Path-shifted derivative: (Hf)'(z) = int_0^1 t f(phi_t(z)) / (d_t(z) (1 - z)) dt

where phi_t(z) = t / d_t(z), d_t(z) = 1 - (1 - t) z, and the weighted
composition family T_t f = w_t (f o phi_t) with w_t(z) = 1 / d_t(z)
decomposes the operator as Hf = int_0^1 T_t f dt (the path t -> phi_t(z));
that substitution in the derivative kernel gives the path-shifted form.

Numerical form: every denominator is grouped so no catastrophic cancellation
occurs as t -> 1 or |z| -> 1, e.g. d_t(z) = (1 - z) + t z, and the composed
value 1 - phi_t(z) is produced as an exact ratio rather than by subtracting
phi from 1. Real points, such as the radii of a norm search, are integrated
in real arithmetic, which costs less than complex128; every integral form
still returns complex128.
"""

import numpy as np

from .catalog import Kind, TestFunction, CoefficientSeries, eval as cat_eval, \
    _count, _eval_log
from .quadrature import SingularitySpec, integrate_singular

__all__ = [
    "apply_matrix",
    "apply_integral",
    "derivative_at",
    "derivative_at_pathshifted",
]

_MATRIX_CHUNK = 256


def apply_matrix(s, out_order):
    """Truncated matrix action b_n = sum_{k<N} a_k/(n+k+1), n < out_order.

    When the input series is exact (tail_bound == 0.0) the output carries the
    tail bound sum_k |a_k|/(out_order+k+1), valid for every output index
    >= out_order; otherwise the output tail is unknown."""
    out_order = _count("out_order", out_order)
    coeffs = s.coeffs
    # skipping zero coefficients (and the imaginary part of a real series)
    # leaves every surviving summand bit-identical
    work = coeffs if coeffs.imag.any() else coeffs.real
    ks = np.flatnonzero(work)
    vals = work[ks]
    n = np.arange(out_order, dtype=float)[:, None]
    kf = ks.astype(float)
    b = np.zeros(out_order, dtype=work.dtype)
    # tiles of _MATRIX_CHUNK rows by _MATRIX_CHUNK columns stay in cache;
    # b_n sums a chunk's columns along one row of a tile, in their order, so
    # how the rows are tiled changes no bit. Every tile and its quotients
    # are contiguous views of two buffers that all tiles reuse
    denominators = np.empty(_MATRIX_CHUNK * _MATRIX_CHUNK)
    quotients = np.empty(_MATRIX_CHUNK * _MATRIX_CHUNK, dtype=work.dtype)
    for j0 in range(0, vals.size, _MATRIX_CHUNK):
        cols = slice(j0, j0 + _MATRIX_CHUNK)
        for i0 in range(0, out_order, _MATRIX_CHUNK):
            rows = slice(i0, i0 + _MATRIX_CHUNK)
            shape = (n[rows].size, kf[cols].size)
            size = shape[0] * shape[1]
            tile = np.add(n[rows], kf[cols], out=denominators[:size].reshape(shape))
            tile += 1.0
            b[rows] += np.sum(np.divide(vals[cols], tile, out=quotients[:size].reshape(shape)),
                              axis=1)
    if s.tail_bound == 0.0:
        k = np.arange(coeffs.size, dtype=float)
        tail = float(np.sum(np.abs(coeffs) / (out_order + k + 1.0)))
    else:
        tail = None
    return CoefficientSeries(b, out_order, tail)


def _endpoint_spec(fn):
    """Right-endpoint power behavior of the catalog integrands at t = 1 (no
    declared endpoint where they stay bounded), or a domain error where the
    operator integral diverges."""
    if fn.kind is Kind.CONSTANT:
        return SingularitySpec()
    if fn.kind is Kind.HALF_LOG:
        # logarithmic blowup; -1/2 is a valid power majorant
        return SingularitySpec(right_exponent=-0.5)
    if fn.kind is Kind.HARDY_ALPHA_EXTREMAL:
        return SingularitySpec(right_exponent=-fn.param)
    al = fn.param
    if al >= 2.0:
        raise ValueError(
            f"operator integral diverges for this function (alpha = {al} >= 2)")
    if al > 1.0:
        return SingularitySpec(right_exponent=1.0 - al)
    return SingularitySpec()


def _require_points(z):
    """z as a float or complex ndarray of at most one dimension in the
    open unit disk: real points stay real."""
    points = np.asarray(z, dtype=float if np.isrealobj(z) else complex)
    if points.ndim > 1 or not np.all(np.abs(points) < 1.0):
        raise ValueError("evaluation points must satisfy |z| < 1")
    return points


def _pole_distance(z):
    """Distance from t = 0 to the pole t = -(1-z)/z of 1/((1-z) + zt), at
    the points of the 1-d array z, capped at 1: |1-z| / max(|z|, |1-z|).
    The cap gives z = 0, whose kernel has no pole, a finite distance."""
    omz = np.abs(1.0 - z)
    return omz / np.maximum(np.abs(z), omz)


def _operator_integral(fn, z, tol, kernel):
    """int_0^1 kernel(t, 1 - tz) dt at one point z or a 1-d array of them:
    every point is one member of a lockstep integration, with the value of
    its own scalar call, and a scalar z is the one-point case."""
    points = _require_points(z)
    # z and 1 - z per point, taken for all rows of a call with one take
    cols = np.array([points, 1.0 - points]).reshape(2, -1, 1)

    def integrand(k, t):
        zk, omz = cols.take(k, 1)
        return kernel(t, omz + zk * (1.0 - t))

    n = points.size
    value = integrate_singular(integrand, np.zeros(n), np.ones(n),
                               _endpoint_spec(fn), tol).value
    return value.astype(complex) if points.ndim else complex(value[0])


def apply_integral(fn, z, tol):
    """Hf(z) = int_0^1 f(t)/(1-tz) dt for a catalog function, at a point z
    or a 1-d array of points."""
    return _operator_integral(fn, z, tol, lambda t, d: cat_eval(fn, t) / d)


def derivative_at(fn, z, tol):
    """(Hf)'(z) = int_0^1 t f(t)/(1-tz)^2 dt for a catalog function, at a
    point z or a 1-d array of points."""
    return _operator_integral(
        fn, z, tol, lambda t, d: t * cat_eval(fn, t) / (d * d))


def derivative_at_pathshifted(fn, z, tol):
    """(Hf)'(z) through the shifted path: int_0^1 t f(phi_t(z)) /
    (d_t(z) (1-z)) dt.

    The composed argument phi_t(z) = t / d_t(z) approaches 1 as t -> 1, so
    f(phi_t(z)) is the catalog's closed form (catalog._eval_log) given
    log(1 - phi_t(z)) through the exact ratio

        1 - phi_t(z) = (1-t)(1-z) / d_t(z)

    which lies in the right half-plane for |z| < 1, as does 1 + phi_t(z);
    their logarithms therefore combine without branch jumps, and the t -> 1
    singularity enters only through the explicit (1-t) factor that the
    singular quadrature transform neutralizes exactly.

    z may also be a 1-d array, every point one member of a lockstep
    integration with the value of its own scalar call, as in
    _operator_integral. The pole of 1/d_t(z) at t = -(1-z)/z is declared
    as a near singularity outside t = 0 (_pole_distance): d_t(z) is small
    there when z is near 1."""
    points = _require_points(z)
    cols = np.array([points, 1.0 - points]).reshape(2, -1, 1)

    def integrand(k, t):
        z, omz = cols.take(k, 1)
        d = omz + t * z
        base = t / (d * omz)
        if fn.kind is Kind.CONSTANT:
            return base
        return base * _eval_log(fn, t / d, np.log((1.0 - t) * omz / d))

    n = points.size
    spec = SingularitySpec(right_exponent=_endpoint_spec(fn).right_exponent,
                           left_distance=_pole_distance(points.reshape(-1)))
    value = integrate_singular(integrand, np.zeros(n), np.ones(n), spec, tol).value
    return value.astype(complex) if points.ndim else complex(value[0])
