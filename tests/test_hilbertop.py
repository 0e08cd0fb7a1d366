"""Tests for the four equivalent forms of the operator."""

import mpmath
import numpy as np
import pytest

from hilbertnorm.catalog import (
    CoefficientSeries,
    Kind,
    TestFunction,
    taylor_coeffs,
)
from hilbertnorm import hilbertop
from hilbertnorm.hilbertop import (
    apply_integral,
    apply_matrix,
    derivative_at,
    derivative_at_pathshifted,
)
from hilbertnorm.quadrature import integrate_singular
from hilbertnorm.supsearch import unit_grid
from hilbertnorm.verification import _half_log_average_closed, _half_log_image

LOG2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# matrix action


def test_matrix_action_on_unit_coefficient():
    s = CoefficientSeries(np.array([1.0]), 1, 0.0)
    res = apply_matrix(s, 4)
    assert np.array_equal(res.coeffs, np.array([1.0, 0.5, 1.0 / 3.0, 0.25],
                                               dtype=complex))
    assert res.truncation_order == 4
    assert res.tail_bound == 1.0 / 5.0


def test_matrix_action_is_symmetric():
    # b_n(e_k) == b_k(e_n) == 1/(n+k+1)
    def basis(k):
        c = np.zeros(k + 1)
        c[k] = 1.0
        return CoefficientSeries(c, k + 1, 0.0)

    out = 8
    b3 = apply_matrix(basis(3), out).coeffs
    b5 = apply_matrix(basis(5), out).coeffs
    assert b3[5] == b5[3] == 1.0 / 9.0


def test_matrix_action_skips_zero_coefficients_exactly():
    a = np.array([0.5, 0.0, 0.25])
    s1 = CoefficientSeries(a, 3, 0.0)
    s2 = CoefficientSeries(np.concatenate([a, [0.0, 0.0]]), 5, 0.0)
    r1 = apply_matrix(s1, 6)
    r2 = apply_matrix(s2, 6)
    assert np.array_equal(r1.coeffs, r2.coeffs)
    assert r1.tail_bound == r2.tail_bound
    n = np.arange(6, dtype=float)[:, None]
    k = np.array([0.0, 2.0])[None, :]
    expected = np.sum(np.array([0.5, 0.25])[None, :] / (n + k + 1.0), axis=1)
    assert np.array_equal(r1.coeffs, expected.astype(complex))


def test_matrix_action_complex_coefficients():
    s = CoefficientSeries(np.array([1.0j]), 1, 0.0)
    res = apply_matrix(s, 3)
    assert np.array_equal(res.coeffs, np.array([1.0j, 0.5j, 1.0j / 3.0]))


def test_matrix_action_tail_bound_formula():
    s = CoefficientSeries(np.array([1.0, -2.0]), 2, 0.0)
    res = apply_matrix(s, 3)
    assert res.tail_bound == pytest.approx(1.0 / 4.0 + 2.0 / 5.0, rel=1e-15)


def test_matrix_action_unknown_tail_propagates():
    s = taylor_coeffs(TestFunction(Kind.HALF_LOG), 8)
    assert s.tail_bound > 0.0
    assert apply_matrix(s, 4).tail_bound is None


def test_matrix_action_rejects_empty_output():
    s = CoefficientSeries(np.array([1.0]), 1, 0.0)
    with pytest.raises(ValueError):
        apply_matrix(s, 0)


@pytest.mark.parametrize("out_order", [2.5, "4", True, float("inf"),
                                       float("nan"), 0])
def test_matrix_action_rejects_non_integral_order(out_order):
    s = CoefficientSeries(np.array([1.0]), 1, 0.0)
    with pytest.raises(ValueError, match="out_order must be an integer"):
        apply_matrix(s, out_order)


def _direct_matrix(a, out_order):
    n = np.arange(out_order, dtype=float)[:, None]
    k = np.arange(a.size, dtype=float)[None, :]
    return np.sum(a[None, :] / (n + k + 1.0), axis=1)


def _column_chunked_matrix(a, out_order):
    # every output row against one chunk of 256 columns at a time, all rows
    # at once: the row tiles of apply_matrix must give the same bits
    n = np.arange(out_order, dtype=float)[:, None]
    k = np.arange(a.size, dtype=float)
    b = np.zeros(out_order, dtype=a.dtype)
    for j0 in range(0, a.size, 256):
        j1 = min(j0 + 256, a.size)
        b = b + np.sum(a[None, j0:j1] / (n + k[None, j0:j1] + 1.0), axis=1)
    return b


# Inputs longer than the output order (out = 2048), every coefficient
# nonzero: 2049, 2050 and 2100 end in a partial chunk of 256 columns, 4096
# fills sixteen; apply_matrix tiles each chunk into runs of 256 rows, and
# the exact out orders 1, 255, 257, 2047 and 2049 end in a partial run. The
# callers in src/ pass at most 1,024 nonzeros x 2,048 outputs (the half-log
# gap of series-integral-agreement) and one nonzero x --trunc outputs (its
# constant input).
_LARGE_INPUT_SIZES = (2049, 2050, 2100, 4096)
_TILE_EDGE_ORDERS = (1, 255, 256, 257, 2047, 2049)


@pytest.mark.parametrize("size", _LARGE_INPUT_SIZES)
def test_matrix_action_large_input_matches_direct_real(size):
    rng = np.random.default_rng(11)
    a = rng.standard_normal(size)
    s = CoefficientSeries(a, a.size, 0.0)
    out = 2048
    res = apply_matrix(s, out)
    ref = _direct_matrix(a, out)
    assert np.max(np.abs(res.coeffs - ref)) < 1e-12
    for out in _TILE_EDGE_ORDERS:
        assert np.array_equal(apply_matrix(s, out).coeffs,
                              _column_chunked_matrix(a, out))


@pytest.mark.parametrize("size", _LARGE_INPUT_SIZES)
def test_matrix_action_large_input_matches_direct_complex(size):
    rng = np.random.default_rng(12)
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    s = CoefficientSeries(a, a.size, 0.0)
    out = 2048
    res = apply_matrix(s, out)
    ref = _direct_matrix(a, out)
    assert np.max(np.abs(res.coeffs - ref)) < 1e-12
    for out in _TILE_EDGE_ORDERS:
        assert np.array_equal(apply_matrix(s, out).coeffs,
                              _column_chunked_matrix(a, out))


def _fresh_tiles_matrix(a, out_order):
    # apply_matrix's sums with a fresh array for every tile and quotient:
    # the reused tile buffers must give the same bits
    work = a if a.imag.any() else a.real
    ks = np.flatnonzero(work)
    vals, kf = work[ks], ks.astype(float)
    n = np.arange(out_order, dtype=float)[:, None]
    b = np.zeros(out_order, dtype=work.dtype)
    for j0 in range(0, vals.size, 256):
        for i0 in range(0, out_order, 256):
            tile = n[i0:i0 + 256] + kf[j0:j0 + 256]
            tile += 1.0
            b[i0:i0 + 256] += np.sum(vals[j0:j0 + 256] / tile, axis=1)
    return b


@pytest.mark.parametrize("kind", ["real", "complex", "sprinkled real", "sprinkled complex"])
@pytest.mark.parametrize("out", [300, 700])
def test_matrix_action_reused_tiles_keep_every_bit(kind, out):
    # 600 coefficients, and with zeros sprinkled about 330 nonzeros: two
    # column chunks, the second partial; 300 and 700 rows end in a partial
    # row tile
    rng = np.random.default_rng(39)
    a = rng.standard_normal(600) + (1j * rng.standard_normal(600) if "complex" in kind else 0.0)
    if "sprinkled" in kind:
        a[rng.random(600) < 0.45] = 0.0
    got = apply_matrix(CoefficientSeries(a, a.size, 0.0), out).coeffs
    want = _fresh_tiles_matrix(a, out)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("size", [256, 2048])
def test_matrix_action_half_log_telescoping_gap(size):
    # Truncating the half-log input after `size` terms drops
    # sum_{k>size odd} 1/(k(n+k+1)) from b_n: nonnegative, largest at n = 0
    # and there below sum_{k>size odd} 1/(k(k+1)) < 1/(2 size).
    out = 1024
    s = taylor_coeffs(TestFunction(Kind.HALF_LOG), size)
    gap = _half_log_image(out) - apply_matrix(s, out).coeffs.real
    assert np.all(gap >= -1e-14)
    assert np.all(np.diff(gap) <= 1e-14)
    assert gap[0] <= 1.0 / (2 * size) + 1e-14


# ---------------------------------------------------------------------------
# integral form and derivative kernels


def test_integral_of_constant():
    fn = TestFunction(Kind.CONSTANT)
    assert apply_integral(fn, 0.0, 1e-10) == pytest.approx(1.0, abs=1e-9)
    # int_0^1 dt/(1 - t/2) = 2 log 2
    assert apply_integral(fn, 0.5, 1e-10) == pytest.approx(2.0 * LOG2, abs=1e-9)


def test_integral_of_half_log_at_origin():
    fn = TestFunction(Kind.HALF_LOG)
    assert apply_integral(fn, 0.0, 1e-10) == pytest.approx(LOG2, abs=1e-9)


def test_derivative_of_constant_at_origin():
    fn = TestFunction(Kind.CONSTANT)
    assert derivative_at(fn, 0.0, 1e-10) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("fn", [
    TestFunction(Kind.CONSTANT),
    TestFunction(Kind.HALF_LOG),
    TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5),
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5),
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 0.5),
], ids=["constant", "halflog", "hardy-0.5", "bloch-1.5", "bloch-0.5"])
@pytest.mark.parametrize("z", [0.3, -0.45, 0.2 + 0.6j, -0.5 - 0.3j, 0.85])
def test_pathshifted_derivative_agrees_with_direct(fn, z):
    direct = derivative_at(fn, z, 1e-9)
    shifted = derivative_at_pathshifted(fn, z, 1e-9)
    assert isinstance(shifted, complex)
    assert abs(direct - shifted) <= 1e-7 * max(1.0, abs(direct))


def _mpmath_derivative(alpha, z):
    """(Hf)'(z) of the Bloch extremal as mpmath.quad of the derivative kernel
    t f(t) / (1 - tz)^2, in u = 1 - t (so 1 - t^2 = u (2 - u) and 1 - tz =
    (1 - z) + uz keep their digits next to t = 1), split at u = 10^k (1 -
    |z|), where 1 - tz and the endpoint singularity of f meet."""
    with mpmath.workdps(30):
        a, w = mpmath.mpf(alpha), mpmath.mpc(z)
        gap = 1 - mpmath.mpf(abs(z))
        cuts = [10 ** k * gap for k in range(9) if 10 ** k * gap < 1]

        def kernel(u):
            f = ((u * (2 - u)) ** (1 - a) - 1) / (2 * (a - 1))
            return (1 - u) * f / ((1 - w) + u * w) ** 2

        return complex(mpmath.quad(kernel, [0] + cuts + [1]))


@pytest.mark.parametrize("alpha", [1.5, 0.5])
@pytest.mark.parametrize("z", [0.99, 1.0 - 1e-6, 0.999 * np.exp(1j * (np.pi - 0.01))],
                         ids=["0.99", "1-1e-6", "near-minus-1"])
def test_pathshifted_bloch_extremal_near_the_boundary_matches_mpmath(alpha, z):
    # the path-shifted form composes the catalog's closed form of the Bloch
    # extremal with log(1 - phi_t(z)); past |z| = 0.85 its (1-t) factor and
    # the pole of 1/d_t(z) near t = 0 both matter
    got = derivative_at_pathshifted(TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, alpha), z,
                                    1e-11)
    want = _mpmath_derivative(alpha, z)
    assert abs(got - want) <= 1e-9 * abs(want)


# ---------------------------------------------------------------------------
# path-shifted derivative on an array of points (one lockstep call)


def _grid_radii():
    _, rs = unit_grid(256)
    return rs[rs > 0.0]


def test_pathshifted_array_constant_matches_closed_form():
    # H1(z) = -log(1-z)/z, so (H1)'(r) = 1/(r(1-r)) + log(1-r)/r^2
    r = _grid_radii()
    got = derivative_at_pathshifted(TestFunction(Kind.CONSTANT), r, 1e-10)
    exact = 1.0 / (r * (1.0 - r)) + np.log1p(-r) / (r * r)
    assert got.shape == r.shape
    assert np.all(np.abs(got - exact) <= 1e-12 * np.abs(exact))


def test_pathshifted_scalar_constant_meets_tol():
    # each point alone meets the tolerance it was given against the closed
    # form, also next to r = 1, where d_t(r) has its pole at distance
    # (1-r)/r from t = 0
    tol = 1e-10
    for r in _grid_radii().tolist():
        got = derivative_at_pathshifted(TestFunction(Kind.CONSTANT), r, tol)
        exact = 1.0 / (r * (1.0 - r)) + np.log1p(-r) / (r * r)
        assert abs(got - exact) <= tol * max(1.0, abs(exact)), r


def test_pathshifted_array_half_log_matches_closed_form():
    r = _grid_radii()
    got = derivative_at_pathshifted(TestFunction(Kind.HALF_LOG), r, 1e-10)
    exact = np.array([_half_log_average_closed(float(x)) / (2.0 * (1.0 - x))
                      for x in r])
    assert np.all(got.imag == 0.0)
    assert np.all(np.abs(got.real - exact) <= 1e-12 * np.abs(exact))


@pytest.mark.parametrize("fn", [
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5),
    TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5),
], ids=["bloch-1.5", "hardy-0.5"])
def test_pathshifted_array_agrees_with_scalar_direct(fn):
    z = np.array([0.3, -0.45, 0.2 + 0.6j, -0.5 - 0.3j, 0.85])
    got = derivative_at_pathshifted(fn, z, 1e-9)
    for zi, value in zip(z, got):
        direct = derivative_at(fn, zi, 1e-9)
        assert abs(direct - value) <= 1e-7 * max(1.0, abs(direct))


@pytest.mark.parametrize("fn", [
    TestFunction(Kind.CONSTANT),
    TestFunction(Kind.HALF_LOG),
    TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5),
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5),
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 0.5),
], ids=["constant", "halflog", "hardy-0.5", "bloch-1.5", "bloch-0.5"])
@pytest.mark.parametrize("operator", [apply_integral, derivative_at,
                                      derivative_at_pathshifted],
                         ids=["integral", "derivative", "pathshifted"])
def test_operator_array_equals_scalar_calls(fn, operator):
    # an array of points is one lockstep integration, each point with the
    # bits of its own scalar call
    z = np.array([0.0, 0.3, -0.45, 0.2 + 0.6j, -0.5 - 0.3j, 0.85, 1.0 - 2.0 ** -20])
    got = operator(fn, z, 1e-9)
    assert got.shape == z.shape
    assert got.tolist() == [operator(fn, zi, 1e-9) for zi in z.tolist()]


@pytest.mark.parametrize("fn", [
    TestFunction(Kind.CONSTANT),
    TestFunction(Kind.HALF_LOG),
    TestFunction(Kind.HARDY_ALPHA_EXTREMAL, 0.5),
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 1.5),
    TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, 0.5),
], ids=["constant", "halflog", "hardy-0.5", "bloch-1.5", "bloch-0.5"])
@pytest.mark.parametrize("operator", [apply_integral, derivative_at,
                                      derivative_at_pathshifted],
                         ids=["integral", "derivative", "pathshifted"])
def test_operator_real_points_in_real_arithmetic(monkeypatch, fn, operator):
    # real points stay float64 and still come back complex128, within 1e-15
    # relative of the complex128 route (complex division multiplies by a
    # reciprocal, so the two differ in the last bits). The path-shifted
    # integrand is then real; the other two divide the catalog's complex
    # f(t) by a real denominator
    r = np.array([0.0, 0.3, -0.45, 0.85, 0.99, 1.0 - 2.0 ** -20])
    if operator is derivative_at and fn.kind is Kind.HALF_LOG:
        r = r[:-1]  # the direct kernel does not converge that close to 1
    kinds = set()

    def recording(f, *args):
        def integrand(k, t):
            values = f(k, t)
            kinds.add(values.dtype.kind)
            return values
        return integrate_singular(integrand, *args)

    with monkeypatch.context() as m:
        m.setattr(hilbertop, "integrate_singular", recording)
        got = operator(fn, r, 1e-9)
    assert kinds == {"f" if operator is derivative_at_pathshifted else "c"}
    want = operator(fn, r.astype(complex), 1e-9)
    assert got.dtype == np.complex128 and got.shape == r.shape
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
    scalar = operator(fn, float(r[1]), 1e-9)
    assert type(scalar) is complex
    assert abs(scalar - want[1]) <= 1e-15 * abs(want[1])


@pytest.mark.parametrize("alpha", [2.0, 2.5])
def test_operator_rejects_divergent_integrand(alpha):
    fn = TestFunction(Kind.BLOCH_ALPHA_EXTREMAL, alpha)
    with pytest.raises(ValueError):
        apply_integral(fn, 0.3, 1e-9)
    with pytest.raises(ValueError):
        derivative_at(fn, 0.3, 1e-9)
    with pytest.raises(ValueError):
        derivative_at_pathshifted(fn, 0.3, 1e-9)
    with pytest.raises(ValueError):
        derivative_at_pathshifted(fn, np.array([0.3]), 1e-9)


@pytest.mark.parametrize("z", [1.0, -1.0, 1.0 + 0.0j, 0.8 + 0.6001j, 2.0])
def test_operator_rejects_points_outside_disk(z):
    fn = TestFunction(Kind.CONSTANT)
    with pytest.raises(ValueError):
        apply_integral(fn, z, 1e-9)
    with pytest.raises(ValueError):
        derivative_at(fn, z, 1e-9)
    with pytest.raises(ValueError):
        derivative_at_pathshifted(fn, z, 1e-9)
    # one point outside the disk rejects the whole array
    for operator in (apply_integral, derivative_at, derivative_at_pathshifted):
        with pytest.raises(ValueError):
            operator(fn, np.array([0.3, z, 0.5]), 1e-9)
