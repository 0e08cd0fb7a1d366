"""Acceptance suite: the twelve release criteria.

Each criterion is one test function, so `pytest -v` prints exactly one
pass/fail line per criterion; every test also prints a `criterion NN:
PASS|FAIL` summary line with the measured quantities (shown with `-s`, or in
the captured output of a failing run).

The full verification suite runs once per session (the verify_run fixture
of conftest.py, shared with the golden record test); criteria 1, 2, and 10
time or parameterize their checks and therefore run them separately.
"""

import math
import time

import numpy as np
import pytest

from conftest import _fact
from hilbertnorm.catalog import CoefficientSeries
from hilbertnorm.norms import hardy_norm
from hilbertnorm.specfun import gamma, log_weight
from hilbertnorm.supsearch import pointwise, supremum_unit
from hilbertnorm.verification import (
    alpha_bound_values,
    compute_A,
    compute_B,
    hinf_sup_objective,
    representation_agreement,
)

LOG2 = math.log(2.0)


def _line(num, ok, text):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


@pytest.fixture(scope="module")
def suite(verify_run):
    reports, elapsed = verify_run
    return {r.name: r for r in reports}, elapsed


@pytest.fixture(scope="module")
def a_timed():
    t0 = time.perf_counter()
    rep = compute_A(1e-8)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def b_timed():
    t0 = time.perf_counter()
    rep = compute_B(1e-8)
    return rep, time.perf_counter() - t0


def test_criterion_01_constant_witness_constant(a_timed):
    rep, dt = a_timed
    ok = rep.passed and abs(rep.computed - 1.5) <= 1e-6 and dt < 1.0
    assert _line(1, ok, f"A = {rep.computed:.12g} (target 3/2, tol 1e-6), "
                        f"maximizer at r -> 0, {dt:.2f}s < 1s")
    assert abs(rep.computed - 1.5) <= 1e-6
    assert rep.passed  # includes the r -> 0 maximizer classification
    assert dt < 1.0


def test_criterion_02_halflog_witness_constant(a_timed, b_timed):
    a_rep, _ = a_timed
    rep, dt = b_timed
    in_window = LOG2 <= rep.computed <= 2.0 * LOG2 + 1e-6
    ok = rep.passed and in_window and rep.computed < a_rep.computed and dt < 5.0
    assert _line(2, ok, f"B = {rep.computed:.12g} in [log 2, 2 log 2], "
                        f"B < A = {a_rep.computed:.12g}, {dt:.2f}s < 5s")
    assert in_window
    assert rep.computed < a_rep.computed
    assert rep.passed
    assert dt < 5.0


def test_criterion_03_bloch_to_blochlog_norm(suite):
    reports, _ = suite
    rep = reports["bloch-to-blochlog-norm"]
    ok = rep.passed and abs(rep.computed - 1.5) <= 1e-6
    assert _line(3, ok, f"operator norm {rep.computed:.12g} (target 3/2, "
                        f"tol 1e-6); constant witness within 1e-4")
    assert abs(rep.computed - 1.5) <= 1e-6
    assert rep.passed  # includes the constant-witness lower bound


def test_criterion_04_hinf_norm_and_limit(suite):
    reports, _ = suite
    rep = reports["hinf-norm"]
    limit_gap = abs(hinf_sup_objective(1e12) - 0.5)
    ok = rep.passed and abs(rep.computed - 1.0) <= 1e-8 and limit_gap <= 1e-8
    assert _line(4, ok, f"norm {rep.computed:.12g} (target 1, tol 1e-8); "
                        f"objective limit at infinity off 1/2 by "
                        f"{limit_gap:.2e}")
    assert abs(rep.computed - 1.0) <= 1e-8
    assert limit_gap <= 1e-8
    assert rep.passed


def test_criterion_05_alpha_bound_closed_forms(suite):
    reports, _ = suite
    lower = reports["alpha-lower-bound-1.5"]
    upper = reports["alpha-upper-bound-1.5"]
    order = reports["alpha-bounds-order"]
    l_target = math.pi / 2.0 - 0.5
    u_target = math.pi + 2.0
    ok = (lower.passed and abs(lower.computed - l_target) <= 1e-8
          and upper.passed and abs(upper.computed - u_target) <= 1e-10
          and order.passed and order.computed <= 0.0)
    assert _line(5, ok, f"L(1.5) = {lower.computed:.12g} vs pi/2 - 1/2 "
                        f"(tol 1e-8); U(1.5) = {upper.computed:.12g} vs "
                        f"pi + 2 (tol 1e-10); L <= U on the grid "
                        f"(worst gap {order.computed:.4g})")
    assert abs(lower.computed - l_target) <= 1e-8
    assert abs(upper.computed - u_target) <= 1e-10
    assert lower.passed and upper.passed and order.passed


def test_criterion_06_direct_ratio_in_bracket(suite):
    reports, _ = suite
    rep = reports["alpha-lower-bound-1.5"]
    ratio = _fact(rep, "direct ratio").value
    lower, upper = alpha_bound_values(1.5)
    ok = rep.passed and lower - 1e-4 <= ratio <= upper + 1e-4
    assert _line(6, ok, f"measured ratio {ratio:.9g} inside "
                        f"[{lower:.9g} - 1e-4, {upper:.9g} + 1e-4]")
    assert lower - 1e-4 <= ratio <= upper + 1e-4
    assert rep.passed


def test_criterion_07_unboundedness_witnesses(suite):
    reports, _ = suite
    reps = [reports[f"alpha-unbounded-{a}"] for a in ("0.5", "2", "2.5")]
    factors = [r.computed for r in reps]
    ok = (all(r.passed for r in reps)
          and factors[0] > 10.0 and factors[2] > 10.0 and factors[1] > 1.0)
    assert _line(7, ok, "growth factors over the last ten doublings: "
                        f"{factors[0]:.4g} (alpha 0.5), {factors[1]:.4g} "
                        f"(alpha 2, log-rate), {factors[2]:.4g} (alpha 2.5)")
    assert factors[0] > 10.0
    assert factors[1] > 1.0  # logarithmic growth at the window edge
    assert factors[2] > 10.0
    assert all(r.passed for r in reps)


def test_criterion_08_h1_upper_internals(suite):
    reports, _ = suite
    rep = reports["h1-upper-internals"]
    ok = rep.passed
    assert _line(8, ok, "telescoping identity, supremum value 1, and the "
                        "coefficient-inequality sweep over 100 seeded "
                        "polynomials all hold")
    assert rep.passed


def test_criterion_09_h1_lower_floor(suite):
    reports, _ = suite
    rep = reports["h1-lower-bound-0.99"]
    alpha = 0.99
    floor = gamma((2.0 - alpha) / 2.0) ** 2 / gamma(2.0 - alpha)
    near_pi = abs(floor - math.pi)
    ok = rep.passed and near_pi < 0.05 and rep.computed >= floor - 1e-3
    assert _line(9, ok, f"floor {floor:.12g} is {near_pi:.4f} from pi "
                        f"(< 0.05); measured ratio {rep.computed:.12g} >= "
                        f"floor - 1e-3")
    assert near_pi < 0.05
    assert rep.computed >= floor - 1e-3
    assert rep.passed


def test_criterion_10_series_integral_agreement():
    rep = representation_agreement(1e-8, truncation=4096)
    ok = rep.passed and rep.computed < 1e-6
    assert _line(10, ok, f"worst residual {rep.computed:.4g} < 1e-6 over 20 "
                         f"points, |z| <= 0.95, output order 4096")
    assert rep.computed < 1e-6
    assert rep.passed


def test_criterion_11_band_and_reflection_identities(suite):
    reports, _ = suite
    bands = reports["modulus-mean-bands"]
    idents = reports["gamma-identities"]
    ok = bands.passed and idents.passed and idents.computed <= 1e-8
    assert _line(11, ok, "modulus-mean bands hold on the full (c, r) grid; "
                         "reflection identity < 1e-12 at ten points; "
                         "two-endpoint integral matches pi/sin(pi a) to "
                         f"{idents.computed:.2e}")
    assert bands.passed
    assert idents.passed
    assert idents.computed <= 1e-8


def test_criterion_12_property_suite_and_runtime(suite):
    reports, elapsed = suite

    # supremum search dominates a random validation grid
    rng = np.random.default_rng(7321)
    for _ in range(5):
        a, b = rng.uniform(0.5, 3.0, size=2)
        c = rng.uniform(1.0, 6.0)

        def g(r):
            return a * math.sin(c * r) + b * r * (1.0 - r)

        res = supremum_unit(pointwise(g), 1e-9)
        probes = rng.uniform(0.0, 1.0 - 1e-9, size=200)
        best = max(g(float(r)) for r in probes)
        assert res.value >= best - 1e-6 * max(1.0, abs(best))

    # the logarithmic weight is 1 at the origin and nondecreasing
    rs = np.sort(rng.uniform(0.0, 1.0 - 1e-12, size=64))
    ws = np.asarray(log_weight(rs), dtype=float)
    assert float(log_weight(0.0)) == 1.0
    assert np.all(ws >= 1.0)
    assert np.all(np.diff(ws) >= 0.0)

    # log-weighting never increases an integral-mean norm
    for _ in range(3):
        deg = int(rng.integers(1, 7))
        coeffs = rng.standard_normal(deg + 1)
        s = CoefficientSeries(coeffs, deg + 1, 0.0)
        unweighted = hardy_norm(s, 2.0, False, 1e-4)
        weighted = hardy_norm(s, 2.0, True, 1e-4)
        assert weighted <= unweighted + 1e-8

    # the path-shifted derivative takes logarithms of 1 - phi_t(z) and
    # 1 + phi_t(z); both ratios lie in the right half-plane, off the cut
    for _ in range(200):
        t = float(rng.uniform(0.01, 0.99))
        r = float(rng.uniform(0.0, 0.999))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        z = r * complex(math.cos(theta), math.sin(theta))
        d = (1.0 - z) + t * z
        assert ((1.0 - t) * (1.0 - z) / d).real > 0.0
        assert (((1.0 - z) + t * (1.0 + z)) / d).real > 0.0

    failed = [name for name, rep in reports.items() if not rep.passed]
    ok = not failed and elapsed < 120.0
    assert _line(12, ok, f"four search/weight/norm/path-ratio properties hold; "
                         f"all {len(reports)} checks passed in {elapsed:.1f}s "
                         f"< 120s")
    assert failed == []
    assert elapsed < 120.0
