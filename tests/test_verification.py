"""Tests for the verification checks and their shared objectives."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import _fact
from hilbertnorm.verification import (
    CHECK_NAMES,
    DEFAULT_TRUNCATION,
    CheckReport,
    Fact,
    alpha_bound_values,
    alpha_bounds_order,
    alpha_lower_bound,
    alpha_unboundedness_witness,
    alpha_upper_bound,
    bloch_a_objective,
    bloch_b_objective,
    compute_B,
    gamma_identities,
    h1_sup_objective,
    hinf_norm,
    hinf_objective,
    hinf_sup_objective,
    modulus_mean_bands,
    norm_bloch_to_blochlog,
    representation_agreement,
    unboundedness_profile,
)
from hilbertnorm import hilbertop, verification
from hilbertnorm.supsearch import AT_ZERO, unit_grid
from hilbertnorm.verification import (
    _half_log_average,
    _half_log_average_closed,
    _half_log_image,
    _kernel_average,
    _kernel_average_closed,
)

PI_HALF_MINUS_HALF = math.pi / 2.0 - 0.5

# The 30-digit maximum of the closed-form B objective (the closed form
# evaluated in mpmath and maximized there), at x* = -log(1 - r*).
B_30_DIGITS = 1.20487555509884680
B_X_STAR = 6.24644955993


def _report(verify_run, name):
    reports, _ = verify_run
    return next(r for r in reports if r.name == name)


# The full detail of three checks whose stderr lines print closed forms or
# values to 6 digits, so that they read the same on every host.
PINNED_DETAIL = {
    "alpha-bounds-order": (
        "largest L - U gap -4.0692 at alpha = 1.4; "
        "1.1: L=0.614677 U=11.2775; 1.2: L=0.68661 U=6.5948; "
        "1.3: L=0.778639 U=5.31179; 1.4: L=0.90073 U=4.96993; "
        "1.5: L=1.0708 U=5.14159; 1.6: L=1.32462 U=5.80327; "
        "1.7: L=1.74563 U=7.21656; 1.8: L=2.58395 U=10.3448; "
        "1.9: L=5.08975 U=20.1664"),
    "alpha-unbounded-2.5": (
        "partial integrals of the extremal profile: value 22.6108 at j=10 "
        "grows to 724.077 at j=20 (factor 32.02); strictly increasing: True"),
    "modulus-mean-bands": "all 28 grid cells sit inside their bands",
}


@pytest.mark.parametrize("name", sorted(PINNED_DETAIL))
def test_detail_pinned_byte_for_byte(verify_run, name):
    assert _report(verify_run, name).detail == PINNED_DETAIL[name]


def test_report_verdict_and_detail_come_from_its_facts(verify_run):
    # passed is the conjunction of the facts and detail the "; "-join of
    # their non-empty texts, a failing fact's marked with its name
    holds = Fact("holds", 1.0, 1.0, 0.0, True, "one is one")
    quiet = Fact("quiet", 2.0, 2.0, 0.0, True)
    fails = Fact("fails", 3.0, 1.0, 0.0, False, "three is not one")
    mute = Fact("mute", 4.0, 1.0, 0.0, False)
    rep = CheckReport("c", 1.0, 1.0, 0.0, (holds, quiet))
    assert rep.passed and rep.detail == "one is one"
    rep = CheckReport("c", 1.0, 1.0, 0.0, (holds, fails, quiet, mute))
    assert not rep.passed
    assert rep.detail == "one is one; FAILED fails: three is not one; FAILED mute"
    for rep in verify_run[0]:
        assert rep.passed == all(fact.passed for fact in rep.facts), rep.name
        assert rep.detail == "; ".join(
            fact.text for fact in rep.facts if fact.text), rep.name


def test_report_without_facts_is_rejected():
    # all(()) is True, so a report of no facts would pass untested
    with pytest.raises(ValueError, match="no facts"):
        CheckReport("c", 1.0, 1.0, 0.0, ())


def test_check_names_registry():
    assert CHECK_NAMES == (
        "bloch-A-constant",
        "bloch-B-constant",
        "bloch-to-blochlog-norm",
        "alpha-lower-bound-1.5",
        "alpha-upper-bound-1.5",
        "alpha-bounds-order",
        "alpha-unbounded-0.5",
        "alpha-unbounded-2",
        "alpha-unbounded-2.5",
        "h1-upper-internals",
        "h1-lower-bound-0.5",
        "h1-lower-bound-0.99",
        "hinf-norm",
        "series-integral-agreement",
        "modulus-mean-bands",
        "gamma-identities",
    )


# ---------------------------------------------------------------------------
# shared objectives


def test_h1_sup_objective_values():
    assert h1_sup_objective(0.0) == 1.0
    assert h1_sup_objective(1e8) == pytest.approx(1.0, abs=1e-7)
    # interior values stay strictly below the limits
    assert h1_sup_objective(1.0) < 1.0


def test_hinf_sup_objective_values():
    assert hinf_sup_objective(0.0) == 1.0
    assert hinf_sup_objective(1e8) == pytest.approx(0.5, abs=1e-7)
    # the objective dips below its x -> infinity limit at moderate x
    assert 0.0 < hinf_sup_objective(2.0) < 0.5


def test_hinf_objective_values():
    assert hinf_objective(0.0) == 1.0
    assert hinf_objective(0.5) < 1.0


# The value at 0 of the objective of each supremum_unit and
# supremum_halfline call a check makes, in call order: the limit value the
# searches once took beside the objective, which the objective now returns
# itself, bit for bit.
VALUES_AT_ZERO = {
    "compute_A": [0.5],
    "compute_B": [1.0],
    "alpha_upper_bound": [1.0],
    "h1_upper_bound_internals": [1.0],
    "hinf_norm": [1.0, 1.0],
}


def test_searched_objectives_own_their_value_at_zero(monkeypatch):
    a_report = verification.compute_A(1e-8)
    seen = []
    for name in ("supremum_unit", "supremum_halfline"):
        def recorded(g, *args, _search=getattr(verification, name), **kwargs):
            seen.append(g(np.array([0.0])).tolist()[0])
            return _search(g, *args, **kwargs)

        monkeypatch.setattr(verification, name, recorded)
    runs = {
        "compute_A": lambda: verification.compute_A(1e-8),
        "compute_B": lambda: verification.compute_B(1e-8, a_report),
        "alpha_upper_bound": lambda: verification.alpha_upper_bound(1.5),
        "h1_upper_bound_internals":
            lambda: verification.h1_upper_bound_internals(1e-8),
        "hinf_norm": lambda: verification.hinf_norm(1e-8),
    }
    for name, run in runs.items():
        seen.clear()
        assert run().passed
        assert seen == VALUES_AT_ZERO[name], name
    # the scalar closed forms keep their scalar value at 0
    for objective in (h1_sup_objective, hinf_sup_objective, hinf_objective):
        assert objective(0.0) == 1.0 and type(objective(0.0)) is float
    assert _half_log_average_closed(0.0) == 1.0


def test_bloch_a_objective_at_zero():
    assert bloch_a_objective(1e-10)(0.0) == pytest.approx(0.5, abs=1e-12)


def test_bloch_b_objective_is_finite():
    val = bloch_b_objective(1e-9)(0.5)
    assert math.isfinite(val)
    assert val > 0.0


def test_closed_averages_match_quadrature():
    # every 8th radius of the search grid, r = 0 excluded (the half-log
    # closed form returns its limit there)
    for r in unit_grid()[1][8::8]:
        r = float(r)
        assert abs(_kernel_average_closed(r)
                   - _kernel_average(r, 1e-13)) <= 1e-12, r
        assert abs(_half_log_average_closed(r)
                   - _half_log_average(r, 1e-13)) <= 1e-12, r


def _half_log_average_mp(r):
    """The closed form of the half-log average at 30 digits."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        a, c = 1 - r, 1 + r
        la = mpmath.log(a)
        big_i = (-(mpmath.log(c) - mpmath.log(r)) * la - la * la / 2
                 + mpmath.polylog(2, a / c) - mpmath.polylog(2, 1 / c))
        t1 = ((2 * mpmath.log(2) - a * la) / c - 1) / r - (a / r ** 2) * big_i
        t2 = -la * (1 / r + a * la / r ** 2)
        t3 = 1 / r - a * mpmath.polylog(2, r) / r ** 2
        return float(t1 + t2 + t3)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.998063, 1.0 - 1e-7])
def test_half_log_average_closed_matches_mpmath(r):
    # the float terms cancel like 1/r^2, so small r keeps fewer digits
    assert abs(_half_log_average_closed(r) - _half_log_average_mp(r)) <= 1e-13


def test_kernel_average_closed_branches_meet():
    # the series below 1/2 and the logarithmic form above agree at the switch
    r = 0.5
    assert _kernel_average_closed(r) == pytest.approx(
        1.0 / r + ((1.0 - r) / (r * r)) * math.log1p(-r), rel=1e-15)
    assert _kernel_average_closed(r) == pytest.approx(
        2.0 - 2.0 * math.log(2.0), rel=1e-15)
    assert _kernel_average_closed(1e-9) == pytest.approx(0.5, abs=1e-9)


def test_compute_b_fails_when_closed_form_drifts(monkeypatch):
    # the quadrature cross-check is part of the verdict: a closed form off by
    # 1e-6 moves B by far less than its interval but must fail the check
    closed = verification._half_log_average_closed
    monkeypatch.setattr(verification, "_half_log_average_closed",
                        lambda r: closed(r) + 1e-6)
    rep = compute_B(1e-8)
    assert [fact.name for fact in rep.facts if not fact.passed] == ["cross-check"]
    assert _fact(rep, "cross-check").value == pytest.approx(1e-6, rel=1e-3)
    # the failing fact is named on the detail line
    assert ("; FAILED cross-check: quadrature average off the closed form by "
            "at most 1.00e-06 at x* and") in rep.detail


# ---------------------------------------------------------------------------
# closed-form bounds for the power weights


def test_alpha_bound_values_frozen():
    lower, upper = alpha_bound_values(1.5)
    assert lower == pytest.approx(PI_HALF_MINUS_HALF, abs=1e-14)
    assert upper == pytest.approx(math.pi + 2.0, abs=1e-14)
    lower, upper = alpha_bound_values(1.1)
    assert lower == pytest.approx(0.614677076764987305, rel=1e-12)
    assert upper == pytest.approx(11.2775184957416307, rel=1e-12)
    lower, upper = alpha_bound_values(1.9)
    assert lower == pytest.approx(5.08974638200437113, rel=1e-12)
    assert upper == pytest.approx(20.1664073846305196, rel=1e-12)


def test_alpha_bound_lower_poles_cancel_near_one():
    # both terms of L blow up as alpha -> 1+ but their sum stays bounded:
    # the value at 1.001 is *below* the value at 1.5
    near_one, _ = alpha_bound_values(1.001)
    mid, _ = alpha_bound_values(1.5)
    assert near_one == pytest.approx(0.557375021055648264, rel=1e-10)
    assert near_one < mid


@pytest.mark.parametrize("alpha", [0.9, 1.0, 1.0005, 1.9995, 2.0, 2.5])
def test_alpha_window_rejected(alpha):
    with pytest.raises(ValueError):
        alpha_bound_values(alpha)
    with pytest.raises(ValueError):
        alpha_upper_bound(alpha)


def test_alpha_window_endpoints_accepted():
    alpha_bound_values(1.001)
    alpha_bound_values(1.999)


def test_alpha_upper_bound_report():
    rep = alpha_upper_bound(1.5)
    assert isinstance(rep, CheckReport)
    assert rep.name == "alpha-upper-bound-1.5"
    assert rep.passed
    assert rep.computed == pytest.approx(math.pi + 2.0, abs=1e-12)


def test_alpha_bounds_order_default_grid():
    rep = alpha_bounds_order()
    assert rep.passed
    assert rep.computed == pytest.approx(-4.0692023001415878, rel=1e-10)
    assert rep.computed < 0.0


def test_alpha_bounds_order_custom_grid():
    rep = alpha_bounds_order((1.3, 1.5))
    assert rep.passed
    assert rep.computed < 0.0


@pytest.mark.parametrize("grid", [(), [], iter(())])
def test_alpha_bounds_order_rejects_an_empty_grid(grid):
    # an empty grid has no largest gap; it once failed on formatting None
    with pytest.raises(ValueError, match="non-empty alpha grid"):
        alpha_bounds_order(grid)


def test_alpha_lower_bound_report(verify_run):
    rep = _report(verify_run, "alpha-lower-bound-1.5")
    assert rep.passed
    assert rep.computed == pytest.approx(PI_HALF_MINUS_HALF, abs=1e-8)


def test_alpha_lower_bound_certifies_radial_reduction_off_grid():
    # the radial reduction rests on the sign of the Taylor coefficients, not
    # on a scan at one alpha, so every alpha of the window carries it
    rep = alpha_lower_bound(1.2, 1e-8)
    assert rep.passed
    assert rep.name == "alpha-lower-bound-1.2"
    radial = _fact(rep, "radial reduction")
    assert radial.passed and radial.value is True
    assert "(the 2048 Taylor coefficients of f" in radial.text


# ---------------------------------------------------------------------------
# unboundedness witnesses


def test_unboundedness_profile_shape():
    js, rs, vals = unboundedness_profile(0.5)
    assert js.shape == rs.shape == vals.shape == (20,)
    assert js[0] == 1 and js[-1] == 20
    assert rs[0] == 0.5
    assert rs[-1] == 1.0 - 0.5 ** 20
    assert np.all(np.diff(vals) > 0.0)


def test_unboundedness_profile_partial_integrals():
    _, _, vals = unboundedness_profile(2.5)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] > 10.0 * vals[9]


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
def test_unboundedness_profile_domain(alpha):
    with pytest.raises(ValueError):
        unboundedness_profile(alpha)


def test_unboundedness_witness_reports():
    rep = alpha_unboundedness_witness(0.5)
    assert rep.passed
    assert rep.computed == pytest.approx(17.760522725163636, rel=1e-9)
    rep = alpha_unboundedness_witness(2.0)
    assert rep.passed
    assert rep.computed == pytest.approx(1.9092131425856158, rel=1e-9)
    rep = alpha_unboundedness_witness(2.5)
    assert rep.passed
    assert rep.computed == pytest.approx(32.023436550659873, rel=1e-9)


# ---------------------------------------------------------------------------
# individual check reports


def test_compute_a_report(verify_run):
    rep = _report(verify_run, "bloch-A-constant")
    assert rep.passed
    assert rep.computed == pytest.approx(1.5, abs=1e-9)
    assert _fact(rep, "maximizer").value == AT_ZERO


def test_compute_b_report(verify_run):
    rep = _report(verify_run, "bloch-B-constant")
    assert rep.passed
    assert abs(rep.computed - B_30_DIGITS) <= 1e-8
    assert _fact(rep, "cross-check").value <= 1e-8
    assert math.log(2.0) < rep.computed < 2.0 * math.log(2.0)
    assert rep.computed < 1.5


def test_compute_b_meets_30_digit_value():
    # refinement stops on its bracket alone; golden section that stopped
    # once its two interior values agreed left B 3.8e-9 short on the flat
    # peak
    assert abs(compute_B(1e-8).computed - B_30_DIGITS) <= 1e-12


def test_compute_b_finds_x_star():
    # the same stop reported x* = 6.24914, 2.7e-3 off the peak
    rep = compute_B(1e-8)
    x_star = float(re.search(r"x\* = (\S+)", _fact(rep, "interval").text).group(1))
    assert abs(x_star - B_X_STAR) <= 1e-5


@pytest.mark.parametrize("objective", [bloch_a_objective, bloch_b_objective],
                         ids=["A", "B"])
def test_growth_objectives_map_arrays_like_scalars(objective):
    # an array of radii is one integration whose every value has the bits of
    # the scalar call at that radius
    rs = unit_grid(64)[1]
    g = objective(1e-10)
    values = g(rs)
    assert values.shape == rs.shape
    assert values.tolist() == [g(r) for r in rs.tolist()]


def test_norm_bloch_to_blochlog_report():
    rep = norm_bloch_to_blochlog(1e-8)
    assert rep.passed
    assert rep.computed == pytest.approx(1.5, abs=1e-6)


@pytest.mark.parametrize("check", [
    lambda: norm_bloch_to_blochlog(1e-8),
    lambda: alpha_lower_bound(1.5, 1e-8),
], ids=["bloch-to-blochlog-norm", "alpha-lower-bound-1.5"])
def test_log_bloch_witness_is_one_lockstep_sweep(monkeypatch, check):
    # the witness grid goes through the derivative's array route, one
    # lockstep call with a member per grid radius; a grid maximum at r = 0
    # takes one more call on at most 7 radii below the second grid radius,
    # and Brent refinement calls it on one radius at a time; those, |Hf(0)|
    # and derivative_at are one-member calls and are not counted, so a sweep
    # of scalar calls makes no call with 200 members
    sweeps = []
    real = hilbertop.integrate_singular

    def counted(f, a, *args, **kwargs):
        if np.size(a) > 1:
            sweeps.append(np.size(a))
        return real(f, a, *args, **kwargs)

    monkeypatch.setattr(hilbertop, "integrate_singular", counted)
    assert check().passed
    grids = sum(size >= 200 for size in sweeps)
    probes = [size for size in sweeps if size < 200]
    assert 1 <= grids <= 2
    assert len(probes) <= grids and all(size <= 7 for size in probes)


def test_hinf_norm_report():
    rep = hinf_norm(1e-8)
    assert rep.passed
    assert rep.computed == pytest.approx(1.0, abs=1e-10)


def test_h1_lower_bound_report(verify_run):
    rep = _report(verify_run, "h1-lower-bound-0.5")
    assert rep.passed
    assert rep.computed == pytest.approx(1.6944261753566803, abs=1e-9)
    assert "(AtZero at r = 0)" in _fact(rep, "ratio").text
    # the detail accounts for the work of the numerator search: the grid
    # is one call, and its maximum at r = 0 one more on 7 radii below the
    # second grid radius; the radii evaluated include every grid radius
    counts = re.search(r"(\d+) objective calls over (\d+) radii, (\d+) "
                       r"circle-mean integrand values",
                       _fact(rep, "cross-check").text)
    calls, radii, values = (int(v) for v in counts.groups())
    assert radii >= 64
    assert calls <= 2
    # on the incomplete-beta closed form, all grid radii in one lockstep
    # integration, the search spends 6,930 values; the quadrature route, a
    # profile integral at every angle, spent 1,904,940 with the sinh
    # substitution of the angular spike and 3,467,370 with the power
    # substitution of an endpoint exponent -1/2
    assert 0 < values <= 50_000


def test_h1_lower_bound_099_values_budget(verify_run):
    # the ratio is not pinned: the denominator's swept H^1 norm is low at
    # alpha = 0.99 (ROADMAP item 1), and the detail shows it next to the
    # boundary mean Gamma(1-a)/Gamma(1-a/2)^2 it should reach.  The
    # numerator search runs on the incomplete-beta closed form and spends
    # 8,130 values.  The quadrature route, now the cross-check, spent
    # 2,420,100 on the search with the angular spike declared as a near
    # singularity at distance (1-r)/sqrt(r), and 7,496,010 with it declared
    # as the endpoint exponent -alpha, with theta = pi s^100.
    rep = _report(verify_run, "h1-lower-bound-0.99")
    assert rep.passed
    ratio = _fact(rep, "ratio").text
    assert "(AtZero at r = 0)" in ratio
    shown = re.search(r"denominator ([\d.]+) \(boundary mean "
                      r"Gamma\(1-a\)/Gamma\(1-a/2\)\^2 = ([\d.]+)\)", ratio)
    reference = math.gamma(0.01) / math.gamma(1.0 - 0.99 / 2.0) ** 2
    assert float(shown.group(2)) == pytest.approx(reference, rel=1e-8)
    # the means M_1(r) rise to the boundary mean, so no sweep exceeds it
    assert 0.0 < float(shown.group(1)) <= reference
    values = re.search(r"(\d+) circle-mean integrand values",
                       _fact(rep, "cross-check").text)
    assert 0 < int(values.group(1)) <= 50_000


@pytest.mark.parametrize("alpha", [0.5, 0.99])
def test_h1_lower_bound_fails_when_the_cross_check_disagrees(monkeypatch, alpha):
    # the quadrature route cross-checks the closed-form means the search
    # runs on; a difference of 1e-5 relative fails the check, though the
    # ratio still clears its floor
    real = verification._h1_numerator_mean

    def off(a, r):
        mean, values = real(a, r)
        return mean * (1.0 + 1e-5), values

    monkeypatch.setattr(verification, "_h1_numerator_mean", off)
    rep = verification.h1_lower_bound(alpha, 1e-8)
    assert [fact.name for fact in rep.facts if not fact.passed] == ["cross-check"]
    assert rep.computed >= rep.target[0]
    assert _fact(rep, "cross-check").value == pytest.approx(1e-5, rel=1e-3)


@pytest.mark.parametrize("alpha", [0.5, 0.99])
def test_h1_lower_bound_integrates_hf0_once(monkeypatch, alpha):
    # the numerator's value at r = 0 is the operator integral Hf(0), taken
    # once before the search, not again at each objective call
    calls = []
    real = verification.apply_integral

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verification, "apply_integral", counted)
    rep = verification.h1_lower_bound(alpha, 1e-8)
    assert rep.passed
    assert len(calls) == 1 and calls[0][1] == 0.0
    assert int(re.search(r"numerator search: (\d+) objective calls",
                         _fact(rep, "cross-check").text).group(1)) > 1


def test_gamma_identities_report():
    rep = gamma_identities(1e-8)
    assert rep.passed
    assert rep.computed <= 1e-12


def test_modulus_mean_bands_report():
    rep = modulus_mean_bands(1e-8)
    assert rep.passed


def test_half_log_image_matches_digamma():
    # b_n = (psi(n/2 + 1) - psi(1/2)) / (2 (n + 1)) from mpmath, against the
    # two cumulative sums of the closed form
    n = 1 << 16
    psi_half = mpmath.digamma(mpmath.mpf(0.5))
    want = np.array([float((mpmath.digamma(mpmath.mpf(k) / 2 + 1) - psi_half)
                           / (2 * (k + 1))) for k in range(n)])
    got = _half_log_image(n)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_representation_agreement_report(verify_run):
    rep = _report(verify_run, "series-integral-agreement")
    assert rep.passed
    assert rep.computed <= 1e-11
    gap = _fact(rep, "truncation gap")
    assert gap.passed and gap.target == (0.0, 0.5 / DEFAULT_TRUNCATION)
    low, high = gap.value
    assert -1e-14 <= low <= high <= 0.5 / DEFAULT_TRUNCATION + 1e-14
    assert f"first {DEFAULT_TRUNCATION} half-log coefficients" in gap.text


@pytest.mark.parametrize("truncation", [DEFAULT_TRUNCATION, 1 << 16])
def test_representation_agreement_memory(truncation):
    # the exact image needs no long input series, and the matrix action on
    # the half-log input has a fixed output order: a few MB at any
    # truncation (one 256-column chunk of 2^16 outputs alone is 128 MB)
    tracemalloc.start()
    try:
        representation_agreement(1e-8, truncation=truncation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("check", [verification.h1_upper_bound_internals,
                                   representation_agreement])
def test_check_keeps_no_large_temporary(check):
    # the 10^6 telescoping terms are summed block by block in two reused
    # arrays of 2^16 doubles, and the matrix action takes 256 x 256 tiles;
    # a full-size temporary of either is 8 MB
    tracemalloc.start()
    try:
        assert check(1e-8).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_representation_agreement_truncation_too_small():
    # with only 16 output coefficients the constant input cannot reproduce
    # the integral form; the check must fail gracefully with a finite
    # residual, not raise
    rep = representation_agreement(1e-8, truncation=16)
    assert [fact.name for fact in rep.facts if not fact.passed] == ["residuals"]
    assert math.isfinite(rep.computed)
    assert rep.computed > 1e-6
    assert "output order 16" in _fact(rep, "truncation gap").text


# ---------------------------------------------------------------------------
# suite driver: a non-convergent check keeps its partial result


def test_run_all_keeps_the_partial_result(monkeypatch):
    # one registered check raises each typed error; run_all reports it as
    # failed with nan, and the report carries what the error carried
    from hilbertnorm.quadrature import QuadResult, QuadratureError
    from hilbertnorm.supsearch import DivergenceError

    partial = QuadResult(1.25, 3e-7, 465)
    witness = [(9.0, 12.5), (10.0, 140.0)]

    def stalls(run):
        raise QuadratureError("no convergence after 9 panels", partial, 0)

    def diverges(run):
        raise DivergenceError("objective grows", witness=witness)

    def bare(run):
        raise QuadratureError("integrand not finite", member=2)

    name, check = verification._CHECKS[-1]
    checks = verification._CHECKS[:-1]
    for raising, want, message in (
            (stalls, partial, "no convergence after 9 panels"),
            (diverges, witness, "objective grows"),
            (bare, None, "integrand not finite")):
        monkeypatch.setattr(verification, "_CHECKS", ((name, raising),))
        (report,) = verification.run_all()
        assert report.name == name and not report.passed
        assert math.isnan(report.computed) and math.isnan(report.target)
        (fact,) = report.facts
        assert (fact.name, fact.passed, fact.text) == (
            "numerical non-convergence", False, message)
        assert report.detail == f"FAILED numerical non-convergence: {message}"
        assert report.partial == want
    monkeypatch.setattr(verification, "_CHECKS", checks[-1:] + ((name, check),))
    assert [r.partial for r in verification.run_all()] == [None, None]
