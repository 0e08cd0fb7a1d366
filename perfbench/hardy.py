"""``hardy-series``: H^p norms of seeded random polynomials via hardy_norm.

A round covers the degree range 1..64 in 16 strata of width 4, with two
polynomials per stratum, one for p = 1 and one for p = 2, with complex
normal coefficients.  A run draws MIN_ROUNDS such rounds from the seed and
cycles through them.

Primary rounds, the *exact* half: ``tail_bound == 0``, unweighted.  By
Hardy's convexity theorem the norm is M_p(1, f), which is what a fast path
for exact series would compute.  Secondary rounds, the *swept* half:
log-weighted, or unweighted with no tail certificate; these must keep the
radial sweep.

The cost of a p = 1 norm varies several-fold with how close the zeros of the
polynomial come to the circle, so a run times at least two rounds of each
half (64 norms per half) to keep the run-to-run spread down.  Steps of two
norms alternate between the halves, so both see the same stretches of
machine time.

A norm within tol of its reference passes.  One that misses tol but stays
within ACCEPT x tol, the accuracy the package's own tests accept, counts in
``failed`` but not against ``correct``: hardy_norm(p=1, tol=1e-4) misses by
1-3 x tol on some polynomials of degree 24-64, a known defect recorded
rather than hidden.  Beyond ACCEPT x tol the output is wrong.

References come from this file, not from the package: Parseval for p = 2, a
2^18-point FFT trapezoid rule on the unit circle for p = 1, and for the
log-weighted norms a grid-and-golden-section maximisation of M_p(r)/w(r)
with M_p(r) from Parseval or FFT trapezoid rules.
"""

import itertools
import math

import numpy as np

from common import Part, Workload, close

TOL = 1e-4          # the tolerance h1-upper-internals uses for its norms
# The package's own tests accept hardy_norm values within 10 x tol
# (tests/test_norms.py: rel=1e-4 at tol=1e-5, abs=1e-5 at tol=1e-6).
ACCEPT = 10.0
STRATA = 16
WIDTH = 4
MIN_ROUNDS = 2
BLOCK = 1 << 12     # FFT length of the reference trapezoid rules
ROWS = 16           # FFTs at a time in a reference
# (p, log-weighted, tail bound) of the swept norms on even and odd strata
SWEPT = (((1.0, True, 0.0), (2.0, False, None)),
         ((2.0, True, 0.0), (1.0, False, None)))


def _log_weight(r):
    return 1.0 - 2.0 * np.log1p(-r)


def _mean_abs(rows, n):
    """Mean of |f| over the n-th roots of unity, for the polynomial f of each
    row of ``rows``.  The n points are n // BLOCK turns of the BLOCK-th roots,
    each an FFT of the turned coefficients, taken ROWS at a time: the
    references stay near 1 MB, below what the package itself needs, so they
    do not set the process's peak memory."""
    size = min(n, BLOCK)
    turns = n // size
    twist = np.exp(2j * np.pi / n
                   * np.outer(np.arange(turns), np.arange(rows.shape[1])))
    total = np.zeros(rows.shape[0])
    for start in range(0, rows.shape[0] * turns, ROWS):
        row, turn = np.divmod(
            np.arange(start, min(start + ROWS, rows.shape[0] * turns)), turns)
        block = np.zeros((row.size, size), dtype=complex)
        block[:, :rows.shape[1]] = rows[row] * twist[turn]
        np.add.at(total, row, np.abs(np.fft.fft(block, axis=1)).sum(axis=1))
    return total / n


def _circle_means(coeffs, rs, p, n):
    """M_p(r, f) at each radius in rs by the n-point trapezoid rule (exact
    for p = 2, where it is Parseval's sum)."""
    powers = np.asarray(rs)[:, None] ** np.arange(coeffs.size)
    if p == 2.0:
        return np.sqrt((powers ** 2) @ (np.abs(coeffs) ** 2))
    return _mean_abs(coeffs * powers, n)


def _weighted_sup(coeffs, p):
    """sup over 0 <= r < 1 of M_p(r, f) / (1 - 2 log(1 - r)), on x = -log(1-r)
    in [0, 40]: a 801-point grid, then golden section around its best."""
    top = np.nextafter(1.0, 0.0)

    def objective(xs):
        rs = np.minimum(-np.expm1(-np.asarray(xs, dtype=float)), top)
        return _circle_means(coeffs, rs, p, 1 << 14) / _log_weight(rs)

    xs = np.linspace(0.0, 40.0, 801)
    vals = objective(xs)
    i = int(np.argmax(vals))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = objective([c, d])
    for _ in range(80):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = objective([c])[0]
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = objective([d])[0]
    return max(vals[i], fc, fd)


def reference(coeffs, p, log_weighted):
    if log_weighted:
        return _weighted_sup(coeffs, p)
    return float(_circle_means(coeffs, [1.0], p, 1 << 18)[0])


def draw(rng):
    """The exact and swept cases of one round: lists of (coeffs, p,
    log_weighted, tail_bound)."""
    exact, swept = [], []
    for s in range(STRATA):
        specs = [(exact, (p, False, 0.0)) for p in (1.0, 2.0)]
        specs += [(swept, spec) for spec in SWEPT[s % 2]]
        for cases, spec in specs:
            degree = int(rng.integers(WIDTH * s + 1, WIDTH * (s + 1) + 1))
            coeffs = (rng.standard_normal(degree + 1)
                      + 1j * rng.standard_normal(degree + 1))
            cases.append((coeffs,) + spec)
    return exact, swept


def build(seed, entry, tally):
    import hilbertnorm as hn

    hardy_norm = entry(hn.hardy_norm)
    rng = np.random.default_rng(seed)
    rounds = [draw(rng) for _ in range(MIN_ROUNDS)]

    def part(half):
        """One step is the two norms of one stratum; the steps cycle over
        every stratum of every drawn round."""
        steps = []
        for cases in (r[half] for r in rounds):
            for i in range(0, len(cases), 2):
                pair = cases[i:i + 2]
                inputs = [(hn.CoefficientSeries(c, c.size, tail), p, lw)
                          for c, p, lw, tail in pair]
                refs = [reference(c, p, lw) for c, p, lw, _ in pair]
                steps.append((pair, inputs, refs))
        turn = itertools.cycle(steps)

        def run():
            pair, inputs, refs = next(turn)
            values = [hardy_norm(s, p, lw, TOL) for s, p, lw in inputs]
            return pair, values, refs

        def check(result, tally):
            pair, values, refs = result
            for value, ref, (c, p, lw, tail) in zip(values, refs, pair):
                what = (f"hardy_norm degree {c.size - 1} p={p:g} "
                        f"log_weighted={lw} tail={tail}: {value!r} vs "
                        f"reference {ref!r}, error "
                        f"{abs(value - ref) / (TOL * max(1.0, abs(ref))):.3g}"
                        f" x tol")
                if close(value, ref, TOL):
                    tally.check(True, what)
                elif close(value, ref, ACCEPT * TOL):
                    tally.miss(what)
                else:
                    tally.check(False, what)

        return Part(run, check, min_rounds=MIN_ROUNDS, steps=STRATA)

    return Workload(primary=part(0), secondary=part(1),
                    trace_rounds=MIN_ROUNDS)
