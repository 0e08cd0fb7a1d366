"""Adaptive definite integration with error control.

One embedded Gauss-Kronrod 7/15 pair drives everything: plain adaptive
bisection for smooth integrands, a power-substitution front end for declared
endpoint singularities, a sinh substitution for a declared near singularity
just outside the left end, and a rational map for half-line integrals.
Integrand callables take arrays: they receive an ndarray of abscissae and
must return an ndarray of values (real or complex) of the same shape.

One heap engine refines the panels: it refines each integral by splitting
its worst panel, QUADPACK's qag strategy. It refines many independent
members in lockstep: each round splits the worst panel of every member
still above its budget and evaluates all their halves in one integrand
call, while each member keeps its own panels and stop test. A narrow call
keeps each member's panels in a heap; a wide one keeps all panels in flat
arrays and does each round's bookkeeping in array operations. A scalar
integral is the one-member case, and each member's mesh and value are
those of its one-member call, bit for bit, in either form. A narrow call
of one or two members speculates: the call that evaluates the halves of a
split panel also evaluates the panels below them, for later rounds to take
without a call, with every mesh and bit unchanged.
"""

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

import numpy as np

__all__ = [
    "QuadResult",
    "SingularitySpec",
    "QuadratureError",
    "integrate",
    "integrate_singular",
    "integrate_halfline",
]

_EPS = float(np.finfo(float).eps)

# 15-point Kronrod nodes (positive half) with their weights, and the weights
# of the embedded 7-point Gauss rule on the odd-indexed nodes.
_XGK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
# the two rules as weights of shape (2, 1, 15), for rows of panels
_WKG_ROWS = np.stack([_WGK, _WG])[:, None, :]

_DEFAULT_PANEL_CAP = 1 << 16
# Lockstep calls of at least this many members keep their panels in flat
# arrays, narrower ones in per-member heaps; _rule sharpens this many rows
# or more with array arithmetic. A flat round costs about as much as 20 to
# 30 heap members: on the lockstep calls of verify and the products the
# flat form took 1.11x the heap form's time at 20 members, 0.94x at 30,
# 0.88-0.96x at 45-63 and 0.52-0.72x at 229-450 (2-CPU host); array
# sharpening overtakes the scalar loop at about 24 rows.
_WIDE = 32
# Below this resabs the 50*eps*resabs error floor would underflow.
_RESABS_FLOOR = np.finfo(float).tiny / (50.0 * _EPS)


@dataclass(frozen=True)
class QuadResult:
    """Integration result: value, error estimate, evaluation count, and
    which endpoints were treated as singular. The count is that of the
    final mesh, 15 for the first panel and 30 for each split; the rows
    that speculation evaluates and no split uses are not in it."""
    value: complex
    error_estimate: float
    evaluations: int
    singular_flags: tuple = (False, False)


@dataclass(frozen=True)
class SingularitySpec:
    """Declared endpoint power behavior: integrand ~ (x-a)^left_exponent near
    a and (b-x)^right_exponent near b. Exponents must exceed -1; None means
    the endpoint is regular.

    left_distance declares instead a near singularity at distance delta > 0
    outside the left end, an integrand like (delta^2 + (x-a)^2)^(e/2) times
    a smooth factor, for any e: a spike of width delta at a that the sinh
    substitution x = a + delta sinh(u) spreads over the whole piece
    (Johnston & Elliott, IJNME 62, 2005). It excludes left_exponent. A 1-d
    array gives each member of a lockstep integration its own distance. The
    integrand sees x rounded to float, so x - a keeps only the digits of
    delta that |a| leaves: delta should be far above eps * |a|. The
    distance is stored as a float or a tuple of floats, so that specs
    compare and hash by value."""
    left_exponent: Optional[float] = None
    right_exponent: Optional[float] = None
    left_distance: Optional[float] = None

    def __post_init__(self):
        for e in (self.left_exponent, self.right_exponent):
            if e is not None and not (float(e) > -1.0):
                raise ValueError(f"endpoint exponent {e} must be > -1")
        if self.left_distance is not None:
            dist = np.asarray(self.left_distance, dtype=float)
            if dist.ndim > 1 or not np.all((0.0 < dist) & (dist < math.inf)):
                raise ValueError(
                    f"near-singularity distance {self.left_distance} must be "
                    "positive and finite, a scalar or a 1-d array")
            if self.left_exponent is not None:
                raise ValueError("left_distance and left_exponent exclude each other")
            object.__setattr__(self, "left_distance",
                               tuple(dist.tolist()) if dist.ndim else float(dist))


class QuadratureError(Exception):
    """Raised on non-convergence; carries the best result obtained so far
    and the index of the member that failed."""

    def __init__(self, message, result=None, member=None):
        super().__init__(message)
        self.result = result
        self.member = member


def _rule(f, members, lo, hi):
    """GK15 on every panel [lo[j], hi[j]] of member members[j] in one call
    of f: the K15 values and the error estimates, sharpened as QUADPACK
    does (err = resasc * min(1, (200*|K-G|/resasc)^1.5), floored at
    50*eps*resabs), and the index of the first panel where f is not finite
    (None if none). Rows are summed along the row and the power is a scalar
    Python power, so each panel gets the bits of a call on it alone; a BLAS
    product sums in another order, and an array power rounds differently.
    Fewer than _WIDE rows are sharpened in a scalar loop and come back as
    lists, more in array arithmetic around the scalar power and come back
    as arrays."""
    width = hi - lo
    half = 0.5 * width
    x = half[:, None] * _XGK
    x += (0.5 * (lo + hi))[:, None]
    y = np.asarray(f(members, x))
    if y.shape != x.shape:
        raise QuadratureError(
            f"integrand returned shape {y.shape} for input shape {x.shape}")
    # the Kronrod weights are positive, so resabs is finite iff its row is
    resabs = half * np.add.reduce(_WGK * np.abs(y), axis=1)
    if not np.maximum.reduce(resabs) < math.inf:
        return None, None, int(np.argmin(np.isfinite(resabs)))
    k15, g7 = half * np.add.reduce(_WKG_ROWS * y, axis=-1)
    resasc = half * np.add.reduce(_WGK * np.abs(y - (k15 / width)[:, None]), axis=1)
    diff = k15 - g7
    if lo.size < _WIDE:
        errors = []
        for d, asc, sabs in zip(diff.tolist(), resasc.tolist(), resabs.tolist()):
            err = abs(d)
            if asc != 0.0 and err != 0.0:
                r = 200.0 * err / asc
                err = asc * r ** 1.5 if r < 1.0 else asc
            # max(floor, err) as Python takes it: the floor on a tie or a NaN
            if sabs > _RESABS_FLOOR and not err > (floor := 50.0 * _EPS * sabs):
                err = floor
            errors.append(err)
        return k15.tolist(), errors, None
    # |K-G| as Python's abs takes it: np.abs of a complex rounds otherwise
    err = np.hypot(diff.real, diff.imag) if diff.dtype.kind == "c" else np.abs(diff)
    sharp = (resasc != 0.0) & (err != 0.0)
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=sharp)
    err = np.where(sharp, resasc, err)
    steep = np.flatnonzero(ratio < 1.0)
    err[steep] *= [r ** 1.5 for r in ratio[steep].tolist()]
    err = np.where(resabs > _RESABS_FLOOR, np.maximum(50.0 * _EPS * resabs, err), err)
    return k15, err, None


def _sums(value, error, count):
    """Value and error of each member from the values and errors of its
    count[k] panels, given member by member and each member's in left-end
    order: np.sum along the rows of one gathered block per panel count,
    which gives each member the bits of np.sum over its panels alone
    (np.add.reduceat and column-wise complex sums round otherwise)."""
    count = np.asarray(count)
    lengths = set(count.tolist())
    if len(lengths) == 1:
        # one count, as for every one-member call: the panels form the block
        n = lengths.pop()
        return (np.add.reduce(value.reshape(-1, n), axis=1),
                np.add.reduce(error.reshape(-1, n), axis=1))
    start = np.cumsum(count) - count
    values, errors = np.empty(count.size, value.dtype), np.empty(count.size)
    for n in lengths:
        rows = np.flatnonzero(count == n)
        block = start[rows, None] + np.arange(n)
        values[rows] = np.add.reduce(value[block], axis=1)
        errors[rows] = np.add.reduce(error[block], axis=1)
    return values, errors


def _heap_sums(heaps):
    """_sums of the members with these heaps of panels."""
    panels = [p for heap in heaps for p in sorted(heap, key=itemgetter(2))]
    return _sums(np.array([p[4] for p in panels]), np.array([p[5] for p in panels]),
                 [len(heap) for heap in heaps])


def _heap_partial(heap):
    """The QuadResult of one member's heap of panels: 15 evaluations for
    its first panel and 30 for each split."""
    return QuadResult(*(s.item() for s in _heap_sums([heap])), 30 * len(heap) - 15)


def _heap(f, a, b, tol, panel_cap):
    """The heap engine on the members [a[k], b[k]] (1-d arrays), as
    integrate describes. Each round splits the worst panel of every member
    still above its budget and evaluates all the halves in one call of f;
    each member keeps its own panels, seq counter, totals, freeze of panels
    at float resolution and stop test. The first member past panel_cap
    panels, or whose refined panel turns non-finite, raises QuadratureError
    carrying that member's partial QuadResult and its index. The result
    holds per-member arrays of value, error and evaluations."""
    n = a.size
    name = (lambda k: "") if n == 1 else (lambda k: f"member {k}: ")
    values, errors, bad = _rule(f, np.arange(n), a, b)
    if bad is not None:
        raise QuadratureError(
            f"{name(bad)}integrand not finite on panel [{a[bad]:g}, {b[bad]:g}]",
            member=bad)
    form = _flat if n >= _WIDE else _heaps
    return QuadResult(*form(f, a, b, values, errors, tol, panel_cap, name))


def _no_convergence(name, k, panels, error, value, tol, partial):
    """The QuadratureError of member k past the panel cap."""
    return QuadratureError(
        f"{name(k)}no convergence after {panels} panels (error {error:.3e}, "
        f"needed {tol * max(1.0, abs(value)):.3e})", partial, k)


def _not_finite(name, k, lo, hi, partial):
    """The QuadratureError of member k not finite on panel [lo, hi]."""
    return QuadratureError(
        f"{name(k)}integrand not finite on panel [{lo:g}, {hi:g}]", partial, k)


def _halves(f, nodes):
    """_rule on both halves [lo, pm] and [pm, hi] of each (k, lo, pm, hi)
    of nodes in one call of f: the halves' (v1, e1, v2, e2) of each node,
    and the index of the first non-finite row (None if none)."""
    members, lo, hi = [], [], []
    for k, a, pm, b in nodes:
        members += k, k
        lo += a, pm
        hi += pm, b
    vals, errs, bad = _rule(f, np.array(members), np.array(lo), np.array(hi))
    if bad is not None:
        return None, bad
    if len(lo) >= _WIDE:
        # the arrays of a wide call
        vals, errs = vals.tolist(), errs.tolist()
    return list(zip(vals[0::2], errs[0::2], vals[1::2], errs[1::2])), None


def _speculate(f, nodes, depth, known, events):
    """Store in known the halves' (v1, e1, v2, e2) of each (k, lo, pm, hi)
    of nodes and of the panels below it, depth levels of halves in all,
    from one call of f. False, storing nothing, if the call has a
    non-finite row, raises (a warning that the caller's filters make an
    error included) or trips a NumPy floating-point event that the
    np.errstate keywords events set to "raise": the call without
    speculation then fails as it would have. The warning filters stay the
    caller's, so a warning they only show shows, and the call stands."""
    level = nodes
    for _ in range(depth - 1):
        # the next level: the halves of this one that can still be split
        level = [(k, lo, m, hi) for k, a, pm, b in level for lo, hi in ((a, pm), (pm, b))
                 if lo < (m := 0.5 * (lo + hi)) < hi]
        nodes = nodes + level
    try:
        with np.errstate(**events):
            halves, bad = _halves(f, nodes)
    except Exception:
        return False
    if bad is not None:
        return False
    known.update(zip(nodes, halves))
    return True


def _heaps(f, a, b, values, errors, tol, panel_cap, name):
    """_heap for a narrow call: a heapq heap of panels per member. A call
    of one or two members speculates: a round that must evaluate a split
    panel's halves also evaluates the panels below them, to the depth whose
    rows for all members fit in _WIDE // 2, and later rounds take their
    halves without a call. If that call is not clean (_speculate), the
    round and every later one make their calls without speculation. Every
    decision is unchanged and a row has the same bits in any call, so every
    mesh, value, error and failure is that of the call without it."""
    n = a.size
    depth = max(1, (_WIDE // 2 // n + 2).bit_length() - 2)
    # a speculative call stops on the floating-point events the caller does
    # not ignore: an ignored underflow keeps the speculation
    events = {kind: "ignore" if how == "ignore" else "raise"
              for kind, how in np.geterr().items()}
    known = {}
    # per member, a heap of (-error, seq, a, b, value, error); seq breaks
    # ties reproducibly
    heaps = [[(-e, 0, lo, hi, v, e)]
             for lo, hi, v, e in zip(a.tolist(), b.tolist(), values, errors)]
    seqs = [0] * n
    live = range(n)
    while live:
        live = [k for k in live if not errors[k] <= tol * max(1.0, abs(values[k]))]
        # the worst panels to split, and their (k, lo, pm, hi)
        split, nodes = [], []
        for k in live:
            heap = heaps[k]
            if len(heap) >= panel_cap:
                raise _no_convergence(name, k, len(heap), errors[k], values[k], tol,
                                      _heap_partial(heap))
            # the worst panel stays on the heap until a half replaces it
            panel = heap[0]
            lo, hi = panel[2], panel[3]
            pm = 0.5 * (lo + hi)
            if lo < pm < hi:
                split.append(panel)
                nodes.append((k, lo, pm, hi))
            else:
                # panel at float resolution; keep it and stop refining this spot
                seqs[k] += 1
                heapq.heapreplace(heap, (0.0, seqs[k]) + panel[2:])
                errors[k] -= panel[5]
        if not split:
            continue
        halves = None
        if depth > 1:
            need = [node for node in nodes if node not in known]
            if not need or _speculate(f, need, depth, known, events):
                halves = [known.pop(node) for node in nodes]
            else:
                # a fault in one speculative call is likely to recur
                depth = 1
        if halves is None:
            halves, bad = _halves(f, nodes)
            if bad is not None:
                k, lo, pm, hi = nodes[bad // 2]
                raise _not_finite(name, k, *((lo, pm) if bad % 2 == 0 else (pm, hi)),
                                  _heap_partial(heaps[k]))
        for panel, (k, lo, pm, hi), (v1, e1, v2, e2) in zip(split, nodes, halves):
            heap, seq = heaps[k], seqs[k]
            heapq.heapreplace(heap, (-e1, seq + 1, lo, pm, v1, e1))
            heapq.heappush(heap, (-e2, seq + 2, pm, hi, v2, e2))
            seqs[k] = seq + 2
            values[k] += (v1 + v2) - panel[4]
            errors[k] += (e1 + e2) - panel[5]
    return (*_heap_sums(heaps), np.array([30 * len(heap) - 15 for heap in heaps]))


def _flat(f, a, b, value, error, tol, panel_cap, name):
    """_heap for a wide call: every live panel in flat arrays of left end,
    right end, error and heap key (the error, or 0.0 once frozen), of
    member and seq, and of value. Each round picks every live member's
    worst panel in the heap's order, the largest key and on a tie the
    lowest seq, and does the heap form's arithmetic elementwise, so every
    member gets the same bits."""
    n = a.size
    floats = np.array([a, b, error, error])
    ints = np.array([np.arange(n), np.zeros(n, dtype=int)])
    pv = value.copy()
    seqs, panels = np.zeros(n, dtype=int), np.ones(n, dtype=int)
    out_value, out_error = np.empty(n, value.dtype), np.empty(n)
    slot = np.empty(n, dtype=int)
    live = np.arange(n)

    def ordered(mine):
        """The panels of a boolean mask, by member and then by left end."""
        at = mine.nonzero()[0]
        return at[np.lexsort((left[at], member[at]))]

    def partial(k):
        """Member k's QuadResult so far, for the error it raises."""
        at = ordered(member == k)
        return QuadResult(*(s.item() for s in _sums(pv[at], pe[at], panels[k:k + 1])),
                          30 * panels[k].item() - 15)

    while True:
        (left, right, pe, key), (member, seq) = floats, ints
        v = value[live]
        modulus = np.hypot(v.real, v.imag) if v.dtype.kind == "c" else np.abs(v)
        done = error[live] <= tol * np.maximum(1.0, modulus)
        if done.any():
            # sum the panels of the members that converged this round, and
            # drop them
            k = live[done]
            gone = np.zeros(n, dtype=bool)
            gone[k] = True
            gone = gone[member]
            at = ordered(gone)
            out_value = out_value.astype(pv.dtype, copy=False)
            out_value[k], out_error[k] = _sums(pv[at], pe[at], panels[k])
            live = live[~done]
            if not live.size:
                return out_value, out_error, 30 * panels - 15
            keep = np.flatnonzero(~gone)
            floats, ints = floats.take(keep, axis=1), ints.take(keep, axis=1)
            pv = pv.take(keep)
            (left, right, pe, key), (member, seq) = floats, ints
        over = panels[live] >= panel_cap
        if over.any():
            k = int(live[over.argmax()])
            raise _no_convergence(name, k, panels[k], error[k].item(),
                                  value[k].item(), tol, partial(k))
        top = np.zeros(n)
        np.maximum.at(top, member, key)
        at = (key == top[member]).nonzero()[0]
        if at.size > live.size:
            # equal keys: the lowest seq wins, as in the heap; no seq of a
            # member reaches seqs + 1
            first = seqs + 1
            np.minimum.at(first, member[at], seq[at])
            at = at[seq[at] == first[member[at]]]
        slot[member[at]] = at
        worst = slot[live]
        lo, hi = left[worst], right[worst]
        mid = 0.5 * (lo + hi)
        cut = (lo < mid) & (mid < hi)
        k = live
        if not cut.all():
            # panels at float resolution; keep them and stop refining these spots
            frozen, k = worst[~cut], live[~cut]
            seqs[k] += 1
            seq[frozen], key[frozen] = seqs[k], 0.0
            error[k] -= pe[frozen]
            worst, lo, mid, hi, k = worst[cut], lo[cut], mid[cut], hi[cut], live[cut]
            if not k.size:
                continue
        rows_lo, rows_hi = np.array([lo, mid]).T.ravel(), np.array([mid, hi]).T.ravel()
        vals, errs, bad = _rule(f, k.repeat(2), rows_lo, rows_hi)
        if bad is not None:
            j = int(k[bad // 2])
            raise _not_finite(name, j, rows_lo[bad], rows_hi[bad], partial(j))
        # the lists of a round of fewer than _WIDE rows
        vals, errs = np.asarray(vals), np.asarray(errs)
        if vals.dtype.kind == "c" and pv.dtype.kind != "c":
            value, pv = value.astype(complex), pv.astype(complex)
        v1, v2, e1, e2 = vals[0::2], vals[1::2], errs[0::2], errs[1::2]
        value[k] += (v1 + v2) - pv[worst]
        error[k] += (e1 + e2) - pe[worst]
        # the left half takes the split panel's place, the right half is appended
        s = seqs[k]
        seq[worst], right[worst], pv[worst] = s + 1, mid, v1
        pe[worst], key[worst] = e1, e1
        floats = np.concatenate((floats, [mid, hi, e2, e2]), axis=1)
        ints = np.concatenate((ints, [k, s + 2]), axis=1)
        pv = np.concatenate((pv, v2))
        seqs[k] = s + 2
        panels[k] += 1


def _pointwise(f):
    """The members form of an integrand f of flat abscissae; values of
    another shape pass through for _rule to report."""
    def g(_, x):
        y = np.asarray(f(x.ravel()))
        return y.reshape(x.shape) if y.shape == (x.size,) else y

    return g


def integrate(f, a, b, tol, panel_cap=_DEFAULT_PANEL_CAP):
    """Adaptive GK15 integration of f over [a, b] until the total error
    estimate drops below tol * max(1, |value|). Worst panel first;
    deterministic for fixed inputs. Raises QuadratureError, carrying the best
    result, if the panel cap is exceeded or a refined panel turns
    non-finite, and ValueError unless a < b are finite, tol is positive and
    finite and panel_cap is at least 1.

    a and b may also be 1-d arrays (broadcast against each other), one
    integral per member k over [a[k], b[k]]: then f(members, x) gets
    abscissae x of shape (rows, 15), row j on a panel of member members[j],
    and all members are refined in lockstep with one call of f per round.
    The result holds per-member value and error arrays and the members'
    total evaluations; each member's value, error and evaluations are those
    of its one-member call, bit for bit."""
    return integrate_singular(f, a, b, SingularitySpec(), tol, panel_cap)


def _transformed(f, a, b, exponent, side):
    """Power substitution neutralizing a declared endpoint exponent.

    For the right endpoint, x = b - (b-a)s^q with q = 1/(1+e) turns an
    integrand ~ g(x)(b-x)^e into q(b-a)^{1+e} g(x(s)) exactly (the s-power
    cancels identically), so pure power singularities become constants. The
    evaluation point is snapped one ulp off the endpoint when the transform
    underflows past it, and the singular factor is rebuilt from the exact
    float distance of the snapped point, which keeps the product finite and
    correct to rounding.

    a and b are arrays of member intervals; f(k, x) and the returned g(k, s)
    evaluate the members k, an index array of rows."""
    e = float(exponent)
    q = 1.0 / (1.0 + e)
    right = side == "right"
    edges, inners = (b.tolist(), a.tolist()) if right else (a.tolist(), b.tolist())
    spans = (b - a).tolist()
    # per member: the edge, the span, the point one ulp inside the edge and
    # the constant factor, taken for all rows of a call at once; the last
    # two in scalar arithmetic, as the one-member call rounds them (a
    # scalar nextafter raises no underflow at an edge of 0 under np.errstate)
    cols = np.array([edges, spans, [math.nextafter(x, y) for x, y in zip(edges, inners)],
                     [q * s ** (1.0 + e) for s in spans]])[:, :, None]

    def g(k, s):
        end, span, off, coef = cols.take(k, 1)
        step = span * s ** q
        # a point at the edge, where the step underflows, moves to off
        x = np.minimum(end - step, off) if right else np.maximum(end + step, off)
        return coef * np.asarray(f(k, x)) * (end - x if right else x - end) ** -e

    return g


def _sinh_mapped(f, a, b, distance):
    """Sinh substitution for a near singularity at distance delta outside
    the left end: x = a + delta sinh(s U) on s in [0, 1], with U =
    asinh((b-a)/delta) and Jacobian delta U cosh(s U). It turns
    (delta^2 + (x-a)^2)^(e/2) dx into delta^(1+e) U cosh(s U)^(1+e) ds,
    smooth in s, and spaces the abscissae geometrically from width delta
    out to b-a.

    a, b, f(k, x) and the returned g(k, s) are as in _transformed; distance
    is a scalar or one entry per member."""
    # per member in scalar arithmetic, as the one-member call rounds it
    dists = np.broadcast_to(np.asarray(distance, dtype=float), a.shape).tolist()
    rates = [math.asinh(s / d) for s, d in zip((b - a).tolist(), dists)]
    for d, u in zip(dists, rates):
        if not math.isfinite(u):
            raise ValueError(
                f"near-singularity distance {d:g} is too small for the interval")
    # per member: the rate, the Jacobian factor, the distance and the start
    cols = np.array([rates, [d * u for d, u in zip(dists, rates)], dists,
                     a.tolist()])[:, :, None]

    def g(k, s):
        rate, jac, scale, start = cols.take(k, 1)
        t = rate * s
        return jac * np.cosh(t) * np.asarray(f(k, start + scale * np.sinh(t)))

    return g


def integrate_singular(f, a, b, spec, tol, panel_cap=_DEFAULT_PANEL_CAP):
    """Integrate f over [a, b] with declared endpoint power singularities.

    Each declared endpoint gets the neutralizing power substitution, and a
    declared near singularity outside the left end the sinh substitution;
    with both endpoints declared the interval is split at its midpoint and
    each half gets its own transform at half the tolerance. Declared exponents
    may be conservative majorants (e.g. -0.5 for a logarithmic blowup).
    Array bounds give one integral per member as in integrate, every member
    with the same declared exponents and a near-singularity distance of its
    own or a shared one. A member failing on the second piece raises
    QuadratureError with its share of the first piece added."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    if a.ndim > 1:
        raise ValueError("integration bounds must be scalars or 1-d arrays")
    one = a.ndim == 0
    f = _pointwise(f) if one else f
    a, b = a.reshape(-1), b.reshape(-1)
    if not a.size:
        raise ValueError("integration bounds are empty arrays: no member to integrate")
    if not (np.isfinite(a) & np.isfinite(b)).all():
        raise ValueError("integration bounds must be finite; "
                         "integrate_halfline integrates over [a, infinity)")
    if not (a < b).all():
        raise ValueError("integration requires a < b")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol {tol} must be positive and finite")
    if not panel_cap >= 1:
        raise ValueError(f"panel_cap {panel_cap} must be at least 1")
    if not isinstance(spec, SingularitySpec):
        spec = SingularitySpec(*spec)
    left, right, near = spec.left_exponent, spec.right_exponent, spec.left_distance
    flags = (left is not None or near is not None, right is not None)
    pieces = [(f, a, b, tol)]
    if any(flags):
        # split at the midpoint only when both endpoints are declared
        m = 0.5 * (a + b) if all(flags) else (b if flags[0] else a)
        ends = [(a, m, left, "left"), (m, b, right, "right")]
        ends = [end for end, flag in zip(ends, flags) if flag]
        pieces = [(_sinh_mapped(f, lo, hi, near) if side == "left" and near is not None
                   else _transformed(f, lo, hi, e, side),
                   np.zeros(a.size), np.ones(a.size), tol / len(ends))
                  for lo, hi, e, side in ends]
    value = err = evaluations = 0
    for g, lo, hi, piece_tol in pieces:
        try:
            r = _heap(g, lo, hi, piece_tol, panel_cap)
        except QuadratureError as exc:
            if exc.result is None:
                raise
            k, part = exc.member, exc.result
            v, e, n = (t[k].item() if np.ndim(t) else t
                       for t in (value, err, evaluations))
            raise QuadratureError(str(exc), QuadResult(
                v + part.value, e + part.error_estimate, n + part.evaluations,
                flags), k) from None
        value = value + r.value
        err = err + r.error_estimate
        evaluations = evaluations + r.evaluations
    if not one:
        return QuadResult(value, err, int(np.sum(evaluations)), flags)
    return QuadResult(value[0].item(), float(err[0]), int(evaluations[0]), flags)


def integrate_halfline(f, a, tol, panel_cap=_DEFAULT_PANEL_CAP):
    """Integrate f over [a, infinity) via x = a + u/(1-u), u in [0, 1).

    f must be O(x^-2) as x -> infinity, which keeps the mapped integrand
    f(x)/(1-u)^2 bounded at u = 1; slower decay can drive the refinement
    onto u = 1, where the mapped integrand is not finite, and the
    QuadratureError raised then names the x-range of that panel and carries
    the partial result. a must be finite."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"half-line start {a} must be finite")
    nodes = None

    def g(u):
        nonlocal nodes
        nodes = u
        omu = 1.0 - u
        x = a + u / omu
        return np.asarray(f(x)) / (omu * omu)

    try:
        return integrate(g, 0.0, 1.0, tol, panel_cap)
    except QuadratureError as exc:
        # the panels of the last call, both halves of the split one; name
        # the one that reached u = 1
        panels = nodes.reshape(-1, 15)
        hit = panels[np.any(panels >= 1.0, axis=1)]
        if not hit.size:
            raise
        raise QuadratureError(
            f"integrand not finite for x in [{a + hit.min() / (1.0 - hit.min()):g}, "
            "inf]: integrate_halfline needs f(x) = O(x^-2) as x -> infinity",
            exc.result) from None

