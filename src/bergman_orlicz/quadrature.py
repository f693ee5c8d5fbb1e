"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

All routines are single-threaded and use a worst-first panel queue with a
sequence-number tie-break, so results are bit-stable for a fixed integrand.
Error estimates come from comparing the panel value at the working order with
a lower-order companion rule on the same panel.

Improper integrals (the real line, boundary singularities y^a with a > -1,
the half-plane) are cut into doubling shells or strips halving toward y = 0,
and one driver, `_sum_tail`, sums them: it detects divergence from sustained
non-decay of the piece masses rather than from magnitude caps, which
misclassify slowly-decaying convergent integrands.
"""

import heapq

import numpy as np

from .errors import AccuracyError, DivergenceError

ORDER_HIGH = 16
ORDER_LOW = 8
ABS_FLOOR = 1e-300
MAX_PANELS_1D = 2000
MAX_PANELS_2D = 6000
EMPTY_PIECES = 60

_nodes_cache = {}


def gauss_nodes(order):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    if order not in _nodes_cache:
        x, w = np.polynomial.legendre.leggauss(order)
        _nodes_cache[order] = (x, w)
    return _nodes_cache[order]


def _panel_1d(f, a, b):
    """Integrate f on [a, b] at both orders; return (value, abs_value, err)."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x_hi, w_hi = gauss_nodes(ORDER_HIGH)
    vals_hi = np.asarray(f(mid + half * x_hi))
    hi = half * np.sum(w_hi * vals_hi)
    hi_abs = half * np.sum(w_hi * np.abs(vals_hi))
    x_lo, w_lo = gauss_nodes(ORDER_LOW)
    lo = half * np.sum(w_lo * np.asarray(f(mid + half * x_lo)))
    return hi, hi_abs, abs(hi - lo)


def _require_number(total, err, what):
    """Raise on a NaN value or error estimate (NaN compares False, so the
    refinement loop stops on it as if it had converged) and on an infinite
    value (the integrand is infinite at a node, or its sum overflowed)."""
    if np.isnan(total) or np.isnan(err):
        raise AccuracyError(f"{what} quadrature produced NaN")
    if np.isinf(total):
        raise DivergenceError(f"{what} quadrature produced an infinite value")


def integrate_1d(f, a, b, tol=1e-10):
    """Adaptive integral of a vectorized callable on the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Accepts a float ndarray, returns values of the same shape.
    a, b : float
        Endpoints, a <= b.
    tol : float
        Relative tolerance against max(|integral|, ABS_FLOOR); more than
        MAX_PANELS_1D refinements raise AccuracyError.

    Returns
    -------
    (value, err_estimate)
    """
    if a == b:
        return 0.0, 0.0
    value, aval, err = _panel_1d(f, a, b)
    heap = [(-err, 0, a, b, value, aval, err)]
    total, total_abs, total_err, seq = value, aval, err, 0
    # the 4e-16 * |f|-mass term is the float noise floor; below it further
    # refinement only chases roundoff
    while total_err > max(tol * abs(total), 4e-16 * total_abs, ABS_FLOOR) and heap:
        if seq >= MAX_PANELS_1D:
            raise AccuracyError(
                f"1-D quadrature used {seq} panels without reaching tol={tol}"
            )
        _, _, pa, pb, pval, paval, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lval, la, lerr = _panel_1d(f, pa, pm)
        rval, ra, rerr = _panel_1d(f, pm, pb)
        total += (lval + rval) - pval
        total_abs += (la + ra) - paval
        total_err += (lerr + rerr) - perr
        seq += 1
        heapq.heappush(heap, (-lerr, 2 * seq, pa, pm, lval, la, lerr))
        heapq.heappush(heap, (-rerr, 2 * seq + 1, pm, pb, rval, ra, rerr))
    _require_number(total, total_err, "1-D")
    return total, total_err


def _sum_tail(pieces, tol, rule, what, base=(0.0, 0.0, 0.0)):
    """Sum (value, abs_value, err) pieces onto `base`; return the totals.

    Stops at the first piece whose mass (abs_value) is at most
    tol * max(summed masses, ABS_FLOOR) / 8.  rule = (limit, run, warmup):
    `run` successive pieces, each holding at least `limit` times the mass of
    the one before, raise DivergenceError once past piece `warmup`.  While
    the summed mass, base included, is 0, pieces neither stop the sum nor
    count; EMPTY_PIECES of them make the total 0.  Running out of pieces
    raises AccuracyError.
    """
    limit, run, warmup = rule
    total, total_abs, err = base
    prev, flat, k, empty = 0.0, 0, 0, 0
    for v, a, e in pieces:
        total += v
        total_abs += a
        err += e
        if total_abs == 0:
            empty += 1
            if empty >= EMPTY_PIECES:
                return total, total_abs, err
            continue
        flat = flat + 1 if prev > 0 and a >= limit * prev else 0
        if flat >= run and k > warmup:
            raise DivergenceError(f"{what} does not decay (piece {k})")
        if a <= tol * max(total_abs, ABS_FLOOR) / 8.0:
            return total, total_abs, err
        prev = a
        k += 1
    raise AccuracyError(f"{what}: pieces exhausted without decay")


def integrate_1d_line(f, tol=1e-10):
    """Integral of f over the real line: [-1, 1], then shells +-[X, 2X].

    A shell is negligible against the summed |shell| values, not |integral|;
    the two agree for the nonnegative integrands that all callers pass.
    """

    def shells():
        x = 1.0
        for _ in range(400):
            rv, re_ = integrate_1d(f, x, 2 * x, tol=tol * 0.5)
            lv, le = integrate_1d(f, -2 * x, -x, tol=tol * 0.5)
            yield rv + lv, abs(rv) + abs(lv), re_ + le
            x *= 2

    value, err = integrate_1d(f, -1.0, 1.0, tol=tol * 0.5)
    total, _, err = _sum_tail(shells(), tol, (0.95, 6, 8), "line integral tail",
                              (value, abs(value), err))
    return total, err


class Field2D:
    """Vectorized scalar field f(x, y) with per-panel node-value caching.

    The cache is keyed on the exact panel rectangle and order, so repeated
    integrations over the same panel geometry (e.g. the modular passes of
    one Luxembourg solve) never re-evaluate the base field.
    """

    def __init__(self, fn):
        self.fn = fn
        self._cache = {}

    def values(self, rect, order):
        key = (rect, order)
        if key in self._cache:
            return self._cache[key]
        x0, x1, y0, y1 = rect
        t, _ = gauss_nodes(order)
        xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * t
        ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * t
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(self.fn(X, Y))
        self._cache[key] = vals
        return vals


def _panel_2d(field, rect):
    x0, x1, y0, y1 = rect
    jac = 0.25 * (x1 - x0) * (y1 - y0)
    _, w_hi = gauss_nodes(ORDER_HIGH)
    vals = field.values(rect, ORDER_HIGH)
    hi = jac * np.sum(w_hi[:, None] * w_hi[None, :] * vals)
    hi_abs = jac * np.sum(w_hi[:, None] * w_hi[None, :] * np.abs(vals))
    _, w_lo = gauss_nodes(ORDER_LOW)
    lo = jac * np.sum(w_lo[:, None] * w_lo[None, :] * field.values(rect, ORDER_LOW))
    return hi, hi_abs, abs(hi - lo)


def integrate_box(field, rect, tol=1e-8):
    """Adaptive tensor-product integral of a Field2D over a rectangle.

    Splits the worst panel across its longer edge; deterministic ordering.

    Returns
    -------
    (value, abs_value, err_estimate)
        abs_value integrates |field| with the same nodes (used by callers to
        measure tail mass without sign cancellation).
    """
    x0, x1, y0, y1 = rect
    if x0 == x1 or y0 == y1:
        return 0.0, 0.0, 0.0
    value, aval, err = _panel_2d(field, rect)
    heap = [(-err, 0, rect, value, aval, err)]
    total, total_abs, total_err, seq = value, aval, err, 0
    while total_err > tol * max(abs(total), ABS_FLOOR) and heap:
        if seq >= MAX_PANELS_2D:
            raise AccuracyError(
                f"2-D quadrature used {seq} panels without reaching tol={tol}"
            )
        _, _, prect, pval, paval, perr = heapq.heappop(heap)
        px0, px1, py0, py1 = prect
        if (px1 - px0) >= (py1 - py0):
            pm = 0.5 * (px0 + px1)
            sub = [(px0, pm, py0, py1), (pm, px1, py0, py1)]
        else:
            pm = 0.5 * (py0 + py1)
            sub = [(px0, px1, py0, pm), (px0, px1, pm, py1)]
        seq += 1
        dv = -pval
        da = -paval
        de = -perr
        for i, srect in enumerate(sub):
            sv, sa, se = _panel_2d(field, srect)
            dv += sv
            da += sa
            de += se
            heapq.heappush(heap, (-se, 2 * seq + i, srect, sv, sa, se))
        total += dv
        total_abs += da
        total_err += de
    _require_number(total, total_err, "2-D")
    return total, total_abs, max(total_err, 0.0)


def integrate_box_graded(field, x0, x1, y_top, tol=1e-8):
    """Integral over (x0, x1) x (0, y_top] by strips halving toward y = 0."""

    def strips():
        hi = y_top
        for _ in range(400):
            yield integrate_box(field, (x0, x1, hi / 2, hi), tol=tol)
            hi /= 2

    return _sum_tail(strips(), tol, (0.95, 6, 12), "mass near y=0")


def integrate_halfplane(field, tol=1e-8):
    """Integral over the upper half-plane: the graded base [-1, 1] x (0, 1],
    then shells of two graded side slabs and a top slab doubling the box.
    """
    base = integrate_box_graded(field, -1.0, 1.0, 1.0, tol=tol)

    def shells():
        X = 1.0
        for _ in range(60):
            lv, la, le = integrate_box_graded(field, -2 * X, -X, 2 * X, tol=tol)
            rv, ra, re_ = integrate_box_graded(field, X, 2 * X, 2 * X, tol=tol)
            tv, ta, te = integrate_box(field, (-X, X, X, 2 * X), tol=tol)
            yield lv + rv + tv, la + ra + ta, le + re_ + te
            X *= 2

    return _sum_tail(shells(), tol, (0.95, 6, 0), "half-plane tail", base)
