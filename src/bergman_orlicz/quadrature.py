"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

All routines are single-threaded and use a worst-first panel queue with a
sequence-number tie-break, so results are bit-stable for a fixed integrand.
Error estimates come from comparing the panel value at the working order with
a lower-order companion rule on the same panel.

Improper integrals (half-plane tails, boundary singularities y^a with a > -1)
are handled by geometric strips and doubling shells; divergence is detected
from sustained non-decay of the strip/shell magnitudes rather than from
magnitude caps, which misclassify slowly-decaying convergent integrands.
"""

import heapq

import numpy as np

from .errors import AccuracyError, DivergenceError

ORDER_HIGH = 16
ORDER_LOW = 8
ABS_FLOOR = 1e-300
MAX_PANELS_1D = 2000
MAX_PANELS_2D = 6000
STRIP_RATIO = 2.0
SHELL_DECAY_LIMIT = 0.95
SHELL_DECAY_RUN = 6

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


def integrate_1d(f, a, b, tol=1e-10, max_panels=MAX_PANELS_1D):
    """Adaptive integral of a vectorized callable on the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Accepts a float ndarray, returns values of the same shape.
    a, b : float
        Endpoints, a <= b.
    tol : float
        Relative tolerance against max(|integral|, ABS_FLOOR).
    max_panels : int
        Refinement budget; exceeding it raises AccuracyError.

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
        if seq >= max_panels:
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
    return total, total_err


def integrate_1d_line(f, tol=1e-10, x_init=1.0, max_shells=400):
    """Integral of f over the whole real line via doubling shells.

    Starts from [-x_init, x_init] and adds shells [X, 2X] on both sides until
    the last shell is negligible; sustained non-decay raises DivergenceError.
    """
    total, err = integrate_1d(f, -x_init, x_init, tol=tol * 0.5)
    mags, flat_run = [], 0
    x = x_init
    for _ in range(max_shells):
        rv, re_ = integrate_1d(f, x, 2 * x, tol=tol * 0.5)
        lv, le = integrate_1d(f, -2 * x, -x, tol=tol * 0.5)
        total += rv + lv
        err += re_ + le
        mag = abs(rv) + abs(lv)
        if mags:
            prev = mags[-1]
            if prev > 0 and mag >= SHELL_DECAY_LIMIT * prev:
                flat_run += 1
                if flat_run >= SHELL_DECAY_RUN and len(mags) > 8:
                    raise DivergenceError("line integral tail does not decay")
            else:
                flat_run = 0
        mags.append(mag)
        if mag <= tol * max(abs(total), ABS_FLOOR) / 8.0:
            return total, err
        x *= 2
    raise AccuracyError(f"line shells exhausted ({max_shells}) without tail decay")


class Field2D:
    """Vectorized scalar field f(x, y) with per-panel node-value caching.

    The cache is keyed on the exact panel rectangle and order, so repeated
    integrations over the same panel geometry (e.g. the modular passes of
    one Luxembourg solve) never re-evaluate the base field.
    """

    def __init__(self, fn, cache=True):
        self.fn = fn
        self._cache = {} if cache else None

    def values(self, rect, order):
        key = (rect, order)
        if self._cache is not None and key in self._cache:
            return self._cache[key]
        x0, x1, y0, y1 = rect
        t, _ = gauss_nodes(order)
        xs = 0.5 * (x0 + x1) + 0.5 * (x1 - x0) * t
        ys = 0.5 * (y0 + y1) + 0.5 * (y1 - y0) * t
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(self.fn(X, Y))
        if self._cache is not None:
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


def integrate_box(field, rect, tol=1e-8, max_panels=MAX_PANELS_2D):
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
        if seq >= max_panels:
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
    return total, total_abs, max(total_err, 0.0)


def integrate_box_graded(field, x0, x1, y_top, tol=1e-8, ratio=STRIP_RATIO,
                         max_strips=400, max_panels=MAX_PANELS_2D):
    """Integral over (x0, x1) x (0, y_top] with geometric strips toward y = 0.

    Strip heights shrink by `ratio`; terminates when the last strip's absolute
    mass is below tol * |total| / 8; sustained non-decay raises DivergenceError.
    """
    total, total_abs, err = 0.0, 0.0, 0.0
    mags, flat_run = [], 0
    hi = y_top
    for k in range(max_strips):
        lo = hi / ratio
        v, a, e = integrate_box(field, (x0, x1, lo, hi), tol=tol, max_panels=max_panels)
        total += v
        total_abs += a
        err += e
        if mags:
            prev = mags[-1]
            if prev > 0 and a >= SHELL_DECAY_LIMIT * prev:
                flat_run += 1
                if flat_run >= SHELL_DECAY_RUN and k > 12:
                    raise DivergenceError(
                        f"mass near y=0 does not decay (strip {k}, y~{hi:.3g})"
                    )
            else:
                flat_run = 0
        mags.append(a)
        if a <= tol * max(total_abs, ABS_FLOOR) / 8.0:
            return total, total_abs, err
        hi = lo
    raise AccuracyError(f"graded strips exhausted ({max_strips}) without tail decay")


def integrate_halfplane(field, tol=1e-8, x_init=1.0, y_init=1.0, max_shells=60):
    """Integral over the whole upper half-plane by doubling shells.

    The base region is [-x_init, x_init] x (0, y_init] (graded toward y = 0);
    each shell adds the left/right slabs (also graded) and the top slab of the
    doubled box. Terminates when the last shell's absolute mass is negligible
    and decaying; sustained non-decay raises DivergenceError.
    """
    X, Y = x_init, y_init
    total, total_abs, err = integrate_box_graded(field, -X, X, Y, tol=tol)
    mags, flat_run = [], 0
    for k in range(max_shells):
        X2, Y2 = 2 * X, 2 * Y
        lv, la, le = integrate_box_graded(field, -X2, -X, Y2, tol=tol)
        rv, ra, re_ = integrate_box_graded(field, X, X2, Y2, tol=tol)
        tv, ta, te = integrate_box(field, (-X, X, Y, Y2), tol=tol)
        total += lv + rv + tv
        total_abs += la + ra + ta
        err += le + re_ + te
        mag = la + ra + ta
        if mags:
            prev = mags[-1]
            if prev > 0 and mag >= SHELL_DECAY_LIMIT * prev:
                flat_run += 1
                if flat_run >= SHELL_DECAY_RUN:
                    raise DivergenceError(
                        f"half-plane tail does not decay (shell {k}, X={X:.3g})"
                    )
            else:
                flat_run = 0
        mags.append(mag)
        if mag <= tol * max(total_abs, ABS_FLOOR) / 8.0:
            return total, total_abs, err
        X, Y = X2, Y2
    raise AccuracyError(f"half-plane shells exhausted ({max_shells}) without decay")
