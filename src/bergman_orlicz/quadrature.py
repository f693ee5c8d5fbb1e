"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One panel rule and one driver serve both dimensions.  A panel is a rect of
one or two intervals; its rule is the tensor Gauss rule of order 16, and
the error estimate compares it with the order-8 companion on the same
panel.  A field is asked once per panel for both orders: `values(rect,
RULE)` returns the order-16 tensor values and then the order-8 ones as one
flat array, on nodes that are two affine maps of reference nodes built once
per rule (`_rule`).  The driver, `_adapt`, refines worst-first with a
sequence-number tie-break, so results are bit-stable for a fixed integrand;
fields are `Field2D`s, which cache their node values per (panel, rule) in
either dimension.

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
MAX_PANELS = {1: 2000, 2: 6000}
EMPTY_PIECES = 60
RULE = (ORDER_HIGH, ORDER_LOW)

_nodes_cache = {}
_rule_cache = {}


def gauss_nodes(order):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    if order not in _nodes_cache:
        x, w = np.polynomial.legendre.leggauss(order)
        _nodes_cache[order] = (x, w)
    return _nodes_cache[order]


def _rule(rule, dim):
    """Flat reference nodes and weights of a rule (a tuple of Gauss orders)
    on [-1, 1]**dim, cached; return (axes, weights).

    axes holds one flat array per dimension: each order's tensor nodes with
    the first axis slowest (node (i, j) of order n at i * n + j), the
    orders one after another.  weights holds one flat tensor weight array
    per order, in the same node order.
    """
    if (rule, dim) not in _rule_cache:
        axes, weights = [[] for _ in range(dim)], []
        for order in rule:
            t, w = gauss_nodes(order)
            if dim == 1:
                axes[0].append(t)
                weights.append(w)
            else:
                axes[0].append(np.repeat(t, order))
                axes[1].append(np.tile(t, order))
                weights.append(np.outer(w, w).ravel())
        _rule_cache[rule, dim] = (tuple(np.concatenate(a) for a in axes),
                                  tuple(weights))
    return _rule_cache[rule, dim]


def _panel_nodes(rect, rule):
    """The nodes of a rule on a rect, one flat array per dimension; see
    `_rule` for their order."""
    axes, _ = _rule(rule, len(rect) // 2)
    return [0.5 * (lo + hi) + 0.5 * (hi - lo) * t
            for lo, hi, t in zip(rect[::2], rect[1::2], axes)]


class Field2D:
    """Vectorized scalar field with per-panel node-value caching.

    A panel rect is (x0, x1) for a 1-D field fn(x) or (x0, x1, y0, y1) for
    a 2-D field fn(x, y).  `values(rect, rule)` evaluates fn once, on the
    flat nodes of every order of the rule (`_panel_nodes`), and returns the
    flat values in that order.  The cache is keyed on the exact rect and
    rule, so repeated integrations over the same panel geometry (e.g. the
    modular passes of one Luxembourg solve) never re-evaluate the base
    field.  It is the one cached field type of both dimensions; it keeps
    its 2-D name because perfbench/tracer.py counts its evaluations under
    it.  Every other field (`orlicz._ComboField`, `halfplane._PolarArea`)
    answers the same `values(rect, rule)`.
    """

    def __init__(self, fn):
        self.fn = fn
        self._cache = {}

    def values(self, rect, rule):
        key = (rect, rule)
        if key in self._cache:
            return self._cache[key]
        nodes = _panel_nodes(rect, rule)
        vals = np.asarray(self.fn(*nodes))
        if vals.shape != nodes[0].shape:  # a constant fn gives one value
            vals = np.broadcast_to(vals, nodes[0].shape)
        self._cache[key] = vals
        return vals


def _panel(field, rect):
    """Integrate a field on one panel at both orders of RULE from one
    values call; return (value, abs_value, err)."""
    dim = len(rect) // 2
    jac = 0.5 ** dim * (rect[1] - rect[0])
    if dim == 2:
        jac *= rect[3] - rect[2]
    w_hi, w_lo = _rule(RULE, dim)[1]
    vals = field.values(rect, RULE)
    v_hi = vals[:w_hi.size]
    hi = jac * np.sum(w_hi * v_hi)
    hi_abs = jac * np.sum(w_hi * np.abs(v_hi))
    lo = jac * np.sum(w_lo * vals[w_hi.size:])
    return hi, hi_abs, abs(hi - lo)


def _split(rect):
    """The two halves of a rect across its longest edge (x on a tie)."""
    k = 2 if len(rect) == 4 and rect[3] - rect[2] > rect[1] - rect[0] else 0
    lo, hi = rect[k], rect[k + 1]
    mid = 0.5 * (lo + hi)
    return (rect[:k] + (lo, mid) + rect[k + 2:],
            rect[:k] + (mid, hi) + rect[k + 2:])


def _adapt(field, rect, tol):
    """Worst-first adaptive integral of a field over a rect of one or two
    intervals; return (value, abs_value, err).

    The worst panel is split across its longest edge until the summed error
    is within tol * |value|, the float noise floor 4e-16 * |field|-mass
    (below it refinement only chases roundoff) or ABS_FLOOR.  More than
    MAX_PANELS splits raise AccuracyError, and so does a NaN (it compares
    False, so the loop stops on it as if converged); an infinite value
    raises DivergenceError.
    """
    if any(lo == hi for lo, hi in zip(rect[::2], rect[1::2])):
        return 0.0, 0.0, 0.0
    dim = len(rect) // 2
    value, aval, err = _panel(field, rect)
    heap = [(-err, 0, rect, value, aval, err)]
    total, total_abs, total_err, seq = value, aval, err, 0
    while total_err > max(tol * abs(total), 4e-16 * total_abs, ABS_FLOOR) and heap:
        if seq >= MAX_PANELS[dim]:
            raise AccuracyError(
                f"{dim}-D quadrature used {seq} panels without reaching tol={tol}"
            )
        _, _, prect, pval, paval, perr = heapq.heappop(heap)
        seq += 1
        dv, da, de = -pval, -paval, -perr
        for i, srect in enumerate(_split(prect)):
            sv, sa, se = _panel(field, srect)
            dv += sv
            da += sa
            de += se
            heapq.heappush(heap, (-se, 2 * seq + i, srect, sv, sa, se))
        total += dv
        total_abs += da
        total_err += de
    if np.isnan(total) or np.isnan(total_err):
        raise AccuracyError(f"{dim}-D quadrature produced NaN")
    if np.isinf(total):
        raise DivergenceError(f"{dim}-D quadrature produced an infinite value")
    return total, total_abs, max(total_err, 0.0)


def integrate_1d(f, a, b, tol=1e-10):
    """Adaptive integral over the finite interval [a, b].

    Parameters
    ----------
    f : callable or field
        A vectorized callable (float ndarray in, same shape out) or a
        field with values(rect, rule) on 1-D rects (a, b), which returns
        the flat values at every order of the rule in one call; a
        callable is wrapped in a `Field2D`.
    a, b : float
        Endpoints, a <= b.
    tol : float
        Relative tolerance; see `_adapt`.

    Returns
    -------
    (value, err_estimate)
    """
    value, _, err = _adapt(Field2D(f) if callable(f) else f, (a, b), tol)
    return value, err


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
    """Integral of f, a callable or a 1-D field as for `integrate_1d`, over
    the real line: [-1, 1], then shells +-[X, 2X].

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


def integrate_box(field, rect, tol=1e-8):
    """Adaptive tensor-product integral of a Field2D over a rectangle
    (x0, x1, y0, y1); see `_adapt`.

    Returns
    -------
    (value, abs_value, err_estimate)
        abs_value integrates |field| with the same nodes (used by callers to
        measure tail mass without sign cancellation).
    """
    return _adapt(field, rect, tol)


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
