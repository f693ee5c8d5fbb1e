"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One panel rule and one driver serve both dimensions.  A panel is a rect of
one or two intervals; its rule is the tensor Gauss rule of order 16, and
the error estimate compares it with the order-8 companion on the same
panel.  A field is asked once per panel for both orders: `values(rect,
RULE)` returns the order-16 tensor values and then the order-8 ones as one
flat array, on nodes that are two affine maps of reference nodes built once
per rule (`_rule`).  The driver, `_adapt`, refines worst-first with a
sequence-number tie-break, so results are bit-stable for a fixed integrand.

Fields are `PanelField`s.  `batch(rects)` returns the RULE values of k
rects as (k, n) rows; a `Field2D` evaluates the ones it has not cached in
one call of its function, on the nodes of all of them at once, and caches
per (panel, rule) in either dimension.  It keeps every RULE panel's values
as one row of an append-only block of BLOCK_PANELS rows: the cache entry is
a view of that row, not a second array.  `blocks()` hands the stored rows
on, block by block, so a field that maps node values elementwise
(`orlicz._ComboField`, `halfplane._PolarArea`) maps a whole block, or a
whole batch, in one call.  A field's `known` table holds the (value,
abs_value, err) of every panel stored when it is first integrated, summed
block-wise in `_table`, and `_panels` adds each panel it evaluates; the
row sums of `_sums` are bit for bit those of one panel.  `_panels` answers
known panels from the table and evaluates the others in one batch: `_adapt`
asks for both halves of a split at once, and a graded strip chain asks for
the first panels of its next STRIP_LOOKAHEAD strips at once.  A Luxembourg
solve makes one field per modular pass, so a pass after the first re-sums
the panels of the passes before it in one vectorised step per block.

Improper integrals (the real line, boundary singularities y^a with a > -1,
the half-plane) are cut into doubling shells or strips halving toward y = 0,
and one driver, `_sum_tail`, sums them: it detects divergence from sustained
non-decay of the piece masses rather than from magnitude caps, which
misclassify slowly-decaying convergent integrands.
"""

import cmath
import heapq
from functools import cached_property

import numpy as np

from .errors import AccuracyError, DivergenceError

ORDER_HIGH = 16
ORDER_LOW = 8
ABS_FLOOR = 1e-300
MAX_PANELS = {1: 2000, 2: 6000}
EMPTY_PIECES = 60
RULE = (ORDER_HIGH, ORDER_LOW)
# rows of a Field2D block: a 2-D block is 32 x 320 values, 80 KB.  64-row
# blocks ran lux-bisect no faster and raised its peak RSS by 0.8 MB (one
# 20 s run each on a 2-core machine).
BLOCK_PANELS = 32
# graded strips whose first panels `integrate_box_graded` evaluates in one
# batch; a divisor of MAX_STRIPS.  On pullback rounds 1-3 of seed 1 (CPU
# time per round, median of 6, on a 2-core machine) runs of 4, 5, 8, 10 and
# 16 strips took 1.82, 1.49, 1.61, 1.54 and 1.58 s, one strip at a time
# 3.0 s.  Evaluating past each chain's last strip raised the node
# evaluations of every field by 9.1%, 2.1%, 22%, 14% and 30% on pullback
# and by 4.5%, 9.2%, 9.5%, 21% and 11% on lux-bisect.
STRIP_LOOKAHEAD = 5
MAX_STRIPS = 400

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


def _columns(rects):
    """The bounds of k rects as 2 * dim arrays of k each: one rect of bound
    arrays, which `_sums` integrates row by row."""
    return tuple(np.array(rects).T)


def _batch_nodes(rects):
    """The RULE nodes of k rects, one (k, n) array per dimension: row i
    holds `_panel_nodes(rects[i], RULE)` bit for bit."""
    return _panel_nodes([b[:, None] for b in _columns(rects)], RULE)


def _sums(rect, vals):
    """Integrate RULE values on a panel at both orders; return (value,
    abs_value, err).

    rect may also be `_columns` of k rects with vals their (k, n) rows:
    each row is summed along its own contiguous axis as one panel's flat
    values are, so each of the k triples is bit for bit the one panel's.
    `np.add.reduce` is the reduction `np.sum` runs, without its wrapper.
    """
    dim = len(rect) // 2
    jac = 0.5 ** dim * (rect[1] - rect[0])
    if dim == 2:
        jac = jac * (rect[3] - rect[2])
    w_hi, w_lo = _rule(RULE, dim)[1]
    v_hi = vals[..., :w_hi.size]
    hi = jac * np.add.reduce(w_hi * v_hi, -1)
    hi_abs = jac * np.add.reduce(w_hi * np.abs(v_hi), -1)
    lo = jac * np.add.reduce(w_lo * vals[..., w_hi.size:], -1)
    return hi, hi_abs, abs(hi - lo)


def _table(field):
    """{rect: (value, abs_value, err)} of every panel in `field.blocks()`.

    A block may hold panels the caller's integration never visits, so
    float overflow in their sums is not reported; a visited panel's inf or
    NaN still reaches `_adapt`'s checks as its own `_panels` call would.
    """
    table = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for rects, vals in field.blocks():
            sums = _sums(_columns(rects), vals)
            table.update(zip(rects, zip(*(s.tolist() for s in sums))))
    return table


class PanelField:
    """A field `_adapt` integrates, a batch of panels at a time.

    `values(rect, rule)` gives the flat values on the nodes of every order
    of the rule (`_panel_nodes`), and `batch(rects)` the RULE values of k
    distinct rects as (k, n) rows; by default one `values` call per rect.
    `blocks()` yields the RULE panels the field already holds, as (rects,
    values) pairs with one (k, n) row of values per rect; a derived field
    maps one block at a time, so only one block of its values is alive at
    once.  `known` sums those panels, once per field object, on the field's
    first integrated panel, and `_panels` adds every panel it evaluates.
    """

    def values(self, rect, rule):
        raise NotImplementedError

    def batch(self, rects):
        return np.array([self.values(r, RULE) for r in rects])

    def blocks(self):
        return iter(())

    @cached_property
    def known(self):
        return _table(self)


class Field2D(PanelField):
    """Vectorized scalar field with per-panel node-value caching.

    A panel rect is (x0, x1) for a 1-D field fn(x) or (x0, x1, y0, y1) for
    a 2-D field fn(x, y).  fn is called once per `values(rect, rule)` miss,
    on the flat nodes of every order of the rule (`_panel_nodes`), and once
    per `batch(rects)` with a miss, on the flat RULE nodes of every missed
    rect, one rect after another.  The cache is keyed on the exact rect and
    rule, so repeated integrations over the same panel geometry (e.g. the
    modular passes of one Luxembourg solve) never re-evaluate the base
    field.  A RULE panel's values are written into the next row of an
    append-only block of BLOCK_PANELS rows, and its cache entry is that
    row; `blocks()` yields the filled rows with their rects, in the order
    the panels were first asked for.  It is the one cached field type of
    both dimensions; it keeps its 2-D name because perfbench/tracer.py
    counts its evaluations under it.
    """

    def __init__(self, fn):
        self.fn = fn
        self._cache = {}
        self._blocks = []  # (rects, (BLOCK_PANELS, n) array) pairs
        self._rects = self._block = None  # the last pair, rows being filled

    def values(self, rect, rule):
        key = (rect, rule)
        if key in self._cache:
            return self._cache[key]
        if rule == RULE:
            self.batch((rect,))
            return self._cache[key]
        vals = self._eval(_panel_nodes(rect, rule))
        self._cache[key] = vals
        return vals

    def batch(self, rects, nodes=None):
        """The (k, n) RULE rows of k distinct rects.

        The uncached rects are evaluated in one fn call and stored as block
        rows.  `nodes`, their `_batch_nodes` when every rect is uncached,
        lets fields on the same rects share one node computation.
        """
        cache = self._cache
        new = [r for r in rects if (r, RULE) not in cache]
        if new:
            if nodes is None or len(new) < len(rects):
                nodes = _batch_nodes(new)
            vals = self._eval(nodes)
            self._store(new, vals)
            if len(new) == len(rects):
                return vals
        return np.array([cache[r, RULE] for r in rects])

    def _eval(self, nodes):
        """fn on the flattened node arrays, shaped as they are."""
        flat = [a.ravel() for a in nodes]
        vals = np.asarray(self.fn(*flat))
        if vals.shape != flat[0].shape:  # a constant fn gives one value
            vals = np.broadcast_to(vals, flat[0].shape)
        return vals.reshape(nodes[0].shape)

    def _store(self, rects, vals):
        """Copy the (k, n) RULE rows of k rects into the next free block
        rows, opening a new block when the last one is full or holds another
        dtype, and cache each rect's row."""
        i = 0
        while i < len(rects):
            stored, block = self._rects, self._block
            if (stored is None or len(stored) == BLOCK_PANELS
                    or block.dtype != vals.dtype):
                stored = []
                block = np.empty((BLOCK_PANELS, vals.shape[1]), vals.dtype)
                self._blocks.append((stored, block))
                self._rects, self._block = stored, block
            j = len(stored)
            part = rects[i:i + BLOCK_PANELS - j]
            rows = block[j:j + len(part)]
            rows[...] = vals[i:i + len(part)]
            stored.extend(part)
            for rect, row in zip(part, rows):
                self._cache[rect, RULE] = row
            i += len(part)

    def blocks(self):
        for rects, block in self._blocks:
            yield tuple(rects), block[:len(rects)]


def _panels(field, rects):
    """Integrate a field on each of some distinct panels at both orders of
    RULE; return their (value, abs_value, err) triples.

    Known panels come from the field's `known` table; the others are
    evaluated in one `batch` call, row-summed in one `_sums` call and added
    to the table.
    """
    known = field.known
    new = [r for r in rects if r not in known]
    if new:
        sums = _sums(_columns(new), field.batch(new))
        known.update(zip(new, zip(*(s.tolist() for s in sums))))
    return [known[r] for r in rects]


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
    [(value, aval, err)] = _panels(field, (rect,))
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
        halves = _split(prect)
        for i, (srect, (sv, sa, se)) in enumerate(
                zip(halves, _panels(field, halves))):
            dv += sv
            da += sa
            de += se
            heapq.heappush(heap, (-se, 2 * seq + i, srect, sv, sa, se))
        total += dv
        total_abs += da
        total_err += de
    # the totals are Python floats or complexes; cmath tests either part
    # of a complex as np.isnan and np.isinf do, at a fraction of the cost
    if cmath.isnan(total) or cmath.isnan(total_err):
        raise AccuracyError(f"{dim}-D quadrature produced NaN")
    if cmath.isinf(total):
        raise DivergenceError(f"{dim}-D quadrature produced an infinite value")
    return total, total_abs, max(total_err, 0.0)


def integrate_1d(f, a, b, tol=1e-10):
    """Adaptive integral over the finite interval [a, b].

    Parameters
    ----------
    f : callable or field
        A vectorized callable (float ndarray in, same shape out) or a
        `PanelField` on 1-D rects (a, b); a callable is wrapped in a
        `Field2D`.
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
    """Integral over (x0, x1) x (0, y_top] by strips halving toward y = 0.

    The strips come in runs of STRIP_LOOKAHEAD, and the first panels of a
    run are evaluated in one `_panels` call before its first strip is
    integrated, so most strips, which need no split, find their panel in
    the field's `known` table.  That call only looks ahead: if it raises,
    each strip of the run evaluates its own panel, and the error comes
    back when the chain reaches the strip that raised it, or never.
    """

    def strips():
        hi = y_top
        for _ in range(0, MAX_STRIPS, STRIP_LOOKAHEAD):
            run = []
            for _ in range(STRIP_LOOKAHEAD):
                run.append((x0, x1, hi / 2, hi))
                hi /= 2
            try:
                _panels(field, run)
            except Exception:  # whatever the caller's fn raises, deferred
                pass
            for rect in run:
                yield integrate_box(field, rect, tol=tol)

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
