"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One panel rule and one driver serve both dimensions.  A panel is a rect of
one or two intervals; its rule is the tensor Gauss rule of order 16, and
the error estimate compares it with the order-8 companion on the same
panel.  A field is asked once per panel for both orders: a panel's RULE
values are the order-16 tensor values and then the order-8 ones as one
flat row, on nodes that are two affine maps of reference nodes built once
per rule (`_rule`).  The driver, `_adapt`, refines worst-first with a
sequence-number tie-break, so results are bit-stable for a fixed integrand.
It halves a 2-D panel across the axis its order-16 values vary in, read
from their tensor Legendre coefficients (`_split_axes`), not across its
longest edge: a graded strip is far wider than high, and near the
boundary a feature can be far higher than wide.

Fields are `PanelField`s.  `batch(rects)` returns the RULE values of k
rects as (k, n) rows.  A `Field2D` is the one store: it evaluates the rects
it has not cached in one call of its function, on all their nodes at once,
and keeps each RULE panel's values as one row of an append-only block of
BLOCK_PANELS rows (the cache entry is a view of that row).  `blocks()`
hands the stored rows on, block by block, and a `MappedField` maps them,
or a batch, through one function of the rows: a modular pass's Phi step
(`orlicz`) or a polar chart's area factor R (`halfplane`).  A field's
`known` table holds the (value, abs_value, err, axis) of every panel
stored when it is first integrated, summed block-wise in `_table`, and
`_panels` adds each panel it evaluates; the row sums of `_sums` are bit
for bit those of one panel.  `_panels` answers known panels from the
table and evaluates the others in one batch: `_adapt` asks for both
halves of a split at once, and a strip chain asks for the first panels of
its next STRIP_LOOKAHEAD strips at once, reading the split axes of only
those it will split.  A Luxembourg solve maps its one store afresh for
each modular pass, so a pass after the first re-sums the panels of the
passes before it in one vectorised step per block.

Improper integrals (the real line, boundary singularities y^a with a > -1,
the half-plane) are cut into doubling shells or geometric strips toward
y = 0, (h/8, h] for a graded box and (h/2, h] for the Dini integral,
and one driver, `_sum_tail`, sums them: it detects divergence from sustained
non-decay of the piece masses rather than from magnitude caps, which
misclassify slowly-decaying convergent integrands, and it stops as soon as
the pieces decay at a steady ratio, adding the rest of that geometric
series (`_geometric_rest`) rather than walking it.  One strip chain,
`_strip_chain`, cuts the strips of a graded box and of the Dini integral
(`growth`); a strip whose first panel already meets `_adapt`'s stop rule
is that panel, with no `_adapt` call.  The same driver sums the modulars
of the dyadic-cell rings past `carleson.berezin_membership`'s window, and
its divergence rule is that membership verdict.
"""

import cmath
import heapq
import math
from functools import cache, cached_property

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
# graded strips whose first panels `_strip_chain` evaluates in one batch.
# Ratio-8 chains end after 5-8 strips.  On the first traced round of seed 6
# (perfbench --trace 1), runs of 3, 4, 5, 6, 7, 8 and 10 strips fed f
# 1.06M, 1.22M, 1.44M, 1.12M, 1.13M, 1.22M and 1.44M nodes and Phi 1.73M,
# 2.05M, 2.09M, 1.79M, 1.88M, 2.05M and 2.44M on pullback, and f 157k,
# 153k, 183k, 190k, 154k, 153k and 183k and Phi 962k, 931k, 1.11M, 1.17M,
# 953k, 932k and 1.11M on lux-bisect.  Runs of 5, 6, 7, 8 and 10 took a
# median 0.229, 0.193, 0.187, 0.184 and 0.202 s per pullback round and
# 0.073, 0.074, 0.062, 0.061 and 0.068 s per lux-bisect round (4 runs
# each, 2-core machine): 7 and 8 tie on time, and 7 feeds f and Phi 6%
# fewer nodes than 8 over both workloads.
STRIP_LOOKAHEAD = 7
# the reach of a strip chain, in halvings of its top: 2^-MAX_STRIPS * top
MAX_STRIPS = 400
# a graded box's strips are (h / STRIP_RATIO, h]; see `integrate_box_graded`
STRIP_RATIO = 8

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


@cache
def _legendre():
    """The matrix that maps a polynomial's values at the order-16 Gauss
    nodes to its Legendre coefficients, degree by row."""
    t, w = gauss_nodes(ORDER_HIGH)
    vander = np.polynomial.legendre.legvander(t, ORDER_HIGH - 1)
    return (np.arange(ORDER_HIGH) + 0.5)[:, None] * vander.T * w


def _split_axes(rows):
    """The axis, 0 for x and 1 for y, that `_split` halves each of k 2-D
    panels across, from their (k, n) RULE rows; a list of k.

    The tensor Legendre coefficients C = L V L^T of a panel's order-16
    values V (x by row) show where they vary: x is halved when the
    coefficients of upper x degree hold at least the |C|-mass of those of
    upper y degree.  The block upper in both degrees counts for both, so
    only the two mixed blocks are compared.
    """
    leg, half = _legendre(), ORDER_HIGH // 2
    v = rows[:, :ORDER_HIGH ** 2].reshape(-1, ORDER_HIGH, ORDER_HIGH)
    with np.errstate(over="ignore", invalid="ignore"):
        upper_x = np.add.reduce(np.abs(leg[half:] @ v @ leg[:half].T), (1, 2))
        upper_y = np.add.reduce(np.abs(leg[:half] @ v @ leg[half:].T), (1, 2))
    return (upper_x < upper_y).astype(int).tolist()


def _quadruples(rects, rows, tol=None):
    """{rect: (value, abs_value, err, axis)} of k rects from their (k, n)
    RULE rows: `_sums`, and the axis `_split` halves each across.

    The axis is 0 in 1-D.  A 2-D panel's is `_split_axes`; given tol, only
    a panel whose err exceeds `_err_bound` at tol, one that `_adapt` on
    that panel alone splits, gets one, and the others get None (`_adapt`
    reads the axis of one it splits after all).
    """
    quads = list(zip(*(s.tolist() for s in _sums(_columns(rects), rows))))
    if len(rects[0]) == 2:
        return {r: q + (0,) for r, q in zip(rects, quads)}
    split = [None] * len(rects)
    want = [i for i, (v, a, e) in enumerate(quads)
            if tol is None or e > _err_bound(v, a, tol)]
    if want:
        axes = _split_axes(rows if len(want) == len(rects) else rows[want])
        for i, axis in zip(want, axes):
            split[i] = axis
    return {r: q + (axis,) for r, q, axis in zip(rects, quads, split)}


def _table(field):
    """{rect: (value, abs_value, err, axis)} of every panel in
    `field.blocks()`; see `_quadruples`.

    A block may hold panels the caller's integration never visits, so
    float overflow in their sums is not reported; a visited panel's inf or
    NaN still reaches `_adapt`'s checks as its own `_panels` call would.
    """
    table = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for rects, rows in field.blocks():
            table.update(_quadruples(rects, rows))
    return table


class PanelField:
    """A field `_adapt` integrates, a batch of panels at a time.

    `batch(rects)` gives the RULE values of k distinct rects as (k, n) rows,
    on the nodes of `_batch_nodes`.  `blocks()` yields the RULE panels the
    field already holds, as (rects, values) pairs with one (k, n) row of
    values per rect; a mapped field maps one block at a time, so only one
    block of its values is alive at once.  `known` sums those panels, once
    per field object, on the field's first integrated panel, and `_panels`
    adds every panel it evaluates.
    """

    def batch(self, rects):
        raise NotImplementedError

    def blocks(self):
        return iter(())

    @cached_property
    def known(self):
        return _table(self)


class _FnField(PanelField):
    """A vectorized fn(x) or fn(x, y) as a field with no cache.

    A panel rect is (x0, x1) for a 1-D fn or (x0, x1, y0, y1) for a 2-D one.
    fn is called once per `batch(rects)`, on the flat RULE nodes of every
    rect, one rect after another.  It serves integrals that never revisit
    a panel: those of `integrate_1d` and the Dini integral's strip chain
    (`growth._dini_integral`), whose `known` table holds every panel sum
    it needs again.
    """

    def __init__(self, fn):
        self.fn = fn

    def batch(self, rects):
        return self._eval(_batch_nodes(rects))

    def _eval(self, nodes):
        """fn on the flattened node arrays, shaped as they are."""
        flat = [a.ravel() for a in nodes]
        vals = np.asarray(self.fn(*flat))
        if vals.shape != flat[0].shape:  # a constant fn gives one value
            vals = np.broadcast_to(vals, flat[0].shape)
        return vals.reshape(nodes[0].shape)


class Field2D(_FnField):
    """A `_FnField` with per-panel node-value caching.

    fn is called as for `_FnField`, but only on panels not asked for
    before.  The cache is keyed on the exact rect and rule, so repeated
    integrations over the same panel geometry (e.g. the modular passes of
    one Luxembourg solve) never re-evaluate the base field.  A RULE panel's
    values are written into the next row of an append-only block of
    BLOCK_PANELS rows, and its cache entry is that row; `blocks()` yields
    the filled rows with their rects, in the order the panels were first
    asked for; `values(rect, rule)` gives one panel's values under any rule.
    It is the one cached field type of both dimensions; it keeps its 2-D
    name because perfbench/tracer.py counts its evaluations under it.
    """

    def __init__(self, fn):
        super().__init__(fn)
        self._cache = {}
        self._blocks = []  # (rects, (BLOCK_PANELS, n) array) pairs
        self._rects = self._block = None  # the last pair, rows being filled

    def values(self, rect, rule):
        key = (rect, rule)
        if key not in self._cache:
            if rule == RULE:
                self.batch((rect,))
            else:
                self._cache[key] = self._eval(_panel_nodes(rect, rule))
        return self._cache[key]

    def batch(self, rects):
        """The (k, n) RULE rows of k distinct rects; the uncached ones are
        evaluated in one fn call and stored as block rows."""
        cache = self._cache
        new = [r for r in rects if (r, RULE) not in cache]
        if new:
            vals = super().batch(new)
            self._store(new, vals)
            if len(new) == len(rects):
                return vals
        return np.array([cache[r, RULE] for r in rects])

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


class MappedField(PanelField):
    """`g(rects, rows)` of another field's (k, n) RULE rows of k rects, one
    g call per batch or stored block."""

    def __init__(self, field, g):
        self.field = field
        self.g = g

    def batch(self, rects):
        return self.g(rects, self.field.batch(rects))

    def blocks(self):
        for rects, rows in self.field.blocks():
            yield rects, self.g(rects, rows)


def _panels(field, rects, tol=None):
    """Integrate a field on each of some distinct panels at both orders of
    RULE; return their (value, abs_value, err, axis) quadruples
    (`_quadruples`).

    Known panels come from the field's `known` table; the others are
    evaluated in one `batch` call, row-summed in one `_sums` call and added
    to the table.
    """
    known = field.known
    new = [r for r in rects if r not in known]
    if new:
        known.update(_quadruples(new, field.batch(new), tol))
    return [known[r] for r in rects]


def _split(rect, axis):
    """The two halves of a rect across an axis, 0 for x and 1 for y: the
    one `_split_axes` reads from a 2-D panel's values.

    A graded strip (h/8, h] of a field ~ y^a is far wider than high, and
    halving its longest edge would chase in x what varies in y; a
    feature about y wide near the boundary is the converse case.  The
    values' Legendre coefficients tell the two apart (the DCUHRE rule of
    Berntsen, Espelid & Genz, ACM TOMS 17, 1991, on a tensor rule).
    """
    k = 2 * axis
    lo, hi = rect[k], rect[k + 1]
    mid = 0.5 * (lo + hi)
    return (rect[:k] + (lo, mid) + rect[k + 2:],
            rect[:k] + (mid, hi) + rect[k + 2:])


def _empty(rect):
    """Whether a rect has an interval of zero length."""
    return any(lo == hi for lo, hi in zip(rect[::2], rect[1::2]))


def _err_bound(value, aval, tol):
    """The error at which `_adapt` stops refining: the largest of
    tol * |value|, the float noise floor 4e-16 * |field|-mass (below it
    refinement only chases roundoff) and ABS_FLOOR."""
    return max(tol * abs(value), 4e-16 * aval, ABS_FLOOR)


def _adapt(field, rect, tol):
    """Worst-first adaptive integral of a field over a rect of one or two
    intervals; return (value, abs_value, err).

    The worst panel is split across the axis its values vary in (`_split`)
    until the summed error is within `_err_bound`.  More than MAX_PANELS
    splits raise AccuracyError, and so does a NaN (it compares False, so
    the loop stops on it as if converged); an infinite value raises
    DivergenceError.
    """
    if _empty(rect):
        return 0.0, 0.0, 0.0
    dim = len(rect) // 2
    [(value, aval, err, axis)] = _panels(field, (rect,))
    heap = [(-err, 0, rect, value, aval, err, axis)]
    total, total_abs, total_err, seq = value, aval, err, 0
    while total_err > _err_bound(total, total_abs, tol) and heap:
        if seq >= MAX_PANELS[dim]:
            raise AccuracyError(
                f"{dim}-D quadrature used {seq} panels without reaching tol={tol}"
            )
        _, _, prect, pval, paval, perr, paxis = heapq.heappop(heap)
        if paxis is None:
            [paxis] = _split_axes(field.batch((prect,)))
        seq += 1
        dv, da, de = -pval, -paval, -perr
        halves = _split(prect, paxis)
        for i, (srect, (sv, sa, se, sx)) in enumerate(
                zip(halves, _panels(field, halves))):
            dv += sv
            da += sa
            de += se
            heapq.heappush(heap, (-se, 2 * seq + i, srect, sv, sa, se, sx))
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
        `_FnField`, as no panel of one integral is evaluated twice.
    a, b : float
        Endpoints, a <= b.
    tol : float
        Relative tolerance; see `_adapt`.

    Returns
    -------
    (value, err_estimate)
    """
    value, _, err = _adapt(_FnField(f) if callable(f) else f, (a, b), tol)
    return value, err


def _geometric_rest(last, limit, margin):
    """The (value, abs_value, err) of the pieces after the last three
    (value, mass) pairs in `last`, summed as a geometric series, or None.

    Both mass ratios a1/a0 and a2/a1 must lie below `limit`, and the two
    remainders a2 r / (1 - r) they give must agree within `margin`.  The
    same holds for the value ratios q (in modulus) and remainders
    v2 q / (1 - q), which are exact for geometric real or complex pieces
    (Aitken's delta-squared process).  The remainders of the last ratios
    are returned, with the larger of the two disagreements as err.
    """
    if len(last) < 3 or not all(a > 0 and v != 0 for v, a in last[:2]):
        return None
    rests = []
    for x0, x1, x2 in zip(*last):  # the values, then the masses
        r1, r2 = x1 / x0, x2 / x1
        if not (abs(r1) < limit and abs(r2) < limit):
            return None
        t1, t2 = x2 * r1 / (1 - r1), x2 * r2 / (1 - r2)
        if not abs(t2 - t1) <= margin:
            return None
        rests.append((t2, abs(t2 - t1)))
    (value, value_err), (mass, mass_err) = rests
    return value, mass, max(value_err, mass_err)


def _sum_tail(pieces, tol, rule, what, base=(0.0, 0.0, 0.0)):
    """Sum (value, abs_value, err) pieces onto `base`; return the totals.

    Stops at the first piece whose mass (abs_value) is at most
    tol * max(summed masses, ABS_FLOOR) / 8, or as soon as the last three
    pieces decay at a steady ratio: then `_geometric_rest`, within a
    margin of tol * max(summed masses, ABS_FLOOR) / 64, adds the remainder
    of the series and its error.  rule = (limit, run, warmup): `run`
    successive pieces, each holding at least `limit` times the mass of the
    one before, raise DivergenceError once past piece `warmup`; a ratio of
    `limit` or more never stops the sum.  While the summed mass, base
    included, is 0, pieces neither stop the sum nor count; EMPTY_PIECES of
    them make the total 0.  Running out of pieces raises AccuracyError.

    `run` and `warmup` count pieces, whatever their size: a graded box's
    rule (0.95^3, 6, 12) over strips of ratio 8 calls y^a divergent where
    (0.95, 6, 12) did over halving strips, at the same piece.  Strip
    ratios that settle like 1 + c r^-k on strips of ratio r meet the
    geometric stop after fewer pieces the larger r is.
    """
    limit, run, warmup = rule
    total, total_abs, err = base
    prev, flat, k, empty, last = 0.0, 0, 0, 0, []
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
        margin = tol * max(total_abs, ABS_FLOOR)
        if a <= margin / 8.0:
            return total, total_abs, err
        last = last[-2:] + [(v, a)]
        rest = _geometric_rest(last, limit, margin / 64.0)
        if rest is not None:
            return total + rest[0], total_abs + rest[1], err + rest[2]
        prev = a
        k += 1
    raise AccuracyError(f"{what}: pieces exhausted without decay")


def integrate_1d_line(f, tol=1e-10):
    """Integral of f, a callable or a 1-D field as for `integrate_1d`, over
    the real line: [-1, 1], then shells +-[X, 2X].

    A shell is negligible against the summed |shell| values, not |integral|;
    the two agree for nonnegative integrands.  Nothing in the package calls
    it: it stays as the real-line entry point that `perfbench/tracer.py`
    hooks.
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
    """Adaptive integral of a field over a rectangle (x0, x1, y0, y1), or
    over an interval (x0, x1) for a 1-D field; see `_adapt`.

    Returns
    -------
    (value, abs_value, err_estimate)
        abs_value integrates |field| with the same nodes (used by callers to
        measure tail mass without sign cancellation).
    """
    return _adapt(field, rect, tol)


def _strip_chain(field, strip, top, tol, ratio):
    """The (value, abs_value, err) of the strips (hi / ratio, hi] from top
    toward 0, the strip (lo, hi) being the rect `strip(lo, hi)`: the pieces
    a graded integral hands to `_sum_tail`.  ratio is a power of 2, and the
    chain has MAX_STRIPS / log2(ratio) strips, rounded up, so it reaches
    about 2^-MAX_STRIPS * top at any ratio.

    The strips come in runs of STRIP_LOOKAHEAD, and the first panels of a
    run are evaluated in one `_panels` call before its first strip is
    reached.  A strip whose first panel has a finite value and an error
    within `_err_bound` is that panel's triple, bit for bit what
    `integrate_box` would return; any other strip, and an empty one, goes
    through `integrate_box`, and only such first panels get their split
    axes read in the batch.  The lookahead only looks ahead: if it
    raises, each strip of the run goes through `integrate_box`, and the
    error comes back when the chain reaches the strip that raised it, or
    never.
    """
    hi, left = top, math.ceil(MAX_STRIPS / math.log2(ratio))
    while left > 0:
        run = []
        for _ in range(min(STRIP_LOOKAHEAD, left)):
            run.append(strip(hi / ratio, hi))
            hi /= ratio
        left -= len(run)
        try:
            firsts = _panels(field, run, tol)
        except Exception:  # whatever the caller's fn raises, deferred
            firsts = [None] * len(run)
        for rect, first in zip(run, firsts):
            if first is not None and not _empty(rect):
                value, aval, err, _ = first
                if (err <= _err_bound(value, aval, tol)
                        and cmath.isfinite(value)):
                    yield value, aval, err
                    continue
            yield integrate_box(field, rect, tol=tol)


def integrate_box_graded(field, x0, x1, y_top, tol=1e-8):
    """Integral over (x0, x1) x (0, y_top] by the strips
    (y_top 8^-(k+1), y_top 8^-k] toward y = 0, run by `_strip_chain`: most
    strips, which need no split, are answered from the chain's lookahead,
    and the rest go through `integrate_box`.  Near y = 0 an integrand
    ~ y^a puts 8^-(1+a) of a strip's mass in the next, so `_sum_tail` sums
    the strips below the third such one in closed form.

    A ratio of 8 suits a boundary singularity better than halving (the
    best geometric grading of hp-refinement is near (sqrt 2 - 1)^2 = 0.17;
    Gui & Babuska, Numer. Math. 49, 1986): a chain ends after 5-8 strips
    where halving took 10-16.  The divergence limit 0.95^3 is the one
    halving strips had, 0.95, over three halvings, so y^a is divergent
    for the same a: 8^-(1+a) >= 0.95^3 exactly when 2^-(1+a) >= 0.95.
    """
    strips = _strip_chain(field, lambda lo, hi: (x0, x1, lo, hi), y_top, tol,
                          STRIP_RATIO)
    return _sum_tail(strips, tol, (0.95 ** 3, 6, 12), "mass near y=0")


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
