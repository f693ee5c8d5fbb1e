"""Deterministic adaptive Gauss-Legendre quadrature in one and two dimensions.

One panel rule and one driver serve both dimensions.  A panel is a rect of
one or two intervals; its rule is the tensor Gauss rule of order 16, and
the error estimate compares it with the order-8 companion on the same
panel.  A field is asked once per panel for both orders: a panel's RULE
values are the order-16 tensor values and then the order-8 ones as one
flat row, on nodes that are two affine maps of reference nodes built once
per rule (`_rule`).  The driver, `_adapt`, refines worst-first with a
sequence-number tie-break, so results are bit-stable for a fixed integrand.

Fields are `PanelField`s.  `batch(rects)` returns the RULE values of k
rects as (k, n) rows.  A `Field2D` is the one store: it evaluates the rects
it has not cached in one call of its function, on all their nodes at once,
and keeps each RULE panel's values as one row of an append-only block of
BLOCK_PANELS rows (the cache entry is a view of that row).  `blocks()`
hands the stored rows on, block by block, and a `MappedField` maps them,
or a batch, through one function of the rows: a modular pass's Phi step
(`orlicz`) or a polar chart's area factor R (`halfplane`).  A field's
`known` table holds the (value, abs_value, err) of every panel stored when
it is first integrated, summed block-wise in `_table`, and `_panels` adds
each panel it evaluates; the row sums of `_sums` are bit for bit those of
one panel.  `_panels` answers known panels from the table and evaluates
the others in one batch: `_adapt` asks for both halves of a split at once,
and a strip chain asks for the first panels of its next STRIP_LOOKAHEAD
strips at once.  A Luxembourg solve maps its one store afresh for each
modular pass, so a pass after the first re-sums the panels of the passes
before it in one vectorised step per block.

Improper integrals (the real line, boundary singularities y^a with a > -1,
the half-plane) are cut into doubling shells or strips halving toward y = 0,
and one driver, `_sum_tail`, sums them: it detects divergence from sustained
non-decay of the piece masses rather than from magnitude caps, which
misclassify slowly-decaying convergent integrands.  One strip chain,
`_strip_chain`, cuts the strips of a graded box and of the Dini integral
(`growth`); a strip whose first panel already meets `_adapt`'s stop rule
is that panel, with no `_adapt` call.
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

    The worst panel is split across its longest edge until the summed error
    is within `_err_bound`.  More than MAX_PANELS splits raise
    AccuracyError, and so does a NaN (it compares False, so the loop stops
    on it as if converged); an infinite value raises DivergenceError.
    """
    if _empty(rect):
        return 0.0, 0.0, 0.0
    dim = len(rect) // 2
    [(value, aval, err)] = _panels(field, (rect,))
    heap = [(-err, 0, rect, value, aval, err)]
    total, total_abs, total_err, seq = value, aval, err, 0
    while total_err > _err_bound(total, total_abs, tol) and heap:
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


def _strip_chain(field, strip, top, tol, count):
    """The (value, abs_value, err) of count strips halving toward 0 from
    top, the strip (lo, hi) being the rect `strip(lo, hi)`: the pieces a
    graded integral hands to `_sum_tail`.

    The strips come in runs of STRIP_LOOKAHEAD, and the first panels of a
    run are evaluated in one `_panels` call before its first strip is
    reached.  A strip whose first panel has a finite value and an error
    within `_err_bound` is that panel's triple, bit for bit what
    `integrate_box` would return; any other strip, and an empty one, goes
    through `integrate_box`.  The lookahead only looks ahead: if it
    raises, each strip of the run goes through `integrate_box`, and the
    error comes back when the chain reaches the strip that raised it, or
    never.
    """
    hi = top
    for _ in range(0, count, STRIP_LOOKAHEAD):
        run = []
        for _ in range(STRIP_LOOKAHEAD):
            run.append(strip(hi / 2, hi))
            hi /= 2
        try:
            firsts = _panels(field, run)
        except Exception:  # whatever the caller's fn raises, deferred
            firsts = [None] * len(run)
        for rect, first in zip(run, firsts):
            if first is not None and not _empty(rect):
                value, aval, err = first
                if (err <= _err_bound(value, aval, tol)
                        and cmath.isfinite(value)):
                    yield first
                    continue
            yield integrate_box(field, rect, tol=tol)


def integrate_box_graded(field, x0, x1, y_top, tol=1e-8):
    """Integral over (x0, x1) x (0, y_top] by strips halving toward y = 0,
    run by `_strip_chain`: most strips, which need no split, are answered
    from the chain's lookahead, and the rest go through `integrate_box`.
    """
    strips = _strip_chain(field, lambda lo, hi: (x0, x1, lo, hi), y_top,
                          tol, MAX_STRIPS)
    return _sum_tail(strips, tol, (0.95, 6, 12), "mass near y=0")


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
