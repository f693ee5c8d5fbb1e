"""Tests for the adaptive quadrature layer."""

import math
import warnings

import numpy as np
import pytest

from bergman_orlicz import growth as G
from bergman_orlicz import halfplane as H
from bergman_orlicz import orlicz as O
from bergman_orlicz import quadrature as Q
from bergman_orlicz.errors import (AccuracyError, BergmanOrliczError,
                                   DivergenceError)

import quad_oracles as QO


def test_gauss_exact_on_polynomials():
    # a single order-16 panel integrates degree 31 exactly
    v, err = Q.integrate_1d(lambda x: 5 * x ** 9 - x ** 3 + 2, 0.0, 2.0)
    exact = 5 * 2.0 ** 10 / 10 - 2.0 ** 4 / 4 + 4
    assert abs(v - exact) < 1e-12 * abs(exact)
    assert err < 1e-13 * abs(exact)


def test_adaptive_sin():
    v, _ = Q.integrate_1d(np.sin, 0.0, 2 * np.pi, tol=1e-12)
    assert abs(v) < 1e-12


def test_adaptive_peak():
    f = lambda x: 1.0 / (1e-4 + x * x)
    v, _ = Q.integrate_1d(f, -1.0, 1.0, tol=1e-10)
    exact = 2.0 / 1e-2 * np.arctan(1.0 / 1e-2)
    assert abs(v - exact) / exact < 1e-9


def test_line_gaussian():
    v, _ = Q.integrate_1d_line(lambda x: np.exp(-x * x), tol=1e-10)
    assert abs(v - np.sqrt(np.pi)) < 1e-9


def test_line_lorentz():
    v, _ = Q.integrate_1d_line(lambda x: 1.0 / (1.0 + x * x), tol=1e-9)
    assert abs(v - np.pi) < 1e-7


def test_line_divergence_flagged():
    with pytest.raises(DivergenceError):
        Q.integrate_1d_line(lambda x: 1.0 / (1.0 + np.abs(x)), tol=1e-9)


def test_field_caches_panels():
    # one fn call per (rect, rule) evaluates every order of the rule
    calls = [0]

    def f(x, y):
        calls[0] += 1
        return x * y

    field = Q.Field2D(f)
    rect = (0.0, 1.0, 0.0, 1.0)
    vals = field.values(rect, Q.RULE)
    assert calls[0] == 1
    assert vals.shape == (Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2,)
    assert field.values(rect, Q.RULE) is vals
    assert calls[0] == 1
    assert list(field._cache) == [(rect, Q.RULE)]


def test_field_stores_rule_panels_as_block_rows():
    # a RULE panel's cache entry is a row of an append-only block, the only
    # copy of its values; other rules stay outside the blocks
    field = Q.Field2D(lambda x, y: x + y)
    rects = [(0.0, 1.0, float(k), k + 1.0) for k in range(Q.BLOCK_PANELS + 3)]
    rows = [field.values(r, Q.RULE) for r in rects]
    field.values(rects[0], (Q.ORDER_LOW,))
    blocks = list(field.blocks())
    assert [len(r) for r, _ in blocks] == [Q.BLOCK_PANELS, 3]
    assert [r for rs, _ in blocks for r in rs] == rects
    stacked = np.concatenate([v for _, v in blocks])
    assert stacked.shape == (len(rects), Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2)
    for k, row in enumerate(rows):
        assert field._cache[rects[k], Q.RULE] is row
        assert np.shares_memory(row, blocks[k // Q.BLOCK_PANELS][1])
        assert np.array_equal(row, stacked[k])
    # a panel of another dtype opens a new block rather than casting
    cfield = Q.Field2D(lambda x: x + (1j if x[0] > 1 else 0))
    cfield.values((0.0, 1.0), Q.RULE)
    assert np.iscomplexobj(cfield.values((2.0, 3.0), Q.RULE))
    assert [v.dtype.kind for _, v in cfield.blocks()] == ["f", "c"]


@pytest.mark.parametrize("dim", [1, 2])
def test_block_table_equals_panel_sums(dim):
    # _table sums stored rows block-wise to the bits of one panel's _sums
    fn = (lambda x: np.exp(np.sin(7 * x)) / (1 + x * x)) if dim == 1 else \
        (lambda x, y: np.cos(5 * x * y) / (1 + x * x) - y)
    field = Q.Field2D(fn)
    rng = np.random.default_rng(3)
    rects = []
    for _ in range(2 * Q.BLOCK_PANELS + 5):
        lo = rng.uniform(-3, 3, size=dim)
        hi = lo + rng.uniform(1e-3, 2, size=dim)
        rects.append(tuple(float(v) for pair in zip(lo, hi) for v in pair))
    for r in rects:
        field.values(r, Q.RULE)
    table = Q._table(field)
    assert list(table) == rects
    for r in rects:
        row = field.values(r, Q.RULE)
        alone = Q._sums(r, row)
        assert [float(v).hex() for v in table[r][:3]] == \
            [float(v).hex() for v in alone]
        assert table[r][3] == (Q._split_axes(row[None])[0] if dim == 2 else 0)


@pytest.mark.parametrize("dim", [1, 2])
def test_panels_batch_equals_panel_by_panel(dim):
    # _panels evaluates its new rects in one fn call and gives each the
    # bits of the panel evaluated and summed on its own; a batch of partly
    # cached rects evaluates only the others
    fn = (lambda x: np.exp(np.sin(7 * x)) / (1 + x * x)) if dim == 1 else \
        (lambda x, y: np.cos(5 * x * y) / (1 + x * x) - y)
    sizes = []

    def counted(*nodes):
        sizes.append(nodes[0].size)
        return fn(*nodes)

    rng = np.random.default_rng(5)
    rects = []
    for _ in range(Q.BLOCK_PANELS + 7):
        lo = rng.uniform(-3, 3, size=dim)
        hi = lo + rng.uniform(1e-3, 2, size=dim)
        rects.append(tuple(float(v) for pair in zip(lo, hi) for v in pair))
    n = Q.ORDER_HIGH ** dim + Q.ORDER_LOW ** dim
    field = Q.Field2D(counted)
    got = Q._panels(field, rects)
    assert sizes == [len(rects) * n]
    for r, quadruple in zip(rects, got):
        row = Q.Field2D(fn).values(r, Q.RULE)
        alone = Q._sums(r, row)
        assert [float(v).hex() for v in quadruple[:3]] == \
            [float(v).hex() for v in alone]
        assert quadruple[3] == (Q._split_axes(row[None])[0] if dim == 2
                                else 0)
    assert Q._panels(field, rects[::-1]) == got[::-1]
    assert len(sizes) == 1
    part = Q.Field2D(counted)
    part.values(rects[3], Q.RULE)
    rows = part.batch(rects)
    assert sizes[2:] == [(len(rects) - 1) * n]
    assert rows.tobytes() == np.array(
        [field.values(r, Q.RULE) for r in rects]).tobytes()


def test_adapt_checks_complex_and_real_totals():
    # a complex total passes the NaN and inf checks, a NaN in a complex
    # total raises AccuracyError and an infinite real one DivergenceError
    rect = (0.0, 1.0, 0.0, 1.0)
    v, _, _ = Q.integrate_box(Q.Field2D(lambda x, y: x + 1j * y), rect)
    assert abs(v - (0.5 + 0.5j)) < 1e-14
    nan_imag = Q.Field2D(lambda x, y: 1.0 + 1j * np.where(x > 0.5, np.nan, 0.0))
    with pytest.raises(AccuracyError):
        Q.integrate_box(nan_imag, rect)
    x16 = Q._panel_nodes(rect, Q.RULE)[0][0]  # an order-16 node only
    inf_at_node = Q.Field2D(lambda x, y: np.where(x == x16, np.inf, 1.0))
    with pytest.raises(DivergenceError):
        Q.integrate_box(inf_at_node, rect)


def test_known_panels_are_not_evaluated():
    # a panel of the field's known table is answered from it; only the
    # others are asked for in a batch
    asked = []

    class Logged(Q.PanelField):
        def __init__(self, inner):
            self.inner = inner

        def batch(self, rects):
            asked.extend(rects)
            return self.inner.batch(rects)

        def blocks(self):
            return self.inner.blocks()

    inner = Q.Field2D(lambda x, y: 1.0 / np.sqrt(x * x + y + 1e-3))
    first = Q.integrate_box(Logged(inner), (0.0, 1.0, 0.0, 1.0), tol=1e-12)
    n = len(asked)
    assert n > 1
    again = Q.integrate_box(Logged(inner), (0.0, 1.0, 0.0, 1.0), tol=1e-12)
    assert len(asked) == n and again == first


@pytest.mark.parametrize("dim", [1, 2])
def test_rule_nodes_are_tensor_grids_in_ij_order(dim):
    # order 16's tensor nodes, then order 8's, each as meshgrid(ij).ravel()
    axes, weights = Q._rule(Q.RULE, dim)
    for k in range(dim):
        parts = []
        for order in Q.RULE:
            t = Q.gauss_nodes(order)[0]
            parts.append(np.meshgrid(*[t] * dim, indexing="ij")[k].ravel())
        assert np.array_equal(axes[k], np.concatenate(parts))
    for order, w in zip(Q.RULE, weights):
        g = Q.gauss_nodes(order)[1]
        full = g if dim == 1 else np.outer(g, g)
        assert np.array_equal(w, full.ravel())


def test_box_product():
    field = Q.Field2D(lambda x, y: x * y)
    v, _, _ = Q.integrate_box(field, (0.0, 1.0, 0.0, 1.0), tol=1e-12)
    assert abs(v - 0.25) < 1e-12


def test_box_graded_singularity():
    field = Q.Field2D(lambda x, y: 1.0 / np.sqrt(y))
    v, _, _ = Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-9)
    assert abs(v - 2.0) < 1e-6


def test_box_graded_divergence_flagged():
    field = Q.Field2D(lambda x, y: 1.0 / y)
    with pytest.raises(DivergenceError):
        Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-9)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("a,k", [(a, k) for a in (-0.5, 0.0, 0.5)
                                 for k in range(5) if (a, k) != (-0.5, 4)])
def test_box_graded_log_powers_match_the_closed_form(a, k, tol):
    # int y^a log(1/y)^k over (0, 1]^2 is Gamma(k + 1) / (1 + a)^(k + 1).
    # The strip masses decay at a ratio that drifts toward 2^-(1 + a), so
    # this bounds the geometric remainder's error where the tail is not
    # yet geometric
    field = Q.Field2D(lambda x, y: y ** a * np.log(1.0 / y) ** k)
    v, _, _ = Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=tol)
    exact = math.gamma(k + 1) / (1 + a) ** (k + 1)
    assert abs(v - exact) <= 0.1 * tol * exact


@pytest.mark.parametrize("fn,exact", [
    (lambda x, y: 1.0 / y, None),
    # finite, Gamma(5) / 0.5^5 = 768: its strip ratios 8^-0.5 (1 + 1/k)^4
    # fall below the divergence limit 0.95^3 after strip 4 (halving strips
    # had 2^-0.5 (1 + 1/k)^4, above 0.95 until strip 13, and read it as
    # divergent)
    (lambda x, y: y ** -0.5 * np.log(1.0 / y) ** 4, 768.0),
], ids=["1/y", "y^-0.5 log^4"])
def test_box_graded_divergence_keeps_its_message(fn, exact):
    if exact is None:
        with pytest.raises(DivergenceError) as e:
            Q.integrate_box_graded(Q.Field2D(fn), 0.0, 1.0, 1.0, tol=1e-6)
        assert str(e.value) == "mass near y=0 does not decay (piece 13)"
    else:
        v, _, _ = Q.integrate_box_graded(Q.Field2D(fn), 0.0, 1.0, 1.0,
                                         tol=1e-8)
        assert abs(v - exact) <= 1e-8 * exact


@pytest.mark.parametrize("beta", [-0.5, -0.8, -0.9, -0.92, -0.925,
                                  -0.93, -0.95, -0.99, -1.0])
def test_box_graded_power_classification(beta):
    # cos(x) y^beta over (0, 1]^2 is sin(1) / (1 + beta).  A strip holds
    # 8^-(1 + beta) of the mass of the one above, at least 0.95^3 exactly
    # when 2^-(1 + beta) >= 0.95, beta <= -0.926: the powers a halving
    # chain called divergent still are, with the same message
    field = Q.Field2D(lambda x, y: np.cos(x) * y ** beta)
    if 2.0 ** -(1 + beta) < 0.95:
        v, _, _ = Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-12)
        exact = math.sin(1.0) / (1 + beta)
        assert abs(v - exact) <= 1e-12 * exact
    else:
        with pytest.raises(DivergenceError) as e:
            Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-12)
        assert str(e.value) == "mass near y=0 does not decay (piece 13)"


def test_nan_integrand_raises():
    # a NaN stops the refinement loop (NaN compares False), so it must be
    # reported rather than returned
    field = Q.Field2D(lambda x, y: np.where(x > 0.5, np.nan, 1.0))
    with pytest.raises(AccuracyError):
        Q.integrate_box(field, (0.0, 1.0, 0.0, 1.0))
    with pytest.raises(AccuracyError):
        Q.integrate_1d(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


def test_infinite_integrand_raises():
    # a node lands on the pole 0.5 + 0.55i, so the panel sum is inf
    pole = 0.5 + 0.55j
    field = Q.Field2D(lambda x, y: np.abs(1.0 / (x + 1j * y - pole)) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            Q.integrate_box(field, (0.0, 1.0, 0.2, 1.0))


def test_zero_field_integrates_to_zero():
    field = Q.Field2D(lambda x, y: np.zeros_like(x))
    assert Q.integrate_box_graded(field, 0.0, 1.0, 1.0) == (0.0, 0.0, 0.0)
    assert Q.integrate_halfplane(field) == (0.0, 0.0, 0.0)
    assert Q.integrate_1d_line(np.zeros_like) == (0.0, 0.0)


def test_line_mass_outside_first_piece():
    # [-1, 1] and the first shells hold no mass at all
    v, _ = Q.integrate_1d_line(lambda x: np.exp(-(x - 100.0) ** 2))
    assert abs(v - np.sqrt(np.pi)) < 1e-9


def test_box_graded_mass_below_empty_strips():
    # exp(-1e4 y) underflows to 0 on the top strips
    field = Q.Field2D(lambda x, y: np.exp(-1e4 * y))
    v, _, _ = Q.integrate_box_graded(field, 0.0, 1.0, 1.0)
    assert abs(v - 1e-4) < 1e-8 * 1e-4


def test_box_graded_wide_strip_splits_in_y():
    # the strips are 3 wide and exp(-1e4 y) varies only in y: halving the
    # longest edge would split them in x until MAX_PANELS
    field = Q.Field2D(lambda x, y: np.exp(-1e4 * y))
    v, _, _ = Q.integrate_box_graded(field, -1.0, 2.0, 1.5, tol=1e-8)
    assert abs(v - 3e-4) <= 1e-8 * 3e-4


@pytest.mark.parametrize("fn,rect,axis", [
    (lambda x, y: np.exp(-30.0 * y) + x, (0.0, 100.0, 0.0, 1.0), 1),
    (lambda x, y: np.exp(-30.0 * x) + y, (0.0, 1.0, 0.0, 0.01), 0),
], ids=["y", "x"])
def test_split_axis_follows_the_values(fn, rect, axis):
    # a 100-wide panel whose values vary in y is halved across y, and a
    # 0.01-high one whose values vary in x across x
    [(_, _, _, got)] = Q._panels(Q.Field2D(fn), (rect,))
    assert got == axis
    lo, hi = Q._split(rect, got)
    mid = 0.5 * (rect[2 * axis] + rect[2 * axis + 1])
    assert lo[2 * axis + 1] == hi[2 * axis] == mid
    assert lo[2 - 2 * axis:][:2] == hi[2 - 2 * axis:][:2]


def test_halfplane_kernel_power():
    # integral over C+ of |z+i|^{-4}: line formula then halfline, pi/4
    field = Q.Field2D(lambda x, y: (x * x + (y + 1) ** 2) ** -2.0)
    v, _, _ = Q.integrate_halfplane(field, tol=1e-8)
    assert abs(v - np.pi / 4) / (np.pi / 4) < 1e-7


def test_halfplane_log_divergence_flagged():
    field = Q.Field2D(lambda x, y: 1.0 / (1.0 + x * x + y * y))
    with pytest.raises(DivergenceError):
        Q.integrate_halfplane(field, tol=1e-8)


def test_deterministic_repeat():
    field = Q.Field2D(lambda x, y: np.exp(-x * x - y) * (1 + np.sin(3 * x) ** 2))
    a = Q.integrate_halfplane(field, tol=1e-8)[0]
    field2 = Q.Field2D(lambda x, y: np.exp(-x * x - y) * (1 + np.sin(3 * x) ** 2))
    b = Q.integrate_halfplane(field2, tol=1e-8)[0]
    assert a == b


@pytest.mark.parametrize("tol", [1e-8, 1e-12])
def test_box_zero_integral_returns(tol):
    # the value is 0, so tol * |value| is never met; the float noise floor
    # 4e-16 * |field|-mass stops the refinement
    field = Q.Field2D(lambda x, y: np.sin(x) * np.cos(y))
    v, _, _ = Q.integrate_box(field, (0.0, 2 * np.pi, 0.0, 1.0), tol=tol)
    assert abs(v) <= 1e-14


def test_constant_fn_integrates():
    # a fn that returns one value for every node is broadcast over the panel
    assert Q.integrate_1d(lambda x: 2.0, 0.0, 1.0)[0] == 2.0
    v, _, _ = Q.integrate_box(Q.Field2D(lambda x, y: 2.0), (0.0, 1.0, 0.0, 3.0))
    assert abs(v - 6.0) < 1e-14


def test_1d_field_and_callable_agree():
    # integrate_1d wraps a callable into a Field2D on 1-D rects
    f = lambda x: 1.0 / (1e-2 + x * x)
    field = Q.Field2D(f)
    assert Q.integrate_1d(field, -1.0, 1.0) == Q.integrate_1d(f, -1.0, 1.0)
    assert all(len(rect) == 2 and rule == Q.RULE
               for rect, rule in field._cache)


# float.hex of results frozen before the panel rule moved to one field call
# per panel: fusing both orders into one call must not move a bit.  Pins of
# improper integrals, re-pinned when geometric tails were summed and when
# graded strips went to ratio 8, are first checked against their closed
# forms.
def _hexes(values):
    return [float(v).hex() for v in values]


def test_bits_integrate_box():
    field = Q.Field2D(lambda x, y: np.exp(x * y) / (1 + x * x))
    assert _hexes(Q.integrate_box(field, (0.0, 2.0, 0.5, 1.5), tol=1e-10)) == [
        "0x1.695fb9c875c3ep+1", "0x1.695fb9c875c3ep+1", "0x1.0b46000000000p-35"]


def test_bits_integrate_box_graded():
    field = Q.Field2D(lambda x, y: np.cos(x) / np.sqrt(y))
    r = Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-9)
    exact = 2.0 * np.sin(1.0)
    assert abs(r[0] - exact) <= 1e-9 * exact
    assert _hexes(r) == [
        "0x1.aed548f090cecp+0", "0x1.aed548f090cecp+0", "0x1.a546680000000p-36"]


def test_bits_integrate_halfplane():
    field = Q.Field2D(lambda x, y: np.exp(-x * x - y) * (1 + np.sin(3 * x) ** 2))
    r = Q.integrate_halfplane(field, tol=1e-8)
    # sin^2 = (1 - cos 2u) / 2 and int exp(-x^2) cos(6x) dx = sqrt(pi) e^-9
    exact = np.sqrt(np.pi) * (3.0 - np.exp(-9.0)) / 2.0
    assert abs(r[0] - exact) <= 1e-8 * exact
    assert _hexes(r) == [
        "0x1.544c11602ea91p+1", "0x1.544c11602ea91p+1", "0x1.d8f3579ab7f18p-32"]


def test_bits_integrate_1d_line():
    r = Q.integrate_1d_line(lambda x: 1.0 / (1.0 + x * x) ** 1.5, tol=1e-10)
    assert abs(r[0] - 2.0) <= 1e-10 * 2.0
    assert _hexes(r) == ["0x1.00000000005ffp+1", "0x1.754afd6f7c000p-35"]


def test_bits_disk_polar_chart():
    # a Disk integrates its polar chart times R (halfplane._polar_area)
    disk = H.Disk(H.HPoint(0.2, 1.0), 0.5)
    v = H.integrate(lambda z: np.abs(z - 0.3j) ** 2, 0.5, disk)
    assert v.hex() == "0x1.16feb50d5eb97p-1"
    mu = O.valpha_measure(0.0, H.Disk(H.HPoint(0.0, 1.0), 0.5))
    r = O.luxembourg(lambda z: 1.0 / np.abs(z + 1j), mu, G.power_log(2, 1, 2))
    # nested QUADPACK on the disk puts the modular at the value within 1e-8
    # of 1 before the bits are compared
    assert abs(QO.disk_modular(QO.power_log(2, 1, 2),
                               lambda x, y: 1.0 / np.hypot(x, y + 1) / r.value,
                               0.0, 1.0, 0.5) - 1.0) <= 1e-8
    assert r.value.hex() == "0x1.e9783f7691185p-2"


def test_one_shot_integrals_keep_their_bits():
    # `integrate_1d` of a plain callable runs on an uncached field; the Dini
    # integrals of a Dini-constant fit and a disk's V_alpha mass keep the
    # bits they had on the caching field.  For t^2 log(2 + t) the Dini
    # integral is closed, (2 + t) log(2 + t) - t - 2 log 2, and the fitted
    # constant is its largest ratio on the fit's t grid
    ok, constant = G._fit_dini_constant(G.power_log(2, 1, 2))
    ts = np.logspace(-6, 6, 25)
    exact = np.max(((2 + ts) * np.log(2 + ts) - ts - 2 * np.log(2))
                   / (ts * np.log(2 + ts)))
    assert ok and abs(constant - exact) <= 1e-9 * exact
    assert constant.hex() == "0x1.fffff3e5cabf5p-1"
    disk = H.Disk(H.HPoint(0.3, 1.0), 0.6)
    assert [H.disk_measure(disk, a).hex() for a in (0.5, -0.5, 2.5)] == [
        "0x1.1e1012765600cp+0", "0x1.2ce409aab1db1p+0", "0x1.5232cd62abf7dp+0"]



def _graded_strip_by_strip(field, x0, x1, y_top, tol):
    """`integrate_box_graded` with one `integrate_box` call per strip after
    its run's lookahead batch, as it was before converged strips were
    answered from that batch."""

    def strips():
        # a batch reads the split axes of all its panels, the chain's only
        # those of the panels it splits
        ratio = Q.STRIP_RATIO
        hi, left = y_top, math.ceil(Q.MAX_STRIPS / math.log2(ratio))
        while left > 0:
            run = []
            for _ in range(min(Q.STRIP_LOOKAHEAD, left)):
                run.append((x0, x1, hi / ratio, hi))
                hi /= ratio
            left -= len(run)
            try:
                Q._panels(field, run)
            except Exception:
                pass
            for rect in run:
                yield Q.integrate_box(field, rect, tol=tol)

    return Q._sum_tail(strips(), tol, (0.95 ** 3, 6, 12), "mass near y=0")


def _outcome(run, *args):
    """The float.hex of both parts of each returned value, or the type and
    message of the error raised."""
    try:
        values = run(*args)
    except BergmanOrliczError as e:
        return type(e).__name__, str(e)
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


GRADED_FIELDS = {
    "cos/sqrt(y)": lambda x, y: np.cos(x) / np.sqrt(y),
    "y^-0.7 peak": lambda x, y: y ** -0.7 / (1e-3 + (x - 0.3) ** 2),
    "underflow": lambda x, y: np.exp(-300.0 * y),
    "constant": lambda x, y: np.ones_like(x),
    "complex": lambda x, y: np.exp(3j * x) * np.log(y) ** 2,
    "modular pass": lambda x, y: O._phi_step(G.power_log(2.5, 1, 2), 0.4)(
        None, O._pack(np.abs(1.0 - 1j * (x + 1j * y)) ** -3, y ** -0.5)),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("name", sorted(GRADED_FIELDS))
def test_graded_chain_keeps_the_strip_by_strip_bits(name, tol):
    fn = GRADED_FIELDS[name]
    outcomes = [_outcome(run, Q.Field2D(fn), -1.0, 2.0, 1.5, tol)
                for run in (Q.integrate_box_graded, _graded_strip_by_strip)]
    assert outcomes[0] == outcomes[1]


def test_graded_chain_divergence_keeps_its_message():
    outcomes = [_outcome(run, Q.Field2D(lambda x, y: 1.0 / y), 0.0, 1.0, 1.0,
                         1e-9)
                for run in (Q.integrate_box_graded, _graded_strip_by_strip)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "DivergenceError"


def _raising_below(y_min, raised):
    """1 on the unit box; where a node lies below y_min, the log of a
    negative number gives a RuntimeWarning, which the tests make an error,
    and `raised` records it."""

    def fn(x, y):
        raised.append(bool((y < y_min).any()))
        return np.ones_like(x) + 0.0 * np.log(y - y_min)

    return fn


def test_graded_chain_lookahead_errors_past_its_stop_are_dropped():
    # the constant field's strip masses fall by 1/8, so at tol 1e-7 its
    # chain stops at strip 3, (8^-3, 8^-2], and adds the geometric rest;
    # the lookahead batch of strips 1 to n = STRIP_LOOKAHEAD reaches strip
    # n, (8^-n, 8^-(n-1)], and raises there
    n = Q.STRIP_LOOKAHEAD
    assert n > 3
    y_min = float(Q.STRIP_RATIO) ** -(n - 1)
    outcomes = []
    for run in (Q.integrate_box_graded, _graded_strip_by_strip):
        raised = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes.append(_outcome(
                run, Q.Field2D(_raising_below(y_min, raised)),
                0.0, 1.0, 1.0, 1e-7))
        assert any(raised)
    assert outcomes[0] == outcomes[1] == _outcome(
        Q.integrate_box_graded, Q.Field2D(GRADED_FIELDS["constant"]),
        0.0, 1.0, 1.0, 1e-7)


def test_graded_chain_reached_errors_come_back():
    # the chain reaches strip 3, (8^-3, 8^-2], at tol 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for run in (Q.integrate_box_graded, _graded_strip_by_strip):
            with pytest.raises(RuntimeWarning, match="invalid value"):
                run(Q.Field2D(_raising_below(8.0 ** -2, [])), 0.0, 1.0, 1.0,
                    1e-8)


def test_graded_chain_infinite_first_panel_raises():
    # a pole on an order-16 node of the first strip, (0, 1) x (0.5, 1]:
    # that order's sum is inf and the order-8 one finite, so the error is
    # inf and within tol * |value|, and only the value tells the strip out
    x, y = Q._panel_nodes((0.0, 1.0, 0.5, 1.0), (Q.ORDER_HIGH,))
    pole = x[37] + 1j * y[37]
    outcomes = []
    for run in (Q.integrate_box_graded, _graded_strip_by_strip):
        field = Q.Field2D(lambda x, y: np.abs(1.0 / (x + 1j * y - pole)) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            outcomes.append(_outcome(run, field, 0.0, 1.0, 1.0, 1e-8))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == "DivergenceError"
