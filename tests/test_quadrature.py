"""Tests for the adaptive quadrature layer."""

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
        alone = Q._sums(r, field.values(r, Q.RULE))
        assert [float(v).hex() for v in table[r]] == \
            [float(v).hex() for v in alone]


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
    for r, triple in zip(rects, got):
        alone = Q._sums(r, Q.Field2D(fn).values(r, Q.RULE))
        assert [float(v).hex() for v in triple] == \
            [float(v).hex() for v in alone]
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
# per panel: fusing both orders into one call must not move a bit.
def _hexes(values):
    return [float(v).hex() for v in values]


def test_bits_integrate_box():
    field = Q.Field2D(lambda x, y: np.exp(x * y) / (1 + x * x))
    assert _hexes(Q.integrate_box(field, (0.0, 2.0, 0.5, 1.5), tol=1e-10)) == [
        "0x1.695fb9c875c3ep+1", "0x1.695fb9c875c3ep+1", "0x1.0b46000000000p-35"]


def test_bits_integrate_box_graded():
    field = Q.Field2D(lambda x, y: np.cos(x) / np.sqrt(y))
    r = Q.integrate_box_graded(field, 0.0, 1.0, 1.0, tol=1e-9)
    assert _hexes(r) == [
        "0x1.aed548eee1f99p+0", "0x1.aed548eee1f99p+0", "0x1.c0bffffe3f400p-43"]


def test_bits_integrate_halfplane():
    field = Q.Field2D(lambda x, y: np.exp(-x * x - y) * (1 + np.sin(3 * x) ** 2))
    assert _hexes(Q.integrate_halfplane(field, tol=1e-8)) == [
        "0x1.544c115d1b15cp+1", "0x1.544c115d1b15cp+1", "0x1.4718df9093e74p-32"]


def test_bits_integrate_1d_line():
    r = Q.integrate_1d_line(lambda x: 1.0 / (1.0 + x * x) ** 1.5, tol=1e-10)
    assert _hexes(r) == ["0x1.fffffffffbfffp+0", "0x1.5ecafc8f2c8d5p-35"]


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
    # integrals of a regularity report and a disk's V_alpha mass keep the
    # bits they had on the caching field
    rep = G.regularity_report(G.power_log(2, 1, 2))
    assert rep.nabla2[0] and rep.nabla2[1].hex() == "0x1.fffff3e4d6d9ap-1"
    disk = H.Disk(H.HPoint(0.3, 1.0), 0.6)
    assert [H.disk_measure(disk, a).hex() for a in (0.5, -0.5, 2.5)] == [
        "0x1.1e1012765600cp+0", "0x1.2ce409aab1db1p+0", "0x1.5232cd62abf7dp+0"]



def _graded_strip_by_strip(field, x0, x1, y_top, tol):
    """`integrate_box_graded` with one `integrate_box` call per strip after
    its run's lookahead batch, as it was before converged strips were
    answered from that batch."""

    def strips():
        hi = y_top
        for _ in range(0, Q.MAX_STRIPS, Q.STRIP_LOOKAHEAD):
            run = []
            for _ in range(Q.STRIP_LOOKAHEAD):
                run.append((x0, x1, hi / 2, hi))
                hi /= 2
            try:
                Q._panels(field, run)
            except Exception:
                pass
            for rect in run:
                yield Q.integrate_box(field, rect, tol=tol)

    return Q._sum_tail(strips(), tol, (0.95, 6, 12), "mass near y=0")


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
    # at tol 1e-7 the constant field's chain stops at strip 27, (2^-27,
    # 2^-26], in the run of strips 26-30; that run's lookahead batch
    # reaches strip 30, (2^-30, 2^-29], and raises there
    outcomes = []
    for run in (Q.integrate_box_graded, _graded_strip_by_strip):
        raised = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            outcomes.append(_outcome(
                run, Q.Field2D(_raising_below(2.0 ** -29, raised)),
                0.0, 1.0, 1.0, 1e-7))
        assert any(raised)
    assert outcomes[0] == outcomes[1] == _outcome(
        Q.integrate_box_graded, Q.Field2D(GRADED_FIELDS["constant"]),
        0.0, 1.0, 1.0, 1e-7)


def test_graded_chain_reached_errors_come_back():
    # the chain reaches strip 21, (2^-21, 2^-20], at tol 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for run in (Q.integrate_box_graded, _graded_strip_by_strip):
            with pytest.raises(RuntimeWarning, match="invalid value"):
                run(Q.Field2D(_raising_below(2.0 ** -20, [])), 0.0, 1.0, 1.0,
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
