"""Tests for the delta-lattice construction and its geometry.

Frozen reference numbers come from tools/oracles/lattice_oracle.py.
"""

import dataclasses

import numpy as np
import pytest

from bergman_orlicz import lattice as L
from bergman_orlicz.errors import ParameterError
from bergman_orlicz.halfplane import Box, Disk, HPoint

GAMMA_LO_05 = 0.0090173136768804503469
GAMMA_HI_05 = 0.045143061410455219733
S_DELTA_05 = 0.0031104574646330360048
# minimum small-disk gap over window (20, 7) at delta=0.5, small radius
# rho * height (closed form over the extreme rows, no scan)
WINDOW_GAP_05 = {1: 0.0111081997441958395106540681471011113096,
                 3: 0.00009494415780906604489161008151868620594038,
                 10: -0.04907813599447952949101838416041651535605}


def test_gamma_interval_frozen():
    lo, hi = L.gamma_interval(0.5)
    assert abs(lo - GAMMA_LO_05) < 1e-15
    assert abs(hi - GAMMA_HI_05) < 1e-15
    with pytest.raises(ParameterError):
        L.gamma_interval(1.2)


def test_build_defaults_to_midpoint():
    lat = L.build(0.5, (2, 2))
    assert abs(lat.gamma - 0.5 * (GAMMA_LO_05 + GAMMA_HI_05)) < 1e-15
    assert abs(lat.s_delta - S_DELTA_05) < 1e-15
    assert len(lat.points) == 5 * 5


def test_window_bounds_validated():
    # integral floats (from JSON) pass as ints; nothing is truncated, and
    # rows whose height leaves the float range are rejected
    lat = L.build(0.5, (2.0, 1.0))
    assert lat.window == (2, 1) and type(lat.window[0]) is int
    for window in [(2.7, 1.9), (2, 1.5), ("2", 1), (float("nan"), 1),
                   (-1, 0), (0, 39000), (0, 90000)]:
        with pytest.raises(ParameterError):
            L.build(0.5, window)


def _build_ref(delta, window, gamma=None):
    """The scalar construction: one HPoint per index, row by row, each
    row height by Python's float pow."""
    if gamma is None:
        gamma = 0.5 * sum(L.gamma_interval(delta))
    d2 = delta * delta
    points = {}
    for j in range(-window[1], window[1] + 1):
        s = 2.0 ** (gamma * j)
        for l in range(-window[0], window[0] + 1):
            points[(l, j)] = HPoint(d2 * l * s / 8.0, s)
    return points


def _hex(vals):
    return [float(v).hex() for v in vals]


# at delta 0.45 on (100, 20), numpy's array pow 2.0 ** (gamma * js) is
# one ulp off Python's pow in two rows, so array heights would fail here
@pytest.mark.parametrize("delta, window, gamma", [
    (0.45, (100, 20), None), (0.5, (3, 13), None), (0.3, (0, 4), 0.004),
    (0.8, (7, 0), None), (0.1, (12, 9), None)])
def test_coordinates_bit_equal_scalar_construction(delta, window, gamma):
    ref = _build_ref(delta, window, gamma)
    lat = L.build(delta, window, gamma)
    ls, js, xs, ys = lat.index_arrays()
    assert list(zip(ls.tolist(), js.tolist())) == list(ref)
    assert _hex(xs) == _hex(p.x for p in ref.values())
    assert _hex(ys) == _hex(p.y for p in ref.values())
    got = [lat.point(l, j) for l, j in ref]
    assert _hex(p.x for p in got) == _hex(p.x for p in ref.values())
    assert _hex(p.y for p in got) == _hex(p.y for p in ref.values())
    # the dict view: same keys, same order, same floats, built once
    assert lat.points is lat.points
    assert list(lat.points) == list(ref)
    assert ([(p.x.hex(), p.y.hex()) for p in lat.points.values()]
            == [(p.x.hex(), p.y.hex()) for p in ref.values()])


def test_build_explicit_gamma_validated():
    lat = L.build(0.5, (1, 1), gamma=0.02)
    assert lat.gamma == 0.02
    with pytest.raises(ParameterError):
        L.build(0.5, (1, 1), gamma=GAMMA_HI_05 * 1.01)
    with pytest.raises(ParameterError):
        # interval is open: the endpoint itself is rejected
        L.build(0.5, (1, 1), gamma=L.gamma_interval(0.5)[0])


def test_point_formula():
    lat = L.build(0.5, (2, 2))
    assert lat.point(0, 0).z == 1j
    assert lat.point(1, 0).z == 0.03125 + 1j
    p = lat.point(3 - 4, 1)
    s = 2.0 ** lat.gamma
    assert abs(p.y - s) < 1e-15
    assert abs(p.x - 0.25 * (-1) * s / 8.0) < 1e-16
    with pytest.raises(ParameterError):
        lat.point(5, 0)


def test_cell_lengths():
    lat = L.build(0.5, (3, 3))
    for (l, j) in [(0, 0), (2, -1), (-3, 3)]:
        big_i, small_i, big_j, small_j = L.cells(lat, l, j)
        s = 2.0 ** (lat.gamma * j)
        assert abs((big_i[1] - big_i[0]) - 0.125 * s) < 1e-15
        assert abs((big_j[1] - big_j[0]) - 0.125 * s) < 1e-15
        assert abs((small_i[1] - small_i[0]) - 0.025 * s) < 1e-15
        # cell center sits on the lattice point
        assert abs(0.5 * (big_i[0] + big_i[1]) - lat.point(l, j).x) < 1e-15
    # the same index check as lat.point: in the window and integers
    for l, j in [(4, 0), (0.5, 0), (0, 1.0)]:
        with pytest.raises(ParameterError):
            L.cells(lat, l, j)
        with pytest.raises(ParameterError):
            lat.point(l, j)


def test_small_bands_nested_and_disjoint():
    lat = L.build(0.5, (1, 6))
    for j in range(-5, 6):
        _, _, big_j, small_j = L.cells(lat, 0, j)
        assert big_j[0] < small_j[0] and small_j[1] < big_j[1]
    for j in range(-5, 5):
        _, _, _, sj = L.cells(lat, 0, j)
        _, _, _, sj1 = L.cells(lat, 0, j + 1)
        assert sj[1] < sj1[0]


def test_row_membership_count():
    # each x belongs to at most 4 of a row's horizontal intervals
    lat = L.build(0.5, (40, 0))
    for x in [0.0, 0.01, -0.3, 0.177]:
        count = 0
        for l in range(-40, 41):
            big_i, _, _, _ = L.cells(lat, l, 0)
            count += big_i[0] < x < big_i[1]
        assert count <= 4


def test_vertical_membership_count_constant_across_decades():
    lat = L.build(0.5, (1, 200))
    counts = []
    for y in [0.5, 1.0, 2.0, 4.0]:
        c = 0
        for j in range(-200, 201):
            _, _, big_j, _ = L.cells(lat, 0, j)
            c += big_j[0] < y < big_j[1]
        counts.append(c)
    assert max(counts) - min(counts) <= 1
    assert max(counts) < 40


def test_disjointness_margins_frozen():
    # adjacent small disks in a row and across rows, delta=0.5 midpoint
    lat = L.build(0.5, (1, 1))
    a, b = lat.point(0, 0), lat.point(1, 0)
    gap = abs(a.z - b.z) - lat.s_delta * (a.y + b.y)
    assert abs(gap - 0.02502908507073392799) < 1e-12
    a, b = lat.point(0, 0), lat.point(0, 1)
    gap = abs(a.z - b.z) - lat.s_delta * (a.y + b.y)
    assert abs(gap - 0.01266797861812610657) < 1e-12


def test_window_gap_matches_closed_form():
    # the oracle's gap comes from row arithmetic alone; covering_report
    # reports it (a violation) when negative and otherwise only its sign
    lat = L.build(0.5, (20, 7))
    for k, gap in WINDOW_GAP_05.items():
        grown = dataclasses.replace(lat, s_delta=k * lat.s_delta)
        rep = L.covering_report(grown, n_samples=100, seed=0)
        assert rep.disjoint_ok == (gap > 0)
        reported = [v[1] for v in rep.violations if v[0] == "disjointness_gap"]
        if gap < 0:
            assert reported == [pytest.approx(gap, rel=1e-12)]
        else:
            assert reported == []


def test_covering_report_reference_region():
    lat = L.build(0.3, (50, 10))
    rep = L.covering_report(lat, region=Box(-1.0, 1.0, 0.1, 10.0),
                            n_samples=10000, seed=3)
    assert rep.disjoint_ok
    assert rep.cover_fraction == 1.0
    assert rep.samples == 10000
    assert rep.violations == ()


def test_covering_report_single_point():
    rep = L.covering_report(L.build(0.5, (0, 0)), n_samples=300, seed=1)
    assert rep.max_overlap <= 1
    assert rep.cover_fraction == 1.0


def test_overlap_bound_region_independent():
    lat = L.build(0.1, (30, 5))
    small = L.covering_report(lat, region=Box(-0.01, 0.01, 0.9, 1.1),
                              n_samples=2000, seed=5)
    full = L.covering_report(lat, "auto", n_samples=2000, seed=5)
    assert small.max_overlap <= full.max_overlap * 1.5 + 5
    assert full.max_overlap <= small.max_overlap * 1.5 + 5


def test_covering_report_disk_region():
    rep = L.covering_report(L.build(0.5, (10, 3)),
                            region=Disk(HPoint(0.0, 1.0), 0.05),
                            n_samples=800, seed=2)
    assert rep.cover_fraction == 1.0
    assert rep.samples == 800


def test_covering_report_deterministic():
    lat = L.build(0.4, (8, 4))
    a = L.covering_report(lat, n_samples=1500, seed=9)
    b = L.covering_report(lat, n_samples=1500, seed=9)
    assert a == b


def test_covering_report_region_misses_zone():
    lat = L.build(0.5, (2, 1))
    with pytest.raises(ParameterError):
        L.covering_report(lat, region=Box(50.0, 60.0, 50.0, 60.0),
                          n_samples=100, seed=0)


def test_covered_mask_matches_cells():
    # the zone the sampler draws from is the union of the rows' rectangles
    lat = L.build(0.4, (6, 4))
    rng = np.random.default_rng(17)
    xs = rng.uniform(-0.3, 0.3, 400)
    ys = rng.uniform(0.85, 1.2, 400)
    mask = np.zeros(xs.shape, dtype=bool)
    for x0, x1, y0, y1 in L._zone_rects(lat):
        mask |= (x0 < xs) & (xs < x1) & (y0 < ys) & (ys < y1)
    for x, y, m in zip(xs, ys, mask):
        inside = False
        for (l, j) in lat.points:
            big_i, _, big_j, _ = L.cells(lat, l, j)
            if big_i[0] < x < big_i[1] and big_j[0] < y < big_j[1]:
                inside = True
                break
        assert inside == m
