"""The atom-sum and lattice-geometry kernels, through their callers.

`bergman.atom_sum(...)(z)` evaluates kernel-atom sums in chunks over the
atoms, and `lattice.covering_report` sweeps the disks row by row (rows
of equal height and radius, searched in x order).  Each is checked here
against a per-pair reference kept in this file (the "fallback": one
atom, one disk against the later ones, or one point against every disk
at a time), on real lattices, scattered disks (rows of one) and
generated disk sets with shared rows.  Complex sums agree to a few ulp
of the sum of the terms' moduli; integer counts and the sign of the
separation gap must match exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergman_orlicz import bergman as B
from bergman_orlicz import lattice as L
from bergman_orlicz import orlicz as O
from bergman_orlicz.acceptance import _zone_bbox
from bergman_orlicz.halfplane import Box, HPoint


def _atom_sum_ref(z, seq, alpha):
    """One atom at a time: the sum of 2**(alpha+2) mu K(z, z_lj)
    2**(j gamma (alpha+2)), and the sum of the terms' moduli."""
    total, size = 0j, 0.0
    for (l, j), mu in seq.items_sorted():
        w = seq.lattice.point(l, j).z
        scale = B.ATOM_COEF_BASE ** (alpha + 2.0) \
            * 2.0 ** (j * seq.lattice.gamma * (alpha + 2.0))
        term = scale * mu * ((z - w.conjugate()) / 1j) ** (-alpha - 2.0)
        total += term
        size += abs(term)
    return total, size


def _centers(lat):
    pts = list(lat.points.values())
    return np.array([p.x for p in pts]), np.array([p.y for p in pts])


def _min_gap_ref(lat):
    """Smallest (center distance - small-radius sum) over window pairs,
    one disk against every later disk."""
    xs, ys = _centers(lat)
    best = math.inf
    for a in range(xs.size - 1):
        dist = np.hypot(xs[a + 1:] - xs[a], ys[a + 1:] - ys[a])
        best = min(best, float(np.min(dist - lat.s_delta * (ys[a + 1:] + ys[a]))))
    return best


def _cover_count_ref(lat, x, y):
    """Big disks of the window strictly containing (x, y)."""
    xs, ys = _centers(lat)
    return int(np.sum((x - xs) ** 2 + (y - ys) ** 2 < (lat.delta * ys) ** 2))


def _with_small_radius(lat, s_delta):
    """The same lattice with relative small-disk radius s_delta."""
    return L.DeltaLattice(delta=lat.delta, gamma=lat.gamma, s_delta=s_delta,
                          window=lat.window, points=lat.points)


def _scattered(lat, rng, s_delta, spread=1.0):
    """The window's indices at uniform random points of its bounding box,
    widened `spread` times in x, so the extreme pairs fall anywhere in
    the scan order."""
    xs, ys = _centers(lat)
    points = {k: HPoint(spread * rng.uniform(xs.min(), xs.max()),
                        rng.uniform(ys.min(), ys.max())) for k in lat.points}
    return L.DeltaLattice(delta=lat.delta, gamma=lat.gamma, s_delta=s_delta,
                          window=lat.window, points=points)


def _gap_violations(rep):
    return [v[1] for v in rep.violations if v[0] == "disjointness_gap"]


def _random_sequence(rng, lat, n):
    keys = sorted(lat.points, key=lambda k: (k[1], k[0]))
    pick = rng.choice(len(keys), size=n, replace=False)
    vals = rng.normal(size=n) + 1j * rng.normal(size=n)
    return O.LatticeSequence(
        {keys[i]: complex(v) for i, v in zip(pick, vals)}, lat)


def test_atom_sum_eval_matches_fallback():
    rng = np.random.default_rng(1234)
    lat = L.build(0.5, (40, 8))  # 81 x 17 = 1377 points
    z = rng.uniform(-4.0, 4.0, 16) + 1j * rng.uniform(0.05, 5.0, 16)
    for n in (1, 7, 511, 512, 513, 1377):
        seq = _random_sequence(rng, lat, n)
        for alpha in (-0.5, 0.0, 1.25):
            got = B.atom_sum(seq, alpha)(z)
            for zk, gk in zip(z, got):
                ref, size = _atom_sum_ref(zk, seq, alpha)
                assert abs(gk - ref) <= 1e-13 * size


def test_atom_sum_eval_empty_and_single():
    lat = L.build(0.5, (2, 1))
    z = np.array([0.3 + 1.0j, -1.0 + 0.5j])
    empty = B.atom_sum(O.LatticeSequence({}, lat))
    assert np.all(empty(z) == 0)
    assert empty(1j) == 0
    # one atom of weight 2 at i: 2**2 * 2 * ((z + i) / i)**-2
    got = B.atom_sum(O.LatticeSequence({(0, 0): 2.0}, lat))(z)
    np.testing.assert_allclose(got, -8.0 / (z + 1j) ** 2, rtol=1e-14)


def _check_min_separation(lat):
    rep = L.covering_report(lat, n_samples=100, seed=1)
    ref = _min_gap_ref(lat)
    assert rep.disjoint_ok == (ref > 0.0)
    if ref > 0.0:
        assert _gap_violations(rep) == []
    else:
        assert _gap_violations(rep) == [pytest.approx(ref, rel=1e-12)]


def test_min_separation_matches_fallback():
    # the lattice's own small disks, then copies with radii grown until
    # pairs overlap; 21 x 7 = 147 and 41 x 15 = 615 points
    for delta, window in ((0.8, (10, 3)), (0.5, (20, 7))):
        lo, hi = L.gamma_interval(delta)
        for gamma in (0.5 * (lo + hi), lo + 0.1 * (hi - lo)):
            lat = L.build(delta, window, gamma)
            assert L.covering_report(lat, n_samples=100, seed=1).disjoint_ok
            for grow in (1.0, 3.0, 10.0):
                _check_min_separation(
                    _with_small_radius(lat, grow * lat.s_delta))
    # scattered disks: 615 and 1377 of them
    rng = np.random.default_rng(77)
    for window in ((20, 7), (40, 8)):
        lat = L.build(0.5, window)
        for s_delta in (0.002, 0.02, 0.2):
            _check_min_separation(_scattered(lat, rng, s_delta))


def test_min_separation_single_disk_is_infinite():
    # one disk has no pair: the gap is +inf, which reads as disjoint even
    # for a radius that would overlap any neighbour
    lat = _with_small_radius(L.build(0.5, (0, 0)), 0.9)
    assert _min_gap_ref(lat) == math.inf
    rep = L.covering_report(lat, n_samples=50, seed=0)
    assert rep.disjoint_ok
    assert _gap_violations(rep) == []


def test_min_separation_sign_tracks_disjointness():
    # Row 0 of a (1, 0) window: centers -d, 0, d on the line y = 1 with
    # d = delta**2/8, so the gap is d - 2 * s_delta exactly.
    lat = L.build(0.5, (1, 0))
    d = 0.25 / 8.0
    rep = L.covering_report(lat, n_samples=50, seed=0)
    assert rep.disjoint_ok and _gap_violations(rep) == []
    assert abs(_min_gap_ref(lat) - (d - 2.0 * lat.s_delta)) <= 1e-15
    # radius d makes adjacent disks overlap by d
    rep = L.covering_report(_with_small_radius(lat, d), n_samples=50, seed=0)
    assert not rep.disjoint_ok
    assert _gap_violations(rep) == [-d]
    # tangent disks (gap exactly 0) do not count as disjoint
    for r, ok in ((0.5 * d * (1 - 1e-9), True), (0.5 * d, False),
                  (0.5 * d * (1 + 1e-9), False)):
        rep = L.covering_report(_with_small_radius(lat, r), n_samples=50,
                                seed=0)
        assert rep.disjoint_ok is ok


def test_cover_counts_matches_fallback_exactly():
    # 9 x 5 = 45 disks, then 1025 x 5 = 5125 in rows of 1025, on the
    # lattice and scattered into rows of one (where some samples go
    # uncovered)
    rng = np.random.default_rng(2024)
    for delta, window, n, spread in ((0.5, (4, 2), 300, None),
                                     (0.3, (512, 2), 400, None),
                                     (0.3, (512, 2), 400, 200.0)):
        lat = L.build(delta, window)
        if spread:
            lat = _scattered(lat, rng, lat.s_delta, spread)
        rep = L.covering_report(lat, n_samples=n, seed=3)
        px, py = L._sample_zone(lat, None, n, np.random.default_rng(3))
        counts = np.array([_cover_count_ref(lat, x, y)
                           for x, y in zip(px, py)])
        # Random points land on disk boundaries with probability zero,
        # so the integer counts must agree exactly.
        assert rep.samples == px.size
        assert rep.max_overlap == int(counts.max())
        assert rep.cover_fraction == float(np.mean(counts > 0))
        uncovered = [v[1:] for v in rep.violations if v[0] == "uncovered"]
        assert uncovered == [(x, y) for x, y, c in zip(px, py, counts)
                             if c == 0][:len(uncovered)]


def test_cover_counts_strict_boundary():
    # A point exactly on a circle is not covered (strict inequality).
    # Row 0 of a (16, 0) window at delta = 0.5 has centers l/32 + i and
    # big radius 1/2, so i lies on the circles of l = -16 and l = 16 and
    # strictly inside the 31 others.  A region this thin rounds every
    # sample to a point whose squared distances equal those of i.
    lat = L.build(0.5, (16, 0))
    assert _cover_count_ref(lat, 0.0, 1.0) == 31
    region = Box(0.0, 1e-300, 1.0, 1.0 + 4.0 * np.finfo(float).eps)
    rep = L.covering_report(lat, region, n_samples=20, seed=0)
    assert rep.samples == 20
    assert rep.cover_fraction == 1.0
    assert rep.max_overlap == 31


def test_cover_counts_settles_both_ends():
    # Each point gets a row of its own radius with disks at the first few
    # floats either side of px -+ sqrt(r*r - dy*dy), where the searchsorted
    # estimate and the strict predicate disagree in both directions.
    rng = np.random.default_rng(11)
    n = 200
    px = rng.uniform(-1.0, 1.0, n)
    r = rng.uniform(0.2, 0.6, n)
    py = 1.0 + rng.uniform(-1.0, 1.0, n) * r
    half = np.sqrt(r * r - (py - 1.0) ** 2)
    cx = []
    for end in (px - half, px + half):
        up, down = end.copy(), end.copy()
        cx.append(end)
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            cx += [up, down]
    cx = np.concatenate(cx)
    radii = np.tile(r, cx.size // n)
    cy = np.ones(cx.size)
    got = L._cover_counts(px, py, cx, cy, radii)
    ref = np.sum((px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2
                 < radii ** 2, axis=1)
    assert got.tolist() == ref.tolist()


# Generated disk sets: a few rows at heights whose radii are dyadic, x on
# a 1/64 grid, plus scattered rows of one.  With small radius y/16 and
# big radius y/2, neighbours 8y grid steps apart (6, 8 or 10 in the rows
# 0.75, 1.0, 1.25) are tangent, and grid probes land exactly on big
# circles.
_ROW_YS = (0.75, 1.0, 1.25)
_GRID = 64.0
_REGION = Box(-1.0, 1.0, 0.7, 1.45)


@st.composite
def _row_disks(draw):
    xs, ys = [], []
    # row steps (a, b) mean a * 8y + b grid steps: duplicate, overlapping,
    # tangent, disjoint, far; either every kind may occur or none that
    # overlaps
    dup, over, tan, dis, far = (0, 0), (1, -1), (1, 0), (1, 1), (1, 7)
    kinds = draw(st.sampled_from(((dup, over, tan, dis, far),
                                  (tan, dis, far), (tan, far), (dis, far))))
    for y in draw(st.lists(st.sampled_from(_ROW_YS), min_size=1,
                           max_size=3, unique=True)):
        t = int(8 * y)
        steps = draw(st.lists(st.sampled_from([a * t + b for a, b in kinds]),
                              max_size=8))
        ks = np.cumsum([draw(st.integers(-48, 0))] + steps)
        xs += [k / _GRID for k in ks]
        ys += [y] * len(ks)
    for x, y in draw(st.lists(st.tuples(st.floats(-0.75, 0.75),
                                        st.floats(0.7, 1.45)), max_size=2)):
        xs.append(x)
        ys.append(y)
    order = draw(st.permutations(range(len(xs))))
    # window and gamma only shape the sampling zone, which covers _REGION
    return L.DeltaLattice(
        delta=0.5, gamma=0.1, s_delta=1.0 / 16.0, window=(64, 5),
        points={(i, 0): HPoint(xs[k], ys[k]) for i, k in enumerate(order)})


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_row_disks())
def test_row_sweep_matches_fallback(lat):
    rep = L.covering_report(lat, _REGION, n_samples=200, seed=5)
    ref = _min_gap_ref(lat)
    assert rep.disjoint_ok == (ref > 0.0)
    if ref > 0.0:
        assert _gap_violations(rep) == []
    else:
        assert _gap_violations(rep) == [pytest.approx(ref, rel=1e-12,
                                                      abs=1e-15)]
    px, py = L._sample_zone(lat, _REGION, 200, np.random.default_rng(5))
    counts = np.array([_cover_count_ref(lat, x, y) for x, y in zip(px, py)])
    assert rep.max_overlap == int(counts.max())
    assert rep.cover_fraction == float(np.mean(counts > 0))
    # grid probes, many on a circle, through the helper itself
    xs, ys = _centers(lat)
    gx = np.arange(-96, 97) / _GRID
    gy = np.unique(np.concatenate([ys, 0.5 * ys, 1.5 * ys]))
    qx, qy = (a.ravel() for a in np.meshgrid(gx, gy))
    got = L._cover_counts(qx, qy, xs, ys, lat.delta * ys)
    assert got.tolist() == [_cover_count_ref(lat, x, y)
                            for x, y in zip(qx, qy)]


def test_acceptance_lattices_recount():
    # the lattice criterion's reports, every sample recounted against
    # every disk; max_overlap is the number the criterion prints
    for delta, overlap in ((0.1, 2121), (0.3, 1116), (0.5, 659)):
        lat = L.build(delta, (50, 10))
        region = Box(*_zone_bbox(lat))
        rep = L.covering_report(lat, region, n_samples=10000, seed=7)
        px, py = L._sample_zone(lat, region, 10000, np.random.default_rng(7))
        xs, ys = _centers(lat)
        counts = np.concatenate([
            np.sum((px[i:i + 500, None] - xs) ** 2
                   + (py[i:i + 500, None] - ys) ** 2 < (delta * ys) ** 2,
                   axis=1) for i in range(0, px.size, 500)])
        assert rep.samples == counts.size == 10000
        assert rep.max_overlap == int(counts.max()) == overlap
        assert rep.cover_fraction == float(np.mean(counts > 0)) == 1.0
        assert rep.disjoint_ok and rep.violations == ()
