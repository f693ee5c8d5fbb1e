"""The atom-sum and lattice-geometry kernels, through their callers.

`bergman.atom_sum(...)(z)` evaluates kernel-atom sums in chunks over the
atoms, and `lattice.covering_report` scans disk pairs and point-disk
pairs in chunks.  Each is checked here against a per-pair reference
kept in this file (the "fallback": one atom, one disk against the later
ones, or one point against every disk at a time), across the chunk
boundary of 512.  Complex sums agree to a few ulp of the sum of the
terms' moduli; integer counts and the sign of the separation gap must
match exactly.
"""

import math

import numpy as np
import pytest

from bergman_orlicz import bergman as B
from bergman_orlicz import lattice as L
from bergman_orlicz import orlicz as O
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
    # pairs overlap; 21 x 7 = 147 and 41 x 15 = 615 points, the second
    # across the 512-disk chunk boundary
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
    # 9 x 5 = 45 disks, then 1025 x 5 = 5125 across the 512-disk chunks,
    # on the lattice and scattered (where some samples go uncovered)
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
