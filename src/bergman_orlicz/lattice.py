"""Dyadic-row lattices on the upper half-plane.

A lattice is parametrized by an aperture ``delta`` in (0, 1) and a row
ratio exponent ``gamma``.  Points sit on horizontal rows at heights
``2**(gamma*j)``; within row ``j`` they are spaced ``delta**2/8`` of the
row height apart:

    z(l, j) = delta**2 * l * 2**(gamma*j - 3) + 1j * 2**(gamma*j)

``gamma`` must lie strictly inside an open interval determined by
``delta``; the default is the interval midpoint.  Around each point live
two concentric rectangular cells (a big one and a small one) and two
disks: the big disk of relative radius ``delta`` realizes a covering of
the plane, the small one of relative radius ``s_delta`` is pairwise
disjoint across the lattice.  ``covering_report`` verifies all three
properties numerically on a sampled region.

A lattice stores only its parameters and window; coordinates are
arithmetic on the window, and ``points`` is a dict built when read.

Indices run in one row-major (j, l) order, ``row_major``, and row ``j``
carries the weight ``2**(j*gamma*(alpha+2))``, ``row_weights``, in both
the atom sums and the sequence spaces built on the lattice.

Its two geometry scans sweep rows, not pairs: disks of equal height and
radius form a row sorted by x, and against one row only a disk's x
neighbours can hold the smallest gap, and the disks containing a point
form one run found by ``searchsorted``.  They cost O(disks x rows) and
O(points x rows) and return exactly what testing every pair would.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .halfplane import Box, HPoint

_UNCOVERED_WITNESS_CAP = 20

_INT = (int, np.integer)  # the types of a lattice index


def row_major(keys):
    """Lattice indices (l, j) in the one (j, l) order: row by row, then
    left to right within a row."""
    return sorted(keys, key=lambda k: (k[1], k[0]))


def row_weights(js, gamma, alpha):
    """Row weights 2**(j*gamma*(alpha+2)) of rows `js` (an array of j)."""
    return 2.0 ** (np.asarray(js, dtype=float) * gamma * (alpha + 2.0))


def gamma_interval(delta):
    """Admissible open interval for the row exponent.

    Parameters
    ----------
    delta : float
        Aperture in (0, 1).

    Returns
    -------
    (float, float)
        Open interval endpoints; any gamma strictly inside is valid.
    """
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    d2 = delta * delta
    lo = math.log((1 + d2 / 20) / (1 - d2 / 20)) / (4 * math.log(2))
    hi = math.log((1 + d2 / 4) / (1 - d2 / 4)) / (4 * math.log(2))
    return lo, hi


@dataclass(frozen=True)
class DeltaLattice:
    """Immutable lattice over the index window |l| <= l_max, |j| <= j_max;
    its points are computed from the window, never stored."""

    delta: float
    gamma: float
    s_delta: float
    window: tuple

    def check_index(self, k):
        """Raise ParameterError unless k is a pair of ints in the window."""
        l_max, j_max = self.window
        if not (type(k) is tuple and len(k) == 2
                and isinstance(k[0], _INT) and isinstance(k[1], _INT)
                and abs(k[0]) <= l_max and abs(k[1]) <= j_max):
            raise ParameterError(f"lattice index must be a pair of ints "
                                 f"(l, j) in window {self.window}, got {k!r}")

    @cached_property
    def heights(self):
        """Row heights 2**(gamma*j), bottom row first, by Python's float
        pow: numpy's array pow can differ from it in the last bit."""
        j_max = self.window[1]
        return tuple(2.0 ** (self.gamma * j)
                     for j in range(-j_max, j_max + 1))

    def coords(self, ls, js):
        """Coordinates (xs, ys) of the window's index arrays ls, js."""
        ys = np.array(self.heights)[js + self.window[1]]
        return self.delta * self.delta * ls * ys / 8.0, ys

    def point(self, l, j):
        """Lattice point at index (l, j), by the arithmetic of `coords`."""
        self.check_index((l, j))
        s = self.heights[j + self.window[1]]
        return HPoint(self.delta * self.delta * int(l) * s / 8.0, s)

    def index_arrays(self):
        """All window indices and coordinates as flat arrays, row-major."""
        l_max, j_max = self.window
        ls = np.tile(np.arange(-l_max, l_max + 1), 2 * j_max + 1)
        js = np.repeat(np.arange(-j_max, j_max + 1), 2 * l_max + 1)
        return (ls, js) + self.coords(ls, js)

    @cached_property
    def points(self):
        """Window points keyed by (l, j), row-major, built on first read."""
        return {(l, j): HPoint(x, y) for l, j, x, y in
                zip(*(a.tolist() for a in self.index_arrays()))}


def as_index(v):
    """An index or window bound from outside the program as an int:
    integral values such as 2.0 pass, any other value (JSON true and false
    too) is a ParameterError."""
    try:
        if not isinstance(v, (bool, np.bool_)) and int(v) == v:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"lattice index must be an integer, got {v!r}")


def build(delta, window, gamma=None):
    """Construct a lattice.

    Parameters
    ----------
    delta : float
        Aperture in (0, 1).
    window : (int, int)
        (l_max, j_max); indices run over |l| <= l_max, |j| <= j_max.
    gamma : float, optional
        Explicit row exponent.  Default: midpoint of the admissible
        interval.

    Returns
    -------
    DeltaLattice
    """
    lo, hi = gamma_interval(delta)
    if gamma is None:
        gamma = 0.5 * (lo + hi)
    elif not lo < gamma < hi:
        raise ParameterError(
            f"gamma={gamma} outside the admissible interval "
            f"({lo:.6g}, {hi:.6g}) for delta={delta}")
    l_max, j_max = as_index(window[0]), as_index(window[1])
    if l_max < 0 or j_max < 0:
        raise ParameterError(f"window bounds must be >= 0, got {window}")
    s_delta = -1.0 + (1.0 + delta * delta / 20.0) ** 0.25
    lat = DeltaLattice(delta=delta, gamma=gamma, s_delta=s_delta,
                       window=(l_max, j_max))
    try:  # no point has a larger |x| or y, or a smaller y, than these two
        lat.point(l_max, j_max), lat.point(0, -j_max)
    except OverflowError:
        raise ParameterError(
            f"window {window} leaves the float range") from None
    return lat


def cells(lat, l, j):
    """Big and small cell of the point at (l, j).

    Returns
    -------
    (I, I_inner, J, J_inner)
        Four (lo, hi) interval tuples; the big cell is I x J, the small
        one I_inner x J_inner.  |I| = |J| = (delta**2/2) * row height,
        |I_inner| = (delta**2/10) * row height.
    """
    lat.check_index((l, j))
    d2 = lat.delta * lat.delta
    s = lat.heights[j + lat.window[1]]
    q = d2 / 4.0 * s
    i_big = ((-1 + l / 2.0) * q, (1 + l / 2.0) * q)
    i_small = ((-0.2 + l / 2.0) * q, (0.2 + l / 2.0) * q)
    j_big = ((1 - d2 / 4.0) * s, (1 + d2 / 4.0) * s)
    fifth = d2 / 20.0
    j_small = ((1 - fifth) ** 0.25 * s, (1 + fifth) ** 0.25 * s)
    return i_big, i_small, j_big, j_small


@dataclass(frozen=True)
class CoverageReport:
    """Numerical check of disjointness, covering, and overlap bounds."""

    disjoint_ok: bool
    cover_fraction: float
    max_overlap: int
    samples: int
    violations: tuple
    seed: int


def _zone_rects(lat):
    """The zone the window's cells tile, as one rectangle (x0, x1, y0, y1)
    per row band, bottom row first."""
    s = np.array(lat.heights)
    d2 = lat.delta * lat.delta
    xw = d2 / 4.0 * (1 + lat.window[0] / 2.0) * s
    return np.column_stack([-xw, xw, (1 - d2 / 4) * s, (1 + d2 / 4) * s])


def _zone_box(lat):
    """Bounding box of the zone the window's cells tile."""
    r = _zone_rects(lat).tolist()
    return Box(r[-1][0], r[-1][1], r[0][2], r[-1][3])


def _sample_zone(lat, region, n, rng):
    """Uniform draws from (covered zone) intersect (region).

    The zone is a union of one axis-aligned rectangle per row band;
    draws come from the area-weighted rectangle mixture and are thinned
    by the reciprocal of how many rectangles contain them, which makes
    the retained points uniform over the union.
    """
    if region is None or region == "auto":
        region = _zone_box(lat)
    b = region.bbox
    r = np.clip(_zone_rects(lat), [b[0], b[0], b[2], b[2]],
                [b[1], b[1], b[3], b[3]])
    r = r[(r[:, 1] > r[:, 0]) & (r[:, 3] > r[:, 2])]
    if not r.size:
        raise ParameterError(
            "sampling region does not meet the window's covered zone")
    areas = (r[:, 1] - r[:, 0]) * (r[:, 3] - r[:, 2])
    probs = areas / areas.sum()
    out_x, out_y, got = [], [], 0
    for _ in range(40):
        k = rng.choice(len(r), size=n, p=probs)
        x = r[k, 0] + rng.uniform(size=n) * (r[k, 1] - r[k, 0])
        y = r[k, 2] + rng.uniform(size=n) * (r[k, 3] - r[k, 2])
        mult = np.zeros(n)
        for x0, x1, y0, y1 in r:
            mult += ((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
        keep = ((rng.uniform(size=n) * mult <= 1.0)
                & region.contains(x + 1j * y))
        out_x.append(x[keep])
        out_y.append(y[keep])
        got += int(keep.sum())
        if got >= n:
            break
    px = np.concatenate(out_x)[:n]
    py = np.concatenate(out_y)[:n]
    if px.size == 0:
        raise ParameterError(
            "sampling region does not meet the window's covered zone")
    return px, py


def _rows(xs, ys, radii):
    """Disks grouped into rows of equal (y, radius), each row sorted by x.

    Returns the coordinates and radii in row order (rows by y, then by
    radius; x ascending within a row) and the (start, stop) slice of
    every row in that order.  Nothing is assumed about the disk set: a
    disk that shares its row with no other is a row of one.
    """
    order = np.lexsort((xs, radii, ys))
    x, y, r = xs[order], ys[order], radii[order]
    new_row = np.ones(x.size, dtype=bool)
    new_row[1:] = (y[1:] != y[:-1]) | (r[1:] != r[:-1])
    starts = np.flatnonzero(new_row)
    stops = np.append(starts[1:], x.size)
    return x, y, r, list(zip(starts.tolist(), stops.tolist()))


def _min_separation(xs, ys, radii):
    """Minimum over pairs of (center distance - radius sum); > 0 iff disjoint.

    Against one row, a disk's gap grows with |dx|, so only its two x
    neighbours in that row can hold the row's smallest gap: within a row
    these are the adjacent disks in x order, and every other row is
    searched for them from each disk of the rows before it.
    """
    x, y, r, rows = _rows(xs, ys, radii)
    best = np.inf
    # consecutive disks in row order share a row unless a row starts
    same = np.ones(max(x.size - 1, 0), dtype=bool)
    same[[start - 1 for start, _ in rows[1:]]] = False
    if same.any():
        i = np.flatnonzero(same)
        gap = np.hypot(x[i] - x[i + 1], y[i] - y[i + 1]) - (r[i] + r[i + 1])
        best = float(gap.min())
    for start, stop in rows[1:]:
        row = x[start:stop]
        k = np.searchsorted(row, x[:start])
        near = [np.minimum(k, row.size - 1)]
        if row.size > 1:
            near.append(np.maximum(k - 1, 0))
        for c in near:
            gap = (np.hypot(x[:start] - row[c], y[:start] - y[start])
                   - (r[:start] + r[start]))
            best = min(best, float(gap.min()))
    return best


def _cover_counts(px, py, cx, cy, radii):
    """For each point, the number of disks containing it (strict inequality).

    Per row, the disks with dx*dx + dy*dy < r*r form one run in x order;
    searchsorted on px -+ sqrt(r*r - dy*dy) finds it, and each end is
    then moved until that same predicate holds just inside it and fails
    just outside.  The predicate is monotone in |dx| on either side of
    px, so the counts are those of testing every point-disk pair.
    """
    x, y, r, rows = _rows(cx, cy, radii)
    out = np.zeros(px.size, dtype=np.int64)
    for start, stop in rows:
        row = x[start:stop]
        dy = py - y[start]
        dd = dy * dy
        rr = r[start] * r[start]
        band = np.flatnonzero(dd < rr)
        if band.size == 0:
            continue
        qx, qdd = px[band], dd[band]
        half = np.sqrt(rr - qdd)

        def inside(k):
            dx = qx - row[np.clip(k, 0, row.size - 1)]
            return dx * dx + qdd < rr

        # disks left of qx are row[:mid], the rest row[mid:]; the run is
        # row[lo:hi] with lo <= mid <= hi
        mid = np.searchsorted(row, qx)
        lo = np.searchsorted(row, qx - half)
        hi = np.searchsorted(row, qx + half, side="right")
        while True:
            lo_step = (((lo > 0) & inside(lo - 1)).astype(np.int64)
                       - ((lo < mid) & ~inside(lo)))
            hi_step = (((hi < row.size) & inside(hi)).astype(np.int64)
                       - ((hi > mid) & ~inside(hi - 1)))
            if not (lo_step.any() or hi_step.any()):
                break
            lo -= lo_step
            hi += hi_step
        out[band] += hi - lo
    return out


def covering_report(lat, region=None, n_samples=10000, seed=0):
    """Test the three geometric lattice properties on a sampled region.

    Disjointness of the small disks is exact over all window pairs.
    Covering and overlap are Monte Carlo over `n_samples` points drawn
    uniformly from `region`, restricted to the zone actually tiled by
    the window (so truncation of the infinite lattice never reads as a
    covering failure).

    Both checks sweep the window's rows (disks of equal height and
    radius, in x order) instead of every pair: the smallest gap comes
    from each disk's x neighbours in each row, and a point's covering
    disks in a row from a searchsorted run whose ends are settled with
    the strict predicate dx*dx + dy*dy < r*r.  The gap is the same float
    and the counts the same integers as a scan of all pairs gives, for
    any disk set: one with no shared rows is rows of one.

    Parameters
    ----------
    lat : DeltaLattice
    region : Box, Disk, or "auto"
        Sampling region (a Carleson square is a Box); "auto"/None takes
        the tiled zone's bounding box.
    n_samples : int
    seed : int

    Returns
    -------
    CoverageReport
    """
    if n_samples < 1:
        raise ParameterError(f"n_samples must be at least 1, got {n_samples}")
    _, _, xs, ys = lat.index_arrays()

    small = lat.s_delta * ys
    disjoint_gap = _min_separation(xs, ys, small)
    disjoint_ok = bool(disjoint_gap > 0.0)
    violations = []
    if not disjoint_ok:
        violations.append(("disjointness_gap", float(disjoint_gap)))

    px, py = _sample_zone(lat, region, n_samples, np.random.default_rng(seed))

    big = lat.delta * ys
    counts = _cover_counts(px, py, xs, ys, big)
    covered = counts > 0
    for i in np.flatnonzero(~covered)[:_UNCOVERED_WITNESS_CAP]:
        violations.append(("uncovered", float(px[i]), float(py[i])))
    return CoverageReport(
        disjoint_ok=disjoint_ok,
        cover_fraction=float(np.mean(covered)),
        max_overlap=int(counts.max()),
        samples=int(px.size),
        violations=tuple(violations),
        seed=seed,
    )
