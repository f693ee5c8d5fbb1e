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

Its two geometry scans sweep rows, not pairs: disks of equal height and
radius form a row sorted by x, and against one row only a disk's x
neighbours can hold the smallest gap, and the disks containing a point
form one run found by ``searchsorted``.  They cost O(disks x rows) and
O(points x rows) and return exactly what testing every pair would.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .halfplane import Box, CarlesonSquare, Disk, HPoint, StripUnion

# apertures above this are fine for covering and decomposition work
# but too coarse for the two-sided sampling inequality
SAMPLING_DELTA_LIMIT = 1.0 / (1.0 + 7.0 * math.sqrt(2.0))

_UNCOVERED_WITNESS_CAP = 20


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
    """Immutable lattice over the index window |l| <= l_max, |j| <= j_max."""

    delta: float
    gamma: float
    s_delta: float
    window: tuple
    points: dict = field(repr=False)

    @property
    def sampling_margin_ok(self):
        """Whether delta is small enough for the sampling inequality."""
        return self.delta < SAMPLING_DELTA_LIMIT

    def point(self, l, j):
        """Lattice point at index (l, j)."""
        try:
            return self.points[(l, j)]
        except KeyError:
            raise ParameterError(
                f"index ({l}, {j}) outside window {self.window}") from None

    def index_arrays(self):
        """All window indices and coordinates as flat arrays, row-major."""
        keys = sorted(self.points, key=lambda k: (k[1], k[0]))
        ls = np.array([k[0] for k in keys], dtype=np.int64)
        js = np.array([k[1] for k in keys], dtype=np.int64)
        xs = np.array([self.points[k].x for k in keys])
        ys = np.array([self.points[k].y for k in keys])
        return ls, js, xs, ys

    def covered_mask(self, x, y):
        """Whether points lie in the zone tiled by the window's cells.

        Vectorized over `x`, `y`.  A point belongs to the zone when some
        window cell contains it, which reduces to index arithmetic on
        the row bands and the within-row interval union.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        l_max, j_max = self.window
        d2 = self.delta * self.delta
        out = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        half_span = 1.0 + l_max / 2.0
        for j in range(-j_max, j_max + 1):
            s = 2.0 ** (self.gamma * j)
            in_band = ((1 - d2 / 4) * s < y) & (y < (1 + d2 / 4) * s)
            in_row = np.abs(4.0 * x / (d2 * s)) < half_span
            out |= in_band & in_row
        return out


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
    l_max, j_max = int(window[0]), int(window[1])
    if l_max < 0 or j_max < 0:
        raise ParameterError(f"window bounds must be >= 0, got {window}")
    s_delta = -1.0 + (1.0 + delta * delta / 20.0) ** 0.25
    d2 = delta * delta
    points = {}
    for j in range(-j_max, j_max + 1):
        s = 2.0 ** (gamma * j)
        for l in range(-l_max, l_max + 1):
            points[(l, j)] = HPoint(d2 * l * s / 8.0, s)
    return DeltaLattice(delta=delta, gamma=gamma, s_delta=s_delta,
                        window=(l_max, j_max), points=points)


def cells(lat, l, j):
    """Big and small cell of the point at (l, j).

    Returns
    -------
    (I, I_inner, J, J_inner)
        Four (lo, hi) interval tuples; the big cell is I x J, the small
        one I_inner x J_inner.  |I| = |J| = (delta**2/2) * row height,
        |I_inner| = (delta**2/10) * row height.
    """
    l_max, j_max = lat.window
    if abs(l) > l_max or abs(j) > j_max:
        raise ParameterError(f"index ({l}, {j}) outside window {lat.window}")
    d2 = lat.delta * lat.delta
    s = 2.0 ** (lat.gamma * j)
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


def _region_bbox_mask(lat, region):
    """Bounding box plus membership predicate for a sampling region."""
    if region is None or region == "auto":
        l_max, j_max = lat.window
        d2 = lat.delta * lat.delta
        top = 2.0 ** (lat.gamma * j_max)
        bot = 2.0 ** (-lat.gamma * j_max)
        xw = d2 / 4.0 * (1 + l_max / 2.0) * top
        bbox = (-xw, xw, (1 - d2 / 4) * bot, (1 + d2 / 4) * top)
        return bbox, lambda x, y: np.ones_like(x, dtype=bool)
    if isinstance(region, Box):
        bbox = (region.x_min, region.x_max, region.y_min, region.y_max)
        return bbox, lambda x, y: np.ones_like(x, dtype=bool)
    if isinstance(region, CarlesonSquare):
        bbox = (region.x_min, region.x_max, 0.0, region.interval_length)
        return bbox, lambda x, y: np.ones_like(x, dtype=bool)
    if isinstance(region, Disk):
        c, r = region.center, region.radius
        bbox = (c.x - r, c.x + r, c.y - r, c.y + r)
        return bbox, lambda x, y: region.contains(x + 1j * y)
    if isinstance(region, StripUnion):
        xs = [b.x_min for b in region.boxes] + [b.x_max for b in region.boxes]
        ys = [b.y_min for b in region.boxes] + [b.y_max for b in region.boxes]
        bbox = (min(xs), max(xs), min(ys), max(ys))

        def mask(x, y):
            m = np.zeros_like(x, dtype=bool)
            for b in region.boxes:
                m |= ((b.x_min <= x) & (x <= b.x_max)
                      & (b.y_min <= y) & (y <= b.y_max))
            return m

        return bbox, mask
    raise ParameterError(f"unsupported region type {type(region).__name__}")


def _sample_zone(lat, region, n, rng):
    """Uniform draws from (covered zone) intersect (region).

    The zone is a union of one axis-aligned rectangle per row band;
    draws come from the area-weighted rectangle mixture and are thinned
    by the reciprocal of how many rectangles contain them, which makes
    the retained points uniform over the union.
    """
    bbox, region_mask = _region_bbox_mask(lat, region)
    l_max, j_max = lat.window
    d2 = lat.delta * lat.delta
    half_span = d2 / 4.0 * (1 + l_max / 2.0)
    rects = []
    for j in range(-j_max, j_max + 1):
        s = 2.0 ** (lat.gamma * j)
        x0 = max(-half_span * s, bbox[0])
        x1 = min(half_span * s, bbox[1])
        y0 = max((1 - d2 / 4) * s, bbox[2])
        y1 = min((1 + d2 / 4) * s, bbox[3])
        if x1 > x0 and y1 > y0:
            rects.append((x0, x1, y0, y1))
    if not rects:
        raise ParameterError(
            "sampling region does not meet the window's covered zone")
    r = np.array(rects)
    areas = (r[:, 1] - r[:, 0]) * (r[:, 3] - r[:, 2])
    probs = areas / areas.sum()
    out_x, out_y, got = [], [], 0
    for _ in range(40):
        k = rng.choice(len(rects), size=n, p=probs)
        x = r[k, 0] + rng.uniform(size=n) * (r[k, 1] - r[k, 0])
        y = r[k, 2] + rng.uniform(size=n) * (r[k, 3] - r[k, 2])
        mult = np.zeros(n)
        for x0, x1, y0, y1 in rects:
            mult += ((x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1))
        keep = (rng.uniform(size=n) * mult <= 1.0) & region_mask(x, y)
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
    region : Box, CarlesonSquare, Disk, StripUnion, or "auto"
        Sampling region; "auto"/None takes the tiled zone's bounding box.
    n_samples : int
    seed : int

    Returns
    -------
    CoverageReport
    """
    if not lat.points:
        raise ParameterError("empty lattice window")
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
