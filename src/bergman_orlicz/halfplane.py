"""Geometry of the upper half-plane and integration against y^alpha dx dy.

Points are strictly interior (y > 0). Pseudo-hyperbolic style disks are
Euclidean disks D_s(z) = {w : |w - z| < s Im z} with 0 < s < 1, so they stay
inside the half-plane. Integration closed forms reduce to the Beta function.

This module is the only one that knows the region kinds: a Box (a Carleson
square I x (0, |I|] is the boundary Box `CarlesonSquare` returns), a Disk,
or None for the whole half-plane.  Each region answers
`contains`, `bbox` and its V_alpha `mass`; `_integrate_region` integrates a
field over any of them, a disk on one polar chart.  `row_cells` and
`disk_meet` give V_tau of a region's meet with a row of dyadic cells and
with a disk, in closed form for boxes and along chords for disks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergenceError, DomainError, ParameterError, need,
                     number)
from .quadrature import (
    ORDER_HIGH,
    ORDER_LOW,
    RULE,
    Field2D,
    MappedField,
    _batch_nodes,
    integrate_1d,
    integrate_box,
    integrate_box_graded,
    integrate_halfplane,
)


@dataclass(frozen=True)
class HPoint:
    """A point x + iy of the open upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0) or not math.isfinite(self.y) or not math.isfinite(self.x):
            raise ParameterError(f"point must satisfy Im z > 0, got y={self.y}")

    @property
    def z(self):
        return complex(self.x, self.y)


@dataclass(frozen=True)
class Disk:
    """Disk D_s(center) of radius s * Im(center), strictly inside the half-plane."""

    center: HPoint
    s: float

    def __post_init__(self):
        if not (0 < self.s < 1):
            raise ParameterError(f"disk ratio must lie in (0, 1), got s={self.s}")

    @property
    def radius(self):
        return self.s * self.center.y

    @property
    def bbox(self):
        c, r = self.center, self.radius
        return (c.x - r, c.x + r, c.y - r, c.y + r)

    def contains(self, z):
        """Vectorized membership test for complex z."""
        return np.abs(np.asarray(z) - self.center.z) < self.radius

    def mass(self, alpha):
        """V_alpha measure of the disk."""
        return disk_measure(self, alpha)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [x_min, x_max] x [y_min, y_max], y_min >= 0."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and 0 <= self.y_min < self.y_max):
            raise ParameterError(f"degenerate box {self}")

    @property
    def bbox(self):
        return (self.x_min, self.x_max, self.y_min, self.y_max)

    def contains(self, z):
        """Vectorized membership test for complex z (closed box)."""
        x, y = np.real(z), np.imag(z)
        return ((self.x_min <= x) & (x <= self.x_max)
                & (self.y_min <= y) & (y <= self.y_max))

    def mass(self, alpha):
        """V_alpha measure of the box, in closed form."""
        a1 = alpha + 1
        return (self.x_max - self.x_min) \
            * (self.y_max ** a1 - self.y_min ** a1) / a1


def CarlesonSquare(interval_center, interval_length):
    """The Carleson square I x (0, |I|] over a boundary interval I, as the
    boundary Box it is."""
    c, length = float(interval_center), float(interval_length)
    return Box(c - 0.5 * length, c + 0.5 * length, 0.0, length)


# Region = Box | Disk | None (whole half-plane); a Carleson
# square is a Box with y_min = 0.  Each answers contains(z), bbox and
# mass(alpha); `_integrate_region`, `row_cells` and `disk_meet` are the
# places that branch on the kind.


def beta(m, n):
    """Euler Beta B(m, n) for m, n > 0, via log-Gamma."""
    if not (m > 0 and n > 0):
        raise ParameterError(f"beta needs positive arguments, got ({m}, {n})")
    return math.exp(math.lgamma(m) + math.lgamma(n) - math.lgamma(m + n))


def line_power_integral(y, a):
    """Closed form of int_R |x + iy|^-a dx = B(1/2, (a-1)/2) y^(1-a).

    Requires y > 0; diverges unless a > 1.
    """
    if not (y > 0):
        raise ParameterError(f"height must be positive, got y={y}")
    if not (a > 1):
        raise DivergenceError(f"line integral diverges for exponent a={a} <= 1")
    return beta(0.5, 0.5 * (a - 1)) * y ** (1 - a)


def halfline_power_integral(t, a, b):
    """Closed form of int_0^inf y^a (y+t)^-b dy = B(1+a, b-a-1) t^(1+a-b).

    Requires t > 0; converges iff a > -1 (at 0) and b - a > 1 (at infinity).
    """
    if not (t > 0):
        raise ParameterError(f"shift must be positive, got t={t}")
    if not (a > -1):
        raise DivergenceError(f"half-line integral diverges at 0 for a={a} <= -1")
    if not (b - a > 1):
        raise DivergenceError(f"half-line integral diverges at infinity for b-a={b - a} <= 1")
    return beta(1 + a, b - a - 1) * t ** (1 + a - b)


def plane_power_integral(t, a, b):
    """Closed form of int_C+ y^a |z + it|^-b dA = B(1/2, (b-1)/2)
    B(1+a, b-a-2) t^(2+a-b): `line_power_integral` at height y + t, then
    `halfline_power_integral` in y.  Requires t > 0; converges iff a > -1
    and b - a > 2."""
    if not (t > 0):
        raise ParameterError(f"shift must be positive, got t={t}")
    if not (a > -1 and b - 2.0 - a > 0):
        raise DivergenceError(
            f"plane integral of y^{a} |z + it|^-{b} diverges: "
            f"need a > -1 and b - a > 2")
    return beta(0.5, 0.5 * (b - 1.0)) * beta(1.0 + a, b - 2.0 - a) \
        * t ** (2.0 + a - b)


def _weighted(f, alpha):
    def fn(X, Y):
        return np.asarray(f(X + 1j * Y)) * Y ** alpha

    return fn


def integrate_disk(f, alpha, disk, tol=1e-8):
    """Integral of f(z) y^alpha over a disk, in polar coordinates."""
    return _integrate_region(_chart_field(_weighted(f, alpha), disk), disk,
                             tol)


def integrate(f, alpha, region=None, tol=1e-8):
    """Integral of a vectorized complex-argument callable against y^alpha dxdy.

    Parameters
    ----------
    f : callable
        Accepts a complex ndarray, returns values of the same shape.
    alpha : float
        Weight exponent, alpha > -1.
    region : Box | Disk | None
        None integrates over the whole half-plane with automatic truncation
        driven by the integrand's decay (doubling shells).
    tol : float
        Relative tolerance.

    Raises
    ------
    DivergenceError
        When strip/shell masses do not decay (non-integrable input).
    AccuracyError
        When the refinement budget is exhausted.
    """
    if not (alpha > -1):
        raise ParameterError(f"weight exponent must exceed -1, got alpha={alpha}")
    return _integrate_region(_chart_field(_weighted(f, alpha), region),
                             region, tol)


def _chart_field(fn, region):
    """fn(x, y) as a Field2D on the chart `_integrate_region` integrates
    `region` in: polar (R, T) in (0, r) x (0, 2 pi) about a Disk's centre,
    x and y for every other region."""
    if not isinstance(region, Disk):
        return Field2D(fn)
    cx, cy = region.center.x, region.center.y
    return Field2D(lambda R, T: fn(cx + R * np.cos(T), cy + R * np.sin(T)))


SEED_PANEL = (-0.5, 0.5, 0.5, 1.5)


def _disk_chart(disk):
    """The one panel of a Disk's polar chart, (0, r) x (0, 2 pi)."""
    return (0.0, disk.radius, 0.0, 2 * math.pi)


def _seed_values(field, region):
    """Values of a `_chart_field` at the order-8 nodes of the panel on which
    a modular's root-finding seed samples |f|.

    For a Disk that panel is the whole chart, which is also the first
    quadrature panel, so the values are the order-8 tail of its RULE
    values.  Every other region samples SEED_PANEL if its bbox meets it
    (the whole plane always does), and its own bbox otherwise.
    """
    if isinstance(region, Disk):
        return field.values(_disk_chart(region), RULE)[ORDER_HIGH ** 2:]
    panel = SEED_PANEL
    if region is not None:
        x0, x1, y0, y1 = region.bbox
        if x0 > panel[1] or x1 < panel[0] or y0 > panel[3] or y1 < panel[2]:
            panel = region.bbox
    return field.values(panel, (ORDER_LOW,))


def _polar_area(rects, rows):
    """Rows of a polar chart field times the area element R."""
    return rows * _batch_nodes(rects)[0]


def _integrate_region(field, region, tol):
    """Integral over a region of a field on its `_chart_field` chart.

    A disk integrates its polar chart times R; boxes on the boundary grade
    toward y = 0.
    """
    if region is None:
        value, _, _ = integrate_halfplane(field, tol=tol)
    elif isinstance(region, Disk):
        value, _, _ = integrate_box(MappedField(field, _polar_area),
                                    _disk_chart(region), tol=tol)
    elif isinstance(region, Box) and region.y_min == 0:
        value, _, _ = integrate_box_graded(
            field, region.x_min, region.x_max, region.y_max, tol=tol)
    elif isinstance(region, Box):
        value, _, _ = integrate_box(field, region.bbox, tol=tol)
    else:
        raise ParameterError(f"unknown region {region!r}")
    return value


def disk_measure(disk, alpha, tol=1e-12):
    """V_alpha measure of a disk: int_D y^alpha dxdy.

    Reduces to 2 r^2 int_{-pi/2}^{pi/2} (y0 + r sin t)^alpha cos^2 t dt, which
    is exact (pi r^2 for alpha = 0, pi r^2 y0 for alpha = 1).
    """
    if not (alpha > -1):
        raise ParameterError(f"weight exponent must exceed -1, got alpha={alpha}")
    y0, r = disk.center.y, disk.radius
    if not (r < y0):
        raise DomainError("disk touches the boundary of the half-plane")
    if alpha == 0:
        return math.pi * r * r
    if alpha == 1:
        return math.pi * r * r * y0

    def fn(t):
        return (y0 + r * np.sin(t)) ** alpha * np.cos(t) ** 2

    value, _ = integrate_1d(fn, -0.5 * math.pi, 0.5 * math.pi, tol=tol)
    return 2 * r * r * value


def _band(y0, y1, tau):
    """int_{y0}^{y1} y^tau dy for 0 < y0 (a log at tau = -1); 0 if y1 <= y0."""
    if not y1 > y0:
        return 0.0
    s, log_ratio = 1.0 + tau, math.log(y1 / y0)
    return log_ratio if s == 0 else y1 ** s * -math.expm1(-s * log_ratio) / s


def disk_meet(disk, region, tau, tol=1e-10):
    """V_tau(disk ∩ region): `disk_measure` on the whole plane, and for a
    Box or a Disk one `integrate_1d` over the chords y = c_y + r sin t of the
    disk, of y^tau times the chord's overlap with the region times
    dy/dt = r cos t, the chord's half-length."""
    if region is None:
        return disk_measure(disk, tau)
    c, r = disk.center, disk.radius
    s0, s1 = (min(max((v - c.y) / r, -1.0), 1.0) for v in region.bbox[2:])
    if not s1 > s0:
        return 0.0

    def fn(t):
        y, half = c.y + r * np.sin(t), r * np.cos(t)
        lo, hi = region.bbox[:2]  # the heights are the box's
        if isinstance(region, Disk):
            o = region.center
            w = np.sqrt(np.maximum(region.radius ** 2 - (y - o.y) ** 2, 0.0))
            lo, hi = o.x - w, o.x + w
        width = np.minimum(hi, c.x + half) - np.maximum(lo, c.x - half)
        return y ** tau * np.maximum(width, 0.0) * half

    return integrate_1d(fn, math.asin(s0), math.asin(s1), tol=tol)[0]


def row_cells(region, tau, b, k, lo, hi, tol=1e-10):
    """V_tau(region ∩ Q) over the cells Q = [b + m h, b + (m+1) h) x [h/2, h),
    h = 2^-k, m in [lo, hi), as (counts, masses): groups of cells that share
    a mass, leaving out the cells the region misses.  A box (the whole plane
    is one) puts its x-overlap times `_band` in a cell, so the whole cells
    between its two edges share a mass, and a row is at most three groups.
    A Disk goes through `disk_meet` for each cell it meets."""
    h = 2.0 ** -k
    x0, x1, y0, y1 = ((-math.inf, math.inf, 0.0, math.inf) if region is None
                      else region.bbox)
    if not (y0 < h and y1 > h / 2 and x0 - b < hi * h and x1 - b > lo * h):
        return np.zeros(0), np.zeros(0)
    if isinstance(region, Disk):
        disk = Disk(HPoint(region.center.x - b, region.center.y), region.s)
        masses = np.array([
            disk_meet(disk, Box(m * h, (m + 1) * h, h / 2, h), tau, tol)
            for m in range(max(lo, math.floor((x0 - b) / h)),
                           min(hi, math.floor((x1 - b) / h) + 1))])
        masses = masses[masses > 0]
        return np.ones(len(masses)), masses
    u0, u1, w = x0 - b, x1 - b, _band(max(y0, h / 2), min(y1, h), tau)
    marks = sorted({lo, hi} | {m + d for u in (u0, u1) if math.isfinite(u)
                               and lo <= (m := math.floor(u / h)) < hi
                               for d in (0, 1)})
    counts, masses = [], []
    for m0, m1 in zip(marks, marks[1:]):
        if u0 < m1 * h and u1 > m0 * h:
            mass = w * (min(u1, m1 * h) - max(u0, m0 * h))
            if mass > 0:
                counts.append(float(m1 - m0))
                masses.append(mass / (m1 - m0))
    return np.array(counts), np.array(masses)


def region_from_json(obj):
    """Parse the region wire format.

    Accepts {"box": [x0, x1, y0, y1]}, {"carleson": {"center": c,
    "length": L}} (read as its boundary Box), {"disk": {"cx": x, "cy": y,
    "s": s}}, or "auto" (None) for the automatic whole-plane truncation.
    """
    if obj is None or obj == "auto":
        return None
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParameterError(f"malformed region spec: {obj!r}")
    if "box" in obj:
        edges = need(obj, "box", "box", 4)
        return Box(*(number(edges, i, "box") for i in range(4)))
    if "carleson" in obj:
        c = obj["carleson"]
        return CarlesonSquare(*(number(c, k, "carleson")
                                for k in ("center", "length")))
    if "disk" in obj:
        d = obj["disk"]
        cx, cy, s = (number(d, k, "disk") for k in ("cx", "cy", "s"))
        return Disk(HPoint(cx, cy), s)
    raise ParameterError(f"unknown region variant {list(obj)[0]!r}")

