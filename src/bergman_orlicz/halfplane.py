"""Geometry of the upper half-plane and integration against y^alpha dx dy.

Points are strictly interior (y > 0). Pseudo-hyperbolic style disks are
Euclidean disks D_s(z) = {w : |w - z| < s Im z} with 0 < s < 1, so they stay
inside the half-plane. Integration closed forms reduce to the Beta function.

This module is the only one that knows the region kinds: a Box (a Carleson
square I x (0, |I|] is the boundary Box `CarlesonSquare` returns), a Disk, a
StripUnion of boxes, or None for the whole half-plane.  Each region answers
`contains`, `bbox` and its V_alpha `mass`; `_integrate_region` integrates a
field over any of them, a disk on one polar chart.
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


@dataclass(frozen=True)
class StripUnion:
    """Finite union of pairwise-disjoint boxes."""

    boxes: tuple

    def __post_init__(self):
        if not self.boxes:
            raise ParameterError("strip union needs at least one box")

    @property
    def bbox(self):
        x0, x1, y0, y1 = zip(*(b.bbox for b in self.boxes))
        return (min(x0), max(x1), min(y0), max(y1))

    def contains(self, z):
        return np.any([b.contains(z) for b in self.boxes], axis=0)

    def mass(self, alpha):
        return sum(b.mass(alpha) for b in self.boxes)


# Region = Box | Disk | StripUnion | None (whole half-plane); a Carleson
# square is a Box with y_min = 0.  Each answers contains(z), bbox and
# mass(alpha), and `_integrate_region` is the one place that branches on
# the kind.


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
    region : Box | Disk | StripUnion | None
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
    toward y = 0; a strip union sums the same field over its boxes.
    """
    if region is None:
        value, _, _ = integrate_halfplane(field, tol=tol)
    elif isinstance(region, Disk):
        value, _, _ = integrate_box(MappedField(field, _polar_area),
                                    _disk_chart(region), tol=tol)
    elif isinstance(region, StripUnion):
        value = sum(_integrate_region(field, box, tol) for box in region.boxes)
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

