"""Tests for half-plane geometry and weighted integration.

Frozen reference numbers come from tools/oracles/integrals_oracle.py.
"""

import numpy as np
import pytest

from bergman_orlicz import halfplane as H
from bergman_orlicz.errors import DivergenceError, ParameterError


def test_hpoint_validation():
    p = H.HPoint(0.5, 2.0)
    assert p.z == 0.5 + 2.0j
    with pytest.raises(ParameterError):
        H.HPoint(0.0, 0.0)
    with pytest.raises(ParameterError):
        H.HPoint(0.0, -1.0)


def test_disk_radius_and_contains():
    d = H.Disk(H.HPoint(0.0, 1.0), 0.5)
    assert d.radius == 0.5
    assert d.contains(0.0 + 1.2j)
    assert not d.contains(0.0 + 1.6j)
    with pytest.raises(ParameterError):
        H.Disk(H.HPoint(0.0, 1.0), 1.0)


def test_beta_values():
    assert abs(H.beta(0.5, 1.5) - np.pi / 2) < 1e-14
    assert abs(H.beta(0.5, 2.5) - 3 * np.pi / 8) < 1e-14
    assert abs(H.beta(1.0, 4.0) - 0.25) < 1e-15
    assert abs(H.beta(2.0, 3.0) - 1.0 / 12.0) < 1e-15


def test_line_power_integral():
    # frozen: mpmath gives 0.5 for y=2, a=3
    assert abs(H.line_power_integral(2.0, 3.0) - 0.5) < 1e-14
    with pytest.raises(DivergenceError):
        H.line_power_integral(1.0, 1.0)
    with pytest.raises(ParameterError):
        H.line_power_integral(-1.0, 3.0)


def test_halfline_power_integral():
    # frozen: mpmath gives 1/24 for t=2, a=1, b=4
    v = H.halfline_power_integral(2.0, 1.0, 4.0)
    assert abs(v - 1.0 / 24.0) < 1e-15
    with pytest.raises(DivergenceError):
        H.halfline_power_integral(1.0, -1.0, 2.0)
    with pytest.raises(DivergenceError):
        H.halfline_power_integral(1.0, 1.0, 2.0)


@pytest.mark.parametrize("t,a,b", [(1.0, 0.0, 4.0), (0.37, 0.5, 5.0),
                                   (2.5, -0.3, 3.2), (1e-3, 1.5, 7.0)])
def test_plane_power_integral_is_line_times_halfline(t, a, b):
    v = H.plane_power_integral(t, a, b)
    # int_R |x + i(y + t)|^-b dx = B(1/2, (b-1)/2) (y + t)^(1-b), then in y
    split = H.line_power_integral(1.0, b) * H.halfline_power_integral(t, a, b - 1)
    assert v == pytest.approx(split, rel=1e-14)


def test_plane_power_integral_quadrature_and_divergence():
    # int y^0.5 |z + 2i|^-4.5 dA against the adaptive whole-plane rule
    v = H.plane_power_integral(2.0, 0.5, 4.5)
    quad = H.integrate(lambda z: np.abs(z + 2j) ** -4.5, 0.5, tol=1e-10)
    assert v == pytest.approx(quad, rel=1e-8)
    for a, b in ((-1.0, 4.0), (0.0, 2.0), (1.0, 2.5)):
        with pytest.raises(DivergenceError):
            H.plane_power_integral(1.0, a, b)
    with pytest.raises(ParameterError):
        H.plane_power_integral(0.0, 0.0, 4.0)


def test_disk_measure_exact_small_alpha():
    d = H.Disk(H.HPoint(0.3, 2.0), 0.25)
    r = d.radius
    assert abs(H.disk_measure(d, 0.0) - np.pi * r * r) < 1e-14
    assert abs(H.disk_measure(d, 1.0) - np.pi * r * r * 2.0) < 1e-13


def test_disk_measure_alpha2():
    # frozen: mpmath second moment over disk center (0,1), r=0.5
    d = H.Disk(H.HPoint(0.0, 1.0), 0.5)
    ref = 0.83448554860978882897
    assert abs(H.disk_measure(d, 2.0) - ref) / ref < 1e-10


def test_integrate_unweighted_decay():
    # frozen: modular of |1-iz|^{-3} squared is 3*pi/32
    f = lambda z: np.abs(1.0 - 1j * z) ** -6.0
    v = H.integrate(f, 0.0, None, tol=1e-8)
    ref = 3 * np.pi / 32
    assert abs(v - ref) / ref < 1e-6


def test_integrate_weighted_decay():
    # frozen: same with alpha=1, mpmath 0.098174770424681038702
    f = lambda z: np.abs(1.0 - 1j * z) ** -6.0
    v = H.integrate(f, 1.0, None, tol=1e-8)
    ref = 0.098174770424681038702
    assert abs(v - ref) / ref < 1e-6


def test_integrate_box_weighted():
    box = H.Box(0.0, 2.0, 0.0, 1.0)
    v = H.integrate(lambda z: np.ones_like(z, dtype=float), 1.0, box, tol=1e-10)
    assert abs(v - 1.0) < 1e-8


def test_integrate_carleson_square():
    sq = H.CarlesonSquare(0.0, 1.0)
    v = H.integrate(lambda z: np.ones_like(z, dtype=float), 0.0, sq, tol=1e-10)
    assert abs(v - 1.0) < 1e-8


def test_integrate_disk_region():
    d = H.Disk(H.HPoint(0.0, 1.0), 0.5)
    v = H.integrate(lambda z: np.ones_like(z, dtype=float), 0.0, d, tol=1e-10)
    assert abs(v - np.pi * 0.25) < 1e-8


def test_integrate_mass_far_from_origin():
    # the base box and the first shells hold no mass at all
    f = lambda z: np.exp(-np.abs(z - (40 + 20j)) ** 2)
    assert abs(H.integrate(f, 0.0) - np.pi) < 1e-8


def test_integrate_carleson_mass_below_empty_strips():
    f = lambda z: np.exp(-1e4 * np.imag(z))
    v = H.integrate(f, 0.0, H.CarlesonSquare(0.5, 1.0))
    assert abs(v - 1e-4) < 1e-8 * 1e-4


@pytest.mark.parametrize("region", [None, H.Box(-1.0, 1.0, 0.5, 1.0)])
def test_integrate_zero_valued(region):
    # odd in x: the value is 0, and the float noise floor stops refinement
    f = lambda z: np.real(z) * np.exp(-np.abs(z) ** 2)
    assert abs(H.integrate(f, 0.0, region)) <= 1e-14


def test_carleson_square_is_a_boundary_box():
    sq = H.CarlesonSquare(0.5, 2.0)
    assert sq == H.Box(-0.5, 1.5, 0.0, 2.0)
    assert H.region_from_json({"box": [-0.5, 1.5, 0.0, 2.0]}) == sq
    wire = {"carleson": {"center": 0.5, "length": 2.0}}
    assert H.region_from_json(wire) == sq
    with pytest.raises(ParameterError):
        H.CarlesonSquare(0.0, 0.0)


_REGIONS = {
    "box": (H.Box(-0.5, 1.0, 0.25, 2.0),
            lambda x, y: (-0.5 <= x) & (x <= 1.0) & (0.25 <= y) & (y <= 2.0)),
    "boundary-box": (H.Box(0.0, 2.0, 0.0, 1.0),
                     lambda x, y: (0.0 <= x) & (x <= 2.0) & (y <= 1.0)),
    "carleson": (H.CarlesonSquare(0.5, 1.0),
                 lambda x, y: (0.0 <= x) & (x <= 1.0) & (y <= 1.0)),
    "disk": (H.Disk(H.HPoint(0.3, 1.0), 0.5),
             lambda x, y: (x - 0.3) ** 2 + (y - 1.0) ** 2 < 0.25),
}


@pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("name", sorted(_REGIONS))
def test_region_contract(name, alpha):
    region, inside = _REGIONS[name]
    ones = lambda z: np.ones_like(np.real(z))
    mass = region.mass(alpha)
    assert abs(H.integrate(ones, alpha, region, tol=1e-12) - mass) < 1e-9
    x0, x1, y0, y1 = region.bbox
    x, y = np.meshgrid(np.linspace(x0 - 0.1, x1 + 0.1, 57),
                       np.linspace(max(y0 - 0.1, 1e-3), y1 + 0.1, 43))
    np.testing.assert_array_equal(region.contains(x + 1j * y), inside(x, y))
    assert region.contains(x + 1j * y).sum() > 0


def test_integrate_divergent_flagged():
    with pytest.raises(DivergenceError):
        H.integrate(lambda z: 1.0 / (1.0 + np.abs(z) ** 2), 0.0, None, tol=1e-8)
